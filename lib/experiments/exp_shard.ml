open Ccpfs_util
open Ccpfs

(* Lock-namespace sharding capstone (DESIGN.md §15): the same pairwise
   PW contention workload pushed through 1, 2, 4 and 8 lock servers at
   512 clients.  Client pair k ping-pongs a whole-block PW lock on
   stripe [k mod stripes], so the file's resources form [stripes]
   independent contention domains; with the namespace sharded over n
   servers each server carries [stripes/n] of them and the aggregate
   simulated request rate should rise close to linearly — the paper's
   motivation for distributing the DLM in the first place (§II-B).

   Every multi-server point also performs at least one epoch-fenced
   live migration while the traffic runs (a forced rehoming of stripe
   0's resource plus whatever the queue-depth rebalancer decides), so
   the row doubles as an end-to-end soak of the Stale_owner
   refresh-and-retry path: [migrations] and [stale_bounces] are
   recorded per row.

   The measured quantity is requests per *simulated* second — service
   capacity, the thing sharding buys — with wall-clock throughput kept
   alongside for the perf trajectory.  Each run appends one row to
   BENCH_shard.json (schema ccpfs.shard/1). *)

(* CI's shard-smoke job runs a reduced sweep:
   CCPFS_SHARD_SERVERS="1,2" CCPFS_SHARD_CLIENTS=32 ccpfs_run run shard *)
let server_counts () =
  Knob.env_ints "CCPFS_SHARD_SERVERS" ~default:[ 1; 2; 4; 8 ]

let client_count () = Knob.env_int "CCPFS_SHARD_CLIENTS" ~default:512
let stripe_count () = Knob.env_int "CCPFS_SHARD_STRIPES" ~default:32

let stripe_size = 64 * Units.kib
let xfer = 16 * Units.kib

(* Same role as exp_scale's think jitter: desynchronise the convoy so
   the latency distribution has genuine spread. *)
let think_jitter_span = 50e-6

(* One server count through the shared measured pass: returns the
   simulated request rate, the table cells (given the speedup over the
   first point) and the BENCH_shard.json row. *)
let point ~servers ~clients ~stripes ~writes_each =
  let p =
    Harness.measure ~name:"exp_shard"
      ~config:(Config.with_extent_log true Config.default)
      ~policy:Seqdlm.Policy.seqdlm ~servers ~clients
      (fun cl spawn ->
        let eng = Cluster.engine cl in
        let layout = Layout.v ~stripe_size ~stripe_count:stripes () in
        let lat = Stats.create () in
        let file = ref None in
        let root_rng = Det_random.create ~seed:0x54a4d in
        for i = 0 to clients - 1 do
          let rng = Det_random.split root_rng in
          let stripe = i / 2 mod stripes in
          spawn i (Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true ~layout "/shard" in
              if Option.is_none !file then file := Some f;
              for _ = 1 to writes_each do
                Dessim.Engine.sleep eng (Det_random.float rng think_jitter_span);
                let t0 = Cluster.now cl in
                Client.write ~mode:Seqdlm.Mode.PW c f
                  ~off:(stripe * stripe_size) ~len:xfer;
                Stats.add lat (Cluster.now cl -. t0)
              done)
        done;
        (* Live migration under traffic: rehome stripe 0's resource to
           the next server partway through the run, and let the
           queue-depth rebalancer shave whatever imbalance it observes. *)
        let rb =
          if servers > 1 then begin
            let params = Cluster.params cl in
            Dessim.Engine.spawn eng ~name:"forced-migration" (fun () ->
                (* Wait for a quarter of the writes, so the rehoming
                   lands while the remaining three quarters are still in
                   flight and the Stale_owner path sees real traffic. *)
                let quarter = clients * writes_each / 4 in
                while Stats.count lat < quarter do
                  Dessim.Engine.sleep eng (10. *. params.Netsim.Params.rtt)
                done;
                match !file with
                | None -> ()
                | Some f ->
                    let rid = Layout.rid ~fid:(Client.fid f) ~stripe:0 in
                    let dst = (Cluster.server_of_rid cl rid + 1) mod servers in
                    ignore (Cluster.migrate_resource cl ~rid ~dst));
            let rb = Ha.Rebalancer.create ~threshold:8 cl in
            Ha.Rebalancer.start rb;
            Some rb
          end
          else None
        in
        fun () ->
          Option.iter Ha.Rebalancer.stop rb;
          lat)
  in
  let cl = p.cluster and lat = p.value in
  let s = Cluster.sum_lock_stats cl in
  let requests = clients * writes_each in
  let rate = float_of_int requests /. Float.max 1e-9 p.pio in
  let migrations = List.length (Cluster.migrations cl) in
  let bounces = Cluster.total_stale_bounces cl in
  let p99 = Stats.percentile lat 99. in
  let cells ~speedup =
    [
      string_of_int servers;
      Printf.sprintf "%.4g" rate;
      Printf.sprintf "%.2fx" speedup;
      string_of_int migrations;
      string_of_int bounces;
      string_of_int s.max_queue;
      Units.seconds_to_string p99;
      Units.seconds_to_string p.wall_s;
    ]
  in
  let open Obs.Json in
  ( rate,
    cells,
    Obj
      [
        ("experiment", Str "shard");
        ("scale", Float (Obs.Hub.scale ()));
        ("servers", Int servers);
        ("clients", Int clients);
        ("stripes", Int stripes);
        ("writes_each", Int writes_each);
        ("xfer_bytes", Int xfer);
        ("requests", Int requests);
        ("sim_pio_s", Float p.pio);
        ("sim_total_s", Float (Cluster.now cl));
        ("requests_per_sim_s", Float rate);
        ("wall_s", Float p.wall_s);
        ("events", Int (Dessim.Engine.events_dispatched (Cluster.engine cl)));
        ("migrations", Int migrations);
        ("stale_bounces", Int bounces);
        ("write_lat_p50_s", Float (Stats.percentile lat 50.));
        ("write_lat_p99_s", Float p99);
        ( "lock_stats",
          Obj
            [
              ("grants", Int s.grants);
              ("revokes_sent", Int s.revokes_sent);
              ("releases", Int s.releases);
              ("revocation_wait_s", Float s.revocation_wait);
              ("max_queue", Int s.max_queue);
            ] );
      ] )

let results_schema = "ccpfs.shard/1"
let results_path = "BENCH_shard.json"

let run ~scale =
  let writes_each = Harness.scaled ~scale 8 in
  let clients = client_count () and stripes = stripe_count () in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Shard: aggregate lock throughput, %d clients in PW pairs over %d \
            stripes (%d writes/client x %s)"
           clients stripes writes_each
           (Units.bytes_to_string xfer))
      ~columns:
        [ "servers"; "sim reqs/s"; "speedup"; "migrations"; "bounces";
          "max queue"; "lat p99"; "wall" ]
  in
  let base = ref None in
  let rows =
    List.map
      (fun servers ->
        let rate, cells, row = point ~servers ~clients ~stripes ~writes_each in
        if Option.is_none !base then base := Some rate;
        Table.add_row tbl (cells ~speedup:(rate /. Option.get !base));
        row)
      (server_counts ())
  in
  let n =
    Obs.Results.write ~append:true ~schema:results_schema ~path:results_path
      rows
  in
  Table.add_note tbl
    (Printf.sprintf
       "sim reqs/s = lock requests per simulated second (service capacity); \
        %d row(s) in %s"
       n results_path);
  Table.print tbl
