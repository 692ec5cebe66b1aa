open Ccpfs_util
open Ccpfs

(* Cluster-scale wall-clock benchmark: the Fig. 18 shared-file contention
   pattern (every client rewrites the same range of one file under
   whole-range PW locks) pushed to 128/256/512 simulated clients.

   Unlike the figure reproductions, the measured quantity here is the
   *simulator's* throughput — real elapsed seconds per run, events/sec
   and lock requests/sec — because lock-server queueing under heavy
   contention is the simulation hot path: a contended run used to be
   O(n^2)+ in queued waiters, capping experiments near ~100 clients.
   Each run appends one row to BENCH_scale.json (schema ccpfs.scale/1),
   the repo's wall-clock perf trajectory. *)

(* CI's scale-smoke job runs the 1024-client point only:
   CCPFS_SCALE_CLIENTS="1024" ccpfs_run run scale *)
let client_counts () =
  Harness.env_ints "CCPFS_SCALE_CLIENTS" ~default:[ 128; 256; 512 ]

let xfer = 64 * Units.kib

(* Span of the deterministic per-write think-time jitter.  Without it the
   convoy is perfectly symmetric: after the first round every write
   experiences the identical steady-state queue wait, all samples are
   bit-for-bit equal and p50 == p99 exactly (the committed-bench
   degeneracy this knob fixes).  Real clients never arrive in lockstep;
   a uniform [0, 50µs) pause before each write — excluded from the
   measured latency — desynchronises arrivals enough that the recorded
   distribution has genuine spread, while staying two orders of
   magnitude below the multi-ms queue waits it perturbs. *)
let think_jitter_span = 50e-6

(* Batch factors measured per client count: the plain transport and, for
   comparison, per-destination RPC batching at CCPFS_BATCH (default 8).
   Each produces its own tagged row in BENCH_scale.json. *)
let batch_points () =
  let k = Config.default.Config.batch_k in
  [ 0; (if k > 1 then k else 8) ]

(* One contended run through the shared measured pass (host-timed);
   returns the table cells and the BENCH_scale.json row. *)
let point ~clients ~writes_each ~batch_k =
  let p =
    Harness.measure ~name:"exp_scale"
      ~config:(Config.with_batching ~k:batch_k Config.default)
      ~policy:Seqdlm.Policy.seqdlm ~servers:1 ~clients
      (fun cl spawn ->
        let eng = Cluster.engine cl in
        let lat = Stats.create () in
        let root_rng = Det_random.create ~seed:0x5ca1e in
        for i = 0 to clients - 1 do
          let rng = Det_random.split root_rng in
          spawn i (Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true "/scale" in
              for _ = 1 to writes_each do
                Dessim.Engine.sleep eng (Det_random.float rng think_jitter_span);
                let t0 = Cluster.now cl in
                Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f
                  ~off:0 ~len:xfer;
                Stats.add lat (Cluster.now cl -. t0)
              done)
        done;
        fun () -> lat)
  in
  let s = Cluster.sum_lock_stats p.cluster and lat = p.value in
  let events = Dessim.Engine.events_dispatched (Cluster.engine p.cluster) in
  let requests = clients * writes_each in
  let per_sec n = float_of_int n /. Float.max 1e-9 p.wall_s in
  let p50 = Stats.percentile lat 50. and p99 = Stats.percentile lat 99. in
  let cells =
    [
      string_of_int clients;
      (if batch_k > 1 then string_of_int batch_k else "off");
      Units.seconds_to_string p.wall_s;
      Printf.sprintf "%.3g" (per_sec events);
      Printf.sprintf "%.3g" (per_sec requests);
      string_of_int s.max_queue;
      Units.seconds_to_string p50;
      Units.seconds_to_string p99;
    ]
  in
  let open Obs.Json in
  ( cells,
    Obj
      [
        ("experiment", Str "scale");
        ("scale", Float (Obs.Hub.scale ()));
        ("batch_k", Int batch_k);
        ("clients", Int clients);
        ("writes_each", Int writes_each);
        ("xfer_bytes", Int xfer);
        ("wall_s", Float p.wall_s);
        ("events", Int events);
        ("events_per_s", Float (per_sec events));
        ("requests", Int requests);
        ("requests_per_s", Float (per_sec requests));
        ("sim_pio_s", Float p.pio);
        ("sim_total_s", Float (Cluster.now p.cluster));
        ("write_lat_p50_s", Float p50);
        ("write_lat_p99_s", Float p99);
        ( "lock_stats",
          Obj
            [
              ("grants", Int s.grants);
              ("early_grants", Int s.early_grants);
              ("early_revocations", Int s.early_revocations);
              ("revokes_sent", Int s.revokes_sent);
              ("upgrades", Int s.upgrades);
              ("downgrades", Int s.downgrades);
              ("releases", Int s.releases);
              ("expansions", Int s.expansions);
              ("revocation_wait_s", Float s.revocation_wait);
              ("release_wait_s", Float s.release_wait);
              ("max_queue", Int s.max_queue);
            ] );
      ] )

let results_schema = "ccpfs.scale/1"
let results_path = "BENCH_scale.json"

let run ~scale =
  let writes_each = Harness.scaled ~scale 8 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Scale: simulator wall-clock throughput, shared-file PW contention \
            (%d writes/client x %s)"
           writes_each
           (Units.bytes_to_string xfer))
      ~columns:
        [ "clients"; "batch"; "wall"; "events/s"; "reqs/s"; "max queue";
          "lat p50"; "lat p99" ]
  in
  let rows =
    List.concat_map
      (fun clients ->
        List.map
          (fun batch_k ->
            let cells, row = point ~clients ~writes_each ~batch_k in
            Table.add_row tbl cells;
            row)
          (batch_points ()))
      (client_counts ())
  in
  let n =
    Obs.Results.write ~append:true ~schema:results_schema ~path:results_path
      rows
  in
  Table.add_note tbl
    (Printf.sprintf "wall = real elapsed time of the simulation; %d row(s) in %s"
       n results_path);
  Table.print tbl
