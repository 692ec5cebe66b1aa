open Ccpfs_util
open Ccpfs

(* Online lock-server failover under traffic (§IV-C2, made live by
   lib/ha): N clients rewrite a shared file under PW contention; a
   quarter of the way through the workload the lock server is killed
   mid-flight.  Heartbeats time out, the membership lease expires, the
   recovery coordinator regathers the lock table from the clients'
   caches and replays the extent logs behind an epoch fence, and the
   in-flight clients ride their retry loops across the outage.

   The measured quantities are the availability story the figure
   reproductions have no analogue for: the unavailability window
   (crash -> endpoints reopened), its detection and recovery halves,
   the number of RPC retries the outage cost, and a virtual-time
   throughput series whose dip makes the window visible.  Each run
   appends one row to BENCH_failover.json (schema ccpfs.failover/1). *)

(* CI's crash-smoke job pins the client count:
   CCPFS_FAILOVER_CLIENTS=8 ccpfs_run run failover *)
let client_count () = Knob.env_int ~min:2 "CCPFS_FAILOVER_CLIENTS" ~default:8

let bucket_count = 24

(* Bucket the write completions into a fixed-width virtual-time series;
   the empty buckets between f_crash and f_recover are the outage. *)
let throughput_series (m : Exp_repl.measurement) =
  let horizon = Float.max m.m_sim_total_s 1e-9 in
  let width = horizon /. float_of_int bucket_count in
  let counts = Array.make bucket_count 0 in
  (match m.m_traffic with
  | Closed completions ->
      List.iter
        (fun t ->
          let b = min (bucket_count - 1) (int_of_float (t /. width)) in
          counts.(b) <- counts.(b) + 1)
        completions
  | Open _ -> ());
  (width, counts)

let row_of ~writes_each (m : Exp_repl.measurement) =
  let r = m.m_failover in
  let width, counts = throughput_series m in
  let open Obs.Json in
  Obj
    [
      ("experiment", Str "failover");
      ("scale", Float (Obs.Hub.scale ()));
      ("clients", Int m.m_clients);
      ("writes_each", Int writes_each);
      ("xfer_bytes", Int Exp_repl.xfer);
      ("ops", Int (Exp_repl.ops m));
      ("sim_total_s", Float m.m_sim_total_s);
      ("crash_s", Float r.f_crash);
      ("detect_s", Float r.f_detect);
      ("recover_s", Float r.f_recover);
      ("detect_latency_s", Float (r.f_detect -. r.f_crash));
      ("unavailability_s", Float (r.f_recover -. r.f_crash));
      ("epoch", Int r.f_epoch);
      ("retries", Int m.m_retries);
      ("reinstalled_locks", Int r.f_reinstalled);
      ("dropped_waiters", Int r.f_dropped_waiters);
      ("replayed_bytes", Int r.f_replayed_bytes);
      ("throughput_bucket_s", Float width);
      ( "throughput_ops",
        List (Array.to_list (Array.map (fun n -> Int n) counts)) );
    ]

let results_schema = "ccpfs.failover/1"
let results_path = "BENCH_failover.json"

let run ~scale =
  let clients = client_count () in
  let writes_each = max 4 (Harness.scaled ~scale 32) in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Failover: live lock-server crash under shared-file PW contention \
            (%d clients x %d writes x %s)"
           clients writes_each
           (Units.bytes_to_string Exp_repl.xfer))
      ~columns:
        [ "clients"; "crash at"; "detect"; "recover"; "unavailable"; "retries";
          "locks back"; "ops" ]
  in
  (* exp_repl's closed-loop crash run, at the configured replication
     (CCPFS_REPL; off by default, so recovery is the client gather). *)
  let m =
    Exp_repl.run_closed ~clients ~writes_each
      ~replication:Config.default.Config.replication
  in
  let r = m.m_failover in
  Table.add_row tbl
    [
      string_of_int clients;
      Units.seconds_to_string r.f_crash;
      Units.seconds_to_string (r.f_detect -. r.f_crash);
      Units.seconds_to_string (r.f_recover -. r.f_detect);
      Units.seconds_to_string (r.f_recover -. r.f_crash);
      string_of_int m.m_retries;
      string_of_int r.f_reinstalled;
      string_of_int (Exp_repl.ops m);
    ];
  let n =
    Obs.Results.write ~append:true ~schema:results_schema ~path:results_path
      [ row_of ~writes_each m ]
  in
  let _, counts = throughput_series m in
  let dip =
    Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 counts
  in
  Table.add_note tbl
    (Printf.sprintf
       "detect/recover are the two halves of the unavailability window; %d of \
        %d throughput buckets empty during the outage; %d row(s) in %s"
       dip bucket_count n results_path);
  Table.print tbl
