(* Golden rows of the BENCH-writing experiments.

   Each of scale, shard, load, failover and repl runs through its public
   [run ~scale] at a tiny size, in a temporary directory, and the rows it
   appends to its BENCH_*.json must equal the literals below.  Floats are
   compared in hexadecimal, so a refactor of the measured-run path has to
   keep every simulated number bit-identical.  The host-clock fields
   (wall_s, events_per_s, requests_per_s) are dropped before comparing.
   One Harness.run_streams result is pinned the same way.

   The values hold for the default configuration: [CCPFS_BATCH] and
   [CCPFS_REPL] rewrite every cluster, so the test is skipped when either
   is set.  [CCPFS_CHECK] only adds checks and double-runs, which must not
   move a number. *)

let host_fields = [ "wall_s"; "events_per_s"; "requests_per_s" ]

(* A row as "key:value" strings, nested objects flattened to dotted keys
   and floats in hexadecimal. *)
let rec fields prefix = function
  | Obs.Json.Obj kvs ->
      List.concat_map
        (fun (k, v) ->
          if List.mem k host_fields then [] else fields (prefix ^ k ^ ".") v)
        kvs
  | v -> [ String.sub prefix 0 (String.length prefix - 1) ^ ":" ^ exact v ]

and exact = function
  | Obs.Json.Float f -> Printf.sprintf "%h" f
  | Obs.Json.List l -> Printf.sprintf "[%s]" (String.concat "," (List.map exact l))
  | v -> Obs.Json.to_string v

(* Set the knobs for the extent of [f], then restore them.  Every
   experiment knob treats an empty value as unset. *)
let with_env vars f =
  let prior = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) vars in
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value v ~default:"")) prior)
    f

let in_temp_dir f =
  let dir = Filename.temp_dir "ccpfs_golden" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.chdir cwd;
      Sys.rmdir dir)
    f

let scale = 0.5

(* The rows one experiment appends to [file], rendered exactly. *)
let rows_of ~id ~file ~env run =
  with_env env (fun () ->
      in_temp_dir (fun () ->
          Obs.Hub.set_run_info ~experiment:id ~scale;
          run ~scale;
          let doc =
            Obs.Json.parse_exn (In_channel.with_open_bin file In_channel.input_all)
          in
          List.map (fields "")
            (Obs.Json.get_list (Option.get (Obs.Json.member "results" doc)))))

let experiments =
  [
    ( "scale", "BENCH_scale.json", [ ("CCPFS_SCALE_CLIENTS", "16") ],
      Experiments.Exp_scale.run );
    ( "shard", "BENCH_shard.json",
      [ ("CCPFS_SHARD_SERVERS", "1,2"); ("CCPFS_SHARD_CLIENTS", "16");
        ("CCPFS_SHARD_STRIPES", "4") ],
      Experiments.Exp_shard.run );
    ( "load", "BENCH_load.json", [ ("CCPFS_LOAD_CLIENTS", "16") ],
      Experiments.Exp_load.run );
    ( "failover", "BENCH_failover.json", [ ("CCPFS_FAILOVER_CLIENTS", "4") ],
      Experiments.Exp_failover.run );
    ( "repl", "BENCH_repl.json", [ ("CCPFS_REPL_CLIENTS", "4") ],
      Experiments.Exp_repl.run );
  ]

let streams_result () =
  let streams =
    Array.init 4 (fun rank ->
        ( "/g",
          Workloads.Ior.accesses ~pattern:Workloads.Access.N1_strided ~nprocs:4
            ~rank ~xfer:47008 ~blocks:4 ))
  in
  Obs.Hub.set_run_info ~experiment:"golden" ~scale;
  let r =
    Experiments.Harness.run_streams ~servers:1 ~stripes:2 ~streams ()
  in
  Obs.Results.clear ();
  let s = r.lock_stats in
  let h = Printf.sprintf "%s:%h" and i = Printf.sprintf "%s:%d" in
  [
    h "pio" r.pio; h "f" r.f; i "bytes" r.bytes; h "bandwidth" r.bandwidth;
    h "locking" r.locking; h "cache_io" r.cache_io; i "ops" r.ops;
    i "grants" s.grants; i "early_grants" s.early_grants;
    i "revokes_sent" s.revokes_sent; i "releases" s.releases;
    h "revocation_wait" s.revocation_wait; h "release_wait" s.release_wait;
    i "max_queue" s.max_queue;
  ]

let golden_rows : (string * string list list) list =
  [
    ( "scale",
      [
        [ "experiment:\"scale\""; "scale:0x1p-1"; "batch_k:0"; "clients:16";
          "writes_each:4"; "xfer_bytes:65536"; "events:1592"; "requests:64";
          "sim_pio_s:0x1.9d6fe2fb56eb1p-9"; "sim_total_s:0x1.a2ea948fcbf1cp-9";
          "write_lat_p50_s:0x1.879b3b8ef188p-11";
          "write_lat_p99_s:0x1.96528a77793cfp-11"; "lock_stats.grants:64";
          "lock_stats.early_grants:0"; "lock_stats.early_revocations:62";
          "lock_stats.revokes_sent:1"; "lock_stats.upgrades:0";
          "lock_stats.downgrades:63"; "lock_stats.releases:63";
          "lock_stats.expansions:0";
          "lock_stats.revocation_wait_s:0x1.29b3080ec000ap-5";
          "lock_stats.release_wait_s:0x1.90263c6f832b2p-9";
          "lock_stats.max_queue:16"; ];
        [ "experiment:\"scale\""; "scale:0x1p-1"; "batch_k:8"; "clients:16";
          "writes_each:4"; "xfer_bytes:65536"; "events:1721"; "requests:64";
          "sim_pio_s:0x1.9d6fe2fb56eb1p-9"; "sim_total_s:0x1.a2ea948fcbf1cp-9";
          "write_lat_p50_s:0x1.879b3b8ef188p-11";
          "write_lat_p99_s:0x1.96528a77793cfp-11"; "lock_stats.grants:64";
          "lock_stats.early_grants:0"; "lock_stats.early_revocations:62";
          "lock_stats.revokes_sent:1"; "lock_stats.upgrades:0";
          "lock_stats.downgrades:63"; "lock_stats.releases:63";
          "lock_stats.expansions:0";
          "lock_stats.revocation_wait_s:0x1.29b3080ec000ap-5";
          "lock_stats.release_wait_s:0x1.90263c6f832b2p-9";
          "lock_stats.max_queue:16"; ];
      ] );
    ( "shard",
      [
        [ "experiment:\"shard\""; "scale:0x1p-1"; "servers:1"; "clients:16";
          "stripes:4"; "writes_each:4"; "xfer_bytes:16384"; "requests:64";
          "sim_pio_s:0x1.e89afac1b50b6p-11";
          "sim_total_s:0x1.fc75fd166ec66p-11";
          "requests_per_sim_s:0x1.0c41e37679032p+16"; "events:2089";
          "migrations:0"; "stale_bounces:0";
          "write_lat_p50_s:0x1.8fa5399ebe32p-13";
          "write_lat_p99_s:0x1.fcef23ffc7011p-13"; "lock_stats.grants:63";
          "lock_stats.revokes_sent:59"; "lock_stats.releases:59";
          "lock_stats.revocation_wait_s:0x1.95689a22433fcp-8";
          "lock_stats.max_queue:3"; ];
        [ "experiment:\"shard\""; "scale:0x1p-1"; "servers:2"; "clients:16";
          "stripes:4"; "writes_each:4"; "xfer_bytes:16384"; "requests:64";
          "sim_pio_s:0x1.602d5edcc8586p-11";
          "sim_total_s:0x1.6e4e5d3976a18p-11";
          "requests_per_sim_s:0x1.742d1ea8c4afcp+16"; "events:2165";
          "migrations:1"; "stale_bounces:4";
          "write_lat_p50_s:0x1.c010478567e46p-14";
          "write_lat_p99_s:0x1.63fa5b13b7feap-13"; "lock_stats.grants:63";
          "lock_stats.revokes_sent:59"; "lock_stats.releases:59";
          "lock_stats.revocation_wait_s:0x1.89528a0fc3888p-9";
          "lock_stats.max_queue:3"; ];
      ] );
    ( "load",
      [
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.3bfa3c1ce96fcp+12";
          "achieved_rate_rps:0x1.259e803a627c7p+12";
          "goodput_Bps:0x1.259e803a624ddp+28"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.be66c2d22f9cdp-7";
          "sojourn_p50_s:0x1.855a145c73542p-14";
          "sojourn_p99_s:0x1.0e492763f4b1p-13";
          "sojourn_p999_s:0x1.0e492763f4b1p-13"; "violates:true"; "knee:true"; ];
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.3bfa3c1ce6c09p+13";
          "achieved_rate_rps:0x1.22a201e535238p+13";
          "goodput_Bps:0x1.22a201e5353f8p+29"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.c2fcfebb2af45p-8";
          "sojourn_p50_s:0x1.855a145c73542p-14";
          "sojourn_p99_s:0x1.64dee6bb9424ep-13";
          "sojourn_p999_s:0x1.64dee6bb9424ep-13"; "violates:true";
          "knee:false"; ];
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.d9f75a2b5a20ep+13";
          "achieved_rate_rps:0x1.af67ce93334e1p+13";
          "goodput_Bps:0x1.af67ce932f1aap+29"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.2fd3556a41cbp-8";
          "sojourn_p50_s:0x1.e262ce7345644p-14";
          "sojourn_p99_s:0x1.07ad92680e564p-12";
          "sojourn_p999_s:0x1.07ad92680e564p-12"; "violates:true";
          "knee:false"; ];
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.1c61361a02e08p+14";
          "achieved_rate_rps:0x1.004029a415f46p+14";
          "goodput_Bps:0x1.004029a4147aep+30"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.ff7fccd971d1fp-9";
          "sojourn_p50_s:0x1.1e24325200a87p-13";
          "sojourn_p99_s:0x1.32a0ae49bdaa7p-12";
          "sojourn_p999_s:0x1.32a0ae49bdaa7p-12"; "violates:true";
          "knee:false"; ];
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.5b93421fcaa0ap+14";
          "achieved_rate_rps:0x1.2a6bae42ee922p+14";
          "goodput_Bps:0x1.2a6bae42eb852p+30"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.b7380e4086a8dp-9";
          "sojourn_p50_s:0x1.c93aa74411482p-13";
          "sojourn_p99_s:0x1.5d2a57ce5ffdap-12";
          "sojourn_p999_s:0x1.5d2a57ce5ffdap-12"; "violates:true";
          "knee:false"; ];
        [ "experiment:\"load\""; "scale:0x1p-1"; "clients:16";
          "process:\"poisson\""; "seed:4269"; "batch_k:0"; "requests:64";
          "xfer_bytes:65536"; "cap_in_flight:64"; "churn:true";
          "slo_s:0x1.34abc0a003013p-9";
          "offered_rate_rps:0x1.ba5e54287640dp+14";
          "achieved_rate_rps:0x1.3cb0ce052502fp+14";
          "goodput_Bps:0x1.3cb0ce0528f5cp+30"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.9de1577e8a1f2p-9";
          "sojourn_p50_s:0x1.c628c2adc6dfp-12";
          "sojourn_p99_s:0x1.84c77d3a8111ep-11";
          "sojourn_p999_s:0x1.84c77d3a8111ep-11"; "violates:true";
          "knee:false"; ];
      ] );
    ( "failover",
      [
        [ "experiment:\"failover\""; "scale:0x1p-1"; "clients:4";
          "writes_each:16"; "xfer_bytes:65536"; "ops:64";
          "sim_total_s:0x1.93bb589367573p-9"; "crash_s:0x1.3a92a30553261p-11";
          "detect_s:0x1.3453bfe0f0596p-10"; "recover_s:0x1.4f3b63fc2b733p-10";
          "detect_latency_s:0x1.2e14dcbc98cefp-11";
          "unavailability_s:0x1.63e424f30cc22p-11"; "epoch:1"; "retries:10";
          "reinstalled_locks:4"; "dropped_waiters:3"; "replayed_bytes:131072";
          "throughput_bucket_s:0x1.0d27906241e43p-13";
          "throughput_ops:[2,5,4,4,3,0,0,0,0,0,1,3,4,4,4,4,4,4,4,4,5,2,3,0]"; ];
      ] );
    ( "repl",
      [
        [ "experiment:\"repl\""; "scale:0x1p-1"; "mode:\"gather\"";
          "loop:\"closed\""; "replication:0"; "clients:4"; "requests:64";
          "xfer_bytes:65536"; "ops:64"; "sim_total_s:0x1.93bb589367573p-9";
          "crash_s:0x1.3a92a30553261p-11"; "detect_s:0x1.3453bfe0f0596p-10";
          "recover_s:0x1.4f3b63fc2b733p-10";
          "detect_latency_s:0x1.2e14dcbc98cefp-11";
          "recovery_s:0x1.ae7a41b3b19d5p-14";
          "unavailability_s:0x1.63e424f30cc22p-11"; "epoch:1"; "retries:10";
          "reinstalled_locks:4"; "dropped_waiters:3"; "replayed_bytes:131072";
          "lost_grants:0"; "divergent_locks:0"; "log_entries:0"; "log_bytes:0";
          "election_rounds:0"; "elected_backup:-1"; ];
        [ "experiment:\"repl\""; "scale:0x1p-1"; "mode:\"replay\"";
          "loop:\"closed\""; "replication:1"; "clients:4"; "requests:64";
          "xfer_bytes:65536"; "ops:64"; "sim_total_s:0x1.1ff7e20892cep-8";
          "crash_s:0x1.3a92a30553261p-11"; "detect_s:0x1.345417d6efdf4p-10";
          "recover_s:0x1.478a8fe15042fp-10";
          "detect_latency_s:0x1.2e158ca897dacp-11";
          "recovery_s:0x1.336780a5e5cd6p-14";
          "unavailability_s:0x1.54827cbd54212p-11"; "epoch:1"; "retries:30";
          "reinstalled_locks:5"; "dropped_waiters:3"; "replayed_bytes:131072";
          "lost_grants:0"; "divergent_locks:0"; "log_entries:41";
          "log_bytes:1864"; "election_rounds:1"; "elected_backup:0"; ];
        [ "experiment:\"repl\""; "scale:0x1p-1"; "mode:\"gather\"";
          "loop:\"open\""; "replication:0"; "clients:4"; "requests:64";
          "xfer_bytes:65536"; "ops:64"; "sim_total_s:0x1.4098b99dfe90ap-8";
          "crash_s:0x1.5071747ad25d3p-10"; "detect_s:0x1.eb408006b0a18p-10";
          "recover_s:0x1.0e881a010de1bp-9";
          "detect_latency_s:0x1.359e1717b5c74p-11";
          "recovery_s:0x1.8e7d9fdb74144p-13";
          "unavailability_s:0x1.993d7f0e92cc5p-11"; "epoch:1"; "retries:10";
          "reinstalled_locks:3"; "dropped_waiters:1"; "replayed_bytes:393216";
          "lost_grants:0"; "divergent_locks:0"; "log_entries:0"; "log_bytes:0";
          "election_rounds:0"; "elected_backup:-1";
          "offered_rate_rps:0x1.8594d55e0dd25p+13";
          "achieved_rate_rps:0x1.8594d55e0dd25p+13";
          "goodput_Bps:0x1.8594d55e0e56p+29"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.5071747ad52ddp-8";
          "sojourn_p50_s:0x1.d8d7ae98db041p-14";
          "sojourn_p99_s:0x1.1b48df8065477p-10";
          "sojourn_max_s:0x1.1b48df8065477p-10"; ];
        [ "experiment:\"repl\""; "scale:0x1p-1"; "mode:\"replay\"";
          "loop:\"open\""; "replication:1"; "clients:4"; "requests:64";
          "xfer_bytes:65536"; "ops:64"; "sim_total_s:0x1.4123f8b2c809cp-8";
          "crash_s:0x1.5071747ad25d3p-10"; "detect_s:0x1.eb408006b0a18p-10";
          "recover_s:0x1.0ab2e3167bd87p-9";
          "detect_latency_s:0x1.359e1717b5c74p-11";
          "recovery_s:0x1.512a31324a7ecp-13";
          "unavailability_s:0x1.89e8a36446267p-11"; "epoch:1"; "retries:22";
          "reinstalled_locks:4"; "dropped_waiters:1"; "replayed_bytes:393216";
          "lost_grants:0"; "divergent_locks:0"; "log_entries:65";
          "log_bytes:3120"; "election_rounds:1"; "elected_backup:0";
          "offered_rate_rps:0x1.8594d55e0dd25p+13";
          "achieved_rate_rps:0x1.8594d55e0dd25p+13";
          "goodput_Bps:0x1.8594d55e0e56p+29"; "arrivals:64"; "completed:64";
          "shed:0"; "window_s:0x1.5071747ad52ddp-8";
          "sojourn_p50_s:0x1.279cdcb26c9d7p-13";
          "sojourn_p99_s:0x1.6422653a49ba6p-10";
          "sojourn_max_s:0x1.6422653a49ba6p-10"; ];
      ] );
  ]

let golden_streams =
  [ "pio:0x1.74e33ff7ee5fep-12"; "f:0x1.a1d347553be48p-15"; "bytes:752128";
    "bandwidth:0x1.f8425205e7f26p+30"; "locking:0x1.85c46995b439p-11";
    "cache_io:0x1.3b77210a15f7ep-14"; "ops:16"; "grants:16"; "early_grants:15";
    "revokes_sent:15"; "releases:15"; "revocation_wait:0x1.e3d1c6c804b48p-12";
    "release_wait:0x0p+0"; "max_queue:3"; ]

let skip_if_reconfigured () =
  let set v = match Sys.getenv_opt v with None | Some "" -> false | Some _ -> true in
  if set "CCPFS_BATCH" || set "CCPFS_REPL" then Alcotest.skip ()

let test_rows () =
  skip_if_reconfigured ();
  List.iter
    (fun (id, file, env, run) ->
      Alcotest.(check (list (list string)))
        (id ^ " rows") (List.assoc id golden_rows)
        (rows_of ~id ~file ~env run))
    experiments

let test_streams () =
  skip_if_reconfigured ();
  Alcotest.(check (list string)) "run_streams result" golden_streams (streams_result ())

let suite =
  [
    ( "experiments.golden",
      [
        Alcotest.test_case "BENCH rows bit-identical" `Quick test_rows;
        Alcotest.test_case "run_streams bit-identical" `Quick test_streams;
      ] );
  ]
