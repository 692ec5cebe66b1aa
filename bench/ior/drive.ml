(* One repetition of a workload: set up, run the closed loop to the last
   op, drain with fsync_all, verify every byte, and read each layer's
   counters from outside through the public stats accessors.

   Host time is the process's CPU time (Sys.time): the simulator is one
   sequential process, and CPU time leaves out the waits other tenants of
   the machine impose on it.  Host clocks are read only in bench/ (lint
   rule D003); everything named sim_* is simulated time and repeats
   exactly for a given seed. *)

open Ccpfs_util
open Ccpfs
module Engine = Dessim.Engine

let host_now () = Sys.time ()

type prepared = {
  spec : Workload.t;
  cluster : Cluster.t;
  streams : Workload.op array array;
      (** per client, in issue order; the [writer]/[wop] fields are the
          expectation the verifier holds the output to *)
  setup_s : float;
}

let setup spec ~seed =
  let t0 = host_now () in
  let streams = Workload.streams spec ~seed in
  let cluster = Workload.cluster spec in
  { spec; cluster; streams; setup_s = host_now () -. t0 }

(* A reported metric; [value = None] marks one that does not apply to the
   workload (reads where nothing reads, check.* where nothing checks). *)
type metric = {
  name : string;
  unit : string;
  value : float option;
  samples : int option;  (** sample count behind a timing or quantile *)
}

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failure descriptions *)
  bytes_written : int;
  sim_pio_s : float;  (** when the last client's last op returned *)
  sim_durable_s : float;  (** when fsync_all returned *)
  write_lat : float array;  (** simulated latency of each Client.write *)
  read_lat : float array;  (** simulated latency of each Client.read *)
  run_host_s : float;
  drain_host_s : float;
  verify_host_s : float;
  events : int;
  layers : metric list;  (** empty unless traced *)
}

let max_errors = 5

(* Host time and call count of one checker hook. *)
type timer = { mutable calls : int; mutable secs : float }

let timed tm f =
  let t0 = host_now () in
  Fun.protect f ~finally:(fun () ->
      tm.calls <- tm.calls + 1;
      tm.secs <- tm.secs +. (host_now () -. t0))

(* Timed twins of the hooks Check.Sanitize.attach_cluster installs: the
   same validator, SN monitor and cache audit. *)
let attach_timed_checks cl ~server ~client =
  for i = 0 to Cluster.n_servers cl - 1 do
    let srv = Cluster.lock_server cl i in
    Seqdlm.Lock_server.set_validator srv (fun s ->
        timed server (fun () -> Check.Invariant.check_server s));
    Check.Invariant.monitor_sn srv
  done;
  for i = 0 to Cluster.n_clients cl - 1 do
    let c = Cluster.client cl i in
    let lock_client = Client.lock_client c and cache = Client.cache c in
    Client_cache.set_audit cache (fun ~rid ->
        timed client (fun () ->
            Check.Invariant.check_client_rid ~lock_client ~cache rid))
  done

(* ------------------------------------------------------------------ *)
(* Per-layer readings                                                   *)

let fold_range n f init = List.fold_left f init (List.init n Fun.id)
let sum_over n f = fold_range n (fun acc i -> acc + f i) 0
let max_over n f = fold_range n (fun acc i -> max acc (f i)) 0
let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

(* Registry histograms whose name starts with [prefix] and ends with
   [suffix] (per-endpoint and per-server families). *)
let histograms_matching reg ~prefix ~suffix =
  match Obs.Json.member "histograms" (Obs.Metrics.to_json reg) with
  | Some (Obs.Json.Obj kvs) ->
      List.filter_map
        (fun (name, _) ->
          if String.starts_with ~prefix name && String.ends_with ~suffix name
          then Some (Obs.Metrics.histogram reg name)
          else None)
        kvs
  | _ -> []

let check_names =
  [
    ("check.server_calls", "count"); ("check.server_host_s", "s");
    ("check.client_calls", "count"); ("check.client_host_s", "s");
    ("check.host_share", "ratio"); ("check.final_sweep_host_s", "s");
  ]

let layer_metrics (p : prepared) (o : outcome) ~check ~final_sweep_s =
  let cl = p.cluster in
  let reg = Engine.metrics (Cluster.engine cl) in
  let ns = Cluster.n_servers cl and nc = Cluster.n_clients cl in
  let host_s = o.run_host_s +. o.drain_host_s in
  let per_op n = float_of_int n /. float_of_int (Workload.ops p.spec) in
  let opt ?samples name unit value = { name; unit; value; samples } in
  let m ?samples name unit v = opt ?samples name unit (Some v) in
  let mi name unit v = m name unit (float_of_int v) in
  let hist name = Obs.Metrics.histogram reg name in
  (* Sum of a resource histogram, with its sample count. *)
  let hsum name unit h =
    m ~samples:(Obs.Metrics.hist_count (hist h)) name unit
      (Obs.Metrics.hist_sum (hist h))
  in
  let count hs = List.fold_left (fun a h -> a + Obs.Metrics.hist_count h) 0 hs in
  let node i = Client.node (Cluster.client cl i) in
  let node_sum f =
    sum_over ns (fun i -> f (Cluster.server_node cl i)) + sum_over nc (fun i -> f (node i))
  in
  let rpcs = node_sum Netsim.Node.rpc_count in
  let batches = histograms_matching reg ~prefix:"rpc.batch.size." ~suffix:"" in
  let batch_msgs =
    List.fold_left (fun a h -> a +. Obs.Metrics.hist_sum h) 0. batches
  in
  let qdepth = histograms_matching reg ~prefix:"dlm." ~suffix:".queue_depth" in
  let s = Cluster.sum_lock_stats cl in
  let lc i = Client.lock_client (Cluster.client cl i) in
  let cc i = Client.cache (Cluster.client cl i) in
  let ds i = Data_server.stats (Cluster.data_server cl i) in
  let acquires = sum_over nc (fun i -> Seqdlm.Lock_client.acquires (lc i)) in
  let hits = sum_over nc (fun i -> Client_cache.read_cache_hits (cc i)) in
  let lookups = hits + sum_over nc (fun i -> Client_cache.read_cache_misses (cc i)) in
  let check_ms =
    match check with
    | None -> List.map (fun (n, u) -> opt n u None) check_names
    | Some (server, client) ->
        [
          mi "check.server_calls" "count" server.calls;
          m ~samples:server.calls "check.server_host_s" "s" server.secs;
          mi "check.client_calls" "count" client.calls;
          m ~samples:client.calls "check.client_host_s" "s" client.secs;
          m "check.host_share" "ratio" ((server.secs +. client.secs) /. host_s);
          m ~samples:1 "check.final_sweep_host_s" "s" final_sweep_s;
        ]
  in
  [
    mi "sim.events" "count" o.events;
    m "sim.events_per_op" "count" (per_op o.events);
    m "sim.events_per_host_s" "1/s" (float_of_int o.events /. host_s);
    mi "net.rpcs" "count" rpcs;
    m "net.rpcs_per_op" "count" (per_op rpcs);
    mi "net.bytes_in" "B" (node_sum Netsim.Node.net_bytes_in);
    (* messages per wire message; 1 where nothing batched (the fenced
       transport never does) *)
    m ~samples:(count batches) "net.batch_mean" "count"
      (if count batches = 0 then 1.
       else batch_msgs /. float_of_int (count batches));
    mi "net.retries" "count" (Cluster.total_retries cl);
    hsum "net.rx_busy_s" "s" "resource.busy.net.rx";
    hsum "net.rx_wait_s" "s" "resource.wait.net.rx";
    hsum "net.ctl_wait_s" "s" "resource.wait.net.ctl";
    hsum "net.srv_ops_busy_s" "s" "resource.busy.srv.ops";
    hsum "net.srv_ops_wait_s" "s" "resource.wait.srv.ops";
    m
      ~samples:(Obs.Metrics.hist_count (hist "resource.wait.srv.ops"))
      "net.srv_ops_wait_p99_s" "s"
      (Obs.Metrics.hist_quantile (hist "resource.wait.srv.ops") 99.);
    mi "dlm.grants" "count" s.grants;
    m "dlm.grants_per_op" "count" (per_op s.grants);
    mi "dlm.early_grants" "count" s.early_grants;
    mi "dlm.revokes" "count" s.revokes_sent;
    mi "dlm.downgrades" "count" s.downgrades;
    mi "dlm.upgrades" "count" s.upgrades;
    mi "dlm.expansions" "count" s.expansions;
    mi "dlm.releases" "count" s.releases;
    m ~samples:s.grants "dlm.revocation_wait_s" "s" s.revocation_wait;
    m ~samples:s.grants "dlm.release_wait_s" "s" s.release_wait;
    mi "dlm.max_queue" "count" s.max_queue;
    (* the most loaded lock server's *)
    m ~samples:(count qdepth) "dlm.queue_depth_p99" "count"
      (List.fold_left
         (fun a h -> Float.max a (Obs.Metrics.hist_quantile h 99.))
         0. qdepth);
    m ~samples:acquires "dlm.client_lock_wait_s" "s"
      (Cluster.total_locking_seconds cl);
    opt ~samples:acquires "dlm.lock_cache_hit_ratio" "ratio"
      (ratio
         (sum_over nc (fun i -> Seqdlm.Lock_client.cache_hits (lc i)))
         acquires);
    mi "dlm.cancels" "count"
      (sum_over nc (fun i -> Seqdlm.Lock_client.cancels (lc i)));
    m ~samples:(Array.length o.write_lat) "pfs.cache_write_s" "s"
      (Cluster.total_cache_seconds cl);
    hsum "pfs.mem_busy_s" "s" "resource.busy.mem";
    mi "pfs.dirty_peak_bytes" "B"
      (max_over nc (fun i -> Client_cache.dirty_peak (cc i)));
    mi "pfs.flush_rpcs" "count"
      (sum_over nc (fun i -> Client_cache.flush_rpcs (cc i)));
    mi "pfs.bytes_flushed" "B"
      (sum_over nc (fun i -> Client_cache.bytes_flushed (cc i)));
    opt ~samples:lookups "pfs.read_hit_ratio" "ratio"
      (if p.spec.Workload.readers = 0 then None else ratio hits lookups);
    mi "pfs.ds_bytes_written" "B"
      (sum_over ns (fun i -> (ds i).Data_server.bytes_written));
    opt "pfs.ds_discard_ratio" "ratio"
      (ratio
         (sum_over ns (fun i -> (ds i).Data_server.bytes_discarded))
         (sum_over ns (fun i -> (ds i).Data_server.bytes_received)));
    mi "pfs.ds_reads" "count" (sum_over ns (fun i -> (ds i).Data_server.reads));
    mi "pfs.extent_cache_peak" "count"
      (max_over ns (fun i -> (ds i).Data_server.cache_peak));
    mi "pfs.cleanup_removed" "count"
      (sum_over ns (fun i -> (ds i).Data_server.cleanup_removed));
    mi "pfs.force_syncs" "count"
      (sum_over ns (fun i -> (ds i).Data_server.force_syncs));
    hsum "pfs.disk_busy_s" "s" "resource.busy.disk";
    hsum "pfs.disk_wait_s" "s" "resource.wait.disk";
  ]
  @ check_ms
  @ [
      m ~samples:1 "bench.run_host_s" "s" o.run_host_s;
      m ~samples:1 "bench.drain_host_s" "s" o.drain_host_s;
      m ~samples:1 "bench.verify_host_s" "s" o.verify_host_s;
    ]

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)

type status = Pending | Ok_op | Failed

let pp_tag = Format.asprintf "%a" Content.pp_tag

let execute ?(traced = false) (p : prepared) =
  let spec = p.spec and cl = p.cluster in
  let eng = Cluster.engine cl in
  let errors = ref [] and n_errors = ref 0 in
  let error fmt =
    Printf.ksprintf
      (fun s ->
        incr n_errors;
        if !n_errors <= max_errors then errors := s :: !errors)
      fmt
  in
  let status = Array.map (fun s -> Array.make (Array.length s) Pending) p.streams in
  let fail c i fmt =
    status.(c).(i) <- Failed;
    error fmt
  in
  let check =
    if spec.Workload.checked && traced then
      Some ({ calls = 0; secs = 0. }, { calls = 0; secs = 0. })
    else None
  in
  (match check with
  | Some (server, client) -> attach_timed_checks cl ~server ~client
  | None -> if spec.Workload.checked then Check.Sanitize.attach_cluster cl);
  let sink = if traced then Obs.Trace.make ~label:spec.name () else Obs.Trace.null in
  if traced then begin
    Engine.set_trace_sink eng sink;
    Obs.Metrics.enable (Engine.metrics eng)
  end;
  (* The benchmark's own span around each Client call, on the calling
     process's tid so it encloses the program's client.* span. *)
  let bench_span name f =
    if not traced then f ()
    else begin
      let tid = Engine.current_pid eng in
      Obs.Trace.begin_span sink ~ts:(Engine.now eng) ~tid ~cat:"bench" name;
      Fun.protect f ~finally:(fun () ->
          Obs.Trace.end_span sink ~ts:(Engine.now eng) ~tid name)
    end
  in
  (* A reader may see only the one write issued to its slot, or holes. *)
  let check_read c i (op : Workload.op) segs =
    let got = List.fold_left (fun a (_, iv, _) -> a + Interval.length iv) 0 segs in
    match
      List.find_opt
        (fun (_, _, tag) ->
          match tag with
          | None -> false
          | Some (tg : Content.tag) -> tg.writer <> op.writer || tg.op <> op.wop)
        segs
    with
    | Some (_, iv, Some tg) ->
        fail c i "client %d read %d at %d: %s holds %s, expected writer %d op %d or a hole"
          c i op.off (Interval.to_string iv) (pp_tag tg) op.writer op.wop
    | _ when got <> op.len ->
        fail c i "client %d read %d at %d returned %d of %d bytes" c i op.off got op.len
    | _ -> status.(c).(i) <- Ok_op
  in
  let layout = Workload.layout spec in
  let file = ref None in
  let write_lat = ref [] and read_lat = ref [] in
  let last_return = ref 0. in
  Array.iteri
    (fun c stream ->
      Cluster.spawn_client cl c ~name:(Printf.sprintf "ior%d" c) (fun client ->
          let f = Client.open_file client ~create:true ~layout Workload.path in
          if Option.is_none !file then file := Some f;
          try
            Array.iteri
              (fun i (op : Workload.op) ->
                Engine.sleep eng op.think;
                let t0 = Cluster.now cl in
                match op.kind with
                | Workload.Write ->
                    bench_span "bench.write" (fun () ->
                        Client.write client f ~off:op.off ~len:op.len);
                    write_lat := (Cluster.now cl -. t0) :: !write_lat;
                    status.(c).(i) <- Ok_op
                | Workload.Read ->
                    let segs =
                      bench_span "bench.read" (fun () ->
                          Client.read client f ~off:op.off ~len:op.len)
                    in
                    read_lat := (Cluster.now cl -. t0) :: !read_lat;
                    check_read c i op segs)
              stream;
            last_return := Float.max !last_return (Cluster.now cl)
          with e -> error "client %d raised %s" c (Printexc.to_string e)))
    p.streams;
  let t_run = host_now () in
  (try Cluster.run cl with e -> error "run raised %s" (Printexc.to_string e));
  let t_drain = host_now () in
  (try Cluster.fsync_all cl
   with e -> error "drain raised %s" (Printexc.to_string e));
  let t_verify = host_now () in
  let sim_durable_s = Cluster.now cl in
  (* Every written slot must end up owned, byte for byte, by its single
     expected writer's write. *)
  (match !file with
  | None -> error "no client opened %s" Workload.path
  | Some f ->
      let cached = Array.make spec.Workload.stripe_count None in
      let contents stripe =
        match cached.(stripe) with
        | Some ct -> ct
        | None ->
            let ct = Cluster.stripe_contents cl f ~stripe in
            cached.(stripe) <- Some ct;
            ct
      in
      Array.iteri
        (fun c stream ->
          Array.iteri
            (fun i (op : Workload.op) ->
              if op.kind = Workload.Write && status.(c).(i) = Ok_op then
                Layout.chunks layout (Interval.of_len ~lo:op.off ~len:op.len)
                |> List.iter (fun (stripe, range) ->
                       Content.read (contents stripe) range
                       |> List.iter (fun (iv, tag) ->
                              match tag with
                              | Some (tg : Content.tag)
                                when tg.writer = op.writer && tg.op = op.wop ->
                                  ()
                              | _ ->
                                  fail c i
                                    "slot at %d: stripe %d %s holds %s, expected writer %d op %d"
                                    op.off stripe (Interval.to_string iv)
                                    (Option.fold ~none:"a hole" ~some:pp_tag tag)
                                    op.writer op.wop)))
            stream)
        p.streams);
  (try Cluster.check_invariants cl
   with e -> error "Cluster.check_invariants: %s" (Printexc.to_string e));
  let t_sweep = host_now () in
  if spec.Workload.checked then begin
    try Check.Sanitize.check_cluster cl
    with e -> error "final sanitizer sweep: %s" (Printexc.to_string e)
  end;
  let t_done = host_now () in
  let count pred =
    Array.fold_left
      (fun acc st -> Array.fold_left (fun a s -> if pred s then a + 1 else a) acc st)
      0 status
  in
  if traced then begin
    let spans =
      List.length
        (List.filter
           (fun (ev : Obs.Trace.ev) ->
             ev.ph = 'B' && String.starts_with ~prefix:"bench." ev.name)
           (Obs.Trace.events sink))
    and completed = count (fun s -> s <> Pending) in
    if spans <> completed then
      error "trace holds %d bench spans for %d completed ops" spans completed
  end;
  (* A run-level error (an invariant sweep, a raise outside any op) fails
     the repetition even when every op verified. *)
  let failed = max (count (fun s -> s <> Ok_op)) (min 1 !n_errors) in
  let o =
    {
      attempted = Workload.ops spec;
      failed;
      errors = List.rev !errors;
      bytes_written =
        Array.fold_left
          (Array.fold_left (fun a (op : Workload.op) ->
               if op.kind = Workload.Write then a + op.len else a))
          0 p.streams;
      sim_pio_s = !last_return;
      sim_durable_s;
      write_lat = Array.of_list (List.rev !write_lat);
      read_lat = Array.of_list (List.rev !read_lat);
      run_host_s = t_drain -. t_run;
      drain_host_s = t_verify -. t_drain;
      verify_host_s = t_done -. t_verify;
      events = Engine.events_dispatched eng;
      layers = [];
    }
  in
  if traced then
    { o with layers = layer_metrics p o ~check ~final_sweep_s:(t_done -. t_sweep) }
  else o
