open Ccpfs_util
open Ccpfs

type result = {
  pio : float;
  f : float;
  bytes : int;
  bandwidth : float;
  locking : float;
  cache_io : float;
  lock_stats : Seqdlm.Lock_server.stats;
  ops : int;
}

let pp_result ppf r =
  Format.fprintf ppf "pio=%s f=%s bw=%s locking=%s"
    (Units.seconds_to_string r.pio)
    (Units.seconds_to_string r.f)
    (Units.bandwidth_to_string r.bandwidth)
    (Units.seconds_to_string r.locking)

let collect cl ~pio ~f =
  let bytes = Cluster.total_bytes_written cl in
  {
    pio;
    f;
    bytes;
    bandwidth = (if pio > 0. then float_of_int bytes /. pio else 0.);
    locking = Cluster.total_locking_seconds cl;
    cache_io = Cluster.total_cache_seconds cl;
    lock_stats = Cluster.sum_lock_stats cl;
    ops =
      (let n = ref 0 in
       for i = 0 to Cluster.n_clients cl - 1 do
         n := !n + Client.ops (Cluster.client cl i)
       done;
       !n);
  }

type spawn = int -> string -> (Client.t -> unit) -> unit

(* One machine-readable row per measured run (BENCH_experiments.json);
   the experiment id / scale were stamped on Obs.Hub by the driver. *)
let result_row cl ~run_id ~servers ~clients r =
  let s : Seqdlm.Lock_server.stats = r.lock_stats in
  let open Obs.Json in
  Obj
    [
      ("experiment", Str (Obs.Hub.experiment ()));
      ("scale", Float (Obs.Hub.scale ()));
      ("run", Int run_id);
      ("servers", Int servers);
      ("clients", Int clients);
      ("pio_s", Float r.pio);
      ("f_s", Float r.f);
      ("bytes", Int r.bytes);
      ("bandwidth_Bps", Float r.bandwidth);
      ("locking_s", Float r.locking);
      ("cache_io_s", Float r.cache_io);
      ("ops", Int r.ops);
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
      ("metrics", Obs.Metrics.to_json (Dessim.Engine.metrics (Cluster.engine cl)));
    ]

type 'a pass = {
  cluster : Cluster.t;
  pio : float;
  f : float;
  wall_s : float;
  run_id : int;
  value : 'a;
}

let measure ?params ?config ?policy ?reliability ?replication ~name ~servers
    ~clients setup =
  let one_pass () =
    let cl =
      Cluster.create ?params ?config ?policy ?reliability ?replication
        ~n_servers:servers ~n_clients:clients ()
    in
    let eng = Cluster.engine cl in
    (* The sink label uses the run counter before it advances, so the
       viewer's process name and the result row's "run" field agree. *)
    (match Obs.Hub.new_sink () with
    | Some sink -> Dessim.Engine.set_trace_sink eng sink
    | None -> ());
    let run_id = Obs.Hub.next_run_id () in
    Obs.Metrics.enable (Dessim.Engine.metrics eng);
    if Check.Sanitize.enabled () then Check.Sanitize.attach_cluster cl;
    (* PIO ends when the last application process finishes; lock-cancel
       flushing still running then is background work the application
       never sees, charged to the F phase. *)
    let writers_done = ref 0. in
    let spawn i name body =
      Cluster.spawn_client cl i ~name (fun c ->
          body c;
          if Cluster.now cl > !writers_done then writers_done := Cluster.now cl)
    in
    let finish = setup cl spawn in
    Check.Sanitize.run_cluster cl;
    let value = finish () in
    let pio = !writers_done in
    Cluster.fsync_all cl;
    let f = Cluster.now cl -. pio in
    Cluster.check_invariants cl;
    if Check.Sanitize.enabled () then Check.Sanitize.check_cluster cl;
    { cluster = cl; pio; f; wall_s = 0.; run_id; value }
  in
  let measured () =
    if Check.Sanitize.determinism_enabled () then begin
      (* The simulator must be a pure function of the scenario: build
         and run the whole world twice and compare event streams.  Only
         the kept (second) pass is a measurement. *)
      let kept = ref None in
      ignore
        (Check.Determinism.check ~name (fun () ->
             let p = one_pass () in
             kept := Some p;
             Cluster.engine p.cluster));
      Option.get !kept
    end
    else one_pass ()
  in
  let p, wall_s =
    (let t0 = Unix.gettimeofday () in
     let p = measured () in
     (p, Unix.gettimeofday () -. t0))
    [@lint.allow
      "D003 host wall-clock IS the measured quantity here: wall_s reports \
       the real elapsed time of the pass, not simulated time"]
  in
  { p with wall_s }

let run_custom ?params ?config ?policy ~servers ~clients setup k =
  let p =
    measure ?params ?config ?policy ~name:"harness" ~servers ~clients
      (fun cl spawn ->
        setup cl spawn;
        Fun.id)
  in
  let r = collect p.cluster ~pio:p.pio ~f:p.f in
  (* In determinism mode the pass ran twice but only the kept pass is a
     measurement: exactly one row per logical run. *)
  Obs.Results.add (result_row p.cluster ~run_id:p.run_id ~servers ~clients r);
  k p.cluster r

let run_streams ?params ?config ?policy ?mode ?lock_whole_range
    ?(stripe_size = Units.mib) ~servers ~stripes ~streams () =
  run_custom ?params ?config ?policy ~servers ~clients:(Array.length streams)
    (fun _cl spawn ->
      Array.iteri
        (fun i (path, accesses) ->
          spawn i (Printf.sprintf "w%d" i) (fun c ->
              let layout = Layout.v ~stripe_size ~stripe_count:stripes () in
              let f = Client.open_file c ~create:true ~layout path in
              List.iter
                (fun (a : Workloads.Access.t) ->
                  Client.write ?mode ?lock_whole_range c f ~off:a.off ~len:a.len)
                accesses))
        streams)
    (fun _ r -> r)

let env key parse ~default =
  match Sys.getenv_opt key with
  | None -> default
  | Some s -> Option.value (parse (String.trim s)) ~default

let env_int ?(min = 1) key ~default =
  env key ~default (fun s ->
      Option.bind (int_of_string_opt s) (fun n ->
          if n >= min then Some n else None))

(* Comma-separated positive numbers; malformed or non-positive tokens are
   dropped, and a list with nothing left falls back to [default]. *)
let env_list of_string ~positive key ~default =
  env key ~default (fun s ->
      match
        String.split_on_char ',' s
        |> List.filter_map (fun tok ->
               Option.bind (of_string (String.trim tok)) (fun v ->
                   if positive v then Some v else None))
      with
      | [] -> None
      | l -> Some l)

let env_ints = env_list int_of_string_opt ~positive:(fun n -> n > 0)
let env_floats = env_list float_of_string_opt ~positive:(fun v -> v > 0.)

let scaled ~scale n =
  max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let speedup a b = Printf.sprintf "%.1fx" (a /. b)
