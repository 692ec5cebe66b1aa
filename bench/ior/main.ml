(* ior_bench — the repository benchmark: three closed-loop IOR-shaped
   workloads, end-to-end metrics in two time domains, per-layer metrics
   from a traced run.  See README.md.

     ior_bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

   A run does one warm-up repetition, then repeats the workload on fresh
   clusters, cycling through [subseeds] workload seeds drawn from
   [--seed], until [--seconds] have passed.  Host-time metrics are medians
   over the repetitions; simulated metrics pool the first cycle and must
   repeat bit for bit on every later repetition of a seed.  The last
   stdout line is the result object; the line before it is the full
   report with knobs, provenance, sample counts and absent metrics.
   [--workload all] runs each workload in a child process of its own.
   Exit status: 0 correct, 1 an output, invariant or determinism check
   failed, 2 usage or a refused environment. *)

open Ccpfs_util
open Ior_bench

let usage () =
  prerr_endline
    "usage: ior_bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: strided_hard segmented_bulk mixed_rw_checked";
  exit 2

(* Config.default and Check.Sanitize read these at startup; any of them
   would silently change what a workload measures. *)
let refused_env = [ "CCPFS_CHECK"; "CCPFS_BATCH"; "CCPFS_REPL" ]

let commit () =
  match Sys.getenv_opt "CCPFS_COMMIT" with
  | Some s when s <> "" -> s
  | _ -> "unknown"

(* Upper bound on a run's measuring time, whatever [--seconds] asks, so a
   run ends well inside three minutes. *)
let hard_cap_s = 150.

(* A run cycles through this many workload seeds; the simulated metrics
   pool the first cycle, so they are fixed by [--seed] and not by how many
   repetitions fit in [--seconds]. *)
let subseeds = 16

let sub_seeds seed =
  let rng = Det_random.create ~seed in
  Array.init subseeds (fun _ -> Det_random.int rng ((1 lsl 30) - 1))

let median l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type rep = { sub : int; setup_s : float; host_s : float; o : Drive.outcome }

let one_rep spec ~seeds ~sub ~traced =
  (* start every repetition from the same collector state *)
  Gc.full_major ();
  Gc.full_major ();
  let p = Drive.setup spec ~seed:seeds.(sub) in
  let o = Drive.execute ~traced p in
  { sub; setup_s = p.Drive.setup_s; host_s = o.run_host_s +. o.drain_host_s; o }

(* Everything sim_* is computed from, bit for bit. *)
let sim_key (o : Drive.outcome) =
  (o.sim_pio_s, o.sim_durable_s, o.events, o.write_lat, o.read_lat)

let some ?samples name unit v = { Drive.name; unit; value = Some v; samples }

let pooled lats =
  let s = Stats.create () in
  List.iter (Array.iter (Stats.add s)) lats;
  s

type result = {
  errors : string list;
  attempted : int;
  failed : int;
  end_to_end : Drive.metric list;
  per_layer : Drive.metric list;  (** empty unless traced *)
  n_plain : int;
  n_traced : int;
}

let run_workload spec ~seed ~seconds ~trace =
  let start = Unix.gettimeofday () in
  let seeds = sub_seeds seed in
  (* The warm-up is the process's first repetition, so the runtime's heap
     high-water mark after it is that repetition's peak major heap. *)
  let warm = one_rep spec ~seeds ~sub:0 ~traced:false in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let first = Array.make subseeds None and drift = ref false in
  (* Later repetitions of a seed are checked against its first one and
     then kept without their latency samples, so the data the process
     retains, and with it the collector's work, does not grow. *)
  let keep r =
    match first.(r.sub) with
    | None ->
        first.(r.sub) <- Some r.o;
        r
    | Some f ->
        if sim_key r.o <> sim_key f then drift := true;
        { r with o = { r.o with write_lat = [||]; read_lat = [||] } }
  in
  let warm = keep warm in
  let rec loop plain traced =
    let n_plain = List.length plain and n_traced = List.length traced in
    let t = Unix.gettimeofday () -. start in
    if
      n_plain >= subseeds
      && ((not trace) || n_traced >= subseeds)
      && (t >= seconds || t >= hard_cap_s)
    then (List.rev plain, List.rev traced)
    else if trace && n_traced < n_plain then
      let sub = n_traced mod subseeds in
      loop plain (keep (one_rep spec ~seeds ~sub ~traced:true) :: traced)
    else
      let sub = n_plain mod subseeds in
      loop (keep (one_rep spec ~seeds ~sub ~traced:false) :: plain) traced
  in
  let plain, traced = loop [] [] in
  let reps = (warm :: plain) @ traced in
  let cycle = Array.to_list (Array.map Option.get first) in
  let sum f = List.fold_left (fun acc r -> acc + f r.o) 0 reps in
  let attempted = sum (fun o -> o.Drive.attempted) in
  let failed = sum (fun o -> o.Drive.failed) + if !drift then 1 else 0 in
  let med f l = median (List.map f l) in
  let ops = Workload.ops spec in
  let n_plain = List.length plain in
  let writes = pooled (List.map (fun (o : Drive.outcome) -> o.write_lat) cycle) in
  let reads = pooled (List.map (fun (o : Drive.outcome) -> o.read_lat) cycle) in
  let n_writes = Stats.count writes and n_reads = Stats.count reads in
  let read_q p =
    {
      Drive.name = Printf.sprintf "sim_read_p%.0f_s" p;
      unit = "s";
      value = (if n_reads = 0 then None else Some (Stats.percentile reads p));
      samples = Some n_reads;
    }
  in
  let end_to_end =
    [
      some ~samples:n_plain "setup_s" "s" (med (fun r -> r.setup_s) plain);
      some ~samples:n_plain "host_ops_per_s" "1/s"
        (med (fun r -> float_of_int ops /. r.host_s) plain);
      some ~samples:1 "host_peak_heap_mb" "MB" peak_heap_mb;
      some ~samples:subseeds "sim_write_bw_Bps" "B/s"
        (med
           (fun (o : Drive.outcome) ->
             float_of_int o.bytes_written /. o.sim_pio_s)
           cycle);
      some ~samples:subseeds "sim_durable_s" "s"
        (med (fun (o : Drive.outcome) -> o.sim_durable_s) cycle);
      some ~samples:n_writes "sim_write_p50_s" "s" (Stats.percentile writes 50.);
      some ~samples:n_writes "sim_write_p99_s" "s" (Stats.percentile writes 99.);
      some ~samples:n_writes "sim_write_mean_s" "s" (Stats.mean writes);
      read_q 50.;
      read_q 99.;
      some "ops" "count" (float_of_int ops);
      some ~samples:attempted "op_fail_ratio" "ratio"
        (float_of_int failed /. float_of_int attempted);
    ]
  in
  let per_layer =
    match traced with
    | [] -> []
    | r0 :: _ ->
        List.mapi
          (fun i (m : Drive.metric) ->
            let vals =
              List.filter_map
                (fun r -> (List.nth r.o.Drive.layers i).Drive.value)
                traced
            in
            { m with value = (if vals = [] then None else Some (median vals)) })
          r0.o.layers
        @ [
            some ~samples:(List.length traced) "bench.trace_overhead" "ratio"
              (med (fun r -> r.host_s) traced /. med (fun r -> r.host_s) plain);
          ]
  in
  {
    errors =
      List.concat_map (fun r -> r.o.Drive.errors) reps
      @
      if !drift then [ "simulated metrics differ between repetitions of one seed" ]
      else [];
    attempted;
    failed;
    end_to_end;
    per_layer;
    n_plain;
    n_traced = List.length traced;
  }

(* The end-to-end metrics the result line carries, as BENCHMARK.json lists
   them.  sim_write_p50_s stays in the report: on segmented_bulk the
   median write is a cache-absorbed 1 MiB copy whose simulated cost is the
   same on every seed.  The read latencies exist on one workload only. *)
let gated_end_to_end =
  [
    "setup_s"; "host_ops_per_s"; "host_peak_heap_mb"; "sim_write_bw_Bps";
    "sim_durable_s"; "sim_write_mean_s"; "sim_write_p99_s";
  ]

(* Per-layer metrics that exist on one workload only stay in the report. *)
let report_only_layers = "pfs.read_hit_ratio" :: List.map fst Drive.check_names

let metric_json (m : Drive.metric) =
  let open Obs.Json in
  Obj
    ([
       ("value", match m.value with Some v -> Float v | None -> Null);
       ("unit", Str m.unit);
     ]
    @ (if Option.is_none m.value then [ ("absent", Bool true) ] else [])
    @ match m.samples with Some n -> [ ("samples", Int n) ] | None -> [])

(* The result line: exactly correct/attempted/failed/metrics, each value
   printed with all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.filter_map
      (fun (m : Drive.metric) ->
        Option.map
          (fun v ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name v m.unit)
          m.value)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

let print_table workload (ms : Drive.metric list) =
  List.iter
    (fun (m : Drive.metric) ->
      Printf.printf "%-18s %-26s %s%s\n" workload m.name
        (match m.value with
        | Some v -> Printf.sprintf "%.6g %s" v m.unit
        | None -> "absent")
        (match m.samples with
        | Some n -> Printf.sprintf "  (n=%d)" n
        | None -> ""))
    ms

(* Runs one workload and prints its table, report and result line;
   returns whether every check passed. *)
let report (spec : Workload.t) ~seed ~seconds ~trace =
  let r = run_workload spec ~seed ~seconds ~trace in
  let gated =
    if trace then
      List.filter
        (fun (m : Drive.metric) -> not (List.mem m.name report_only_layers))
        r.per_layer
    else
      List.filter
        (fun (m : Drive.metric) -> List.mem m.name gated_end_to_end)
        r.end_to_end
  in
  let errors =
    r.errors
    @ List.filter_map
        (fun (m : Drive.metric) ->
          match m.value with
          | Some v when Float.is_finite v -> None
          | _ -> Some (Printf.sprintf "result metric %s has no finite value" m.name))
        gated
  in
  let correct = r.failed = 0 && errors = [] in
  List.iter (fun e -> Printf.eprintf "ior_bench: %s: %s\n" spec.name e) errors;
  print_table spec.name (if trace then r.per_layer else r.end_to_end);
  let metrics ms =
    Obs.Json.Obj
      (List.map (fun (m : Drive.metric) -> (m.name, metric_json m)) ms)
  in
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("workload", Str spec.name);
            ("seed", Int seed);
            ("commit", Str (commit ()));
            ("trace", Bool trace);
            ("knobs", Workload.knobs spec);
            ( "repetitions",
              Obj
                [
                  ("warmup", Int 1); ("plain", Int r.n_plain);
                  ("traced", Int r.n_traced); ("subseeds", Int subseeds);
                ] );
            ("correct", Bool correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("errors", List (List.map (fun e -> Str e) errors));
            ("end_to_end", metrics r.end_to_end);
            ("per_layer", metrics r.per_layer);
          ]));
  print_endline
    (result_line ~correct ~attempted:r.attempted ~failed:r.failed
       (List.filter (fun (m : Drive.metric) -> Option.is_some m.value) gated));
  correct

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.
  and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s >= 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match List.filter (fun v -> Option.is_some (Sys.getenv_opt v)) refused_env with
  | [] -> ()
  | set ->
      Printf.eprintf
        "ior_bench: refusing to run with %s set: the benchmark pins every \
         knob itself\n"
        (String.concat ", " set);
      exit 2);
  match !workload with
  | Some "all" ->
      (* Each workload in a fresh process of its own, one after another:
         the peak heap and the collector's state are per process. *)
      let ok =
        List.fold_left
          (fun ok (spec : Workload.t) ->
            let args =
              [| Sys.executable_name; "--workload"; spec.name;
                 "--seed"; string_of_int !seed;
                 "--seconds"; Printf.sprintf "%g" !seconds;
                 "--trace"; (if !trace then "1" else "0") |]
            in
            let pid =
              Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
                Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ok
            | _ -> false)
          true Workload.all
      in
      exit (if ok then 0 else 1)
  | Some w -> (
      match Workload.find w with
      | Some spec ->
          exit
            (if report spec ~seed:!seed ~seconds:!seconds ~trace:!trace then 0
             else 1)
      | None -> usage ())
  | None -> usage ()
