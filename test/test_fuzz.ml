(* The simulation fuzzer's own tests: clean seed ranges pass every
   oracle; identical seeds give identical fingerprints; planted bugs
   (SN reuse, dropped flush blocks) are caught within the CI budget and
   shrink to small replayable reproducers. *)

let base = Fuzz.Seed.base ()

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let is_sim (c : Fuzz.Case.t) =
  match c.kind with Fuzz.Case.Sim _ -> true | Fuzz.Case.Analytic _ -> false

(* First generated case from [from] satisfying [p] (the generator mixes
   kinds ~19:1, so this terminates fast for either kind). *)
let first_case p from =
  let rec go s =
    let c = Fuzz.Gen.of_seed s in
    if p c then c else go (s + 1)
  in
  go from

let test_seed_range_passes () =
  let summary = Fuzz.Driver.run_range ~base ~count:40 () in
  (match summary.failure with
  | Some f ->
      Alcotest.fail (Printf.sprintf "seed %d failed: %s" f.seed f.reason)
  | None -> ());
  Alcotest.(check int) "all seeds executed" 40 summary.tested;
  Alcotest.(check bool) "simulated cases generated" true (summary.sims > 0)

let test_same_seed_same_fingerprint () =
  (* Exec already double-runs internally; this checks reproducibility
     across independent invocations too. *)
  let case = first_case is_sim base in
  let o1 = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "identical fingerprints" o1.fingerprint o2.fingerprint;
  Alcotest.(check int) "identical op counts" o1.ops o2.ops;
  Alcotest.(check (float 0.)) "identical virtual end" o1.virtual_end
    o2.virtual_end

let test_analytic_oracle_runs () =
  let case = first_case (fun c -> not (is_sim c)) base in
  let o = Fuzz.Exec.run case in
  Alcotest.(check string) "analytic oracle vouched" "analytic" o.oracle;
  Alcotest.(check bool) "simulated time advanced" true (o.virtual_end > 0.)

let test_sn_reuse_caught_and_shrinks () =
  let summary =
    Fuzz.Driver.run_range ~inject:Fuzz.Exec.Sn_reuse ~base ~count:200 ()
  in
  match summary.failure with
  | None -> Alcotest.fail "planted SN-reuse bug survived 200 seeds"
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "an SN invariant caught it (got: %s)" f.reason)
        true
        (contains ~sub:"sn-" f.reason);
      Alcotest.(check bool)
        (Printf.sprintf "shrinks to <= 3 clients (got %d)"
           (Fuzz.Case.client_count f.shrunk))
        true
        (Fuzz.Case.client_count f.shrunk <= 3);
      Alcotest.(check bool)
        (Printf.sprintf "shrinks to <= 10 ops (got %d)"
           (Fuzz.Case.op_count f.shrunk))
        true
        (Fuzz.Case.op_count f.shrunk <= 10);
      (* The minimized case must itself be a reproducer. *)
      (match Fuzz.Exec.catch ~inject:Fuzz.Exec.Sn_reuse f.shrunk with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "minimized case no longer fails")

let test_drop_block_caught_by_shadow () =
  let summary =
    Fuzz.Driver.run_range ~inject:Fuzz.Exec.Drop_flush ~base ~count:200 ()
  in
  match summary.failure with
  | None -> Alcotest.fail "planted drop-block bug survived 200 seeds"
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "the shadow file caught it (got: %s)" f.reason)
        true
        (contains ~sub:"shadow-file divergence" f.reason);
      (* The repro artifact round-trips and replays. *)
      let doc = Fuzz.Driver.repro_json f in
      (match Obs.Json.parse (Obs.Json.to_string doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("repro JSON does not parse: " ^ e));
      Alcotest.(check bool) "replay hint names the seed" true
        (contains ~sub:(string_of_int f.seed) (Fuzz.Driver.repro_hint f));
      Alcotest.(check bool) "skeleton replays through Exec" true
        (contains ~sub:"Fuzz.Exec.run" (Fuzz.Case.to_ocaml_test f.shrunk))

(* ---- open-loop load segments (lib/load integration) ---- *)

let has_load (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> Option.is_some s.Fuzz.Case.load
  | Fuzz.Case.Analytic _ -> false

(* The generator draws load segments at the tail: they must actually
   appear, and a case carrying one must pass every oracle (including
   the load-conservation invariant Exec adds for the segment). *)
let test_load_segment_generated_and_runs () =
  let case = first_case has_load base in
  let o = Fuzz.Exec.run case in
  Alcotest.(check bool) "virtual time advanced" true (o.virtual_end > 0.);
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "load segment is deterministic" o.fingerprint
    o2.fingerprint

(* Tail-draw stability: deleting the load segment from a case must not
   change anything the earlier draws produced — i.e. the segment is
   purely additive on the generated shape. *)
let test_load_segment_tail_positioned () =
  let case = first_case has_load base in
  match case.kind with
  | Fuzz.Case.Analytic _ -> assert false
  | Fuzz.Case.Sim s ->
      let stripped = { case with kind = Fuzz.Case.Sim { s with load = None } } in
      ignore (Fuzz.Exec.run stripped);
      (* summary of the stripped case is the old-style summary prefix *)
      let sum = Fuzz.Case.summary case
      and sum' = Fuzz.Case.summary stripped in
      Alcotest.(check bool) "stripped summary is a prefix" true
        (String.length sum > String.length sum'
        && String.sub sum 0 (String.length sum') = sum')

let has_migrations (c : Fuzz.Case.t) = Fuzz.Case.migration_count c > 0
let has_partitions (c : Fuzz.Case.t) = Fuzz.Case.partition_count c > 0

let has_repl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> s.Fuzz.Case.repl > 0
  | Fuzz.Case.Analytic _ -> false

let has_dbl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> Option.is_some s.Fuzz.Case.dbl
  | Fuzz.Case.Analytic _ -> false

(* No layer newer than the one under test: the shrinker sheds newest
   first, so "drops X first" only holds when X is the newest layer the
   case carries. *)
let no_repl_era (c : Fuzz.Case.t) =
  (not (has_repl c)) && (not (has_partitions c)) && not (has_dbl c)

(* The shrinker's very first candidate for a load-carrying case drops
   the whole segment, so old failures minimize back to plain cases.
   (Migration-free case: migrations are a yet-newer layer and shed
   before the load segment — covered by its own test below.) *)
let test_shrink_drops_load_first () =
  let case =
    first_case
      (fun c -> has_load c && (not (has_migrations c)) && no_repl_era c)
      base
  in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a load-carrying case"
  | first :: _ ->
      Alcotest.(check bool) "first candidate has no load segment" true
        (not (has_load first));
      (* and nothing else about the sim changed *)
      (match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "clients kept" a.Fuzz.Case.n_clients
            b.Fuzz.Case.n_clients;
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

(* ---- mid-run migrations (DESIGN.md §15 integration) ---- *)

(* The generator draws migrations at the very tail: they must appear,
   run oracle-clean (the suite-wide CCPFS_CHECK=full pass adds the
   ownership-exclusivity sweep), and stay deterministic. *)
let test_migration_segment_generated_and_runs () =
  let case = first_case has_migrations base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "migration case is deterministic" o.fingerprint
    o2.fingerprint

(* Migrations shed before every pre-sharding layer — a failure that
   survives without them reproduces on a sharding-free case.  (The
   repl-era trio is newer still and sheds even earlier; excluded here.) *)
let test_shrink_drops_migrations_first () =
  let case = first_case (fun c -> has_migrations c && no_repl_era c) base in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a migration-carrying case"
  | first :: _ ->
      Alcotest.(check bool) "first candidate has no migrations" true
        (not (has_migrations first));
      (match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "clients kept" a.Fuzz.Case.n_clients
            b.Fuzz.Case.n_clients;
          Alcotest.(check bool) "load kept" true
            (Option.is_some a.Fuzz.Case.load = Option.is_some b.Fuzz.Case.load);
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

let test_migration_json_and_skeleton () =
  let case = first_case has_migrations base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the migrations" true
    (contains ~sub:"mg_stripe" skel);
  Alcotest.(check bool) "summary mentions them" true
    (contains ~sub:"migration" (Fuzz.Case.summary case))

let test_load_segment_json_and_skeleton () =
  let case = first_case has_load base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the load segment" true
    (contains ~sub:"l_rate" skel && contains ~sub:"l_churn" skel);
  let plain = first_case (fun c -> is_sim c && not (has_load c)) base in
  Alcotest.(check bool) "plain skeleton writes load = None" true
    (contains ~sub:"load = None" (Fuzz.Case.to_ocaml_test plain))

(* ---- replication, partitions, double failures (DESIGN.md §16) ---- *)

(* A replicated case with a mid-phase crash recovers through election +
   grant-log replay instead of the client gather — under the shadow
   oracle, the repl invariant sweep and the determinism double-run. *)
let test_repl_replay_failover_case () =
  let case =
    first_case
      (fun c -> has_repl c && Fuzz.Case.mid_crash_count c > 0)
      base
  in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "replicated failover case is deterministic"
    o.fingerprint o2.fingerprint

let test_partition_segment_generated_and_runs () =
  let case = first_case has_partitions base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "partition case is deterministic" o.fingerprint
    o2.fingerprint

(* An armed double failure: a second server actually dies inside the
   first failover's window (needs a mid-crash and >= 2 servers). *)
let has_armed_dbl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s ->
      Option.is_some s.Fuzz.Case.dbl
      && s.Fuzz.Case.n_servers > 1
      && Fuzz.Case.mid_crash_count c > 0
  | Fuzz.Case.Analytic _ -> false

let test_double_failure_generated_and_runs () =
  let case = first_case has_armed_dbl base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "double-failure case is deterministic" o.fingerprint
    o2.fingerprint

(* The repl-era trio is the newest draw layer: a double-failure case
   sheds its second crash before anything else. *)
let test_shrink_drops_double_failure_first () =
  let case = first_case has_dbl base in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a double-failure case"
  | first :: _ -> (
      Alcotest.(check bool) "first candidate has no double failure" true
        (not (has_dbl first));
      match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "replication kept" a.Fuzz.Case.repl
            b.Fuzz.Case.repl;
          Alcotest.(check int) "partitions kept"
            (List.length a.Fuzz.Case.partitions)
            (List.length b.Fuzz.Case.partitions);
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

let test_repl_era_json_and_skeleton () =
  let case = first_case (fun c -> has_partitions c && has_repl c) base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the partitions" true
    (contains ~sub:"pt_server" skel);
  Alcotest.(check bool) "skeleton embeds the replication factor" true
    (contains ~sub:"repl = " skel);
  Alcotest.(check bool) "summary mentions the partitions" true
    (contains ~sub:"partition" (Fuzz.Case.summary case));
  let plain = first_case (fun c -> is_sim c && no_repl_era c) base in
  let pskel = Fuzz.Case.to_ocaml_test plain in
  Alcotest.(check bool) "plain skeleton writes repl = 0 and dbl = None" true
    (contains ~sub:"repl = 0" pskel && contains ~sub:"dbl = None" pskel)

let test_case_json_shape () =
  let case = first_case is_sim base in
  match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check (option int))
        "seed survives" (Some case.Fuzz.Case.seed)
        (Option.bind (Obs.Json.member "seed" doc) Obs.Json.get_int)

(* ---- golden fingerprints ---- *)

(* Pinned engine fingerprints: the event order of these runs must
   survive any refactor of the transport, the lock protocol or the
   engine.  A change that moves an event, a message or a random draw
   fails here.  The cases cover plain SeqDLM (seed 10 batched with
   release piggybacking, seed 22 unbatched), fenced HA with replication,
   partitions and open-loop load (26, 24311, 24321), and forced faults
   with loss, duplication, batching and a double failure (24301,
   24303).  The values hold for the default configuration:
   [CCPFS_BATCH] and [CCPFS_REPL] rewrite every case, so the test is
   skipped when either is set. *)
let golden =
  [
    (10, false, -643847597796707304L);
    (22, false, -1288071082933724062L);
    (26, false, 3876633068602298773L);
    (24311, false, 1288749261932126795L);
    (24321, false, 703820488833181191L);
    (24301, true, 2143839352754567405L);
    (24303, true, -4429900275590631961L);
  ]

let test_golden_fingerprints () =
  let set v =
    match Sys.getenv_opt v with None | Some "" -> false | Some _ -> true
  in
  if set "CCPFS_BATCH" || set "CCPFS_REPL" then Alcotest.skip ();
  List.iter
    (fun (seed, faults, fp) ->
      let o = Fuzz.Exec.run (Fuzz.Gen.of_seed ~faults seed) in
      Alcotest.(check int64)
        (Printf.sprintf "seed %d%s" seed (if faults then " --faults" else ""))
        fp o.fingerprint)
    golden

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "seed range passes all oracles" `Quick
          test_seed_range_passes;
        Alcotest.test_case "same seed, same fingerprint" `Quick
          test_same_seed_same_fingerprint;
        Alcotest.test_case "golden fingerprints" `Quick
          test_golden_fingerprints;
        Alcotest.test_case "analytic differential oracle" `Quick
          test_analytic_oracle_runs;
        Alcotest.test_case "planted SN reuse: caught and minimized" `Quick
          test_sn_reuse_caught_and_shrinks;
        Alcotest.test_case "planted block drop: caught by shadow file" `Quick
          test_drop_block_caught_by_shadow;
        Alcotest.test_case "case JSON round-trip" `Quick test_case_json_shape;
        Alcotest.test_case "load segment generated and deterministic" `Quick
          test_load_segment_generated_and_runs;
        Alcotest.test_case "load draw is tail-positioned" `Quick
          test_load_segment_tail_positioned;
        Alcotest.test_case "shrinker drops the load segment first" `Quick
          test_shrink_drops_load_first;
        Alcotest.test_case "load segment JSON and test skeleton" `Quick
          test_load_segment_json_and_skeleton;
        Alcotest.test_case "migration segment generated and deterministic"
          `Quick test_migration_segment_generated_and_runs;
        Alcotest.test_case "shrinker drops migrations first" `Quick
          test_shrink_drops_migrations_first;
        Alcotest.test_case "migration JSON and test skeleton" `Quick
          test_migration_json_and_skeleton;
        Alcotest.test_case "replicated failover case (election + replay)"
          `Quick test_repl_replay_failover_case;
        Alcotest.test_case "partition segment generated and deterministic"
          `Quick test_partition_segment_generated_and_runs;
        Alcotest.test_case "double failure generated and deterministic" `Quick
          test_double_failure_generated_and_runs;
        Alcotest.test_case "shrinker drops the double failure first" `Quick
          test_shrink_drops_double_failure_first;
        Alcotest.test_case "repl-era JSON and test skeleton" `Quick
          test_repl_era_json_and_skeleton;
      ] );
  ]
