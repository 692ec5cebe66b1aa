(* Tests for the protocol sanitizer (lib/check): the invariant layer
   catching deliberately injected protocol bugs, the wait-for-graph
   deadlock analyzer, the determinism checker, and the schedule
   explorer. *)

open Ccpfs_util
open Dessim
open Seqdlm

let iv lo hi = Interval.v ~lo ~hi
let params = Netsim.Params.default

let make_server () =
  let eng = Engine.create () in
  let snode = Netsim.Node.create eng params ~name:"server" () in
  let server =
    Lock_server.create eng params ~node:snode ~name:"ls"
      ~policy:Policy.seqdlm
  in
  (eng, server)

let expect_violation inv f =
  match f () with
  | () -> Alcotest.failf "expected a %s violation" inv
  | exception Check.Violation.Violation v ->
      Alcotest.(check string) "violated invariant" inv v.Check.Violation.inv

(* ------------------------------------------------------------------ *)
(* Invariant layer vs injected bugs                                    *)
(* ------------------------------------------------------------------ *)

let test_catches_pw_beside_pr () =
  (* The acceptance scenario: corrupt the lock table as a compatibility
     bug would (a PW granted alongside an overlapping PR) and the
     invariant layer must call it out. *)
  let _, server = make_server () in
  Lock_server.reinstall server ~client:0
    ~locks:[ (1, 1, Mode.PW, [ iv 0 4096 ], 1, Lcm.Granted) ];
  Lock_server.reinstall server ~client:1
    ~locks:[ (1, 2, Mode.PR, [ iv 0 4096 ], 1, Lcm.Granted) ];
  expect_violation "lcm-compat" (fun () -> Check.Invariant.check_server server)

let test_catches_duplicate_sn () =
  let _, server = make_server () in
  Lock_server.reinstall server ~client:0
    ~locks:[ (1, 1, Mode.NBW, [ iv 0 4096 ], 5, Lcm.Granted) ];
  Lock_server.reinstall server ~client:1
    ~locks:[ (1, 2, Mode.NBW, [ iv 8192 12288 ], 5, Lcm.Granted) ];
  expect_violation "sn-rules" (fun () -> Check.Invariant.check_server server)

let test_clean_state_passes () =
  let _, server = make_server () in
  Lock_server.reinstall server ~client:0
    ~locks:[ (1, 1, Mode.NBW, [ iv 0 4096 ], 1, Lcm.Granted) ];
  Lock_server.reinstall server ~client:1
    ~locks:[ (1, 2, Mode.NBW, [ iv 8192 12288 ], 2, Lcm.Granted) ];
  Check.Invariant.check_server server

let test_next_sn_creates_no_state () =
  let _, server = make_server () in
  Lock_server.reinstall server ~client:0
    ~locks:[ (1, 1, Mode.NBW, [ iv 0 4096 ], 4, Lcm.Granted) ];
  let before = Lock_server.resource_ids server in
  Alcotest.(check int) "known resource" 5 (Lock_server.next_sn server 1);
  Alcotest.(check int) "unknown resource reads fresh" 1
    (Lock_server.next_sn server 42);
  Alcotest.(check (list int)) "resource_ids unchanged" before
    (Lock_server.resource_ids server)

(* ------------------------------------------------------------------ *)
(* Incremental check vs full sweep (differential)                      *)
(* ------------------------------------------------------------------ *)

(* A validator that runs the incremental check and the full sweep on
   every transition.  A disagreement is recorded rather than raised, so
   a harness that folds exceptions into failure reports cannot hide it;
   an agreed violation is re-raised, so the run fails exactly as it would
   under the plain sanitizer. *)
type diff = {
  mutable transitions : int;
  mutable caught : (int * string) list; (* (transition, inv), newest first *)
  mutable disagreements : string list;
}

let new_diff () = { transitions = 0; caught = []; disagreements = [] }

let differential d srv =
  d.transitions <- d.transitions + 1;
  let verdict check =
    match check srv with
    | () -> None
    | exception Check.Violation.Violation v -> Some v
  in
  let inc = verdict Check.Invariant.check_server in
  let full = verdict Check.Invariant.check_server_full in
  let inv = Option.map (fun (v : Check.Violation.t) -> v.inv) in
  let show = Option.value ~default:"clean" in
  if inv inc <> inv full then
    d.disagreements <-
      Printf.sprintf "%s transition %d: incremental %s, full %s"
        (Lock_server.name srv) d.transitions (show (inv inc))
        (show (inv full))
      :: d.disagreements;
  match (full, inc) with
  | Some v, _ | None, Some v ->
      d.caught <- (d.transitions, v.inv) :: d.caught;
      raise (Check.Violation.Violation v)
  | None, None -> ()

let check_agreed d =
  Alcotest.(check (list string)) "incremental and full agree" []
    (List.rev d.disagreements)

(* Run [f] with every sanitized server validated differentially. *)
let with_differential f =
  let d = new_diff () in
  let r = Check.Sanitize.with_server_check (differential d) f in
  check_agreed d;
  (d, r)

let fuzz_base = Fuzz.Seed.base ()

(* The clean corpus: the suite's seed range plus the seeds CI pins
   (replay failover, armed double failure, partitions under load,
   partitions with a double failure).  Neither checker may raise. *)
let test_differential_fuzz_corpus () =
  let d, summary =
    with_differential (fun () ->
        let summary = Fuzz.Driver.run_range ~base:fuzz_base ~count:40 () in
        List.iter
          (fun seed -> ignore (Fuzz.Exec.run (Fuzz.Gen.of_seed seed)))
          [ 24311; 24316; 24321; 24349 ];
        summary)
  in
  (match summary.failure with
  | Some f -> Alcotest.failf "seed %d failed: %s" f.seed f.reason
  | None -> ());
  Alcotest.(check bool)
    (Printf.sprintf "transitions validated (%d)" d.transitions)
    true (d.transitions > 1000)

(* Forced faults: message loss plus a mid-phase crash in every case, so
   the wholesale-change path (crash, gather, reinstall) runs throughout. *)
let test_differential_forced_faults () =
  let _, summary =
    with_differential (fun () ->
        Fuzz.Driver.run_range ~faults:true ~base:fuzz_base ~count:4 ())
  in
  match summary.failure with
  | Some f -> Alcotest.failf "seed %d failed: %s" f.seed f.reason
  | None -> ()

(* The planted sequencer bug through the fuzzer: whichever oracle stops
   the run, the two checkers agreed on every transition before it. *)
let test_differential_fuzz_sn_reuse () =
  let _, summary =
    with_differential (fun () ->
        Fuzz.Driver.run_range ~inject:Fuzz.Exec.Sn_reuse ~shrink_budget:0
          ~base:fuzz_base ~count:200 ())
  in
  match summary.failure with
  | None -> Alcotest.fail "planted SN-reuse bug survived 200 seeds"
  | Some f ->
      let rec has_sn i =
        i + 3 <= String.length f.reason
        && (String.sub f.reason i 3 = "sn-" || has_sn (i + 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "an SN invariant caught it (got: %s)" f.reason)
        true (has_sn 0)

(* A directly driven server under the differential validator, with
   callback endpoints registered so revocations can be sent. *)
let diff_server n_clients =
  let eng, server = make_server () in
  for cid = 0 to n_clients - 1 do
    let node =
      Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" cid) ()
    in
    Lock_server.register_client server cid
      (Netsim.Rpc.endpoint eng params ~node
         ~name:(Printf.sprintf "c%d.cb" cid)
         ~handler:(fun _ ~reply -> reply ()))
  done;
  let d = new_diff () in
  Lock_server.set_validator server (differential d);
  (server, d)

let submit server ~client ~rid mode ranges =
  let got = ref None in
  Lock_server.submit server
    { Types.client; rid; mode; ranges }
    ~on_grant:(fun g -> got := Some g);
  !got

(* Clean traffic that leaves the incremental checker trusted: reads and
   disjoint writes on two resources, a conflicting writer that queues,
   a revoke-ack, a release that lets it through, a downgrade. *)
let warm_up server =
  let r1 = submit server ~client:0 ~rid:1 Mode.PR [ iv 0 4096 ] in
  ignore (submit server ~client:1 ~rid:1 Mode.NBW [ iv 8192 12288 ]);
  ignore (submit server ~client:2 ~rid:2 Mode.NBW [ iv 1048576 1052672 ]);
  ignore (submit server ~client:3 ~rid:1 Mode.PW [ iv 0 4096 ]);
  match r1 with
  | Some g ->
      let ctl m = Lock_server.control server m in
      ctl (Types.Revoke_ack { rid = 1; lock_id = g.lock_id });
      ctl (Types.Release { rid = 1; lock_id = g.lock_id });
      ctl (Types.Downgrade { rid = 1; lock_id = g.lock_id; mode = Mode.PR })
  | None -> Alcotest.fail "first read not granted"

(* Corrupt the table through [reinstall] mid-run: the next transition
   (a submit on an untouched resource) must be flagged by both checkers
   with the same [inv]. *)
let corrupted_mid_run inv corrupt () =
  let server, d = diff_server 8 in
  warm_up server;
  let clean = d.transitions in
  Alcotest.(check (list (pair int string))) "warm-up is clean" [] d.caught;
  corrupt server;
  expect_violation inv (fun () ->
      ignore (submit server ~client:7 ~rid:9 Mode.PR [ iv 0 4096 ]));
  check_agreed d;
  Alcotest.(check (list (pair int string)))
    "flagged at the transition after the corruption"
    [ (clean + 1, inv) ]
    d.caught

let plant_pw_beside_pr server =
  (* A PW over the range client 1 holds in NBW, and over nothing else. *)
  Lock_server.reinstall server ~client:5
    ~locks:[ (1, 100, Mode.PW, [ iv 8192 9000 ], 90, Lcm.Granted) ]

let plant_duplicate_sn server =
  (* Below the r2 write grant, which expanded upwards only: no overlap,
     so only the SN rule is broken. *)
  let sn =
    match
      List.find_opt
        (fun (v : Lock_server.lock_view) -> Mode.is_write v.v_mode)
        (Lock_server.granted_locks server 2)
    with
    | Some v -> v.v_sn
    | None -> Alcotest.fail "no write grant on r2"
  in
  Lock_server.reinstall server ~client:6
    ~locks:[ (2, 101, Mode.NBW, [ iv 0 4096 ], sn, Lcm.Granted) ]

(* [inject_sn_reuse] on a directly driven server (no SN-monotone tracer
   to stop it first): the reissued SN of the second write grant is a
   duplicate the moment it is granted beside the first. *)
let test_differential_inject_sn_reuse () =
  let server, d = diff_server 2 in
  Lock_server.inject_sn_reuse server ~every:2;
  (* The first grant expands upwards to EOF, so the second sits below. *)
  ignore (submit server ~client:0 ~rid:1 Mode.NBW [ iv 65536 69632 ]);
  expect_violation "sn-rules" (fun () ->
      ignore (submit server ~client:1 ~rid:1 Mode.NBW [ iv 0 4096 ]));
  check_agreed d;
  Alcotest.(check (list (pair int string)))
    "caught at the reusing grant" [ (2, "sn-rules") ] d.caught

(* ------------------------------------------------------------------ *)
(* Cache-under-lock                                                    *)
(* ------------------------------------------------------------------ *)

let make_cache_world () =
  let eng, server = make_server () in
  let node = Netsim.Node.create eng params ~name:"c0" () in
  let hooks =
    {
      Lock_client.flush = (fun ~rid:_ ~ranges:_ -> ());
      has_dirty = (fun ~rid:_ ~ranges:_ -> false);
      invalidate = (fun ~rid:_ ~ranges:_ -> ());
    }
  in
  let lc =
    Lock_client.create eng params ~node ~client_id:0
      ~route:(fun _ -> server)
      ~hooks
  in
  let io_ep =
    Netsim.Rpc.endpoint eng params ~node ~name:"io" ~handler:(fun _ ~reply:_ ->
        assert false)
  in
  let cache =
    Ccpfs.Client_cache.create eng params Ccpfs.Config.default ~node
      ~client_id:0
      ~io_route:(fun _ -> io_ep)
  in
  (eng, lc, cache)

let test_dirty_without_lock_flagged () =
  let eng, lc, cache = make_cache_world () in
  Engine.spawn eng ~name:"w" (fun () ->
      Ccpfs.Client_cache.write cache ~rid:1 ~range:(iv 0 4096) ~sn:1 ~op:1);
  Engine.run eng;
  expect_violation "cache-under-lock" (fun () ->
      Check.Invariant.check_client ~lock_client:lc ~cache)

let test_dirty_under_lock_passes () =
  let eng, lc, cache = make_cache_world () in
  Engine.spawn eng ~name:"w" (fun () ->
      let _h = Lock_client.acquire lc ~rid:1 ~mode:Mode.NBW ~ranges:[ iv 0 4096 ] in
      Ccpfs.Client_cache.write cache ~rid:1 ~range:(iv 0 4096) ~sn:1 ~op:1);
  Engine.run eng;
  Check.Invariant.check_client ~lock_client:lc ~cache

(* ------------------------------------------------------------------ *)
(* Wait-for-graph deadlock analysis                                    *)
(* ------------------------------------------------------------------ *)

let test_wait_for_graph_cycle () =
  (* Classic lock-order inversion with BW (which never early-grants):
     c0 holds r1 and wants r2, c1 holds r2 and wants r1.  The engine
     must stall, and the analyzer must name the cycle with modes and
     ranges. *)
  let eng, server = make_server () in
  let clients =
    Array.init 2 (fun i ->
        let node =
          Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" i) ()
        in
        let hooks =
          {
            Lock_client.flush = (fun ~rid:_ ~ranges:_ -> ());
            has_dirty = (fun ~rid:_ ~ranges:_ -> false);
            invalidate = (fun ~rid:_ ~ranges:_ -> ());
          }
        in
        Lock_client.create eng params ~node ~client_id:i
          ~route:(fun _ -> server)
          ~hooks)
  in
  let order = [| (1, 2); (2, 1) |] in
  Array.iteri
    (fun i (first, second) ->
      Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
          let _h1 =
            Lock_client.acquire clients.(i) ~rid:first ~mode:Mode.BW
              ~ranges:[ iv 0 4096 ]
          in
          let _h2 =
            Lock_client.acquire clients.(i) ~rid:second ~mode:Mode.BW
              ~ranges:[ iv 0 4096 ]
          in
          ()))
    order;
  match Engine.run eng with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock blocked ->
      let report = Check.Deadlock.analyze ~servers:[ server ] ~blocked in
      Alcotest.(check (list (list int)))
        "one 2-cycle" [ [ 0; 1 ] ] report.Check.Deadlock.cycles;
      Alcotest.(check int) "two wait edges" 2
        (List.length report.Check.Deadlock.edges);
      List.iter
        (fun (e : Check.Deadlock.edge) ->
          Alcotest.(check bool) "BW on both sides" true
            (Mode.equal e.e_wait_mode Mode.BW
            && Mode.equal e.e_hold_mode Mode.BW))
        report.Check.Deadlock.edges;
      (* The engine-level report names the stuck application processes
         (waiting on the lock RPC) and the cancel processes that cannot
         drain because each client still holds its first lock. *)
      let names = Engine.blocked_names blocked in
      Alcotest.(check bool) "both writers reported" true
        (List.mem "w0" names && List.mem "w1" names);
      let ctx_of name =
        match List.find_opt (fun b -> b.Engine.b_name = name) blocked with
        | Some { Engine.b_context = Some ctx; _ } -> ctx
        | _ -> ""
      in
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (w ^ " blocked on the lock RPC")
            true
            (String.starts_with ~prefix:"rpc:" (ctx_of w)))
        [ "w0"; "w1" ];
      Alcotest.(check bool) "cancel wait context reported" true
        (List.exists
           (fun b ->
             match b.Engine.b_context with
             | Some ctx -> String.starts_with ~prefix:"lock-idle:" ctx
             | None -> false)
           blocked)

(* ------------------------------------------------------------------ *)
(* Determinism checker                                                 *)
(* ------------------------------------------------------------------ *)

let test_determinism_accepts_pure_scenario () =
  let fp =
    Check.Determinism.check ~name:"pure" (fun () ->
        let eng, server = make_server () in
        ignore server;
        Engine.spawn eng ~name:"p" (fun () -> Engine.sleep eng 1.0);
        Engine.run eng;
        eng)
  in
  Alcotest.(check bool) "nonzero fingerprint" true (not (Int64.equal fp 0L))

let test_determinism_catches_hidden_state () =
  (* A scenario leaking state across runs (here: a counter that changes
     an event's timing) must be caught by the double-run. *)
  let counter = ref 0 in
  expect_violation "determinism" (fun () ->
      ignore
        (Check.Determinism.check ~name:"leaky" (fun () ->
             incr counter;
             let eng = Engine.create () in
             Engine.spawn eng ~name:"p" (fun () ->
                 Engine.sleep eng (float_of_int !counter));
             Engine.run eng;
             eng)))

let test_determinism_under_randomized_hashing () =
  (* Regression for a family of latent ordering bugs: sweeps that leaked
     raw [Hashtbl] iteration order into protocol events — the flush
     daemon's equal-size tie order, the data server's budget-limited
     cleanup sweep and force-sync issue order, the client's per-stripe
     write grouping.  [Hashtbl.randomize] gives every subsequently
     created table a fresh random seed, so the two runs of the
     determinism check iterate their tables in genuinely different
     orders; if any of those sweeps still depended on it, the
     event-stream fingerprints would diverge. *)
  Hashtbl.randomize ();
  let open Ccpfs in
  ignore
    (Check.Determinism.check ~name:"randomized-hashing" (fun () ->
         let config =
           Config.with_extent_cache ~limit:48
             (Config.with_dirty_limits ~dirty_min:(32 * 1024)
                ~dirty_max:(256 * 1024) Config.default)
         in
         (* the voluntary flush daemon must get a chance to run between
            writes — its largest-first drain order is one of the sweeps
            under test *)
         let config = { config with Config.flush_period = 2e-4 } in
         let cl =
           Cluster.create ~config ~policy:Policy.seqdlm ~n_servers:2
             ~n_clients:4 ()
         in
         let layout = Layout.v ~stripe_size:(16 * 1024) ~stripe_count:8 () in
         for i = 0 to 3 do
           Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
               let f = Client.open_file c ~create:true ~layout "/rand" in
               (* Stripe-crossing strided writes over an 8-stripe layout:
                  every write spans stripes (the per-stripe grouping
                  table), the equal-size dirty stripes exercise the flush
                  daemon's tie order, and the extent-cache pressure on
                  both servers drives the cleanup sweep and force-sync. *)
               for k = 0 to 11 do
                 let slot = (k * 4) + i in
                 Client.write c f ~off:(slot * 20_000) ~len:20_000
               done;
               Client.write c f ~off:(i * 160 * 1024) ~len:(128 * 1024);
               Client.fsync c)
         done;
         Cluster.run cl;
         Cluster.fsync_all cl;
         Cluster.check_invariants cl;
         Cluster.engine cl))

let test_find_cycles_stable_under_randomized_hashing () =
  (* Regression for the lint rule D001 finding in [Deadlock.find_cycles]:
     the DFS shares its [visited] table across roots, so the order the
     roots are taken in decides which traversal discovers each cycle —
     and with roots supplied by raw [Hashtbl.iter], two analyses of the
     same stall could report the same cycles in different orders.  Roots
     now come from sorted-key iteration; under [Hashtbl.randomize] every
     call builds its adjacency table with a fresh random seed, so any
     remaining dependence on bucket order would show up as run-to-run
     disagreement below. *)
  Hashtbl.randomize ();
  let mk_edge w h =
    {
      Check.Deadlock.e_waiter = w;
      e_holder = h;
      e_rid = 0;
      e_wait_mode = Mode.PW;
      e_hold_mode = Mode.PW;
      e_hold_state = Lcm.Granted;
      e_wait_ranges = [ iv 0 8 ];
      e_hold_ranges = [ iv 0 8 ];
    }
  in
  (* Three disjoint 2-cycles: with unsorted roots, whichever component's
     root the table yields first gets its cycle listed first. *)
  let edges =
    List.concat_map
      (fun (a, b) -> [ mk_edge a b; mk_edge b a ])
      [ (1, 2); (3, 4); (5, 6) ]
  in
  let expect = [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  for _ = 1 to 60 do
    Alcotest.(check (list (list int)))
      "cycle list independent of table seed" expect
      (Check.Deadlock.find_cycles edges)
  done

(* ------------------------------------------------------------------ *)
(* Schedule explorer                                                   *)
(* ------------------------------------------------------------------ *)

let test_explore_enumerates_tie_orders () =
  (* Two processes tied at t=1.0: exactly two schedules, both orders
     observed. *)
  let seen = ref [] in
  let r =
    Check.Explore.run (fun choose ->
        let eng = Engine.create () in
        Engine.set_tie_chooser eng choose;
        let log = ref [] in
        List.iter
          (fun name ->
            Engine.spawn eng ~name (fun () ->
                Engine.sleep eng 1.0;
                log := name :: !log))
          [ "a"; "b" ];
        Engine.run eng;
        seen := List.rev !log :: !seen)
  in
  Alcotest.(check bool)
    (Printf.sprintf "several schedules (%d)" r.Check.Explore.schedules)
    true
    (r.Check.Explore.schedules >= 2);
  Alcotest.(check bool) "exhaustive" true r.Check.Explore.complete;
  Alcotest.(check bool) "both orders seen" true
    (List.mem [ "a"; "b" ] !seen && List.mem [ "b"; "a" ] !seen)

let test_explore_pinpoints_failing_schedule () =
  (* A bug that only fires under one interleaving must be found and
     reported with the decision path that reproduces it. *)
  match
    Check.Explore.run (fun choose ->
        let eng = Engine.create () in
        Engine.set_tie_chooser eng choose;
        let log = ref [] in
        List.iter
          (fun name ->
            Engine.spawn eng ~name (fun () ->
                Engine.sleep eng 1.0;
                log := name :: !log))
          [ "a"; "b" ];
        Engine.run eng;
        if List.rev !log = [ "b"; "a" ] then failwith "order-sensitive bug")
  with
  | _ -> Alcotest.fail "expected Schedule_failed"
  | exception Check.Explore.Schedule_failed { index; choices; exn; _ } ->
      Alcotest.(check int) "found on second schedule" 1 index;
      Alcotest.(check bool) "decision path recorded" true
        (List.exists (fun (c, n) -> c = 1 && n = 2) choices);
      Alcotest.(check bool) "original exception kept" true
        (match exn with Failure _ -> true | _ -> false)

let test_explore_three_client_contention () =
  (* The acceptance scenario: three contending writers, all arrival
     orders, every same-timestamp interleaving, invariants after each
     schedule. *)
  let r = Check.Scenarios.explore_contention () in
  Alcotest.(check bool) "exhaustive" true r.Check.Explore.complete;
  Alcotest.(check bool)
    (Printf.sprintf "many schedules (%d)" r.Check.Explore.schedules)
    true
    (r.Check.Explore.schedules >= 100)

let suite =
  [
    ( "check.invariant",
      [
        Alcotest.test_case "injected PW beside PR caught" `Quick
          test_catches_pw_beside_pr;
        Alcotest.test_case "injected duplicate SN caught" `Quick
          test_catches_duplicate_sn;
        Alcotest.test_case "clean state passes" `Quick test_clean_state_passes;
        Alcotest.test_case "next_sn read creates no state" `Quick
          test_next_sn_creates_no_state;
        Alcotest.test_case "dirty data without lock flagged" `Quick
          test_dirty_without_lock_flagged;
        Alcotest.test_case "dirty data under lock passes" `Quick
          test_dirty_under_lock_passes;
      ] );
    ( "check.differential",
      [
        Alcotest.test_case "fuzz corpus: incremental == full, both clean"
          `Quick test_differential_fuzz_corpus;
        Alcotest.test_case "forced-fault cases: incremental == full" `Quick
          test_differential_forced_faults;
        Alcotest.test_case "fuzz SN reuse: agree until caught" `Quick
          test_differential_fuzz_sn_reuse;
        Alcotest.test_case "PW beside PR planted mid-run" `Quick
          (corrupted_mid_run "lcm-compat" plant_pw_beside_pr);
        Alcotest.test_case "duplicate SN planted mid-run" `Quick
          (corrupted_mid_run "sn-rules" plant_duplicate_sn);
        Alcotest.test_case "inject_sn_reuse caught at the same grant" `Quick
          test_differential_inject_sn_reuse;
      ] );
    ( "check.deadlock",
      [
        Alcotest.test_case "wait-for graph names the cycle" `Quick
          test_wait_for_graph_cycle;
        Alcotest.test_case "cycle list stable under randomized hashing" `Quick
          test_find_cycles_stable_under_randomized_hashing;
      ] );
    ( "check.determinism",
      [
        Alcotest.test_case "pure scenario accepted" `Quick
          test_determinism_accepts_pure_scenario;
        Alcotest.test_case "hidden state caught" `Quick
          test_determinism_catches_hidden_state;
        Alcotest.test_case "stable under randomized hashing" `Quick
          test_determinism_under_randomized_hashing;
      ] );
    ( "check.explore",
      [
        Alcotest.test_case "enumerates tie orders" `Quick
          test_explore_enumerates_tie_orders;
        Alcotest.test_case "pinpoints failing schedule" `Quick
          test_explore_pinpoints_failing_schedule;
        Alcotest.test_case "three-client contention exhaustive" `Quick
          test_explore_three_client_contention;
      ] );
  ]
