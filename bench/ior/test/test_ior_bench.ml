(* The benchmark checks itself at a tiny size: simulated metrics repeat
   bit for bit for a seed (traced or not), another seed still verifies,
   and a planted wrong expectation is reported as a failed op. *)

open Ior_bench

let tiny =
  [
    { Workload.strided_hard with writers = 4; ops_per_client = 8 };
    { Workload.segmented_bulk with writers = 4; ops_per_client = 16 };
    { Workload.mixed_rw_checked with writers = 4; readers = 4; ops_per_client = 8 };
  ]

let run ?traced spec ~seed = Drive.execute ?traced (Drive.setup spec ~seed)

let sim (o : Drive.outcome) =
  (o.sim_pio_s, o.sim_durable_s, o.events, o.write_lat, o.read_lat, o.bytes_written)

let check_clean name (o : Drive.outcome) =
  Alcotest.(check (list string)) (name ^ " errors") [] o.errors;
  Alcotest.(check int) (name ^ " failed") 0 o.failed

let same_seed_bit_identical (spec : Workload.t) () =
  let a = run spec ~seed:7 and b = run spec ~seed:7 in
  let c = run ~traced:true spec ~seed:7 in
  check_clean spec.name a;
  Alcotest.(check bool) "untraced repeat" true (sim a = sim b);
  Alcotest.(check bool) "traced repeat" true (sim a = sim c);
  Alcotest.(check bool) "traced run reports layers" true (c.layers <> [])

let other_seed_verifies (spec : Workload.t) () =
  let a = run spec ~seed:7 and b = run spec ~seed:8 in
  check_clean spec.name b;
  Alcotest.(check bool) "seed moves the think jitter" true (sim a <> sim b)

let planted_tag_caught (spec : Workload.t) () =
  let p = Drive.setup spec ~seed:7 in
  let op = p.streams.(1).(2) in
  p.streams.(1).(2) <- { op with writer = 0 };
  let o = Drive.execute p in
  Alcotest.(check int) "one failed op" 1 o.failed;
  Alcotest.(check int) "one error" 1 (List.length o.errors)

let () =
  let cases name f =
    List.map (fun (s : Workload.t) -> Alcotest.test_case s.name `Quick (f s)) tiny
    |> fun l -> (name, l)
  in
  Alcotest.run "ior_bench"
    [
      cases "same seed" same_seed_bit_identical;
      cases "other seed" other_seed_verifies;
      cases "planted tag" planted_tag_caught;
    ]
