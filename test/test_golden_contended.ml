(* Golden engine fingerprints for the contended lock-server shapes.

   The fuzz corpus pins the event order of small, mostly uncontended
   cases (test_fuzz.ml).  These cases pin the shapes where the lock
   server's queue is deep and every change to it triggers a scheduling
   pass:

   - IO500-hard: 64 clients on one stripe, 47 008-byte strided writes,
     under SeqDLM and DLM-Lustre;
   - the same writers reading back a neighbour's slot between writes,
     so each write converts the client's own expanded PR lock (SeqDLM)
     or has to revoke it first (SeqDLM without conversion);
   - Tile-IO under DLM-datatype: multi-range requests;
   - writers flushing early into a one-entry data-server extent cache,
     so force syncs
     queue internal [sync_resource] waiters and their grants re-enter
     the scheduler.

   A change that moves a grant, an SN, a revocation or any engine event
   fails here.  The configuration is pinned, so the values hold whatever
   [CCPFS_BATCH] or [CCPFS_REPL] say; under [CCPFS_CHECK] the sanitizer
   is attached, which must not move an event either. *)

open Ccpfs_util
open Ccpfs

type shape = {
  name : string;
  policy : Seqdlm.Policy.t;
  config : Config.t;
  clients : int;
  stripes : int;
  (* what client [c] does, given its open file *)
  body : Cluster.t -> int -> Client.t -> Client.file -> unit;
  drives : string * (Cluster.t -> unit -> int);
      (* what the shape exists to drive: installed before the run, read
         after it, and required to be nonzero *)
}

let config ?(extent_cache = Config.default.Config.extent_cache_limit)
    ?(dirty_min = 256 * Units.mib)
    ?(flush_period = Config.default.Config.flush_period) () =
  { Config.default with Config.flush_period }
  |> Config.with_dirty_limits ~dirty_min ~dirty_max:(4 * Units.gib)
  |> Config.with_extent_cache ~limit:extent_cache
  |> Config.with_extent_log false
  |> Config.with_flush_wire_page_only false
  |> Config.with_batching ~delay:0. ~k:8
  |> Config.with_replication 0

let xfer = 47008
let ops_per_client = 4

(* Seeded think time in front of every op, so the clients do not run in
   lockstep and the queue orders vary. *)
let think cl c i =
  let rng = Det_random.create ~seed:((c * 1009) + i) in
  Dessim.Engine.sleep (Cluster.engine cl) (Det_random.float rng 50e-6)

let strided_writes ~nprocs cl c client f =
  List.iteri
    (fun i (a : Workloads.Access.t) ->
      think cl c i;
      Client.write client f ~off:a.off ~len:a.len)
    (Workloads.Ior.accesses ~pattern:Workloads.Access.N1_strided ~nprocs
       ~rank:c ~xfer ~blocks:ops_per_client)

(* Write a slot, then read the previous rank's slot of the same round:
   the read's PR grant expands to EOF, so the next write conflicts with
   the client's own lock and converts it. *)
let strided_write_read ~nprocs cl c client f =
  let mine =
    Workloads.Ior.accesses ~pattern:Workloads.Access.N1_strided ~nprocs
      ~rank:c ~xfer ~blocks:ops_per_client
  in
  let left =
    Workloads.Ior.accesses ~pattern:Workloads.Access.N1_strided ~nprocs
      ~rank:((c + nprocs - 1) mod nprocs) ~xfer ~blocks:ops_per_client
  in
  List.iteri
    (fun i ((a : Workloads.Access.t), (b : Workloads.Access.t)) ->
      think cl c i;
      Client.write client f ~off:a.off ~len:a.len;
      ignore (Client.read client f ~off:b.off ~len:b.len))
    (List.combine mine left)

let tile_grid =
  { Workloads.Tile_io.rows = 3; cols = 4; tile = 16; overlap = 2; elem = 1024 }

let tile_writes cl c client f =
  let ranges = Workloads.Tile_io.ranges tile_grid ~rank:c in
  for i = 0 to 1 do
    think cl c i;
    Client.write_multi client f ~ranges
  done

let lock_stat name f =
  (name, fun cl () -> f (Seqdlm.Lock_server.stats (Cluster.lock_server cl 0)))

let force_syncs =
  ( "force syncs",
    fun cl () ->
      (Data_server.stats (Cluster.data_server cl 0)).Data_server.force_syncs )

let multi_range_requests =
  ( "multi-range requests",
    fun cl ->
      let n = ref 0 in
      Seqdlm.Lock_server.add_tracer (Cluster.lock_server cl 0) (fun _ -> function
        | Seqdlm.Lock_server.T_request { ranges = _ :: _ :: _; _ } -> incr n
        | _ -> ());
      fun () -> !n )

let shapes =
  let open Seqdlm in
  [
    {
      name = "io500-hard seqdlm";
      policy = Policy.seqdlm; config = config (); clients = 64; stripes = 1;
      body = strided_writes ~nprocs:64;
      drives = lock_stat "early grants" (fun s -> s.Lock_server.early_grants);
    };
    {
      name = "io500-hard dlm-lustre";
      policy = Policy.dlm_lustre; config = config (); clients = 64; stripes = 1;
      body = strided_writes ~nprocs:64;
      drives = lock_stat "revokes" (fun s -> s.Lock_server.revokes_sent);
    };
    {
      name = "io500-hard write+read seqdlm";
      policy = Policy.seqdlm; config = config (); clients = 64; stripes = 1;
      body = strided_write_read ~nprocs:64;
      drives = lock_stat "upgrades" (fun s -> s.Lock_server.upgrades);
    };
    {
      name = "io500-hard write+read seqdlm-noConv";
      policy = Policy.without_conversion Policy.seqdlm; config = config ();
      clients = 64; stripes = 1;
      body = strided_write_read ~nprocs:64;
      drives = lock_stat "revokes" (fun s -> s.Lock_server.revokes_sent);
    };
    {
      name = "tile-io dlm-datatype";
      policy = Policy.dlm_datatype; config = config ();
      clients = Workloads.Tile_io.nclients tile_grid; stripes = 2;
      body = tile_writes;
      drives = multi_range_requests;
    };
    {
      name = "strided force-sync seqdlm";
      policy = Policy.seqdlm;
      config = config ~extent_cache:1 ~dirty_min:(32 * 1024) ~flush_period:2e-4 ();
      clients = 16; stripes = 1;
      body = strided_writes ~nprocs:16;
      drives = force_syncs;
    };
  ]

(* Run one shape to quiescence, drain, and return the engine fingerprint
   together with the count the shape is meant to drive. *)
let run (s : shape) =
  let cl =
    Cluster.create ~config:s.config ~policy:s.policy ~replication:0
      ~n_servers:1 ~n_clients:s.clients ()
  in
  if Check.Sanitize.enabled () then Check.Sanitize.attach_cluster cl;
  let driven = snd s.drives cl in
  let layout = Layout.v ~stripe_count:s.stripes () in
  for c = 0 to s.clients - 1 do
    Cluster.spawn_client cl c ~name:(Printf.sprintf "w%d" c) (fun client ->
        let f = Client.open_file client ~create:true ~layout "/golden" in
        s.body cl c client f)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  Seqdlm.Lock_server.check_invariants (Cluster.lock_server cl 0);
  (Dessim.Engine.fingerprint (Cluster.engine cl), driven ())

let golden =
  [
    ("io500-hard seqdlm", 2869711808798324427L);
    ("io500-hard dlm-lustre", -2682220865484972241L);
    ("io500-hard write+read seqdlm", 935027851650965427L);
    ("io500-hard write+read seqdlm-noConv", -3938440748987760946L);
    ("tile-io dlm-datatype", -2447174650622472942L);
    ("strided force-sync seqdlm", 4315806647672301541L);
  ]

let test_golden () =
  List.iter
    (fun (s : shape) ->
      let fp, driven = run s in
      Alcotest.(check bool)
        (Printf.sprintf "%s: drives %s" s.name (fst s.drives))
        true (driven > 0);
      match List.assoc_opt s.name golden with
      | Some want -> Alcotest.(check int64) s.name want fp
      | None -> Alcotest.failf "%s: no golden value (got %LdL)" s.name fp)
    shapes

let suite =
  [
    ( "golden-contended",
      [ Alcotest.test_case "contended-shape fingerprints" `Quick test_golden ] );
  ]
