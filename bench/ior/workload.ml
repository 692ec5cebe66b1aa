(* The benchmark's workloads: cluster shape, a fully pinned Config, and
   the seeded closed-loop access streams the clients replay.

   The seed draws only the per-op think jitter and, on mixed_rw_checked,
   the readers' targets.  Op counts are fixed per workload, never derived
   from a time budget: the simulator's host cost per op grows with run
   length, so a time-based count would move host_ops_per_s by itself.
   See README.md for why each workload exists. *)

open Ccpfs_util
open Ccpfs

type kind = Write | Read

type op = {
  kind : kind;
  off : int;
  len : int;
  think : float;
      (** simulated pause before the op is issued; excluded from its
          latency *)
  writer : int;  (** client whose write must own [off, off+len) *)
  wop : int;  (** that client's op counter value for the write *)
}

type t = {
  name : string;
  n_servers : int;
  writers : int;  (** clients 0 .. writers-1 *)
  readers : int;  (** clients writers .. writers+readers-1 *)
  ops_per_client : int;
  xfer : int;
  pattern : Workloads.Access.pattern;  (** the writers' IOR pattern *)
  stripe_count : int;
  config : Config.t;
  fenced : bool;  (** fenced transport ([Cluster.create ~reliability]) *)
  checked : bool;  (** invariant sanitizer attached *)
}

let path = "/ior"
let clients t = t.writers + t.readers
let ops t = clients t * t.ops_per_client

(* Uniform [0, 50 µs) pause before each op.  Without it the closed-loop
   clients run in lockstep and every latency sample of a round is
   bit-identical; the span stays well below the queue waits it perturbs. *)
let think_span = 50e-6

(* Every knob Config.default would otherwise take from the environment
   (CCPFS_BATCH, CCPFS_REPL) or leave to the paper's defaults is pinned
   here, so a result names exactly the configuration that produced it. *)
let config ~batch_k ~dirty_min ~dirty_max =
  Config.default
  |> Config.with_dirty_limits ~dirty_min ~dirty_max
  |> Config.with_extent_log false
  |> Config.with_flush_wire_page_only false
  |> Config.with_batching ~delay:0. ~k:batch_k
  |> Config.with_replication 0

let strided_hard =
  {
    name = "strided_hard";
    n_servers = 1;
    writers = 64;
    readers = 0;
    ops_per_client = 64;
    xfer = 47008;
    pattern = Workloads.Access.N1_strided;
    stripe_count = 1;
    config =
      config ~batch_k:8 ~dirty_min:(256 * Units.mib) ~dirty_max:(4 * Units.gib);
    fenced = false;
    checked = false;
  }

let segmented_bulk =
  {
    name = "segmented_bulk";
    n_servers = 4;
    writers = 64;
    readers = 0;
    ops_per_client = 1024;
    xfer = Units.mib;
    pattern = Workloads.Access.N1_segmented;
    stripe_count = 8;
    config = config ~batch_k:8 ~dirty_min:(8 * Units.mib) ~dirty_max:(64 * Units.mib);
    fenced = false;
    checked = false;
  }

let mixed_rw_checked =
  {
    name = "mixed_rw_checked";
    n_servers = 2;
    writers = 16;
    readers = 16;
    ops_per_client = 32;
    xfer = 64 * Units.kib;
    pattern = Workloads.Access.N1_strided;
    stripe_count = 4;
    config =
      config ~batch_k:8 ~dirty_min:(256 * Units.mib) ~dirty_max:(4 * Units.gib);
    fenced = true;
    checked = true;
  }

let all = [ strided_hard; segmented_bulk; mixed_rw_checked ]
let find name = List.find_opt (fun w -> w.name = name) all

let layout t = Layout.v ~stripe_count:t.stripe_count ()

(* Writer [rank]'s accesses in issue order; its k-th write (0-based) runs
   with op counter k+1, which is what its content tag will carry. *)
let writer_stream t ~rng ~rank =
  Workloads.Ior.accesses ~pattern:t.pattern ~nprocs:t.writers ~rank ~xfer:t.xfer
    ~blocks:t.ops_per_client
  |> List.mapi (fun k (a : Workloads.Access.t) ->
         {
           kind = Write;
           off = a.off;
           len = a.len;
           think = Det_random.float rng think_span;
           writer = rank;
           wop = k + 1;
         })
  |> Array.of_list

(* A reader's k-th read targets the slot a random writer filled two rounds
   earlier (round 0 for its first two reads), so PR locks meet the NBW
   locks of writers still working nearby. *)
let reader_stream t ~rng =
  Array.init t.ops_per_client (fun k ->
      let think = Det_random.float rng think_span in
      let w = Det_random.int rng t.writers in
      let round = max 0 (k - 2) in
      let a =
        List.nth
          (Workloads.Ior.accesses ~pattern:t.pattern ~nprocs:t.writers ~rank:w
             ~xfer:t.xfer ~blocks:(round + 1))
          round
      in
      { kind = Read; off = a.off; len = a.len; think; writer = w; wop = round + 1 })

let streams t ~seed =
  let root = Det_random.create ~seed in
  Array.init (clients t) (fun c ->
      let rng = Det_random.split root in
      if c < t.writers then writer_stream t ~rng ~rank:c else reader_stream t ~rng)

let cluster t =
  let params = Netsim.Params.default in
  let reliability =
    if t.fenced then Some (Netsim.Rpc.reliability_for params) else None
  in
  Cluster.create ~params ~config:t.config ~policy:Seqdlm.Policy.seqdlm
    ?reliability ~replication:t.config.Config.replication
    ~n_servers:t.n_servers ~n_clients:(clients t) ()

let knobs t =
  let c = t.config in
  let open Obs.Json in
  Obj
    [
      ("n_servers", Int t.n_servers);
      ("writers", Int t.writers);
      ("readers", Int t.readers);
      ("ops_per_client", Int t.ops_per_client);
      ("xfer", Int t.xfer);
      ("pattern", Str (Workloads.Access.pattern_to_string t.pattern));
      ("stripe_count", Int t.stripe_count);
      ("stripe_size", Int (layout t).Layout.stripe_size);
      ("policy", Str "seqdlm");
      ("transport", Str (if t.fenced then "fenced" else "plain"));
      ("check", Str (if t.checked then "invariants" else "off"));
      ("batch_k", Int c.Config.batch_k);
      ("batch_delay", Float c.Config.batch_delay);
      ("replication", Int c.Config.replication);
      ("dirty_min", Int c.Config.dirty_min);
      ("dirty_max", Int c.Config.dirty_max);
      ("extent_log", Bool c.Config.extent_log);
      ("page", Int c.Config.page);
      ("think_span_s", Float think_span);
    ]
