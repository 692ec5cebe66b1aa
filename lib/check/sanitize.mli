(** Front end of the protocol sanitizer.

    Two independent switches, settable programmatically (the CLI's
    [--check] flag) or through the [CCPFS_CHECK] environment variable
    (any value enables the invariant layer; ["full"]/["all"] also enable
    the determinism double-run — how the [@sanitize] dune alias runs the
    test suites):

    - {e invariants}: wire {!Invariant} into every lock-server transition
      and every client-cache mutation, and turn engine stalls into
      wait-for-graph {!Deadlock} reports;
    - {e determinism}: harnesses additionally execute each scenario twice
      and compare event-stream fingerprints. *)

open Ccpfs

val enable_invariants : unit -> unit
val enable_all : unit -> unit
val enabled : unit -> bool
val determinism_enabled : unit -> bool

val attach_server : Seqdlm.Lock_server.t -> unit
(** Install the invariant validator ({!Invariant.check_server}, the
    incremental check) and the SN-monotonicity monitor. *)

val with_server_check : (Seqdlm.Lock_server.t -> unit) -> (unit -> 'a) -> 'a
(** [with_server_check check f] runs [f] with [check] as the validator
    that every {!attach_server} in its extent installs — how the
    differential test runs the incremental check and the full sweep side
    by side through unmodified harnesses. *)

val attach_cluster : Cluster.t -> unit
(** [attach_server] on every lock server, plus cache audits on every
    client. *)

val check_ownership : Cluster.t -> unit
(** Shard-ownership exclusivity (DESIGN.md §15): raises {!Violation.Violation}
    if any server holds grants or queued waiters for a resource the
    shard map assigns to a different server. *)

val check_cluster : Cluster.t -> unit
(** One full sweep: Table II cross-check, all server invariants
    ({!Invariant.check_server_full}),
    shard-ownership exclusivity, all client cache-coverage checks.
    Useful at quiescence even when the per-transition hooks were not
    attached. *)

val run_cluster : ?until:float -> Cluster.t -> unit
(** [Cluster.run] but an engine deadlock is re-raised as
    {!Deadlock.Deadlock_found} with the analyzed wait-for graph. *)
