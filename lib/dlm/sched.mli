(** The queue scheduler of one lock resource (§II-A, §III): the FIFO
    wait queue and its indexes, the change log behind incremental passes,
    and the visit that decides one waiter (DESIGN.md §10).  The lock
    server owns the granted set and applies each decision. *)

open Ccpfs_util

(** Per-client counts, hashed on the id itself. *)
module Client_tbl : Hashtbl.S with type key = Types.client_id

type lock = {
  id : int;
  client : Types.client_id;
  mutable mode : Mode.t;
  ranges : Interval.t list;
  hull : Interval.t;
  sn : int;
  mutable state : Lcm.lock_state;
  mutable revoke_sent : bool;
  seq : int;  (** insertion stamp: queries return the highest first *)
}
(** A granted lock, as the server keeps it and a visit reads it. *)

(** The accumulator of a walk: the waiters visited so far, by mode, or
    saturated once one of them blocks every request.  Immutable. *)
module Blocked : sig
  type t

  val empty : t
  val add : t -> Mode.t -> Interval.t list -> t
  val saturated : t -> bool
  val equal : t -> t -> bool
end

val overlapping :
  lock Interval_index.t -> Interval.t list -> keep:(lock -> bool) -> lock list
(** The locks whose hull overlaps the ranges and that satisfy [keep],
    newest first. *)

type decision =
  | Skip
  | Grant of { own : lock list; early : bool }
  | Block of { revoke : lock list; all_canceling : bool }

type outcome = {
  decision : decision;
  eff : Mode.t;
  acc : Blocked.t;
  read : Interval.t option;  (** the hull of the queries it made *)
}

val visit :
  convert:bool -> Types.request ->
  Blocked.t -> lock Interval_index.t -> grants:int -> Mode.t -> outcome
(** [visit ~convert req acc granted ~grants eff] decides one waiter.  It
    changes nothing, and besides its static parameters (the conversion
    switch and the immutable request) it reads exactly its four
    arguments: the accumulator, the granted set (a persistent value),
    the client's grant count and the waiter's effective mode. *)

type waiter = private {
  req : Types.request;
  reply : Types.lock_reply -> unit;
  mutable eff_mode : Mode.t;
  enq_time : float;
  mutable acks_time : float option;  (** conflicts first all CANCELING *)
  internal : bool;  (** sync_resource pseudo-request *)
  wseq : int;  (** enqueue stamp *)
  mutable after : Blocked.t;
  mutable read : Interval.t option;
}

type t

(** What a walk needs of the lock server. *)
type env = {
  convert : bool;
  granted : unit -> lock Interval_index.t;
  by_client : int Client_tbl.t;  (** grants per client *)
  now : unit -> float;
  grant : waiter -> own:lock list -> early:bool -> unit;  (** once unlinked *)
  revoke : waiter -> lock -> unit;
}

val create : unit -> t
val enqueue :
  t -> Types.request -> reply:(Types.lock_reply -> unit) -> internal:bool ->
  now:float -> unit

val record : t -> pos:int -> Interval.t -> Types.client_id -> unit
(** A lock over the hull, held by the client, changed in the visit
    stamped [pos] ([max_int]: a control message). *)

val reset : t -> unit
(** Invalidate every snapshot: the next pass walks the whole queue. *)

val process : t -> env -> unit
(** Pass over the queue until a pass grants nothing. *)

val first_queued_from : t -> Mode.t -> int -> int option
(** The lowest hull start at or above the offset among the waiters whose
    mode conflicts with [mode]. *)

val conflicts_queued : t -> Mode.t -> Interval.t list -> bool
val length : t -> int
val to_list : t -> waiter list
val last_values : t -> int -> waiter list
val check_invariants : t -> unit
(** The indexes match the live queue, stamps ascend along it, and the
    first waiter stamped above the snapshot frontier is the one a pass
    with nothing pending starts from. *)
