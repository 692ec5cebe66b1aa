(** Mutable doubly-linked FIFO deque with O(1) append, O(1) removal of
    any node, and O(1) length — the lock server's per-resource wait
    queue.  [push_back] returns the node; holding it allows removal from
    the middle of the queue without scanning (a waiter granted out of
    FIFO position by range parallelism).  A removed node stays
    identifiable via {!active}, so an in-place walk can skip entries
    removed by re-entrant mutation. *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> 'a node
(** Append at the tail; O(1). *)

val remove : 'a t -> 'a node -> unit
(** Unlink a node; O(1).  Raises [Invalid_argument] if already removed.
    The removed node keeps its forward link (see {!succ}). *)

val value : 'a node -> 'a
val active : 'a node -> bool

val first_node : 'a t -> 'a node option
(** The head node, if any; O(1). *)

val succ : 'a node -> 'a node option
(** The node that followed [n] when [n] was last linked.  Because
    {!remove} preserves the forward link, an in-place walk holding [n]
    survives removal of [n] (by the loop body or re-entrantly): [succ]
    still leads back into the live chain.  Check {!active} before using
    a node reached this way. *)

val pred : 'a node -> 'a node option
(** The node before a live node; [None] for the head and for a removed
    node. *)

val last_values : 'a t -> int -> 'a list
(** The last [n] values (all of them if fewer), head-to-tail; O(n). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Head-to-tail; safe against removal of the current node by [f]. *)

val fold : ('b -> 'a -> 'b) -> 'a t -> 'b -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list

val check_invariants : 'a t -> unit
