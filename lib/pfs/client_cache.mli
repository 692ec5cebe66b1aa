(** The client-side data cache (§IV-A, Fig. 14).

    Dirty data is kept per lock resource (stripe) as SN-tagged extents;
    inserting data with a larger SN overwrites overlapping older data, so
    the cache stays coherent under early grant even while older locks'
    flushes are still in flight.  Flushing a lock sends the dirty extents
    under the lock's ranges in one batched RPC carrying per-block SNs; the
    extents leave the cache at send time (new writes land fresh and the
    server's SN merge orders everything).

    Durability best-effort (§IV-C1): a daemon voluntarily flushes once
    dirty bytes exceed [dirty_min]; writers block on [dirty_max]. *)

type t

val create :
  ?view:Netsim.Rpc.View.t -> Dessim.Engine.t -> Netsim.Params.t -> Config.t ->
  node:Netsim.Node.t -> client_id:int ->
  io_route:(int -> (Data_server.io_req, Data_server.io_resp) Netsim.Rpc.endpoint) ->
  t
(** [io_route rid] is the IO endpoint of the data server storing that
    stripe.  Starts the flush daemon.

    Flush RPCs go out on [view]'s transport (default: a plain view).
    Under a retry policy ({!Netsim.Rpc.View.create}[ ~reliability]) a
    Write_flush is fenced by the client's epochs and survives a
    data-server outage: retransmitted until acknowledged, deduplicated
    server-side. *)

val set_ctl_source : t -> (rid:int -> Seqdlm.Types.ctl_msg list) -> unit
(** Piggybacking (DESIGN.md §13): before each flush RPC the cache asks
    this callback for the lock-control messages pending for the stripe's
    server and attaches them to the Write_flush (their bytes are added to
    the wire size).  Installed by {!Client} when the policy piggybacks
    releases ([Policy.piggyback_release], SeqDLM). *)

val write :
  t -> rid:int -> range:Ccpfs_util.Interval.t -> sn:int -> op:int -> unit
(** Insert dirty data written under a lock with sequence number [sn];
    costs [length / b_mem] of the node's memory pipe and blocks while the
    cache is at [dirty_max]. *)

val flush : t -> rid:int -> ranges:Ccpfs_util.Interval.t list -> unit
(** Flush dirty extents under the ranges; blocks until the data server
    acknowledged.  No-op if nothing is dirty there. *)

val flush_all : t -> unit
(** fsync: flush every dirty extent of every stripe. *)

val has_dirty : t -> rid:int -> ranges:Ccpfs_util.Interval.t list -> bool

val local_view :
  t -> rid:int -> range:Ccpfs_util.Interval.t ->
  (Ccpfs_util.Interval.t * Ccpfs_util.Content.tag) list
(** Dirty extents overlapping the range (read-your-writes overlay). *)

(** {1 Clean (read) cache}

    Data fetched from data servers is cached under the protection of the
    read-capable lock that covered the fetch ("data can be cached in
    clients under the protection of the cached locks", §I); the lock
    client invalidates it when that protection lapses. *)

val store_clean :
  t -> rid:int ->
  (Ccpfs_util.Interval.t * Ccpfs_util.Content.tag option) list -> unit
(** Remember fetched segments (holes included, so known-empty ranges do
    not refetch). *)

val clean_covers : t -> rid:int -> range:Ccpfs_util.Interval.t -> bool

val clean_view :
  t -> rid:int -> range:Ccpfs_util.Interval.t ->
  (Ccpfs_util.Interval.t * Ccpfs_util.Content.tag option) list
(** Cached segments over the range, clipped, in offset order. *)

val invalidate_clean :
  t -> rid:int -> ranges:Ccpfs_util.Interval.t list -> unit

val clean_bytes : t -> int
val read_cache_hits : t -> int
val read_cache_misses : t -> int

val dirty_bytes : t -> int
val dirty_peak : t -> int
val cache_write_seconds : t -> float
(** Virtual time spent inserting into the cache — the "IO time" of the
    locking/IO ratio in Fig. 18(b). *)

val bytes_flushed : t -> int
val flush_rpcs : t -> int
val drop_clean : t -> rid:int -> range:Ccpfs_util.Interval.t -> unit
(** Discard dirty extents without flushing (truncate support). *)

val lose_all_dirty : t -> int
(** Client crash (§IV-C1): every dirty byte vanishes.  Returns how many
    were lost. *)

(** {1 Sanitizer hooks} *)

val dirty_view :
  t -> (int * (Ccpfs_util.Interval.t * Ccpfs_util.Content.tag) list) list
(** Every stripe with dirty extents, ascending by rid, extents in offset
    order — the sanitizer checks these against the client's cached lock
    ranges. *)

val set_audit : t -> (rid:int -> unit) -> unit
(** Install a callback invoked after every dirty-cache mutation by
    [write], with the stripe that changed. *)

val set_write_observer :
  t -> (rid:int -> range:Ccpfs_util.Interval.t -> sn:int -> op:int -> unit) ->
  unit
(** Install a callback invoked on every dirty insert with the written
    object range and its provenance (the lock's SN and the writer's op
    counter) — the fuzzer's journal of what was semantically written,
    independent of when it is flushed. *)

val client_id : t -> int
