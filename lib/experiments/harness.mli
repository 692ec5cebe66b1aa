(** Shared machinery of the experiment reproductions: build a cluster,
    drive a workload's access stream from every client, measure the
    paper's two phases — parallel IO (PIO: writes returning from the
    client cache) and flushing (F: the explicit drain at the end) — and
    aggregate the lock/IO instrumentation the figures plot. *)

type result = {
  pio : float;  (** seconds of the parallel-IO phase *)
  f : float;  (** seconds of the final flush phase *)
  bytes : int;  (** payload written during PIO *)
  bandwidth : float;  (** bytes / pio *)
  locking : float;  (** summed client lock-wait seconds *)
  cache_io : float;  (** summed client cache-insert seconds *)
  lock_stats : Seqdlm.Lock_server.stats;  (** summed over lock servers *)
  ops : int;  (** client operations during PIO *)
}

val pp_result : Format.formatter -> result -> unit

val run_streams :
  ?params:Netsim.Params.t -> ?config:Ccpfs.Config.t ->
  ?policy:Seqdlm.Policy.t -> ?mode:Seqdlm.Mode.t -> ?lock_whole_range:bool ->
  ?stripe_size:int -> servers:int -> stripes:int ->
  streams:(string * Workloads.Access.t list) array -> unit -> result
(** One client per stream element; each stream is (file path, ordered
    accesses).  Files are created with [stripes] stripes (N-N streams
    simply name distinct paths).  [mode] pins the write lock mode
    (microbenchmarks); otherwise Fig. 10 selection applies. *)

type spawn = int -> string -> (Ccpfs.Client.t -> unit) -> unit
(** [spawn i name body] runs [body] as a process on client [i], tracked
    as an application writer for PIO accounting. *)

(** {1 The measured pass}

    Every experiment measures a run the same way (§V): run the clients,
    take PIO as the time "the write performance that applications can
    see", then drain with a flush (F).  {!measure} is that one path; the
    figure reproductions reach it through {!run_custom}, the BENCH-row
    experiments ([scale], [shard], [load], [repl], [failover]) call it
    directly and describe only their workload and their row. *)

type 'a pass = {
  cluster : Ccpfs.Cluster.t;  (** the kept pass's cluster, quiesced *)
  pio : float;  (** simulated time the last tracked process finished *)
  f : float;  (** simulated seconds of the final drain after [pio] *)
  wall_s : float;
      (** host seconds of the whole call, both passes of a determinism
          double-run included *)
  run_id : int;  (** {!Obs.Hub.next_run_id} of the kept pass *)
  value : 'a;  (** what the setup's [finish] returned *)
}

val measure :
  ?params:Netsim.Params.t -> ?config:Ccpfs.Config.t ->
  ?policy:Seqdlm.Policy.t -> ?reliability:Netsim.Rpc.reliability ->
  ?replication:int -> name:string -> servers:int -> clients:int ->
  (Ccpfs.Cluster.t -> spawn -> unit -> 'a) -> 'a pass
(** [measure ~name ~servers ~clients setup] creates the cluster, attaches
    the {!Obs.Hub} trace sink, takes the run id, enables the metrics
    registry and, when [CCPFS_CHECK] asks for it, attaches the sanitizer.
    Then [setup cluster spawn] launches the workload — application
    processes through the tracked [spawn], daemons and injectors
    directly — and returns [finish].  The pass runs the engine until it
    quiesces, calls [finish ()] (before the drain: stop daemons there and
    collect what the workload measured), fsyncs every client, checks the
    lock-server invariants and, under [CCPFS_CHECK], sweeps the whole
    cluster.

    With the determinism check on, the pass runs twice under
    {!Check.Determinism.check} (named [name]) and the second pass is
    kept.  The call is timed on the host clock ([wall_s]); nothing else
    in the experiments reads it. *)

val run_custom :
  ?params:Netsim.Params.t -> ?config:Ccpfs.Config.t ->
  ?policy:Seqdlm.Policy.t -> servers:int -> clients:int ->
  (Ccpfs.Cluster.t -> spawn -> unit) ->
  (Ccpfs.Cluster.t -> result -> 'a) -> 'a
(** {!measure} for the figure reproductions: [setup] launches the
    application processes through the given tracked [spawn], and the
    pass's lock/IO totals become a {!result}, which is also appended to
    the {!Obs.Results} accumulator as one [BENCH_experiments.json] row.
    PIO ends when the last tracked process finishes — asynchronous
    flushing still in flight afterwards is charged to the F phase
    together with the final fsync drain, exactly like the paper's PIO/F
    split ("the write performance that applications can see"). *)

val scaled : scale:float -> int -> int
(** [scaled ~scale n] = max 1 (round (n·scale)). *)

val speedup : float -> float -> string
(** "[4.2x]" — convenience for table notes. *)
