(** Machine-readable results: the [BENCH_*.json] documents.

    {!write} writes the rows it is given.  The accumulator serves the
    figure reproductions, whose harness appends one row per measured run
    that the CLI / bench drivers write out once at the end as
    [BENCH_experiments.json].  Rows are arbitrary JSON objects — the
    schemas actually emitted are documented in EXPERIMENTS.md
    ("Machine-readable results"). *)

val add : Json.t -> unit
(** Append a row (callers pass a [Json.Obj]). *)

val count : unit -> int

val rows : unit -> Json.t list
(** The accumulated rows, oldest first. *)

val clear : unit -> unit

val write : ?append:bool -> schema:string -> path:string -> Json.t list -> int
(** Write [rows] to [path] as
    [{"schema": schema, "generated_by": ..., "results": rows}]; returns
    the number of rows in the file.  With [append] (default false), rows
    already in [path] are kept: if the file exists and parses as a
    document of the same schema, its rows come first and [rows] are
    appended — how repeated experiment, fuzz and CI invocations
    accumulate one results file.  A missing, unparsable or
    different-schema file is simply overwritten. *)
