(** Environment knobs: the one parser for every [CCPFS_*] variable.

    A value is trimmed before it is parsed, so [CCPFS_CHECK=" full"]
    means [full].  An unset variable, and a value [parse] rejects, yield
    [default]. *)

val env : string -> (string -> 'a option) -> default:'a -> 'a
(** [env key parse ~default]: [parse] the trimmed value of [key]; [None]
    falls back to [default].  [parse] sees [""] for an empty value and
    may raise to refuse a malformed one outright. *)

val env_int : ?min:int -> string -> default:int -> int
(** An integer of at least [min] (default 1). *)

val env_ints : string -> default:int list -> int list
(** A comma-separated list of positive integers; malformed or
    non-positive tokens are dropped, and [default] replaces a list with
    nothing left. *)

val env_floats : string -> default:float list -> float list
(** {!env_ints} for positive floats. *)
