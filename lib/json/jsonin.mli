(** Minimal JSON parser, the read half of {!Jsonout}.

    Accepts standard JSON (RFC 8259) and produces {!Jsonout.t} values.
    Numbers without a fraction or exponent parse as [Int] (falling back
    to [Float] on overflow), everything else as [Float] — the exact
    inverse of {!Jsonout}'s emitter, so values round-trip bit-identically:
    [parse (Jsonout.to_string v) = Ok v] for every [v] the emitter can
    produce (floats print with 17 significant digits and re-read to the
    same double).  perfbench's self-test reads the benchmark's JSON
    records with it. *)

val parse : string -> (Jsonout.t, string) result
(** [parse s] parses one JSON value (surrounding whitespace allowed).
    Trailing garbage after the value is an error.  Error strings carry
    a byte offset. *)

val parse_file : string -> (Jsonout.t, string) result
(** [parse_file path] reads and parses [path]; I/O failures are
    reported as [Error] too. *)

(** {1 Accessors}

    Small total helpers for picking structures apart; all return
    [option] rather than raising. *)

val member : string -> Jsonout.t -> Jsonout.t option
(** [member k v] is the value bound to key [k] if [v] is an object. *)

val to_int : Jsonout.t -> int option
val to_float : Jsonout.t -> float option
(** [to_float] accepts [Int] too (exact conversion). *)

val to_string : Jsonout.t -> string option
val to_bool : Jsonout.t -> bool option
val to_list : Jsonout.t -> Jsonout.t list option
