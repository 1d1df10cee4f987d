(** Berkeley .pla format reading and writing.

    Supports the espresso dialect the MCNC benchmarks use: [.i], [.o],
    [.p], [.ilb], [.ob], [.type fd|fr|fdr|f], product-term lines with
    input characters [0 1 - 2] and output characters [0 1 - ~ 2 4], and
    [.e]/[.end].  Semantics follow espresso:

    - type [fd] (default): output '1' adds to the on-set, '-' to the
      DC-set, '0' means "no information" (off by default);
    - type [fr]: '1' on-set, '0' off-set, '-' no information;
    - type [fdr]: '1' on, '0' off, '-' DC — fully explicit;
    - type [f]: '1' on, everything else off.

    Anything not mentioned by any product term defaults to the off-set
    ([fd], [f]), to the DC-set ([fr] — unspecified minterms are free),
    or is an error to leave unmentioned for [fdr] (we default to off).

    Two readers share one scanner, so they accept the same text and
    report the same errors: {!parse_string} expands the terms into a
    dense {!Spec.t} ([.i <= 20]), {!parse_string_covers} keeps them as
    cubes ([.i <= 61]); besides that limit, only their results and
    how overlapping terms resolve differ. *)

module Spec = Spec

type pla_type = F | Fd | Fr | Fdr

(** A raw product term as it appeared in the source text: the input
    cube, the verbatim output-character column and the 1-based source
    position — the unit the {!Check} spec linter reasons about (the
    dense {!Spec.t} has already resolved every term, so duplicate or
    contradictory lines are invisible there).  [col] is the 1-based
    column of the input cube, [out_col] of the output field (0 when the
    term had no separate output token). *)
type term = {
  input : Twolevel.Cube.t;
  output_chars : string;
  line : int;
  col : int;
  out_col : int;
}

(** A minterm that two product terms drive to contradictory phases.
    [first] is the phase already recorded, [second] the later one; the
    parser keeps espresso's last-write-wins resolution and records the
    contradiction here (at most one per (output, minterm) pair). *)
type conflict = {
  c_output : int;
  c_minterm : int;
  c_first : Spec.phase;
  c_second : Spec.phase;
  c_line : int;  (** source line of the second, conflicting term *)
  c_col : int;
      (** 1-based column of the conflicting output character on that
          line (0 when unknown) *)
}

type t = {
  spec : Spec.t;
  input_names : string array;
  output_names : string array;
  ty : pla_type;
  terms : term list;  (** raw product terms in source order *)
  conflicts : conflict list;  (** contradictory explicit phases, source order *)
}

exception Parse_error of string

(** [parse_string s] parses .pla text. @raise Parse_error on bad input. *)
val parse_string : string -> t

(** [parse_file path] reads and parses a file.
    @raise Parse_error on bad input, [Sys_error] on I/O failure. *)
val parse_file : string -> t

(** Exception-free variants: [Error msg] instead of {!Parse_error} /
    [Sys_error].  The entry points hardened flows should use. *)
val parse_string_res : string -> (t, string) result

val parse_file_res : string -> (t, string) result

(** {1 Cover-level parsing — the scalable loader}

    Product terms kept as cubes, never expanded into a dense table, so
    files up to the cube representation's [n <= 61] load in memory
    proportional to their text.  Phase precedence on overlapping cubes
    follows espresso's set view (the on-set wins overlaps, the type's
    default phase is the complement) instead of the dense parser's
    textual last-write-wins. *)

(** One output's explicit phase covers; the third phase is the
    complement of their union. *)
type cover_sets =
  | Fd_sets of { on : Twolevel.Cover.t; dc : Twolevel.Cover.t }
      (** types [f]/[fd]/[fdr]: off is everything else ([f] has an
          empty DC cover; [fdr]'s explicit off cubes are dropped as
          restating the default) *)
  | Fr_sets of { on : Twolevel.Cover.t; off : Twolevel.Cover.t }
      (** type [fr]: DC is everything else *)

type cover_file = {
  cf_ni : int;
  cf_outputs : cover_sets list;
  cf_input_names : string array;
  cf_output_names : string array;
  cf_ty : pla_type;
}

(** [parse_string_covers s] parses .pla text at the cube level.
    @raise Parse_error on bad input or [.i > 61]. *)
val parse_string_covers : string -> cover_file

(** [parse_file_covers path] reads and parses a file at the cube
    level.  @raise Parse_error on bad input, [Sys_error] on I/O. *)
val parse_file_covers : string -> cover_file

val parse_string_covers_res : string -> (cover_file, string) result

val parse_file_covers_res : string -> (cover_file, string) result

(** [to_string ?ty t] renders a spec; by default type [fdr], writing
    one product line per care/DC minterm group using per-output covers
    compressed with single-cube containment only (exact, not
    minimised). *)
val to_string : ?ty:pla_type -> Spec.t -> string

(** [write_file path spec] writes [to_string spec] to [path]. *)
val write_file : string -> Spec.t -> unit

(** [default_names ~ni ~no] are names [x0..] / [y0..]. *)
val default_names : ni:int -> no:int -> string array * string array

(** [to_string_covers ~ni covers] renders per-output (on, dc) cover
    pairs as a compact cube-level [.type fd] PLA — the natural format
    after minimisation (one line per cube instead of one per minterm).
    @raise Invalid_argument on arity mismatch or empty list. *)
val to_string_covers :
  ni:int -> (Twolevel.Cover.t * Twolevel.Cover.t) list -> string
