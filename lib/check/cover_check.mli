(** Static verification of synthesized SOP covers against their spec.

    A cover produced for output [o] of a spec is correct when it
    contains every on-set minterm and no off-set minterm (DC minterms
    may fall either way).  {!check_cover} proves both properties by
    dense bit-set algebra over the spec's phase planes (fused
    {!Bitvec.Bv.Kernel} popcounts) and additionally flags redundant
    structure: cubes contained in a single other cube, and cubes
    covered by the rest of the cover plus the DC-set. *)

(** [(uncovered_on, off_hits)]: on-set minterms the cover misses, and
    off-set minterms it wrongly contains. *)
val coverage_counts :
  spec:Pla.Spec.t -> o:int -> Twolevel.Cover.t -> int * int

(** The scalar reference implementation of {!coverage_counts}, a
    [Cover.eval] sweep: the oracle the differential tests compare
    against. *)
val coverage_counts_scalar :
  spec:Pla.Spec.t -> o:int -> Twolevel.Cover.t -> int * int

(** [check_cover ~spec ~o cover] is the diagnostics for one output's
    cover: [uncovered-onset] / [offset-hit] errors (with example
    minterms and the offending cube indices), [contained-cube] and
    [redundant-cube] warnings, plus an arity-mismatch error when the
    cover's input count differs from the spec's.  The redundancy
    passes behind the warnings cost one cover expansion per cube. *)
val check_cover :
  spec:Pla.Spec.t -> o:int -> Twolevel.Cover.t -> Diag.t list

(** [check_covers ~spec covers] runs {!check_cover} for every output
    (covers listed in output order) as a parallel map over the worker
    pool, diagnostics concatenated in output order.
    @raise Invalid_argument when the list length differs from the
    spec's output count. *)
val check_covers : spec:Pla.Spec.t -> Twolevel.Cover.t list -> Diag.t list
