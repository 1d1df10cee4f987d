(** Static linting of incompletely specified functions.

    Two entry points: {!lint} performs the semantic checks any
    {!Pla.Spec.t} supports (unused inputs, constant / free / duplicate
    outputs, DC-density statistics); {!lint_pla} additionally sees the
    raw product terms of a parsed .pla file and so can report what the
    dense spec has already resolved away — on/off-set overlap between
    terms (an error: the function is inconsistent), contradictory
    care/DC assertions, and duplicate term lines.

    The input-dependence and duplicate-output scans run on
    {!Pla.Spec.phase_planes} through {!Bitvec.Bv.Kernel}; the tests
    check them against per-minterm {!Pla.Spec.get} probes. *)

(** [unused_inputs spec] is the ascending list of input variables no
    output depends on (phases included: an input that only reshuffles
    DC minterms still counts as used). *)
val unused_inputs : Pla.Spec.t -> int list

(** [lint spec] is the semantic diagnostics of [spec]. *)
val lint : Pla.Spec.t -> Diag.t list

(** [overlap_errors pla] is just the on/off-set overlap errors of
    [pla] — the cheap consistency gate {!Rdca_flow.Flow} runs before
    accepting a specification, without the full lint cost. *)
val overlap_errors : Pla.t -> Diag.t list

(** [lint_pla pla] is [lint pla.spec] plus the term-level checks. *)
val lint_pla : Pla.t -> Diag.t list
