(** Static verification and lint for specs, covers and netlists.

    The reproduction's premise is that don't-care assignment changes
    the implemented function {e without} changing the cared-about
    behaviour.  This subsystem proves that statically at every stage:
    {!Spec_lint} validates the incompletely specified function itself,
    {!Cover_check} that a synthesized SOP covers the on-set and misses
    the off-set, and {!Netlist_check} that the mapped netlist is
    structurally sound and agrees with the spec on its care set.
    Everything reports through the {!Diag} diagnostic framework
    (severities, structured locations, text and JSON emitters).

    See DESIGN.md section 10 for the taxonomy and the kernel-vs-BDD
    equivalence strategy. *)

module Diag = Diag
module Spec_lint = Spec_lint
module Cover_check = Cover_check
module Netlist_check = Netlist_check

(** [implementation ~spec ~covers nl] is the post-synthesis audit:
    {!Cover_check.check_covers} of the synthesized [covers], then
    {!Netlist_check.check} and {!Netlist_check.equiv_spec} of the
    mapped netlist [nl], all against [spec]'s care sets.  [spec] should
    be the {e original} specification: DC assignment may legally move
    DC minterms either way, so checking against the original proves the
    cared-about behaviour survived the whole flow.  The spec itself is
    not linted here: callers lint first, at the level their input
    allows ({!Spec_lint.lint_pla} on a parsed .pla, {!Spec_lint.lint}
    otherwise). *)
val implementation :
  ?equiv:Netlist_check.equiv_engine ->
  spec:Pla.Spec.t ->
  covers:Twolevel.Cover.t list ->
  Netlist.t ->
  Diag.t list
