(** Redundancy removal from untestable stuck-at faults.

    An untestable fault is an equivalence proof: no input vector
    distinguishes the faulty circuit from the healthy one, so pinning
    that line to its stuck value preserves every output function —
    care set and don't-care set alike.  Removal therefore substitutes
    the constant on the faulty line and constant-propagates: gates
    absorb or drop constant fanins ([And] with a 0 becomes the
    constant, with a 1 drops the pin; [Xor] folds parity; [Cell]
    tables cofactor down), and the netlist is rebuilt over the cone of
    the outputs so dead logic disappears.

    Soundness requires one fault at a time: two individually
    untestable faults need not be {e simultaneously} redundant (the
    second proof is relative to the unmodified circuit).  The loop
    applies the first untestable class in canonical order, re-analyses
    the rewritten netlist, and repeats to a fixpoint.  Each applied
    rewrite removes at least one pin, so termination is structural.
    Callers wanting an end-to-end guarantee re-check the result with
    [Netlist_check.equiv_spec] (see [Flow.remove_redundant_checked]). *)

type result = {
  netlist : Netlist.t;
      (** the rewritten netlist (a fresh copy even when nothing was
          removed) *)
  removed : Fault.t list;
      (** applied redundancies in application order; each is relative
          to the netlist of its own iteration, ids shift as gates
          vanish *)
  iterations : int;  (** analysis passes, including the final clean one *)
  gates_before : int;
  gates_after : int;
  final_report : Engine.report;  (** the fixpoint analysis *)
}

val apply : Netlist.t -> Fault.t -> Netlist.t
(** [apply nl f] rebuilds [nl] with the faulty line of [f] pinned to
    its stuck value and constants propagated.  Only sound when [f] is
    untestable. *)

val remove :
  ?config:Engine.config ->
  ?max_iterations:int ->
  Netlist.t ->
  result
(** Iterate analyse-and-apply to a fixpoint (or [max_iterations],
    default 64). *)
