(** The paper's DC assignment algorithms.

    All functions return a fresh spec; the input is never mutated.
    Assignment decisions use the *original* neighbour counts (the
    algorithms in the paper's Figures 3 and 7 rank/filter first, then
    assign, without re-ranking). *)

(** [ranking ~fraction spec] — Figure 3.  Per output: rank the
    non-zero-weight DC minterms by decreasing weight and assign the
    first [fraction] of the list to their majority phase; the rest of
    the DCs stay unassigned for later conventional optimisation.
    @raise Invalid_argument unless [0. <= fraction <= 1.]. *)
val ranking : fraction:float -> Pla.Spec.t -> Pla.Spec.t

(** [by_complexity ~threshold spec] — Figure 7.  Per output: assign
    every DC minterm whose local complexity factor is below
    [threshold] to its majority phase (ties assign to 0, following the
    figure's [else x <- 0] branch); others stay DC.  The paper
    recommends thresholds in [0.45, 0.65]. *)
val by_complexity : threshold:float -> Pla.Spec.t -> Pla.Spec.t

(** [complete spec] assigns {e every} DC for reliability: majority
    phase where one exists, the Figure 3 rule leaving only exact ties
    unassigned ([ranking ~fraction:1.]). *)
val complete : Pla.Spec.t -> Pla.Spec.t

(** [assigned_dc_fraction ~before ~after] is the fraction of [before]'s
    DC minterms no longer DC in [after] (for matching assignment
    budgets between algorithms, as Table 2 does). *)
val assigned_dc_fraction : before:Pla.Spec.t -> after:Pla.Spec.t -> float

(** [ranking_matching_budget ~reference spec] runs {!ranking} with the
    fraction chosen so that the number of DCs assigned matches (as
    closely as possible) the number [reference] assigned relative to
    [spec] — the paper's Table 2 comparison protocol. *)
val ranking_matching_budget :
  reference:Pla.Spec.t -> Pla.Spec.t -> Pla.Spec.t
