(** Drivers regenerating every table and figure of the paper's
    evaluation.  Each function returns structured rows; printers live
    in the benchmark harness.  Defaults are sized to finish in minutes
    on a laptop; pass the labelled parameters to reach the paper's
    full configurations (see DESIGN.md's experiment index). *)

(** {1 Table 1 — benchmark properties} *)

type t1_row = {
  t1_name : string;
  t1_ni : int;
  t1_no : int;
  t1_dc_pct : float;
  t1_ecf : float;  (** measured E[C^f] *)
  t1_cf : float;  (** measured C^f *)
  t1_paper_ecf : float;
  t1_paper_cf : float;
}

val table1 : unit -> t1_row list

(** {1 Figure 2 — SOP size vs complexity factor} *)

type fig2_point = {
  f2_target : float;
  f2_measured_cf : float;
  f2_sop : int;  (** minimised implicant count *)
}

(** Ten-input single-output fully specified functions across the
    complexity range, minimised by the espresso substrate.  Task [i]
    generates its function from the splittable stream keyed by
    [(seed, i)] {e inside} the parallel region, so the output is a
    pure function of [seed] at every job count. *)
val fig2 :
  ?targets:float list -> ?per_target:int -> seed:int -> unit ->
  fig2_point list

(** {1 The ranking-fraction sweep behind Figures 4 and 5} *)

type sweep_cell = {
  sw_error : float;
  sw_delay_mode : Techmap.Report.t;
  sw_power_mode : Techmap.Report.t;
}

type sweep_row = {
  sw_name : string;
  sw_fractions : float array;
  sw_cells : sweep_cell array;  (** one per fraction *)
}

(** The fraction grid {!sweep} uses by default:
    [[| 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 |]]. *)
val default_fractions : float array

(** [sweep_cell_of_spec spec fraction] computes one sweep cell — a
    pure function of its arguments, the unit of work of the sweep. *)
val sweep_cell_of_spec : Pla.Spec.t -> float -> sweep_cell

(** [sweep ()] synthesises every suite benchmark at each ranking
    fraction under both optimisation modes.  The heaviest call here;
    share its result between the Figure 4 and Figure 5 printers. *)
val sweep : ?fractions:float array -> ?names:string list -> unit -> sweep_row list

(** Figure 4 rows: per benchmark, error rate normalised by the
    fraction-0 (conventional) value. *)
val fig4_of_sweep : sweep_row list -> (string * float array) list

type fig5_stat = {
  f5_fraction : float;
  f5_mode : Techmap.Mapper.mode;
  f5_min : float * float * float;  (** (area, delay, power) minima *)
  f5_mean : float * float * float;
  f5_max : float * float * float;
}

(** Figure 5 rows: min/mean/max normalised area, delay, power across
    benchmarks, per fraction and mode. *)
val fig5_of_sweep : sweep_row list -> fig5_stat list

(** {1 Figure 6 — area vs error trajectories by C^f family} *)

type fig6_point = { f6_fraction : float; f6_area : float; f6_error : float }

type fig6_family = { f6_cf : float; f6_points : fig6_point list }

(** Synthetic 11-input/11-output functions, 60% DC, one trajectory per
    complexity-factor family (normalised to the fraction-0 corner,
    averaged over [funcs_per_family] functions).  Function [i] is
    generated from the splittable stream keyed by [(seed, i)] inside
    its own parallel task, so the output is a pure function of [seed]
    at every job count. *)
val fig6 :
  ?families:float list ->
  ?funcs_per_family:int ->
  ?fractions:float list ->
  ?ni:int ->
  ?no:int ->
  seed:int ->
  unit ->
  fig6_family list

(** {1 Table 2 — LC^f-based vs ranking-based vs complete} *)

type t2_row = {
  t2_name : string;
  t2_cf : float;
  t2_lcf_area : float;  (** area improvement %, negative = overhead *)
  t2_lcf_er : float;  (** error-rate improvement % *)
  t2_rank_area : float;
  t2_rank_er : float;
  t2_comp_area : float;
  t2_comp_er : float;
}

(** [table2 ()] compares the three reliability strategies against the
    conventional baseline under area-oriented mapping, with the
    ranking fraction budget-matched to the LC^f assignment (the
    paper's protocol). *)
val table2 : ?threshold:float -> ?names:string list -> unit -> t2_row list

(** {1 Table 3 — min-max reliability estimates} *)

type t3_row = {
  t3_name : string;
  t3_gates : int;
  t3_exact : float * float;
  t3_signal : float * float;
  t3_border : float * float;
  t3_conv_rate : float;
  t3_conv_diff : float;  (** % above the exact minimum *)
  t3_lcf_rate : float;
  t3_lcf_diff : float;
}

val table3 : ?threshold:float -> ?names:string list -> unit -> t3_row list

(** {1 Ablations beyond the paper} *)

(** LC^f threshold sweep on one benchmark: (threshold, area
    improvement %, error improvement %). *)
val ablation_threshold :
  ?thresholds:float list -> name:string -> unit -> (float * float * float) list

(** Poisson vs binomial neighbour model across the suite:
    (name, poisson interval, binomial interval, exact bounds). *)
val ablation_neighbour_model :
  ?names:string list -> unit ->
  (string * (float * float) * (float * float) * (float * float)) list

(** Effect of AIG balancing on delay: (name, delay with balance,
    delay without), delay-mode mapping of the conventional baseline. *)
val ablation_balance : ?names:string list -> unit -> (string * float * float) list

(** Internal-node masking from nodal decomposition (Section 4):
    (name, internal error rate before, after LC^f reassignment). *)
val nodal_decomposition :
  ?threshold:float -> ?names:string list -> unit -> (string * float * float) list

(** Shared-cube (multi-output espresso) vs per-output minimisation:
    (name, single-output area, shared area, single cube total, shared
    cube total), conventional strategy, area-mode mapping. *)
val ablation_sharing :
  ?names:string list -> unit -> (string * float * float * int * int) list

(** Multi-bit error ablation: does single-bit-tuned assignment still
    help under k-bit errors?  Rows: (name, k, conventional rate,
    complete-reliability rate, improvement %). *)
val ablation_multibit :
  ?ks:int list -> ?names:string list -> unit ->
  (string * int * float * float * float) list

(** Flat-SOP vs algebraically factored AIG construction:
    (name, flat area, factored area, flat AIG nodes, factored nodes),
    conventional strategy, area-mode mapping. *)
val ablation_factoring :
  ?names:string list -> unit -> (string * float * float * int * int) list

(** Nodal decomposition at LUT ("renode") granularity: coarser nodes
    expose larger local DC spaces than mapped cells.  Rows:
    (name, luts, luts with local DCs, internal rate before, after). *)
val nodal_renode :
  ?threshold:float -> ?k:int -> ?names:string list -> unit ->
  (string * int * int * float * float) list

(** Satisfiability-only vs observability-aware nodal reassignment:
    (name, internal rate baseline, after SDC-only, after ODC). *)
val nodal_odc :
  ?threshold:float -> ?names:string list -> unit ->
  (string * float * float * float) list
