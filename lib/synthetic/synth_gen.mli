(** Synthetic benchmark generation (Section 2.2 of the paper).

    Completely random functions ("flipping a three-sided coin for each
    minterm") land at the expected complexity factor
    [E[C^f] = f0^2 + f1^2 + fdc^2]; published benchmarks are more
    structured.  This generator reproduces the paper's "designated
    complexity factor" method observably: phase counts are fixed by the
    requested signal probabilities, a clustered (cube-aligned) or
    random seed is chosen depending on the target, and a
    simulated-annealing swap search drives the measured [C^f] to the
    target while preserving the phase counts exactly. *)

(** Generation parameters for one output. *)
type params = {
  ni : int;
  on_count : int;
  off_count : int;  (** [dc = 2^ni - on - off] *)
  target_cf : float option;  (** [None]: plain three-sided coin *)
  tolerance : float;  (** acceptable |measured - target| (e.g. 0.01) *)
  max_steps : int;  (** annealing budget (e.g. 200_000) *)
}

(** [default_params ~ni ~dc_frac ~target_cf] splits the care space
    evenly between on and off and uses tolerance 0.01 with a budget
    scaled to the space size. *)
val default_params : ni:int -> dc_frac:float -> target_cf:float option -> params

(** [output ~rng p] generates one output table as a spec with one
    output. *)
val output : rng:Random.State.t -> params -> Pla.Spec.t

(** [spec ~rng ~no p] stacks [no] independently generated outputs. *)
val spec : rng:Random.State.t -> no:int -> params -> Pla.Spec.t

(** [random_spec ~rng ~ni ~no ~f1 ~f0] is the plain three-sided coin
    (per-minterm independent draws; counts are not exact). *)
val random_spec :
  rng:Random.State.t -> ni:int -> no:int -> f1:float -> f0:float -> Pla.Spec.t

(** {1 Cover-level generation — the n > 20 regime}

    Cube-list specifications for sizes the dense table cannot hold,
    feeding the symbolic and sampled analysis backends. *)

(** [random_cover ~rng ~ni ~cubes ~lit_prob] is [cubes] random cubes,
    each variable fixed (to a uniform polarity) with probability
    [lit_prob] and free otherwise. *)
val random_cover :
  rng:Random.State.t ->
  ni:int ->
  cubes:int ->
  lit_prob:float ->
  Twolevel.Cover.t

(** [random_cover_sets ~rng ~ni ~no ~on_cubes ~dc_cubes ~lit_prob] is
    [no] independent fd-style outputs (on wins overlaps, off is the
    rest), ready for [Analysis.of_cover_sets].
    @raise Invalid_argument unless [1 <= ni <= 61] and [no > 0]. *)
val random_cover_sets :
  rng:Random.State.t ->
  ni:int ->
  no:int ->
  on_cubes:int ->
  dc_cubes:int ->
  lit_prob:float ->
  Pla.cover_sets list
