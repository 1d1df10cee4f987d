(** Heuristic two-level (SOP) minimisation in the style of ESPRESSO.

    This is the substitute for Berkeley ESPRESSO used throughout the
    reproduction.  {!Dense} is the single-output minimiser: the
    classical EXPAND / IRREDUNDANT / REDUCE loop with every coverage
    question answered by per-minterm cover counts over the dense [2^n]
    space.  Conventional DC assignment — "assign each DC minterm to
    whatever minimises the SOP" — is exactly "cover the on-set, allowed
    to dip into the DC-set", which is what {!Dense.minimize} computes.
    {!Multi} is the multi-output variant with shared cubes, and {!Qm}
    the exact oracle the tests compare both against. *)

module Dense : sig
  (** Dense-set espresso over bit-vector on/dc sets: every coverage
      question answered in O(cube size) against the 2^n space.  The
      workhorse for the paper's n <= 12 benchmarks. *)

  (** [minimize ~n ~on ~dc] minimises the function with on-set [on]
      and DC-set [dc] given as characteristic vectors of length [2^n].
      @raise Invalid_argument on length mismatch or overlapping sets. *)
  val minimize :
    n:int -> on:Bitvec.Bv.t -> dc:Bitvec.Bv.t -> Twolevel.Cover.t
end

module Qm : sig
  (** Exact two-level minimisation: Quine-McCluskey prime generation
      plus branch-and-bound covering.  Exponential — a ground-truth
      oracle for small functions (n <= ~8 in practice). *)

  (** [primes ~n ~on ~dc] is the complete prime-implicant cover of the
      function with care set [on ∪ dc].
      @raise Invalid_argument when [n > 12]. *)
  val primes :
    n:int -> on:Bitvec.Bv.t -> dc:Bitvec.Bv.t -> Twolevel.Cover.t

  (** [minimize ~n ~on ~dc] is a minimum-cube-count cover of [on]
      (possibly dipping into [dc], never into the off-set). *)
  val minimize :
    n:int -> on:Bitvec.Bv.t -> dc:Bitvec.Bv.t -> Twolevel.Cover.t
end

module Multi : sig
  (** Multi-output espresso: product terms carry an output part and
      are shared across outputs, as in espresso's multiple-valued
      formulation — the way the paper's multi-output .pla benchmarks
      were actually minimised. *)

  (** A shared cube: [outputs] bit [o] set means the cube feeds
      output [o]. *)
  type mcube = { input : Twolevel.Cube.t; outputs : int }

  (** [minimize ~n ~ons ~dcs] jointly minimises all outputs; element
      [o] of the result arrays are output [o]'s on/DC sets.
      @raise Invalid_argument on inconsistent arrays. *)
  val minimize :
    n:int -> ons:Bitvec.Bv.t array -> dcs:Bitvec.Bv.t array -> mcube list

  (** [eval ~n cubes ~o ~m] evaluates output [o] on minterm [m]. *)
  val eval : n:int -> mcube list -> o:int -> m:int -> bool

  (** [cost ~n cubes] is (cube count, literal count incl. outputs). *)
  val cost : n:int -> mcube list -> int * int
end
