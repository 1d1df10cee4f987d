(** Covers: sets of cubes representing single-output Boolean functions.

    A cover is the OR of its cubes over a fixed input count [n].  This
    module holds covers as data: construction, evaluation, dense
    conversion and the single-cube-containment filter.  Coverage
    questions are answered densely: over {!to_bv} bit-vectors here,
    and by per-minterm cover counts inside the espresso minimisers. *)

type t

(** [make ~n cubes] builds a cover over [n] inputs. *)
val make : n:int -> Cube.t list -> t

(** [n t] is the number of input variables. *)
val n : t -> int

(** [cubes t] is the cube list (order unspecified but stable). *)
val cubes : t -> Cube.t list

(** [size t] is the number of cubes. *)
val size : t -> int

(** [literal_count t] is the total number of specific (non-Free)
    literals across cubes — espresso's secondary cost function. *)
val literal_count : t -> int

(** [empty ~n] is the constant-0 cover; [universe ~n] the constant-1. *)
val empty : n:int -> t

val universe : n:int -> t

(** [eval t m] is the value of the cover on minterm [m]. *)
val eval : t -> int -> bool

(** [to_bv t] is the characteristic bit-vector over the [2^n] minterms.
    @raise Invalid_argument when [n > 24] (dense expansion too large). *)
val to_bv : t -> Bitvec.Bv.t

(** [of_bv ~n bv] is the cover with one cube per set minterm. *)
val of_bv : n:int -> Bitvec.Bv.t -> t

(** [single_cube_containment t] removes every cube contained in another
    single cube of [t] (espresso's SCC filter). *)
val single_cube_containment : t -> t

(** [pp] prints one cube per line in .pla style. *)
val pp : Format.formatter -> t -> unit
