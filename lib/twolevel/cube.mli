(** Cubes in positional (two-bit-per-variable) notation.

    A cube over [n] input variables maps every variable to a literal:
    [Zero], [One] or [Free] ('-').  Internally a cube is a pair of bit
    masks [(m0, m1)]: bit [j] of [m0] means "variable [j] may be 0",
    bit [j] of [m1] means "variable [j] may be 1".  [Free] sets both.
    Variables are limited to [n <= 61], far beyond the paper's n = 12.

    The value of [n] is not stored in the cube; operations that need it
    take it as a labelled argument.  {!Cover} carries [n] for whole
    covers. *)

type t

type literal = Zero | One | Free

(** [full ~n] is the universal cube (every literal [Free]). *)
val full : n:int -> t

(** [of_minterm ~n m] is the cube containing exactly minterm [m]. *)
val of_minterm : n:int -> int -> t

(** [make ~n lits] builds a cube from a literal list, variable 0 first.
    @raise Invalid_argument if [List.length lits <> n]. *)
val make : n:int -> literal list -> t

(** [get c j] is the literal of variable [j]. *)
val get : t -> int -> literal

(** [set c j lit] is [c] with variable [j]'s literal replaced. *)
val set : t -> int -> literal -> t

(** [equal a b] is structural equality. *)
val equal : t -> t -> bool

val compare : t -> t -> int

(** [mask0 c] and [mask1 c] expose the positional masks. *)
val mask0 : t -> int

val mask1 : t -> int

(** [of_masks ~m0 ~m1] rebuilds a cube from masks.
    @raise Invalid_argument if some variable below the highest set bit
    would have the impossible 00 encoding — callers must restrict masks
    to the intended variable range themselves. *)
val of_masks : m0:int -> m1:int -> t

(** [contains_minterm c m] tests membership of minterm [m]. *)
val contains_minterm : t -> int -> bool

(** [subsumes a b] is [true] when cube [b] is contained in cube [a]. *)
val subsumes : t -> t -> bool

(** [intersect a b] is the cube intersection, or [None] if empty. *)
val intersect : t -> t -> t option

(** [supercube a b] is the smallest cube containing both. *)
val supercube : t -> t -> t

(** [free_count ~n c] is the number of [Free] literals. *)
val free_count : n:int -> t -> int

(** [iter_minterms ~n f c] applies [f] to every minterm of [c]. *)
val iter_minterms : n:int -> (int -> unit) -> t -> unit

(** [to_string ~n c] renders in .pla style ('0', '1', '-'), variable 0
    leftmost; [of_string] parses it back. *)
val to_string : n:int -> t -> string

val of_string : string -> t

val pp : n:int -> Format.formatter -> t -> unit
