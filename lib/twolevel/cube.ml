type t = { m0 : int; m1 : int }

type literal = Zero | One | Free

let range_mask n = if n = 0 then 0 else (1 lsl n) - 1

let full ~n = { m0 = range_mask n; m1 = range_mask n }

let of_minterm ~n m =
  let mask = range_mask n in
  { m0 = lnot m land mask; m1 = m land mask }

let lit_masks j = function
  | Zero -> (1 lsl j, 0)
  | One -> (0, 1 lsl j)
  | Free -> (1 lsl j, 1 lsl j)

let make ~n lits =
  if List.length lits <> n then invalid_arg "Cube.make: wrong arity";
  let _, m0, m1 =
    List.fold_left
      (fun (j, m0, m1) lit ->
        let b0, b1 = lit_masks j lit in
        (j + 1, m0 lor b0, m1 lor b1))
      (0, 0, 0) lits
  in
  { m0; m1 }

let get c j =
  match (c.m0 land (1 lsl j) <> 0, c.m1 land (1 lsl j) <> 0) with
  | true, true -> Free
  | true, false -> Zero
  | false, true -> One
  | false, false -> invalid_arg "Cube.get: empty literal"

let set c j lit =
  let b = 1 lsl j in
  let b0, b1 = lit_masks j lit in
  { m0 = (c.m0 land lnot b) lor b0; m1 = (c.m1 land lnot b) lor b1 }

let equal a b = a.m0 = b.m0 && a.m1 = b.m1

let compare a b =
  match Int.compare a.m0 b.m0 with 0 -> Int.compare a.m1 b.m1 | c -> c

let mask0 c = c.m0
let mask1 c = c.m1

let of_masks ~m0 ~m1 =
  let valid = m0 lor m1 in
  (* Every variable up to the highest used bit must be representable:
     the valid bits form a contiguous low mask. *)
  if valid < 0 then invalid_arg "Cube.of_masks: negative mask";
  if valid land (valid + 1) <> 0 then
    invalid_arg "Cube.of_masks: empty literal below the highest set bit";
  { m0; m1 }

let contains_minterm c m =
  let valid = c.m0 lor c.m1 in
  m land valid land lnot c.m1 = 0 && lnot m land valid land lnot c.m0 = 0

(* b <= a iff every value b allows, a allows too. *)
let subsumes a b = b.m0 land lnot a.m0 = 0 && b.m1 land lnot a.m1 = 0

let intersect a b =
  let m0 = a.m0 land b.m0 and m1 = a.m1 land b.m1 in
  (* Empty iff some variable present in the union of supports allows
     neither value.  All variables of the space must stay non-empty: a
     variable outside both masks was never valid in the first place, so
     compare against the original valid range. *)
  let valid = (a.m0 lor a.m1) land (b.m0 lor b.m1) in
  if m0 lor m1 = valid then Some { m0; m1 } else None

let supercube a b = { m0 = a.m0 lor b.m0; m1 = a.m1 lor b.m1 }

let free_count ~n c = Bitvec.Minterm.popcount (c.m0 land c.m1 land range_mask n)

let iter_minterms ~n f c =
  let free = c.m0 land c.m1 land range_mask n in
  let base = c.m1 land lnot free in
  (* Enumerate subsets of the free mask with the standard sub-mask walk. *)
  let rec go sub =
    f (base lor sub);
    if sub = 0 then () else go ((sub - 1) land free)
  in
  go free

let to_string ~n c =
  String.init n (fun j ->
      match get c j with Zero -> '0' | One -> '1' | Free -> '-')

let of_string s =
  let n = String.length s in
  make ~n
    (List.init n (fun j ->
         match s.[j] with
         | '0' -> Zero
         | '1' -> One
         | '-' | '2' -> Free
         | _ -> invalid_arg "Cube.of_string: expected 0/1/-"))

let pp ~n ppf c = Format.pp_print_string ppf (to_string ~n c)
