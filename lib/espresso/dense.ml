(* Dense-set espresso: the EXPAND / IRREDUNDANT / REDUCE loop with
   every coverage question answered against bit-vectors over the 2^n
   minterm space and a per-minterm cover-count array.  Exact for
   n <= 20 and fast enough to minimise every output of every benchmark
   inside the paper's parameter sweeps.

   Key correspondences with classical espresso:
   - raisable(c, j)   <=>  the newly added half-cube avoids the off-set;
   - redundant(c)     <=>  every on-minterm of c is covered >= 2 times;
   - reduce(c)        =    supercube of c's uniquely covered on-minterms. *)

module Cube = Twolevel.Cube
module Cover = Twolevel.Cover
module Bv = Bitvec.Bv

type ctx = {
  n : int;
  on : Bv.t; (* on-set minterms *)
  off : Bv.t; (* off-set minterms *)
  counts : int array; (* how many cover cubes contain each minterm *)
}

let iter_cube_minterms ~n f c = Cube.iter_minterms ~n f c

let add_cube ctx c =
  iter_cube_minterms ~n:ctx.n
    (fun m -> ctx.counts.(m) <- ctx.counts.(m) + 1)
    c

let remove_cube ctx c =
  iter_cube_minterms ~n:ctx.n
    (fun m -> ctx.counts.(m) <- ctx.counts.(m) - 1)
    c

(* The half of [Cube.set c j Free] that is new relative to [c]. *)
let flipped_half c j =
  match Cube.get c j with
  | Cube.Free -> invalid_arg "flipped_half: literal already free"
  | Cube.Zero -> Cube.set c j Cube.One
  | Cube.One -> Cube.set c j Cube.Zero

let half_avoids_off ctx half =
  let ok = ref true in
  iter_cube_minterms ~n:ctx.n
    (fun m -> if Bv.get ctx.off m then ok := false)
    half;
  !ok

(* Count of on-minterms in [half] not covered by any cube yet. *)
let half_gain ctx half =
  let gain = ref 0 in
  iter_cube_minterms ~n:ctx.n
    (fun m -> if Bv.get ctx.on m && ctx.counts.(m) = 0 then incr gain)
    half;
  !gain

let specific_vars ~n c =
  let rec go j acc =
    if j < 0 then acc
    else go (j - 1) (if Cube.get c j = Cube.Free then acc else j :: acc)
  in
  go (n - 1) []

(* Expand one cube to a prime against the dense off-set. *)
let expand_cube ctx c =
  let rec grow c =
    let candidates =
      List.filter_map
        (fun j ->
          let half = flipped_half c j in
          if half_avoids_off ctx half then Some (j, half) else None)
        (specific_vars ~n:ctx.n c)
    in
    match candidates with
    | [] -> c
    | _ ->
        let best =
          List.fold_left
            (fun acc (j, half) ->
              let g = half_gain ctx half in
              match acc with
              | Some (gb, _) when gb >= g -> acc
              | _ -> Some (g, j))
            None candidates
        in
        (match best with
        | Some (_, j) -> grow (Cube.set c j Cube.Free)
        | None -> c)
  in
  grow c

(* EXPAND pass: cubes whose on-minterms are already fully covered
   elsewhere are dropped; the rest are raised to primes. *)
let expand ctx cubes =
  let covered_elsewhere c =
    let ok = ref true in
    iter_cube_minterms ~n:ctx.n
      (fun m -> if Bv.get ctx.on m && ctx.counts.(m) <= 1 then ok := false)
      c;
    !ok
  in
  let rec go pending primes =
    match pending with
    | [] -> List.rev primes
    | c :: rest ->
        if covered_elsewhere c then begin
          remove_cube ctx c;
          go rest primes
        end
        else begin
          remove_cube ctx c;
          let p = expand_cube ctx c in
          add_cube ctx p;
          go rest (p :: primes)
        end
  in
  go cubes []

(* IRREDUNDANT: drop cubes (smallest first) whose on-minterms are all
   covered at least twice. *)
let irredundant ctx cubes =
  let sorted =
    List.sort
      (fun a b ->
        compare (Cube.free_count ~n:ctx.n a) (Cube.free_count ~n:ctx.n b))
      cubes
  in
  List.filter
    (fun c ->
      let removable = ref true in
      iter_cube_minterms ~n:ctx.n
        (fun m -> if Bv.get ctx.on m && ctx.counts.(m) <= 1 then removable := false)
        c;
      if !removable then begin
        remove_cube ctx c;
        false
      end
      else true)
    sorted

(* Smallest cube containing a set of minterms. *)
let supercube_of_minterms ~n ms =
  match ms with
  | [] -> None
  | m0 :: rest ->
      let c0 = Cube.of_minterm ~n m0 in
      Some
        (List.fold_left
           (fun acc m -> Cube.supercube acc (Cube.of_minterm ~n m))
           c0 rest)

(* REDUCE: shrink each cube to the supercube of its uniquely covered
   on-minterms; drop cubes with none. *)
let reduce ctx cubes =
  let sorted =
    List.sort
      (fun a b ->
        compare (Cube.free_count ~n:ctx.n b) (Cube.free_count ~n:ctx.n a))
      cubes
  in
  List.filter_map
    (fun c ->
      let unique = ref [] in
      iter_cube_minterms ~n:ctx.n
        (fun m ->
          if Bv.get ctx.on m && ctx.counts.(m) = 1 then unique := m :: !unique)
        c;
      remove_cube ctx c;
      match supercube_of_minterms ~n:ctx.n !unique with
      | None -> None
      | Some c' ->
          add_cube ctx c';
          Some c')
    sorted

let cost ~n cubes =
  ( List.length cubes,
    List.fold_left (fun acc c -> acc + (n - Cube.free_count ~n c)) 0 cubes )

let sp_minimize = Prof.span "espresso.minimize"

(* [minimize ~n ~on ~dc] returns a minimised cover of the on-set that
   may dip into [dc] and never touches the off-set. *)
let minimize ~n ~on ~dc =
  Prof.time sp_minimize @@ fun () ->
  let space = 1 lsl n in
  if Bv.length on <> space || Bv.length dc <> space then
    invalid_arg "Dense.minimize: bit-vector length mismatch";
  if not (Bv.disjoint on dc) then
    invalid_arg "Dense.minimize: on and dc overlap";
  let off = Bv.complement (Bv.union on dc) in
  let ctx = { n; on; off; counts = Array.make space 0 } in
  let initial = Bv.fold_set (fun m acc -> Cube.of_minterm ~n m :: acc) on [] in
  List.iter (add_cube ctx) initial;
  let f = expand ctx initial in
  let f = irredundant ctx f in
  let rec loop f best iters =
    if iters >= 20 then (f, iters)
    else
      let f' = reduce ctx f in
      let f' = expand ctx f' in
      let f' = irredundant ctx f' in
      let c = cost ~n f' in
      if c < best then loop f' c (iters + 1) else (f, iters + 1)
  in
  let f, _iters = loop f (cost ~n f) 0 in
  Cover.single_cube_containment (Cover.make ~n f)
