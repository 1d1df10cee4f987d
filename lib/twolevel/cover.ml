type t = { n : int; cubes : Cube.t list }

let make ~n cubes = { n; cubes }
let n t = t.n
let cubes t = t.cubes
let size t = List.length t.cubes

let literal_count t =
  List.fold_left
    (fun acc c -> acc + (t.n - Cube.free_count ~n:t.n c))
    0 t.cubes

let empty ~n = { n; cubes = [] }
let universe ~n = { n; cubes = [ Cube.full ~n ] }

let eval t m = List.exists (fun c -> Cube.contains_minterm c m) t.cubes

let to_bv t =
  if t.n > 24 then invalid_arg "Cover.to_bv: n too large";
  let bv = Bitvec.Bv.create (Bitvec.Minterm.space_size t.n) in
  List.iter (Cube.iter_minterms ~n:t.n (Bitvec.Bv.set bv)) t.cubes;
  bv

let of_bv ~n bv =
  let cubes =
    Bitvec.Bv.fold_set (fun m acc -> Cube.of_minterm ~n m :: acc) bv []
  in
  { n; cubes = List.rev cubes }

let single_cube_containment t =
  let arr = Array.of_list t.cubes in
  let keep = Array.make (Array.length arr) true in
  Array.iteri
    (fun i ci ->
      if keep.(i) then
        Array.iteri
          (fun k ck ->
            if k <> i && keep.(k) && Cube.subsumes ci ck then
              if Cube.equal ci ck && k < i then () (* keep earliest dup *)
              else keep.(k) <- false)
          arr)
    arr;
  let cubes =
    Array.to_list arr
    |> List.filteri (fun i _ -> keep.(i))
  in
  { n = t.n; cubes }

let pp ppf t =
  List.iter
    (fun c -> Format.fprintf ppf "%s@\n" (Cube.to_string ~n:t.n c))
    t.cubes
