module A = Aig_core

(* Collect the maximal conjunction rooted at literal [l] in the old
   graph: descend through non-complemented AND fanins.  Complemented
   edges and non-AND nodes stop the descent. *)
let rec collect_conj t l acc =
  let id = A.node_of l in
  if (not (A.is_complemented l)) && A.is_and t id then begin
    let a, b = A.fanins t id in
    collect_conj t a (collect_conj t b acc)
  end
  else l :: acc

let balance t =
  let t' = A.create ~ni:(A.ni t) in
  (* new literal for each old node's positive polarity *)
  let map = Array.make (A.num_nodes t) (-1) in
  map.(0) <- A.const0;
  for i = 0 to A.ni t - 1 do
    map.(i + 1) <- A.input t' i
  done;
  (* levels of new nodes, grown alongside t' *)
  let lvl = Hashtbl.create 256 in
  let level_of l =
    match Hashtbl.find_opt lvl (A.node_of l) with Some v -> v | None -> 0
  in
  let aand a b =
    let r = A.land_ t' a b in
    let rid = A.node_of r in
    if not (Hashtbl.mem lvl rid) then
      Hashtbl.replace lvl rid (1 + max (level_of a) (level_of b));
    r
  in
  let translate l =
    let nl = map.(A.node_of l) in
    if A.is_complemented l then A.lnot nl else nl
  in
  (* Huffman-combine literals by ascending level. *)
  let combine lits =
    match lits with
    | [] -> A.const1
    | _ ->
        let sorted = List.sort (fun a b -> compare (level_of a) (level_of b)) lits in
        let rec go = function
          | [] -> A.const1
          | [ l ] -> l
          | a :: b :: rest ->
              let c = aand a b in
              (* insert c keeping the list sorted by level *)
              let rec insert = function
                | [] -> [ c ]
                | x :: xs when level_of x < level_of c -> x :: insert xs
                | xs -> c :: xs
              in
              go (insert rest)
        in
        go sorted
  in
  A.iter_ands t (fun id _ _ ->
      let leaves = collect_conj t (2 * id) [] in
      let translated = List.map translate leaves in
      map.(id) <- combine translated);
  A.set_outputs t' (Array.map translate (A.outputs t));
  t'

let cleanup t =
  let reachable = Array.make (A.num_nodes t) false in
  let rec mark id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      if A.is_and t id then begin
        let a, b = A.fanins t id in
        mark (A.node_of a);
        mark (A.node_of b)
      end
    end
  in
  Array.iter (fun l -> mark (A.node_of l)) (A.outputs t);
  let t' = A.create ~ni:(A.ni t) in
  let map = Array.make (A.num_nodes t) (-1) in
  map.(0) <- A.const0;
  for i = 0 to A.ni t - 1 do
    map.(i + 1) <- A.input t' i
  done;
  let translate l =
    let nl = map.(A.node_of l) in
    if A.is_complemented l then A.lnot nl else nl
  in
  A.iter_ands t (fun id a b ->
      if reachable.(id) then map.(id) <- A.land_ t' (translate a) (translate b));
  A.set_outputs t' (Array.map translate (A.outputs t));
  t'
