module Spec = Pla.Spec

let weight spec ~o ~m =
  let on, off, _ = Spec.neighbour_counts spec ~o ~m in
  abs (on - off)

let majority_phase spec ~o ~m =
  let on, off, _ = Spec.neighbour_counts spec ~o ~m in
  if on > off then Some true else if off > on then Some false else None

let complexity_factor = Reliability.Borders.complexity_factor
let mean_complexity_factor = Reliability.Borders.mean_complexity_factor
let expected_complexity_factor = Reliability.Borders.expected_complexity_factor
let local_complexity_factor = Reliability.Borders.local_complexity_factor
let local_complexity_factors = Reliability.Borders.local_complexity_factors

(* The weights come from one batched, word-parallel neighbour count
   over the whole minterm space ([Spec.neighbour_counts_batch]);
   {!weight} remains the per-minterm oracle. *)
let dc_ranking spec ~o =
  let on, off, _ = Spec.neighbour_counts_batch spec ~o in
  let ranked = ref [] in
  Spec.iter_dc spec ~o (fun m ->
      let w = abs (on.(m) - off.(m)) in
      if w <> 0 then ranked := (m, w) :: !ranked);
  List.sort
    (fun (m1, w1) (m2, w2) ->
      match compare w2 w1 with 0 -> compare m1 m2 | c -> c)
    !ranked
