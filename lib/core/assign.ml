module Spec = Pla.Spec

let ranking ~fraction spec =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Assign.ranking: fraction must be in [0,1]";
  let out = Spec.copy spec in
  for o = 0 to Spec.no spec - 1 do
    (* One batched neighbour count serves both the ranking weights and
       the majority phases of every minterm assigned below. *)
    let on, off, _ = Spec.neighbour_counts_batch spec ~o in
    let ranked = ref [] in
    Spec.iter_dc spec ~o (fun m ->
        let w = abs (on.(m) - off.(m)) in
        if w <> 0 then ranked := (m, w) :: !ranked);
    let ranked =
      List.sort
        (fun (m1, w1) (m2, w2) ->
          match compare w2 w1 with 0 -> compare m1 m2 | c -> c)
        !ranked
    in
    let take =
      int_of_float (Float.round (fraction *. float_of_int (List.length ranked)))
    in
    List.iteri
      (fun i (m, _w) ->
        (* non-zero weight means one phase strictly dominates *)
        if i < take then Spec.assign_dc out ~o ~m (on.(m) > off.(m)))
      ranked
  done;
  out

let by_complexity ~threshold spec =
  let out = Spec.copy spec in
  for o = 0 to Spec.no spec - 1 do
    let lcf = Metrics.local_complexity_factors spec ~o in
    let on, off, _ = Spec.neighbour_counts_batch spec ~o in
    Spec.iter_dc spec ~o (fun m ->
        if lcf.(m) < threshold then
          (* majority phase; ties assign to 0 (Figure 7: else x <- 0) *)
          Spec.assign_dc out ~o ~m (on.(m) > off.(m)))
  done;
  out

let complete spec = ranking ~fraction:1.0 spec

let assigned_dc_fraction ~before ~after =
  let dcs = ref 0 and assigned = ref 0 in
  for o = 0 to Spec.no before - 1 do
    Spec.iter_dc before ~o (fun m ->
        incr dcs;
        if Spec.get after ~o ~m <> Spec.Dc then incr assigned)
  done;
  if !dcs = 0 then 0.0 else float_of_int !assigned /. float_of_int !dcs

let ranking_matching_budget ~reference spec =
  (* Count how many DCs the reference assigned, then pick the ranking
     fraction that assigns the same number of list entries. *)
  let target = ref 0 and listed = ref 0 in
  for o = 0 to Spec.no spec - 1 do
    Spec.iter_dc spec ~o (fun m ->
        if Spec.get reference ~o ~m <> Spec.Dc then incr target);
    listed := !listed + List.length (Metrics.dc_ranking spec ~o)
  done;
  let fraction =
    if !listed = 0 then 0.0
    else min 1.0 (float_of_int !target /. float_of_int !listed)
  in
  ranking ~fraction spec
