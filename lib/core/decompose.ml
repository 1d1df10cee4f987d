module Gate = Netlist.Gate
module Spec = Pla.Spec

(* The local fanin pattern at bit [p]: fanin [i]'s bit is bit [i]. *)
let local_index words fanins p =
  let idx = ref 0 in
  Array.iteri
    (fun i f -> idx := !idx lor (((words.(f) lsr p) land 1) lsl i))
    fanins;
  !idx

let local_patterns nl =
  let masks = Array.make (Netlist.node_count nl) 0 in
  Netlist.simulate_all nl (fun ~base:_ ~chunk words ->
      Netlist.iter_nodes nl (fun id g fanins ->
          match g with
          | Gate.Input _ | Gate.Const _ -> ()
          | _ when Array.length fanins > 5 -> ()
          | _ ->
              for p = 0 to chunk - 1 do
                masks.(id) <- masks.(id) lor (1 lsl local_index words fanins p)
              done));
  masks

(* Apply the Figure 7 rule to one cell's local function given its
   reachable-pattern mask; returns the new truth table. *)
let reassign_cell ~threshold ~arity ~tt ~reachable =
  let spec = Spec.create ~ni:arity ~no:1 ~default:Spec.Off in
  for idx = 0 to (1 lsl arity) - 1 do
    let phase =
      if reachable land (1 lsl idx) = 0 then Spec.Dc
      else if Logic.Truth.eval tt idx then Spec.On
      else Spec.Off
    in
    Spec.set spec ~o:0 ~m:idx phase
  done;
  let assigned = Assign.by_complexity ~threshold spec in
  let tt' = ref 0 in
  for idx = 0 to (1 lsl arity) - 1 do
    let v =
      match Spec.get assigned ~o:0 ~m:idx with
      | Spec.On -> true
      | Spec.Off -> false
      | Spec.Dc -> Logic.Truth.eval tt idx (* undecided: keep original *)
    in
    if v then tt' := !tt' lor (1 lsl idx)
  done;
  !tt'

let reassign ~threshold nl =
  let masks = local_patterns nl in
  let out = Netlist.create ~ni:(Netlist.ni nl) in
  let remap = Array.make (Netlist.node_count nl) (-1) in
  for i = 0 to Netlist.ni nl - 1 do
    remap.(i) <- i
  done;
  Netlist.iter_nodes nl (fun id g fanins ->
      let fanins' = Array.map (Array.get remap) fanins in
      let g' =
        match g with
        | Gate.Cell c ->
            let reachable = masks.(id) in
            let full = (1 lsl (1 lsl c.Gate.arity)) - 1 in
            if reachable = full || reachable = 0 then g
            else
              Gate.Cell
                {
                  c with
                  Gate.tt =
                    reassign_cell ~threshold ~arity:c.Gate.arity
                      ~tt:c.Gate.tt ~reachable;
                }
        | other -> other
      in
      remap.(id) <- Netlist.add out g' fanins');
  Netlist.set_outputs out (Array.map (Array.get remap) (Netlist.outputs nl));
  out

(* The patterns of the current chunk at which flipping [node] changes
   some primary output: the good words of [words] are copied into
   [fault_words], [node]'s word is flipped and only the nodes after it
   are evaluated again. *)
let flip_diff nl outs ~node words fault_words chunk_mask =
  Array.blit words 0 fault_words 0 (Array.length words);
  fault_words.(node) <- lnot words.(node);
  Netlist.simulate_words ~after:node nl fault_words;
  let diff = ref 0 in
  Array.iter
    (fun o -> diff := !diff lor (words.(o) lxor fault_words.(o)))
    outs;
  !diff land chunk_mask

let internal_error_rate nl =
  let n = Netlist.node_count nl in
  let outs = Netlist.outputs nl in
  let fault_words = Array.make n 0 in
  let events = ref 0 and propagated = ref 0 in
  Netlist.simulate_all nl (fun ~base:_ ~chunk words ->
      let mask = (1 lsl chunk) - 1 in
      for fault = Netlist.ni nl to n - 1 do
        let diff = flip_diff nl outs ~node:fault words fault_words mask in
        events := !events + chunk;
        propagated := !propagated + Bitvec.Minterm.popcount diff
      done);
  if !events = 0 then 0.0
  else float_of_int !propagated /. float_of_int !events

(* (reachable mask, observable mask) of one node's local patterns. *)
let local_masks nl ~node =
  let fanins = Netlist.fanins nl node in
  let outs = Netlist.outputs nl in
  let fault_words = Array.make (Netlist.node_count nl) 0 in
  let reachable = ref 0 and observable = ref 0 in
  Netlist.simulate_all nl (fun ~base:_ ~chunk words ->
      let obs =
        flip_diff nl outs ~node words fault_words ((1 lsl chunk) - 1)
      in
      for p = 0 to chunk - 1 do
        let bit = 1 lsl local_index words fanins p in
        reachable := !reachable lor bit;
        if obs land (1 lsl p) <> 0 then observable := !observable lor bit
      done);
  (!reachable, !observable)

let observability_mask nl ~node =
  let _, obs = local_masks nl ~node in
  obs

let reassign_odc ~threshold nl =
  (* Work on a structural copy so the input netlist stays intact. *)
  let out = Netlist.create ~ni:(Netlist.ni nl) in
  Netlist.iter_nodes nl (fun id g fanins ->
      let id' = Netlist.add out g fanins in
      assert (id' = id));
  Netlist.set_outputs out (Netlist.outputs nl);
  Netlist.iter_nodes out (fun id g _ ->
      match g with
      | Gate.Cell c when c.Gate.arity <= 4 ->
          let _, observable = local_masks out ~node:id in
          let full = (1 lsl (1 lsl c.Gate.arity)) - 1 in
          let fixed = observable land full in
          if fixed <> full then begin
            (* assignable = patterns never observable (this includes
               the unreachable ones) *)
            let tt' =
              reassign_cell ~threshold ~arity:c.Gate.arity ~tt:c.Gate.tt
                ~reachable:fixed
            in
            if tt' <> c.Gate.tt then
              Netlist.replace_gate out id (Gate.Cell { c with Gate.tt = tt' })
          end
      | _ -> ());
  out
