module Gate = Netlist.Gate
module Spec = Pla.Spec

let local_patterns nl =
  let n = Netlist.node_count nl in
  let masks = Array.make n 0 in
  let ni = Netlist.ni nl in
  if ni > 20 then invalid_arg "Decompose.local_patterns: ni too large";
  let size = 1 lsl ni in
  let vals = Array.make n false in
  for m = 0 to size - 1 do
    for i = 0 to ni - 1 do
      vals.(i) <- m land (1 lsl i) <> 0
    done;
    Netlist.iter_nodes nl (fun id g fanins ->
        match g with
        | Gate.Input _ -> ()
        | _ -> vals.(id) <- Gate.eval g (Array.map (Array.get vals) fanins));
    Netlist.iter_nodes nl (fun id g fanins ->
        match g with
        | Gate.Cell _ | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
        | Gate.Xnor | Gate.Not | Gate.Buf ->
            if Array.length fanins <= 5 then begin
              let idx = ref 0 in
              Array.iteri
                (fun i f -> if vals.(f) then idx := !idx lor (1 lsl i))
                fanins;
              masks.(id) <- masks.(id) lor (1 lsl !idx)
            end
        | Gate.Input _ | Gate.Const _ -> ())
  done;
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

let internal_error_rate nl =
  let ni = Netlist.ni nl in
  if ni > 20 then invalid_arg "Decompose.internal_error_rate: ni too large";
  let n = Netlist.node_count nl in
  let size = 1 lsl ni in
  let outs = Netlist.outputs nl in
  let events = ref 0 and propagated = ref 0 in
  (* Word-parallel: for each chunk, compute the fault-free words, then
     for each internal node re-propagate with that node flipped. *)
  let base_words = Array.make n 0 in
  let fault_words = Array.make n 0 in
  let base = ref 0 in
  while !base < size do
    let chunk = min 63 (size - !base) in
    let mask = (1 lsl chunk) - 1 in
    for i = 0 to ni - 1 do
      let w = ref 0 in
      for p = 0 to chunk - 1 do
        if (!base + p) land (1 lsl i) <> 0 then w := !w lor (1 lsl p)
      done;
      base_words.(i) <- !w
    done;
    Netlist.iter_nodes nl (fun id g fanins ->
        base_words.(id) <- Gate.eval_words_at g base_words fanins);
    for fault = ni to n - 1 do
      Array.blit base_words 0 fault_words 0 n;
      fault_words.(fault) <- lnot base_words.(fault);
      Netlist.iter_nodes nl (fun id g fanins ->
          if id > fault then
            fault_words.(id) <- Gate.eval_words_at g fault_words fanins);
      let diff = ref 0 in
      Array.iter
        (fun o -> diff := !diff lor (base_words.(o) lxor fault_words.(o)))
        outs;
      events := !events + chunk;
      propagated := !propagated + Bitvec.Minterm.popcount (!diff land mask)
    done;
    base := !base + chunk
  done;
  if !events = 0 then 0.0
  else float_of_int !propagated /. float_of_int !events

(* Word-parallel: recompute only nodes downstream of [node] with its
   output flipped; collect the local patterns at which some primary
   output changes. *)
let observability_mask_current nl ~node base_words fault_words chunk_mask =
  let n = Netlist.node_count nl in
  Array.blit base_words 0 fault_words 0 n;
  fault_words.(node) <- lnot base_words.(node);
  Netlist.iter_nodes nl (fun id g fanins ->
      if id > node then
        fault_words.(id) <- Gate.eval_words_at g fault_words fanins);
  let diff = ref 0 in
  Array.iter
    (fun o -> diff := !diff lor (base_words.(o) lxor fault_words.(o)))
    (Netlist.outputs nl);
  !diff land chunk_mask

let simulate_chunks nl visit =
  let ni = Netlist.ni nl in
  if ni > 20 then invalid_arg "Decompose: ni too large";
  let n = Netlist.node_count nl in
  let size = 1 lsl ni in
  let words = Array.make n 0 in
  let base = ref 0 in
  while !base < size do
    let chunk = min 63 (size - !base) in
    for i = 0 to ni - 1 do
      let w = ref 0 in
      for p = 0 to chunk - 1 do
        if (!base + p) land (1 lsl i) <> 0 then w := !w lor (1 lsl p)
      done;
      words.(i) <- !w
    done;
    Netlist.iter_nodes nl (fun id g fanins ->
        words.(id) <- Gate.eval_words_at g words fanins);
    visit ~chunk words;
    base := !base + chunk
  done

(* (reachable mask, observable mask) of one node's local patterns. *)
let local_masks nl ~node =
  let n = Netlist.node_count nl in
  let fanins = Netlist.fanins nl node in
  let fault_words = Array.make n 0 in
  let reachable = ref 0 and observable = ref 0 in
  simulate_chunks nl (fun ~chunk words ->
      let chunk_mask = (1 lsl chunk) - 1 in
      let obs =
        observability_mask_current nl ~node words fault_words chunk_mask
      in
      for p = 0 to chunk - 1 do
        let idx = ref 0 in
        Array.iteri
          (fun i f -> if words.(f) land (1 lsl p) <> 0 then idx := !idx lor (1 lsl i))
          fanins;
        reachable := !reachable lor (1 lsl !idx);
        if obs land (1 lsl p) <> 0 then observable := !observable lor (1 lsl !idx)
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
