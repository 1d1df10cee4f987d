module Spec = Pla.Spec

type result = { trials : int; propagated : int; rate : float }

let count_propagated spec nl ms ~len good bad =
  (* A partial word's bits from [len] up are no trials. *)
  let valid = (1 lsl len) - 1 in
  let count = ref 0 in
  Array.iteri
    (fun o id ->
      let diff = (good.(id) lxor bad.(id)) land valid in
      if diff <> 0 then
        for p = 0 to 62 do
          (* Errors only originate at care vectors of this output. *)
          if diff land (1 lsl p) <> 0 && Spec.get spec ~o ~m:ms.(p) <> Spec.Dc
          then incr count
        done)
    (Netlist.outputs nl);
  !count

let run ~rng ~trials spec nl =
  if Netlist.ni nl <> Spec.ni spec then
    invalid_arg "Fault_sim.run: input count mismatch";
  if trials <= 0 then invalid_arg "Fault_sim.run: trials must be positive";
  let n = Spec.ni spec in
  let size = Spec.size spec in
  let good = Array.make (Netlist.node_count nl) 0 in
  let bad = Array.make (Netlist.node_count nl) 0 in
  let ms = Array.make 63 0 and flipped = Array.make 63 0 in
  let propagated = ref 0 in
  let left = ref trials in
  while !left > 0 do
    let len = min 63 !left in
    (* One trial per bit, drawing [m] then [j] as the scalar loop did. *)
    for p = 0 to len - 1 do
      let m = Random.State.int rng size in
      let j = Random.State.int rng n in
      ms.(p) <- m;
      flipped.(p) <- m lxor (1 lsl j)
    done;
    Netlist.pack_minterms nl ms ~len good;
    Netlist.simulate_words nl good;
    Netlist.pack_minterms nl flipped ~len bad;
    Netlist.simulate_words nl bad;
    propagated := !propagated + count_propagated spec nl ms ~len good bad;
    left := !left - len
  done;
  {
    trials;
    propagated = !propagated;
    rate = float_of_int !propagated /. float_of_int (trials * Spec.no spec);
  }
