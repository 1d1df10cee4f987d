module Spec = Pla.Spec

type kind = Stuck_at_0 | Stuck_at_1 | Transient
type fault = { node : int; kind : kind }

let kind_name = function
  | Stuck_at_0 -> "sa0"
  | Stuck_at_1 -> "sa1"
  | Transient -> "transient"

let all_kinds = [ Stuck_at_0; Stuck_at_1; Transient ]

let kind_of_name = function
  | "sa0" -> Some Stuck_at_0
  | "sa1" -> Some Stuck_at_1
  | "transient" -> Some Transient
  | _ -> None

let sites nl =
  let acc = ref [] in
  Netlist.iter_nodes nl (fun id g _ ->
      match g with Netlist.Gate.Const _ -> () | _ -> acc := id :: !acc);
  List.rev !acc

let apply kind v =
  match kind with
  | Stuck_at_0 -> false
  | Stuck_at_1 -> true
  | Transient -> not v

let check_node nl node =
  if node < 0 || node >= Netlist.node_count nl then
    invalid_arg "Inject: node id out of range"

let override_bool fault id v = if id = fault.node then apply fault.kind v else v

let override_word fault id w =
  if id <> fault.node then w
  else
    match fault.kind with
    | Stuck_at_0 -> 0
    | Stuck_at_1 -> -1
    | Transient -> lnot w

let eval_minterm nl fault m =
  check_node nl fault.node;
  Netlist.eval_minterm_with_override nl ~override:(override_bool fault) m

let faulty_tables nl fault =
  check_node nl fault.node;
  Netlist.output_tables_with_override nl ~override:(override_word fault)

let check_spec spec nl =
  if Netlist.ni nl <> Spec.ni spec then
    invalid_arg "Inject: input count mismatch"

let exact_rate spec nl fault =
  check_spec spec nl;
  check_node nl fault.node;
  let size = Spec.size spec in
  let no = Spec.no spec in
  let good = Netlist.output_tables nl in
  let bad = faulty_tables nl fault in
  let total = ref 0.0 in
  for o = 0 to no - 1 do
    let count = ref 0 in
    for m = 0 to size - 1 do
      match Spec.get spec ~o ~m with
      | Spec.Dc -> ()
      | Spec.On | Spec.Off ->
          if Bitvec.Bv.get good.(o) m <> Bitvec.Bv.get bad.(o) m then
            incr count
    done;
    total := !total +. (float_of_int !count /. float_of_int size)
  done;
  !total /. float_of_int no

type result = { trials : int; propagated : int; rate : float }

let run ~rng ~trials spec nl fault =
  check_spec spec nl;
  check_node nl fault.node;
  if trials <= 0 then invalid_arg "Inject.run: trials must be positive";
  let size = Spec.size spec in
  let no = Spec.no spec in
  let propagated = ref 0 in
  for _ = 1 to trials do
    let m = Random.State.int rng size in
    let outs = Netlist.eval_minterm nl m in
    let outs' = eval_minterm nl fault m in
    for o = 0 to no - 1 do
      (* As in Fault_sim: errors only originate at care vectors. *)
      match Spec.get spec ~o ~m with
      | Spec.Dc -> ()
      | Spec.On | Spec.Off -> if outs.(o) <> outs'.(o) then incr propagated
    done
  done;
  {
    trials;
    propagated = !propagated;
    rate = float_of_int !propagated /. float_of_int (trials * no);
  }
