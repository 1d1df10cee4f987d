module Gate = Netlist.Gate

type result = {
  netlist : Netlist.t;
  removed : Fault.t list;
  iterations : int;
  gates_before : int;
  gates_after : int;
  final_report : Engine.report;
}

(* What an old node becomes in the rewritten netlist. *)
type desc =
  | D_input
  | D_const of bool
  | D_gate of Gate.t * int array  (* old fanin ids, consts removed *)

(* Constant-propagate one gate whose fanins are either constants
   ([`C]) or live references ([`R old_id]). *)
let simplify g vals =
  let refs () =
    Array.of_list
      (List.filter_map
         (function `R i -> Some i | `C _ -> None)
         (Array.to_list vals))
  in
  let has b = Array.exists (function `C c -> c = b | `R _ -> false) vals in
  let const_parity () =
    Array.fold_left
      (fun p v -> match v with `C true -> not p | _ -> p)
      false vals
  in
  match g with
  | Gate.Input _ -> D_input
  | Gate.Const b -> D_const b
  | Gate.Buf -> (
      match vals.(0) with `C b -> D_const b | `R i -> D_gate (Gate.Buf, [| i |]))
  | Gate.Not -> (
      match vals.(0) with
      | `C b -> D_const (not b)
      | `R i -> D_gate (Gate.Not, [| i |]))
  | Gate.And ->
      if has false then D_const false
      else
        let rs = refs () in
        if Array.length rs = 0 then D_const true
        else if Array.length rs = 1 then D_gate (Gate.Buf, rs)
        else D_gate (Gate.And, rs)
  | Gate.Nand ->
      if has false then D_const true
      else
        let rs = refs () in
        if Array.length rs = 0 then D_const false
        else if Array.length rs = 1 then D_gate (Gate.Not, rs)
        else D_gate (Gate.Nand, rs)
  | Gate.Or ->
      if has true then D_const true
      else
        let rs = refs () in
        if Array.length rs = 0 then D_const false
        else if Array.length rs = 1 then D_gate (Gate.Buf, rs)
        else D_gate (Gate.Or, rs)
  | Gate.Nor ->
      if has true then D_const false
      else
        let rs = refs () in
        if Array.length rs = 0 then D_const true
        else if Array.length rs = 1 then D_gate (Gate.Not, rs)
        else D_gate (Gate.Nor, rs)
  | Gate.Xor ->
      let p = const_parity () in
      let rs = refs () in
      if Array.length rs = 0 then D_const p
      else if Array.length rs = 1 then
        D_gate ((if p then Gate.Not else Gate.Buf), rs)
      else D_gate ((if p then Gate.Xnor else Gate.Xor), rs)
  | Gate.Xnor ->
      let p = const_parity () in
      let rs = refs () in
      if Array.length rs = 0 then D_const (not p)
      else if Array.length rs = 1 then
        D_gate ((if p then Gate.Buf else Gate.Not), rs)
      else D_gate ((if p then Gate.Xor else Gate.Xnor), rs)
  | Gate.Cell c ->
      if Array.for_all (function `R _ -> true | `C _ -> false) vals then
        D_gate (Gate.Cell c, refs ())
      else begin
        (* Cofactor the truth table on the constant pins. *)
        let keep = ref [] in
        Array.iteri
          (fun j v -> match v with `R _ -> keep := j :: !keep | `C _ -> ())
          vals;
        let keep = Array.of_list (List.rev !keep) in
        let k' = Array.length keep in
        let expand m =
          (* Cell input index from the surviving-pin minterm [m] plus
             the fixed constant pins. *)
          let idx = ref 0 in
          Array.iteri
            (fun j v -> match v with `C true -> idx := !idx lor (1 lsl j) | _ -> ())
            vals;
          Array.iteri
            (fun pos j -> if m land (1 lsl pos) <> 0 then idx := !idx lor (1 lsl j))
            keep;
          !idx
        in
        if k' = 0 then D_const (Logic.Truth.eval c.Gate.tt (expand 0))
        else
          let tt' =
            Logic.Truth.of_fun k' (fun m -> Logic.Truth.eval c.Gate.tt (expand m))
          in
          D_gate (Gate.Cell { c with Gate.tt = tt'; Gate.arity = k' }, refs ())
      end

let apply nl (fault : Fault.t) =
  let n = Netlist.node_count nl in
  let ni = Netlist.ni nl in
  let desc = Array.make n D_input in
  Netlist.iter_nodes nl (fun v g fis ->
      if fault.Fault.pin = Fault.Stem && v = fault.Fault.node then
        desc.(v) <- D_const fault.Fault.stuck
      else
        match g with
        | Gate.Input _ -> ()
        | Gate.Const b -> desc.(v) <- D_const b
        | g ->
            let vals =
              Array.mapi
                (fun j i ->
                  if v = fault.Fault.node && fault.Fault.pin = Fault.Branch j
                  then `C fault.Fault.stuck
                  else
                    match desc.(i) with D_const b -> `C b | _ -> `R i)
                fis
            in
            desc.(v) <- simplify g vals);
  (* Only the cone of the outputs survives the rebuild. *)
  let needed = Array.make n false in
  let stack = ref [] in
  let push v =
    if not needed.(v) then begin
      needed.(v) <- true;
      stack := v :: !stack
    end
  in
  Array.iter push (Netlist.outputs nl);
  let rec drain () =
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        (match desc.(v) with
        | D_gate (_, fis) -> Array.iter push fis
        | D_input | D_const _ -> ());
        drain ()
  in
  drain ();
  let out = Netlist.create ~ni in
  let map = Array.make n (-1) in
  for i = 0 to ni - 1 do
    map.(i) <- i
  done;
  let consts = [| -1; -1 |] in
  let const_node b =
    let k = if b then 1 else 0 in
    if consts.(k) < 0 then consts.(k) <- Netlist.add out (Gate.Const b) [||];
    consts.(k)
  in
  for v = ni to n - 1 do
    if needed.(v) then
      match desc.(v) with
      | D_input -> ()
      | D_const b -> map.(v) <- const_node b
      | D_gate (g, fis) ->
          map.(v) <- Netlist.add out g (Array.map (fun i -> map.(i)) fis)
  done;
  Netlist.set_outputs out (Array.map (fun o -> map.(o)) (Netlist.outputs nl));
  out

(* Substituting the stuck value on a branch already driven by the
   same constant rewrites nothing; skip it so every applied removal
   strictly shrinks the pin count (termination). *)
let is_noop nl (f : Fault.t) =
  match f.Fault.pin with
  | Fault.Stem -> false
  | Fault.Branch j -> (
      match Netlist.gate nl (Netlist.fanins nl f.Fault.node).(j) with
      | Gate.Const b -> b = f.Fault.stuck
      | _ -> false)

let remove ?(config = Engine.default_config) ?(max_iterations = 64) nl =
  let gates_before = Netlist.gate_count nl in
  let current = ref (Netlist.copy nl) in
  let removed = ref [] in
  let iterations = ref 0 in
  let rec loop () =
    incr iterations;
    let report = Engine.analyze ~config !current in
    let pick =
      List.find_map
        (fun r ->
          if r.Engine.verdict = Engine.Untestable then
            List.find_opt (fun f -> not (is_noop !current f)) r.Engine.members
          else None)
        report.Engine.results
    in
    match pick with
    | Some f when !iterations < max_iterations ->
        current := apply !current f;
        removed := f :: !removed;
        loop ()
    | _ -> report
  in
  let final_report = loop () in
  {
    netlist = !current;
    removed = List.rev !removed;
    iterations = !iterations;
    gates_before;
    gates_after = Netlist.gate_count !current;
    final_report;
  }
