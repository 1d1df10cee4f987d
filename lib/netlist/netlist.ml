module Gate = Gate

type node = { gate : Gate.t; fanins : int array }

type t = {
  ni : int;
  mutable nodes : node array;
  mutable next : int;
  mutable outputs : int array;
}

let create ~ni =
  if ni < 0 then invalid_arg "Netlist.create";
  let cap = max 16 (2 * ni) in
  let dummy = { gate = Gate.Const false; fanins = [||] } in
  let t = { ni; nodes = Array.make cap dummy; next = ni; outputs = [||] } in
  for i = 0 to ni - 1 do
    t.nodes.(i) <- { gate = Gate.Input i; fanins = [||] }
  done;
  t

let ni t = t.ni
let node_count t = t.next

let grow t =
  if t.next >= Array.length t.nodes then begin
    let dummy = { gate = Gate.Const false; fanins = [||] } in
    let bigger = Array.make (2 * Array.length t.nodes) dummy in
    Array.blit t.nodes 0 bigger 0 t.next;
    t.nodes <- bigger
  end

let add t gate fanins =
  let id = t.next in
  Array.iter
    (fun f ->
      if f < 0 || f >= id then
        invalid_arg "Netlist.add: fanin id out of range (must be < node id)")
    fanins;
  (match Gate.arity gate with
  | Some a when Array.length fanins <> a -> invalid_arg "Netlist.add: arity"
  | Some _ -> ()
  | None ->
      if Array.length fanins < 2 then
        invalid_arg "Netlist.add: variadic gate needs >= 2 fanins");
  (match gate with
  | Gate.Input _ -> invalid_arg "Netlist.add: inputs are created by create"
  | _ -> ());
  grow t;
  t.nodes.(id) <- { gate; fanins };
  t.next <- id + 1;
  id

let set_outputs t ids =
  Array.iter
    (fun o ->
      if o < 0 || o >= t.next then invalid_arg "Netlist.set_outputs: bad id")
    ids;
  t.outputs <- Array.copy ids

let outputs t = Array.copy t.outputs
let no t = Array.length t.outputs

let copy t =
  {
    ni = t.ni;
    nodes = Array.copy t.nodes;
    next = t.next;
    outputs = Array.copy t.outputs;
  }

let check_id t id =
  if id < 0 || id >= t.next then invalid_arg "Netlist: node id out of range"

let gate t id =
  check_id t id;
  t.nodes.(id).gate

let fanins t id =
  check_id t id;
  Array.copy t.nodes.(id).fanins

let iter_nodes t f =
  for id = t.ni to t.next - 1 do
    let n = t.nodes.(id) in
    f id n.gate n.fanins
  done

let eval t inputs =
  if Array.length inputs <> t.ni then invalid_arg "Netlist.eval: input count";
  let values = Array.make t.next false in
  Array.blit inputs 0 values 0 t.ni;
  for id = t.ni to t.next - 1 do
    let n = t.nodes.(id) in
    values.(id) <- Gate.eval n.gate (Array.map (Array.get values) n.fanins)
  done;
  Array.map (Array.get values) t.outputs

let eval_minterm t m =
  eval t (Array.init t.ni (fun i -> m land (1 lsl i) <> 0))

let eval_with_override t ~override inputs =
  if Array.length inputs <> t.ni then
    invalid_arg "Netlist.eval_with_override: input count";
  let values = Array.make t.next false in
  for i = 0 to t.ni - 1 do
    values.(i) <- override i inputs.(i)
  done;
  for id = t.ni to t.next - 1 do
    let n = t.nodes.(id) in
    values.(id) <-
      override id (Gate.eval n.gate (Array.map (Array.get values) n.fanins))
  done;
  Array.map (Array.get values) t.outputs

let eval_minterm_with_override t ~override m =
  eval_with_override t ~override
    (Array.init t.ni (fun i -> m land (1 lsl i) <> 0))

let simulate_words ?(after = -1) t words =
  for id = max t.ni (after + 1) to t.next - 1 do
    let n = t.nodes.(id) in
    words.(id) <- Gate.eval_words_at n.gate words n.fanins
  done

let pack_minterms t ms ~len words =
  for i = 0 to t.ni - 1 do
    let w = ref 0 in
    for p = 0 to len - 1 do
      w := !w lor (((ms.(p) lsr i) land 1) lsl p)
    done;
    words.(i) <- !w
  done

let simulate_all t visit =
  if t.ni > 20 then invalid_arg "Netlist: ni too large for exhaustive sim";
  let total = 1 lsl t.ni in
  let words = Array.make t.next 0 in
  let ms = Array.make 63 0 in
  let base = ref 0 in
  while !base < total do
    let chunk = min 63 (total - !base) in
    for p = 0 to chunk - 1 do
      ms.(p) <- !base + p
    done;
    pack_minterms t ms ~len:chunk words;
    simulate_words t words;
    visit ~base:!base ~chunk words;
    base := !base + chunk
  done

(* [fault words] may rewrite a chunk's words before the outputs are
   read: the next chunk is packed and simulated afresh. *)
let output_tables_gen ?(fault = ignore) t =
  let total = 1 lsl t.ni in
  let tables =
    Array.init (Array.length t.outputs) (fun _ -> Bitvec.Bv.create total)
  in
  simulate_all t (fun ~base ~chunk words ->
      fault words;
      Array.iteri
        (fun o out_id ->
          let w = words.(out_id) in
          for p = 0 to chunk - 1 do
            if w land (1 lsl p) <> 0 then Bitvec.Bv.set tables.(o) (base + p)
          done)
        t.outputs);
  tables

let output_tables_with_fault t ~node f =
  check_id t node;
  output_tables_gen t ~fault:(fun words ->
      words.(node) <- f words.(node);
      simulate_words ~after:node t words)

let output_tables t = output_tables_gen t

let signal_probs t =
  let total = 1 lsl t.ni in
  let ones = Array.make t.next 0 in
  simulate_all t (fun ~base ~chunk words ->
      ignore base;
      Array.iteri
        (fun id w ->
          let masked = w land ((1 lsl chunk) - 1) in
          ones.(id) <- ones.(id) + Bitvec.Minterm.popcount masked)
        words);
  Array.map (fun c -> float_of_int c /. float_of_int total) ones

let gate_count t =
  let acc = ref 0 in
  iter_nodes t (fun _ g _ ->
      match g with Gate.Const _ -> () | _ -> incr acc);
  !acc

let area ?(primitive_area = 1.0) t =
  let acc = ref 0.0 in
  iter_nodes t (fun _ g _ ->
      match g with
      | Gate.Cell c -> acc := !acc +. c.Gate.area
      | Gate.Const _ -> ()
      | _ -> acc := !acc +. primitive_area);
  !acc

let depth t =
  let levels = Array.make t.next 0 in
  iter_nodes t (fun id g fanins ->
      levels.(id) <-
        (match g with
        | Gate.Const _ -> 0
        | _ ->
            1 + Array.fold_left (fun acc f -> max acc levels.(f)) (-1) fanins));
  Array.fold_left (fun acc o -> max acc levels.(o)) 0 t.outputs

let delay ?(primitive_delay = 1.0) t =
  let arrival = Array.make t.next 0.0 in
  iter_nodes t (fun id g fanins ->
      let d =
        match g with
        | Gate.Cell c -> c.Gate.delay
        | Gate.Const _ -> 0.0
        | _ -> primitive_delay
      in
      let worst = Array.fold_left (fun acc f -> max acc arrival.(f)) 0.0 fanins in
      arrival.(id) <- worst +. d);
  Array.fold_left (fun acc o -> max acc arrival.(o)) 0.0 t.outputs

let dynamic_power ?(primitive_cap = 1.0) t =
  let probs = signal_probs t in
  (* Capacitance driven by each net: sum of input caps of its fanouts. *)
  let cap = Array.make t.next 0.0 in
  iter_nodes t (fun _ g fanins ->
      let pin_cap =
        match g with Gate.Cell c -> c.Gate.input_cap | _ -> primitive_cap
      in
      Array.iter (fun f -> cap.(f) <- cap.(f) +. pin_cap) fanins);
  (* Output nets drive the environment: one unit load each. *)
  Array.iter (fun o -> cap.(o) <- cap.(o) +. primitive_cap) t.outputs;
  let acc = ref 0.0 in
  for id = 0 to t.next - 1 do
    let p = probs.(id) in
    acc := !acc +. (2.0 *. p *. (1.0 -. p) *. cap.(id))
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>netlist: %d inputs, %d nodes, %d outputs@," t.ni
    (node_count t) (no t);
  iter_nodes t (fun id g fanins ->
      Format.fprintf ppf "  n%d = %s(%s)@," id (Gate.name g)
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "n%d") fanins))));
  Format.fprintf ppf "  outputs: %s@]"
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "n%d") t.outputs)))

let replace_gate t id g =
  check_id t id;
  let n = t.nodes.(id) in
  (match n.gate with
  | Gate.Input _ -> invalid_arg "Netlist.replace_gate: cannot replace an input"
  | _ -> ());
  (match g with
  | Gate.Input _ -> invalid_arg "Netlist.replace_gate: Input not allowed"
  | _ -> ());
  (match Gate.arity g with
  | Some a when Array.length n.fanins <> a ->
      invalid_arg "Netlist.replace_gate: arity mismatch"
  | Some _ -> ()
  | None ->
      if Array.length n.fanins < 2 then
        invalid_arg "Netlist.replace_gate: variadic gate needs >= 2 fanins");
  t.nodes.(id) <- { n with gate = g }
