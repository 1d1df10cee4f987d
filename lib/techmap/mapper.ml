module Truth = Logic.Truth
module Npn = Logic.Npn

type mode = Delay | Area | Power

let modes = [ ("delay", Delay); ("area", Area); ("power", Power) ]
let mode_name m = fst (List.find (fun (_, m') -> m' = m) modes)

type cell_match = {
  cut : Aig.Cut.cut;
  cell : Stdcell.t;
  perm : int array;  (** cut leaf [j] drives cell pin [perm.(j)] *)
  out_inv : bool;  (** cell computes the complement of the cut function *)
}

type choice = Cell_match of cell_match | And2_fallback

(* Permutation-variant match index: (arity, tt) -> matches. *)
let build_index lib =
  let index = Hashtbl.create 512 in
  List.iter
    (fun (c : Stdcell.t) ->
      if c.arity >= 2 then
        List.iter
          (fun (vtt, perm) ->
            Hashtbl.add index (c.arity, vtt) (c, perm, false);
            Hashtbl.add index (c.arity, Truth.tnot c.arity vtt) (c, perm, true))
          (Npn.p_variants c.arity c.tt))
    lib;
  index

(* The index only depends on the library, and [Stdcell.default_library]
   allocates a fresh (but equal) list per call — memoise on the library
   value itself.  [Stdcell.t] is all scalar data, so structural
   hashing is exact.  The cached index is read-only after build
   ([Hashtbl.find_all] only), hence safe to share across domains. *)
let c_index_hits = Prof.counter "map.index_hits"
let c_index_misses = Prof.counter "map.index_misses"
let sp_map = Prof.span "techmap.map"

let index_memo :
    (Stdcell.t list, (int * Truth.t, Stdcell.t * int array * bool) Hashtbl.t)
    Hashtbl.t =
  Hashtbl.create 4

let index_lock = Mutex.create ()
let index_cap = 8

let index_for lib =
  Mutex.lock index_lock;
  let cached = Hashtbl.find_opt index_memo lib in
  Mutex.unlock index_lock;
  match cached with
  | Some index ->
      Prof.incr c_index_hits;
      index
  | None ->
      Prof.incr c_index_misses;
      let index = build_index lib in
      Mutex.lock index_lock;
      if Hashtbl.length index_memo >= index_cap then Hashtbl.reset index_memo;
      if not (Hashtbl.mem index_memo lib) then Hashtbl.add index_memo lib index;
      Mutex.unlock index_lock;
      index

(* Estimated fanout of each AIG node (for area-flow sharing). *)
let fanout_counts aig =
  let counts = Array.make (Aig.num_nodes aig) 0 in
  Aig.iter_ands aig (fun _ a b ->
      counts.(Aig.node_of a) <- counts.(Aig.node_of a) + 1;
      counts.(Aig.node_of b) <- counts.(Aig.node_of b) + 1);
  Array.iter
    (fun l -> counts.(Aig.node_of l) <- counts.(Aig.node_of l) + 1)
    (Aig.outputs aig);
  Array.map (fun c -> float_of_int (max 1 c)) counts

let activity p = 2.0 *. p *. (1.0 -. p)

let map ~mode ~lib aig =
  Prof.time sp_map @@ fun () ->
  (match Stdcell.validate lib with
  | Some msg -> invalid_arg ("Mapper.map: bad library: " ^ msg)
  | None -> ());
  let inv_cell = Stdcell.inv lib in
  let and2_cell =
    match List.find_opt (fun (c : Stdcell.t) -> c.Stdcell.name = "AND2") lib with
    | Some c -> Some c
    | None -> None
  in
  let nand2_cell =
    List.find_opt (fun (c : Stdcell.t) -> c.Stdcell.name = "NAND2") lib
  in
  let index = index_for lib in
  let cuts = Aig.Cut.enumerate_memo aig ~k:4 ~max_cuts:8 in
  let n = Aig.num_nodes aig in
  let fanout = fanout_counts aig in
  let probs = if mode = Power then Aig.node_probs aig else [||] in
  let arrival = Array.make n 0.0 in
  let flow = Array.make n 0.0 in
  let choice = Array.make n And2_fallback in
  (* Cost of realising the positive polarity of a fanin literal in the
     AND2 fallback: complemented edges pay an inverter. *)
  let lit_arrival l =
    let base = arrival.(Aig.node_of l) in
    if Aig.is_complemented l then base +. inv_cell.Stdcell.delay else base
  in
  let lit_flow l =
    let base = flow.(Aig.node_of l) /. fanout.(Aig.node_of l) in
    if Aig.is_complemented l then base +. inv_cell.Stdcell.area else base
  in
  let leaf_power_term leaf cap =
    if mode = Power then activity probs.(leaf) *. cap else 0.0
  in
  (* Evaluate one candidate: returns (arrival, cost_flow). *)
  let eval_match id m =
    ignore id;
    let cell = m.cell in
    let arr =
      Array.fold_left
        (fun acc leaf -> max acc arrival.(leaf))
        0.0 m.cut.Aig.Cut.leaves
      +. cell.Stdcell.delay
      +. (if m.out_inv then inv_cell.Stdcell.delay else 0.0)
    in
    let fl =
      Array.fold_left
        (fun acc leaf ->
          acc
          +. (flow.(leaf) /. fanout.(leaf))
          +. leaf_power_term leaf cell.Stdcell.input_cap)
        (cell.Stdcell.area +. if m.out_inv then inv_cell.Stdcell.area else 0.0)
        m.cut.Aig.Cut.leaves
    in
    (arr, fl)
  in
  let eval_fallback a b =
    match (and2_cell, nand2_cell) with
    | Some c, _ ->
        let arr = max (lit_arrival a) (lit_arrival b) +. c.Stdcell.delay in
        let fl =
          c.Stdcell.area +. lit_flow a +. lit_flow b
          +. leaf_power_term (Aig.node_of a) c.Stdcell.input_cap
          +. leaf_power_term (Aig.node_of b) c.Stdcell.input_cap
        in
        (arr, fl)
    | None, Some c ->
        let arr =
          max (lit_arrival a) (lit_arrival b)
          +. c.Stdcell.delay +. inv_cell.Stdcell.delay
        in
        let fl =
          c.Stdcell.area +. inv_cell.Stdcell.area +. lit_flow a +. lit_flow b
        in
        (arr, fl)
    | None, None -> assert false (* validate guarantees the AND2 class *)
  in
  let better (a1, f1) (a2, f2) =
    match mode with
    | Delay -> a1 < a2 -. 1e-12 || (abs_float (a1 -. a2) <= 1e-12 && f1 < f2)
    | Area | Power ->
        f1 < f2 -. 1e-12 || (abs_float (f1 -. f2) <= 1e-12 && a1 < a2)
  in
  Aig.iter_ands aig (fun id a b ->
      let best_cost = ref (eval_fallback a b) in
      let best_choice = ref And2_fallback in
      List.iter
        (fun cut ->
          let k = Array.length cut.Aig.Cut.leaves in
          if k >= 2 && k <= 4 then
            List.iter
              (fun (cell, perm, out_inv) ->
                let m = { cut; cell; perm; out_inv } in
                let cost = eval_match id m in
                if better cost !best_cost then begin
                  best_cost := cost;
                  best_choice := Cell_match m
                end)
              (Hashtbl.find_all index (k, cut.Aig.Cut.tt)))
        cuts.(id);
      let arr, fl = !best_cost in
      arrival.(id) <- arr;
      flow.(id) <- fl;
      choice.(id) <- !best_choice);
  (* Emission: cover from the outputs down. *)
  let nl = Netlist.create ~ni:(Aig.ni aig) in
  let pos_net = Array.make n (-1) in
  let inv_net = Array.make n (-1) in
  let inv_gate = Stdcell.to_gate inv_cell in
  for i = 0 to Aig.ni aig - 1 do
    pos_net.(i + 1) <- i
  done;
  let rec emit id =
    if pos_net.(id) >= 0 then pos_net.(id)
    else begin
      let net =
        match choice.(id) with
        | Cell_match m ->
            let leaf_nets = Array.map emit m.cut.Aig.Cut.leaves in
            let pins = Array.make m.cell.Stdcell.arity (-1) in
            Array.iteri (fun j net -> pins.(m.perm.(j)) <- net) leaf_nets;
            let inst = Netlist.add nl (Stdcell.to_gate m.cell) pins in
            if m.out_inv then Netlist.add nl inv_gate [| inst |] else inst
        | And2_fallback ->
            let a, b = Aig.fanins aig id in
            let na = emit_lit a and nb = emit_lit b in
            (match (and2_cell, nand2_cell) with
            | Some c, _ -> Netlist.add nl (Stdcell.to_gate c) [| na; nb |]
            | None, Some c ->
                let nand = Netlist.add nl (Stdcell.to_gate c) [| na; nb |] in
                Netlist.add nl inv_gate [| nand |]
            | None, None -> assert false)
      in
      pos_net.(id) <- net;
      net
    end
  and emit_lit l =
    let id = Aig.node_of l in
    let p = emit id in
    if Aig.is_complemented l then begin
      if inv_net.(id) < 0 then
        inv_net.(id) <- Netlist.add nl inv_gate [| p |];
      inv_net.(id)
    end
    else p
  in
  let const_net = Hashtbl.create 2 in
  let out_net l =
    let id = Aig.node_of l in
    if id = 0 then begin
      let b = Aig.is_complemented l in
      match Hashtbl.find_opt const_net b with
      | Some net -> net
      | None ->
          let net = Netlist.add nl (Netlist.Gate.Const b) [||] in
          Hashtbl.add const_net b net;
          net
    end
    else emit_lit l
  in
  Netlist.set_outputs nl (Array.map out_net (Aig.outputs aig));
  nl
