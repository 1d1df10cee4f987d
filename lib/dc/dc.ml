module Solver = Sat.Solver
module Cnf = Sat.Cnf
module Gate = Netlist.Gate
module Spec = Pla.Spec
module J = Rdca_json.Jsonout

type backend = Auto | Sat_engine | Bdd_engine | Differential

let backends =
  [
    ("auto", Auto);
    ("sat", Sat_engine);
    ("bdd", Bdd_engine);
    ("differential", Differential);
  ]

let backend_name b = fst (List.find (fun (_, b') -> b' = b) backends)

type config = {
  depth : int;
  backend : backend;
  auto_cutoff : int;
  max_arity : int;
}

let default_config =
  { depth = 2; backend = Auto; auto_cutoff = 12; max_arity = Logic.Truth.max_vars }

type node_report = {
  node : int;
  gate_name : string;
  arity : int;
  n_leaves : int;
  n_members : int;
  n_roots : int;
  sdc : int;
  odc : int;
  agree : bool option;
}

type report = {
  nodes : node_report list;
  analyzed : int;
  skipped : int;
  nodes_with_dc : int;
  sdc_patterns : int;
  odc_patterns : int;
  disagreements : int;
}

(* ------------------------------------------------------------------ *)
(* SAT engine: one incremental solver per window.  The clause database
   holds the window logic, the duplicated fanout side and the root
   miter; each local pattern is a pair of assumption queries. *)

let sat_masks nl (w : Window.t) =
  let s = Solver.create () in
  let b = Cnf.create s in
  let lit = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.replace lit l (Cnf.fresh b)) w.Window.leaves;
  Array.iter
    (fun n ->
      let fl = Array.map (Hashtbl.find lit) (Netlist.fanins nl n) in
      Hashtbl.replace lit n (Cnf.gate b (Netlist.gate nl n) fl))
    w.Window.members;
  let in_tfo = Hashtbl.create 16 in
  Array.iter (fun n -> Hashtbl.replace in_tfo n ()) w.Window.tfo;
  let lit2 = Hashtbl.create 16 in
  Hashtbl.replace lit2 w.Window.center
    (Solver.lnot (Hashtbl.find lit w.Window.center));
  Array.iter
    (fun n ->
      if n <> w.Window.center then begin
        let fl =
          Array.map
            (fun f ->
              if Hashtbl.mem in_tfo f then Hashtbl.find lit2 f
              else Hashtbl.find lit f)
            (Netlist.fanins nl n)
        in
        Hashtbl.replace lit2 n (Cnf.gate b (Netlist.gate nl n) fl)
      end)
    w.Window.tfo;
  let diff =
    Cnf.or_ b
      (Array.map
         (fun r -> Cnf.xor_ b (Hashtbl.find lit r) (Hashtbl.find lit2 r))
         w.Window.roots)
  in
  let fis = Netlist.fanins nl w.Window.center in
  let k = Array.length fis in
  let sdc = ref 0 and odc = ref 0 in
  for m = 0 to (1 lsl k) - 1 do
    let assumptions =
      List.init k (fun i ->
          let l = Hashtbl.find lit fis.(i) in
          if m land (1 lsl i) <> 0 then l else Solver.lnot l)
    in
    match Solver.solve ~assumptions s with
    | Solver.Unsat -> sdc := !sdc lor (1 lsl m)
    | Solver.Sat -> (
        match Solver.solve ~assumptions:(diff :: assumptions) s with
        | Solver.Unsat -> odc := !odc lor (1 lsl m)
        | Solver.Sat -> ())
  done;
  (!sdc, !odc)

(* ------------------------------------------------------------------ *)
(* BDD engine: window functions over the leaf variables, exact. *)

let bdd_masks nl (w : Window.t) =
  let nv = Array.length w.Window.leaves in
  let man = Bdd.make_man ~nvars:(max 1 nv) in
  let bdd = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace bdd l (Bdd.var man i)) w.Window.leaves;
  Array.iter
    (fun n ->
      let fb = Array.map (Hashtbl.find bdd) (Netlist.fanins nl n) in
      Hashtbl.replace bdd n (Bdd.of_gate man (Netlist.gate nl n) fb))
    w.Window.members;
  let in_tfo = Hashtbl.create 16 in
  Array.iter (fun n -> Hashtbl.replace in_tfo n ()) w.Window.tfo;
  let bdd2 = Hashtbl.create 16 in
  Hashtbl.replace bdd2 w.Window.center
    (Bdd.bnot man (Hashtbl.find bdd w.Window.center));
  Array.iter
    (fun n ->
      if n <> w.Window.center then begin
        let fb =
          Array.map
            (fun f ->
              if Hashtbl.mem in_tfo f then Hashtbl.find bdd2 f
              else Hashtbl.find bdd f)
            (Netlist.fanins nl n)
        in
        Hashtbl.replace bdd2 n (Bdd.of_gate man (Netlist.gate nl n) fb)
      end)
    w.Window.tfo;
  let miter =
    Array.fold_left
      (fun acc r ->
        Bdd.bor man acc
          (Bdd.bxor man (Hashtbl.find bdd r) (Hashtbl.find bdd2 r)))
      (Bdd.zero man) w.Window.roots
  in
  let fis = Netlist.fanins nl w.Window.center in
  let k = Array.length fis in
  let sdc = ref 0 and odc = ref 0 in
  for m = 0 to (1 lsl k) - 1 do
    let fb = ref (Bdd.one man) in
    for i = 0 to k - 1 do
      let f = Hashtbl.find bdd fis.(i) in
      let f = if m land (1 lsl i) <> 0 then f else Bdd.bnot man f in
      fb := Bdd.band man !fb f
    done;
    if Bdd.is_zero man !fb then sdc := !sdc lor (1 lsl m)
    else if Bdd.is_zero man (Bdd.band man !fb miter) then
      odc := !odc lor (1 lsl m)
  done;
  (!sdc, !odc)

(* ------------------------------------------------------------------ *)
(* Per-node dispatch. *)

let is_candidate nl v =
  v >= Netlist.ni nl
  &&
  match Netlist.gate nl v with
  | Gate.Input _ | Gate.Const _ -> false
  | _ -> Array.length (Netlist.fanins nl v) >= 1

let node_masks nl ~config w =
  let engine =
    match config.backend with
    | Sat_engine -> `Sat
    | Bdd_engine -> `Bdd
    | Differential -> `Both
    | Auto ->
        if Array.length w.Window.leaves <= config.auto_cutoff then `Bdd
        else `Sat
  in
  match engine with
  | `Sat ->
      let s, o = sat_masks nl w in
      (s, o, None)
  | `Bdd ->
      let s, o = bdd_masks nl w in
      (s, o, None)
  | `Both ->
      let s1, o1 = sat_masks nl w in
      let s2, o2 = bdd_masks nl w in
      if s1 = s2 && o1 = o2 then (s1, o1, Some true)
      else (s1 land s2, o1 land o2, Some false)

let analyze_node nl fanouts ~config v =
  let w = Window.extract nl ~fanouts ~depth:config.depth v in
  let sdc, odc, agree = node_masks nl ~config w in
  {
    node = v;
    gate_name = Gate.name (Netlist.gate nl v);
    arity = Array.length (Netlist.fanins nl v);
    n_leaves = Array.length w.Window.leaves;
    n_members = Array.length w.Window.members;
    n_roots = Array.length w.Window.roots;
    sdc;
    odc;
    agree;
  }

let masks_of nl ~config v =
  let fanouts = Window.fanouts nl in
  let w = Window.extract nl ~fanouts ~depth:config.depth v in
  let sdc, odc, _ = node_masks nl ~config w in
  (sdc, odc)

let popcount = Bitvec.Minterm.popcount

let build_report ~skipped nodes =
  let analyzed = List.length nodes in
  let with_dc = ref 0 and sdcs = ref 0 and odcs = ref 0 and dis = ref 0 in
  List.iter
    (fun r ->
      if r.sdc lor r.odc <> 0 then incr with_dc;
      sdcs := !sdcs + popcount r.sdc;
      odcs := !odcs + popcount r.odc;
      if r.agree = Some false then incr dis)
    nodes;
  {
    nodes;
    analyzed;
    skipped;
    nodes_with_dc = !with_dc;
    sdc_patterns = !sdcs;
    odc_patterns = !odcs;
    disagreements = !dis;
  }

let candidates nl ~config =
  let cands = ref [] and skipped = ref 0 in
  Netlist.iter_nodes nl (fun v _ fis ->
      if is_candidate nl v then
        if Array.length fis <= config.max_arity then cands := v :: !cands
        else incr skipped);
  (Array.of_list (List.rev !cands), !skipped)

let analyze ?(config = default_config) nl =
  let fanouts = Window.fanouts nl in
  let cands, skipped = candidates nl ~config in
  let nodes =
    Parallel.Pool.map ~chunk:1
      (fun v -> analyze_node nl fanouts ~config v)
      cands
  in
  build_report ~skipped (Array.to_list nodes)

(* ------------------------------------------------------------------ *)
(* Reliability-driven re-assignment of the recovered DC patterns. *)

type strategy = Ranking of float | Lcf of float | Complete

let strategy_name = function
  | Ranking f -> Printf.sprintf "ranking(%g)" f
  | Lcf t -> Printf.sprintf "lcf(%g)" t
  | Complete -> "complete"

let apply_strategy = function
  | Ranking fraction -> Rdca_core.Assign.ranking ~fraction
  | Lcf threshold -> Rdca_core.Assign.by_complexity ~threshold
  | Complete -> Rdca_core.Assign.complete

(* The node's local function as a 1-output spec with the recovered DC
   set, re-assigned by the paper's machinery; unassigned DCs keep the
   current implementation value. *)
let rewrite_tt g ~arity ~dc strategy =
  let eval m =
    Gate.eval g (Array.init arity (fun i -> m land (1 lsl i) <> 0))
  in
  let spec = Spec.create ~ni:arity ~no:1 ~default:Spec.Off in
  for m = 0 to (1 lsl arity) - 1 do
    let phase =
      if dc land (1 lsl m) <> 0 then Spec.Dc
      else if eval m then Spec.On
      else Spec.Off
    in
    Spec.set spec ~o:0 ~m phase
  done;
  let assigned = apply_strategy strategy spec in
  Logic.Truth.of_fun arity (fun m ->
      match Spec.get assigned ~o:0 ~m with
      | Spec.On -> true
      | Spec.Off -> false
      | Spec.Dc -> eval m)

let current_tt g ~arity =
  Logic.Truth.of_fun arity (fun m ->
      Gate.eval g (Array.init arity (fun i -> m land (1 lsl i) <> 0)))

type opt_result = {
  netlist : Netlist.t;
  opt_report : report;
  rewritten : int list;
}

let optimize ?(config = default_config) ?(strategy = Complete) nl =
  let out = Netlist.copy nl in
  (* Fanouts depend only on structure, which rewrites preserve. *)
  let fanouts = Window.fanouts out in
  let nodes = ref [] and skipped = ref 0 and rewritten = ref [] in
  Netlist.iter_nodes out (fun v _ _ ->
      if is_candidate out v then begin
        let fis = Netlist.fanins out v in
        let arity = Array.length fis in
        if arity > config.max_arity then incr skipped
        else begin
          (* Analyze against the current netlist: each rewrite is
             individually sound, so the sweep composes. *)
          let r = analyze_node out fanouts ~config v in
          nodes := r :: !nodes;
          let dc = r.sdc lor r.odc in
          if dc <> 0 then begin
            let g = Netlist.gate out v in
            let tt = current_tt g ~arity in
            let tt' = rewrite_tt g ~arity ~dc strategy in
            if tt' <> tt then begin
              let cell =
                match g with
                | Gate.Cell c -> Gate.Cell { c with Gate.tt = tt' }
                | _ ->
                    Gate.Cell
                      {
                        Gate.cell_name =
                          "dc-" ^ String.lowercase_ascii (Gate.name g);
                        tt = tt';
                        arity;
                        area = 1.0;
                        delay = 1.0;
                        input_cap = 1.0;
                      }
              in
              Netlist.replace_gate out v cell;
              rewritten := v :: !rewritten
            end
          end
        end
      end);
  {
    netlist = out;
    opt_report = build_report ~skipped:!skipped (List.rev !nodes);
    rewritten = List.rev !rewritten;
  }

(* ------------------------------------------------------------------ *)
(* JSON forms. *)

let node_to_json r =
  J.Obj
    [
      ("node", J.Int r.node);
      ("gate", J.String r.gate_name);
      ("arity", J.Int r.arity);
      ("leaves", J.Int r.n_leaves);
      ("members", J.Int r.n_members);
      ("roots", J.Int r.n_roots);
      ("sdc_mask", J.Int r.sdc);
      ("odc_mask", J.Int r.odc);
      ("sdc_patterns", J.Int (popcount r.sdc));
      ("odc_patterns", J.Int (popcount r.odc));
      ( "backends_agree",
        match r.agree with None -> J.Null | Some v -> J.Bool v );
    ]

let report_to_json r =
  J.Obj
    [
      ("analyzed", J.Int r.analyzed);
      ("skipped", J.Int r.skipped);
      ("nodes_with_dc", J.Int r.nodes_with_dc);
      ("sdc_patterns", J.Int r.sdc_patterns);
      ("odc_patterns", J.Int r.odc_patterns);
      ("disagreements", J.Int r.disagreements);
      ("nodes", J.List (List.map node_to_json r.nodes));
    ]

let opt_result_to_json r =
  J.Obj
    [
      ("rewritten_nodes", J.Int (List.length r.rewritten));
      ("rewritten", J.List (List.map (fun v -> J.Int v) r.rewritten));
      ("analysis", report_to_json r.opt_report);
    ]
