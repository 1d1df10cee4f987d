module Solver = Sat.Solver
module Cnf = Sat.Cnf
module Gate = Netlist.Gate
module Spec = Pla.Spec
module J = Rdca_json.Jsonout

type backend = Auto | Sat_engine | Differential

let backends =
  [ ("auto", Auto); ("sat", Sat_engine); ("differential", Differential) ]

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
  sat_queries : int;
}

type report = {
  nodes : node_report list;
  analyzed : int;
  skipped : int;
  nodes_with_dc : int;
  sdc_patterns : int;
  odc_patterns : int;
  disagreements : int;
  sim_decided : int;
  sat_queries : int;
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
(* Auto engine: simulate first, prove with SAT.  The window is compiled
   once into slot arrays — the leaves, the members in id order, then
   one duplicate per TFO node with the centre's duplicate its
   complement — so Gate.eval_words_at runs the miter over words of
   patterns in place and the same arrays give the CNF its literals.  A
   simulated word marks the fanin patterns it produces (reached) and
   those at which a root pair differs (observed); observed patterns are
   care, so only the rest can be don't cares, and every SDC/ODC verdict
   above the cutoff is an UNSAT answer of the solver. *)

type sim = {
  centre : int;
  n_leaf : int;
  gates : Gate.t array;  (* per slot; leaf entries are unused *)
  fanins : int array array;  (* slot indices *)
  vals : int array;  (* the current word of every slot *)
  root_orig : int array;
  root_dup : int array;
  centre_fanins : int array;
  mutable reached : int;  (* fanin patterns some simulated bit produced *)
  mutable observed : int;  (* ... with a root pair differing *)
}

(* Position of [x] in the ascending array [a], or -1. *)
let index_of a x =
  let lo = ref 0 and hi = ref (Array.length a) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let y = a.(mid) in
    if y = x then begin
      found := mid;
      lo := !hi
    end
    else if y < x then lo := mid + 1
    else hi := mid
  done;
  !found

let compile nl (w : Window.t) =
  let leaves = w.Window.leaves and members = w.Window.members in
  let tfo = w.Window.tfo in
  let nleaf = Array.length leaves and nmem = Array.length members in
  let slot n =
    let i = index_of leaves n in
    if i >= 0 then i else nleaf + index_of members n
  in
  let dup n =
    let i = index_of tfo n in
    if i >= 0 then nleaf + nmem + i else slot n
  in
  let n = nleaf + nmem + Array.length tfo in
  let gates = Array.make n Gate.Buf and fanins = Array.make n [||] in
  let fill s g map fis =
    gates.(s) <- g;
    for j = 0 to Array.length fis - 1 do
      fis.(j) <- map fis.(j)
    done;
    fanins.(s) <- fis
  in
  for i = 0 to nmem - 1 do
    let m = members.(i) in
    fill (nleaf + i) (Netlist.gate nl m) slot (Netlist.fanins nl m)
  done;
  for i = 0 to Array.length tfo - 1 do
    let t = tfo.(i) in
    if t = w.Window.center then fill (nleaf + nmem + i) Gate.Not slot [| t |]
    else fill (nleaf + nmem + i) (Netlist.gate nl t) dup (Netlist.fanins nl t)
  done;
  {
    centre = w.Window.center;
    n_leaf = nleaf;
    gates;
    fanins;
    vals = Array.make n 0;
    root_orig = Array.map slot w.Window.roots;
    root_dup = Array.map dup w.Window.roots;
    centre_fanins = Array.map slot (Netlist.fanins nl w.Window.center);
    reached = 0;
    observed = 0;
  }

(* Split the [valid] bits of the current word by the centre's fanin
   values and record, per pattern, whether it occurs and whether
   [diff] is set at one of its occurrences. *)
let rec mark c diff i m w =
  if w <> 0 then
    if i = Array.length c.centre_fanins then begin
      c.reached <- c.reached lor (1 lsl m);
      if w land diff <> 0 then c.observed <- c.observed lor (1 lsl m)
    end
    else begin
      let f = c.vals.(c.centre_fanins.(i)) in
      mark c diff (i + 1) (m lor (1 lsl i)) (w land f);
      mark c diff (i + 1) m (w land lnot f)
    end

(* Evaluate every slot from the leaf words already in [vals], then mark
   the patterns of the [valid] bits. *)
let simulate c ~valid =
  let vals = c.vals in
  for s = c.n_leaf to Array.length vals - 1 do
    vals.(s) <- Gate.eval_words_at c.gates.(s) vals c.fanins.(s)
  done;
  let diff = ref 0 in
  for r = 0 to Array.length c.root_orig - 1 do
    diff := !diff lor (vals.(c.root_orig.(r)) lxor vals.(c.root_dup.(r)))
  done;
  mark c !diff 0 0 valid

(* Exhaustive words carry 32 patterns (a 63-bit int holds no 64): leaf
   [i < 5] takes the fixed in-word pattern, leaf [i >= 5] bit [i - 5]
   of the word index. *)
let in_word = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let simulate_exhaustive c =
  let valid = (1 lsl (1 lsl min c.n_leaf 5)) - 1 in
  for w = 0 to (1 lsl max 0 (c.n_leaf - 5)) - 1 do
    for i = 0 to c.n_leaf - 1 do
      c.vals.(i) <-
        (if i < 5 then in_word.(i)
         else if (w lsr (i - 5)) land 1 = 1 then -1
         else 0)
    done;
    simulate c ~valid
  done

(* Random words before the first solver call, seeded from the centre
   alone so a window's queries do not depend on the job count or on
   the windows analysed before it. *)
let sim_words = 4

let random_word rng =
  let b () = Random.State.bits rng in
  b () lor (b () lsl 30) lor (b () lsl 60)

(* The window miter as CNF over the compiled slots, in slot order. *)
let cnf_of c =
  let s = Solver.create () in
  let b = Cnf.create s in
  let lits = Array.make (Array.length c.vals) 0 in
  for i = 0 to c.n_leaf - 1 do
    lits.(i) <- Cnf.fresh b
  done;
  for i = c.n_leaf to Array.length lits - 1 do
    lits.(i) <-
      Cnf.gate b c.gates.(i) (Array.map (fun f -> lits.(f)) c.fanins.(i))
  done;
  let diff =
    Cnf.or_ b
      (Array.init (Array.length c.root_orig) (fun r ->
           Cnf.xor_ b lits.(c.root_orig.(r)) lits.(c.root_dup.(r))))
  in
  (s, lits, diff)

let auto_masks ~cutoff c =
  let k = Array.length c.centre_fanins in
  let full = (1 lsl (1 lsl k)) - 1 in
  if c.n_leaf <= cutoff then begin
    simulate_exhaustive c;
    (full land lnot c.reached, c.reached land lnot c.observed, 0)
  end
  else begin
    let rng = Random.State.make [| c.centre |] in
    for _ = 1 to sim_words do
      for i = 0 to c.n_leaf - 1 do
        c.vals.(i) <- random_word rng
      done;
      simulate c ~valid:(-1)
    done;
    if c.observed = full then (0, 0, 0)
    else begin
      let s, lits, diff = cnf_of c in
      let queries = ref 0 in
      (* A Sat model becomes one word: bit 0 is the model, bit [i + 1]
         the model with leaf [i] flipped (the first 62 leaves). *)
      let holds assumptions =
        incr queries;
        match Solver.solve ~assumptions s with
        | Solver.Unsat -> false
        | Solver.Sat ->
            for i = 0 to c.n_leaf - 1 do
              let v =
                if Solver.value s (Solver.var_of lits.(i)) then -1 else 0
              in
              c.vals.(i) <- (if i < 62 then v lxor (1 lsl (i + 1)) else v)
            done;
            simulate c ~valid:(-1);
            true
      in
      let sdc = ref 0 and odc = ref 0 in
      for m = 0 to (1 lsl k) - 1 do
        let bit = 1 lsl m in
        if c.observed land bit = 0 then begin
          let assumptions =
            List.init k (fun i ->
                let l = lits.(c.centre_fanins.(i)) in
                if m land (1 lsl i) <> 0 then l else Solver.lnot l)
          in
          if c.reached land bit = 0 && not (holds assumptions) then
            sdc := !sdc lor bit
          else if c.observed land bit = 0 && not (holds (diff :: assumptions))
          then odc := !odc lor bit
        end
      done;
      (!sdc, !odc, !queries)
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-node dispatch. *)

let popcount = Bitvec.Minterm.popcount

let is_candidate nl v =
  v >= Netlist.ni nl
  &&
  match Netlist.gate nl v with
  | Gate.Input _ | Gate.Const _ -> false
  | _ -> Array.length (Netlist.fanins nl v) >= 1

(* [(sdc, odc, agree, solver calls)] of one window.  The per-pattern
   sweep makes one SDC query per pattern plus one ODC query per
   producible pattern. *)
let node_masks nl ~config w =
  let sat () =
    let s, o = sat_masks nl w in
    let k = Array.length (Netlist.fanins nl w.Window.center) in
    (s, o, (2 lsl k) - popcount s)
  in
  let auto () = auto_masks ~cutoff:config.auto_cutoff (compile nl w) in
  match config.backend with
  | Sat_engine ->
      let s, o, q = sat () in
      (s, o, None, q)
  | Auto ->
      let s, o, q = auto () in
      (s, o, None, q)
  | Differential ->
      let s1, o1, q1 = sat () in
      let s2, o2, q2 = auto () in
      if s1 = s2 && o1 = o2 then (s1, o1, Some true, q1 + q2)
      else (s1 land s2, o1 land o2, Some false, q1 + q2)

let analyze_node nl fanouts ~config v =
  let w = Window.extract nl ~fanouts ~depth:config.depth v in
  let sdc, odc, agree, sat_queries = node_masks nl ~config w in
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
    sat_queries;
  }

let masks_of nl ~config v =
  let fanouts = Window.fanouts nl in
  let w = Window.extract nl ~fanouts ~depth:config.depth v in
  let sdc, odc, _, _ = node_masks nl ~config w in
  (sdc, odc)

let build_report ~skipped nodes =
  let analyzed = List.length nodes in
  let with_dc = ref 0 and sdcs = ref 0 and odcs = ref 0 and dis = ref 0 in
  let sim = ref 0 and queries = ref 0 in
  List.iter
    (fun (r : node_report) ->
      if r.sdc lor r.odc <> 0 then incr with_dc;
      sdcs := !sdcs + popcount r.sdc;
      odcs := !odcs + popcount r.odc;
      if r.agree = Some false then incr dis;
      if r.sat_queries = 0 then incr sim;
      queries := !queries + r.sat_queries)
    nodes;
  {
    nodes;
    analyzed;
    skipped;
    nodes_with_dc = !with_dc;
    sdc_patterns = !sdcs;
    odc_patterns = !odcs;
    disagreements = !dis;
    sim_decided = !sim;
    sat_queries = !queries;
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

let node_to_json (r : node_report) =
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
      ("sat_queries", J.Int r.sat_queries);
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
      ("sim_decided", J.Int r.sim_decided);
      ("sat_queries", J.Int r.sat_queries);
      ("nodes", J.List (List.map node_to_json r.nodes));
    ]

let opt_result_to_json r =
  J.Obj
    [
      ("rewritten_nodes", J.Int (List.length r.rewritten));
      ("rewritten", J.List (List.map (fun v -> J.Int v) r.rewritten));
      ("analysis", report_to_json r.opt_report);
    ]
