module Gate = Netlist.Gate
module Solver = Sat.Solver
module Cnf = Sat.Cnf
module J = Rdca_json.Jsonout

type backend = Auto | Sat_engine | Exhaustive | Differential

let backends =
  [
    ("auto", Auto);
    ("sat", Sat_engine);
    ("exhaustive", Exhaustive);
    ("differential", Differential);
  ]

let backend_name b = fst (List.find (fun (_, b') -> b' = b) backends)

type config = { backend : backend; collapse : Fault.mode; auto_cutoff : int }

let default_config =
  { backend = Auto; collapse = Fault.Equivalence; auto_cutoff = 12 }

type verdict = Testable | Untestable

let verdict_name = function Testable -> "testable" | Untestable -> "untestable"

type fault_result = {
  rep : Fault.t;
  members : Fault.t list;
  class_size : int;
  verdict : verdict;
  witness : int option;
  via_dominance : bool;
  agree : bool option;
}

type report = {
  ni : int;
  backend : backend;
  collapse : Fault.mode;
  total_faults : int;
  classes : int;
  results : fault_result list;
  testable : int;
  untestable : int;
  coverage : float;
  collapse_ratio : float;
  disagreements : int;
}

let span_analyze = Prof.span "atpg.analyze"
let faults_counter = Prof.counter "atpg.classes"

(* The nodes whose value can change under the fault: the fault node
   and its transitive fanout. *)
let affected_set nl (f : Fault.t) =
  let n = Netlist.node_count nl in
  let affected = Array.make n false in
  affected.(f.Fault.node) <- true;
  Netlist.iter_nodes nl (fun v _ fis ->
      if v <> f.Fault.node && Array.exists (fun i -> affected.(i)) fis then
        affected.(v) <- true);
  affected

let any_affected_output nl affected =
  Array.exists (fun o -> affected.(o)) (Netlist.outputs nl)

(* SAT backend: good circuit in full, faulty copy only over the
   affected cone, miter = OR of XORs over reachable outputs. *)
let sat_decide nl (f : Fault.t) =
  let affected = affected_set nl f in
  if not (any_affected_output nl affected) then (Untestable, None)
  else begin
    let ni = Netlist.ni nl in
    let s = Solver.create () in
    let b = Cnf.create s in
    let n = Netlist.node_count nl in
    let good = Array.make n 0 in
    let invars = Array.make ni 0 in
    for i = 0 to ni - 1 do
      let l = Cnf.fresh b in
      good.(i) <- l;
      invars.(i) <- Solver.var_of l
    done;
    Netlist.iter_nodes nl (fun v g fis ->
        good.(v) <- Cnf.gate b g (Array.map (fun i -> good.(i)) fis));
    let bad = Array.copy good in
    (match f.Fault.pin with
    | Fault.Stem -> bad.(f.Fault.node) <- Cnf.const b f.Fault.stuck
    | Fault.Branch j ->
        let fis = Netlist.fanins nl f.Fault.node in
        let lits =
          Array.mapi
            (fun k i -> if k = j then Cnf.const b f.Fault.stuck else good.(i))
            fis
        in
        bad.(f.Fault.node) <- Cnf.gate b (Netlist.gate nl f.Fault.node) lits);
    Netlist.iter_nodes nl (fun v g fis ->
        if v <> f.Fault.node && affected.(v) then
          bad.(v) <- Cnf.gate b g (Array.map (fun i -> bad.(i)) fis));
    let diffs =
      Array.to_list (Netlist.outputs nl)
      |> List.filter (fun o -> affected.(o))
      |> List.map (fun o -> Cnf.xor_ b good.(o) bad.(o))
    in
    Solver.add_clause s [ Cnf.or_ b (Array.of_list diffs) ];
    match Solver.solve s with
    | Solver.Unsat -> (Untestable, None)
    | Solver.Sat ->
        let witness =
          if ni > 62 then None
          else begin
            let m = ref 0 in
            for i = 0 to ni - 1 do
              if Solver.value s invars.(i) then m := !m lor (1 lsl i)
            done;
            Some !m
          end
        in
        (Testable, witness)
  end

(* Exhaustive backend: word-parallel good/faulty simulation, 63 input
   patterns per machine word, faulty words only over the affected
   cone.  Exact for ni <= 20. *)
let exhaustive_decide nl (f : Fault.t) =
  let ni = Netlist.ni nl in
  if ni > 20 then
    invalid_arg "Atpg.Engine: exhaustive backend requires ni <= 20";
  let affected = affected_set nl f in
  if not (any_affected_output nl affected) then (Untestable, None)
  else begin
    let n = Netlist.node_count nl in
    let size = 1 lsl ni in
    let good = Array.make n 0 and bad = Array.make n 0 in
    let outs = Netlist.outputs nl in
    let witness = ref None in
    let base = ref 0 in
    while !witness = None && !base < size do
      let chunk = min 63 (size - !base) in
      for i = 0 to ni - 1 do
        let w = ref 0 in
        for t = 0 to chunk - 1 do
          if (!base + t) land (1 lsl i) <> 0 then w := !w lor (1 lsl t)
        done;
        good.(i) <- !w;
        bad.(i) <- !w
      done;
      Netlist.iter_nodes nl (fun v g fis ->
          good.(v) <- Gate.eval_words_at g good fis;
          bad.(v) <-
            (if not affected.(v) then good.(v)
             else if v = f.Fault.node then
               match f.Fault.pin with
               | Fault.Stem -> if f.Fault.stuck then -1 else 0
               | Fault.Branch j ->
                   let ws = Array.map (fun i -> bad.(i)) fis in
                   ws.(j) <- (if f.Fault.stuck then -1 else 0);
                   Gate.eval_words_at g ws
                     (Array.init (Array.length fis) Fun.id)
             else Gate.eval_words_at g bad fis));
      let mask = if chunk = 63 then -1 else (1 lsl chunk) - 1 in
      let diff = ref 0 in
      Array.iter
        (fun o ->
          if affected.(o) then
            diff := !diff lor (good.(o) lxor bad.(o) land mask))
        outs;
      diff := !diff land mask;
      if !diff <> 0 then begin
        let t = ref 0 in
        while !diff land (1 lsl !t) = 0 do
          incr t
        done;
        witness := Some (!base + !t)
      end;
      base := !base + chunk
    done;
    match !witness with
    | Some m -> (Testable, Some m)
    | None -> (Untestable, None)
  end

type decision = {
  d_verdict : verdict;
  d_witness : int option;
  d_agree : bool option;
}

let resolve_backend (config : config) ni =
  match config.backend with
  | Auto -> if ni <= config.auto_cutoff && ni <= 20 then `Exhaustive else `Sat
  | Sat_engine -> `Sat
  | Exhaustive -> `Exhaustive
  | Differential -> `Differential

let decide nl config f =
  let ni = Netlist.ni nl in
  match resolve_backend config ni with
  | `Sat ->
      let v, w = sat_decide nl f in
      { d_verdict = v; d_witness = w; d_agree = None }
  | `Exhaustive ->
      let v, w = exhaustive_decide nl f in
      { d_verdict = v; d_witness = w; d_agree = None }
  | `Differential ->
      let v', _ = exhaustive_decide nl f in
      let v, w = sat_decide nl f in
      { d_verdict = v; d_witness = w; d_agree = Some (v = v') }

let analyze ?(config = default_config) nl =
  Prof.time span_analyze @@ fun () ->
  let ni = Netlist.ni nl in
  let collapsed = Fault.collapse ~mode:config.collapse nl in
  let classes = collapsed.Fault.classes in
  let k = Array.length classes in
  Prof.add faults_counter k;
  let results : fault_result option array = Array.make k None in
  let decide_indices idxs =
    let idxs = Array.of_list idxs in
    let out =
      Parallel.Pool.map ~chunk:1
        (fun i -> decide nl config classes.(i).Fault.rep)
        idxs
    in
    Array.iteri
      (fun p i ->
        let d = out.(p) in
        let c = classes.(i) in
        results.(i) <-
          Some
            {
              rep = c.Fault.rep;
              members = c.Fault.members;
              class_size = List.length c.Fault.members;
              verdict = d.d_verdict;
              witness = d.d_witness;
              via_dominance = false;
              agree = d.d_agree;
            })
      idxs
  in
  let all = List.init k Fun.id in
  decide_indices
    (List.filter (fun i -> classes.(i).Fault.implied_by = None) all);
  (* Dominated classes: a testable dominator-source hands over its
     witness; an untestable one proves nothing, so those classes (and
     any implied_by cycles) fall back to direct analysis. *)
  let pending =
    ref (List.filter (fun i -> classes.(i).Fault.implied_by <> None) all)
  in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let direct = ref [] and still = ref [] in
    List.iter
      (fun i ->
        match classes.(i).Fault.implied_by with
        | None -> assert false
        | Some src -> (
            match results.(src) with
            | Some r when r.verdict = Testable ->
                let c = classes.(i) in
                results.(i) <-
                  Some
                    {
                      rep = c.Fault.rep;
                      members = c.Fault.members;
                      class_size = List.length c.Fault.members;
                      verdict = Testable;
                      witness = r.witness;
                      via_dominance = true;
                      agree = None;
                    };
                progress := true
            | Some _ ->
                direct := i :: !direct;
                progress := true
            | None -> still := i :: !still))
      !pending;
    decide_indices (List.rev !direct);
    pending := List.rev !still
  done;
  (* Cycles among implied_by hints (possible only through degenerate
     merges) are broken by analysing them directly. *)
  decide_indices !pending;
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  in
  let testable, untestable =
    List.fold_left
      (fun (t, u) r ->
        match r.verdict with
        | Testable -> (t + r.class_size, u)
        | Untestable -> (t, u + r.class_size))
      (0, 0) results
  in
  let disagreements =
    List.length (List.filter (fun r -> r.agree = Some false) results)
  in
  {
    ni;
    backend = config.backend;
    collapse = config.collapse;
    total_faults = collapsed.Fault.total;
    classes = k;
    results;
    testable;
    untestable;
    coverage =
      (if collapsed.Fault.total = 0 then 1.0
       else float_of_int testable /. float_of_int collapsed.Fault.total);
    collapse_ratio =
      (if k = 0 then 1.0
       else float_of_int collapsed.Fault.total /. float_of_int k);
    disagreements;
  }

let untestable_classes report =
  List.filter (fun r -> r.verdict = Untestable) report.results

let verdict_table report =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun r -> List.iter (fun f -> Hashtbl.replace tbl f r) r.members)
    report.results;
  tbl

let pin_to_json = function
  | Fault.Stem -> J.String "stem"
  | Fault.Branch j -> J.Int j

let fault_to_json (f : Fault.t) =
  J.Obj
    [
      ("node", J.Int f.Fault.node);
      ("pin", pin_to_json f.Fault.pin);
      ("stuck", J.Int (if f.Fault.stuck then 1 else 0));
    ]

let fault_result_to_json r =
  J.Obj
    ([
       ("fault", fault_to_json r.rep);
       ("class_size", J.Int r.class_size);
       ("verdict", J.String (verdict_name r.verdict));
     ]
    @ (match r.witness with Some m -> [ ("witness", J.Int m) ] | None -> [])
    @ (if r.via_dominance then [ ("via_dominance", J.Bool true) ] else [])
    @
    match r.agree with Some a -> [ ("agree", J.Bool a) ] | None -> [])

let report_to_json r =
  J.Obj
    [
      ("backend", J.String (backend_name r.backend));
      ("collapse", J.String (Fault.mode_name r.collapse));
      ("ni", J.Int r.ni);
      ("total_faults", J.Int r.total_faults);
      ("classes", J.Int r.classes);
      ("collapse_ratio", J.Float r.collapse_ratio);
      ("testable", J.Int r.testable);
      ("untestable", J.Int r.untestable);
      ("coverage", J.Float r.coverage);
      ("disagreements", J.Int r.disagreements);
      ("faults", J.List (List.map fault_result_to_json r.results));
    ]
