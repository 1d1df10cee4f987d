module Spec = Pla.Spec

type config = {
  seed : int;
  trials_per_site : int;
  confidence : float;
  max_sites : int option;
  time_budget : float option;
  dead_sites : int list;
}

let default_config =
  {
    seed = 42;
    trials_per_site = 1000;
    confidence = 0.95;
    max_sites = None;
    time_budget = None;
    dead_sites = [];
  }

type site_result = {
  site : int;
  gate : string;
  kind : Inject.kind;
  trials : int;
  events : int;
  propagated : int;
  rate : float;
  ci : float * float;
}

type report = {
  config : config;
  results : site_result list;
  sites_total : int;
  sites_done : int;
  complete : bool;
  elapsed : float;
}

type pooled = {
  p_kind : Inject.kind;
  p_sites : int;
  p_events : int;
  p_propagated : int;
  p_rate : float;
  p_ci : float * float;
  p_worst : site_result option;
}

let kind_tag = function
  | Inject.Stuck_at_0 -> 0
  | Inject.Stuck_at_1 -> 1
  | Inject.Transient -> 2

(* Deterministic subsample: partial Fisher-Yates driven by the master
   seed, result re-sorted into topological order. *)
let select_sites ~seed ~max_sites sites =
  match max_sites with
  | None -> sites
  | Some k when k >= List.length sites -> sites
  | Some k ->
      if k <= 0 then invalid_arg "Campaign: max_sites must be positive";
      let arr = Array.of_list sites in
      let rng = Random.State.make [| seed; 0x5174 |] in
      let n = Array.length arr in
      for i = 0 to k - 1 do
        let j = i + Random.State.int rng (n - i) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      List.sort compare (Array.to_list (Array.sub arr 0 k))

let validate_config config spec nl =
  if Netlist.ni nl <> Spec.ni spec then
    invalid_arg "Campaign.run: input count mismatch";
  if config.trials_per_site <= 0 then
    invalid_arg "Campaign.run: trials_per_site must be positive"

(* Statically-dead sites ([Atpg.Engine.dead_sites]: both stem faults
   untestable, so every kind is, since a transient flip pins the node
   to one of the two values on each trial input) are excluded *before*
   the subsample, so --max-sites budgets are spent on faults that can
   matter. *)
let selected_sites config nl =
  let sites =
    match config.dead_sites with
    | [] -> Inject.sites nl
    | dead -> List.filter (fun s -> not (List.mem s dead)) (Inject.sites nl)
  in
  select_sites ~seed:config.seed ~max_sites:config.max_sites sites

(* One work item = one site (all its kinds).  Every (site, kind) pair
   draws from an RNG derived from the master seed alone, so evaluating
   sites concurrently cannot change any rate. *)
let eval_site config spec nl site =
  let gate = Netlist.Gate.name (Netlist.gate nl site) in
  List.map
    (fun kind ->
      let rng = Random.State.make [| config.seed; site; kind_tag kind |] in
      let r =
        Inject.run ~rng ~trials:config.trials_per_site spec nl
          { Inject.node = site; kind }
      in
      let events = r.Inject.trials * Spec.no spec in
      let ci =
        Stats.wilson_interval ~confidence:config.confidence ~trials:events
          ~successes:r.Inject.propagated
      in
      {
        site;
        gate;
        kind;
        trials = r.Inject.trials;
        events;
        propagated = r.Inject.propagated;
        rate = r.Inject.rate;
        ci;
      })
    Inject.all_kinds

let run config spec nl =
  validate_config config spec nl;
  let sites = Array.of_list (selected_sites config nl) in
  let sites_total = Array.length sites in
  let t0 = Unix.gettimeofday () in
  let results = ref [] in
  let complete = ref true in
  let eval_site = eval_site config spec nl in
  let pool = Parallel.Pool.shared () in
  (* Sites are swept in blocks; the time budget is checked between
     blocks.  The first block is a single site, so an undersized
     budget still yields a valid one-site partial report; with one
     job the block size stays 1 and the sweep degenerates to the
     original per-site loop. *)
  let block_size =
    match Parallel.Pool.jobs pool with 1 -> 1 | j -> 2 * j
  in
  let idx = ref 0 in
  (try
     while !idx < sites_total do
       (match config.time_budget with
       | Some budget
         when !idx > 0 && Unix.gettimeofday () -. t0 > budget ->
           complete := false;
           raise Exit
       | _ -> ());
       let len =
         if !idx = 0 then 1 else min block_size (sites_total - !idx)
       in
       let block =
         Parallel.Pool.map ~pool ~chunk:1 eval_site (Array.sub sites !idx len)
       in
       Array.iter
         (fun site_results -> results := List.rev_append site_results !results)
         block;
       idx := !idx + len
     done
   with Exit -> ());
  {
    config;
    results = List.rev !results;
    sites_total;
    sites_done = !idx;
    complete = !complete;
    elapsed = Unix.gettimeofday () -. t0;
  }

let pooled report =
  List.map
    (fun kind ->
      let rs = List.filter (fun r -> r.kind = kind) report.results in
      let p_sites = List.length rs in
      let p_events = List.fold_left (fun acc r -> acc + r.events) 0 rs in
      let p_propagated =
        List.fold_left (fun acc r -> acc + r.propagated) 0 rs
      in
      let p_rate =
        if p_events = 0 then 0.0
        else float_of_int p_propagated /. float_of_int p_events
      in
      let p_ci =
        if p_events = 0 then (0.0, 0.0)
        else
          Stats.wilson_interval ~confidence:report.config.confidence
            ~trials:p_events ~successes:p_propagated
      in
      let p_worst =
        List.fold_left
          (fun acc r ->
            match acc with
            | Some w when w.rate >= r.rate -> acc
            | _ -> Some r)
          None rs
      in
      { p_kind = kind; p_sites; p_events; p_propagated; p_rate; p_ci; p_worst })
    Inject.all_kinds

module J = Rdca_json.Jsonout

let config_to_json c =
  J.Obj
    [
      ("seed", J.Int c.seed);
      ("trials_per_site", J.Int c.trials_per_site);
      ("confidence", J.Float c.confidence);
      ( "kinds",
        J.List
          (List.map (fun k -> J.String (Inject.kind_name k)) Inject.all_kinds)
      );
      ( "max_sites",
        match c.max_sites with Some k -> J.Int k | None -> J.Null );
      ("dead_sites", J.List (List.map (fun s -> J.Int s) c.dead_sites));
    ]

let site_result_to_json r =
  let lo, hi = r.ci in
  J.Obj
    [
      ("site", J.Int r.site);
      ("gate", J.String r.gate);
      ("kind", J.String (Inject.kind_name r.kind));
      ("trials", J.Int r.trials);
      ("events", J.Int r.events);
      ("propagated", J.Int r.propagated);
      ("rate", J.Float r.rate);
      ("ci_lo", J.Float lo);
      ("ci_hi", J.Float hi);
    ]

let report_to_json report =
  let pooled =
    List.map
      (fun p ->
        let lo, hi = p.p_ci in
        J.Obj
          [
            ("kind", J.String (Inject.kind_name p.p_kind));
            ("sites", J.Int p.p_sites);
            ("events", J.Int p.p_events);
            ("propagated", J.Int p.p_propagated);
            ("rate", J.Float p.p_rate);
            ("ci_lo", J.Float lo);
            ("ci_hi", J.Float hi);
          ])
      (pooled report)
  in
  J.Obj
    [
      ("schema_version", J.Int 1);
      ("config", config_to_json report.config);
      ("sites_total", J.Int report.sites_total);
      ("sites_done", J.Int report.sites_done);
      ("complete", J.Bool report.complete);
      ("interrupted", J.Bool false);
      ("elapsed", J.Float report.elapsed);
      ("results", J.List (List.map site_result_to_json report.results));
      ("pooled", J.List pooled);
    ]

let pp_report ppf report =
  let status = if report.complete then "complete" else "PARTIAL" in
  Format.fprintf ppf
    "@[<v>fault campaign: %d/%d sites, %d trials/site, seed %d (%s, %.3f s)@,"
    report.sites_done report.sites_total report.config.trials_per_site
    report.config.seed status report.elapsed;
  Format.fprintf ppf "  %-10s %6s  %8s  %-18s %s@," "kind" "sites" "rate"
    "CI" "worst site";
  List.iter
    (fun p ->
      let lo, hi = p.p_ci in
      let worst =
        match p.p_worst with
        | None -> "-"
        | Some w -> Printf.sprintf "n%d %s (%.4f)" w.site w.gate w.rate
      in
      Format.fprintf ppf "  %-10s %6d  %8.4f  [%.4f, %.4f]   %s@,"
        (Inject.kind_name p.p_kind) p.p_sites p.p_rate lo hi worst)
    (pooled report);
  Format.fprintf ppf "@]"
