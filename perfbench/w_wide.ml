(* wide-analysis: what `rdca estimate` computes — exact or sampled
   min/max DC bounds plus the Section 5 signal- and border-based
   estimates, backend Auto — on fresh cube-level problems of 18-48
   inputs, on both sides of Auto's 40-input BDD ceiling. *)

module A = Reliability.Analysis
module Est = Reliability.Estimate

(* Input counts; one-output problems with five on-cubes and four DC
   cubes, each cube fixing a variable with probability 0.6.  Six
   on-cubes at 0.55 made the BDDs, and with them the peak heap, vary
   by half from seed to seed. *)
let widths = [ 18; 20; 24; 28; 32; 36; 40; 44; 48 ]
let per_width = 8
let on_cubes = 5
let dc_cubes = 4
let lit_prob = 0.6

type result = { bounds : A.bounds; signal : Est.interval; border : Est.interval }

let value_key = function
  | A.Exact v -> Op.float_key v
  | A.Interval { est; lo; hi } ->
      Printf.sprintf "%s[%s,%s]" (Op.float_key est) (Op.float_key lo) (Op.float_key hi)

let interval_key (i : Est.interval) =
  Printf.sprintf "[%s,%s]" (Op.float_key i.Est.lo) (Op.float_key i.Est.hi)

let same_value a b = value_key a = value_key b

let triple (b : A.bounds) = [ b.A.base; b.A.min_dc; b.A.max_dc ]

(* Two-sided binomial tail probability of [x] successes in [n] draws at
   rate [p], summed exactly in log space.  A sampled proportion this
   improbable under the exact rate means the sampler or the exact
   engine is wrong; a Wilson interval is not used as the judge because
   it under-covers when only a handful of draws succeed. *)
let binomial_pvalue ~n ~p ~x =
  if p <= 0.0 then if x = 0 then 1.0 else 0.0
  else if p >= 1.0 then if x = n then 1.0 else 0.0
  else begin
    let lp = Array.make (n + 1) 0.0 in
    lp.(0) <- float_of_int n *. Float.log1p (-.p);
    let odds = log p -. Float.log1p (-.p) in
    for k = 0 to n - 1 do
      lp.(k + 1) <-
        lp.(k) +. log (float_of_int (n - k)) -. log (float_of_int (k + 1)) +. odds
    done;
    let tail lo hi =
      let m = ref neg_infinity in
      for k = lo to hi do
        m := Float.max !m lp.(k)
      done;
      let s = ref 0.0 in
      for k = lo to hi do
        s := !s +. exp (lp.(k) -. !m)
      done;
      exp (!m +. log !s)
    in
    Float.min 1.0 (2.0 *. Float.min (tail 0 x) (tail x n))
  end

let consistent ~sampled ~exact =
  let n = A.default_params.A.samples in
  let x = int_of_float (Float.round (A.value_est sampled *. float_of_int n)) in
  binomial_pvalue ~n ~p:(A.value_est exact) ~x >= 1e-9

(* Independent oracles: the dense exhaustive engines up to 20 inputs;
   beyond, the exact BDD values against the sampler's draw counts. *)
let check ~ni ~sets ~backend r =
  match backend with
  | A.Bdd_exact when ni <= 20 ->
      let spec =
        Pla.Spec.of_covers ~ni
          (List.map
             (function
               | Pla.Fd_sets { on; dc } -> (on, dc)
               | Pla.Fr_sets _ -> invalid_arg "W_wide: unexpected fr cover")
             sets)
      in
      let dense = A.of_spec spec in
      let e = A.mean_bounds ~backend:A.Exhaustive dense in
      let s = A.mean_signal_interval ~backend:A.Exhaustive dense in
      let b = A.mean_border_interval ~backend:A.Exhaustive dense in
      if not (List.for_all2 same_value (triple r.bounds) (triple e)) then
        Some "BDD bounds differ from the exhaustive engine"
      else if interval_key s <> interval_key r.signal || interval_key b <> interval_key r.border
      then Some "BDD estimates differ from the exhaustive engine"
      else None
  | A.Bdd_exact ->
      let s = A.mean_bounds ~backend:A.Sampled (A.of_cover_sets ~ni sets) in
      if List.for_all2 (fun sampled exact -> consistent ~sampled ~exact) (triple s) (triple r.bounds)
      then None
      else Some "exact BDD bounds improbable under the sampler's draws"
  | A.Sampled ->
      let exact = A.mean_bounds ~backend:A.Bdd_exact (A.of_cover_sets ~ni sets) in
      if List.for_all2 (fun sampled exact -> consistent ~sampled ~exact) (triple r.bounds) (triple exact)
      then None
      else Some "sampled bounds improbable under the exact BDD values"
  | A.Exhaustive | A.Auto -> Some "unexpected backend"

let outcome ~ni ~sets ~backend ~layer r =
  let summary () =
    {
      (* No netlist, hence no area or implementation error rate. *)
      Op.areas = [];
      error_rates = [];
      work = [ ("backend", match backend with A.Bdd_exact -> 1 | A.Sampled -> 2 | _ -> 0) ];
      key =
        String.concat " "
          (List.map value_key (triple r.bounds)
          @ [ interval_key r.signal; interval_key r.border ]);
    }
  in
  { Op.summary; check = (fun () -> check ~ni ~sets ~backend r); layer }

type query = { query : 'a. (unit -> 'a) -> 'a }

let queries { query } t =
  let bounds = query (fun () -> A.mean_bounds ~backend:A.Auto t) in
  let signal = query (fun () -> A.mean_signal_interval ~backend:A.Auto t) in
  let border = query (fun () -> A.mean_border_interval ~backend:A.Auto t) in
  { bounds; signal; border }

let run ~ni ~sets t =
  let backend = A.resolve t A.Auto in
  outcome ~ni ~sets ~backend ~layer:[]
    (queries { query = (fun f -> f ()) } t)

(* Each query gets a span named by the engine Auto resolves to; the
   first query on a fresh problem also builds its lazy symbolic form,
   later ones reuse the problem's memos. *)
let replay tr ~ni ~sets t =
  let backend = A.resolve t A.Auto in
  let engine = match backend with A.Sampled -> "analysis.sampled" | _ -> "analysis.bdd" in
  let first = ref 0.0 and later = ref 0.0 and n = ref 0 in
  let query f =
    let t0 = Unix.gettimeofday () in
    let v = Spans.span tr engine f in
    let dt = Unix.gettimeofday () -. t0 in
    if !n = 0 then first := !first +. dt else later := !later +. dt;
    incr n;
    v
  in
  let r = queries { query } t in
  outcome ~ni ~sets ~backend
    ~layer:[ ("analysis.first_query_s", !first); ("analysis.memo_query_s", !later) ]
    r

let setup ~seed =
  let bases =
    Array.of_list
      (List.concat
         (List.mapi
            (fun wi ni ->
              List.init per_width (fun j ->
                  let rng = Gen.rng ~seed ~index:(4000 + (wi * 100) + j) in
                  let sets =
                    Synthetic.Synth_gen.random_cover_sets ~rng ~ni ~no:1 ~on_cubes
                      ~dc_cubes ~lit_prob
                  in
                  (Printf.sprintf "n%d#%d" ni j, ni, sets)))
            widths))
  in
  {
    Op.labels = Array.map (fun (l, _, _) -> l) bases;
    inputs_digest = Gen.digest (Array.map (fun (_, ni, s) -> (ni, s)) bases);
    prepare_round =
      (fun () ->
        Array.map
          (fun (_, ni, sets) ->
            let t = A.of_cover_sets ~ni sets in
            { Op.run = (fun () -> run ~ni ~sets t); replay = (fun tr -> replay tr ~ni ~sets t) })
          bases);
    warmup = List.init (List.length widths) (fun wi -> wi * per_width);
  }
