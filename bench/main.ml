(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed as aligned text tables), then runs
   bechamel micro-benchmarks of the core kernels.  Each section runs
   at one job and again at N jobs, and the harness asserts both runs
   produce bit-identical results.  With --json FILE it also writes a
   JSON record: per-section wall-clock for each run, the parallel
   speedup, the identical-results verdict, and a few key result
   scalars — a machine-checkable regression record for CI.  Without
   --json nothing is written.

   Usage:
     dune exec bench/main.exe                  # everything, laptop-scale
     dune exec bench/main.exe -- table2        # one section
     dune exec bench/main.exe -- --full        # paper-scale sweeps
     dune exec bench/main.exe -- --jobs 4      # worker domains (also RDCA_JOBS)
     dune exec bench/main.exe -- --profile     # span timing on (also RDCA_PROF)
     dune exec bench/main.exe -- --json BENCH_results.json  # re-record
   Sections: table1 fig2 fig4 fig5 fig6 table2 table3 ablations nodal
   check-ex1010 errbounds-ex1010 backends dc-extract testability micro

   With --json, SIGINT/SIGTERM flushes the JSON with the sections
   finished so far and "interrupted": true.

   Exits non-zero if any section's parallel results differ from
   sequential, or a correctness section reports a mismatch. *)

module E = Rdca_flow.Experiments
module T = Rdca_flow.Tablefmt
module J = Rdca_json.Jsonout
module Profjson = Rdca_json.Profjson
module Pool = Parallel.Pool
module Interrupt = Resilient.Interrupt

type table = { title : string; header : string list; rows : string list list }

type outcome = { tables : table list; scalars : (string * float) list }

(* Everything that reaches the user, rendered to a canonical string:
   two runs are "identical" iff their signatures match. *)
let signature o =
  String.concat "\n"
    (List.map (fun t -> String.concat "|" (List.concat t.rows)) o.tables)
  ^ String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) o.scalars)

(* Sections that compare two engines feed any divergence straight into
   this list; the harness exits non-zero when it is not empty. *)
let mismatches = ref []

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)

let run_table1 ~full:_ () =
  let rows = E.table1 () in
  {
    tables =
      [
        {
          title = "Table 1: benchmark properties (measured vs paper)";
          header =
            [
              "name"; "in"; "out"; "%DC"; "E[Cf]"; "E[Cf] paper"; "Cf";
              "Cf paper";
            ];
          rows =
            List.map
              (fun r ->
                [
                  r.E.t1_name;
                  string_of_int r.E.t1_ni;
                  string_of_int r.E.t1_no;
                  T.pct r.E.t1_dc_pct;
                  T.f3 r.E.t1_ecf;
                  T.f3 r.E.t1_paper_ecf;
                  T.f3 r.E.t1_cf;
                  T.f3 r.E.t1_paper_cf;
                ])
              rows;
        };
      ];
    scalars =
      [
        ("benchmarks", float_of_int (List.length rows));
        ("mean_cf", mean (List.map (fun r -> r.E.t1_cf) rows));
      ];
  }

let run_fig2 ~full () =
  (* Per-task splittable streams are keyed off this seed, so every
     job-count run reproduces the same functions. *)
  let per_target = if full then 10 else 3 in
  let rows = E.fig2 ~per_target ~seed:2011 () in
  {
    tables =
      [
        {
          title =
            "Figure 2: minimised SOP size vs complexity factor (10-in/1-out \
             synthetics)";
          header = [ "target Cf"; "measured Cf"; "SOP implicants" ];
          rows =
            List.map
              (fun p ->
                [
                  T.f2 p.E.f2_target;
                  T.f3 p.E.f2_measured_cf;
                  string_of_int p.E.f2_sop;
                ])
              rows;
        };
      ];
    scalars =
      [
        ("points", float_of_int (List.length rows));
        ("mean_sop", mean (List.map (fun p -> float_of_int p.E.f2_sop) rows));
      ];
  }

(* The fraction sweep feeds both fig4 and fig5; cache it per
   (full, jobs) key — the laptop and --full grids differ, and the
   harness deliberately re-runs each section per job count, so any
   ingredient changing must invalidate the cache. *)
let sweep_fractions ~full =
  if full then Array.init 11 (fun i -> float_of_int i /. 10.0)
  else [| 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 |]

let sweep_cache : ((bool * int) * E.sweep_row list) list ref = ref []

let get_sweep ~full () =
  let key = (full, Pool.jobs (Pool.shared ())) in
  match List.assoc_opt key !sweep_cache with
  | Some s -> s
  | None ->
      let s = E.sweep ~fractions:(sweep_fractions ~full) () in
      sweep_cache := (key, s) :: !sweep_cache;
      s

let run_fig4 ~full () =
  let sweep = get_sweep ~full () in
  let rows = E.fig4_of_sweep sweep in
  let fractions =
    match sweep with r :: _ -> r.E.sw_fractions | [] -> sweep_fractions ~full
  in
  {
    tables =
      [
        {
          title =
            "Figure 4: normalised error rate vs fraction of DCs \
             ranking-assigned";
          header =
            ("name"
            :: Array.to_list
                 (Array.map (fun f -> Printf.sprintf "f=%.1f" f) fractions));
          rows =
            List.map
              (fun (name, norms) ->
                name :: Array.to_list (Array.map T.f3 norms))
              rows;
        };
      ];
    scalars =
      [
        ("benchmarks", float_of_int (List.length rows));
        ( "mean_norm_error_full_assign",
          mean (List.map (fun (_, n) -> n.(Array.length n - 1)) rows) );
      ];
  }

let run_fig5 ~full () =
  let stats = E.fig5_of_sweep (get_sweep ~full ()) in
  let last_delay_area =
    List.fold_left
      (fun acc s ->
        match s.E.f5_mode with
        | Techmap.Mapper.Delay -> (fun (a, _, _) -> a) s.E.f5_mean
        | _ -> acc)
      1.0 stats
  in
  {
    tables =
      [
        {
          title =
            "Figure 5: normalised min/mean/max area, delay, power vs fraction \
             (per optimisation mode)";
          header =
            [
              "mode"; "frac"; "area min"; "area mean"; "area max"; "delay min";
              "delay mean"; "delay max"; "power min"; "power mean"; "power max";
            ];
          rows =
            List.map
              (fun s ->
                let amin, dmin, pmin = s.E.f5_min in
                let amean, dmean, pmean = s.E.f5_mean in
                let amax, dmax, pmax = s.E.f5_max in
                [
                  Techmap.Mapper.mode_name s.E.f5_mode;
                  T.f2 s.E.f5_fraction;
                  T.f2 amin; T.f2 amean; T.f2 amax;
                  T.f2 dmin; T.f2 dmean; T.f2 dmax;
                  T.f2 pmin; T.f2 pmean; T.f2 pmax;
                ])
              stats;
        };
      ];
    scalars = [ ("mean_area_ratio_delay_mode_last", last_delay_area) ];
  }

let run_fig6 ~full () =
  let funcs = if full then 10 else 2 in
  let families = E.fig6 ~funcs_per_family:funcs ~seed:66 () in
  {
    tables =
      [
        {
          title =
            "Figure 6: normalised area vs normalised error rate, by Cf family \
             (11-in/11-out, 60% DC; fraction sweep 0..1)";
          header = [ "Cf family"; "fraction"; "norm area"; "norm error" ];
          rows =
            List.concat_map
              (fun fam ->
                List.map
                  (fun p ->
                    [
                      T.f2 fam.E.f6_cf;
                      T.f2 p.E.f6_fraction;
                      T.f3 p.E.f6_area;
                      T.f3 p.E.f6_error;
                    ])
                  fam.E.f6_points)
              families;
        };
      ];
    scalars = [ ("families", float_of_int (List.length families)) ];
  }

let run_table2 ~full:_ () =
  let rows = E.table2 () in
  {
    tables =
      [
        {
          title =
            "Table 2: complexity-factor-based assignment results \
             (improvement %, negative = overhead)";
          header =
            [
              "name"; "Cf"; "LCf area"; "LCf E.R."; "Rank area"; "Rank E.R.";
              "Compl area"; "Compl E.R.";
            ];
          rows =
            List.map
              (fun r ->
                [
                  r.E.t2_name;
                  T.f3 r.E.t2_cf;
                  T.pct r.E.t2_lcf_area;
                  T.pct r.E.t2_lcf_er;
                  T.pct r.E.t2_rank_area;
                  T.pct r.E.t2_rank_er;
                  T.pct r.E.t2_comp_area;
                  T.pct r.E.t2_comp_er;
                ])
              rows;
        };
      ];
    scalars =
      [
        ("mean_lcf_er_impr", mean (List.map (fun r -> r.E.t2_lcf_er) rows));
        ("mean_rank_er_impr", mean (List.map (fun r -> r.E.t2_rank_er) rows));
        ("mean_comp_er_impr", mean (List.map (fun r -> r.E.t2_comp_er) rows));
      ];
  }

let run_table3 ~full:_ () =
  let rows = E.table3 () in
  {
    tables =
      [
        {
          title = "Table 3: min-max reliability estimates";
          header =
            [
              "name"; "gates"; "exact lo"; "exact hi"; "signal lo"; "signal hi";
              "border lo"; "border hi"; "conv rate"; "conv %diff"; "LCf rate";
              "LCf %diff";
            ];
          rows =
            List.map
              (fun r ->
                let xl, xh = r.E.t3_exact in
                let sl, sh = r.E.t3_signal in
                let bl, bh = r.E.t3_border in
                [
                  r.E.t3_name;
                  string_of_int r.E.t3_gates;
                  T.f3 xl; T.f3 xh; T.f3 sl; T.f3 sh; T.f3 bl; T.f3 bh;
                  T.f3 r.E.t3_conv_rate; T.pct r.E.t3_conv_diff;
                  T.f3 r.E.t3_lcf_rate; T.pct r.E.t3_lcf_diff;
                ])
              rows;
        };
      ];
    scalars =
      [
        ( "mean_exact_lo",
          mean (List.map (fun r -> fst r.E.t3_exact) rows) );
        ("mean_conv_rate", mean (List.map (fun r -> r.E.t3_conv_rate) rows));
      ];
  }

let run_ablations ~full:_ () =
  let thr = E.ablation_threshold ~name:"ex1010" () in
  let nm = E.ablation_neighbour_model () in
  let bal = E.ablation_balance () in
  let sh =
    E.ablation_sharing
      ~names:[ "bench"; "fout"; "p3"; "test4"; "ex1010"; "exam" ]
      ()
  in
  let fc =
    E.ablation_factoring
      ~names:[ "bench"; "fout"; "p3"; "test4"; "ex1010"; "exam" ]
      ()
  in
  let mb = E.ablation_multibit ~names:[ "bench"; "test4"; "ex1010" ] () in
  {
    tables =
      [
        {
          title = "Ablation: LCf threshold sweep on ex1010 (improvement %)";
          header = [ "threshold"; "area"; "error rate" ];
          rows = List.map (fun (t, a, e) -> [ T.f2 t; T.pct a; T.pct e ]) thr;
        };
        {
          title =
            "Ablation: Poisson vs binomial neighbour model (border-based \
             bounds)";
          header =
            [
              "name"; "poisson lo"; "poisson hi"; "binom lo"; "binom hi";
              "exact lo"; "exact hi";
            ];
          rows =
            List.map
              (fun (name, (pl, ph), (bl, bh), (xl, xh)) ->
                [ name; T.f3 pl; T.f3 ph; T.f3 bl; T.f3 bh; T.f3 xl; T.f3 xh ])
              nm;
        };
        {
          title = "Ablation: AIG balancing effect on critical path (ns)";
          header = [ "name"; "with balance"; "without" ];
          rows = List.map (fun (name, w, wo) -> [ name; T.f3 w; T.f3 wo ]) bal;
        };
        {
          title =
            "Ablation: per-output vs shared-cube (multi-output espresso) \
             minimisation";
          header =
            [
              "name"; "area single"; "area shared"; "cubes single";
              "cubes shared";
            ];
          rows =
            List.map
              (fun (name, a1, a2, c1, c2) ->
                [ name; T.f2 a1; T.f2 a2; string_of_int c1; string_of_int c2 ])
              sh;
        };
        {
          title =
            "Ablation: flat SOP vs algebraically factored AIG construction";
          header =
            [ "name"; "area flat"; "area factored"; "nodes flat";
              "nodes factored" ];
          rows =
            List.map
              (fun (name, a1, a2, n1, n2) ->
                [ name; T.f2 a1; T.f2 a2; string_of_int n1; string_of_int n2 ])
              fc;
        };
        {
          title = "Ablation: single-bit-tuned assignment under k-bit input errors";
          header = [ "name"; "k"; "conv rate"; "complete rate"; "improvement %" ];
          rows =
            List.map
              (fun (name, k, rc, rr, impr) ->
                [ name; string_of_int k; T.f3 rc; T.f3 rr; T.pct impr ])
              mb;
        };
      ];
    scalars = [ ("mean_multibit_impr", mean (List.map (fun (_, _, _, _, i) -> i) mb)) ];
  }

let run_nodal ~full:_ () =
  let impr before after =
    if before = 0.0 then 0.0 else 100.0 *. (before -. after) /. before
  in
  let rows =
    E.nodal_decomposition ~names:[ "bench"; "fout"; "p3"; "test4"; "ex1010" ] ()
  in
  let rrows =
    E.nodal_renode ~names:[ "bench"; "fout"; "p3"; "test4"; "ex1010" ] ()
  in
  let orows = E.nodal_odc ~names:[ "bench"; "fout"; "p3"; "test4" ] () in
  {
    tables =
      [
        {
          title =
            "Section 4 extension: internal error rate before/after nodal LCf \
             reassignment";
          header = [ "name"; "before"; "after"; "improvement %" ];
          rows =
            List.map
              (fun (name, before, after) ->
                [ name; T.f3 before; T.f3 after; T.pct (impr before after) ])
              rows;
        };
        {
          title =
            "Section 4 extension at renode (4-LUT) granularity: coarser local \
             DC spaces";
          header =
            [ "name"; "LUTs"; "with DCs"; "before"; "after"; "improvement %" ];
          rows =
            List.map
              (fun (name, luts, dcs, before, after) ->
                [
                  name;
                  string_of_int luts;
                  string_of_int dcs;
                  T.f3 before;
                  T.f3 after;
                  T.pct (impr before after);
                ])
              rrows;
        };
        {
          title =
            "Section 4 extension: satisfiability-only vs observability-aware \
             reassignment (internal error rate)";
          header =
            [ "name"; "baseline"; "SDC only"; "with ODC"; "ODC improvement %" ];
          rows =
            List.map
              (fun (name, base, sdc, odc) ->
                [ name; T.f3 base; T.f3 sdc; T.f3 odc; T.pct (impr base odc) ])
              orows;
        };
      ];
    scalars =
      [
        ( "mean_nodal_impr",
          mean (List.map (fun (_, b, a) -> impr b a) rows) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Static-check audit of the largest suite benchmark: synthesize
   ex1010, then run the full lib/check pipeline (spec lint, then the
   implementation audit: cover check, netlist structure, care-set
   equivalence with the exhaustive engine).  The diagnostics land in
   the outcome table, so the harness's signature comparison doubles as
   the guard that the audit reports identically at one and N jobs.
   The care-set equivalence is also run with the BDD engine, whose
   diagnostic texts are engine-independent: any difference from the
   exhaustive engine's, diagnostic for diagnostic, is a mismatch. *)

let run_check_ex1010 ~full:_ () =
  let module Flow = Rdca_flow.Flow in
  let module Diag = Check.Diag in
  let spec = Synthetic.Suite.load_by_name "ex1010" in
  let r =
    Flow.synthesize ~mode:Techmap.Mapper.Area ~strategy:Flow.Conventional spec
  in
  let diags =
    Diag.sort
      (Check.Spec_lint.lint spec
      @ Check.implementation ~equiv:Check.Netlist_check.Exhaustive ~spec
          ~covers:r.Flow.covers r.Flow.netlist)
  in
  let equiv engine =
    Check.Netlist_check.equiv_spec ~engine ~spec r.Flow.netlist
  in
  let bdd_diags = equiv Check.Netlist_check.Bdd_backed in
  if bdd_diags <> equiv Check.Netlist_check.Exhaustive then
    mismatches := "check-ex1010 [bdd/exhaustive equivalence]" :: !mismatches;
  {
    tables =
      [
        {
          title = "check-ex1010: post-synthesis static audit (conventional/area)";
          header = [ "severity"; "code"; "location"; "message" ];
          rows =
            List.map
              (fun d ->
                [
                  Diag.severity_name d.Diag.severity;
                  d.Diag.code;
                  Diag.location_to_string d.Diag.loc;
                  d.Diag.message;
                ])
              diags;
        };
      ];
    scalars =
      [
        ("diag_errors", float_of_int (Diag.count Diag.Error diags));
        ("diag_warnings", float_of_int (Diag.count Diag.Warn diags));
        ("diag_infos", float_of_int (Diag.count Diag.Info diags));
        ("equiv_bdd_errors", float_of_int (List.length bdd_diags));
        ("sop_cubes", float_of_int r.Flow.sop_cubes);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The error-rate/bounds inner loop on the largest suite benchmark,
   repeated 100 times so one run is long enough to time.  The kernel's
   speed-up over the scalar oracle is measured in the micro section
   ("exact bounds ex1010" against its "(scalar oracle)" entry). *)

let run_errbounds ~full:_ () =
  let module ER = Reliability.Error_rate in
  let spec = Synthetic.Suite.load_by_name "ex1010" in
  let impls =
    Array.init (Pla.Spec.no spec) (fun o -> Pla.Spec.on_bv spec ~o)
  in
  let bounds = ref (ER.mean_bounds spec)
  and rate = ref (ER.of_tables spec impls) in
  for _ = 2 to 100 do
    bounds := ER.mean_bounds spec;
    rate := ER.of_tables spec impls
  done;
  let lo = ER.min_rate !bounds and hi = ER.max_rate !bounds in
  {
    tables =
      [
        {
          title = "errbounds-ex1010: mean bounds and rate (100 repeats)";
          header = [ "min rate"; "max rate"; "mean rate" ];
          rows = [ List.map (Printf.sprintf "%.4f") [ lo; hi; !rate ] ];
        };
      ];
    scalars = [ ("min_rate", lo); ("max_rate", hi); ("mean_rate", !rate) ];
  }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core kernels.  Timing is noisy by
   nature, so this section runs once and is excluded from the
   identical-results check. *)

let run_micro ~full:_ () =
  let open Bechamel in
  let spec = Synthetic.Suite.load_by_name "ex1010" in
  let on = Pla.Spec.on_bv spec ~o:0 and dc = Pla.Spec.dc_bv spec ~o:0 in
  let cover = Espresso.Dense.minimize ~n:10 ~on ~dc in
  let covers =
    List.init (Pla.Spec.no spec) (fun o ->
        Espresso.Dense.minimize ~n:10 ~on:(Pla.Spec.on_bv spec ~o)
          ~dc:(Pla.Spec.dc_bv spec ~o))
  in
  let aig = Aig.Opt.balance (Aig.of_covers ~ni:10 covers) in
  let lib = Techmap.Stdcell.default_library () in
  let tests =
    Test.make_grouped ~name:"rdca"
      [
        Test.make ~name:"espresso-dense ex1010/o0"
          (Staged.stage (fun () -> Espresso.Dense.minimize ~n:10 ~on ~dc));
        Test.make ~name:"ranking assignment ex1010"
          (Staged.stage (fun () -> Rdca_core.Assign.ranking ~fraction:0.5 spec));
        Test.make ~name:"lcf assignment ex1010"
          (Staged.stage (fun () ->
               Rdca_core.Assign.by_complexity ~threshold:0.55 spec));
        Test.make ~name:"exact bounds ex1010"
          (Staged.stage (fun () -> Reliability.Error_rate.mean_bounds spec));
        Test.make ~name:"exact bounds ex1010 (scalar oracle)"
          (Staged.stage (fun () ->
               Array.init (Pla.Spec.no spec) (fun o ->
                   Reliability.Error_rate.bounds_scalar spec ~o)));
        Test.make ~name:"border estimate ex1010"
          (Staged.stage (fun () -> Reliability.Estimate.mean_border_based spec));
        Test.make ~name:"bdd of cover (o0)"
          (Staged.stage (fun () ->
               let man = Bdd.make_man ~nvars:10 in
               Bdd.of_cover man cover));
        Test.make ~name:"cut enumeration (ex1010 aig)"
          (Staged.stage (fun () -> Aig.Cut.enumerate aig ~k:4 ~max_cuts:8));
        Test.make ~name:"cut enumeration memoised (ex1010 aig)"
          (Staged.stage (fun () -> Aig.Cut.enumerate_memo aig ~k:4 ~max_cuts:8));
        Test.make ~name:"techmap delay (ex1010 aig)"
          (Staged.stage (fun () ->
               Techmap.Mapper.map ~mode:Techmap.Mapper.Delay ~lib aig));
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  {
    tables =
      [
        {
          title = "Micro-benchmarks (monotonic clock, per call)";
          header = [ "kernel"; "time" ];
          rows =
            List.map
              (fun (name, ns) ->
                let h =
                  if Float.is_nan ns then "n/a"
                  else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                  else Printf.sprintf "%.0f ns" ns
                in
                [ name; h ])
              rows;
        };
      ];
    scalars = List.map (fun (name, ns) -> (name ^ "_ns", ns)) rows;
  }

(* ------------------------------------------------------------------ *)
(* Cross-backend agreement: on the small suite benchmarks the
   symbolic (BDD) backend must reproduce the exhaustive engines
   bit-identically and the sampled backend's Wilson intervals must
   bracket the exact values; beyond the dense ceiling (generated
   cube-level specs) the symbolic and sampled backends check each
   other.  Any disagreement feeds the harness mismatch list, so the
   cross-backend contract gates the exit code like the
   sequential-vs-parallel one. *)

let run_backends ~full () =
  let module A = Reliability.Analysis in
  let params = { A.default_params with A.samples = 20_000; seed = 2011 } in
  let inside v x = A.value_lo v <= x && x <= A.value_hi v in
  let bounds_triple b = A.[ value_est b.base; value_est b.min_dc; value_est b.max_dc ] in
  let small = [ "bench"; "fout"; "p3" ] in
  let small_rows =
    List.map
      (fun name ->
        let t = A.of_spec (Synthetic.Suite.load_by_name name) in
        let be = A.mean_bounds ~backend:A.Exhaustive t in
        let bb = A.mean_bounds ~backend:A.Bdd_exact t in
        let ident =
          List.for_all2 Float.equal (bounds_triple be) (bounds_triple bb)
        in
        if not ident then
          mismatches := ("backends [" ^ name ^ " bdd/exhaustive]") :: !mismatches;
        let bs = A.mean_bounds ~params ~backend:A.Sampled t in
        let ci_ok =
          List.for_all2 inside
            A.[ bs.base; bs.min_dc; bs.max_dc ]
            (bounds_triple be)
        in
        if not ci_ok then
          mismatches := ("backends [" ^ name ^ " sampled-ci]") :: !mismatches;
        (name, be, bs, ident, ci_ok))
      small
  in
  let wide_nis = if full then [ 24; 28; 32 ] else [ 24; 28 ] in
  let wide_rows =
    List.map
      (fun ni ->
        let rng = Random.State.make [| 2011; ni |] in
        let sets =
          Synthetic.Synth_gen.random_cover_sets ~rng ~ni ~no:2 ~on_cubes:6
            ~dc_cubes:4 ~lit_prob:0.35
        in
        let t = A.of_cover_sets ~ni sets in
        let bb = A.mean_bounds ~backend:A.Bdd_exact t in
        let bs = A.mean_bounds ~params ~backend:A.Sampled t in
        let ci_ok =
          List.for_all2 inside
            A.[ bs.base; bs.min_dc; bs.max_dc ]
            (bounds_triple bb)
        in
        if not ci_ok then
          mismatches :=
            (Printf.sprintf "backends [n=%d sampled-ci]" ni) :: !mismatches;
        (ni, bb, bs, ci_ok))
      wide_nis
  in
  {
    tables =
      [
        {
          title = "backends: exhaustive vs BDD-exact vs sampled (suite)";
          header =
            [ "name"; "base"; "min"; "max"; "bdd==exh"; "CI(sample) ∋ exact" ];
          rows =
            List.map
              (fun (name, be, _, ident, ci_ok) ->
                [
                  name;
                  T.f3 (A.value_est be.A.base);
                  T.f3 (A.value_est (A.min_rate be));
                  T.f3 (A.value_est (A.max_rate be));
                  (if ident then "yes" else "NO");
                  (if ci_ok then "yes" else "NO");
                ])
              small_rows;
        };
        {
          title = "backends: BDD-exact vs sampled beyond the dense ceiling";
          header = [ "n"; "base(bdd)"; "max(bdd)"; "base(sample)"; "CI ∋ bdd" ];
          rows =
            List.map
              (fun (ni, bb, bs, ci_ok) ->
                [
                  string_of_int ni;
                  T.f3 (A.value_est bb.A.base);
                  T.f3 (A.value_est (A.max_rate bb));
                  T.f3 (A.value_est bs.A.base);
                  (if ci_ok then "yes" else "NO");
                ])
              wide_rows;
        };
      ];
    scalars =
      List.map
        (fun (name, be, _, ident, ci_ok) ->
          [
            (name ^ "_base", A.value_est be.A.base);
            (name ^ "_bdd_identical", if ident then 1.0 else 0.0);
            (name ^ "_sampled_ci_ok", if ci_ok then 1.0 else 0.0);
          ])
        small_rows
      |> List.concat
      |> fun l ->
      l
      @ (List.map
           (fun (ni, bb, _, ci_ok) ->
             [
               (Printf.sprintf "wide%d_base" ni, A.value_est bb.A.base);
               (Printf.sprintf "wide%d_ci_ok" ni, if ci_ok then 1.0 else 0.0);
             ])
           wide_rows
        |> List.concat)
  }

(* ------------------------------------------------------------------ *)
(* Windowed don't-care extraction: synthesize each suite benchmark,
   sweep the Differential engine (Auto's simulate-first engine and the
   per-pattern SAT sweep answer every window and are compared
   bit-identically), rewrite the DC patterns and prove the result
   still realises the care set.  Any window disagreement or
   equivalence failure feeds the mismatch list, so the cross-engine
   contract gates the exit code.  The time of each layer is
   perfbench's dcopt workload's to measure. *)

let run_dc_extract ~full () =
  let module Dc = Rdca_dc.Dc in
  let names = [ "bench"; "fout"; "p3" ] in
  let depth = if full then 3 else 2 in
  let config =
    { Dc.default_config with Dc.depth; backend = Dc.Differential }
  in
  let rows =
    List.map
      (fun name ->
        let spec = Synthetic.Suite.load_by_name name in
        let r =
          Rdca_flow.Flow.synthesize ~mode:Techmap.Mapper.Area
            ~strategy:Rdca_flow.Flow.Conventional spec
        in
        let opt =
          Dc.optimize ~config ~strategy:Dc.Complete r.Rdca_flow.Flow.netlist
        in
        let rep = opt.Dc.opt_report in
        if rep.Dc.disagreements > 0 then
          mismatches :=
            (Printf.sprintf "dc-extract [%s auto/sat: %d window(s)]" name
               rep.Dc.disagreements)
            :: !mismatches;
        let equiv_diags =
          Check.Netlist_check.equiv_spec ~spec opt.Dc.netlist
        in
        if Check.Diag.has_errors equiv_diags then
          mismatches := (Printf.sprintf "dc-extract [%s equiv]" name) :: !mismatches;
        ( name,
          rep,
          List.length opt.Dc.rewritten,
          not (Check.Diag.has_errors equiv_diags) ))
      names
  in
  {
    tables =
      [
        {
          title =
            Printf.sprintf
              "dc-extract: windowed SDC/ODC recovery, Auto vs SAT (depth %d)"
              depth;
          header =
            [ "name"; "analyzed"; "SDC"; "ODC"; "agree"; "rewritten"; "equiv" ];
          rows =
            List.map
              (fun (name, rep, rewritten, equiv_ok) ->
                [
                  name;
                  string_of_int rep.Dc.analyzed;
                  string_of_int rep.Dc.sdc_patterns;
                  string_of_int rep.Dc.odc_patterns;
                  (if rep.Dc.disagreements = 0 then "yes" else "NO");
                  string_of_int rewritten;
                  (if equiv_ok then "yes" else "NO");
                ])
              rows;
        };
      ];
    scalars =
      List.concat_map
        (fun (name, rep, rewritten, equiv_ok) ->
          [
            (name ^ "_sdc", float_of_int rep.Dc.sdc_patterns);
            (name ^ "_odc", float_of_int rep.Dc.odc_patterns);
            (name ^ "_agree", if rep.Dc.disagreements = 0 then 1.0 else 0.0);
            (name ^ "_rewritten", float_of_int rewritten);
            (name ^ "_equiv_ok", if equiv_ok then 1.0 else 0.0);
          ])
        rows;
  }

(* ------------------------------------------------------------------ *)
(* SAT-based stuck-at testability: synthesize each suite benchmark,
   analyze the full collapsed fault universe with the SAT engine and
   again with the exhaustive word-parallel simulator, and compare the
   two verdict vectors bit-identically.  Any divergence feeds the
   mismatch list so the cross-engine contract gates the exit code;
   the collapse ratio is the headline scalar.  The time of each layer
   is perfbench's testability workload's to measure. *)

let run_testability ~full:_ () =
  let module A = Atpg.Engine in
  let names = [ "bench"; "fout"; "p3" ] in
  let rows =
    List.map
      (fun name ->
        let spec = Synthetic.Suite.load_by_name name in
        let r =
          Rdca_flow.Flow.synthesize ~mode:Techmap.Mapper.Area
            ~strategy:Rdca_flow.Flow.Conventional spec
        in
        let nl = r.Rdca_flow.Flow.netlist in
        let analyze backend =
          A.analyze ~config:{ A.default_config with A.backend } nl
        in
        let sat = analyze A.Sat_engine in
        let exh = analyze A.Exhaustive in
        let identical =
          List.length sat.A.results = List.length exh.A.results
          && List.for_all2
               (fun (a : A.fault_result) (b : A.fault_result) ->
                 Atpg.Fault.compare a.A.rep b.A.rep = 0
                 && a.A.verdict = b.A.verdict)
               sat.A.results exh.A.results
        in
        if not identical then
          mismatches :=
            Printf.sprintf "testability [%s sat/exhaustive]" name
            :: !mismatches;
        (name, sat, identical))
      names
  in
  let all_identical = List.for_all (fun (_, _, ok) -> ok) rows in
  {
    tables =
      [
        {
          title = "testability: SAT vs exhaustive stuck-at verdicts";
          header =
            [
              "name"; "faults"; "classes"; "collapse"; "untestable";
              "identical";
            ];
          rows =
            List.map
              (fun (name, (rep : A.report), ok) ->
                [
                  name;
                  string_of_int rep.A.total_faults;
                  string_of_int rep.A.classes;
                  T.f2 rep.A.collapse_ratio;
                  string_of_int rep.A.untestable;
                  (if ok then "yes" else "NO");
                ])
              rows;
        };
      ];
    scalars =
      List.concat_map
        (fun (name, (rep : A.report), ok) ->
          [
            (name ^ "_faults", float_of_int rep.A.total_faults);
            (name ^ "_classes", float_of_int rep.A.classes);
            (name ^ "_collapse_ratio", rep.A.collapse_ratio);
            (name ^ "_untestable", float_of_int rep.A.untestable);
            (name ^ "_identical", if ok then 1.0 else 0.0);
          ])
        rows
      @ [ ("sat_exhaustive_identical", if all_identical then 1.0 else 0.0) ];
  }

(* ------------------------------------------------------------------ *)
(* Driver: run each requested section at one job and (when --jobs > 1)
   at N jobs, check both runs produce identical results, and record the
   parallel speedup. *)

type section = {
  sec_name : string;
  dual : bool;  (** false: timing-noise sections run once *)
  build : full:bool -> unit -> outcome;
}

let sections =
  [
    { sec_name = "table1"; dual = true; build = run_table1 };
    { sec_name = "fig2"; dual = true; build = run_fig2 };
    { sec_name = "fig4"; dual = true; build = run_fig4 };
    { sec_name = "fig5"; dual = true; build = run_fig5 };
    { sec_name = "fig6"; dual = true; build = run_fig6 };
    { sec_name = "table2"; dual = true; build = run_table2 };
    { sec_name = "table3"; dual = true; build = run_table3 };
    { sec_name = "ablations"; dual = true; build = run_ablations };
    { sec_name = "nodal"; dual = true; build = run_nodal };
    { sec_name = "check-ex1010"; dual = true; build = run_check_ex1010 };
    { sec_name = "errbounds-ex1010"; dual = true; build = run_errbounds };
    { sec_name = "backends"; dual = true; build = run_backends };
    { sec_name = "dc-extract"; dual = true; build = run_dc_extract };
    { sec_name = "testability"; dual = true; build = run_testability };
    { sec_name = "micro"; dual = false; build = run_micro };
  ]

let print_outcome o =
  List.iter
    (fun t -> T.print ~title:t.title ~header:t.header t.rows)
    o.tables

let exec_section ~jobs ~full s =
  (* Each run also diffs the profiling instruments around itself, so
     the JSON can attribute that run's wall clock to named spans (empty
     unless --profile / RDCA_PROF; the always-on event counters appear
     regardless). *)
  let run ~jobs:j =
    let before = Prof.snapshot () in
    let t0 = Unix.gettimeofday () in
    let r = Pool.with_jobs j (s.build ~full) in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Prof.diff ~before ~after:(Prof.snapshot ()), r)
  in
  let pool_before = Pool.stats () in
  let t1, d1, o1 = run ~jobs:1 in
  let tn, dn, on, identical_jobs =
    if s.dual && jobs > 1 then begin
      let tn, dn, on = run ~jobs in
      (tn, dn, on, signature o1 = signature on)
    end
    else (t1, d1, o1, true)
  in
  print_outcome on;
  let speedup_jobs = if tn > 0.0 then t1 /. tn else 1.0 in
  if s.dual && jobs > 1 then
    Printf.printf "[%s: %.2fs at 1 job, %.2fs at %d jobs (%.2fx)%s]\n%!"
      s.sec_name t1 tn jobs speedup_jobs
      (if identical_jobs then "" else "; RESULTS DIFFER")
  else Printf.printf "[%s finished in %.2fs]\n%!" s.sec_name t1;
  if not identical_jobs then mismatches := (s.sec_name ^ " [jobs]") :: !mismatches;
  let profile_fields =
    if not (Prof.enabled ()) then []
    else
      ("profile_jobs1", Profjson.profile ~wall:t1 d1)
      ::
      (if s.dual && jobs > 1 then
         [ ("profile_jobsN", Profjson.profile ~wall:tn dn) ]
       else [])
  in
  J.Obj
    ([
       ("name", J.String s.sec_name);
       ("seconds_jobs1", J.Float t1);
       ("seconds_jobsN", J.Float tn);
       ("speedup", J.Float speedup_jobs);
       ("dual_run", J.Bool (s.dual && jobs > 1));
       ("identical", J.Bool identical_jobs);
       ("pool", Profjson.pool_delta ~before:pool_before ~after:(Pool.stats ()));
     ]
    @ profile_fields
    @ [ ("scalars", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) on.scalars)) ]
    )

let usage () =
  prerr_endline
    "usage: bench [--full] [--jobs N] [--profile] [--json FILE] [SECTION...]\n\
     sections: table1 fig2 fig4 fig5 fig6 table2 table3 ablations nodal \
     check-ex1010 errbounds-ex1010 backends dc-extract testability micro";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = ref false
  and jobs = ref (Pool.default_jobs ())
  and json_path = ref None
  and wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--profile" :: rest ->
        Prof.set_enabled true;
        parse rest
    | ("--help" | "-h") :: _ | ("--jobs" | "--json") :: [] ->
        usage ()
    | s :: rest when List.exists (fun x -> x.sec_name = s) sections ->
        wanted := s :: !wanted;
        parse rest
    | s :: _ ->
        Printf.eprintf "bench: unknown section or flag %S\n" s;
        usage ()
  in
  parse args;
  let want s = !wanted = [] || List.mem s.sec_name !wanted in
  Interrupt.install ();
  let t0 = Unix.gettimeofday () in
  let entries = ref [] in
  let write_json ~interrupted path =
    let total = Unix.gettimeofday () -. t0 in
    J.write_file path
      (J.Obj
         [
           ("schema_version", J.Int 5);
           ("jobs", J.Int !jobs);
           ("cores_detected", J.Int (Domain.recommended_domain_count ()));
           ("profile", J.Bool (Prof.enabled ()));
           ("full", J.Bool !full);
           ("interrupted", J.Bool interrupted);
           ( "warm_cache_calls",
             J.Int (Prof.value (Prof.counter "spec.warm_calls")) );
           ("pool", Profjson.pool_totals (Pool.stats ()));
           ("sections", J.List (List.rev !entries));
           ("total_seconds", J.Float total);
         ])
  in
  let unhook =
    Interrupt.on_interrupt (fun () ->
        Option.iter
          (fun path ->
            write_json ~interrupted:true path;
            Printf.eprintf "bench: interrupted, partial results in %s\n%!"
              path)
          !json_path)
  in
  List.iter
    (fun s ->
      if want s then entries := exec_section ~jobs:!jobs ~full:!full s :: !entries)
    sections;
  unhook ();
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[total %.1fs]\n" total;
  Option.iter
    (fun path ->
      write_json ~interrupted:false path;
      Printf.printf "[wrote %s]\n" path)
    !json_path;
  match !mismatches with
  | [] -> ()
  | ms ->
      Printf.eprintf "bench: results differ in: %s\n"
        (String.concat ", " (List.rev ms));
      exit 1
