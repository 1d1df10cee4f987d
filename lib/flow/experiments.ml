module Spec = Pla.Spec
module Suite = Synthetic.Suite
module Borders = Reliability.Borders
module ER = Reliability.Error_rate
module Estimate = Reliability.Estimate
module Report = Techmap.Report
module Mapper = Techmap.Mapper

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

type t1_row = {
  t1_name : string;
  t1_ni : int;
  t1_no : int;
  t1_dc_pct : float;
  t1_ecf : float;
  t1_cf : float;
  t1_paper_ecf : float;
  t1_paper_cf : float;
}

let table1 () =
  List.map
    (fun (e, s) ->
      {
        t1_name = e.Suite.name;
        t1_ni = e.Suite.ni;
        t1_no = e.Suite.no;
        t1_dc_pct = 100.0 *. Spec.dc_fraction s;
        t1_ecf = Borders.mean_expected_complexity_factor s;
        t1_cf = Borders.mean_complexity_factor s;
        t1_paper_ecf = e.Suite.ecf;
        t1_paper_cf = e.Suite.cf;
      })
    (Suite.load_all ())

(* ------------------------------------------------------------------ *)
(* Figure 2                                                             *)

type fig2_point = { f2_target : float; f2_measured_cf : float; f2_sop : int }

let default_fig2_targets =
  [ 0.05; 0.15; 0.25; 0.35; 0.45; 0.55; 0.65; 0.75; 0.85; 0.95 ]

let fig2 ?(targets = default_fig2_targets) ?(per_target = 3) ~seed () =
  (* Each task derives its own splittable stream from (seed, task
     index) and generates its spec *inside* the parallel region, so
     there is no sequential pre-generation pass and the results are
     identical at every job count by construction. *)
  let targets = Array.of_list targets in
  let n = Array.length targets * per_target in
  let points =
    Parallel.Pool.init ~chunk:1 n (fun i ->
        let target = targets.(i / per_target) in
        let rng =
          Synthetic.Splittable.to_random_state
            (Synthetic.Splittable.stream ~seed ~index:i)
        in
        let params =
          Synthetic.Synth_gen.default_params ~ni:10 ~dc_frac:0.0
            ~target_cf:(Some target)
        in
        let s = Synthetic.Synth_gen.output ~rng params in
        let cover =
          Espresso.Dense.minimize ~n:10 ~on:(Spec.on_bv s ~o:0)
            ~dc:(Spec.dc_bv s ~o:0)
        in
        {
          f2_target = target;
          f2_measured_cf = Borders.complexity_factor s ~o:0;
          f2_sop = Twolevel.Cover.size cover;
        })
  in
  Array.to_list points

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: the ranking-fraction sweep                          *)

type sweep_cell = {
  sw_error : float;
  sw_delay_mode : Report.t;
  sw_power_mode : Report.t;
}

type sweep_row = {
  sw_name : string;
  sw_fractions : float array;
  sw_cells : sweep_cell array;
}

let default_fractions = [| 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 |]

let suite_specs ?names () =
  let all = Suite.load_all () in
  match names with
  | None -> all
  | Some names ->
      List.filter (fun (e, _) -> List.mem e.Suite.name names) all

(* The four stages of a sweep cell as disjoint profiling spans: their
   sum accounts for (essentially all of) a cell's wall time, which is
   what the bench harness uses to attribute the fig4/fig5 sections. *)
let sp_assign = Prof.span "sweep.assign"
let sp_implement = Prof.span "sweep.implement"
let sp_error = Prof.span "sweep.error"
let sp_build = Prof.span "sweep.build"

(* One sweep cell is a pure function of (spec, fraction): the unit of
   work of the fan-out below.  Both mapper modes read the same
   balanced AIG, which mapping does not mutate. *)
let sweep_cell_of_spec spec fraction =
  let lib = Techmap.Stdcell.default_library () in
  let partial =
    Prof.time sp_assign (fun () ->
        Flow.apply_strategy (Flow.Ranking fraction) spec)
  in
  let full, covers = Prof.time sp_implement (fun () -> Flow.implement partial) in
  let error =
    Prof.time sp_error (fun () -> Flow.measured_error ~original:spec full)
  in
  Prof.time sp_build @@ fun () ->
  let aig = Aig.Opt.balance (Aig.of_covers ~ni:(Spec.ni spec) covers) in
  let report mode = Report.of_netlist (Mapper.map ~mode ~lib aig) in
  let sw_delay_mode = report Mapper.Delay in
  { sw_error = error; sw_delay_mode; sw_power_mode = report Mapper.Power }

let sweep ?(fractions = default_fractions) ?names () =
  let specs = Array.of_list (suite_specs ?names ()) in
  (* The cells of one benchmark share its spec: publish every phase
     plane before the fan-out so the parallel region reads a warm,
     read-only cache instead of racing on first-use rebuilds. *)
  Array.iter (fun (_, spec) -> Spec.warm_cache spec) specs;
  let nfr = Array.length fractions in
  (* Flatten to (benchmark, fraction) cells: a finer grain than
     per-benchmark fan-out, so a single slow benchmark doesn't leave
     the other domains idle. *)
  let cells =
    Parallel.Pool.init ~chunk:1
      (Array.length specs * nfr)
      (fun idx ->
        let _, spec = specs.(idx / nfr) in
        let fraction = fractions.(idx mod nfr) in
        sweep_cell_of_spec spec fraction)
  in
  List.mapi
    (fun si (e, _) ->
      {
        sw_name = e.Suite.name;
        sw_fractions = fractions;
        sw_cells = Array.init nfr (fun fi -> cells.((si * nfr) + fi));
      })
    (Array.to_list specs)

let fig4_of_sweep rows =
  List.map
    (fun row ->
      let base = row.sw_cells.(0).sw_error in
      let norm =
        Array.map
          (fun c -> if base = 0.0 then 1.0 else c.sw_error /. base)
          row.sw_cells
      in
      (row.sw_name, norm))
    rows

type fig5_stat = {
  f5_fraction : float;
  f5_mode : Mapper.mode;
  f5_min : float * float * float;
  f5_mean : float * float * float;
  f5_max : float * float * float;
}

let fig5_of_sweep rows =
  match rows with
  | [] -> []
  | first :: _ ->
      let nfr = Array.length first.sw_fractions in
      let modes = [ Mapper.Delay; Mapper.Power ] in
      List.concat_map
        (fun mode ->
          List.init nfr (fun fi ->
              let pick cell =
                match mode with
                | Mapper.Delay -> cell.sw_delay_mode
                | Mapper.Power | Mapper.Area -> cell.sw_power_mode
              in
              let ratios =
                List.map
                  (fun row ->
                    let base = pick row.sw_cells.(0) in
                    let r = Report.normalise ~base (pick row.sw_cells.(fi)) in
                    (r.Report.area, r.Report.delay, r.Report.power))
                  rows
              in
              let agg f =
                let a = List.map (fun (x, _, _) -> x) ratios in
                let d = List.map (fun (_, x, _) -> x) ratios in
                let p = List.map (fun (_, _, x) -> x) ratios in
                (f a, f d, f p)
              in
              let fmin l = List.fold_left min infinity l in
              let fmax l = List.fold_left max neg_infinity l in
              let fmean l =
                List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
              in
              {
                f5_fraction = first.sw_fractions.(fi);
                f5_mode = mode;
                f5_min = agg fmin;
                f5_mean = agg fmean;
                f5_max = agg fmax;
              }))
        modes

(* ------------------------------------------------------------------ *)
(* Figure 6                                                             *)

type fig6_point = { f6_fraction : float; f6_area : float; f6_error : float }

type fig6_family = { f6_cf : float; f6_points : fig6_point list }

let fig6 ?(families = [ 0.5; 0.6; 0.7; 0.8; 0.9 ]) ?(funcs_per_family = 2)
    ?(fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) ?(ni = 11) ?(no = 11) ~seed ()
    =
  let lib = Techmap.Stdcell.default_library () in
  (* Each per-function trajectory task generates its own spec from the
     splittable stream keyed by (seed, function index), inside the
     parallel region — no sequential pre-generation, and the family
     layout (function i belongs to family i / funcs_per_family) is
     fixed up front, so results are identical at every job count. *)
  let fams = Array.of_list families in
  let nfuncs = Array.length fams * funcs_per_family in
  (* Per function, per fraction: (area, error); normalise per
     function by its own fraction-0 corner; average at the end. *)
  let traj_of_func i =
    let cf = fams.(i / funcs_per_family) in
    let rng =
      Synthetic.Splittable.to_random_state
        (Synthetic.Splittable.stream ~seed ~index:i)
    in
    let params =
      Synthetic.Synth_gen.default_params ~ni ~dc_frac:0.6 ~target_cf:(Some cf)
    in
    let spec = Synthetic.Synth_gen.spec ~rng ~no params in
    List.map
      (fun fraction ->
        let partial = Flow.apply_strategy (Flow.Ranking fraction) spec in
        let full, covers = Flow.implement partial in
        let error = Flow.measured_error ~original:spec full in
        let aig = Aig.of_covers ~ni:(Spec.ni spec) covers in
        let aig = Aig.Opt.balance aig in
        let rep = Report.of_netlist (Mapper.map ~mode:Mapper.Area ~lib aig) in
        (rep.Report.area, error))
      fractions
  in
  let all_trajs = Parallel.Pool.init ~chunk:1 nfuncs traj_of_func in
  List.mapi
    (fun fi cf ->
      let trajs =
        List.init funcs_per_family (fun j ->
            all_trajs.((fi * funcs_per_family) + j))
      in
      let normed =
        List.map
          (fun traj ->
            match traj with
            | [] -> []
            | (a0, e0) :: _ ->
                List.map
                  (fun (a, e) ->
                    ( (if a0 = 0.0 then 1.0 else a /. a0),
                      if e0 = 0.0 then 1.0 else e /. e0 ))
                  traj)
          trajs
      in
      let k = float_of_int (List.length normed) in
      let points =
        List.mapi
          (fun i fraction ->
            let sum_a, sum_e =
              List.fold_left
                (fun (sa, se) traj ->
                  let a, e = List.nth traj i in
                  (sa +. a, se +. e))
                (0.0, 0.0) normed
            in
            { f6_fraction = fraction; f6_area = sum_a /. k; f6_error = sum_e /. k })
          fractions
      in
      { f6_cf = cf; f6_points = points })
    families

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)

type t2_row = {
  t2_name : string;
  t2_cf : float;
  t2_lcf_area : float;
  t2_lcf_er : float;
  t2_rank_area : float;
  t2_rank_er : float;
  t2_comp_area : float;
  t2_comp_er : float;
}

let improvement base v = if base = 0.0 then 0.0 else 100.0 *. (base -. v) /. base

let table2 ?(threshold = 0.55) ?names () =
  let lib = Techmap.Stdcell.default_library () in
  let mode = Mapper.Area in
  (* Rows are independent benchmarks: fan out one row per task. *)
  Parallel.Pool.map_list ~chunk:1
    (fun (e, spec) ->
      let run strategy = Flow.synthesize ~lib ~mode ~strategy spec in
      let conv = run Flow.Conventional in
      let lcf_spec = Rdca_core.Assign.by_complexity ~threshold spec in
      let rank_spec =
        Rdca_core.Assign.ranking_matching_budget ~reference:lcf_spec spec
      in
      let finish partial =
        let full, covers = Flow.implement partial in
        let error = Flow.measured_error ~original:spec full in
        let aig = Aig.of_covers ~ni:(Spec.ni spec) covers in
        let aig = Aig.Opt.balance aig in
        let rep = Report.of_netlist (Mapper.map ~mode ~lib aig) in
        (error, rep.Report.area)
      in
      let lcf_er, lcf_area = finish lcf_spec in
      let rank_er, rank_area = finish rank_spec in
      let comp = run Flow.Complete in
      {
        t2_name = e.Suite.name;
        t2_cf = Borders.mean_complexity_factor spec;
        t2_lcf_area = improvement conv.Flow.report.Report.area lcf_area;
        t2_lcf_er = improvement conv.Flow.error_rate lcf_er;
        t2_rank_area = improvement conv.Flow.report.Report.area rank_area;
        t2_rank_er = improvement conv.Flow.error_rate rank_er;
        t2_comp_area =
          improvement conv.Flow.report.Report.area comp.Flow.report.Report.area;
        t2_comp_er = improvement conv.Flow.error_rate comp.Flow.error_rate;
      })
    (suite_specs ?names ())

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)

type t3_row = {
  t3_name : string;
  t3_gates : int;
  t3_exact : float * float;
  t3_signal : float * float;
  t3_border : float * float;
  t3_conv_rate : float;
  t3_conv_diff : float;
  t3_lcf_rate : float;
  t3_lcf_diff : float;
}

let table3 ?(threshold = 0.55) ?names () =
  let lib = Techmap.Stdcell.default_library () in
  (* Rows are independent benchmarks: fan out one row per task. *)
  Parallel.Pool.map_list ~chunk:1
    (fun (e, spec) ->
      let b = ER.mean_bounds spec in
      let exact_lo = ER.min_rate b and exact_hi = ER.max_rate b in
      let siv = Estimate.mean_signal_based spec in
      let biv = Estimate.mean_border_based spec in
      let conv = Flow.synthesize ~lib ~mode:Mapper.Delay
          ~strategy:Flow.Conventional spec
      in
      let lcf_full, _ =
        Flow.implement (Rdca_core.Assign.by_complexity ~threshold spec)
      in
      let lcf_rate = Flow.measured_error ~original:spec lcf_full in
      let diff rate =
        if exact_lo = 0.0 then 0.0
        else 100.0 *. (rate -. exact_lo) /. exact_lo
      in
      {
        t3_name = e.Suite.name;
        t3_gates = conv.Flow.report.Report.gates;
        t3_exact = (exact_lo, exact_hi);
        t3_signal = (siv.Estimate.lo, siv.Estimate.hi);
        t3_border = (biv.Estimate.lo, biv.Estimate.hi);
        t3_conv_rate = conv.Flow.error_rate;
        t3_conv_diff = diff conv.Flow.error_rate;
        t3_lcf_rate = lcf_rate;
        t3_lcf_diff = diff lcf_rate;
      })
    (suite_specs ?names ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation_threshold ?(thresholds = [ 0.35; 0.45; 0.55; 0.65; 0.75 ]) ~name
    () =
  let lib = Techmap.Stdcell.default_library () in
  let spec = Suite.load_by_name name in
  let conv =
    Flow.synthesize ~lib ~mode:Mapper.Area ~strategy:Flow.Conventional spec
  in
  List.map
    (fun threshold ->
      let r =
        Flow.synthesize ~lib ~mode:Mapper.Area ~strategy:(Flow.Lcf threshold)
          spec
      in
      ( threshold,
        improvement conv.Flow.report.Report.area r.Flow.report.Report.area,
        improvement conv.Flow.error_rate r.Flow.error_rate ))
    thresholds

let ablation_neighbour_model ?names () =
  List.map
    (fun (e, spec) ->
      let no = Spec.no spec in
      let mean f =
        let lo = ref 0.0 and hi = ref 0.0 in
        for o = 0 to no - 1 do
          let iv : Estimate.interval = f spec ~o in
          lo := !lo +. iv.Estimate.lo;
          hi := !hi +. iv.Estimate.hi
        done;
        (!lo /. float_of_int no, !hi /. float_of_int no)
      in
      let b = ER.mean_bounds spec in
      ( e.Suite.name,
        mean Estimate.border_based,
        mean Estimate.binomial_border_based,
        (ER.min_rate b, ER.max_rate b) ))
    (suite_specs ?names ())

let ablation_balance ?names () =
  let lib = Techmap.Stdcell.default_library () in
  List.map
    (fun (e, spec) ->
      let _, covers = Flow.implement (Spec.copy spec) in
      let aig = Aig.of_covers ~ni:(Spec.ni spec) covers in
      let with_balance =
        Report.of_netlist
          (Mapper.map ~mode:Mapper.Delay ~lib (Aig.Opt.balance aig))
      in
      let without =
        Report.of_netlist (Mapper.map ~mode:Mapper.Delay ~lib aig)
      in
      (e.Suite.name, with_balance.Report.delay, without.Report.delay))
    (suite_specs ?names ())

let nodal_decomposition ?(threshold = 0.55) ?names () =
  let lib = Techmap.Stdcell.default_library () in
  List.map
    (fun (e, spec) ->
      let _, covers = Flow.implement (Spec.copy spec) in
      let aig = Aig.Opt.balance (Aig.of_covers ~ni:(Spec.ni spec) covers) in
      let nl = Mapper.map ~mode:Mapper.Area ~lib aig in
      let before = Rdca_core.Decompose.internal_error_rate nl in
      let nl' = Rdca_core.Decompose.reassign ~threshold nl in
      let after = Rdca_core.Decompose.internal_error_rate nl' in
      (e.Suite.name, before, after))
    (suite_specs ?names ())

let ablation_sharing ?names () =
  let lib = Techmap.Stdcell.default_library () in
  let mode = Mapper.Area in
  List.map
    (fun (e, spec) ->
      let single = Flow.synthesize ~lib ~mode ~strategy:Flow.Conventional spec in
      let shared =
        Flow.synthesize_shared ~lib ~mode ~strategy:Flow.Conventional spec
      in
      ( e.Suite.name,
        single.Flow.report.Report.area,
        shared.Flow.report.Report.area,
        single.Flow.sop_cubes,
        shared.Flow.sop_cubes ))
    (suite_specs ?names ())

let ablation_multibit ?(ks = [ 1; 2 ]) ?names () =
  List.concat_map
    (fun (e, spec) ->
      let impl strategy =
        let full, _ = Flow.implement (Flow.apply_strategy strategy spec) in
        Array.init (Spec.no spec) (fun o -> ER.impl_table full ~o)
      in
      let conv = impl Flow.Conventional in
      let comp = impl Flow.Complete in
      List.map
        (fun k ->
          let rc = ER.of_tables_kbit spec conv ~k in
          let rr = ER.of_tables_kbit spec comp ~k in
          let impr = if rc = 0.0 then 0.0 else 100.0 *. (rc -. rr) /. rc in
          (e.Suite.name, k, rc, rr, impr))
        ks)
    (suite_specs ?names ())

let ablation_factoring ?names () =
  let lib = Techmap.Stdcell.default_library () in
  List.map
    (fun (e, spec) ->
      let _, covers = Flow.implement (Spec.copy spec) in
      let ni = Spec.ni spec in
      let flat = Aig.of_covers ~ni covers in
      let fac =
        Aig.of_factored ~ni (List.map Twolevel.Factor.factor covers)
      in
      let area aig =
        (Report.of_netlist
           (Mapper.map ~mode:Mapper.Area ~lib (Aig.Opt.balance aig)))
          .Report.area
      in
      (e.Suite.name, area flat, area fac, Aig.num_ands flat, Aig.num_ands fac))
    (suite_specs ?names ())

let nodal_renode ?(threshold = 0.65) ?(k = 4) ?names () =
  List.map
    (fun (e, spec) ->
      let _, covers = Flow.implement (Spec.copy spec) in
      let aig = Aig.Opt.balance (Aig.of_covers ~ni:(Spec.ni spec) covers) in
      let nl = Techmap.Lutmap.map ~k aig in
      let masks = Rdca_core.Decompose.local_patterns nl in
      let luts = ref 0 and with_dc = ref 0 in
      Netlist.iter_nodes nl (fun id g _ ->
          match g with
          | Netlist.Gate.Cell c when c.Netlist.Gate.arity >= 2 ->
              incr luts;
              let full = (1 lsl (1 lsl c.Netlist.Gate.arity)) - 1 in
              if masks.(id) <> full then incr with_dc
          | _ -> ());
      let before = Rdca_core.Decompose.internal_error_rate nl in
      let after =
        Rdca_core.Decompose.internal_error_rate
          (Rdca_core.Decompose.reassign ~threshold nl)
      in
      (e.Suite.name, !luts, !with_dc, before, after))
    (suite_specs ?names ())

let nodal_odc ?(threshold = 0.65) ?names () =
  let lib = Techmap.Stdcell.default_library () in
  List.map
    (fun (e, spec) ->
      let _, covers = Flow.implement (Spec.copy spec) in
      let aig = Aig.Opt.balance (Aig.of_covers ~ni:(Spec.ni spec) covers) in
      let nl = Mapper.map ~mode:Mapper.Area ~lib aig in
      let base = Rdca_core.Decompose.internal_error_rate nl in
      let sdc =
        Rdca_core.Decompose.internal_error_rate
          (Rdca_core.Decompose.reassign ~threshold nl)
      in
      let odc =
        Rdca_core.Decompose.internal_error_rate
          (Rdca_core.Decompose.reassign_odc ~threshold nl)
      in
      (e.Suite.name, base, sdc, odc))
    (suite_specs ?names ())
