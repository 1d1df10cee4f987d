(* Fault-injection campaigns: determinism, partial reports under a
   wall-clock budget, site subsampling, pooling invariants and
   argument validation. *)

module Spec = Pla.Spec
module Inject = Reliability.Inject
module Campaign = Reliability.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small multi-level, multi-output circuit with some don't-cares. *)
let fixture () =
  let nl = Netlist.create ~ni:3 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  let x = Netlist.add nl Netlist.Gate.Xor [| a; 2 |] in
  let n = Netlist.add nl Netlist.Gate.Nor [| a; 2 |] in
  Netlist.set_outputs nl [| x; n |];
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  (* make the spec match the netlist on its care set, with a few DCs *)
  for m = 0 to 7 do
    let outs = Netlist.eval_minterm nl m in
    for o = 0 to 1 do
      Spec.set s ~o ~m (if outs.(o) then Spec.On else Spec.Off)
    done
  done;
  Spec.set s ~o:0 ~m:5 Spec.Dc;
  Spec.set s ~o:1 ~m:2 Spec.Dc;
  (s, nl)

let config ?(trials = 200) ?max_sites ?time_budget () =
  {
    Campaign.default_config with
    Campaign.trials_per_site = trials;
    max_sites;
    time_budget;
  }

(* Everything except wall-clock time must be identical across runs. *)
let strip (r : Campaign.report) =
  (r.Campaign.results, r.Campaign.sites_total, r.Campaign.sites_done,
   r.Campaign.complete)

let test_deterministic () =
  let s, nl = fixture () in
  let r1 = Campaign.run (config ()) s nl in
  let r2 = Campaign.run (config ()) s nl in
  check "same seed, same report" true (strip r1 = strip r2)

let test_sweep_shape () =
  let s, nl = fixture () in
  let r = Campaign.run (config ()) s nl in
  let n_sites = List.length (Inject.sites nl) in
  check_int "all sites done" n_sites r.Campaign.sites_done;
  check_int "sites_total" n_sites r.Campaign.sites_total;
  check "complete" true r.Campaign.complete;
  check_int "one result per (site, kind)"
    (n_sites * List.length Inject.all_kinds)
    (List.length r.Campaign.results);
  List.iter
    (fun sr ->
      check_int "events = trials * outputs" (sr.Campaign.trials * 2)
        sr.Campaign.events;
      let lo, hi = sr.Campaign.ci in
      check "rate within its CI" true
        (lo <= sr.Campaign.rate && sr.Campaign.rate <= hi);
      check "CI within [0,1]" true (0.0 <= lo && hi <= 1.0))
    r.Campaign.results

(* Per-site rates must not depend on which other sites were swept:
   the subsampled campaign reproduces the full campaign's numbers. *)
let test_subsample_consistent () =
  let s, nl = fixture () in
  let full = Campaign.run (config ()) s nl in
  let sub = Campaign.run (config ~max_sites:1 ()) s nl in
  check_int "one site" 1 sub.Campaign.sites_done;
  List.iter
    (fun (sr : Campaign.site_result) ->
      match
        List.find_opt
          (fun (fr : Campaign.site_result) ->
            fr.Campaign.site = sr.Campaign.site
            && fr.Campaign.kind = sr.Campaign.kind)
          full.Campaign.results
      with
      | Some fr -> check "matches full sweep" true (fr = sr)
      | None -> Alcotest.fail "subsampled site missing from full sweep")
    sub.Campaign.results

(* MC rates converge to Inject.exact_rate for every pair swept. *)
let test_rates_near_exact () =
  let s, nl = fixture () in
  let r = Campaign.run (config ~trials:4000 ()) s nl in
  List.iter
    (fun (sr : Campaign.site_result) ->
      let exact =
        Inject.exact_rate s nl
          { Inject.node = sr.Campaign.site; kind = sr.Campaign.kind }
      in
      check
        (Printf.sprintf "site %d %s" sr.Campaign.site
           (Inject.kind_name sr.Campaign.kind))
        true
        (abs_float (sr.Campaign.rate -. exact) < 0.05))
    r.Campaign.results

(* An undersized time budget still yields a valid (partial) report
   with at least one site evaluated. *)
let test_partial_report () =
  let s, nl = fixture () in
  let r = Campaign.run (config ~time_budget:0.0 ()) s nl in
  check "incomplete" false r.Campaign.complete;
  check_int "exactly the first site" 1 r.Campaign.sites_done;
  check_int "results for one site" (List.length Inject.all_kinds)
    (List.length r.Campaign.results);
  (* the surviving numbers equal the full sweep's *)
  let full = Campaign.run (config ()) s nl in
  List.iter
    (fun (sr : Campaign.site_result) ->
      check "partial matches full" true
        (List.exists (fun fr -> fr = sr) full.Campaign.results))
    r.Campaign.results

let test_pooled () =
  let s, nl = fixture () in
  let r = Campaign.run (config ()) s nl in
  let ps = Campaign.pooled r in
  check "one pool per kind" true
    (List.map (fun p -> p.Campaign.p_kind) ps = Inject.all_kinds);
  List.iter
    (fun p ->
      let rs =
        List.filter
          (fun (sr : Campaign.site_result) ->
            sr.Campaign.kind = p.Campaign.p_kind)
          r.Campaign.results
      in
      check_int "pooled sites" (List.length rs) p.Campaign.p_sites;
      check_int "pooled events"
        (List.fold_left (fun a sr -> a + sr.Campaign.events) 0 rs)
        p.Campaign.p_events;
      check_int "pooled propagated"
        (List.fold_left (fun a sr -> a + sr.Campaign.propagated) 0 rs)
        p.Campaign.p_propagated;
      check "pooled rate is propagated/events" true
        (abs_float
           (p.Campaign.p_rate
           -. float_of_int p.Campaign.p_propagated
              /. float_of_int p.Campaign.p_events)
        < 1e-12);
      (match p.Campaign.p_worst with
      | None -> Alcotest.fail "no worst site on a non-empty pool"
      | Some w ->
          check "worst has max rate" true
            (List.for_all
               (fun (sr : Campaign.site_result) ->
                 sr.Campaign.rate <= w.Campaign.rate)
               rs));
      let lo, hi = p.Campaign.p_ci in
      check "pooled rate within CI" true
        (lo <= p.Campaign.p_rate && p.Campaign.p_rate <= hi))
    ps

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_validation () =
  let s, nl = fixture () in
  expect_invalid "trials_per_site = 0" (fun () ->
      Campaign.run (config ~trials:0 ()) s nl);
  let wide = Spec.create ~ni:4 ~no:1 ~default:Spec.On in
  expect_invalid "input mismatch" (fun () ->
      Campaign.run (config ()) wide nl)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_report_smoke () =
  let s, nl = fixture () in
  let r = Campaign.run (config ()) s nl in
  let out = Format.asprintf "%a" Campaign.pp_report r in
  check "mentions completeness" true (contains out "complete");
  check "lists every kind" true
    (List.for_all (fun k -> contains out (Inject.kind_name k)) Inject.all_kinds)

(* dead_sites excludes nodes before sweeping and lands in the config
   fingerprint; the per-site JSON names its fault kind. *)
let test_dead_sites () =
  let s, nl = fixture () in
  let all = Campaign.run (config ()) s nl in
  let sites r =
    List.sort_uniq compare
      (List.map (fun (sr : Campaign.site_result) -> sr.Campaign.site)
         r.Campaign.results)
  in
  match sites all with
  | [] -> Alcotest.fail "campaign swept no sites"
  | dead :: _ as every ->
      let cfg = { (config ()) with Campaign.dead_sites = [ dead ] } in
      let r = Campaign.run cfg s nl in
      check "dead site excluded" false (List.mem dead (sites r));
      check "live sites kept" true
        (sites r = List.filter (fun x -> x <> dead) every);
      let j = Rdca_json.Jsonout.to_string (Campaign.config_to_json cfg) in
      check "dead_sites in fingerprint" true (contains j "dead_sites")

let test_site_json_names_kind () =
  let s, nl = fixture () in
  let r = Campaign.run (config ()) s nl in
  List.iter
    (fun (sr : Campaign.site_result) ->
      let j = Rdca_json.Jsonout.to_string (Campaign.site_result_to_json sr) in
      check "site json names its kind" true
        (contains j ("\"" ^ Inject.kind_name sr.Campaign.kind ^ "\"")))
    r.Campaign.results

let suite =
  ( "campaign",
    [
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "subsample consistent" `Quick
        test_subsample_consistent;
      Alcotest.test_case "rates near exact" `Quick test_rates_near_exact;
      Alcotest.test_case "partial report" `Quick test_partial_report;
      Alcotest.test_case "pooled invariants" `Quick test_pooled;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "pp_report smoke" `Quick test_pp_report_smoke;
      Alcotest.test_case "dead sites" `Quick test_dead_sites;
      Alcotest.test_case "site json names kind" `Quick
        test_site_json_names_kind;
    ] )
