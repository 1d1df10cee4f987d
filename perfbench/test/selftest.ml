(* Runs the benchmark as separate processes and checks, per workload:
   the same seed reproduces the work fingerprint exactly; another seed
   changes the inputs; every output passes its checks.  One traced run
   must report every per-layer metric and write its span file.

     selftest.exe PATH/TO/main.exe *)

module Jin = Rdca_json.Jsonin

let exe = Sys.argv.(1)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      print_endline ("FAIL " ^ msg))
    fmt

let lines_of ic =
  let rec go acc =
    match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* Last two stdout lines of one run: (run-info, result). *)
let run ~workload ~seed ~trace =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1";
       "--trace"; string_of_int trace; "--out"; "." |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = lines_of ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s seed %d: non-zero exit" workload seed);
  let parse s = match Jin.parse s with Ok v -> v | Error e -> failwith e in
  match List.rev lines with
  | result :: info :: _ ->
      let prefix = "run-info " in
      let n = String.length prefix in
      (parse (String.sub info n (String.length info - n)), parse result)
  | _ -> failwith (workload ^ ": no result line")

let field path v =
  List.fold_left (fun v k -> Option.bind v (Jin.member k)) (Some v) path

let str path v = Option.bind (field path v) Jin.to_string
let correct result = Option.bind (field [ "correct" ] result) Jin.to_bool = Some true

let check_workload workload =
  let info1, res1 = run ~workload ~seed:7 ~trace:0 in
  let info2, res2 = run ~workload ~seed:7 ~trace:0 in
  let info3, res3 = run ~workload ~seed:8 ~trace:0 in
  List.iter
    (fun (seed, r) -> if not (correct r) then fail "%s seed %d: outputs failed their checks" workload seed)
    [ (7, res1); (7, res2); (8, res3) ];
  let fp i = str [ "fingerprint" ] i and inputs i = str [ "inputs_digest" ] i in
  if fp info1 = None || fp info1 <> fp info2 then
    fail "%s: work fingerprint differs between two runs of seed 7" workload;
  if inputs info1 <> inputs info2 then fail "%s: seed 7 gave two different inputs" workload;
  if inputs info1 = inputs info3 then fail "%s: seeds 7 and 8 gave the same inputs" workload;
  Printf.printf "%s: fingerprint %s\n%!" workload
    (Option.value ~default:"-" (fp info1))

let per_layer =
  [
    "assign.self_ms"; "error_rate.self_ms"; "pla.plane_builds"; "espresso.self_ms";
    "espresso.cubes"; "aig.build_ms"; "aig.balance_ms"; "aig.nodes"; "cut.self_ms";
    "cut.memo_hit_ratio"; "techmap.self_ms"; "techmap.gates"; "report.self_ms";
    "window.self_ms"; "window.leaves_mean"; "dc.bdd_windows"; "dc.bdd_ms";
    "dc.sat_windows"; "dc.sat_ms"; "sat.conflicts"; "sat.propagations";
    "sat.decisions"; "dc.patterns"; "dc.rewrite_ratio"; "check.equiv_ms";
    "fault.collapse_ms"; "fault.collapse_ratio"; "atpg.exhaustive_ms";
    "atpg.classes"; "atpg.sat_ms"; "atpg.us_per_class"; "sat.conflicts_per_class";
    "redundancy.passes"; "redundancy.removed"; "analysis.bdd_ms";
    "analysis.bdd_share"; "analysis.sampled_ms"; "analysis.first_query_ms";
    "analysis.memo_query_ms"; "gc.minor_mwords"; "gc.major_collections";
    "trace.attributed_fraction"; "trace.overhead";
  ]

let check_traced () =
  let info, res = run ~workload:"dcopt" ~seed:7 ~trace:1 in
  if not (correct res) then fail "traced dcopt: outputs failed their checks";
  List.iter
    (fun m ->
      if field [ "metrics"; m; "value" ] res = None then fail "traced dcopt: no %s" m)
    per_layer;
  (match str [ "trace_file" ] info with
  | Some path when Sys.file_exists path -> ()
  | _ -> fail "traced dcopt: no span file");
  match Option.bind (field [ "metrics"; "trace.attributed_fraction"; "value" ] res) Jin.to_float with
  | Some f when f > 0.9 && f <= 1.0 -> ()
  | _ -> fail "traced dcopt: spans cover less than 90%% of op time"

let () =
  List.iter check_workload [ "dcopt"; "testability"; "wide-analysis"; "sweep" ];
  check_traced ();
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
