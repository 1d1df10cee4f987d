(* Tests for the static verification subsystem (lib/check): the
   diagnostic framework, the spec linter, the cover checker, the
   netlist analyzer and the Flow integration — including the seeded
   defect classes the checkers must detect and the kernel/scalar and
   exhaustive/BDD differential contracts. *)

module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bitvec.Bv.Kernel
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube
module Diag = Check.Diag
module Lint = Check.Spec_lint
module CC = Check.Cover_check
module NC = Check.Netlist_check
module N = Netlist
module Gate = Netlist.Gate
module Flow = Rdca_flow.Flow

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_code c diags = List.exists (fun d -> d.Diag.code = c) diags

let error_with c diags =
  List.exists
    (fun d -> d.Diag.code = c && d.Diag.severity = Diag.Error)
    diags

let warn_with c diags =
  List.exists (fun d -> d.Diag.code = c && d.Diag.severity = Diag.Warn) diags

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Diag framework *)

let test_diag_sort_and_counts () =
  let d1 = Diag.info ~code:"zzz" ~loc:Diag.Global "i" in
  let d2 = Diag.error ~code:"bbb" ~loc:(Diag.Output 1) "e2" in
  let d3 = Diag.warn ~code:"mmm" ~loc:(Diag.Input_var 0) "w" in
  let d4 = Diag.error ~code:"bbb" ~loc:(Diag.Output 0) "e1" in
  let sorted = Diag.sort [ d1; d2; d3; d4 ] in
  check "errors first" true
    (List.map (fun d -> d.Diag.severity) sorted
    = [ Diag.Error; Diag.Error; Diag.Warn; Diag.Info ]);
  (* same severity+code: location order breaks the tie *)
  check "output 0 before output 1" true
    (List.map (fun d -> d.Diag.loc) (Diag.errors sorted)
    = [ Diag.Output 0; Diag.Output 1 ]);
  check_int "error count" 2 (Diag.count Diag.Error sorted);
  check "has_errors" true (Diag.has_errors sorted);
  check "max severity" true (Diag.max_severity sorted = Some Diag.Error);
  check "max severity empty" true (Diag.max_severity [] = None)

let test_diag_cap () =
  let many =
    List.init 30 (fun i -> Diag.warn ~code:"dup" ~loc:(Diag.Node i) "w%d" i)
  in
  let capped = Diag.cap ~limit:10 many in
  check_int "10 shown + 1 summary" 11 (List.length capped);
  let last = List.nth capped 10 in
  check "summary counts the rest" true
    (last.Diag.loc = Diag.Global
    && last.Diag.message = "20 additional dup diagnostic(s) not shown");
  check "under limit untouched" true (Diag.cap ~limit:10 [] = []);
  let few = [ Diag.warn ~code:"dup" ~loc:Diag.Global "w" ] in
  check "at limit untouched" true (Diag.cap ~limit:1 few = few)

let test_diag_locations () =
  let open Diag in
  check "global" true (location_to_string Global = "global");
  check "output" true (location_to_string (Output 2) = "y2");
  check "input" true (location_to_string (Input_var 3) = "x3");
  check "minterm" true
    (location_to_string (Minterm { output = 1; minterm = 5 }) = "y1/m5");
  check "term" true (location_to_string (Term { line = 12; col = 0 }) = "term:12");
  check "term col" true
    (location_to_string (Term { line = 12; col = 5 }) = "term:12:5");
  check "cube" true
    (location_to_string (Cube { output = 0; index = 4 }) = "y0/cube4");
  check "node" true (location_to_string (Node 7) = "node:7")

let test_diag_json () =
  let diags =
    [
      Diag.error ~code:"e" ~loc:(Diag.Output 0) "bad";
      Diag.info ~code:"i" ~loc:Diag.Global "ok";
    ]
  in
  let s = Rdca_json.Jsonout.to_string (Diag.report_to_json diags) in
  List.iter
    (fun frag ->
      check (Printf.sprintf "json contains %s" frag) true (contains s frag))
    [ "\"errors\": 1"; "\"warnings\": 0"; "\"code\": \"e\""; "\"kind\": \"output\"" ]

(* ------------------------------------------------------------------ *)
(* Spec linter *)

(* y0 = x0 AND x1 over 3 inputs: x2 unused. *)
let spec_with_unused_input () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  Spec.set s ~o:0 ~m:7 Spec.On;
  s

let test_unused_inputs () =
  let s = spec_with_unused_input () in
  check "x2 unused" true (Lint.unused_inputs s = [ 2 ]);
  let diags = Lint.lint s in
  check "unused-input warned" true (warn_with "unused-input" diags);
  check "located at x2" true
    (List.exists
       (fun d -> d.Diag.code = "unused-input" && d.Diag.loc = Diag.Input_var 2)
       diags)

let test_constant_and_duplicate_outputs () =
  let s = Spec.create ~ni:2 ~no:4 ~default:Spec.Off in
  (* y0: normal; y1: duplicate of y0; y2: constant 1; y3: all DC. *)
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:1 ~m:1 Spec.On;
  for m = 0 to 3 do
    Spec.set s ~o:2 ~m Spec.On;
    Spec.set s ~o:3 ~m Spec.Dc
  done;
  let diags = Lint.lint s in
  check "duplicate-output" true
    (List.exists
       (fun d -> d.Diag.code = "duplicate-output" && d.Diag.loc = Diag.Output 1)
       diags);
  check "constant-output" true
    (List.exists
       (fun d -> d.Diag.code = "constant-output" && d.Diag.loc = Diag.Output 2)
       diags);
  check "free-output" true
    (List.exists
       (fun d -> d.Diag.code = "free-output" && d.Diag.loc = Diag.Output 3)
       diags);
  check "dc-density present" true (has_code "dc-density" diags);
  check "lint never errors" false (Diag.has_errors diags)

let test_lint_kernel_scalar_agree () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 20 do
    let ni = 3 + Random.State.int rng 3 in
    let no = 1 + Random.State.int rng 3 in
    let s = Spec.create ~ni ~no ~default:Spec.Dc in
    for o = 0 to no - 1 do
      for m = 0 to (1 lsl ni) - 1 do
        match Random.State.int rng 3 with
        | 0 -> Spec.set s ~o ~m Spec.On
        | 1 -> Spec.set s ~o ~m Spec.Off
        | _ -> ()
      done
    done;
    let d_scalar = K.with_mode false (fun () -> Lint.lint s) in
    let d_kernel = K.with_mode true (fun () -> Lint.lint s) in
    check "kernel/scalar lints identical" true (d_scalar = d_kernel)
  done

(* Raw .pla with an on/off overlap: the first term turns minterm 3 on,
   the second turns it off again ('0' only drives the off-set under
   .type fr/fdr). *)
let overlap_pla = ".i 2\n.o 1\n.type fdr\n11 1\n1- 0\n.e\n"

let test_pla_overlap_is_error () =
  let pla = Pla.parse_string overlap_pla in
  let diags = Lint.lint_pla pla in
  check "on-off-overlap error" true (error_with "on-off-overlap" diags);
  check "overlap_errors finds it too" true
    (error_with "on-off-overlap" (Lint.overlap_errors pla));
  (* the conflicting term is '1- 0' on line 5; its output char sits in
     column 4 *)
  check "located at term:5:4" true
    (List.exists
       (fun d ->
         d.Diag.code = "on-off-overlap"
         && d.Diag.loc = Diag.Term { line = 5; col = 4 })
       diags)

let test_pla_contradictory_and_duplicate_terms () =
  (* minterm 3 declared on then DC: contradictory (warn, not error);
     the 11 1 line appears twice: duplicate-term. *)
  let pla = Pla.parse_string ".i 2\n.o 1\n11 1\n11 1\n1- -\n.e\n" in
  let diags = Lint.lint_pla pla in
  check "contradictory-term warn" true (warn_with "contradictory-term" diags);
  check "duplicate-term warn" true (warn_with "duplicate-term" diags);
  check "no overlap error" false (error_with "on-off-overlap" diags);
  (* a clean file has neither *)
  let clean = Pla.parse_string ".i 2\n.o 1\n11 1\n0- 0\n.e\n" in
  let clean_diags = Lint.lint_pla clean in
  check "clean file has no term diags" false
    (has_code "contradictory-term" clean_diags
    || has_code "duplicate-term" clean_diags
    || has_code "on-off-overlap" clean_diags)

(* ------------------------------------------------------------------ *)
(* Cover checker *)

let two_bit_and () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  s

let test_cover_good () =
  let s = two_bit_and () in
  let cover = Cover.make ~n:2 [ Cube.of_string "11" ] in
  check "good cover passes" false
    (Diag.has_errors (CC.check_cover ~spec:s ~o:0 cover))

let test_cover_uncovered_onset () =
  let s = two_bit_and () in
  let empty = Cover.empty ~n:2 in
  let diags = CC.check_cover ~spec:s ~o:0 empty in
  check "uncovered-onset error" true (error_with "uncovered-onset" diags)

let test_cover_offset_hit () =
  let s = two_bit_and () in
  let cover = Cover.make ~n:2 [ Cube.of_string "1-" ] in
  let diags = CC.check_cover ~spec:s ~o:0 cover in
  check "offset-hit error" true (error_with "offset-hit" diags);
  check "offending cube located" true
    (List.exists
       (fun d ->
         d.Diag.code = "offset-hit"
         && d.Diag.loc = Diag.Cube { output = 0; index = 0 })
       diags)

let test_cover_redundancy_warnings () =
  let s = two_bit_and () in
  Spec.set s ~o:0 ~m:1 Spec.Dc;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  (* 1- is legal (m1 off→wait m1=01: x0=1).  Cube "11" contained in
     "1-"; "1-" itself covers on-set, so "11" is both contained and
     redundant. *)
  let cover = Cover.make ~n:2 [ Cube.of_string "1-"; Cube.of_string "11" ] in
  let diags = CC.check_cover ~spec:s ~o:0 cover in
  check "no errors" false (Diag.has_errors diags);
  check "contained-cube warn" true (warn_with "contained-cube" diags);
  check "redundant-cube warn" true (warn_with "redundant-cube" diags)

let test_coverage_counts_engines_agree () =
  let rng = Random.State.make [| 4242 |] in
  for _ = 1 to 30 do
    let ni = 3 + Random.State.int rng 3 in
    let s = Spec.create ~ni ~no:1 ~default:Spec.Dc in
    for m = 0 to (1 lsl ni) - 1 do
      match Random.State.int rng 3 with
      | 0 -> Spec.set s ~o:0 ~m Spec.On
      | 1 -> Spec.set s ~o:0 ~m Spec.Off
      | _ -> ()
    done;
    let cover =
      Cover.make ~n:ni
        (List.init
           (1 + Random.State.int rng 4)
           (fun _ ->
             Cube.make ~n:ni
               (List.init ni (fun _ ->
                    match Random.State.int rng 3 with
                    | 0 -> Cube.Zero
                    | 1 -> Cube.One
                    | _ -> Cube.Free))))
    in
    let k = CC.coverage_counts_kernel ~spec:s ~o:0 cover in
    let sc = CC.coverage_counts_scalar ~spec:s ~o:0 cover in
    check "kernel = scalar coverage counts" true (k = sc)
  done

let test_check_covers_length_mismatch () =
  let s = two_bit_and () in
  Alcotest.check_raises "wrong list length"
    (Invalid_argument "Cover_check.check_covers: 2 covers for 1 outputs")
    (fun () -> ignore (CC.check_covers ~spec:s [ Cover.empty ~n:2; Cover.empty ~n:2 ]))

(* ------------------------------------------------------------------ *)
(* Netlist analyzer *)

let test_cycle_detection () =
  (* 0,1 inputs; 2 -> 3 -> 4 -> 2 cycle feeding output 4. *)
  let g =
    {
      NC.node_count = 5;
      inputs = [| 0; 1 |];
      fanins = [| [||]; [||]; [| 0; 4 |]; [| 2 |]; [| 3; 1 |] |];
      outputs = [| 4 |];
    }
  in
  let diags = NC.structure g in
  check "combinational-cycle error" true
    (error_with "combinational-cycle" diags);
  check "cycle names its nodes" true
    (List.exists
       (fun d ->
         d.Diag.code = "combinational-cycle"
         && d.Diag.loc = Diag.Node 2
         && d.Diag.message
            = "combinational cycle through 3 node(s): 2, 3, 4")
       diags)

let test_self_loop_detection () =
  let g =
    {
      NC.node_count = 2;
      inputs = [| 0 |];
      fanins = [| [||]; [| 1 |] |];
      outputs = [| 1 |];
    }
  in
  check "self-loop is a cycle" true
    (error_with "combinational-cycle" (NC.structure g))

let test_dangling_and_floating () =
  (* node 3 (And of inputs) feeds nothing; input 1 floats. *)
  let g =
    {
      NC.node_count = 4;
      inputs = [| 0; 1 |];
      fanins = [| [||]; [||]; [| 0 |]; [| 0; 0 |] |];
      outputs = [| 2 |];
    }
  in
  let diags = NC.structure g in
  check "dangling-node warn" true (warn_with "dangling-node" diags);
  check "dangling is node 3" true
    (List.exists
       (fun d -> d.Diag.code = "dangling-node" && d.Diag.loc = Diag.Node 3)
       diags);
  check "floating-input warn" true (warn_with "floating-input" diags);
  check "floating is node 1" true
    (List.exists
       (fun d -> d.Diag.code = "floating-input" && d.Diag.loc = Diag.Node 1)
       diags);
  check "no cycle errors" false (has_code "combinational-cycle" diags)

let test_bad_fanin () =
  let g =
    {
      NC.node_count = 2;
      inputs = [| 0 |];
      fanins = [| [||]; [| 9 |] |];
      outputs = [| 1 |];
    }
  in
  check "bad-fanin error" true (error_with "bad-fanin" (NC.structure g))

let full_adder () =
  let t = N.create ~ni:3 in
  let sum = N.add t Gate.Xor [| 0; 1; 2 |] in
  let ab = N.add t Gate.And [| 0; 1 |] in
  let ac = N.add t Gate.And [| 0; 2 |] in
  let bc = N.add t Gate.And [| 1; 2 |] in
  let cout = N.add t Gate.Or [| ab; ac; bc |] in
  N.set_outputs t [| sum; cout |];
  t

let test_clean_netlist_structure () =
  let diags = NC.check (full_adder ()) in
  check "no errors on a clean netlist" false (Diag.has_errors diags);
  check "fanout stats present" true (has_code "fanout-stats" diags)

(* Spec exactly matching the full adder's two outputs. *)
let full_adder_spec () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  for m = 0 to 7 do
    let total = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) in
    if total land 1 = 1 then Spec.set s ~o:0 ~m Spec.On;
    if total >= 2 then Spec.set s ~o:1 ~m Spec.On
  done;
  s

let test_equiv_pass_both_engines () =
  let nl = full_adder () and s = full_adder_spec () in
  List.iter
    (fun engine ->
      check "equivalent netlist passes" true
        (NC.equiv_spec ~engine ~spec:s nl = []))
    [ NC.Auto; NC.Exhaustive; NC.Bdd_backed ]

let test_equiv_mismatch_engines_identical () =
  let nl = full_adder () and s = full_adder_spec () in
  (* Break cout: maj -> nand of the last pair. *)
  N.replace_gate nl 7 Gate.Nand;
  let d_ex = NC.equiv_spec ~engine:NC.Exhaustive ~spec:s nl in
  let d_bdd = NC.equiv_spec ~engine:NC.Bdd_backed ~spec:s nl in
  check "mismatch detected" true (error_with "care-set-mismatch" d_ex);
  check "engines produce identical diagnostics" true (d_ex = d_bdd)

let test_equiv_respects_dc () =
  (* Output disagrees with the netlist only on DC minterms: passes. *)
  let nl = full_adder () in
  let s = full_adder_spec () in
  Spec.set s ~o:1 ~m:7 Spec.Dc;
  check "DC minterms don't count" true
    (NC.equiv_spec ~engine:NC.Exhaustive ~spec:s nl = []);
  Spec.set s ~o:1 ~m:0 Spec.On;
  check "care mismatch still counts" true
    (Diag.has_errors (NC.equiv_spec ~engine:NC.Exhaustive ~spec:s nl))

let test_equiv_arity_mismatch () =
  let nl = full_adder () in
  let s = Spec.create ~ni:2 ~no:2 ~default:Spec.Dc in
  check "input arity mismatch" true
    (error_with "arity-mismatch" (NC.equiv_spec ~spec:s nl))

(* ------------------------------------------------------------------ *)
(* Flow integration *)

let with_tmp_pla contents f =
  let path = Filename.temp_file "rdca_check" ".pla" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_flow_refuses_overlap () =
  with_tmp_pla overlap_pla @@ fun path ->
  (match Flow.load_spec path with
  | Error (Flow.Check_failed { diags; _ }) ->
      check "refusal carries the overlap diag" true
        (error_with "on-off-overlap" diags)
  | Ok _ -> Alcotest.fail "overlapping .pla accepted"
  | Error e -> Alcotest.fail (Flow.error_to_string e));
  check "error message mentions the check" true
    (match Flow.load_spec path with
    | Error e -> contains (Flow.error_to_string e) "on-off-overlap"
    | Ok _ -> false)

let test_flow_load_source_lints () =
  with_tmp_pla ".i 2\n.o 1\n11 1\n11 1\n.e\n" @@ fun path ->
  match Flow.load_source path with
  | Ok src ->
      check "pla retained for files" true (src.Flow.pla <> None);
      check "term-level lint sees duplicates" true
        (warn_with "duplicate-term" (Flow.lint_source src))
  | Error e -> Alcotest.fail (Flow.error_to_string e)

let small_spec () =
  let rng = Random.State.make [| 77 |] in
  let p =
    Synthetic.Synth_gen.default_params ~ni:6 ~dc_frac:0.6 ~target_cf:(Some 0.6)
  in
  Synthetic.Synth_gen.spec ~rng ~no:3 p

let test_implement_covers_clean () =
  let spec = small_spec () in
  check "spec lints clean" false (Diag.has_errors (Lint.lint spec));
  let full, covers = Flow.implement spec in
  check_int "one cover per output" 3 (List.length covers);
  check "fully specified" true (Spec.dc_fraction full = 0.0);
  check "covers realise the care set" false
    (Diag.has_errors (CC.check_covers ~spec covers))

let test_synthesize_audit_clean () =
  let spec = small_spec () in
  List.iter
    (fun strategy ->
      let r = Flow.synthesize ~mode:Techmap.Mapper.Delay ~strategy spec in
      let diags =
        Check.implementation ~spec ~covers:r.Flow.covers r.Flow.netlist
      in
      check "no error diagnostics" false (Diag.has_errors diags);
      check "covers ride along" true (List.length r.Flow.covers = 3))
    [ Flow.Conventional; Flow.Ranking 1.0; Flow.Complete ]

let test_synthesize_shared_covers () =
  let spec = small_spec () in
  let r = Flow.synthesize_shared ~mode:Techmap.Mapper.Delay
      ~strategy:Flow.Conventional spec
  in
  (* The per-output view of the shared cubes must still be a correct
     cover of each output's care set. *)
  check "shared covers pass the checker" false
    (Diag.has_errors (CC.check_covers ~spec r.Flow.covers))

(* ------------------------------------------------------------------ *)
(* Properties (QCheck): espresso covers always check clean; dropping a
   random on-set minterm is always detected. *)

let gen_consistent_spec =
  QCheck.Gen.(
    pair (int_range 3 6) (int_bound 1_000_000)
    |> map (fun (ni, seed) ->
           let rng = Random.State.make [| seed; ni |] in
           let no = 1 + Random.State.int rng 3 in
           let s = Spec.create ~ni ~no ~default:Spec.Dc in
           for o = 0 to no - 1 do
             for m = 0 to (1 lsl ni) - 1 do
               match Random.State.int rng 3 with
               | 0 -> Spec.set s ~o ~m Spec.On
               | 1 -> Spec.set s ~o ~m Spec.Off
               | _ -> ()
             done
           done;
           s))

let arb_spec =
  QCheck.make ~print:(fun s -> Pla.to_string s) gen_consistent_spec

let espresso_covers spec =
  List.init (Spec.no spec) (fun o ->
      let on = Spec.on_bv spec ~o and dc = Spec.dc_bv spec ~o in
      Espresso.Dense.minimize ~n:(Spec.ni spec) ~on ~dc)

let prop_espresso_covers_check_clean =
  QCheck.Test.make ~name:"espresso covers pass the cover checker" ~count:100
    arb_spec (fun spec ->
      not (Diag.has_errors (CC.check_covers ~spec (espresso_covers spec))))

let prop_dropped_minterm_detected =
  QCheck.Test.make ~name:"dropping an on-set minterm fails the checker"
    ~count:100 arb_spec (fun spec ->
      (* pick the first output with a nonempty on-set and re-cover it
         from its on-set minus one minterm *)
      let no = Spec.no spec and ni = Spec.ni spec in
      let rec pick o =
        if o >= no then None
        else if Spec.on_count spec ~o > 0 then Some o
        else pick (o + 1)
      in
      match pick 0 with
      | None -> QCheck.assume_fail ()
      | Some o ->
          let on = Bv.copy (Spec.on_bv spec ~o) in
          let victim = List.hd (Bv.to_list on) in
          Bv.clear on victim;
          let broken = Cover.of_bv ~n:ni on in
          let covers =
            List.mapi
              (fun o' c -> if o' = o then broken else c)
              (espresso_covers spec)
          in
          let diags = CC.check_covers ~spec covers in
          Diag.has_errors diags
          && List.exists
               (fun d ->
                 d.Diag.code = "uncovered-onset"
                 && d.Diag.loc = Diag.Output o)
               diags)

let prop_equiv_engines_agree =
  QCheck.Test.make ~name:"exhaustive and BDD equivalence engines agree"
    ~count:40 arb_spec (fun spec ->
      let full, covers = Flow.implement spec in
      ignore full;
      let aig = Aig.of_covers ~ni:(Spec.ni spec) covers in
      let nl =
        Techmap.Mapper.map ~mode:Techmap.Mapper.Area
          ~lib:(Techmap.Stdcell.default_library ()) (Aig.Opt.balance aig)
      in
      let d_ex = NC.equiv_spec ~engine:NC.Exhaustive ~spec nl in
      let d_bdd = NC.equiv_spec ~engine:NC.Bdd_backed ~spec nl in
      d_ex = [] && d_bdd = [])

let suite =
  ( "check",
    [
      Alcotest.test_case "diag sort and counts" `Quick test_diag_sort_and_counts;
      Alcotest.test_case "diag cap" `Quick test_diag_cap;
      Alcotest.test_case "diag locations" `Quick test_diag_locations;
      Alcotest.test_case "diag json" `Quick test_diag_json;
      Alcotest.test_case "unused inputs" `Quick test_unused_inputs;
      Alcotest.test_case "constant/duplicate outputs" `Quick
        test_constant_and_duplicate_outputs;
      Alcotest.test_case "lint kernel=scalar" `Quick
        test_lint_kernel_scalar_agree;
      Alcotest.test_case "pla overlap is error" `Quick test_pla_overlap_is_error;
      Alcotest.test_case "pla contradictory/duplicate" `Quick
        test_pla_contradictory_and_duplicate_terms;
      Alcotest.test_case "cover good" `Quick test_cover_good;
      Alcotest.test_case "cover uncovered onset" `Quick
        test_cover_uncovered_onset;
      Alcotest.test_case "cover offset hit" `Quick test_cover_offset_hit;
      Alcotest.test_case "cover redundancy warns" `Quick
        test_cover_redundancy_warnings;
      Alcotest.test_case "coverage counts engines" `Quick
        test_coverage_counts_engines_agree;
      Alcotest.test_case "check_covers length" `Quick
        test_check_covers_length_mismatch;
      Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
      Alcotest.test_case "self loop" `Quick test_self_loop_detection;
      Alcotest.test_case "dangling and floating" `Quick
        test_dangling_and_floating;
      Alcotest.test_case "bad fanin" `Quick test_bad_fanin;
      Alcotest.test_case "clean netlist" `Quick test_clean_netlist_structure;
      Alcotest.test_case "equiv pass both engines" `Quick
        test_equiv_pass_both_engines;
      Alcotest.test_case "equiv mismatch identical" `Quick
        test_equiv_mismatch_engines_identical;
      Alcotest.test_case "equiv respects DC" `Quick test_equiv_respects_dc;
      Alcotest.test_case "equiv arity mismatch" `Quick
        test_equiv_arity_mismatch;
      Alcotest.test_case "flow refuses overlap" `Quick test_flow_refuses_overlap;
      Alcotest.test_case "flow load_source lints" `Quick
        test_flow_load_source_lints;
      Alcotest.test_case "implement covers check clean" `Quick
        test_implement_covers_clean;
      Alcotest.test_case "synthesize audit clean" `Quick
        test_synthesize_audit_clean;
      Alcotest.test_case "shared covers checked" `Quick
        test_synthesize_shared_covers;
      QCheck_alcotest.to_alcotest prop_espresso_covers_check_clean;
      QCheck_alcotest.to_alcotest prop_dropped_minterm_detected;
      QCheck_alcotest.to_alcotest prop_equiv_engines_agree;
    ] )
