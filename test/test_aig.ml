(* Tests for the AIG: strashing, semantics, lowering, balance, cuts. *)

module Cover = Twolevel.Cover
module Cube = Twolevel.Cube
module Truth = Logic.Truth

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_constants () =
  let t = Aig.create ~ni:2 in
  check_int "not const0" Aig.const1 (Aig.lnot Aig.const0);
  let a = Aig.input t 0 in
  check_int "a & 0" Aig.const0 (Aig.land_ t a Aig.const0);
  check_int "a & 1" a (Aig.land_ t a Aig.const1);
  check_int "a & a" a (Aig.land_ t a a);
  check_int "a & !a" Aig.const0 (Aig.land_ t a (Aig.lnot a));
  check_int "no nodes created" 0 (Aig.num_ands t)

let test_strash () =
  let t = Aig.create ~ni:2 in
  let a = Aig.input t 0 and b = Aig.input t 1 in
  let x = Aig.land_ t a b in
  let y = Aig.land_ t b a in
  check_int "commutative strash" x y;
  check_int "one node" 1 (Aig.num_ands t)

let test_semantics () =
  let t = Aig.create ~ni:3 in
  let a = Aig.input t 0 and b = Aig.input t 1 and c = Aig.input t 2 in
  let f = Aig.lor_ t (Aig.land_ t a b) (Aig.lxor_ t b c) in
  Aig.set_outputs t [| f |];
  for m = 0 to 7 do
    let av = m land 1 <> 0 and bv = m land 2 <> 0 and cv = m land 4 <> 0 in
    let expected = (av && bv) || bv <> cv in
    check (Printf.sprintf "m=%d" m) expected (Aig.eval_minterm t m).(0)
  done

let test_mux () =
  let t = Aig.create ~ni:3 in
  let s = Aig.input t 0 and a = Aig.input t 1 and b = Aig.input t 2 in
  let f = Aig.lmux t ~sel:s ~th:a ~el:b in
  Aig.set_outputs t [| f |];
  for m = 0 to 7 do
    let sv = m land 1 <> 0 and av = m land 2 <> 0 and bv = m land 4 <> 0 in
    check (Printf.sprintf "mux m=%d" m) (if sv then av else bv)
      (Aig.eval_minterm t m).(0)
  done

let cov n strs = Cover.make ~n (List.map Cube.of_string strs)

let test_of_covers () =
  let c0 = cov 3 [ "1-0"; "-11" ] in
  let c1 = cov 3 [ "111" ] in
  let t = Aig.of_covers ~ni:3 [ c0; c1 ] in
  check_int "two outputs" 2 (Aig.no t);
  for m = 0 to 7 do
    let outs = Aig.eval_minterm t m in
    check (Printf.sprintf "o0 m=%d" m) (Cover.eval c0 m) outs.(0);
    check (Printf.sprintf "o1 m=%d" m) (Cover.eval c1 m) outs.(1)
  done

let test_to_netlist_equiv () =
  let c0 = cov 4 [ "1--0"; "-11-"; "0-01" ] in
  let t = Aig.of_covers ~ni:4 [ c0 ] in
  let nl = Aig.to_netlist t in
  for m = 0 to 15 do
    check
      (Printf.sprintf "netlist m=%d" m)
      (Aig.eval_minterm t m).(0)
      (Netlist.eval_minterm nl m).(0)
  done

let test_to_netlist_complemented_output () =
  (* Output is a complemented edge: NOT must be materialised. *)
  let t = Aig.create ~ni:2 in
  let f = Aig.lnot (Aig.land_ t (Aig.input t 0) (Aig.input t 1)) in
  Aig.set_outputs t [| f |];
  let nl = Aig.to_netlist t in
  for m = 0 to 3 do
    check (Printf.sprintf "nand m=%d" m) (m <> 3) (Netlist.eval_minterm nl m).(0)
  done

let test_balance_preserves () =
  (* A long chain a & (b & (c & d)) must balance to depth 2. *)
  let t = Aig.create ~ni:4 in
  let a = Aig.input t 0 and b = Aig.input t 1 in
  let c = Aig.input t 2 and d = Aig.input t 3 in
  let f = Aig.land_ t a (Aig.land_ t b (Aig.land_ t c d)) in
  Aig.set_outputs t [| f |];
  check_int "chain depth" 3 (Aig.depth t);
  let t' = Aig.Opt.balance t in
  check_int "balanced depth" 2 (Aig.depth t');
  for m = 0 to 15 do
    check (Printf.sprintf "balance m=%d" m)
      (Aig.eval_minterm t m).(0)
      (Aig.eval_minterm t' m).(0)
  done

let test_cleanup () =
  let t = Aig.create ~ni:2 in
  let a = Aig.input t 0 and b = Aig.input t 1 in
  let f = Aig.land_ t a b in
  let _dead = Aig.land_ t a (Aig.lnot b) in
  Aig.set_outputs t [| f |];
  check_int "two nodes before" 2 (Aig.num_ands t);
  let t' = Aig.Opt.cleanup t in
  check_int "one node after" 1 (Aig.num_ands t');
  for m = 0 to 3 do
    check (Printf.sprintf "cleanup m=%d" m)
      (Aig.eval_minterm t m).(0)
      (Aig.eval_minterm t' m).(0)
  done

let test_node_probs () =
  let t = Aig.create ~ni:2 in
  let f = Aig.land_ t (Aig.input t 0) (Aig.input t 1) in
  Aig.set_outputs t [| f |];
  let probs = Aig.node_probs t in
  Alcotest.(check (float 1e-9)) "and prob" 0.25 probs.(Aig.node_of f)

let test_cut_enumeration () =
  let t = Aig.create ~ni:4 in
  let a = Aig.input t 0 and b = Aig.input t 1 in
  let c = Aig.input t 2 and d = Aig.input t 3 in
  let ab = Aig.land_ t a b in
  let cd = Aig.land_ t c d in
  let f = Aig.land_ t ab cd in
  Aig.set_outputs t [| f |];
  let cuts = Aig.Cut.enumerate t ~k:4 ~max_cuts:8 in
  let fcuts = cuts.(Aig.node_of f) in
  check "has a 4-cut over the inputs" true
    (List.exists
       (fun cut ->
         cut.Aig.Cut.leaves
         = [| Aig.node_of a; Aig.node_of b; Aig.node_of c; Aig.node_of d |])
       fcuts);
  (* The 4-input cut function must be the AND of all four leaves. *)
  List.iter
    (fun cut ->
      if Array.length cut.Aig.Cut.leaves = 4 then
        check_int "and4 tt" (Truth.of_fun 4 (fun idx -> idx = 15)) cut.Aig.Cut.tt)
    fcuts

let test_cut_enumerate_memo () =
  let build () =
    let t = Aig.create ~ni:4 in
    let a = Aig.input t 0 and b = Aig.input t 1 in
    let c = Aig.input t 2 and d = Aig.input t 3 in
    let f = Aig.lor_ t (Aig.land_ t a b) (Aig.land_ t c d) in
    Aig.set_outputs t [| f |];
    t
  in
  let t = build () in
  Aig.Cut.clear_memo ();
  let plain = Aig.Cut.enumerate t ~k:4 ~max_cuts:8 in
  let miss = Aig.Cut.enumerate_memo t ~k:4 ~max_cuts:8 in
  check "memo miss equals plain enumeration" true (miss = plain);
  (* A second call — even on a freshly rebuilt but structurally
     identical AIG — returns the shared cached array. *)
  check "memo hit shares the cached result" true
    (Aig.Cut.enumerate_memo (build ()) ~k:4 ~max_cuts:8 == miss);
  (* Different parameters are different keys. *)
  let k2 = Aig.Cut.enumerate_memo t ~k:2 ~max_cuts:4 in
  check "distinct (k, max_cuts) key" true
    (k2 = Aig.Cut.enumerate t ~k:2 ~max_cuts:4);
  Aig.Cut.clear_memo ();
  check "identical again after clear_memo" true
    (Aig.Cut.enumerate_memo t ~k:4 ~max_cuts:8 = plain)

let test_cut_function_matches () =
  let t = Aig.create ~ni:3 in
  let a = Aig.input t 0 and b = Aig.input t 1 and c = Aig.input t 2 in
  let f = Aig.lor_ t (Aig.land_ t a b) c in
  Aig.set_outputs t [| f |];
  let cuts = Aig.Cut.enumerate t ~k:4 ~max_cuts:8 in
  List.iter
    (fun cut ->
      for m = 0 to 7 do
        check "cut consistent" true
          (Aig.Cut.consistent_on t ~node:(Aig.node_of f) cut ~minterm:m)
      done)
    cuts.(Aig.node_of f)

(* Properties over random covers. *)

let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (frequencyl [ (2, Cube.Zero); (2, Cube.One); (3, Cube.Free) ])
      |> map (Cube.make ~n)
    in
    list_size (int_range 0 6) gen_cube |> map (fun cs -> Cover.make ~n cs))

let arb_cover n =
  QCheck.make ~print:(fun cv -> Format.asprintf "%a" Cover.pp cv) (gen_cover n)

let prop_of_covers_semantics =
  QCheck.Test.make ~name:"of_covers agrees with Cover.eval" ~count:150
    (arb_cover 5) (fun cover ->
      let t = Aig.of_covers ~ni:5 [ cover ] in
      let ok = ref true in
      for m = 0 to 31 do
        if (Aig.eval_minterm t m).(0) <> Cover.eval cover m then ok := false
      done;
      !ok)

let prop_balance_equiv =
  QCheck.Test.make ~name:"balance preserves all outputs" ~count:100
    QCheck.(pair (arb_cover 5) (arb_cover 5))
    (fun (c0, c1) ->
      let t = Aig.of_covers ~ni:5 [ c0; c1 ] in
      let t' = Aig.Opt.balance t in
      let ok = ref true in
      for m = 0 to 31 do
        if Aig.eval_minterm t m <> Aig.eval_minterm t' m then ok := false
      done;
      !ok)

let prop_balance_depth =
  QCheck.Test.make ~name:"balance never increases depth" ~count:100
    (arb_cover 5) (fun cover ->
      let t = Aig.of_covers ~ni:5 [ cover ] in
      Aig.depth (Aig.Opt.balance t) <= Aig.depth t)

let prop_netlist_equiv =
  QCheck.Test.make ~name:"to_netlist preserves outputs" ~count:100
    QCheck.(pair (arb_cover 5) (arb_cover 5))
    (fun (c0, c1) ->
      let t = Aig.of_covers ~ni:5 [ c0; c1 ] in
      let nl = Aig.to_netlist t in
      let ok = ref true in
      for m = 0 to 31 do
        if Aig.eval_minterm t m <> Netlist.eval_minterm nl m then ok := false
      done;
      !ok)

let prop_cut_functions =
  QCheck.Test.make ~name:"cut functions consistent on every reachable input"
    ~count:60 (arb_cover 4) (fun cover ->
      let t = Aig.of_covers ~ni:4 [ cover ] in
      let cuts = Aig.Cut.enumerate t ~k:4 ~max_cuts:6 in
      let ok = ref true in
      Aig.iter_ands t (fun id _ _ ->
          List.iter
            (fun cut ->
              for m = 0 to 15 do
                if not (Aig.Cut.consistent_on t ~node:id cut ~minterm:m) then
                  ok := false
              done)
            cuts.(id));
      !ok)

let suite =
  ( "aig",
    [
      Alcotest.test_case "constant folding" `Quick test_constants;
      Alcotest.test_case "structural hashing" `Quick test_strash;
      Alcotest.test_case "semantics" `Quick test_semantics;
      Alcotest.test_case "mux" `Quick test_mux;
      Alcotest.test_case "of_covers" `Quick test_of_covers;
      Alcotest.test_case "to_netlist equivalence" `Quick test_to_netlist_equiv;
      Alcotest.test_case "complemented output" `Quick
        test_to_netlist_complemented_output;
      Alcotest.test_case "balance chain" `Quick test_balance_preserves;
      Alcotest.test_case "cleanup" `Quick test_cleanup;
      Alcotest.test_case "node probabilities" `Quick test_node_probs;
      Alcotest.test_case "cut enumeration" `Quick test_cut_enumeration;
      Alcotest.test_case "cut enumeration memo" `Quick test_cut_enumerate_memo;
      Alcotest.test_case "cut function recomputation" `Quick
        test_cut_function_matches;
      QCheck_alcotest.to_alcotest prop_of_covers_semantics;
      QCheck_alcotest.to_alcotest prop_balance_equiv;
      QCheck_alcotest.to_alcotest prop_balance_depth;
      QCheck_alcotest.to_alcotest prop_netlist_equiv;
      QCheck_alcotest.to_alcotest prop_cut_functions;
    ] )
