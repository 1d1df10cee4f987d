(* Tests for the gate-level netlist and its simulators. *)

module N = Netlist
module Gate = Netlist.Gate
module Truth = Logic.Truth

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_f = Alcotest.(check (float 1e-9))

(* A full adder as primitive gates: sum = a^b^cin, cout = maj. *)
let full_adder () =
  let t = N.create ~ni:3 in
  let sum = N.add t Gate.Xor [| 0; 1; 2 |] in
  let ab = N.add t Gate.And [| 0; 1 |] in
  let ac = N.add t Gate.And [| 0; 2 |] in
  let bc = N.add t Gate.And [| 1; 2 |] in
  let cout = N.add t Gate.Or [| ab; ac; bc |] in
  N.set_outputs t [| sum; cout |];
  t

let test_full_adder_eval () =
  let t = full_adder () in
  for m = 0 to 7 do
    let a = m land 1 and b = (m lsr 1) land 1 and c = (m lsr 2) land 1 in
    let total = a + b + c in
    let outs = N.eval_minterm t m in
    check (Printf.sprintf "sum m=%d" m) (total land 1 = 1) outs.(0);
    check (Printf.sprintf "cout m=%d" m) (total >= 2) outs.(1)
  done

let test_output_tables_match_eval () =
  let t = full_adder () in
  let tables = N.output_tables t in
  for m = 0 to 7 do
    let outs = N.eval_minterm t m in
    check "table sum" outs.(0) (Bitvec.Bv.get tables.(0) m);
    check "table cout" outs.(1) (Bitvec.Bv.get tables.(1) m)
  done

let test_structure () =
  let t = full_adder () in
  check_int "ni" 3 (N.ni t);
  check_int "no" 2 (N.no t);
  check_int "nodes" 8 (N.node_count t);
  check_int "gates" 5 (N.gate_count t);
  check_int "depth" 2 (N.depth t)

let test_add_validation () =
  let t = N.create ~ni:2 in
  Alcotest.check_raises "forward fanin"
    (Invalid_argument "Netlist.add: fanin id out of range (must be < node id)")
    (fun () -> ignore (N.add t Gate.Not [| 5 |]));
  Alcotest.check_raises "arity" (Invalid_argument "Netlist.add: arity")
    (fun () -> ignore (N.add t Gate.Not [| 0; 1 |]))

let test_const_gates () =
  let t = N.create ~ni:1 in
  let c1 = N.add t (Gate.Const true) [||] in
  let a = N.add t Gate.And [| 0; c1 |] in
  N.set_outputs t [| a |];
  check "and with const1 is id" true (N.eval t [| true |]).(0);
  check "and with const1 is id (false)" false (N.eval t [| false |]).(0)

let test_cell_eval () =
  (* A cell implementing XOR2 via its truth table. *)
  let xor_tt = Truth.txor (Truth.var 2 0) (Truth.var 2 1) in
  let cell =
    Gate.Cell
      {
        Gate.cell_name = "XOR2";
        tt = xor_tt;
        arity = 2;
        area = 3.0;
        delay = 0.09;
        input_cap = 1.5;
      }
  in
  let t = N.create ~ni:2 in
  let x = N.add t cell [| 0; 1 |] in
  N.set_outputs t [| x |];
  for m = 0 to 3 do
    let expect = (m land 1) lxor ((m lsr 1) land 1) = 1 in
    check (Printf.sprintf "cell xor m=%d" m) expect (N.eval_minterm t m).(0)
  done;
  (* word-parallel agrees *)
  let tables = N.output_tables t in
  Alcotest.(check (list int)) "table" [ 1; 2 ] (Bitvec.Bv.to_list tables.(0));
  check_f "area from cell" 3.0 (N.area t);
  check_f "delay from cell" 0.09 (N.delay t)

let test_signal_probs () =
  let t = full_adder () in
  let probs = N.signal_probs t in
  (* inputs are uniform *)
  check_f "input prob" 0.5 probs.(0);
  (* sum (3-input xor) is 1 for 4 of 8 patterns *)
  let outs = N.outputs t in
  check_f "sum prob" 0.5 probs.(outs.(0));
  (* majority is 1 for 4 of 8 *)
  check_f "cout prob" 0.5 probs.(outs.(1))

let test_power_positive () =
  let t = full_adder () in
  check "power positive" true (N.dynamic_power t > 0.0)

let test_delay_depth_relation () =
  let t = full_adder () in
  check_f "unmapped delay = depth" (float_of_int (N.depth t)) (N.delay t)

(* Property: a random DAG of primitive gates — word-parallel tables
   agree with scalar evaluation everywhere. *)
let gen_netlist =
  QCheck.Gen.(
    let gate_gen =
      oneofl [ Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ]
    in
    list_size (int_range 1 12) (pair gate_gen (pair nat nat))
    |> map (fun specs ->
           let t = N.create ~ni:4 in
           List.iter
             (fun (g, (a, b)) ->
               let n = N.node_count t in
               let a = a mod n and b = b mod n in
               let b = if a = b then (b + 1) mod n else b in
               if a <> b then ignore (N.add t g [| a; b |]))
             specs;
           N.set_outputs t [| N.node_count t - 1 |];
           t))

let arb_netlist = QCheck.make ~print:(Format.asprintf "%a" N.pp) gen_netlist

let prop_tables_match_scalar =
  QCheck.Test.make ~name:"word-parallel sim agrees with scalar eval"
    ~count:150 arb_netlist (fun t ->
      let tables = N.output_tables t in
      let ok = ref true in
      for m = 0 to 15 do
        let outs = N.eval_minterm t m in
        Array.iteri
          (fun o v -> if Bitvec.Bv.get tables.(o) m <> v then ok := false)
          outs
      done;
      !ok)

let prop_signal_probs_match_tables =
  QCheck.Test.make ~name:"signal probs agree with output tables" ~count:100
    arb_netlist (fun t ->
      let probs = N.signal_probs t in
      let tables = N.output_tables t in
      let outs = N.outputs t in
      let ok = ref true in
      Array.iteri
        (fun o id ->
          let p = float_of_int (Bitvec.Bv.cardinal tables.(o)) /. 16.0 in
          if abs_float (p -. probs.(id)) > 1e-9 then ok := false)
        outs;
      !ok)

(* Gate.eval_words_at against Gate.eval, bit by bit, for every gate
   kind (cells of arity 0-5 included); fanins index a shared word array
   and may repeat. *)
let prop_eval_words_at_matches_eval =
  QCheck.Test.make ~name:"eval_words_at agrees with eval on every bit"
    ~count:300 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let bits () = Random.State.bits rng in
      let word () = bits () lor (bits () lsl 30) lor (bits () lsl 60) in
      let words = Array.init 6 (fun _ -> word ()) in
      let g, k =
        match Random.State.int rng 10 with
        | 0 -> (Gate.Const (Random.State.bool rng), 0)
        | 1 -> (Gate.Buf, 1)
        | 2 -> (Gate.Not, 1)
        | 3 ->
            let arity = Random.State.int rng (Truth.max_vars + 1) in
            let tt = Truth.of_fun arity (fun _ -> Random.State.bool rng) in
            ( Gate.Cell
                {
                  Gate.cell_name = "rand";
                  tt;
                  arity;
                  area = 1.0;
                  delay = 1.0;
                  input_cap = 1.0;
                },
              arity )
        | i ->
            ( [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor |]
              .(i - 4),
              2 + Random.State.int rng 4 )
      in
      let fanins = Array.init k (fun _ -> Random.State.int rng 6) in
      let w = Gate.eval_words_at g words fanins in
      let ok = ref true in
      for b = 0 to 62 do
        let bit x = (x lsr b) land 1 = 1 in
        let inputs = Array.map (fun f -> bit words.(f)) fanins in
        if bit w <> Gate.eval g inputs then ok := false
      done;
      !ok)

let suite =
  ( "netlist",
    [
      Alcotest.test_case "full adder eval" `Quick test_full_adder_eval;
      Alcotest.test_case "output tables match eval" `Quick
        test_output_tables_match_eval;
      Alcotest.test_case "structure stats" `Quick test_structure;
      Alcotest.test_case "add validation" `Quick test_add_validation;
      Alcotest.test_case "const gates" `Quick test_const_gates;
      Alcotest.test_case "cell eval via truth table" `Quick test_cell_eval;
      Alcotest.test_case "signal probabilities" `Quick test_signal_probs;
      Alcotest.test_case "dynamic power positive" `Quick test_power_positive;
      Alcotest.test_case "delay/depth relation" `Quick
        test_delay_depth_relation;
      QCheck_alcotest.to_alcotest prop_tables_match_scalar;
      QCheck_alcotest.to_alcotest prop_signal_probs_match_tables;
      QCheck_alcotest.to_alcotest prop_eval_words_at_matches_eval;
    ] )

(* replace_gate. *)

let test_replace_gate () =
  let t = N.create ~ni:2 in
  let a = N.add t Gate.And [| 0; 1 |] in
  N.set_outputs t [| a |];
  N.replace_gate t a Gate.Or;
  check "now or" true (N.eval t [| true; false |]).(0);
  Alcotest.check_raises "input protected"
    (Invalid_argument "Netlist.replace_gate: cannot replace an input")
    (fun () -> N.replace_gate t 0 Gate.Not);
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Netlist.replace_gate: arity mismatch") (fun () ->
      N.replace_gate t a Gate.Not)

let extra_cases = [ Alcotest.test_case "replace_gate" `Quick test_replace_gate ]

let suite = (fst suite, snd suite @ extra_cases)
