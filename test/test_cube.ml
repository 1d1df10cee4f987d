(* Unit and property tests for Twolevel.Cube. *)

module Cube = Twolevel.Cube
module M = Bitvec.Minterm

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let c s = Cube.of_string s

let test_string_roundtrip () =
  check_str "mixed" "01-1" (Cube.to_string ~n:4 (c "01-1"));
  check_str "all free" "----" (Cube.to_string ~n:4 (Cube.full ~n:4));
  check_str "espresso 2 accepted" "0-1" (Cube.to_string ~n:3 (c "021"))

let test_of_minterm () =
  let cb = Cube.of_minterm ~n:4 0b0101 in
  check_str "minterm 5" "1010" (Cube.to_string ~n:4 cb);
  check "contains itself" true (Cube.contains_minterm cb 0b0101);
  check "not neighbour" false (Cube.contains_minterm cb 0b0100)

let test_get_set () =
  let cb = c "0-1" in
  Alcotest.(check bool) "get 0" true (Cube.get cb 0 = Cube.Zero);
  Alcotest.(check bool) "get 1" true (Cube.get cb 1 = Cube.Free);
  Alcotest.(check bool) "get 2" true (Cube.get cb 2 = Cube.One);
  let cb2 = Cube.set cb 1 Cube.One in
  check_str "after set" "011" (Cube.to_string ~n:3 cb2)

let test_contains_minterm () =
  let cb = c "1-0" in
  (* variable 0 = 1, variable 1 free, variable 2 = 0 *)
  check "m=1 (001 as bits)" true (Cube.contains_minterm cb 0b001);
  check "m=3" true (Cube.contains_minterm cb 0b011);
  check "m=0 fails var0" false (Cube.contains_minterm cb 0b000);
  check "m=5 fails var2" false (Cube.contains_minterm cb 0b101)

let test_subsumes () =
  check "wider subsumes narrower" true (Cube.subsumes (c "--1") (c "011"));
  check "narrower not wider" false (Cube.subsumes (c "011") (c "--1"));
  check "reflexive" true (Cube.subsumes (c "01-") (c "01-"));
  check "disjoint" false (Cube.subsumes (c "1--") (c "0--"))

let test_intersect () =
  (match Cube.intersect (c "1--") (c "-0-") with
  | Some x -> check_str "meet" "10-" (Cube.to_string ~n:3 x)
  | None -> Alcotest.fail "expected intersection");
  check "empty" true (Cube.intersect (c "1--") (c "0--") = None)

let test_supercube () =
  check_str "supercube" "-1-"
    (Cube.to_string ~n:3 (Cube.supercube (c "010") (c "11-")))

let test_counts () =
  check_int "free_count" 2 (Cube.free_count ~n:4 (c "1--0"));
  check_int "free_count full" 4 (Cube.free_count ~n:4 (Cube.full ~n:4))

let test_iter_minterms () =
  let seen = ref [] in
  Cube.iter_minterms ~n:3 (fun m -> seen := m :: !seen) (c "1-0");
  let seen = List.sort compare !seen in
  Alcotest.(check (list int)) "minterms of 1-0" [ 0b001; 0b011 ] seen

let test_of_masks () =
  let cb = c "1-0" in
  check "round trip" true
    (Cube.equal cb (Cube.of_masks ~m0:(Cube.mask0 cb) ~m1:(Cube.mask1 cb)));
  check_str "zero-variable cube" ""
    (Cube.to_string ~n:0 (Cube.of_masks ~m0:0 ~m1:0));
  (* Variables 0 and 1 would have the empty 00 encoding. *)
  let rejects ~m0 ~m1 =
    match Cube.of_masks ~m0 ~m1 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "gap below the highest bit" true (rejects ~m0:4 ~m1:0);
  check "gap between the masks" true (rejects ~m0:1 ~m1:4);
  check "negative mask" true (rejects ~m0:(-1) ~m1:0)

let gen_cube n =
  QCheck.Gen.(
    list_repeat n (oneofl [ Cube.Zero; Cube.One; Cube.Free ])
    |> map (fun lits -> Cube.make ~n lits))

let arb_cube n =
  QCheck.make ~print:(Cube.to_string ~n) (gen_cube n)

let prop_subsume_semantics =
  QCheck.Test.make ~name:"subsumes agrees with minterm containment" ~count:300
    QCheck.(pair (arb_cube 6) (arb_cube 6))
    (fun (a, b) ->
      let sub = Cube.subsumes a b in
      let sem = ref true in
      Cube.iter_minterms ~n:6 (fun m ->
          if not (Cube.contains_minterm a m) then sem := false)
        b;
      sub = !sem)

let prop_intersect_semantics =
  QCheck.Test.make ~name:"intersect = minterm set intersection" ~count:300
    QCheck.(pair (arb_cube 6) (arb_cube 6))
    (fun (a, b) ->
      let expected m = Cube.contains_minterm a m && Cube.contains_minterm b m in
      match Cube.intersect a b with
      | None ->
          let any = ref false in
          for m = 0 to 63 do
            if expected m then any := true
          done;
          not !any
      | Some x ->
          let ok = ref true in
          for m = 0 to 63 do
            if Cube.contains_minterm x m <> expected m then ok := false
          done;
          !ok)

let prop_supercube_contains =
  QCheck.Test.make ~name:"supercube contains both operands" ~count:300
    QCheck.(pair (arb_cube 6) (arb_cube 6))
    (fun (a, b) ->
      let s = Cube.supercube a b in
      Cube.subsumes s a && Cube.subsumes s b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"cube string roundtrip" ~count:300 (arb_cube 8)
    (fun cb -> Cube.equal cb (Cube.of_string (Cube.to_string ~n:8 cb)))

let suite =
  ( "cube",
    [
      Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
      Alcotest.test_case "of_minterm" `Quick test_of_minterm;
      Alcotest.test_case "get/set" `Quick test_get_set;
      Alcotest.test_case "contains_minterm" `Quick test_contains_minterm;
      Alcotest.test_case "subsumes" `Quick test_subsumes;
      Alcotest.test_case "intersect" `Quick test_intersect;
      Alcotest.test_case "supercube" `Quick test_supercube;
      Alcotest.test_case "counts" `Quick test_counts;
      Alcotest.test_case "iter_minterms" `Quick test_iter_minterms;
      Alcotest.test_case "of_masks keeps its contract" `Quick test_of_masks;
      QCheck_alcotest.to_alcotest prop_subsume_semantics;
      QCheck_alcotest.to_alcotest prop_intersect_semantics;
      QCheck_alcotest.to_alcotest prop_supercube_contains;
      QCheck_alcotest.to_alcotest prop_string_roundtrip;
    ] )

(* Additional algebraic properties. *)

let prop_supercube_minimal =
  QCheck.Test.make ~name:"supercube is the least upper bound" ~count:300
    QCheck.(triple (arb_cube 5) (arb_cube 5) (arb_cube 5))
    (fun (a, b, c) ->
      (* any cube containing both a and b contains their supercube *)
      if Cube.subsumes c a && Cube.subsumes c b then
        Cube.subsumes c (Cube.supercube a b)
      else true)

let prop_set_get =
  QCheck.Test.make ~name:"set then get" ~count:300
    QCheck.(triple (arb_cube 6) (int_bound 5) (int_bound 2))
    (fun (cb, j, li) ->
      let lit = match li with 0 -> Cube.Zero | 1 -> Cube.One | _ -> Cube.Free in
      Cube.get (Cube.set cb j lit) j = lit)

let extra_cases =
  [
    QCheck_alcotest.to_alcotest prop_supercube_minimal;
    QCheck_alcotest.to_alcotest prop_set_get;
  ]

let suite = (fst suite, snd suite @ extra_cases)
