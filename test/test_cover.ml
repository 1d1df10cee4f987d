(* Unit and property tests for Twolevel.Cover. *)

module Cube = Twolevel.Cube
module Cover = Twolevel.Cover
module Bv = Bitvec.Bv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cov n strs = Cover.make ~n (List.map Cube.of_string strs)

let test_eval () =
  let f = cov 3 [ "1--"; "-11" ] in
  check "m=1 (x0)" true (Cover.eval f 0b001);
  check "m=6 (x1 x2)" true (Cover.eval f 0b110);
  check "m=0" false (Cover.eval f 0b000);
  check "m=2 (x1 only)" false (Cover.eval f 0b010)

let test_to_bv_roundtrip () =
  let f = cov 4 [ "1--0"; "01--" ] in
  let bv = Cover.to_bv f in
  for m = 0 to 15 do
    check (Printf.sprintf "bv m=%d" m) (Cover.eval f m) (Bv.get bv m)
  done;
  let f2 = Cover.of_bv ~n:4 bv in
  check "of_bv equivalent" true (Bv.equal bv (Cover.to_bv f2))

let test_scc () =
  let f = cov 3 [ "1--"; "11-"; "111"; "0--" ] in
  let r = Cover.single_cube_containment f in
  check_int "kept cubes" 2 (Cover.size r);
  check "still equivalent" true (Bv.equal (Cover.to_bv f) (Cover.to_bv r))

let test_scc_duplicates () =
  let f = cov 2 [ "1-"; "1-"; "1-" ] in
  let r = Cover.single_cube_containment f in
  check_int "dedup" 1 (Cover.size r)

let test_literal_count () =
  check_int "literals" 4 (Cover.literal_count (cov 3 [ "1--"; "011" ]))

(* Random cover generator for properties. *)
let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (frequencyl [ (2, Cube.Zero); (2, Cube.One); (3, Cube.Free) ])
      |> map (Cube.make ~n)
    in
    list_size (int_range 0 6) gen_cube |> map (fun cs -> Cover.make ~n cs))

let arb_cover n =
  QCheck.make
    ~print:(fun cv -> Format.asprintf "%a" Cover.pp cv)
    (gen_cover n)

let semantically_equal n a b =
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    if Cover.eval a m <> Cover.eval b m then ok := false
  done;
  !ok

let prop_scc_preserves =
  QCheck.Test.make ~name:"single_cube_containment preserves function"
    ~count:200 (arb_cover 5) (fun f ->
      semantically_equal 5 f (Cover.single_cube_containment f))

let suite =
  ( "cover",
    [
      Alcotest.test_case "eval" `Quick test_eval;
      Alcotest.test_case "to_bv roundtrip" `Quick test_to_bv_roundtrip;
      Alcotest.test_case "single cube containment" `Quick test_scc;
      Alcotest.test_case "scc dedup" `Quick test_scc_duplicates;
      Alcotest.test_case "literal count" `Quick test_literal_count;
      QCheck_alcotest.to_alcotest prop_scc_preserves;
    ] )
