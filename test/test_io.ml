(* Tests for BLIF and Verilog emission, including semantic BLIF
   roundtrips. *)

module Blif = Netlist_io.Blif
module Verilog = Netlist_io.Verilog
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube

let check = Alcotest.(check bool)

let sample_netlist () =
  let nl = Netlist.create ~ni:3 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  let x = Netlist.add nl Netlist.Gate.Xor [| a; 2 |] in
  let n = Netlist.add nl Netlist.Gate.Not [| x |] in
  Netlist.set_outputs nl [| x; n |];
  nl

let test_blif_netlist_roundtrip () =
  let nl = sample_netlist () in
  let text = Blif.of_netlist nl in
  let nl' = Blif.parse_string text in
  for m = 0 to 7 do
    check
      (Printf.sprintf "m=%d" m)
      true
      (Netlist.eval_minterm nl m = Netlist.eval_minterm nl' m)
  done

let test_blif_mapped_roundtrip () =
  let cover =
    Cover.make ~n:4 (List.map Cube.of_string [ "1-0-"; "-11-"; "0--1" ])
  in
  let aig = Aig.of_covers ~ni:4 [ cover ] in
  let lib = Techmap.Stdcell.default_library () in
  let nl = Techmap.Mapper.map ~mode:Techmap.Mapper.Delay ~lib aig in
  let nl' = Blif.parse_string (Blif.of_netlist nl) in
  for m = 0 to 15 do
    check
      (Printf.sprintf "mapped m=%d" m)
      true
      (Netlist.eval_minterm nl m = Netlist.eval_minterm nl' m)
  done

let test_blif_constants () =
  let nl = Netlist.create ~ni:1 in
  let c0 = Netlist.add nl (Netlist.Gate.Const false) [||] in
  let c1 = Netlist.add nl (Netlist.Gate.Const true) [||] in
  Netlist.set_outputs nl [| c0; c1; 0 |];
  let nl' = Blif.parse_string (Blif.of_netlist nl) in
  check "const roundtrip" true
    (Netlist.eval_minterm nl 0 = Netlist.eval_minterm nl' 0
    && Netlist.eval_minterm nl 1 = Netlist.eval_minterm nl' 1)

let test_blif_parse_errors () =
  let expect text =
    match Blif.parse_string text with
    | exception Blif.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect ".model m\n.inputs a\n.outputs z\n.names a missing z\n11 1\n.end\n";
  expect ".model m\n.inputs a\n.outputs z\n.latch a z\n.end\n";
  expect ".model m\n.inputs a\n.outputs z\n.names a z\n0 0\n.end\n"

let test_verilog_structure () =
  let nl = sample_netlist () in
  let v = Verilog.of_netlist ~name:"adder" nl in
  check "module header" true
    (String.length v > 0
    && String.sub v 0 13 = "module adder(");
  let contains needle haystack =
    let nl_ = String.length needle and hl = String.length haystack in
    let rec go i = i + nl_ <= hl && (String.sub haystack i nl_ = needle || go (i + 1)) in
    go 0
  in
  check "has assign" true (contains "assign" v);
  check "has endmodule" true (contains "endmodule" v);
  check "xor operator" true (contains "^" v)

let test_verilog_mapped_instances () =
  let cover = Cover.make ~n:3 (List.map Cube.of_string [ "11-"; "--1" ]) in
  let aig = Aig.of_covers ~ni:3 [ cover ] in
  let lib = Techmap.Stdcell.default_library () in
  let nl = Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib aig in
  let v = Verilog.of_netlist nl in
  let contains needle haystack =
    let nl_ = String.length needle and hl = String.length haystack in
    let rec go i = i + nl_ <= hl && (String.sub haystack i nl_ = needle || go (i + 1)) in
    go 0
  in
  check "instantiates cells" true (contains ".Y(" v)

let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (frequencyl [ (2, Cube.Zero); (2, Cube.One); (3, Cube.Free) ])
      |> map (Cube.make ~n)
    in
    list_size (int_range 0 5) gen_cube |> map (fun cs -> Cover.make ~n cs))

let prop_blif_roundtrip =
  QCheck.Test.make ~name:"blif aig roundtrip preserves function" ~count:80
    (QCheck.make (gen_cover 5))
    (fun cover ->
      let aig = Aig.of_covers ~ni:5 [ cover ] in
      let nl = Blif.parse_string (Blif.of_netlist (Aig.to_netlist aig)) in
      let ok = ref true in
      for m = 0 to 31 do
        if Aig.eval_minterm aig m <> Netlist.eval_minterm nl m then ok := false
      done;
      !ok)

let suite =
  ( "io",
    [
      Alcotest.test_case "blif netlist roundtrip" `Quick
        test_blif_netlist_roundtrip;
      Alcotest.test_case "blif mapped roundtrip" `Quick
        test_blif_mapped_roundtrip;
      Alcotest.test_case "blif constants" `Quick test_blif_constants;
      Alcotest.test_case "blif parse errors" `Quick test_blif_parse_errors;
      Alcotest.test_case "verilog structure" `Quick test_verilog_structure;
      Alcotest.test_case "verilog mapped instances" `Quick
        test_verilog_mapped_instances;
      QCheck_alcotest.to_alcotest prop_blif_roundtrip;
    ] )
