(* Tests for the incompletely specified function representation. *)

module Spec = Pla.Spec
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let phase = Alcotest.testable
    (fun ppf -> function
      | Spec.On -> Format.pp_print_string ppf "On"
      | Spec.Off -> Format.pp_print_string ppf "Off"
      | Spec.Dc -> Format.pp_print_string ppf "Dc")
    ( = )

let test_create_defaults () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Dc in
  check_int "ni" 3 (Spec.ni s);
  check_int "no" 2 (Spec.no s);
  check_int "size" 8 (Spec.size s);
  Alcotest.check phase "default" Spec.Dc (Spec.get s ~o:1 ~m:5);
  check_int "dc count" 8 (Spec.dc_count s ~o:0)

let test_set_get () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:2 Spec.On;
  Alcotest.check phase "set on" Spec.On (Spec.get s ~o:0 ~m:2);
  Alcotest.check phase "untouched" Spec.Off (Spec.get s ~o:0 ~m:1);
  check_int "on count" 1 (Spec.on_count s ~o:0);
  check_int "off count" 3 (Spec.off_count s ~o:0)

let test_assign_dc () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Dc in
  Spec.assign_dc s ~o:0 ~m:0 true;
  Spec.assign_dc s ~o:0 ~m:1 false;
  Alcotest.check phase "to on" Spec.On (Spec.get s ~o:0 ~m:0);
  Alcotest.check phase "to off" Spec.Off (Spec.get s ~o:0 ~m:1);
  Alcotest.check_raises "not dc"
    (Invalid_argument "Spec.assign_dc: minterm is not DC") (fun () ->
      Spec.assign_dc s ~o:0 ~m:0 false)

let test_copy_equal () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  let c = Spec.copy s in
  check "equal after copy" true (Spec.equal s c);
  Spec.set c ~o:0 ~m:4 Spec.Dc;
  check "independent" false (Spec.equal s c)

let test_signal_probs () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  Spec.set s ~o:0 ~m:1 Spec.Dc;
  let f1, f0, fdc = Spec.signal_probs s ~o:0 in
  Alcotest.(check (float 1e-9)) "f1" 0.25 f1;
  Alcotest.(check (float 1e-9)) "f0" 0.5 f0;
  Alcotest.(check (float 1e-9)) "fdc" 0.25 fdc

let test_dc_fraction () =
  let s = Spec.create ~ni:2 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.Dc;
  Spec.set s ~o:1 ~m:0 Spec.Dc;
  Spec.set s ~o:1 ~m:1 Spec.Dc;
  Alcotest.(check (float 1e-9)) "3 of 8" 0.375 (Spec.dc_fraction s)

let test_neighbour_counts () =
  (* 2-input function: m0=On, m1=Off, m2=Dc, m3=On.
     Neighbours of m0 (00): m1 (flip x0), m2 (flip x1). *)
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:0 ~m:3 Spec.On;
  let on, off, dc = Spec.neighbour_counts s ~o:0 ~m:0 in
  check_int "on nbrs of 0" 0 on;
  check_int "off nbrs of 0" 1 off;
  check_int "dc nbrs of 0" 1 dc;
  check_int "on nbrs of 2" 2 (Spec.on_neighbours s ~o:0 ~m:2);
  check_int "off nbrs of 1" 0 (Spec.off_neighbours s ~o:0 ~m:1);
  check_int "dc nbrs of 3" 1 (Spec.dc_neighbours s ~o:0 ~m:3)

let test_covers_roundtrip () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:1 ~m:7 Spec.On;
  let covers =
    List.init 2 (fun o -> (Spec.on_cover s ~o, Spec.dc_cover s ~o))
  in
  let s2 = Spec.of_covers ~ni:3 covers in
  check "roundtrip" true (Spec.equal s s2)

let test_of_covers_on_wins () =
  (* Overlapping on and dc covers: On wins. *)
  let on = Cover.make ~n:2 [ Cube.of_string "1-" ] in
  let dc = Cover.make ~n:2 [ Cube.of_string "11" ] in
  let s = Spec.of_covers ~ni:2 [ (on, dc) ] in
  Alcotest.check phase "overlap is On" Spec.On (Spec.get s ~o:0 ~m:3)

let test_iter_dc () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:0 ~m:5 Spec.Dc;
  let acc = ref [] in
  Spec.iter_dc s ~o:0 (fun m -> acc := m :: !acc);
  Alcotest.(check (list int)) "dc minterms" [ 2; 5 ] (List.rev !acc)

let test_bv_extraction () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Dc in
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Off;
  Alcotest.(check (list int)) "on_bv" [ 1 ] (Bitvec.Bv.to_list (Spec.on_bv s ~o:0));
  Alcotest.(check (list int)) "off_bv" [ 2 ] (Bitvec.Bv.to_list (Spec.off_bv s ~o:0));
  Alcotest.(check (list int)) "dc_bv" [ 0; 3 ] (Bitvec.Bv.to_list (Spec.dc_bv s ~o:0))

let test_output_value () =
  let s = Spec.create ~ni:1 ~no:1 ~default:Spec.Dc in
  Spec.set s ~o:0 ~m:0 Spec.On;
  check "on is true" true (Spec.output_value s ~o:0 ~m:0);
  Alcotest.check_raises "dc raises"
    (Invalid_argument "Spec.output_value: unassigned DC") (fun () ->
      ignore (Spec.output_value s ~o:0 ~m:1))

let test_count_phase_engines_agree () =
  (* 65 minterms would not fit one word; use ni=7 to cross the 63-bit
     word boundary. *)
  let s = Spec.create ~ni:7 ~no:1 ~default:Spec.Off in
  for m = 0 to 127 do
    if m mod 3 = 0 then Spec.set s ~o:0 ~m Spec.On
    else if m mod 5 = 0 then Spec.set s ~o:0 ~m Spec.Dc
  done;
  List.iter
    (fun p ->
      let scan = ref 0 in
      for m = 0 to 127 do
        if Spec.get s ~o:0 ~m = p then incr scan
      done;
      check_int "popcount = byte scan" !scan (Spec.count_phase s ~o:0 p))
    [ Spec.On; Spec.Off; Spec.Dc ]

let test_plane_cache_invalidation () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:1 Spec.On;
  let on, _, _ = Spec.phase_planes s ~o:0 in
  Alcotest.(check (list int)) "cached on-plane" [ 1 ] (Bitvec.Bv.to_list on);
  (* mutate: the next phase_planes call must reflect the change *)
  Spec.set s ~o:0 ~m:5 Spec.On;
  let on, _, dc = Spec.phase_planes s ~o:0 in
  Alcotest.(check (list int)) "rebuilt on-plane" [ 1; 5 ]
    (Bitvec.Bv.to_list on);
  check "dc empty" true (Bitvec.Bv.is_empty dc);
  (* other outputs are unaffected *)
  let on1, _, _ = Spec.phase_planes s ~o:1 in
  check "o1 untouched" true (Bitvec.Bv.is_empty on1);
  (* assign_dc also invalidates *)
  Spec.set s ~o:1 ~m:0 Spec.Dc;
  Spec.assign_dc s ~o:1 ~m:0 true;
  let on1, _, dc1 = Spec.phase_planes s ~o:1 in
  Alcotest.(check (list int)) "assigned" [ 0 ] (Bitvec.Bv.to_list on1);
  check "dc gone" true (Bitvec.Bv.is_empty dc1)

let test_neighbour_counts_batch_matches () =
  let s = Spec.create ~ni:7 ~no:1 ~default:Spec.Off in
  for m = 0 to 127 do
    if (m * 7) mod 11 < 3 then Spec.set s ~o:0 ~m Spec.On
    else if (m * 5) mod 13 < 4 then Spec.set s ~o:0 ~m Spec.Dc
  done;
  let on, off, dc = Spec.neighbour_counts_batch s ~o:0 in
  for m = 0 to 127 do
    let o_, f_, d_ = Spec.neighbour_counts s ~o:0 ~m in
    check_int "on" o_ on.(m);
    check_int "off" f_ off.(m);
    check_int "dc" d_ dc.(m)
  done

(* A spec with a mix of phases on every output, for the cache tests. *)
let mixed_spec () =
  let s = Spec.create ~ni:5 ~no:3 ~default:Spec.Off in
  for o = 0 to 2 do
    for m = 0 to 31 do
      if (m * (o + 3)) mod 7 < 2 then Spec.set s ~o ~m Spec.On
      else if (m * (o + 5)) mod 11 < 3 then Spec.set s ~o ~m Spec.Dc
    done
  done;
  s

let planes_equal (a, b, c) (a', b', c') =
  Bitvec.Bv.equal a a' && Bitvec.Bv.equal b b' && Bitvec.Bv.equal c c'

let test_warm_cache () =
  let s = mixed_spec () in
  let cold = Spec.copy s in
  Spec.warm_cache s;
  for o = 0 to 2 do
    check "warmed planes match lazily built ones" true
      (planes_equal (Spec.phase_planes s ~o) (Spec.phase_planes cold ~o))
  done;
  (* Warming again after an invalidating write rebuilds the stale
     output and leaves the rest correct. *)
  Spec.set s ~o:1 ~m:0 Spec.On;
  Spec.warm_cache s;
  let on, _, _ = Spec.phase_planes s ~o:1 in
  check "invalidated output rebuilt by warm_cache" true (Bitvec.Bv.get on 0)

(* Racing first-use builds from several domains: every domain gets
   planes equal to the sequentially built ones (the CAS publication
   can discard losers' copies but never mix them). *)
let test_plane_cache_concurrent_publish () =
  let reference = Spec.phase_planes (mixed_spec ()) ~o:0 in
  let s = mixed_spec () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Spec.phase_planes s ~o:0))
  in
  List.iteri
    (fun i d ->
      check
        (Printf.sprintf "domain %d sees the published planes" i)
        true
        (planes_equal (Domain.join d) reference))
    domains

let prop_phase_partition =
  QCheck.Test.make ~name:"on+off+dc counts partition the space" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 16) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      Spec.on_count s ~o:0 + Spec.off_count s ~o:0 + Spec.dc_count s ~o:0 = 16)

let prop_neighbour_sum =
  QCheck.Test.make ~name:"neighbour counts always sum to ni" ~count:100
    QCheck.(pair (int_bound 15) (list_of_size (QCheck.Gen.return 16) (int_bound 2)))
    (fun (m, phases) ->
      let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun i p ->
          Spec.set s ~o:0 ~m:i
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let on, off, dc = Spec.neighbour_counts s ~o:0 ~m in
      on + off + dc = 4)

let suite =
  ( "spec",
    [
      Alcotest.test_case "create defaults" `Quick test_create_defaults;
      Alcotest.test_case "set/get" `Quick test_set_get;
      Alcotest.test_case "assign_dc" `Quick test_assign_dc;
      Alcotest.test_case "copy/equal" `Quick test_copy_equal;
      Alcotest.test_case "signal probabilities" `Quick test_signal_probs;
      Alcotest.test_case "dc fraction" `Quick test_dc_fraction;
      Alcotest.test_case "neighbour counts" `Quick test_neighbour_counts;
      Alcotest.test_case "cover roundtrip" `Quick test_covers_roundtrip;
      Alcotest.test_case "of_covers overlap: on wins" `Quick
        test_of_covers_on_wins;
      Alcotest.test_case "iter_dc" `Quick test_iter_dc;
      Alcotest.test_case "bv extraction" `Quick test_bv_extraction;
      Alcotest.test_case "output_value" `Quick test_output_value;
      Alcotest.test_case "count_phase engines agree" `Quick
        test_count_phase_engines_agree;
      Alcotest.test_case "phase-plane cache invalidation" `Quick
        test_plane_cache_invalidation;
      Alcotest.test_case "neighbour_counts_batch matches per-minterm" `Quick
        test_neighbour_counts_batch_matches;
      Alcotest.test_case "warm_cache prebuilds every output" `Quick
        test_warm_cache;
      Alcotest.test_case "concurrent plane publication" `Quick
        test_plane_cache_concurrent_publish;
      QCheck_alcotest.to_alcotest prop_phase_partition;
      QCheck_alcotest.to_alcotest prop_neighbour_sum;
    ] )
