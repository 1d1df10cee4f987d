(* Seeded input generation.  Every input is drawn from the splittable
   stream keyed by (seed, index), so the same seed gives the same inputs
   and each input has its own stream. *)

module Spec = Pla.Spec
module Suite = Synthetic.Suite
module Synth_gen = Synthetic.Synth_gen

let rng ~seed ~index =
  Synthetic.Splittable.to_random_state
    (Synthetic.Splittable.stream ~seed ~index)

(* On/off split of the care space from a row's %DC and E[C^f], the same
   inversion Suite.load uses (E = f0^2 + f1^2 + fdc^2); the major
   fraction goes to the off-set as in the suite. *)
let care_split ~fdc ~ecf =
  let s = 1.0 -. fdc in
  let p = ((s *. s) -. (ecf -. (fdc *. fdc))) /. 2.0 in
  let disc = (s *. s) -. (4.0 *. p) in
  if disc < 0.0 then (s /. 2.0, s /. 2.0)
  else
    let r = sqrt disc in
    ((s +. r) /. 2.0, (s -. r) /. 2.0)

(* A fresh spec with a Table 1 row's inputs, outputs, %DC and C^f. *)
let table1_spec ~rng (e : Suite.entry) =
  let size = float_of_int (1 lsl e.Suite.ni) in
  let fdc = e.Suite.dc_percent /. 100.0 in
  let f_major, f_minor = care_split ~fdc ~ecf:e.Suite.ecf in
  let params =
    {
      (Synth_gen.default_params ~ni:e.Suite.ni ~dc_frac:fdc
         ~target_cf:(Some e.Suite.cf))
      with
      Synth_gen.on_count = int_of_float (Float.round (f_minor *. size));
      off_count = int_of_float (Float.round (f_major *. size));
    }
  in
  Synth_gen.spec ~rng ~no:e.Suite.no params

(* Conventional synthesis under area-oriented mapping: what `rdca synth`
   produces before `optimize` or `testability` run on it. *)
let synth_area spec =
  (Rdca_flow.Flow.synthesize ~mode:Techmap.Mapper.Area
     ~strategy:Rdca_flow.Flow.Conventional spec)
    .Rdca_flow.Flow.netlist

(* A dense spec built from random cube covers: structured functions of
   more inputs than the Table 1 rows have. *)
let cube_spec ~rng ~ni ~no ~on_cubes ~dc_cubes ~lit_prob =
  let sets =
    Synth_gen.random_cover_sets ~rng ~ni ~no ~on_cubes ~dc_cubes ~lit_prob
  in
  Spec.of_covers ~ni
    (List.map
       (function
         | Pla.Fd_sets { on; dc } -> (on, dc)
         | Pla.Fr_sets _ -> invalid_arg "Gen.cube_spec: unexpected fr cover")
       sets)

(* The fully specified spec of a netlist's own truth tables. *)
let spec_of_netlist nl =
  let ni = Netlist.ni nl in
  let tables = Netlist.output_tables nl in
  let spec = Spec.create ~ni ~no:(Array.length tables) ~default:Spec.Off in
  Array.iteri
    (fun o t ->
      for m = 0 to (1 lsl ni) - 1 do
        if Bitvec.Bv.get t m then Spec.set spec ~o ~m Spec.On
      done)
    tables;
  spec

let digest values = Digest.to_hex (Digest.string (Marshal.to_string values []))
