module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bitvec.Bv.Kernel
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube

let coverage_counts ~spec ~o cover =
  let on, off, _ = Spec.phase_planes spec ~o in
  let cbv = Cover.to_bv cover in
  let missing = K.popcount_and on (Bv.complement cbv) in
  let hits = K.popcount_and off cbv in
  (missing, hits)

let coverage_counts_scalar ~spec ~o cover =
  let size = Spec.size spec in
  let missing = ref 0 and hits = ref 0 in
  for m = 0 to size - 1 do
    let v = Cover.eval cover m in
    match Spec.get spec ~o ~m with
    | Spec.On -> if not v then incr missing
    | Spec.Off -> if v then incr hits
    | Spec.Dc -> ()
  done;
  (!missing, !hits)

(* First set bit of [bv] not covered/covered evidence for messages. *)
let first_set bv =
  let exception Found of int in
  try
    Bv.iter_set (fun i -> raise (Found i)) bv;
    None
  with Found i -> Some i

let check_cover ~spec ~o cover =
  let ni = Spec.ni spec in
  if Cover.n cover <> ni then
    [
      Diag.error ~code:"cover-arity" ~loc:(Diag.Output o)
        "cover for output y%d is over %d inputs, spec has %d" o (Cover.n cover)
        ni;
    ]
  else begin
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let missing, hits = coverage_counts ~spec ~o cover in
    let on, off, _ = Spec.phase_planes spec ~o in
    let cbv = Cover.to_bv cover in
    if missing > 0 then begin
      let example =
        match first_set (Bv.diff on cbv) with Some m -> m | None -> -1
      in
      add
        (Diag.error ~code:"uncovered-onset" ~loc:(Diag.Output o)
           "cover for output y%d misses %d on-set minterm(s), e.g. minterm %d"
           o missing example)
    end;
    if hits > 0 then begin
      (* Name the cubes that dip into the off-set. *)
      List.iteri
        (fun i cube ->
          let overlap = ref 0 in
          Bv.iter_set
            (fun m -> if Cube.contains_minterm cube m then incr overlap)
            off;
          if !overlap > 0 then
            add
              (Diag.error ~code:"offset-hit"
                 ~loc:(Diag.Cube { output = o; index = i })
                 "cube %d (%s) of output y%d contains %d off-set minterm(s)" i
                 (Cube.to_string ~n:ni cube)
                 o !overlap))
        (Cover.cubes cover)
    end;
    let cubes = Array.of_list (Cover.cubes cover) in
    let ncubes = Array.length cubes in
    (* Single-cube containment: cube i inside cube k (i <> k). *)
    for i = 0 to ncubes - 1 do
      let rec contained k =
        if k >= ncubes then None
        else if k <> i && Cube.subsumes cubes.(k) cubes.(i) then Some k
        else contained (k + 1)
      in
      match contained 0 with
      | Some k ->
          add
            (Diag.warn ~code:"contained-cube"
               ~loc:(Diag.Cube { output = o; index = i })
               "cube %d (%s) of output y%d is contained in cube %d" i
               (Cube.to_string ~n:ni cubes.(i))
               o k)
      | None ->
          (* Irredundancy: cube i covered by the rest of the cover
             plus the DC-set.  Dense: cube_bv subset (cover \ cube_i)
             union dc. *)
          let _, _, dc = Spec.phase_planes spec ~o in
          let cube_bv =
            Cover.to_bv (Cover.make ~n:ni [ cubes.(i) ])
          in
          let rest =
            Cover.make ~n:ni
              (List.filteri (fun k _ -> k <> i) (Array.to_list cubes))
          in
          let rest_bv = Cover.to_bv rest in
          Bv.union_in_place rest_bv dc;
          if Bv.subset cube_bv rest_bv then
            add
              (Diag.warn ~code:"redundant-cube"
                 ~loc:(Diag.Cube { output = o; index = i })
                 "cube %d (%s) of output y%d is covered by the rest of the \
                  cover and the DC-set"
                 i
                 (Cube.to_string ~n:ni cubes.(i))
                 o)
    done;
    List.rev !diags
  end

let check_covers ~spec covers =
  let no = Spec.no spec in
  if List.length covers <> no then
    invalid_arg
      (Printf.sprintf "Cover_check.check_covers: %d covers for %d outputs"
         (List.length covers) no);
  let covers = Array.of_list covers in
  let per_output =
    Parallel.Pool.init no (fun o ->
        check_cover ~spec ~o covers.(o))
  in
  List.concat (Array.to_list per_output)
