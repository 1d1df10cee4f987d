(* The paper's Figure 1 motivating example, replayed step by step:
   three DC minterms whose reliability-driven assignments agree with,
   conflict with, or stay ambiguous versus conventional assignment.

   Run with:  dune exec examples/motivating_example.exe *)

module Spec = Pla.Spec
module Metrics = Rdca_core.Metrics
module Assign = Rdca_core.Assign
module ER = Reliability.Error_rate

let phase_name = function
  | Spec.On -> "1"
  | Spec.Off -> "0"
  | Spec.Dc -> "-"

let () =
  (* A 4-input single-output function with three DCs shaped like the
     paper's example: x1 has two on-, one off-neighbour (assign 1);
     x2 has two off-, one on-neighbour (assign 0); x3 is balanced
     (left unassigned). *)
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.On) [ 1; 2; 12; 7 ];
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.Dc) [ 0; 8; 5 ];

  print_endline "minterm  phase  on-nbrs off-nbrs dc-nbrs  weight  decision";
  List.iter
    (fun m ->
      let on, off, dc = Spec.neighbour_counts s ~o:0 ~m in
      let decision =
        match Metrics.majority_phase s ~o:0 ~m with
        | Some true -> "assign 1 (masks more errors)"
        | Some false -> "assign 0 (masks more errors)"
        | None -> "leave DC (ambiguous, kept for optimisation)"
      in
      Printf.printf "  %2d       %s      %d       %d        %d       %d     %s\n"
        m
        (phase_name (Spec.get s ~o:0 ~m))
        on off dc
        (Metrics.weight s ~o:0 ~m)
        decision)
    [ 0; 8; 5 ];

  (* Reliability consequences of the two extreme assignments. *)
  let b = ER.bounds s ~o:0 in
  Printf.printf "\nexact error-rate bounds: base=%.4f  min=%.4f  max=%.4f\n"
    b.ER.base (ER.min_rate b) (ER.max_rate b);

  let reliability = Assign.ranking ~fraction:1.0 s in
  let rel_full, _ = Rdca_flow.Flow.implement reliability in
  let conv_full, _ = Rdca_flow.Flow.implement s in
  let rate assigned =
    ER.of_table s ~o:0 ~impl:(ER.impl_table assigned ~o:0)
  in
  Printf.printf "reliability-driven assignment error rate: %.4f\n"
    (rate rel_full);
  Printf.printf "conventional assignment error rate:       %.4f\n"
    (rate conv_full)
