(* Hidden worker mode: the resilient suite spawns this very binary as
   its worker processes (see Test_resilient.sup_exec). *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--resilient-worker" then begin
    Parallel.Pool.set_default_jobs 1;
    Resilient.Worker.serve ~handler:Test_resilient.worker_handler
      ~input:Unix.stdin ~output:Unix.stdout ();
    exit 0
  end

let () =
  Alcotest.run "rdca"
    [
      Test_bv.suite;
      Test_minterm.suite;
      Test_cube.suite;
      Test_cover.suite;
      Test_factor.suite;
      Test_espresso.suite;
      Test_spec.suite;
      Test_pla.suite;
      Test_bdd.suite;
      Test_logic.suite;
      Test_netlist.suite;
      Test_aig.suite;
      Test_techmap.suite;
      Test_reliability.suite;
      Test_analysis.suite;
      Test_kernel_diff.suite;
      Test_inject.suite;
      Test_campaign.suite;
      Test_parallel.suite;
      Test_splittable.suite;
      Test_synthetic.suite;
      Test_circuits.suite;
      Test_core.suite;
      Test_flow.suite;
      Test_io.suite;
      Test_check.suite;
      Test_resilient.suite;
      Test_sat.suite;
      Test_dc.suite;
      Test_atpg.suite;
    ]
