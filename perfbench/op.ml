(* What a workload hands the runner.

   A workload is a fixed list of ops generated from the seed.  Each
   round of the timed loop prepares fresh input objects for every op
   (untimed), then runs the ops in order.  An op can run two ways: as
   the library entry point the CLI subcommand calls ([run]), or as the
   sequence of public layer calls that entry point makes, with a span
   around each ([replay]).  Both return an outcome that is evaluated
   after the loop, never inside it. *)

type summary = {
  areas : float list;  (** Techmap.Report areas of the netlists produced *)
  error_rates : float list;
      (** input-error rates of those netlists against the original spec *)
  work : (string * int) list;
      (** deterministic work read off the result; fingerprinted *)
  key : string;
      (** exact rendering of the result: equal across rounds, and
          between [run] and [replay] of the same op *)
}

type outcome = {
  summary : unit -> summary;
  check : unit -> string option;
      (** an oracle independent of the code that produced the output;
          [Some reason] on failure *)
  layer : (string * float) list;
      (** additive per-layer quantities gathered by [replay] (empty for
          [run]): cube counts, AIG nodes, window leaves, ... *)
}

type prepared = { run : unit -> outcome; replay : Spans.t -> outcome }

type workload = {
  labels : string array;  (** one per op, in run order *)
  inputs_digest : string;  (** digest of the generated inputs *)
  prepare_round : unit -> prepared array;
      (** fresh input objects for every op, same order as [labels] *)
  warmup : int list;  (** op indexes run once, untimed, before the loop *)
}

(* A result the runner could not use: a structured error or an
   exception.  Its check fails with the reason. *)
let failed reason =
  {
    summary =
      (fun () -> { areas = []; error_rates = []; work = []; key = "failed" });
    check = (fun () -> Some reason);
    layer = [];
  }

let float_key f = Printf.sprintf "%h" f
