(* In-memory span recorder for the traced run.

   A span is one call into a public layer function, timed from the
   benchmark's side of the call.  Spans nest through an explicit stack,
   so each records the span that caused it; every span also carries the
   index of the op it belongs to.  Nothing is written while ops run: the
   spans stay in memory and are exported once the run has ended. *)

type span = {
  id : int;
  parent : int;  (** enclosing span id, or -1 *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable op : int;
}

let create () =
  { enabled = true; spans = []; stack = []; next_id = 0; op = -1 }

(* A recorder that records nothing: the untraced replay used by output
   checks goes through the same code with this. *)
let null () =
  { enabled = false; spans = []; stack = []; next_id = 0; op = -1 }

let set_op t op = t.op <- op

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans t = List.rev t.spans

(* Self time: a span's duration minus the time its direct children
   cover.  Children never overlap (one domain, one stack). *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. c))
    (spans t)

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome t path =
  let oc = open_out path in
  let base = match spans t with [] -> 0.0 | s :: _ -> s.t0 in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.op s.id s.parent)
    (spans t);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
