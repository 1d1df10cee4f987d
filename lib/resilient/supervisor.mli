(** Supervised multi-process execution of independent tasks.

    The supervisor shards a fixed array of JSON task payloads across
    [workers] child processes speaking length-prefixed JSON frames
    ({!Frame}) over pipes, and babysits them:

    - {b deadlines} — a task running longer than [deadline] seconds
      gets its worker killed and the task requeued;
    - {b heartbeats} — workers beat every 0.2 s; a busy worker silent
      for 2 s is presumed wedged and killed likewise;
    - {b retry with backoff} — failed or orphaned tasks are requeued
      with exponential backoff plus deterministic jitter, up to
      [retries] extra attempts, after which the task is recorded as a
      permanent failure (the rest of the run continues — partial
      results beat no results);
    - {b degradation ladder} — if worker processes cannot be spawned
      or kept alive, the remaining tasks run in-process on the shared
      {!Parallel.Pool}, which itself degenerates to plain sequential
      execution at one job.  Every rung is recorded as an {!Event}.

    Tasks must be pure functions of their payload: the supervisor may
    run a task more than once (a stalled worker's late result races
    its retry) and keeps whichever result arrives first.  With
    deterministic handlers every schedule yields bit-identical
    results. *)

(** Supervisor-driven failure injection ([--chaos]): on a task's
    {e first} attempt, a deterministic hash of [chaos_seed] and the
    task id kills the worker mid-task with probability
    [kill_fraction], or stalls it past every deadline with probability
    [stall_fraction].  Retries are never sabotaged, so chaotic runs
    still complete — with identical results, which is the point. *)
type chaos = {
  kill_fraction : float;
  stall_fraction : float;
  chaos_seed : int;
}

type config = {
  workers : int;  (** worker processes; [<= 0] runs in-process *)
  argv : string array;
      (** the worker command, e.g. [rdca worker]: a fresh process
          whose serve loop ({!Worker.serve}) must understand the task
          payloads on its own *)
  deadline : float;  (** per-task wall-clock limit; [<= 0] disables *)
  retries : int;  (** extra attempts per task after the first *)
  backoff : float;
      (** base backoff delay; attempt [a]'s requeue waits
          [backoff * 2^a * jitter] with jitter in [0.75, 1.25) *)
  chaos : chaos option;
}

val default : config
(** 2 workers running [[| Sys.executable_name; "worker" |]], 60 s
    deadline, 3 retries, 0.25 s backoff, no chaos. *)

(** What finally executed the tasks. *)
type mode = Processes of int | Pool of int | Sequential

type outcome = {
  results : (int * Rdca_json.Jsonout.t) list;
      (** completed (task id, result value), ascending id *)
  failures : (int * string) list;
      (** permanently failed tasks, ascending id *)
  events : Event.t list;  (** chronological supervision log *)
  dispatches : int;  (** task sends, including retries *)
  mode : mode;
}

val run :
  ?on_result:(int -> Rdca_json.Jsonout.t -> unit) ->
  ?skip:int list ->
  config ->
  handler:(Rdca_json.Jsonout.t -> Rdca_json.Jsonout.t) ->
  tasks:Rdca_json.Jsonout.t array ->
  outcome
(** [run config ~handler ~tasks] executes [handler tasks.(i)] for
    every [i] and collects the results.  [handler] is what the
    in-process rungs execute; worker processes run their own
    equivalent.  [on_result] fires once per task as its first result
    is accepted — the checkpointing hook.  [skip] lists
    task ids already completed (resume): they are neither dispatched
    nor reported. *)
