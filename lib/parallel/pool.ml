(* Work pool: [jobs - 1] worker domains park on a condition variable
   until a batch is published, then drain it lock-free.  Chunk indices
   are claimed with [Atomic.fetch_and_add] and each domain keeps a
   private completion count that it merges into the batch's shared
   counter only when its claims run out, so the mutex is touched per
   *batch* (publish, park/wake, failure recording) and never per
   chunk.  The chunk -> index-range mapping is fixed when the batch is
   published, so scheduling order never influences results — only the
   wall clock. *)

type batch = {
  run_chunk : int -> unit;
  total : int;
  next : int Atomic.t; (* next unclaimed chunk *)
  completed : int Atomic.t; (* chunks accounted for (ran or skipped) *)
  cancelled : bool Atomic.t; (* a task failed: skip remaining chunks *)
  mutable failed : (exn * Printexc.raw_backtrace) option; (* under mutex *)
}

type t = {
  jobs : int;
  mutex : Mutex.t; (* publish/park/wake + failure recording only *)
  work : Condition.t; (* a batch arrived, or shutdown *)
  finished : Condition.t; (* the batch in flight drained *)
  mutable batch : batch option;
  mutable epoch : int; (* bumped per published batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* True inside a pool task: nested parallel operations fall back to
   sequential execution instead of deadlocking on the shared pool. *)
let in_task = Domain.DLS.new_key (fun () -> false)

let jobs t = t.jobs

(* Scheduling observability (see {!stats} and the schema-v4 bench
   output).  The counters are monotone and also visible through
   [Prof.snapshot]; the chunk gauges are plain atomics read directly. *)
let c_batches = Prof.counter "pool.batches"
let c_tiny = Prof.counter "pool.tiny_skips"
let c_seq = Prof.counter "pool.seq_regions"
let c_probe_items = Prof.counter "pool.probe_items"
let c_spawned = Prof.counter "pool.domains_spawned"
let sp_drain = Prof.span "pool.drain"
let g_last_chunk = Atomic.make 0
let g_min_chunk = Atomic.make 0
let g_max_chunk = Atomic.make 0

let note_chunk c =
  Atomic.set g_last_chunk c;
  let rec upd g better =
    let cur = Atomic.get g in
    if (cur = 0 || better c cur) && not (Atomic.compare_and_set g cur c) then
      upd g better
  in
  upd g_min_chunk ( < );
  upd g_max_chunk ( > )

(* Drain the batch: claim chunks lock-free until none remain, then
   merge this domain's completion count.  The last domain to leave
   (the one whose merge reaches [total]) wakes the submitter.  After a
   failure the remaining chunks are still claimed — each is a pair of
   atomic operations — so the completion count always reaches [total]
   and the finish condition stays a single comparison. *)
let drain t b =
  let local = ref 0 in
  let rec loop () =
    let k = Atomic.fetch_and_add b.next 1 in
    if k < b.total then begin
      (if not (Atomic.get b.cancelled) then
         try b.run_chunk k
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Atomic.set b.cancelled true;
           Mutex.lock t.mutex;
           if b.failed = None then b.failed <- Some (e, bt);
           Mutex.unlock t.mutex);
      incr local;
      loop ()
    end
  in
  Prof.time sp_drain loop;
  if !local > 0 then
    let c = !local + Atomic.fetch_and_add b.completed !local in
    if c = b.total then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end

let worker t () =
  Domain.DLS.set in_task true;
  let seen = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else if t.epoch <> !seen then begin
      seen := t.epoch;
      match t.batch with
      | Some b ->
          Mutex.unlock t.mutex;
          drain t b;
          Mutex.lock t.mutex;
          loop ()
      | None -> loop ()
    end
    else begin
      Condition.wait t.work t.mutex;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      epoch = 0;
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then Prof.add c_spawned (jobs - 1);
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Publish a batch, help drain it, wait for the stragglers, and
   re-raise the first task failure. *)
let run_batch t ~chunks run_chunk =
  if chunks > 0 then begin
    Mutex.lock t.mutex;
    (* A second submitting domain queues here until the batch in
       flight drains (single-region-at-a-time pool). *)
    while t.batch <> None do
      Condition.wait t.finished t.mutex
    done;
    let b =
      {
        run_chunk;
        total = chunks;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        cancelled = Atomic.make false;
        failed = None;
      }
    in
    t.batch <- Some b;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Prof.incr c_batches;
    let was_in_task = Domain.DLS.get in_task in
    Domain.DLS.set in_task true;
    drain t b;
    Domain.DLS.set in_task was_in_task;
    Mutex.lock t.mutex;
    (* No lost wakeup: the waker broadcasts while holding the mutex,
       so it cannot fire between this check and the wait. *)
    while Atomic.get b.completed < b.total do
      Condition.wait t.finished t.mutex
    done;
    t.batch <- None;
    Condition.broadcast t.finished;
    Mutex.unlock t.mutex;
    match b.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Default (shared) pool.                                              *)

let env_jobs () =
  match Sys.getenv_opt "RDCA_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default = ref None

let default_jobs () =
  match !default with
  | Some n -> n
  | None ->
      let n =
        match env_jobs () with
        | Some n -> n
        | None -> max 1 (Domain.recommended_domain_count ())
      in
      default := Some n;
      n

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  default := Some n

let shared_pool = ref None
let exit_hook_installed = ref false

let shared () =
  let jobs = default_jobs () in
  match !shared_pool with
  | Some t when t.jobs = jobs -> t
  | prev ->
      Option.iter shutdown prev;
      let t = create ~jobs in
      shared_pool := Some t;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        (* Workers parked in Condition.wait must be joined before the
           runtime shuts down. *)
        at_exit (fun () ->
            Option.iter shutdown !shared_pool;
            shared_pool := None)
      end;
      t

let with_jobs j f =
  if j < 1 then invalid_arg "Pool.with_jobs: jobs must be >= 1";
  let saved = default_jobs () in
  set_default_jobs j;
  Fun.protect ~finally:(fun () -> set_default_jobs saved) f

let quiesce () =
  Option.iter shutdown !shared_pool;
  shared_pool := None

(* ------------------------------------------------------------------ *)
(* Chunked operations.                                                 *)

let resolve = function Some t -> t | None -> shared ()

(* Inputs of at most [min_chunk] items always run sequentially —
   without even instantiating the shared pool.  Callers whose items
   are individually expensive (whole-benchmark synthesis runs,
   fault-site blocks) pass [~chunk:1] explicitly to keep per-item
   balancing; the cost probe below only governs the default path. *)
let min_chunk = 4

(* Adaptive sizing for the default path.  A few items are run
   sequentially under the wall clock until [probe_min_s] has elapsed
   (so nanosecond-scale items are probed in bulk rather than trusting
   one noisy sample); the measured per-item cost then decides whether
   the region is worth domains at all and, if so, how many items make
   a [target_chunk_s] chunk.  Probing runs real items in index order,
   so the region's per-index results are unaffected. *)
let tiny_batch_s = 100e-6 (* est. total below this: stay sequential *)
let probe_min_s = 20e-6 (* keep probing until this much is measured *)
let target_chunk_s = 200e-6 (* aim each chunk at roughly this span *)

let seq_for n f =
  for i = 0 to n - 1 do
    f i
  done

let publish ?pool ~lo ~n ~chunk f =
  let t = resolve pool in
  let span = n - lo in
  let chunks = ((span - 1) / chunk) + 1 in
  note_chunk chunk;
  run_batch t ~chunks (fun k ->
      let first = lo + (k * chunk) and last = min n (lo + ((k + 1) * chunk)) - 1 in
      for i = first to last do
        f i
      done)

(* Probe then dispatch: returns after all [n] items have run. *)
let adaptive_for ?pool ~jobs n f =
  let t0 = Prof.now () in
  let probed = ref 0 in
  let elapsed = ref 0. in
  while !probed < n && !elapsed < probe_min_s do
    f !probed;
    incr probed;
    elapsed := Prof.now () -. t0
  done;
  Prof.add c_probe_items !probed;
  if !probed >= n then Prof.incr c_seq
  else
    let per_item = !elapsed /. float_of_int !probed in
    let est_total = per_item *. float_of_int n in
    if est_total < tiny_batch_s then begin
      (* Tiny batch: finishing in place is cheaper than one wake-up. *)
      Prof.incr c_tiny;
      Prof.incr c_seq;
      for i = !probed to n - 1 do
        f i
      done
    end
    else
      let by_cost =
        if per_item <= 0. then max_int
        else int_of_float (ceil (target_chunk_s /. per_item))
      in
      (* Even when chunks of [target_chunk_s] would be huge, keep a few
         claims per domain for load balancing. *)
      let by_balance = max 1 ((n - !probed) / (4 * jobs)) in
      let chunk = max 1 (min by_cost by_balance) in
      publish ?pool ~lo:!probed ~n ~chunk f

let for_ ?pool ?chunk n f =
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.for_: chunk must be >= 1"
  | _ -> ());
  if n > 0 then begin
    (* Job count resolved without touching the shared pool: sequential
       paths must not pay domain spin-up. *)
    let jobs = match pool with Some t -> t.jobs | None -> default_jobs () in
    if jobs = 1 || Domain.DLS.get in_task then begin
      Prof.incr c_seq;
      seq_for n f
    end
    else
      match chunk with
      | Some chunk ->
          if n <= chunk then begin
            Prof.incr c_seq;
            seq_for n f
          end
          else publish ?pool ~lo:0 ~n ~chunk f
      | None ->
          if n <= min_chunk then begin
            Prof.incr c_tiny;
            Prof.incr c_seq;
            seq_for n f
          end
          else adaptive_for ?pool ~jobs n f
  end

let init ?pool ?chunk n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  if n = 0 then [||]
  else begin
    (* Option slots: each index is written exactly once, by whichever
       domain owns its chunk. *)
    let out = Array.make n None in
    for_ ?pool ?chunk n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let mapi ?pool ?chunk f a =
  init ?pool ?chunk (Array.length a) (fun i -> f i a.(i))

let map ?pool ?chunk f a = init ?pool ?chunk (Array.length a) (fun i -> f a.(i))

let map_list ?pool ?chunk f l =
  Array.to_list (map ?pool ?chunk f (Array.of_list l))

(* ------------------------------------------------------------------ *)
(* Stats.                                                              *)

type stats = {
  batches : int;
  tiny_skips : int;
  sequential : int;
  probe_items : int;
  domains_spawned : int;
  pool_instantiated : bool;
  last_chunk : int;
  min_chunk_seen : int;
  max_chunk_seen : int;
}

let stats () =
  {
    batches = Prof.value c_batches;
    tiny_skips = Prof.value c_tiny;
    sequential = Prof.value c_seq;
    probe_items = Prof.value c_probe_items;
    domains_spawned = Prof.value c_spawned;
    pool_instantiated = Option.is_some !shared_pool;
    last_chunk = Atomic.get g_last_chunk;
    min_chunk_seen = Atomic.get g_min_chunk;
    max_chunk_seen = Atomic.get g_max_chunk;
  }
