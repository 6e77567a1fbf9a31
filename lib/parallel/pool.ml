(* Domain pool.

   A job is an index range [0, total) behind one shared claim cursor.
   Every participant (the caller and each worker) claims one index per
   atomic fetch-and-add until the cursor passes [total]; overshooting it
   is harmless, the claimed index is simply out of range and the
   participant stops.  The optimizer submits few, coarse tasks (a search
   is a handful of jobs of at most tens of tasks, each a few tenths of a
   millisecond or more), so one contended atomic per task costs nothing
   measurable, and a shared cursor balances uneven task costs by itself.  Tasks write their
   results into per-index slots, so the caller sees them in input order
   and every reduction over them is scheduling-independent.

   Workers idle on a condition variable between jobs; an epoch counter
   tells a worker returning from a job not to re-enter it.

   Observability: when [Obs] is recording, every job forks one probe
   strand per task slot, wraps each task in a [pool.task] span routed to
   its slot strand, and merges the strands back in slot order after the
   job — so the recorded event stream is identical for every domain
   count (only timestamps vary), matching the optimizer's determinism
   contract. *)

module Obs = Amg_obs.Obs
module Inject = Amg_robust.Inject

type job = {
  next : int Atomic.t;  (* the claim cursor *)
  run : int -> unit;    (* never raises; records errors *)
  total : int;
  completed : int Atomic.t;
}

type t = {
  n : int;
  lock : Mutex.t;
  has_work : Condition.t;
  job_done : Condition.t;
  mutable job : job option;
  epoch : int Atomic.t;  (* bumped under the lock when a job is published *)
  stopping : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

let size t = t.n

let recommended () = Domain.recommended_domain_count ()

(* Process-wide default, settable from the command line (amgen --jobs). *)
let configured : int option Atomic.t = Atomic.make None

let default_domains () =
  match Atomic.get configured with Some n -> n | None -> recommended ()

let set_default_domains n = Atomic.set configured (Some (Int.max 1 n))

(* Oversubscription clamp.  Domains beyond the host's recommended count
   add no compute — only stop-the-world GC synchronization and scheduling
   latency (measured 2-3x slowdowns of small searches on a 1-core host) —
   and determinism makes the participant count unobservable in results,
   so requested sizes are clamped by default.  The determinism test
   suites lift the clamp to exercise real multi-domain scheduling on any
   host. *)
let oversubscribe = Atomic.make false

let set_oversubscribe b = Atomic.set oversubscribe b

let effective_size n =
  let n = Int.max 1 n in
  if Atomic.get oversubscribe then n else Int.min n (recommended ())

(* Claim and run indices until the cursor passes the end of the job. *)
let rec exec_job job =
  let i = Atomic.fetch_and_add job.next 1 in
  if i < job.total then begin
    job.run i;
    Atomic.incr job.completed;
    exec_job job
  end

(* Spin-then-park budgets.  The optimizer issues long trains of
   sub-millisecond jobs; a worker that parks on the condition variable
   between two of them pays a futex wakeup (tens of microseconds, more
   when the scheduler has migrated it) per job, which showed up as a
   1.15x overhead for 2 domains on small searches.  A short bounded spin
   on the atomic epoch catches the next job without a syscall in the
   back-to-back case, while a lone job still parks after ~a microsecond
   of pause hints.  The budgets are deliberately small so an
   oversubscribed host (more domains than cores) burns negligible time
   spinning against the domain that has the work. *)
let idle_spin = 512
let join_spin = 512

let rec worker_loop t my_epoch =
  (* Racing ahead of the lock is safe: the epoch is only ever bumped
     (under the lock) when a fresh job has been published, so a stale
     read just means one more relax iteration. *)
  let rec spin k =
    if k > 0 && (not (Atomic.get t.stopping)) && Atomic.get t.epoch = my_epoch
    then begin
      Domain.cpu_relax ();
      spin (k - 1)
    end
  in
  spin idle_spin;
  Mutex.lock t.lock;
  while
    (not (Atomic.get t.stopping))
    && (t.job = None || Atomic.get t.epoch = my_epoch)
  do
    Condition.wait t.has_work t.lock
  done;
  if Atomic.get t.stopping then Mutex.unlock t.lock
  else begin
    let job = Option.get t.job in
    let epoch = Atomic.get t.epoch in
    Mutex.unlock t.lock;
    exec_job job;
    Mutex.lock t.lock;
    if Atomic.get job.completed = job.total then Condition.broadcast t.job_done;
    Mutex.unlock t.lock;
    worker_loop t epoch
  end

(* A pool of exactly [n] participants. *)
let create n =
  let t =
    {
      n;
      lock = Mutex.create ();
      has_work = Condition.create ();
      job_done = Condition.create ();
      job = None;
      epoch = Atomic.make 0;
      stopping = Atomic.make false;
      workers = [];
    }
  in
  t.workers <-
    List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.lock;
  Atomic.set t.stopping true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers

(* Pool checkout.  [with_pool] sits inside every optimizer search, often
   inside a caller's timed region; creating a pool there means a
   [Domain.spawn] per worker (milliseconds each, worse while other
   domains run GC barriers) and a join afterwards — measured as the
   dominant cost of small parallel searches.  Instead, idle pools are
   parked per size and handed back out: a checked-out pool is exclusively
   owned (re-entry stays impossible), a parked pool's workers sleep on
   the condition variable.  Workers keep their domain across checkouts.
   Parked pools are shut down at exit so the process never waits on a
   sleeping domain. *)
let parked : (int, t list) Hashtbl.t = Hashtbl.create 4
let park_lock = Mutex.create ()

let () =
  at_exit (fun () ->
      Mutex.lock park_lock;
      let pools = Hashtbl.fold (fun _ ps acc -> ps @ acc) parked [] in
      Hashtbl.reset parked;
      Mutex.unlock park_lock;
      List.iter shutdown pools)

let acquire ?domains () =
  let n =
    effective_size (match domains with Some d -> d | None -> default_domains ())
  in
  Mutex.lock park_lock;
  let hit =
    match Hashtbl.find_opt parked n with
    | Some (p :: rest) ->
        Hashtbl.replace parked n rest;
        Some p
    | _ -> None
  in
  Mutex.unlock park_lock;
  match hit with Some p -> p | None -> create n

let park t =
  Mutex.lock park_lock;
  let rest = Option.value ~default:[] (Hashtbl.find_opt parked t.n) in
  Hashtbl.replace parked t.n (t :: rest);
  Mutex.unlock park_lock

let with_pool ?domains f =
  let t = acquire ?domains () in
  Fun.protect ~finally:(fun () -> park t) (fun () -> f t)

(* Spawn-and-park, so a long-lived process (the serving daemon) can pay
   the Domain.spawn latency at startup instead of inside the first
   request's timed region. *)
let warm ?domains () =
  let t = acquire ?domains () in
  park t

let parked_count () =
  Mutex.lock park_lock;
  let n = Hashtbl.fold (fun _ ps acc -> acc + List.length ps) parked 0 in
  Mutex.unlock park_lock;
  n

let run_tasks t total run =
  if total > 0 then begin
    (* One probe strand per task slot; [fork] is a cheap token when the
       instrumentation is disabled.  Slot tids are assigned here, on the
       submitting strand, so they are deterministic — the same task gets
       the same tid whatever the domain count.  When nothing records, the
       raw task runs as-is: no strand routing, no span, no per-task
       closure pair — the claim loop calls [run] directly. *)
    let strands = Obs.fork total in
    let run =
      if Obs.recording strands then fun i ->
        Obs.enter strands i (fun () -> Obs.span "pool.task" (fun () -> run i))
      else run
    in
    Obs.count "pool.jobs" 1;
    Obs.count "pool.tasks" total;
    if t.n = 1 || total = 1 then
      (* No workers (or nothing to share): run in the caller, same code
         path as far as results are concerned. *)
      for i = 0 to total - 1 do run i done
    else begin
      let job =
        { next = Atomic.make 0; run; total; completed = Atomic.make 0 }
      in
      Mutex.lock t.lock;
      if t.job <> None then begin
        Mutex.unlock t.lock;
        invalid_arg "Pool.map_array: pool is already running a job (re-entry)"
      end;
      t.job <- Some job;
      Atomic.incr t.epoch;
      Condition.broadcast t.has_work;
      Mutex.unlock t.lock;
      exec_job job;
      (* Once the cursor has passed the end, only the tasks the workers
         are still running remain; they usually finish within
         microseconds, so spin briefly before paying the condvar
         round-trip to park. *)
      let rec spin k =
        if k > 0 && Atomic.get job.completed < job.total then begin
          Domain.cpu_relax ();
          spin (k - 1)
        end
      in
      spin join_spin;
      Mutex.lock t.lock;
      while Atomic.get job.completed < job.total do
        Condition.wait t.job_done t.lock
      done;
      t.job <- None;
      Mutex.unlock t.lock
    end;
    (* Every task has completed; merge the slot strands in input order. *)
    Obs.join strands
  end

(* Shared skeleton of the map variants: option result slots, lowest-index
   error re-raised in the caller after all tasks have run.  The fault probe
   sits inside the error-recording wrapper so an injected [Inject.Fault]
   surfaces like any task failure instead of killing a worker domain.
   [cancel] is polled once per task claim: a pending task whose poll returns
   [true] is skipped and its slot stays [None]. *)
let map_array_opt t ?cancel f arr =
  let total = Array.length arr in
  if total = 0 then [||]
  else begin
    let results = Array.make total None in
    let error_lock = Mutex.create () in
    let first_error = ref None in
    let skip =
      match cancel with None -> fun () -> false | Some c -> c
    in
    let run i =
      if not (skip ()) then
        match
          Inject.probe Inject.Pool_task;
          f arr.(i)
        with
        | v -> results.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock error_lock;
            (match !first_error with
            | Some (j, _, _) when j <= i -> ()
            | _ -> first_error := Some (i, e, bt));
            Mutex.unlock error_lock
    in
    run_tasks t total run;
    (match !first_error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    results
  end

let map_array t f arr =
  map_array_opt t f arr
  |> Array.map
       (function Some v -> v | None -> assert false (* every task ran *))

let map_array_cancel t ~cancel f arr = map_array_opt t ~cancel f arr
