(** A work-stealing pool of OCaml 5 domains for the optimization mode.

    The optimization layer evaluates many independent full-layout
    candidates (order permutations, swap neighbourhoods, topology
    variants); a pool fans those evaluations out over domains while
    keeping results in input order, so reductions over them are
    deterministic regardless of scheduling.

    Concurrency contract: a task must only mutate state it owns.  Layout
    objects are mutable, so a task must work on its own {!Amg_layout.Lobj.copy}
    (and anything shared — step objects, cached prefixes, the technology
    deck — must only be read).  Tasks must not submit work to the pool
    they run on: {!map_array} is not re-entrant. *)

type t
(** A pool of [size t] participants: [size t - 1] worker domains plus the
    calling domain, which joins in whenever work is submitted. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains
    ([domains] defaults to {!default_domains}; values < 1 are clamped
    to 1, so [create ~domains:1 ()] is a purely sequential pool that
    spawns nothing).  Unless {!set_oversubscribe}[ true] was called, the
    size is additionally clamped to {!recommended}: extra domains on an
    oversubscribed host only add GC-synchronization and scheduling cost,
    and determinism keeps results identical either way. *)

val size : t -> int
(** Number of participants, including the calling domain. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Only for pools from
    {!create}; {!with_pool} pools are managed by the checkout registry. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with an exclusively owned pool of the requested
    size and returns it afterwards (also on exception).  Pools are checked
    out of a process-wide registry keyed by size — spawning domains costs
    milliseconds, so the workers persist across calls, idling on a
    condition variable between jobs.  Parked pools are shut down at
    process exit.

    The checkout registry is mutex-guarded, so concurrent system threads
    (the serving daemon's request handlers) may call [with_pool] freely:
    each checkout hands out an exclusively owned pool, and two concurrent
    callers asking for the same size simply get two pools.  What is {e
    not} allowed is sharing one checked-out [t] between threads —
    {!map_array} is not re-entrant. *)

val warm : ?domains:int -> unit -> unit
(** Pre-spawn and park a pool of the requested size, so the first
    {!with_pool} caller does not pay the [Domain.spawn] latency inside
    its timed region.  The serving daemon warms its pool at startup. *)

val parked_count : unit -> int
(** Number of currently parked idle pools (daemon observability). *)

val steals : unit -> int
(** Cumulative number of tasks executed out of another participant's
    chunk, process-wide — a load-balance gauge for the serving metrics
    registry.  Steal totals depend on scheduling and are deliberately
    not part of the deterministic {!Amg_obs.Obs} counter stream. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f arr] applies [f] to every element, distributing the
    index range over the participants (each starts on its own contiguous
    chunk and steals from the others' chunks when its own runs dry).
    Results are returned in input order, so folding over them is
    deterministic no matter how the work was scheduled.  If any [f]
    raises, the exception of the lowest input index is re-raised in the
    caller after all tasks have run. *)

val map_array_cancel :
  t -> cancel:(unit -> bool) -> ('a -> 'b) -> 'a array -> 'b option array
(** Like {!map_array} with cooperative cancellation: [cancel] is polled once
    per task claim (on whichever domain claims it); once it returns [true],
    tasks not yet started are skipped and their slots stay [None].  Tasks
    already running always finish, so completed slots are in input order and
    any prefix-shaped reduction over them remains deterministic.  Errors
    propagate as in {!map_array}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_domains : unit -> int
(** The process-wide default participant count used when [?domains] is
    omitted: the last value given to {!set_default_domains}, or
    {!recommended} if never set.  [amgen --jobs N] sets it. *)

val set_default_domains : int -> unit

val set_oversubscribe : bool -> unit
(** Lift (or restore) the {!recommended}-count clamp on pool sizes, so a
    requested size is honored exactly even beyond the host's core count.
    Off by default; the determinism test suites enable it to exercise
    real multi-domain scheduling on any host. *)
