(** The generator service: a long-running daemon serving module builds
    over a Unix-domain socket (and optionally TCP) with memoized builds
    resident between requests.

    {b Protocol.}  Newline-delimited JSON ({!Amg_robust.Wire}): one
    request per line, one response line per request, answered on the same
    connection in request order, read and written with the client's own
    line codec ({!Frame}) under the [max_frame] cap.  Malformed or
    oversized request lines get a structured [status = 2] error response
    and the connection survives; a line truncated by EOF is dropped with
    the connection, and a signal never ends a read or a write.

    {b Compute.}  Builds and sweeps share one envelope: the policy mode
    of [permissive], the strict and fault-free gate of the memo layers
    and the store ({!Contract.storable}), the guarded run with its
    [serve.bad-inject] rejection, and the stats object.  A build's
    status is {!Contract.build_status}, a sweep's
    {!Contract.sweep_status}, and a budget without a mode searches in
    [orders] mode ({!Contract.search}) — the rules [amgen build] and
    [amgen sweep] exit by.

    {b Scheduling.}  Connections are handled by one system thread each
    (blocking I/O); build requests are admitted into a bounded FIFO queue
    and executed one at a time.  Serializing the compute keeps the §7
    determinism contract intact — each search still fans out over the
    domain pool internally via [?jobs] — and makes the process-global
    request state (policy sink, fault-injection schedule, Obs strands)
    safe without sprinkling locks through the engine.

    {b Warm serving.}  The daemon builds under one environment and
    memoizes the recorded canonical build per (tenant, entity, params)
    signature, plus the finished result of each unbudgeted strict search,
    so a repeated request skips the build and, when it searches, the
    search.  The tenant is a component of the memo key and nothing else:
    tenants never share memo entries, and a stream of fresh tenant names
    is bounded by the memo's LRU like any other key.

    {b Shutdown.}  A [stop] request or SIGTERM (under {!run}) drains in-flight requests, wakes idle connections, rejects
    new connects, and leaves the process at exit code 0.

    {b Telemetry.}  Every request updates the {!Amg_obs.Metrics}
    registry: a [serve.requests] counter and a [serve.latency] histogram,
    both labelled by op, response status and cache outcome
    ([memo-hit]/[store-hit]/[cold]/[degraded]/[error]/[overloaded]),
    plus callback gauges over the queue, the memo layers and the domain
    pool; the counters are declared in {!Amg_obs.Counters}.  The [metrics] and
    [health] wire ops are answered straight from the connection thread —
    never queued behind compute — so a scrape stays fast under load.
    Optional extras: an ndjson access log ([access_log]), whose outcome
    and [evals] (the search's cost) come from each request's own result,
    and per-request Chrome traces for sampled or slow requests
    ([trace_dir] / [trace_sample] / [slow_ms]).  Only traces arm
    {!Amg_obs.Obs} if the caller has not, with event retention capped so
    a long-running daemon stays bounded. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; created at start. *)
  tcp : (string * int) option;  (** Optional TCP listener (host, port). *)
  source : string;  (** Module library source text. *)
  source_file : string option;  (** Name for parse diagnostics. *)
  tech : Amg_tech.Technology.t option;  (** Default: built-in BiCMOS. *)
  default_jobs : int option;  (** Domains when a request names none. *)
  queue_limit : int;  (** Admitted-but-unfinished request cap. *)
  max_frame : int;  (** Request line byte cap. *)
  memo_limit : int;
      (** Recorded-build signatures kept (LRU), over all tenants. *)
  warm_pool : bool;  (** Pre-spawn the domain pool at start. *)
  trace_dir : string option;
      (** Directory for per-request Chrome traces (created if absent). *)
  trace_sample : int;
      (** Export every [N]-th request's trace; [0] disables sampling. *)
  slow_ms : float option;
      (** Also export any request at least this slow (needs
          [trace_dir]). *)
  access_log : string option;  (** ndjson access log path (appended). *)
  store : string option;
      (** Durable result-store path ({!Amg_store.Store}): loaded before
          the listeners open (warm restart), fed by strict fault-free
          optimized builds, checkpointed on SIGUSR1 and on drain. *)
  sweep_limit : int;
      (** Largest parameter grid a [sweep] request may expand to; larger
          specs are rejected with [serve.sweep-too-large] before any
          compute runs. *)
}

val config :
  ?tcp:string * int ->
  ?source:string ->
  ?source_file:string ->
  ?tech:Amg_tech.Technology.t ->
  ?default_jobs:int ->
  ?queue_limit:int ->
  ?max_frame:int ->
  ?memo_limit:int ->
  ?warm_pool:bool ->
  ?trace_dir:string ->
  ?trace_sample:int ->
  ?slow_ms:float ->
  ?access_log:string ->
  ?store:string ->
  ?sweep_limit:int ->
  string ->
  config
(** [config socket_path] with defaults: no TCP, the built-in
    {!Amg_lang.Stdlib.all} module library, built-in technology, queue
    limit 64, 1 MiB frames, 128 memo signatures, no pool warm-up, no traces, no access log, no durable
    store, sweep grids capped at 256 instances. *)

type t

val start : config -> t
(** Parse the module library, bind the listeners and spawn the accept
    thread.  Ignores SIGPIPE process-wide so a peer that vanishes
    mid-response surfaces as a clean connection close instead of killing
    the daemon.  @raise Amg_robust.Diag.Fail on a bad source or tech;
    [Unix.Unix_error] on bind failures (stale socket paths are
    unlinked first). *)

val stop_requested : t -> bool

val stop : t -> unit
(** Graceful shutdown: reject new connects, wake idle connections, let
    in-flight requests finish and answer, join every thread, unlink the
    socket.  Idempotent. *)

val run : config -> unit
(** [start], install the daemon signal contract, wait for a stop, then
    {!stop}.  Signals: SIGTERM/SIGINT request a graceful stop (drain,
    persist the store, exit 0); SIGUSR1 compacts the store into a
    one-record-per-key snapshot (write-to-temp, fsync, atomic rename),
    safe while requests are served; SIGHUP closes and reopens the access
    log at its path, for rotation without a restart.  The signal
    handlers only flip atomic flags — the actual I/O runs on the waiting
    main thread.  The CLI entry points wrap this. *)
