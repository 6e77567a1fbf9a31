(** The generator service: a long-running daemon serving module builds
    over a Unix-domain socket (and optionally TCP) with memoized builds
    resident between requests.

    {b Protocol.}  Newline-delimited JSON ({!Amg_robust.Wire}): one
    request per line, one response line per request, answered on the same
    connection in request order.  Malformed or oversized request lines get
    a structured [status = 2] error response and the connection survives;
    a line truncated by EOF is dropped with the connection.

    {b Scheduling.}  Connections are handled by one system thread each
    (blocking I/O); build requests are admitted into a bounded FIFO queue
    and executed one at a time.  Serializing the compute keeps the §7
    determinism contract intact — each search still fans out over the
    domain pool internally via [?jobs] — and makes the process-global
    request state (policy sink, fault-injection schedule, Obs strands)
    safe without sprinkling locks through the engine.

    {b Warm serving.}  The daemon keeps per-tenant environments (distinct
    {!Amg_core.Env.stamp} → distinct memo keys) and memoizes the recorded
    canonical build per (tenant, entity, params) signature, plus the
    finished result of each unbudgeted strict search, so a repeated
    request skips the build and, when it searches, the search.

    {b Shutdown.}  A [stop] request or {!request_stop} (wired to SIGTERM
    by {!run}) drains in-flight requests, wakes idle connections, rejects
    new connects, and leaves the process at exit code 0.

    {b Telemetry.}  Every request updates the {!Amg_obs.Metrics}
    registry: a [serve.requests] counter and a [serve.latency] histogram,
    both labelled by op, response status and cache outcome
    ([memo-hit]/[store-hit]/[cold]/[degraded]/[error]/[overloaded]),
    plus callback gauges over the queue, the memo layers, the tenant
    table and the domain pool.  The [metrics] and
    [health] wire ops are answered straight from the connection thread —
    never queued behind compute — so a scrape stays fast under load.
    Optional extras: an ndjson access log ([access_log]), and per-request
    Chrome traces for sampled or slow requests ([trace_dir] /
    [trace_sample] / [slow_ms]); both arm {!Amg_obs.Obs} if the caller
    has not, with event retention capped so a long-running daemon stays
    bounded. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; created at start. *)
  tcp : (string * int) option;  (** Optional TCP listener (host, port). *)
  source : string;  (** Module library source text. *)
  source_file : string option;  (** Name for parse diagnostics. *)
  tech : Amg_tech.Technology.t option;  (** Default: built-in BiCMOS. *)
  default_jobs : int option;  (** Domains when a request names none. *)
  queue_limit : int;  (** Admitted-but-unfinished request cap. *)
  max_frame : int;  (** Request line byte cap. *)
  memo_limit : int;  (** Recorded-build signatures kept (LRU). *)
  tenant_limit : int;  (** Tenant environments kept resident (LRU). *)
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
  ?tenant_limit:int ->
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
    limit 64, 1 MiB frames, 128 memo signatures, 64 resident tenant
    environments, no pool warm-up, no traces, no access log, no durable
    store, sweep grids capped at 256 instances. *)

type t

val start : config -> t
(** Parse the module library, bind the listeners and spawn the accept
    thread.  Ignores SIGPIPE process-wide so a peer that vanishes
    mid-response surfaces as a clean connection close instead of killing
    the daemon.  @raise Amg_robust.Diag.Fail on a bad source or tech;
    [Unix.Unix_error] on bind failures (stale socket paths are
    unlinked first). *)

val request_stop : t -> unit
(** Ask the daemon to stop; returns immediately.  Safe from signal
    handlers and from connection threads (the [stop] op calls it). *)

val stop_requested : t -> bool

val stop : t -> unit
(** Graceful shutdown: reject new connects, wake idle connections, let
    in-flight requests finish and answer, join every thread, unlink the
    socket.  Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} has been called (polling; usable from
    the main thread while signal handlers fire). *)

val checkpoint : t -> unit
(** Compact the durable store (if configured) into a one-record-per-key
    snapshot via write-to-temp + fsync + atomic rename.  No-op without a
    store.  Safe while requests are being served — the store handle is
    internally locked.  {!run} wires this to SIGUSR1. *)

val reopen_access_log : t -> unit
(** Close and reopen the access log at its configured path, for log
    rotation without a restart.  No-op without an access log.  {!run}
    wires this to SIGHUP. *)

val run : config -> unit
(** [start], install the daemon signal contract, then {!wait} and
    {!stop}.  Signals: SIGTERM/SIGINT request a graceful stop (drain,
    persist the store, exit 0); SIGUSR1 {!checkpoint}s the store;
    SIGHUP {!reopen_access_log}s.  The signal handlers only flip atomic
    flags — the actual I/O runs on the waiting main thread.  The CLI
    entry points wrap this. *)

val served : t -> int
(** Requests answered so far (all ops). *)

val socket_path : t -> string
