(* Process-wide serving metrics: monotonic counters, gauges and
   fixed-bucket latency histograms, built for a long-running daemon.

   This is the *aggregated* side of the observability layer.  {!Obs}
   strands record a per-run event stream with deterministic merge order;
   the registry here accumulates totals across the whole process
   lifetime and is safe to bump from any thread or domain: every
   instrument is a set of atomics, updates are lock-free, and reads
   ([snapshot]/[to_prometheus]) never block writers.  Registration
   (first lookup of a name + label set) takes a mutex; keep instrument
   handles or accept one short critical section per lookup.

   Instruments are identified by name plus a (sorted) label set.  Labels
   must come from small fixed vocabularies (op names, status codes,
   cache outcomes) — never request ids, tenants or entity names; the
   registry grows one slot per distinct (name, labels) pair and nothing
   is ever unregistered.  [snapshot] returns samples sorted by (name,
   labels), so equal registry states yield byte-equal expositions.

   The registry is passive: arming it, registering callbacks and
   recording observations never touches generator state, so layouts and
   ratings are byte-identical with and without it (the probes-never-
   perturb property, extended to the registry; see test_metrics.ml). *)

(** {1 Counters} — monotonic, integer. *)

type counter

val counter : ?labels:(string * string) list -> string -> counter
(** Find or register.  A second call with the same name + labels returns
    the same instrument. *)

val add : counter -> int -> unit
(** [n] must be >= 0; negative amounts are ignored (counters are
    monotonic). *)

val counter_value : counter -> int

val counter_fn : ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** Callback-backed counter: the function is sampled at snapshot time.
    Re-registering the same name + labels replaces the callback (so a
    restarted subsystem can re-point the counter at its fresh state). *)

(** {1 Gauges} — current-value instruments, settable or callback-backed. *)

type fgauge
(** Float gauge. *)

val fgauge : ?labels:(string * string) list -> string -> fgauge
val set_f : fgauge -> float -> unit

val gauge_fn : ?labels:(string * string) list -> string -> (unit -> float) -> unit
(** Callback-backed gauge, sampled at snapshot time.  Re-registering
    replaces the callback. *)

(** {1 Histograms} — fixed log-spaced buckets, exact counts. *)

type histogram

val default_latency_bounds : float array
(** Upper bucket bounds in seconds, log-spaced (factor 2) from 0.25 ms
    to ~524 s; an implicit +Inf overflow bucket follows the last bound. *)

val histogram :
  ?labels:(string * string) list -> ?bounds:float array -> string -> histogram
(** [bounds] must be strictly increasing and non-empty; defaults to
    {!default_latency_bounds}.  If the instrument already exists its
    original bounds are kept and [bounds] is ignored. *)

val observe : histogram -> float -> unit
(** Record one observation: bumps the first bucket whose bound is
    [>= v] (the overflow bucket if none) and adds [v] to the sum. *)

type hsnap = {
  h_bounds : float array;
  h_counts : int array;  (** one per bound, plus a final overflow slot *)
  h_count : int;         (** total observations *)
  h_sum : float;
}

val quantile : hsnap -> float -> float
(** [quantile h q] for [q] in [(0, 1]]: the upper bound of the bucket
    holding the [ceil (q * count)]-th observation — an upper estimate no
    further than one bucket width (factor 2) from the true quantile.
    Returns [0.] on an empty histogram and [infinity] when the rank
    falls in the overflow bucket. *)

(** {1 Snapshot and exposition} *)

type value = Counter of int | Gauge of float | Histogram of hsnap

type sample = {
  m_name : string;
  m_labels : (string * string) list;  (** sorted by key *)
  m_value : value;
}

val snapshot : unit -> sample list
(** Consistent-enough point-in-time read: each atomic is read once, the
    list is sorted by (name, labels).  Callback instruments are invoked
    here; a callback that raises yields 0 rather than poisoning the
    scrape. *)

val to_prometheus : unit -> string
(** Prometheus text exposition of {!snapshot}: names are sanitised to
    [[a-zA-Z0-9_]], counters gain a [_total] suffix, histograms emit
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count].  Equal
    snapshots produce byte-equal output. *)

val reset : unit -> unit
(** Zero every counter, settable gauge and histogram; registrations and
    callbacks are kept.  For tests and determinism drills only — a
    serving process never resets. *)
