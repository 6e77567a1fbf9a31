(** The serve, store and sweep counters, each declared once.

    A declaration gives the counter's name, its label keys and whether it
    also feeds the {!Obs} stream (under the same name, unlabelled); one
    {!add} then records it in every view it declares.  The {!Metrics}
    instrument behind each label-value tuple is registered on its first
    bump, so a series appears in a scrape once it has counted something.
    Safe from any thread or domain, except that the Obs view is
    strand-local: counters bumped from connection threads during a scrape
    ([serve.requests], [serve.latency]) are registry-only.

    The generator kernels' counters ([compact.*], [optimize.*],
    [sindex.*], …) stay plain {!Obs.count} calls: they are read by name
    from the Obs stream, and a registry update per placement would slow
    the search. *)

type t

val add : ?labels:string list -> t -> int -> unit
(** [labels] are the values of the declaration's label keys, in declared
    order.  The registry ignores non-positive amounts.
    @raise Invalid_argument when their number does not match the keys. *)

val incr : ?labels:string list -> t -> unit

type latency
(** A latency histogram (registry only), labelled like a counter. *)

val observe : ?labels:string list -> latency -> float -> unit

(** {1 Declarations} *)

val serve_requests : t
(** Labels [cache], [op], [status]. *)

val serve_latency : latency
(** Seconds; labels as {!serve_requests}. *)

val serve_memo_hits : t
val serve_memo_misses : t
val serve_memo_best_hits : t
val serve_memo_evictions : t
val serve_degraded : t
val store_hits : t
val store_misses : t
val store_writes : t
val store_write_failures : t
val store_checkpoints : t
val store_recoveries : t
val store_recovered_records : t
val store_torn_tail_truncations : t
val store_corrupt_records : t
val sweep_runs : t

val sweep_instances : t
(** Label [status] ([ok] or [error]). *)
