(** Durable, crash-safe result store.

    Maps an opaque key — see {!signature} for the canonical
    (tech-fingerprint, entity, params) key used by the CLI and the serve
    daemon — to the best known compaction order for that module: a
    permutation of the canonical step list, its rating, and free-form
    metadata.  The file is an append-only record log behind a versioned
    header; {!checkpoint} rewrites it as one record per live key via
    write-to-temp + fsync + atomic rename, so a reader never observes a
    half-written snapshot.

    On-disk format (all integers little-endian):

    {v
    header  := "AMGSTORE" u32(version=1)
    record  := u32(payload_len) u32(crc32 payload) payload
    payload := u32(key_len) key
               u64(float bits of rating)
               u32(perm_len) perm_len * u32
               u32(meta_len) meta_len * (u32 len bytes) * 2
    v}

    Recovery replays the log in order (last record for a key wins),
    {e silently truncates a torn tail} (a record whose frame extends past
    end-of-file — the signature of a crash mid-append), and surfaces
    corrupted interior records (CRC mismatch) as structured diagnostics
    with stable [store.*] codes, never as wrong layouts.

    Fault containment: every I/O failure on the write path (injected via
    {!Amg_robust.Inject} probes at [store-read]/[store-write]/
    [store-fsync]/[store-rename], or real [ENOSPC]-style errors) is
    caught inside the store, reported as a Warning diagnostic through
    {!Amg_robust.Policy.report}, and leaves the in-memory table — the
    authority for lookups — untouched.  Callers therefore keep serving
    correct results; only durability degrades. *)

type entry = {
  rating : float;  (** rating of the layout produced by the stored order *)
  perm : int array;
      (** best order as a permutation of indices into the canonical step
          list (step uids are process-local and cannot be persisted) *)
  meta : (string * string) list;  (** free-form, e.g. optimizer mode *)
}

type stats = {
  entries : int;  (** live keys in memory *)
  log_records : int;  (** records currently in the on-disk log *)
  log_bytes : int;  (** on-disk size, header included *)
  hits : int;  (** {!find} calls that returned an entry *)
  misses : int;  (** {!find} calls that returned [None] *)
  writes : int;  (** records appended by this handle *)
  write_failures : int;  (** contained append/fsync/checkpoint failures *)
  recovered_records : int;  (** log records replayed at {!open_} *)
  torn_tail_truncations : int;  (** torn tails silently truncated at open *)
  corrupt_records : int;  (** interior records dropped for CRC mismatch *)
  checkpoints : int;  (** successful {!checkpoint}s by this handle *)
}

type t

val open_ : string -> t * Amg_robust.Diag.t list
(** Open (creating if absent) the store at a path and replay its log.
    The returned diagnostics describe what recovery found: Warning
    [store.corrupt_record] per dropped interior record, Warning
    [store.read_failed] if the log could not be read to the end (partial
    recovery), Info [store.recovered] when a non-empty log was replayed.
    A torn tail is truncated silently — it is the expected shape of a
    crash — and only counted in {!stats}.  Raises [Amg_robust.Diag.Fail] with code
    [store.bad_header] if the file exists but is not an AMGSTORE-v1 log
    (never guesses at foreign bytes).

    Appends are fsynced every 8 records (and on {!sync}, {!checkpoint}
    and {!close}).  The handle always has write access; {!verify} is the
    read-only path. *)

val path : t -> string
val length : t -> int
val find : t -> string -> entry option
val mem : t -> string -> bool

val iter : (string -> entry -> unit) -> t -> unit
(** Iteration order is unspecified. *)

val record : t -> string -> entry -> unit
(** Unconditionally bind [key], in memory and in the log. *)

val record_if : t -> string -> keep:(entry -> bool) -> entry -> bool
(** [record_if t key ~keep e] atomically tests and binds: if [key] is
    absent, or [keep old] is false for the current entry, bind [e] (in
    memory and in the log) and return [true]; otherwise leave the
    incumbent untouched and return [false].  The test and the write
    happen under the handle lock, so two racing writers cannot clobber
    each other's strictly-better record. *)

val deferred : t -> (unit -> 'a) -> 'a * (unit -> unit)
(** [deferred t f] runs [f] with the log appends it makes to [t] on the
    calling domain held back: the in-memory table is bound as usual, and
    the held records are appended, in the order [f] made them, by the
    returned action.  A caller that runs several [f]s in parallel runs
    their actions in its own order, so the log's order does not depend
    on which finished first (the sweep appends in walk order). *)

val sync : t -> unit
(** Force a durability barrier if there are unsynced appends. *)

val checkpoint : t -> unit
(** Compact the log to one record per live key: write a temp file next to
    the store, fsync it, atomically rename it over the log, fsync the
    directory.  A failure at any point (including an injected
    crash-before-rename) leaves the existing log intact and is reported
    as a Warning [store.checkpoint_failed]. *)

val close : t -> unit
(** Final sync (best-effort) and release the file descriptor.  The handle
    must not be used afterwards. *)

val stats : t -> stats

val verify : string -> stats * Amg_robust.Diag.t list
(** Scan a store file without opening it for writing and without
    mutating it: returns the stats recovery would produce plus its
    diagnostics (a torn tail is reported here as an Info, since verify
    repairs nothing).  Raises [Amg_robust.Diag.Fail] on a missing/unreadable file or
    a bad header. *)

type param = Num of float | Str of string

val signature : tech:string -> entity:string -> params:(string * param) list -> string
(** Canonical store key: length-prefixed tokens over the technology
    fingerprint, the entity name and the sorted parameter bindings, with
    floats rendered as hex images so equal keys mean bit-equal inputs.
    The optimizer mode is appended by [Optimize] itself, so one key
    namespace serves all three search strategies. *)

val tech_fingerprint : string -> string
(** Restart-stable fingerprint of a technology file's canonical text
    (nothing process-local may reach the disk). *)

val register_metrics : t -> unit
(** Register [store.records] / [store.bytes] gauges backed by this handle
    in the process-wide {!Amg_obs.Metrics} registry (the event counters —
    hits, misses, recoveries, torn-tail truncations — are declared in
    {!Amg_obs.Counters} and bumped unconditionally as they happen). *)
