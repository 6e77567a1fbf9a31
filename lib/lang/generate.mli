(** The generation pipeline, shared by [amgen build], the [amgend]
    daemon and [amgen sweep].

    One request runs canonical build → optional compaction-order search
    (§2.4) → port transplant, and reports the pipeline's own warnings
    ([optimize.not-replayable], [optimize.port-dropped],
    [optimize.degraded]) through {!Amg_robust.Policy}.  The adapters keep
    only what is theirs: printing and exit codes, memo layers and
    telemetry, metric rows.

    Alongside it live the pieces every adapter used to copy: the
    result-store key, the exception → diagnostic converter and the
    per-request policy / fault-injection envelope. *)

type request
(** One generation: entity, parameters, search strategy and its knobs. *)

val request :
  ?search:Amg_robust.Wire.opt_mode ->
  ?max_time:float ->
  ?max_evals:int ->
  ?domains:int ->
  ?store:Amg_store.Store.t * string ->
  string ->
  (string * Value.t) list ->
  request
(** [request entity params]: no [?search] builds the canonical layout
    only.  [?max_time] (seconds, counted from the search's start) and
    [?max_evals] budget the search; [?domains] and [?store] (handle and
    {!store_key}) go to {!Amg_core.Optimize}. *)

type searched = {
  rating : float;  (** the search's rating of its winner *)
  compacts : int;  (** top-level compacts the search reordered *)
  canonical_kept : bool;  (** the canonical order won *)
  cost : int;
      (** nodes visited ([orders], [bb]) or evaluations ([local]), as
          {!Amg_core.Optimize.search} returns them *)
  from_store : bool;  (** the durable store answered; [cost] is then 0 *)
}

type outcome = {
  layout : Amg_layout.Lobj.t;
  searched : searched option;
      (** [None] when no search ran: none was asked for, or the entity is
          not replayable (the canonical build is then emitted) *)
  degraded : bool;  (** the budget stopped the search (best-so-far) *)
}

val run :
  ?canonical:Amg_layout.Lobj.t * (Interp.recorded, string) result ->
  Amg_core.Env.t ->
  Ast.program ->
  request ->
  outcome
(** Run the pipeline once.  [?canonical] supplies an already recorded
    canonical build (the daemon's memo) in place of building one.  The
    canonical build is the fallback at every turn: a not-replayable
    entity or a canonical winner yields the canonical object itself,
    byte for byte; otherwise the winner gets the canonical build's ports
    re-derived on it.
    @raise Amg_robust.Diag.Fail and the build's other exceptions; see
    {!convert_exn}. *)

(** {1 Result-store key} *)

val tech_fingerprint : Amg_core.Env.t -> string
(** Restart-stable fingerprint of the environment's deck.  Compute it
    once per run, before any pool starts. *)

val store_key : tech:string -> string -> (string * Value.t) list -> string
(** [store_key ~tech entity params]: the canonical store signature;
    {!Amg_core.Optimize} appends the search-mode component itself. *)

(** {1 Request boundary} *)

val values : (string * Amg_robust.Wire.param) list -> (string * Value.t) list
(** Wire parameters as interpreter values: the one conversion, shared by
    the CLI's [-p k=v] and the daemon's requests. *)

val convert_exn : exn -> Amg_robust.Diag.t option
(** The one exception → diagnostic mapping, for {!Amg_robust.Diag.guard}:
    rejected generation, injected faults, I/O and usage failures get
    their codes; anything else is [internal.uncaught]. *)

val guarded :
  ?mode:Amg_robust.Policy.mode ->
  ?inject:string ->
  (unit -> 'a) ->
  (('a, Amg_robust.Diag.t) result * Amg_robust.Diag.t list, string) result
(** Run one request under a fresh policy sink in [mode] (default strict)
    with the fault schedule [inject] armed (disarmed when absent), and
    return the guarded result with the diagnostics it reported, the sink
    drained and reset.  [Error msg] when [inject] does not parse; nothing
    runs then.  The schedule is disarmed on every exit, so a raising
    request cannot leave it armed for the next one. *)
