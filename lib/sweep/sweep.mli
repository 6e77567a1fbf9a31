(** Batch parameter-grid sweeps.

    A sweep expands a small JSON spec — one entity, one value axis per
    parameter — into a canonical instance list, builds and
    order-optimizes every instance, and emits one layout-derived metric
    row per instance into a columnar result file (a JSON schema header
    followed by CSV rows, written incrementally in canonical order so a
    killed sweep keeps its completed prefix).

    The canonical instance order is a mixed-radix reflected Gray-code
    walk over the grid, so consecutive rows differ in exactly one
    parameter by one grid step.  Scheduling cuts the walk into chunks of
    consecutive instances, one pool task per chunk, and rows are
    re-serialized into walk order for output.  Instances share no search
    state (each canonical build allocates fresh steps), so the chunk size
    only sets the task granularity.

    Determinism: a row is a pure function of (environment, entity,
    parameters, search mode).  Inner searches always run on one domain,
    so rows — and the whole result file — are byte-identical for every
    [?domains], every [?chunk], shuffled or walk-order scheduling, and
    with the store on or off (§7 contract). *)

type axis = {
  a_name : string;
  a_values : Amg_lang.Value.t list;  (** in spec order; length >= 1 *)
}

type spec = {
  s_entity : string;
  s_axes : axis list;  (** sorted by parameter name *)
  s_mode : Amg_robust.Wire.opt_mode;
}

val parse_spec : ?file:string -> string -> spec
(** Parse a sweep spec document:

    {v
    { "entity": "DiffPair",
      "params": { "W": { "from": 8, "to": 15, "step": 1 },
                  "L": [ 4, 5, 6 ],
                  "layer": [ "poly", "metal1" ] },
      "optimize": "local" }
    v}

    Each parameter axis is either an explicit value array (numbers or
    strings) or an inclusive arithmetic range.  ["optimize"] is
    [orders], [bb] or [local] (the default).  String values must be
    CSV-safe (no commas, quotes or control characters).  The expanded
    grid is capped at 1_000_000 instances.
    @raise Amg_robust.Diag.Fail with code [sweep.bad-spec] on malformed
    documents. *)

val grid_size : spec -> int
(** Product of the axis lengths (before deduplication). *)

val instances : spec -> (string * Amg_lang.Value.t) list list
(** The canonical instance list: the Gray-code walk over the
    grid, with instances whose canonical parameter signature already
    appeared earlier in the walk removed.  Each instance binds every
    axis, in axis (= sorted name) order. *)

val columns : spec -> (string * string) list
(** Result columns as (name, type) with type ["str"], ["num"] or
    ["int"]: [entity], one column per axis, then [status], [rating],
    [area_um2], [w_um], [h_um], [shapes], [density], [net_wl_um],
    [sym_um], [diags]. *)

val header_line : spec -> rows:int -> string
(** The one-line JSON schema header: entity, mode, axes with their
    values, the column list, and the row count. *)

type result = {
  rows : int;  (** rows emitted (= canonical instances) *)
  failures : int;  (** rows whose status is not ["ok"] *)
  duplicates : int;  (** grid points dropped by deduplication *)
  store_hits : int;  (** result-store hits served during this run *)
  elapsed_s : float;
}

val run :
  ?domains:int ->
  ?chunk:int ->
  ?shuffle:bool ->
  ?store:Amg_store.Store.t ->
  ?source_file:string ->
  on_line:(string -> unit) ->
  env:Amg_core.Env.t ->
  source:string ->
  spec ->
  result
(** Run the sweep: parse [source], expand the grid, schedule
    [chunk]-sized groups of walk-consecutive instances onto a
    [?domains]-wide pool (default 1; [chunk] default 8), and call
    [on_line] once per output line — the JSON header, the CSV column
    line, then one CSV row per instance — always in canonical walk
    order, as soon as the prefix up to that row is complete (flush in
    [on_line] to keep the file crash-safe).

    [?shuffle] replaces the walk-order schedule with a deterministic
    shuffle of the instance order — an ablation hook: rows are
    identical, only timings move.  [?store] consults and
    populates the durable result store under each instance's canonical
    signature.

    Per-instance failures (placement rejection, language errors) become
    rows with the diagnostic code in the [status] column and empty
    metric cells — the sweep always completes.  Diagnostics reported
    while an instance runs are captured per row ({!Amg_robust.Policy.capture})
    and listed, as codes, in the row's [diags] column. *)

val check_file : string -> (int, string) Stdlib.result
(** Validate a result file against its own schema header: the header
    parses, the column line matches, every row has one cell per column
    and each cell parses at the column's type (metric cells may be empty
    on failed rows).  Returns the data row count.  A truncated file with
    fewer rows than the header announced is valid — that is the
    documented crash shape — but extra or malformed rows are not. *)
