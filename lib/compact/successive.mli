(** The successive compactor (§2.3).

    "Complex modules are constructed by compacting either geometric
    primitives or hierarchically built objects to an existing structure …
    the compaction is done successively by involving only one new object in
    each step."  Consequences implemented here:

    - only the moving object is constrained against the existing structure
      (no global edge graph), so each step is a single pairwise scan and the
      designer can predict the result;
    - edges on the same potential are not considered and are merged
      afterwards (auto-connection, Fig. 5a);
    - variable edges that define the minimum distance are moved inward until
      fixed edges define it, with derived geometry (contact arrays) rebuilt
      automatically (Fig. 5b);
    - per-shape [keep_clear] forbids otherwise legal overlaps. *)

type align = [ `Keep | `Center | `Min | `Max ]
(** Cross-axis pre-alignment of the mover relative to the target bounding
    box: keep as generated, centre, align low edges, or align high edges. *)

type limit = {
  bound : int;
  mover : Amg_layout.Shape.t;
  target : Amg_layout.Shape.t;
  rel : Constraints.relation;
}
(** One pairwise constraint on the mover's travel. *)

type pass = {
  tightest : int option;
      (** The tightest bound on the mover's travel, or [None] when no pair
          constrains it. *)
  tied : limit list;
      (** Every limit at [tightest], in (mover id, target id) order — the
          insertion order of the all-pairs scan, which fixes the
          tie-breaks. *)
  runner_up : int option;
      (** The tightest bound strictly looser than [tightest]: the slack the
          variable-edge relaxation may take. *)
  connect : (int * int) list;
      (** (mover id, target id) of every same-layer, same-net pair whose
          cross-axis spans overlap — auto-connection's candidates — in
          (mover id, target id) order. *)
}
(** What one candidate pass over the mover and the main structure yields:
    the only facts a placement uses. *)

val scan :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  Amg_geometry.Dir.t ->
  main:Amg_layout.Lobj.t ->
  Amg_layout.Lobj.t ->
  pass
(** The candidate pass.  Each (mover shape, main layer) pair that can
    constrain the move is queried once in the per-layer spatial index,
    over the shape's movement slab inflated by the layer pair's spacing
    rule; a pair on different layers with no spacing rule and no
    keep-clear shape on either side is skipped.  The result equals the
    summary of the all-pairs scan.  Pure query: mutates nothing. *)

val delta :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  Amg_geometry.Dir.t ->
  main:Amg_layout.Lobj.t ->
  Amg_layout.Lobj.t ->
  int
(** Signed translation along the movement axis that places the object as far
    in the direction as the design rules allow (bounding boxes abut when no
    pair constrains the move).  Pure query: mutates nothing. *)

val auto_connect :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  Amg_geometry.Dir.t ->
  main:Amg_layout.Lobj.t ->
  pass:pass ->
  Amg_layout.Lobj.t ->
  unit
(** Stretch same-layer same-net target shapes up to the placed mover when a
    gap remains along the movement axis and the extension violates no
    spacing rule.  The candidates are [pass.connect], from a {!scan} of
    the mover taken before it travelled along the movement axis.  Exposed
    for tests. *)

val compact :
  rules:Amg_tech.Rules.t ->
  into:Amg_layout.Lobj.t ->
  ?ignore_layers:string list ->
  ?align:align ->
  ?variable_edges:bool ->
  Amg_layout.Lobj.t ->
  Amg_geometry.Dir.t ->
  unit
(** [compact ~rules ~into:main obj d] is the paper's
    [compact(obj, D, layers…)]: optionally pre-align, run the variable-edge
    relaxation (disable with [~variable_edges:false] to reproduce
    Fig. 5a vs 5b), translate the object to its minimum-distance position,
    auto-connect, and absorb it into [main].  When [main] is empty the
    object is copied in unchanged.

    Failure policy: under {!Amg_robust.Policy.Strict} (the default) a
    placement failure escapes as an exception.  Under [Permissive] the
    placement is retried along the opposite direction on a pristine copy,
    and if that also fails the object is skipped (not absorbed) and a
    [compact.placement-skipped] diagnostic is
    {{!Amg_robust.Policy.report} reported} — the layout stays valid, the
    degradation is visible. *)

val pp_explain : Format.formatter -> unit -> unit
(** Render the [compact.place] marks recorded by the observability layer
    (see {!Amg_obs.Obs}) as a per-placement audit table: for every
    compacted object, the binding layer/rule/edge pair — or bbox abutment
    — that set its final position.  Requires instrumentation to have been
    enabled around the build. *)
