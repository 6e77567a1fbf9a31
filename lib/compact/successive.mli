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
  runner_up : int option Lazy.t;
      (** The tightest bound strictly looser than [tightest]: the slack the
          variable-edge relaxation may take.  Forcing it may take a second,
          unpruned visit of the pass's pairs, so force it before mutating
          either object. *)
  connect : (int * int) list;
      (** (mover id, target id) of every same-layer, same-net pair on a
          stretchable (non-cut) layer whose cross-axis spans overlap —
          auto-connection's candidates — in (mover id, target id) order. *)
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
(** The candidate pass, bound-ordered over layer pairs.  Each (mover
    layer, main layer) pair is classified once and given an optimistic
    bound from the two layer hulls; pairs are visited tightest-optimistic
    first, and a pair — or one mover shape of a visited pair — whose
    optimistic bound is strictly looser than the tightest bound found so
    far is skipped, unless it may hold auto-connection partners.  A
    visited mover shape is queried once in the main layer's spatial
    index, over its movement slab inflated by the pair's spacing rule; a
    pair on different layers with no spacing rule and no keep-clear shape
    on either side is never queried.  The result equals the summary of
    the all-pairs scan.  Pure query: mutates nothing. *)

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
    object is copied in unchanged.  [obj] is left at its final position,
    with its variable edges as the relaxation left them: the language
    keeps using the object it compacted.

    The object is read as a mover: the object plus an integer
    displacement.  Pre-alignment and the travel only add to the
    displacement, the candidate pass reads the shapes through it, and the
    absorb writes each shape into [main] once, at its final position; a
    shrink of one of the object's variable edges, or auto-connection,
    first translates the object to where the mover stands.

    Failure policy: under {!Amg_robust.Policy.Strict} (the default) a
    placement failure escapes as an exception.  Under [Permissive] the
    placement is retried along the opposite direction on a pristine copy,
    and if that also fails the object is skipped (not absorbed) and a
    [compact.placement-skipped] diagnostic is
    {{!Amg_robust.Policy.report} reported} — the layout stays valid, the
    degradation is visible. *)

val compact_readonly :
  rules:Amg_tech.Rules.t ->
  into:Amg_layout.Lobj.t ->
  ?ignore_layers:string list ->
  ?align:align ->
  ?variable_edges:bool ->
  Amg_layout.Lobj.t ->
  Amg_geometry.Dir.t ->
  unit
(** [compact_readonly ~rules ~into:main obj d] leaves [main] exactly as
    [compact ~rules ~into:main (Lobj.copy obj) d] leaves it — the same
    shapes, ids, ports, arrays and diagnostics, or the same exception —
    without mutating [obj] and, in most placements, without copying it.
    Read-only entry of the order search, whose step objects are shared by
    every order and every domain: [obj]'s hull caches must be filled
    ({!Amg_layout.Lobj.fill_caches}) when domains share it.

    The same pipeline as {!compact}, with [obj] read through the mover's
    displacement.  The object is copied, once, only when the placement
    must mutate it or re-read it where it stands:
    - a variable edge of the mover shrinks (counted as
      [compact.mover_copies_shrink]);
    - auto-connection has partners to stretch towards the placed mover
      ([compact.mover_copies_connect]).
    Otherwise nothing of [obj] is written but its shapes' copies in
    [main]. *)

val pp_explain : Format.formatter -> unit -> unit
(** Render the [compact.place] marks recorded by the observability layer
    (see {!Amg_obs.Obs}) as a per-placement audit table: for every
    compacted object, the binding layer/rule/edge pair — or bbox abutment
    — that set its final position.  Requires instrumentation to have been
    enabled around the build. *)
