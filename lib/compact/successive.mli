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
      automatically (Fig. 5b); a placement whose binding separations have
      fixed facing edges only keeps its first pass as it is;
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

(** {2 Mover digests and class tables}

    A placement reads its mover through a {e digest}: for each of the
    mover's layers, its shapes as an array in store order, the leading
    side of their hull along the movement direction (before any
    displacement), and whether any of them has a net or is keep-clear.
    A search step's mover is the same object in every placement, so
    {!Amg_core.Optimize.step} builds its digest once and every placement
    of the step, on every domain, only reads it.

    A search also classifies every (mover layer, main layer) pair it can
    meet once, before it fans out ({!classes}); its scans read the table
    instead of the rule tables. *)

type digest
(** A mover object read along one direction.  It holds the object and
    the direction, and stays valid only while the object is not mutated:
    the object of a digest that placements share must not change after
    the digest is built. *)

val digest : Amg_layout.Lobj.t -> Amg_geometry.Dir.t -> digest
(** [digest obj d]: one pass over [obj]'s store. *)

val equal_digest : digest -> digest -> bool
(** The same object (physically), direction, layers, shapes, leading
    sides and flags. *)

type classes
(** The layer-level classification ({!Constraints.classify}) of every
    pair of a set of layers, and which of them are cut layers.
    Immutable: domains share it. *)

val classes : Amg_tech.Rules.t -> string list -> classes
(** [classes rules layers] classifies every ordered pair of [layers]
    (duplicates are dropped).  A scan through the table classifies a
    layer it does not cover on the spot, so the table only saves work:
    it should cover every layer the main and the movers of the search
    can carry. *)

val scan :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  Amg_geometry.Dir.t ->
  main:Amg_layout.Lobj.t ->
  Amg_layout.Lobj.t ->
  pass
(** The candidate pass, bound-ordered over layer pairs and, inside a
    pair, over targets.  Each (mover layer, main layer) pair is
    classified once and given an optimistic bound from the two layer
    hulls; pairs are visited tightest-optimistic first, and a pair — or
    one mover shape of a visited pair — whose optimistic bound is
    strictly looser than the tightest bound found so far is skipped,
    unless it may hold auto-connection partners.  A visited mover shape
    reads the main layer's spatial index over its movement slab inflated
    by the pair's spacing rule; a pair on different layers with no
    spacing rule and no keep-clear shape on either side is never read.

    A mover shape that looks for no partners walks the slab from the
    mover's side ({!Amg_layout.Lobj.walk_layer}), meeting the targets
    whose facing edges come first first, and stops before a bin once even
    a target at the walk's bound, at the pair's spacing rule, would bound
    the travel strictly looser than the tightest bound found so far — the
    rule that skips a pair, so no target that could tie is left out.  A
    stopped walk counts as a skip: the runner-up then takes the unpruned
    visit.  Partner seekers and the unpruned visit read the whole slab.

    A mover shape looks for partners when it has a net on a stretchable
    layer and, given [?shared], when that net is one of [shared]: a
    search passes the nets its base or at least two of its steps carry,
    since a main it builds holds only their shapes, and a net outside
    them can have no partner there.  Without [?shared] every net counts
    (module builds).

    The result equals the summary of the all-pairs scan (with [?shared],
    whenever every net the main and the mover share is in [shared]).  It
    reads the main through one pass over its layers
    ({!Amg_layout.Lobj.fold_layers}) and queries each layer's index
    through its handle.  [scan rules d ~main obj] is
    [scan_digest rules ~main (digest obj d)].  Pure query: mutates
    nothing but [main]'s lazily built indexes. *)

val scan_digest :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  ?classes:classes ->
  ?shared:string list ->
  main:Amg_layout.Lobj.t ->
  digest ->
  pass
(** {!scan} of a digest's object along its direction.  With [?classes]
    each layer pair's class is read from the table; the pass is the
    same.  [?shared] is the search's shared nets (see {!scan}). *)

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

val extension_safe :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  unit ->
  main:Amg_layout.Lobj.t ->
  obj:Amg_layout.Lobj.t ->
  Amg_layout.Shape.t ->
  Amg_geometry.Rect.t ->
  bool
(** [extension_safe rules ?ignore_layers () ~main ~obj s r'] is
    {!auto_connect}'s check of one stretch: whether growing [s] to [r']
    keeps every separation against the other shapes of [main] and [obj].
    One [extension_safe rules ?ignore_layers ()] serves one
    {!auto_connect} call and classifies each (target layer, layer) pair
    once, at its first use.  The check visits the layers of [main], then
    those of [obj], in {!Amg_layout.Lobj.layers} order, skips a layer that
    cannot constrain [s], and makes one {!Amg_layout.Lobj.exists_near}
    query per layer it visits, stopping at the first violation.  Exposed
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
    displacement, scanned through a {!digest} built once per placement
    and reused by every relaxation round until a shrink of the object
    replaces it.  Pre-alignment and the travel only add to the
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
  ?classes:classes ->
  ?shared:string list ->
  digest ->
  unit
(** [compact_readonly ~rules ~into:main (digest obj d)] leaves [main]
    exactly as [compact ~rules ~into:main (Lobj.copy obj) d] leaves it —
    the same shapes, ids, ports, arrays and diagnostics, or the same
    exception — without mutating [obj] or the digest and, in most
    placements, without copying [obj].  Read-only entry of the order
    search, whose step objects and digests are shared by every order and
    every domain: [obj] must be read-only ({!Amg_layout.Lobj.fill_caches})
    when domains share it, and must not be mutated while its digest
    lives.  [?classes] is the search's class table, [?shared] its shared
    nets: every net that the mover and a main of the search can both
    carry (see {!scan}).

    The same pipeline as {!compact}, with [obj] read through the mover's
    displacement.  The object is copied, once, only when the placement
    must mutate it or re-read it where it stands:
    - a variable edge of the mover shrinks (counted as
      [compact.mover_copies_shrink]);
    - auto-connection has partners to stretch towards the placed mover
      ([compact.mover_copies_connect]).
    Otherwise nothing of [obj] is written but its shapes' copies in
    [main].  A copy drops the digest: the placement's later scans read a
    digest of the copy.  The permissive retry along the opposite direction
    builds its own digest. *)

val pp_explain : Format.formatter -> unit -> unit
(** Render the [compact.place] marks recorded by the observability layer
    (see {!Amg_obs.Obs}) as a per-placement audit table: for every
    compacted object, the binding layer/rule/edge pair — or bbox abutment
    — that set its final position.  Requires instrumentation to have been
    enabled around the build. *)
