(** Pairwise compaction constraints.

    Distance is measured in the L∞ metric: a separation rule [sep] between
    two shapes is violated iff both their x-gap and y-gap are below [sep].
    Consequently a pair constrains movement along an axis only when the
    cross-axis projections, inflated by [sep], overlap ("shadowing"). *)

type relation =
  | Unconstrained
      (** may overlap freely (different layers without a spacing rule, or
          same potential on different layers, or an ignored layer) *)
  | Mergeable
      (** same potential, same layer: may abut or overlap — "edges on the
          same potential are not considered during compaction, because they
          can be merged" (§2.3) — but may not pass through each other *)
  | Separation of int  (** minimum L∞ distance in nm *)
[@@deriving show, eq]

val relation :
  Amg_tech.Rules.t ->
  ?ignore_layers:string list ->
  Amg_layout.Shape.t ->
  Amg_layout.Shape.t ->
  relation
(** Classify a pair under the given design rules.  [ignore_layers] is the
    compact call's "layers which are not relevant during this compaction
    step": their {e same-layer} spacing is waived (the geometries merge),
    while cross-layer rules always hold.  A rectangle fully containing the
    other on a different layer (cut-in-landing) is unconstrained. *)

type pair_class = { same_layer : bool; ignored : bool; space : int option }
(** The layer-level part of a pair's classification — everything that
    depends only on the two layers and the ignore list, not on the shapes.
    Scans hoist it out of their inner loops so the rule table is consulted
    once per (mover, layer) instead of once per candidate pair. *)

val classify :
  Amg_tech.Rules.t -> ?ignore_layers:string list -> string -> string -> pair_class
(** [classify rules la lb] for a mover on layer [la] against candidates on
    layer [lb].  Order matters for [ignored] ([ignore_layers] is tested
    against the mover's layer, matching {!relation}). *)

val relation_cls :
  pair_class -> Amg_layout.Shape.t -> Amg_layout.Shape.t -> relation
(** {!relation} with the layer-level work precomputed:
    [relation rules a b = relation_cls (classify rules a.layer b.layer) a b]. *)

val margin_cls : pair_class -> int
(** Margin for {!Amg_layout.Lobj.near} candidate queries on a classified
    layer pair: the pair's spacing rule, or 0.  Any pair of shapes farther
    apart than this on both axes is guaranteed not to constrain compaction
    (its {!relation} is [Unconstrained], or a separation it already
    satisfies out of shadow). *)

val shadows :
  axis:Amg_geometry.Dir.axis ->
  sep:int ->
  Amg_geometry.Rect.t ->
  Amg_geometry.Rect.t ->
  bool

type code [@@immediate]
(** A pair's {!relation} packed into an immediate value, so the
    compactor's inner loop classifies and bounds a pair without
    allocating. *)

val code_cls : pair_class -> Amg_layout.Shape.t -> Amg_layout.Shape.t -> code
(** The code of [relation_cls cls a b]. *)

val relation_of_code : code -> relation
val is_mergeable : code -> bool

val no_bound : int
(** The bound of a pair that does not constrain the move. *)

val bound_code :
  Amg_geometry.Dir.t -> code -> Amg_layout.Shape.t -> Amg_layout.Shape.t -> int
(** [bound_code d code a b]: signed translation bound that stationary shape
    [b] imposes on shape [a] moving in direction [d], given the pair's
    code, or {!no_bound} when the pair does not constrain the move (it is
    unconstrained, or out of the mover's shadow). *)
