(** Layout objects — the paper's "objects".

    A layout object is the mutable data structure a module generator builds:
    shapes, named ports, and registered cut arrays whose members are derived
    from container shapes.  Complex modules are constructed by compacting
    objects one at a time into a growing main object (§2.3).

    Shapes are held in an indexed store: an id table gives O(1)
    {!find}/{!replace}/{!remove}, a per-layer spatial index backs the
    {!near} candidate query, and the bounding boxes of {!bbox}/{!bbox_on}
    are cached incrementally (extended on growth, invalidated on removal or
    shrinking, shifted on translation) instead of being re-hulled per call.
    Iteration order everywhere remains insertion order.

    A registered array's cuts are held as one block ({!Cut_arrays}): the
    memo's cut rectangles, a displacement and a base id, in one place of
    the insertion order.  {!rederive} and {!absorb} write blocks, not
    shape records; a block becomes records, in this object's own store,
    at the first operation that needs them: a flush of its layer's index
    (below), {!find} of one of its ids, a read of the shapes ({!shapes},
    {!shapes_by_layer}, {!fill_caches}, {!pp} and every writer built on
    them), a single-cut {!replace} or {!remove}, or {!transform}.  No
    observable depends on when that happens: ids, order, queries, hulls
    and counts are those of the records.

    A layer's spatial index is built lazily.  Entering a shape
    ({!add_shape}, {!absorb}, {!rederive}'s cuts) leaves it pending; the
    first query of the layer ({!near}, {!iter_near}, {!iter_near_layer},
    {!shapes_on}) and every mutation that rewrites its index
    ({!replace}, {!remove}, {!transform}, {!fill_caches}) enter its
    pending shapes first, in insertion order, so the index ends
    up exactly as eager insertion would have built it (after
    {!release_indexes}, as entering every shape afresh in insertion order
    would); {!translate} moves pending shapes with the rest, a recompute
    of the layer's hull reads them where they stand, and {!rederive}
    takes a pending member out without entering it.  Counts ({!layers},
    {!keep_clear_on}, {!shape_count}) never wait for the index. *)

type t

val create : string -> t
val name : t -> string
val set_name : t -> string -> unit

val add_shape :
  t ->
  layer:string ->
  rect:Amg_geometry.Rect.t ->
  ?net:string ->
  ?sides:Edge.sides ->
  ?keep_clear:bool ->
  ?origin:Shape.origin ->
  unit ->
  Shape.t
(** Appends a shape with a fresh id and returns it. *)

val shapes : t -> Shape.t list
(** In insertion order (drawing order). *)

val user_shapes : t -> Shape.t list
(** The shapes of {!shapes} that a generator placed ([User] origin), in
    insertion order.  Expands no cut array: every cut is a member. *)

val shape_count : t -> int

val id_bound : t -> int
(** The id the next added shape gets.  {!absorb} advances the target's
    bound by the source's, so it shapes the ids of everything absorbed
    later. *)

val find : t -> int -> Shape.t option
(** [None] for an id with no shape: removed, never handed out, or
    negative. *)

val find_exn : t -> int -> Shape.t

val replace : t -> Shape.t -> unit
(** Replace the shape with the same id.
    @raise Invalid_argument when the id is absent. *)

val remove : t -> int -> unit

val shapes_on : t -> string -> Shape.t list

val near : t -> layer:string -> Amg_geometry.Rect.t -> margin:int -> Shape.t list
(** Candidate query: every shape on [layer] whose closed rectangle
    intersects the window inflated by [margin] on all sides, in insertion
    order.  Served by the per-layer spatial index, so the cost is
    proportional to the candidates, not to the object.  Callers derive
    [margin] from the technology's spacing rule for the layer pair at hand
    (see {!Amg_tech.Rules.space_or_zero}); the result is a superset of the
    shapes any rule of that range can relate to the window. *)

val iter_near :
  t -> layer:string -> Amg_geometry.Rect.t -> margin:int -> (Shape.t -> unit) -> unit
(** The shapes {!near} returns, visited once each in an unspecified order,
    without building a list.  [f] must not mutate the object. *)

type layer
(** A handle on one layer of an object, from {!fold_layers}: it reaches
    the layer's index without a lookup by name.  It stays valid until the
    object's next {!transform}. *)

val fold_layers : t -> ('a -> string -> layer -> Amg_geometry.Rect.t -> int -> 'a) -> 'a -> 'a
(** [fold_layers t f acc] folds [f acc name handle hull keep_clear] over
    the layers of {!layers}, in that order: each layer's name, handle,
    hull ({!bbox_on}) and keep-clear count ({!keep_clear_on}). *)

val iter_near_layer :
  t -> layer -> Amg_geometry.Rect.t -> margin:int -> (Shape.t -> unit) -> unit
(** {!iter_near} on the layer of a handle of [t]. *)

val shapes_by_layer : t -> (string * Shape.t array) array
(** Each layer of {!layers}, in that order, with its shapes in insertion
    order: {!shapes} split by layer in one pass over the store. *)

val indexed : t -> string -> int
(** Entries the layer's spatial index holds right now: the layer's shape
    count once a query brought it up to date, fewer while shapes are
    pending.  For tests and instrumentation. *)

val keep_clear_on : t -> string -> int
(** Number of keep-clear shapes on the layer (0 for an absent layer).
    Maintained incrementally by every store mutation, {!copy} and
    {!absorb}. *)

val shapes_on_net : t -> string -> Shape.t list
val rects : t -> Amg_geometry.Rect.t list
val rects_on : t -> string -> Amg_geometry.Rect.t list

(** {2 Hulls}

    The hull reads ({!bbox}, {!bbox_exn}, {!bbox_area}, {!bbox_on},
    {!fold_layers}), the index queries ({!near}, {!iter_near},
    {!iter_near_layer}, {!shapes_on}, {!rects_on}) and the reads that
    expand cut blocks (above) are the only reads that may write: a hull
    cache that a mutation left dirty is filled on the first read after
    it, a query brings its layer's index up to date, and a block becomes
    records.  Every other read leaves the object as it is.  Two domains
    may therefore read one object at once only after {!fill_caches},
    and while nobody mutates it. *)

val bbox : t -> Amg_geometry.Rect.t option
val bbox_exn : t -> Amg_geometry.Rect.t
val bbox_on : t -> string -> Amg_geometry.Rect.t option

val bbox_area : t -> int
(** Area of the bounding box — the optimizer's primary rating term. *)

val fill_caches : t -> unit
(** Bring every layer's index up to date and fill every hull cache, so
    that until the next mutation every read of the object, hulls and
    queries included, only reads: the object is read-only and may be
    shared.  Done once for an object that placements on several domains
    share (a search step's). *)

val release_indexes : t -> unit
(** Empty every layer's spatial index and leave all its shapes pending,
    as if none had been queried yet; hull caches stay as they are.  The
    next query of a layer rebuilds its index in insertion order, as
    {!transform} does.  For an object whose index nobody will read again
    (a search step's: placements read it through its digest and copy it
    before any query).  Afterwards a query writes, so an object shared
    by several domains must not be queried. *)

val union_area : t -> int
(** Exact union area of all shapes. *)

val layers : t -> string list
(** Layers present, in first-use order. *)

val nets : t -> string list

val translate : t -> dx:int -> dy:int -> unit
val transform : t -> Amg_geometry.Transform.t -> unit

val copy : ?name:string -> t -> t
(** Structural copy — the paper's ["trans2 = trans1"] object copy (§2.5).
    Immutable shape/port/array values are shared (the arrays' derivation
    memos of {!rederive} and their cut blocks included: none is copied),
    but every mutable part of the store (cells, id table, spatial
    indexes, caches) is duplicated, so mutating either object never
    affects the other.  Costs O(cells) and never expands a block: a
    block the copy expands later becomes records in the copy alone, and
    the source is left as it was.  Not a deep copy of the shape values
    themselves — they never mutate.  Copying is also how a build rolls
    back: the language's [CHOOSE] keeps a copy and reinstates it when a
    branch is rejected. *)

val add_port :
  t -> name:string -> net:string -> layer:string -> rect:Amg_geometry.Rect.t -> Port.t

val ports : t -> Port.t list
val port : t -> string -> Port.t option
val port_exn : t -> string -> Port.t
val remove_port : t -> string -> unit

val rename_net : t -> from_:string -> to_:string -> unit
(** Connect a sub-module's formal net to an actual net of the parent. *)

val qualify_nets : t -> string -> unit
(** Prefix every net with ["prefix."] to make instance-local names. *)

type array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

val register_array :
  t -> cut_layer:string -> container_ids:int list -> ?net:string -> unit -> int
(** Declare a derived cut array bounded by the given container shapes;
    returns the array id.  Members carry [Shape.Array_member id]. *)

val array_specs : t -> (int * array_spec) list

val arrays_of_container : t -> int -> int list
(** Ids of the registered arrays using shape [id] as a container. *)

val array_member_count : t -> int -> int
(** Current number of members of the given array: a pass over the
    store. *)

val starved_array : t -> container:int -> bool
(** Whether some registered array with shape [container] among its
    containers got no cut at the object's last {!rederive}: read from the
    arrays' memos (below), without a pass over the store.  An array that
    no {!rederive} has derived yet counts its members instead.  The
    variable-edge shrink's rollback check, right after a rederive. *)

val array_cut_layers_of_container : t -> int -> string list
(** Cut layers of every registered array that uses shape [id] as a
    container; non-empty means variable-edge shrinking must preserve the
    one-cut minimum extent. *)

val rederive : t -> Amg_tech.Rules.t -> unit
(** Recompute all array members from the current container rectangles —
    the automatic rebuild of §2.3.  Every member of a registered array
    leaves the object; then each array, in registration order, gets its
    cuts, and the cuts enter at the end of the object with fresh ids
    taken in that order, each array's as one pending block.  The result
    is exactly what removing each array's members and {!add_shape}-ing
    its cuts, array by array, would leave: the same ids, {!id_bound},
    shape order and index contents.  A container must be a live shape
    that is not itself an array member.

    Each registered array keeps a memo of its last derivation: the rules
    (compared physically), its containers' layers and rects, and its
    cuts.  An array whose rules and containers still match its memo is
    not derived again ([Derive.cut_array] runs only for the others, each
    run counted as [lobj.cut_array_derivations]); its cuts re-enter from
    the memo, sharing their rects and one origin value.  The memos live
    in immutable array entries: {!copy} shares them, and every mutation
    that moves a container is caught by the comparison, so no mutation
    has to invalidate one.  The members are found from the registry,
    without a pass over the store.  Cost: O(arrays) plus the members of
    expanded blocks and the derivations of the arrays whose containers
    changed. *)

val absorb : ?dx:int -> ?dy:int -> t -> t -> int
(** [absorb ~dx ~dy t src] appends [src]'s shapes, ports and arrays into
    [t], renumbering ids and displacing them by [(dx, dy)] (default
    [(0, 0)]); returns the id offset applied to [src]'s ids.  [src] is
    only read: each of its shapes is written into [t] once, with its final
    id and final position, so [absorb ~dx ~dy t src] leaves [t] exactly as
    translating a copy of [src] by [(dx, dy)] and absorbing that would.
    The shapes are entered as one batch: one layer lookup per run of
    same-layer shapes, and each hull extended once.  A shape costs its
    record, its cell and, when displaced, its rect; each of [src]'s cut
    blocks, pending or expanded, enters as one pending block (a record
    and a cell), so an array costs O(1) however many cuts it has.  The
    arrays keep their memos (a displaced array's no longer match, and it
    is derived afresh at [t]'s next {!rederive}); [t]'s own registry is
    not copied. *)

val pp : Format.formatter -> t -> unit

val check : t -> unit
(** Verify the store's invariants: the cut-array registry's
    ({!Cut_arrays.check}), the id table, the used and live counts, each
    layer's counts, and that each layer's index holds exactly its shapes
    below its first pending slot, with every pending block of the layer
    at or past it.  For tests.
    @raise Failure naming the first violation. *)
