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
    Iteration order everywhere remains insertion order. *)

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

val keep_clear_on : t -> string -> int
(** Number of keep-clear shapes on the layer (0 for an absent layer).
    Maintained incrementally by every store mutation, journal undo,
    {!copy} and {!absorb}. *)

val shapes_on_net : t -> string -> Shape.t list
val rects : t -> Amg_geometry.Rect.t list
val rects_on : t -> string -> Amg_geometry.Rect.t list

val bbox : t -> Amg_geometry.Rect.t option
val bbox_exn : t -> Amg_geometry.Rect.t
val bbox_on : t -> string -> Amg_geometry.Rect.t option

val bbox_area : t -> int
(** Area of the bounding box — the optimizer's primary rating term. *)

val union_area : t -> int
(** Exact union area of all shapes. *)

val layers : t -> string list
(** Layers present, in first-use order. *)

val nets : t -> string list

val translate : t -> dx:int -> dy:int -> unit
val transform : t -> Amg_geometry.Transform.t -> unit

val copy : ?name:string -> t -> t
(** Structural copy — the paper's ["trans2 = trans1"] object copy (§2.5).
    Immutable shape/port/array values are shared, but every mutable part of
    the store (slots, id table, spatial indexes, caches) is duplicated, so
    mutating either object never affects the other.  Not a deep copy of the
    shape values themselves — they never mutate.  The copy starts with a
    fresh (empty) snapshot history. *)

(** {2 Snapshot / restore}

    A snapshot marks a point in the object's mutation history; [restore]
    rewinds the object to it byte-for-byte.  Taking one is O(1): while at
    least one snapshot is live, every store mutation (shape enter, remove,
    replace, translate) pushes its inverse onto a delta log, and the scalar
    fields (name, ports, arrays, ids, layer order) are captured as shared
    immutable values.  Restoring costs O(mutations since the snapshot) and
    may be repeated — the engine behind backtracking and the optimizer's
    incremental search (see DESIGN.md §10).

    Discipline: snapshots are released LIFO ({!with_snapshot} enforces it);
    while any snapshot is live the whole-object rewrites {!transform},
    {!rename_net} and {!qualify_nets} raise [Invalid_argument] — they are
    not journalable. *)

type snapshot

val snapshot : t -> snapshot
(** O(1); starts journaling if this is the first live snapshot. *)

val restore : t -> snapshot -> unit
(** Rewind to the snapshot point.  The layout — shapes, ports, arrays,
    indexes, ids, name — is byte-identical to the state at {!snapshot}
    time; bounding-box caches are re-derived lazily.  The snapshot stays
    valid, so a search can restore to the same point repeatedly.
    @raise Invalid_argument on another object's or a released snapshot. *)

val release : t -> snapshot -> unit
(** Drop the snapshot (idempotent).  When the last live snapshot goes, the
    delta log is discarded.  Restoring to an *older* still-live snapshot
    invalidates younger ones — release youngest-first. *)

val with_snapshot : t -> (unit -> 'a) -> 'a
(** [with_snapshot t f] runs [f] under a fresh snapshot, restores on any
    exception, and releases the snapshot either way. *)

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
(** Current number of members of the given array. *)

val array_cut_layers_of_container : t -> int -> string list
(** Cut layers of every registered array that uses shape [id] as a
    container; non-empty means variable-edge shrinking must preserve the
    one-cut minimum extent. *)

val rederive : t -> Amg_tech.Rules.t -> unit
(** Recompute all array members from the current container rectangles —
    the automatic rebuild of §2.3. *)

val absorb : t -> t -> int
(** [absorb t src] appends [src]'s shapes, ports and arrays into [t],
    renumbering ids; returns the id offset applied to [src]'s ids.  The
    shapes are entered as one batch: one journal record, one layer lookup
    per run of same-layer shapes, and each hull extended once. *)

val pp : Format.formatter -> t -> unit
