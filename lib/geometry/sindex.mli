(** Spatial index over integer-keyed rectangles.

    An interval-binned index for the candidate queries of the compactor,
    the design-rule checker and the extractor: each rectangle is entered
    into the bins its x-span and its y-span cover, and a window query
    gathers the bins of whichever axis covers fewer of them, then filters
    precisely.  Rectangles spanning very many bins on an axis go to that
    axis's overflow set instead, so degenerate geometry (full-width wells,
    supply rails) cannot blow up insertion or query cost.

    All operations are incremental: insert, remove and update touch only
    the bins of the affected rectangle, and translating the whole index is
    O(1) (a coordinate offset, not a re-binning).  Keys are arbitrary
    integers (shape ids, piece indices); the index never interprets them. *)

type t

val create : ?cell:int -> unit -> t
(** Fresh empty index.  [cell] is the bin pitch in the coordinate unit
    (default 4000, i.e. 4 µm for nanometre layouts). *)

val copy : t -> t
(** Independent copy; mutating either index never affects the other. *)

val cardinal : t -> int

val mem : t -> int -> bool

val find : t -> int -> Rect.t option
(** The rectangle currently stored under the key. *)

val insert : t -> int -> Rect.t -> unit
(** Enter (or re-enter) a rectangle under the key; an existing entry with
    the same key is replaced. *)

val remove : t -> int -> unit
(** Remove the key; absent keys are ignored. *)

val translate_all : t -> dx:int -> dy:int -> unit
(** Shift every stored rectangle.  O(1): maintained as an offset. *)

val iter_query : t -> Rect.t -> margin:int -> (int -> unit) -> unit
(** [iter_query t window ~margin f] calls [f] on the key of every
    rectangle within [margin] of the window, i.e. whose closed rectangle
    intersects the window inflated by [margin] on all sides.  Each key is
    reported exactly once, in an unspecified order; nothing is allocated
    per candidate.  [f] must not mutate the index. *)

val query : t -> Rect.t -> margin:int -> int list
(** The keys {!iter_query} reports, in ascending order. *)

val iter : t -> (int -> Rect.t -> unit) -> unit

val bbox : t -> Rect.t option
(** Hull of every stored rectangle, or [None] when empty.  O(n). *)
