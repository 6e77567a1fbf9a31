(** Spatial index over integer-keyed rectangles.

    An interval-binned index for the candidate queries of the compactor,
    the design-rule checker and the extractor: each rectangle is entered
    into the bins its x-span and its y-span cover, and a window query
    gathers the bins of whichever axis covers fewer of them, then filters
    precisely.  Rectangles spanning very many bins on an axis go to that
    axis's overflow set instead, so degenerate geometry (full-width wells,
    supply rails) cannot blow up insertion or query cost.

    All operations are incremental: insert and remove touch only the bins
    of the affected rectangle ({!remove_batch} only the bins of its
    rectangles, each once), and translating the whole index is O(1) (a
    coordinate offset, not a re-binning).  Keys are arbitrary integers
    (shape ids, piece indices); the index never interprets them and keeps
    no key table, so [remove] takes the rectangle its caller entered.

    Each axis holds a plain array of bins over its occupied bin range
    (doubled toward the side a new entry falls outside), so memory grows
    with the extent of the layout in bins, not with the number of
    entries: at the default 4 µm cell, int32 coordinates need at most
    about a million bins per axis. *)

type t

val create : ?cell:int -> unit -> t
(** Fresh empty index.  [cell] is the bin pitch in the coordinate unit
    (default 4000, i.e. 4 µm for nanometre layouts). *)

val copy : t -> t
(** Independent copy; mutating either index never affects the other.
    One array copy per axis: the entry lists are shared. *)

val cardinal : t -> int

val insert : t -> int -> Rect.t -> unit
(** Enter a rectangle under the key, which must not be present (to move
    an entry, {!remove} it and insert the new rectangle). *)

val remove : t -> int -> Rect.t -> unit
(** [remove t key rect] removes the entry [key] entered with [rect] (in
    current world coordinates, i.e. translated along with the index).
    The key must be present with that rectangle. *)

val remove_batch : t -> (int * Rect.t) list -> gone:(int -> bool) -> unit
(** [remove_batch t entries ~gone] removes every [(key, rect)] entry at
    once, each as {!remove} would take it (the keys distinct and present
    with those rectangles); among the keys present, [gone] must hold for
    exactly those of [entries].  Every bin the entries cover is filtered
    once, its survivors keeping their order, so the index ends up
    exactly as a {!remove} per entry, in any order, leaves it — for
    O(entries + the covered bins' contents) instead of a bin walk per
    entry. *)

val clear : t -> unit
(** Remove every entry: the index ends up exactly as a {!remove} per
    entry leaves it (its offset included), for O(bins). *)

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
