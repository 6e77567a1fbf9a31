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
    about a million bins per axis.

    A window query gathers the bins of the axis that covers fewer of them,
    so it reports its keys in no useful order.  {!walk} instead walks the
    bins of one axis in one direction: a caller that bounds a travel along
    that axis (the compactor's candidate pass) meets the entries whose
    facing edges come first along the walk first, and stops as soon as the
    bound it is told no entry left can beat is already beaten. *)

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

val exists_query : t -> Rect.t -> margin:int -> (int -> bool) -> bool
(** [exists_query t window ~margin p]: whether [p] holds for some key
    {!iter_query} reports.  The keys are visited as {!iter_query} visits
    them, and the scan stops at the first one [p] holds for, so [p] may
    not see every key.  Either way it is one query: one fault-injection
    probe, and one count of [sindex.queries] with the entries scanned and
    hit up to the stop.  [p] must not mutate the index. *)

val walk :
  t -> Rect.t -> margin:int -> Dir.t -> go:(int -> bool) -> (int -> unit) -> bool
(** [walk t window ~margin d ~go f]: the bound-ordered {!iter_query}.  It
    reports the keys {!iter_query} reports, each at most once, walking
    the bins of [d]'s axis in direction [d] — from the window's high end
    down for [South]/[West], from its low end up for [North]/[East].  An
    entry's {e facing edge} is the side it turns toward the walk's start:
    its high edge walking down, its low edge walking up.  Entries
    spanning too many bins on the axis to be binned are reported first;
    every other entry at the first bin walked, or else at the bin holding
    its facing edge.  Before each bin but the first, the walk calls [go e]
    with a bound [e] (world coordinates) on the facing edge of every entry
    not reported yet: walking down, none has its high edge above [e];
    walking up, none has its low edge below [e].  When [go e] is [false]
    the walk stops there and returns [false]; otherwise it reports every
    key and returns [true].  Nothing is allocated per candidate, and [f]
    and [go] must not mutate the index. *)

val query : t -> Rect.t -> margin:int -> int list
(** The keys {!iter_query} reports, in ascending order. *)

val iter : t -> (int -> Rect.t -> unit) -> unit

val bbox : t -> Rect.t option
(** Hull of every stored rectangle, or [None] when empty.  O(n). *)
