(** Axis-aligned integer rectangles.

    The layout database stores only rectangles ("polygons are converted into
    simple rectangular structures", §2.1).  Coordinates are nanometres;
    rectangles are normalised so [x0 <= x1] and [y0 <= y1]. *)

type t = { x0 : int; y0 : int; x1 : int; y1 : int } [@@deriving show, eq, ord]

val make : x0:int -> y0:int -> x1:int -> y1:int -> t
(** Normalising constructor. *)

val of_size : x:int -> y:int -> w:int -> h:int -> t
(** Lower-left corner plus size. @raise Invalid_argument on negative size. *)

val of_center : cx:int -> cy:int -> w:int -> h:int -> t
(** Centred rectangle (integer division; use even sizes for exactness).
    @raise Invalid_argument on negative size. *)

val width : t -> int
val height : t -> int
val area : t -> int
val center_x : t -> int
val center_y : t -> int

val is_degenerate : t -> bool
(** True when the rectangle has zero width or height. *)

val x_span : t -> Interval.t
val y_span : t -> Interval.t

val span : Dir.axis -> t -> Interval.t
(** Extent along the given axis. *)

val side : t -> Dir.t -> int
(** Coordinate of the given edge. *)

val translate : t -> dx:int -> dy:int -> t

val inflate : t -> int -> t
(** Grow by [d] on every side (negative [d] shrinks; result normalised). *)

val inflate_xy : t -> dx:int -> dy:int -> t

val with_side : t -> Dir.t -> int -> t
(** Move one edge to an absolute coordinate (normalises if edges cross). *)

val grow_side : t -> Dir.t -> int -> t
(** Move one edge outward by [amount] (inward when negative). *)

val inter : t -> t -> t option
(** Intersection with non-empty interior, or [None]. *)

val overlaps : t -> t -> bool
(** Interiors intersect; sharing only an edge does not count. *)

val touches : t -> t -> bool
(** Closed rectangles intersect; sharing an edge or corner counts. *)

val contains_rect : t -> t -> bool
(** [contains_rect outer inner]. *)

val contains_point : t -> x:int -> y:int -> bool

val hull : t -> t -> t
(** Smallest rectangle containing both. *)

val hull_list : t list -> t option

val gap : Dir.axis -> t -> t -> int
(** Separation along [axis] between the two rectangles' projections;
    negative when the projections overlap. *)

val subtract : t -> t -> t list
(** [subtract a b] is the part of [a] not covered by [b], as up to four
    disjoint rectangles.  This is the successive-subtraction kernel of the
    paper's Fig. 1 latch-up check and handles all 16 overlap cases. *)

val overlap_case : t -> t -> Interval.overlap * Interval.overlap
(** Per-axis classification of how the second rectangle overlaps the first
    (the horizontal and vertical cases of Fig. 1). *)

val pp_um : Format.formatter -> t -> unit
(** Prints corners in micrometres. *)
