(** Orthogonal wire paths.

    A polyline of centre-line points rendered as overlapping rectangles of a
    given width with square corners — the multi-bend generalisation of the
    paper's angle adaptor. *)

type point = int * int

val segment_rect : width:int -> point -> point -> Amg_geometry.Rect.t
(** Rectangle covering one axis-aligned segment, end squares included.
    @raise Invalid_argument on diagonal segments. *)

val rects : width:int -> point list -> Amg_geometry.Rect.t list

val draw :
  Amg_layout.Lobj.t ->
  layer:string ->
  width:int ->
  ?net:string ->
  point list ->
  Amg_layout.Shape.t list
(** Add the path's rectangles to the object. *)

val length : point list -> int
(** Centre-line length. *)
