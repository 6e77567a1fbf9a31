(** Primitive shape functions (§2.2).

    These are the paper's geometry primitives: they place geometry
    {e relatively}, evaluate the design rules automatically, and expand
    surrounding geometry when a new rectangle does not fit, so that module
    descriptions never mention absolute coordinates. *)

val containers : Env.t -> Amg_layout.Lobj.t -> Amg_layout.Shape.t list
(** Shapes eligible to contain new geometry: user-placed, non-cut,
    non-marker. *)

val inbox :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer:string ->
  ?w:int ->
  ?l:int ->
  ?net:string ->
  ?sides:Amg_layout.Edge.sides ->
  ?keep_clear:bool ->
  unit ->
  Amg_layout.Shape.t
(** The paper's [INBOX(layer, W, L)].  [w] is the vertical, [l] the
    horizontal size; an omitted size defaults to the design-rule minimum
    (first rectangle) or fills the available window (subsequent
    rectangles).  When the rectangle cannot be placed inside the existing
    structure "all outer rectangles are expanded".
    @raise Env.Rejected when a requested size is below the minimum width or
    no placement exists. *)

val array :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer:string ->
  ?net:string ->
  ?within:Amg_layout.Shape.t list ->
  unit ->
  int
(** The paper's [ARRAY(cut_layer)]: registers a derived, equidistant cut
    array inside the containers ([within] overrides the default container
    set), expanding the outer geometries until at least one cut fits.
    Returns the array id; members are rebuilt automatically on any
    container change.
    @raise Env.Rejected when no containers exist or expansion fails. *)

type gate_orient = [ `Vertical | `Horizontal ]

val tworects :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer_a:string ->
  layer_b:string ->
  w:int ->
  l:int ->
  ?net_a:string ->
  ?net_b:string ->
  ?orient:gate_orient ->
  unit ->
  Amg_layout.Shape.t * Amg_layout.Shape.t
(** The paper's [TWORECTS(a, b, W, L)]: two overlapping rectangles forming
    a transistor — gate stripe on [layer_a] crossing an active rectangle on
    [layer_b], with end-cap and source/drain extensions taken from the
    design rules.  [w] is the channel width, [l] the channel length. *)

val around :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer:string ->
  ?margin:int ->
  ?net:string ->
  unit ->
  Amg_layout.Shape.t
(** "Placing a rectangle around a structure": the bounding box inflated by
    [margin] (default: the largest automatic enclosure margin of the ring
    layer over any contained layer — e.g. an n-well placed around p-diffusion
    gets the well-enclosure margin). *)

val ring :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer:string ->
  ?width:int ->
  ?margin:int ->
  ?net:string ->
  unit ->
  Amg_layout.Shape.t list
(** "Placing a ring around a structure": four rectangles forming a closed
    frame of the given [width] (default minimum width), cleared from the
    structure by [margin] (default: the largest spacing rule between the
    ring layer and any contained layer). *)

val angle :
  Env.t ->
  Amg_layout.Lobj.t ->
  layer:string ->
  width:int ->
  corner:int * int ->
  leg1:Amg_geometry.Dir.t * int ->
  leg2:Amg_geometry.Dir.t * int ->
  ?net:string ->
  unit ->
  Amg_layout.Shape.t * Amg_layout.Shape.t
(** "Producing an angle adaptor for wiring purposes": an L-bend of two
    overlapping rectangles sharing the corner square centred at [corner].
    @raise Env.Rejected when the legs are parallel. *)

val raw :
  Amg_layout.Lobj.t ->
  layer:string ->
  rect:Amg_geometry.Rect.t ->
  ?net:string ->
  ?sides:Amg_layout.Edge.sides ->
  ?keep_clear:bool ->
  unit ->
  Amg_layout.Shape.t
(** Escape hatch: place a rectangle at absolute coordinates.  Used by the
    capacitor generators for their plates and plate wiring. *)
