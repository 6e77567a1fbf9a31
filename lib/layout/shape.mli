(** Layout shapes: a rectangle on a layer with electrical and compaction
    properties.

    Every shape optionally belongs to a net (the paper's "potential") —
    same-net edges are ignored and merged by the compactor.  [keep_clear]
    is the paper's "special property … [to] avoid undesired overlaps
    (parasitic capacitances)": the compactor never lets other shapes overlap
    a keep-clear shape even when no spacing rule exists between the layers. *)

type origin =
  | User                 (** placed by a generator *)
  | Array_member of int  (** derived member of cut array [id]; rebuilt
                             automatically after variable-edge movement *)
[@@deriving show, eq, ord]

type t = {
  id : int;
  layer : string;
  rect : Amg_geometry.Rect.t;
  net : string option;
  sides : Edge.sides;
  keep_clear : bool;
  origin : origin;
}
[@@deriving show, eq, ord]

val make :
  id:int ->
  layer:string ->
  rect:Amg_geometry.Rect.t ->
  ?net:string ->
  ?sides:Edge.sides ->
  ?keep_clear:bool ->
  ?origin:origin ->
  unit ->
  t

val with_rect : t -> Amg_geometry.Rect.t -> t
val with_net : t -> string option -> t

val translate : t -> dx:int -> dy:int -> t

val same_net : t -> t -> bool
(** True iff both shapes have a net and the nets are equal. *)

val on_layer : t -> string -> bool

val orient_sides : Amg_geometry.Transform.orientation -> Edge.sides -> Edge.sides
(** Re-map per-edge freedoms under an orientation, so a mirrored shape keeps
    its variable edges on the matching geometric sides. *)

val transform : t -> Amg_geometry.Transform.t -> t
(** Transform geometry and edge properties together. *)
