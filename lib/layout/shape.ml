module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Transform = Amg_geometry.Transform

type origin = User | Array_member of int
[@@deriving show { with_path = false }, eq, ord]

type t = {
  id : int;
  layer : string;
  rect : Rect.t;
  net : string option;
  sides : Edge.sides;
  keep_clear : bool;
  origin : origin;
}
[@@deriving show { with_path = false }, eq, ord]

let make ~id ~layer ~rect ?net ?(sides = Edge.all_fixed) ?(keep_clear = false)
    ?(origin = User) () =
  { id; layer; rect; net; sides; keep_clear; origin }

let with_rect s rect = { s with rect }

let with_net s net = { s with net }

let translate s ~dx ~dy = { s with rect = Rect.translate s.rect ~dx ~dy }

let same_net a b =
  match (a.net, b.net) with
  | Some na, Some nb -> String.equal na nb
  | _ -> false

let on_layer s layer = String.equal s.layer layer

(* Orient the per-edge freedoms together with the geometry so that a mirrored
   shape keeps its variable edges on the geometrically matching sides. *)
let orient_sides (orient : Transform.orientation) (sides : Edge.sides) =
  let moved d =
    (* Where does direction d land under the orientation? *)
    let x, y =
      Transform.orient_point orient
        (match (d : Dir.t) with
        | North -> (0, 1)
        | South -> (0, -1)
        | East -> (1, 0)
        | West -> (-1, 0))
    in
    match (x, y) with
    | 0, 1 -> Dir.North
    | 0, -1 -> Dir.South
    | 1, 0 -> Dir.East
    | -1, 0 -> Dir.West
    | _ -> assert false
  in
  List.fold_left
    (fun acc d -> Edge.set acc (moved d) (Edge.get sides d))
    Edge.all_fixed Dir.all

let transform s (tr : Transform.t) =
  {
    s with
    rect = Transform.rect tr s.rect;
    sides = orient_sides tr.Transform.orient s.sides;
  }
