(* Orthogonal wire paths: a polyline of points rendered as overlapping
   rectangles of a given width, with square corners — the generalisation of
   the paper's angle adaptor to multi-bend wires. *)

module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape

type point = int * int

(* Rectangle covering the segment from [a] to [b] with the given width;
   both end squares are included so consecutive segments overlap at the
   corner.  @raise Invalid_argument on diagonal segments. *)
let segment_rect ~width (ax, ay) (bx, by) =
  let h = width / 2 in
  if ax = bx then
    Rect.make ~x0:(ax - h) ~y0:(Int.min ay by - h) ~x1:(ax - h + width)
      ~y1:(Int.max ay by + (width - h))
  else if ay = by then
    Rect.make ~x0:(Int.min ax bx - h) ~y0:(ay - h) ~x1:(Int.max ax bx + (width - h))
      ~y1:(ay - h + width)
  else invalid_arg "Path.segment_rect: diagonal segment"

let rects ~width = function
  | [] | [ _ ] -> []
  | points ->
      let rec go acc = function
        | a :: (b :: _ as rest) -> go (segment_rect ~width a b :: acc) rest
        | [ _ ] | [] -> List.rev acc
      in
      go [] points

let draw obj ~layer ~width ?net points =
  List.map
    (fun rect -> Lobj.add_shape obj ~layer ~rect ?net ())
    (rects ~width points)

(* Total wire length of the polyline (centre-line). *)
let length points =
  let rec go acc = function
    | (ax, ay) :: ((bx, by) :: _ as rest) ->
        go (acc + abs (bx - ax) + abs (by - ay)) rest
    | [ _ ] | [] -> acc
  in
  go 0 points
