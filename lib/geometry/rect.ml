type t = { x0 : int; y0 : int; x1 : int; y1 : int }
[@@deriving show { with_path = false }, eq, ord]

let make ~x0 ~y0 ~x1 ~y1 =
  { x0 = Int.min x0 x1; y0 = Int.min y0 y1; x1 = Int.max x0 x1; y1 = Int.max y0 y1 }

let of_size ~x ~y ~w ~h =
  if w < 0 || h < 0 then invalid_arg "Rect.of_size: negative size";
  { x0 = x; y0 = y; x1 = x + w; y1 = y + h }

let of_center ~cx ~cy ~w ~h =
  if w < 0 || h < 0 then invalid_arg "Rect.of_center: negative size";
  (* Keep integer coordinates: the caller is responsible for even sizes when
     exact centering matters. *)
  { x0 = cx - (w / 2); y0 = cy - (h / 2); x1 = cx - (w / 2) + w; y1 = cy - (h / 2) + h }

let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r
let center_x r = (r.x0 + r.x1) / 2
let center_y r = (r.y0 + r.y1) / 2
let is_degenerate r = r.x0 >= r.x1 || r.y0 >= r.y1

let x_span r = Interval.make r.x0 r.x1
let y_span r = Interval.make r.y0 r.y1

let span axis r =
  match (axis : Dir.axis) with Horizontal -> x_span r | Vertical -> y_span r

let side r (d : Dir.t) =
  match d with North -> r.y1 | South -> r.y0 | East -> r.x1 | West -> r.x0

let translate r ~dx ~dy =
  { x0 = r.x0 + dx; y0 = r.y0 + dy; x1 = r.x1 + dx; y1 = r.y1 + dy }

let inflate r d = make ~x0:(r.x0 - d) ~y0:(r.y0 - d) ~x1:(r.x1 + d) ~y1:(r.y1 + d)

let inflate_xy r ~dx ~dy =
  make ~x0:(r.x0 - dx) ~y0:(r.y0 - dy) ~x1:(r.x1 + dx) ~y1:(r.y1 + dy)

(* Move a single edge to absolute coordinate [pos]; normalises if crossed. *)
let with_side r (d : Dir.t) pos =
  match d with
  | North -> make ~x0:r.x0 ~y0:r.y0 ~x1:r.x1 ~y1:pos
  | South -> make ~x0:r.x0 ~y0:pos ~x1:r.x1 ~y1:r.y1
  | East -> make ~x0:r.x0 ~y0:r.y0 ~x1:pos ~y1:r.y1
  | West -> make ~x0:pos ~y0:r.y0 ~x1:r.x1 ~y1:r.y1

let grow_side r d amount = with_side r d (side r d + (Dir.sign d * amount))

let inter a b =
  let x0 = Int.max a.x0 b.x0
  and y0 = Int.max a.y0 b.y0
  and x1 = Int.min a.x1 b.x1
  and y1 = Int.min a.y1 b.y1 in
  if x0 < x1 && y0 < y1 then Some { x0; y0; x1; y1 } else None

let overlaps a b =
  (not (is_degenerate a))
  && (not (is_degenerate b))
  && a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

let touches a b = a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1

let contains_rect outer inner =
  outer.x0 <= inner.x0 && outer.y0 <= inner.y0 && inner.x1 <= outer.x1
  && inner.y1 <= outer.y1

let contains_point r ~x ~y = r.x0 <= x && x <= r.x1 && r.y0 <= y && y <= r.y1

let hull a b =
  { x0 = Int.min a.x0 b.x0;
    y0 = Int.min a.y0 b.y0;
    x1 = Int.max a.x1 b.x1;
    y1 = Int.max a.y1 b.y1 }

let hull_list = function
  | [] -> None
  | r :: rs -> Some (List.fold_left hull r rs)

(* Minimum axis-aligned separation between two non-overlapping rectangles
   along [axis], ignoring the other axis.  Negative when they overlap. *)
let gap axis a b =
  let ia = span axis a and ib = span axis b in
  Int.max (ib.Interval.lo - ia.Interval.hi) (ia.Interval.lo - ib.Interval.hi)

(* Subtract [b] from [a].  This is the kernel used by the latch-up rule check
   of the paper's Fig. 1: the residue is returned as up to four disjoint
   rectangles (bottom strip, top strip, left and right middle pieces), which
   covers all 16 horizontal x vertical overlap cases. *)
let subtract a b =
  match inter a b with
  | None -> [ a ]
  | Some i ->
      let pieces = ref [] in
      let add x0 y0 x1 y1 =
        if x0 < x1 && y0 < y1 then pieces := { x0; y0; x1; y1 } :: !pieces
      in
      add a.x0 a.y0 a.x1 i.y0;   (* bottom strip *)
      add a.x0 i.y1 a.x1 a.y1;   (* top strip *)
      add a.x0 i.y0 i.x0 i.y1;   (* left middle *)
      add i.x1 i.y0 a.x1 i.y1;   (* right middle *)
      List.rev !pieces

(* The Fig. 1 classification: how does [b] overlap [a], per axis. *)
let overlap_case a b =
  ( Interval.classify ~of_:(x_span b) ~over:(x_span a),
    Interval.classify ~of_:(y_span b) ~over:(y_span a) )

let pp_um ppf r =
  Fmt.pf ppf "[%g,%g - %g,%g]um" (Units.to_um r.x0) (Units.to_um r.y0)
    (Units.to_um r.x1) (Units.to_um r.y1)
