(* Unit and property tests for the geometry substrate, including the
   exhaustive 16-case overlap test of the paper's Fig. 1. *)

module Units = Amg_geometry.Units
module Dir = Amg_geometry.Dir
module Interval = Amg_geometry.Interval
module Rect = Amg_geometry.Rect
module Region = Amg_geometry.Region
module Transform = Amg_geometry.Transform

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- units --- *)

let test_units () =
  check "um to nm" 1500 (Units.of_um 1.5);
  check "rounding" 1001 (Units.of_um 1.0005);
  Alcotest.(check (float 1e-9)) "roundtrip" 2.5 (Units.to_um (Units.of_um 2.5));
  check "snap up" 150 (Units.snap_up ~grid:50 101);
  check "snap up exact" 100 (Units.snap_up ~grid:50 100);
  check "snap down" 100 (Units.snap_down ~grid:50 149);
  check "snap up negative" (-100) (Units.snap_up ~grid:50 (-101));
  check "snap down negative" (-150) (Units.snap_down ~grid:50 (-101));
  Alcotest.check_raises "bad grid" (Invalid_argument "Units.snap_up: grid must be positive")
    (fun () -> ignore (Units.snap_up ~grid:0 1))

(* --- directions --- *)

let test_dir () =
  check_bool "axis north" true (Dir.axis Dir.North = Dir.Vertical);
  check_bool "axis west" true (Dir.axis Dir.West = Dir.Horizontal);
  List.iter
    (fun d ->
      check_bool "opposite involutive" true (Dir.opposite (Dir.opposite d) = d);
      check "sign opposite" (-Dir.sign d) (Dir.sign (Dir.opposite d));
      check_bool "cross axis differs" true (Dir.cross_axis d <> Dir.axis d);
      check_bool "of_string/to_string" true (Dir.of_string (Dir.to_string d) = Some d))
    Dir.all;
  check_bool "parse aliases" true (Dir.of_string "left" = Some Dir.West);
  check_bool "parse bad" true (Dir.of_string "diagonal" = None)

(* --- intervals --- *)

let test_interval_classify () =
  let over = Interval.make 0 10 in
  let cases =
    [
      (Interval.make 20 30, Interval.Disjoint);
      (Interval.make (-5) 15, Interval.Covers);
      (Interval.make 0 10, Interval.Covers);
      (Interval.make (-5) 5, Interval.Low_end);
      (Interval.make 5 15, Interval.High_end);
      (Interval.make 3 7, Interval.Inside);
      (Interval.make 10 20, Interval.Disjoint);  (* only touching *)
    ]
  in
  List.iter
    (fun (of_, expected) ->
      Alcotest.check
        (Alcotest.testable Interval.pp_overlap Interval.equal_overlap)
        "classify" expected
        (Interval.classify ~of_ ~over))
    cases

let test_interval_subtract () =
  let a = Interval.make 0 10 in
  let total = List.fold_left (fun acc i -> acc + Interval.length i) 0 in
  check "disjoint" 10 (total (Interval.subtract a (Interval.make 20 30)));
  check "covered" 0 (total (Interval.subtract a (Interval.make (-1) 11)));
  check "low end" 5 (total (Interval.subtract a (Interval.make (-5) 5)));
  check "high end" 4 (total (Interval.subtract a (Interval.make 4 20)));
  check "inside" 6 (total (Interval.subtract a (Interval.make 3 7)));
  check "inside pieces" 2 (List.length (Interval.subtract a (Interval.make 3 7)))

(* --- rectangles --- *)

let r ~x0 ~y0 ~x1 ~y1 = Rect.make ~x0 ~y0 ~x1 ~y1

let test_rect_basics () =
  let a = r ~x0:10 ~y0:0 ~x1:0 ~y1:20 in
  check "normalised x0" 0 a.Rect.x0;
  check "width" 10 (Rect.width a);
  check "area" 200 (Rect.area a);
  check "side north" 20 (Rect.side a Dir.North);
  check "side west" 0 (Rect.side a Dir.West);
  let b = Rect.of_size ~x:5 ~y:5 ~w:10 ~h:10 in
  check_bool "overlaps" true (Rect.overlaps a b);
  check_bool "touch not overlap" false
    (Rect.overlaps a (r ~x0:10 ~y0:0 ~x1:20 ~y1:20));
  check_bool "touches abutting" true (Rect.touches a (r ~x0:10 ~y0:0 ~x1:20 ~y1:20));
  check_bool "contains" true (Rect.contains_rect a (r ~x0:2 ~y0:2 ~x1:8 ~y1:8));
  check_bool "not contains" false (Rect.contains_rect a (r ~x0:2 ~y0:2 ~x1:18 ~y1:8));
  check "gap positive" 5 (Rect.gap Dir.Horizontal a (r ~x0:15 ~y0:0 ~x1:20 ~y1:5));
  check_bool "gap negative when overlapping" true
    (Rect.gap Dir.Horizontal a b < 0);
  check "grow side" 25 (Rect.side (Rect.grow_side a Dir.North 5) Dir.North);
  check "with side" 3 (Rect.side (Rect.with_side a Dir.South 3) Dir.South);
  Alcotest.check_raises "of_size negative"
    (Invalid_argument "Rect.of_size: negative size") (fun () ->
      ignore (Rect.of_size ~x:0 ~y:0 ~w:(-1) ~h:1))

(* The Fig. 1 test: for all 16 horizontal x vertical overlap cases the
   subtraction must leave exactly the uncovered area, in disjoint pieces. *)
let test_fig1_sixteen_cases () =
  let solid = r ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  (* Four horizontal cases x four vertical cases (the paper's grid). *)
  let spans = [ (-20, 120); (-20, 60); (40, 120); (30, 70) ] in
  let case_count = ref 0 in
  List.iter
    (fun (hx0, hx1) ->
      List.iter
        (fun (vy0, vy1) ->
          incr case_count;
          let cover = r ~x0:hx0 ~y0:vy0 ~x1:hx1 ~y1:vy1 in
          let residue = Rect.subtract solid cover in
          (* Residue pieces are inside the solid and disjoint from cover. *)
          List.iter
            (fun p ->
              check_bool "inside solid" true (Rect.contains_rect solid p);
              check_bool "disjoint from cover" false (Rect.overlaps p cover))
            residue;
          (* Pairwise disjoint. *)
          List.iteri
            (fun i p ->
              List.iteri
                (fun j q ->
                  if i < j then check_bool "pieces disjoint" false (Rect.overlaps p q))
                residue)
            residue;
          (* Exact area accounting. *)
          let inter_area =
            match Rect.inter solid cover with Some i -> Rect.area i | None -> 0
          in
          check "area accounting"
            (Rect.area solid - inter_area)
            (List.fold_left (fun acc p -> acc + Rect.area p) 0 residue))
        spans)
    spans;
  check "sixteen cases" 16 !case_count

let test_overlap_case () =
  let solid = r ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let cover = r ~x0:(-10) ~y0:40 ~x1:110 ~y1:60 in
  let h, v = Rect.overlap_case solid cover in
  check_bool "h covers" true (h = Interval.Covers);
  check_bool "v inside" true (v = Interval.Inside)

(* --- region --- *)

let test_region () =
  let solids = [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:20 ~y0:0 ~x1:30 ~y1:10 ] in
  check_bool "covered by one big" true
    (Region.covered ~solids ~covers:[ r ~x0:(-1) ~y0:(-1) ~x1:31 ~y1:11 ]);
  check_bool "not covered" false
    (Region.covered ~solids ~covers:[ r ~x0:(-1) ~y0:(-1) ~x1:15 ~y1:11 ]);
  check_bool "covered by two" true
    (Region.covered ~solids
       ~covers:[ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:20 ~y0:0 ~x1:30 ~y1:10 ]);
  (* Successive subtraction: covers may each leave parts that later covers
     remove. *)
  check_bool "striped covers" true
    (Region.covered
       ~solids:[ r ~x0:0 ~y0:0 ~x1:30 ~y1:10 ]
       ~covers:
         [ r ~x0:0 ~y0:0 ~x1:12 ~y1:10; r ~x0:10 ~y0:0 ~x1:22 ~y1:10;
           r ~x0:20 ~y0:0 ~x1:30 ~y1:10 ]);
  check "union area disjoint" 200 (Region.area solids);
  check "union area overlapping" 150
    (Region.area [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:5 ~y0:0 ~x1:15 ~y1:10 ]);
  check "union area nested" 100
    (Region.area [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:2 ~y0:2 ~x1:8 ~y1:8 ]);
  check "empty area" 0 (Region.area [])

(* --- transforms --- *)

let test_transform () =
  let p = (3, 7) in
  let all_orients =
    [ Transform.R0; R90; R180; R270; MX; MY; MXR90; MYR90 ]
  in
  (* Orientations preserve the L-inf norm and form a group of order 8. *)
  List.iter
    (fun o ->
      let x, y = Transform.orient_point o p in
      check "norm preserved" (max (abs 3) (abs 7)) (max (abs x) (abs y)))
    all_orients;
  (* Composition is consistent with application. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let composed = Transform.compose_orient a b in
          check_bool "compose law" true
            (Transform.orient_point composed p
            = Transform.orient_point a (Transform.orient_point b p)))
        all_orients)
    all_orients;
  (* Mirrors are involutions. *)
  let rect = r ~x0:1 ~y0:2 ~x1:5 ~y1:9 in
  check_bool "mirror x involutive" true
    (Transform.mirror_rect_x ~axis_x:10 (Transform.mirror_rect_x ~axis_x:10 rect) = rect);
  check_bool "mirror y involutive" true
    (Transform.mirror_rect_y ~axis_y:4 (Transform.mirror_rect_y ~axis_y:4 rect) = rect);
  (* Full transform on a rect keeps the area. *)
  let tr = { Transform.orient = Transform.R90; dx = 100; dy = -50 } in
  check "area preserved" (Rect.area rect) (Rect.area (Transform.rect tr rect))

(* --- property tests --- *)

let rect_gen =
  QCheck2.Gen.(
    let coord = int_range (-50) 50 in
    map (fun (x0, y0, x1, y1) -> Rect.make ~x0 ~y0 ~x1 ~y1) (tup4 coord coord coord coord))

let prop_subtract_invariants =
  QCheck2.Test.make ~name:"rect subtract invariants" ~count:500
    QCheck2.Gen.(tup2 rect_gen rect_gen)
    (fun (a, b) ->
      let pieces = Rect.subtract a b in
      let inter_area = match Rect.inter a b with Some i -> Rect.area i | None -> 0 in
      List.for_all (fun p -> Rect.contains_rect a p) pieces
      && List.for_all (fun p -> not (Rect.overlaps p b)) pieces
      && List.fold_left (fun acc p -> acc + Rect.area p) 0 pieces
         = Rect.area a - inter_area)

let prop_union_area_bounds =
  QCheck2.Test.make ~name:"region union area bounds" ~count:300
    QCheck2.Gen.(list_size (int_range 0 6) rect_gen)
    (fun rects ->
      let u = Region.area rects in
      let sum = List.fold_left (fun acc rc -> acc + Rect.area rc) 0 rects in
      let mx = List.fold_left (fun acc rc -> max acc (Rect.area rc)) 0 rects in
      u <= sum && u >= mx)

let prop_gap_symmetry =
  QCheck2.Test.make ~name:"rect gap symmetric" ~count:300
    QCheck2.Gen.(tup2 rect_gen rect_gen)
    (fun (a, b) ->
      Rect.gap Dir.Horizontal a b = Rect.gap Dir.Horizontal b a
      && Rect.gap Dir.Vertical a b = Rect.gap Dir.Vertical b a)

let prop_interval_subtract =
  QCheck2.Test.make ~name:"interval subtract lengths" ~count:500
    QCheck2.Gen.(tup4 (int_range (-50) 50) (int_range (-50) 50) (int_range (-50) 50) (int_range (-50) 50))
    (fun (a0, a1, b0, b1) ->
      let a = Interval.make a0 a1 and b = Interval.make b0 b1 in
      let pieces = Interval.subtract a b in
      let inter_len =
        match Interval.inter a b with Some i -> Interval.length i | None -> 0
      in
      List.fold_left (fun acc i -> acc + Interval.length i) 0 pieces
      = Interval.length a - inter_len)


let prop_residue_exact =
  (* Residue of the successive-subtraction cover check (Fig. 1) measures
     exactly union(solids) minus union(covers). *)
  QCheck2.Test.make ~name:"region residue area exact" ~count:300
    QCheck2.Gen.(
      tup2 (list_size (int_range 1 5) rect_gen) (list_size (int_range 0 5) rect_gen))
    (fun (solids, covers) ->
      let solids = Region.of_rects solids and covers = Region.of_rects covers in
      let res = Region.residue ~solids ~covers in
      let clips =
        List.concat_map (fun s -> Region.inter_rect covers s) solids
      in
      Region.area res = Region.area solids - Region.area clips
      && Region.covered ~solids ~covers = Region.is_empty (Region.of_rects res))

let prop_region_contains_point =
  QCheck2.Test.make ~name:"region contains_point consistent" ~count:300
    QCheck2.Gen.(
      tup3 (list_size (int_range 0 5) rect_gen) (int_range (-60) 60)
        (int_range (-60) 60))
    (fun (rects, x, y) ->
      let region = Region.of_rects rects in
      Region.contains_point region ~x ~y
      = List.exists
          (fun rc ->
            x >= rc.Rect.x0 && x <= rc.Rect.x1 && y >= rc.Rect.y0 && y <= rc.Rect.y1)
          region)

let prop_orientation_inverse =
  (* Every D4 orientation has an inverse in the group; transforming a rect
     there and back is the identity. *)
  let all = [ Transform.R0; R90; R180; R270; MX; MY; MXR90; MYR90 ] in
  QCheck2.Test.make ~name:"orientation inverses" ~count:200
    QCheck2.Gen.(tup2 (oneofl all) rect_gen)
    (fun (o, rc) ->
      match
        List.find_opt (fun i -> Transform.compose_orient i o = Transform.R0) all
      with
      | None -> false
      | Some inv ->
          let t = Transform.of_orientation o
          and ti = Transform.of_orientation inv in
          Transform.rect ti (Transform.rect t rc) = rc)

(* --- min/max kernel against point membership ---

   [Rect] and [Interval] are built from [Int.min]/[Int.max]; a slip from
   one to the other still type-checks.  These properties check the
   results against a reference that only tests whether a grid point lies
   between two bounds, so it shares no min/max with the code under test.
   A point lies in a rectangle only between its low and high corner, so
   a result with crossed corners contains nothing.  Coordinates stay in
   [-8, 8] and [inflate] grows by at most 3, so the grid [-12, 12] holds
   every point involved. *)

let grid = List.init 25 (fun i -> i - 12)
let grid2 = List.concat_map (fun x -> List.map (fun y -> (x, y)) grid) grid
let between a b v = (a <= v && v <= b) || (b <= v && v <= a)
let in_rect (r : Rect.t) (x, y) = r.x0 <= x && x <= r.x1 && r.y0 <= y && y <= r.y1
let in_interval (i : Interval.t) v = i.lo <= v && v <= i.hi

(* The unit cell with lower-left corner (x, y) lies inside [r]: interiors
   meet exactly when some cell lies inside both. *)
let cell_in (r : Rect.t) (x, y) =
  r.x0 <= x && x + 1 <= r.x1 && r.y0 <= y && y + 1 <= r.y1

let small = QCheck2.Gen.int_range (-8) 8
let corners_gen = QCheck2.Gen.(tup4 small small small small)
let small_rect_gen =
  QCheck2.Gen.map (fun (x0, y0, x1, y1) -> Rect.make ~x0 ~y0 ~x1 ~y1) corners_gen
let small_interval_gen =
  QCheck2.Gen.(map (fun (a, b) -> Interval.make a b) (tup2 small small))

let prop_rect_make_normalises =
  QCheck2.Test.make ~name:"rect make normalises corners" ~count:300 corners_gen
    (fun (x0, y0, x1, y1) ->
      let r = Rect.make ~x0 ~y0 ~x1 ~y1 in
      List.for_all
        (fun ((x, y) as p) -> in_rect r p = (between x0 x1 x && between y0 y1 y))
        grid2)

let prop_rect_hull_least =
  QCheck2.Test.make ~name:"rect hull is the least cover" ~count:300
    QCheck2.Gen.(tup2 small_rect_gen small_rect_gen)
    (fun (a, b) ->
      let h = Rect.hull a b in
      let in_ab p = in_rect a p || in_rect b p in
      (* Contains both, and every side of the hull holds a point of [a] or
         [b], so no smaller rectangle contains both. *)
      let on_side f = List.exists (fun p -> in_ab p && f p) grid2 in
      List.for_all (fun p -> (not (in_ab p)) || in_rect h p) grid2
      && on_side (fun (x, _) -> x = h.x0)
      && on_side (fun (x, _) -> x = h.x1)
      && on_side (fun (_, y) -> y = h.y0)
      && on_side (fun (_, y) -> y = h.y1))

let prop_interval_hull_least =
  QCheck2.Test.make ~name:"interval hull is the least cover" ~count:300
    QCheck2.Gen.(tup2 small_interval_gen small_interval_gen)
    (fun (a, b) ->
      let h = Interval.hull a b in
      let in_ab v = in_interval a v || in_interval b v in
      List.for_all (fun v -> (not (in_ab v)) || in_interval h v) grid
      && in_ab h.lo && in_ab h.hi)

let prop_rect_inter =
  (* [Rect.inter] answers [Some] exactly when the interiors meet; the
     result is then the closed intersection. *)
  QCheck2.Test.make ~name:"rect inter matches point membership" ~count:300
    QCheck2.Gen.(tup2 small_rect_gen small_rect_gen)
    (fun (a, b) ->
      let meet = List.exists (fun p -> cell_in a p && cell_in b p) grid2 in
      match Rect.inter a b with
      | None -> not meet
      | Some i ->
          meet
          && List.for_all
               (fun p -> in_rect i p = (in_rect a p && in_rect b p))
               grid2)

let prop_interval_inter =
  (* [Interval.inter] answers [Some] exactly when the closed intervals
     share a point; the result is the set of shared points. *)
  QCheck2.Test.make ~name:"interval inter matches point membership" ~count:300
    QCheck2.Gen.(tup2 small_interval_gen small_interval_gen)
    (fun (a, b) ->
      let shared v = in_interval a v && in_interval b v in
      match Interval.inter a b with
      | None -> not (List.exists shared grid)
      | Some i -> List.for_all (fun v -> in_interval i v = shared v) grid)

let prop_rect_inflate =
  (* Growing by [d >= 0] adds every point within Chebyshev distance [d];
     any [d] moves each side outward by [d] and normalises. *)
  QCheck2.Test.make ~name:"rect inflate matches point membership" ~count:300
    QCheck2.Gen.(tup2 small_rect_gen (int_range (-3) 3))
    (fun (r, d) ->
      let g = Rect.inflate r d in
      let steps = List.init ((2 * abs d) + 1) (fun i -> i - abs d) in
      let near (x, y) =
        List.exists
          (fun dx -> List.exists (fun dy -> in_rect r (x + dx, y + dy)) steps)
          steps
      in
      List.for_all
        (fun ((x, y) as p) ->
          in_rect g p
          = (between (r.x0 - d) (r.x1 + d) x && between (r.y0 - d) (r.y1 + d) y)
          && (d < 0 || in_rect g p = near p))
        grid2)

let suite =
  [
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "directions" `Quick test_dir;
    Alcotest.test_case "interval classify" `Quick test_interval_classify;
    Alcotest.test_case "interval subtract" `Quick test_interval_subtract;
    Alcotest.test_case "rect basics" `Quick test_rect_basics;
    Alcotest.test_case "fig1 sixteen overlap cases" `Quick test_fig1_sixteen_cases;
    Alcotest.test_case "overlap case classification" `Quick test_overlap_case;
    Alcotest.test_case "region cover and area" `Quick test_region;
    Alcotest.test_case "transform group" `Quick test_transform;
    QCheck_alcotest.to_alcotest prop_subtract_invariants;
    QCheck_alcotest.to_alcotest prop_union_area_bounds;
    QCheck_alcotest.to_alcotest prop_gap_symmetry;
    QCheck_alcotest.to_alcotest prop_interval_subtract;
    QCheck_alcotest.to_alcotest prop_residue_exact;
    QCheck_alcotest.to_alcotest prop_region_contains_point;
    QCheck_alcotest.to_alcotest prop_orientation_inverse;
    QCheck_alcotest.to_alcotest prop_rect_make_normalises;
    QCheck_alcotest.to_alcotest prop_rect_hull_least;
    QCheck_alcotest.to_alcotest prop_interval_hull_least;
    QCheck_alcotest.to_alcotest prop_rect_inter;
    QCheck_alcotest.to_alcotest prop_interval_inter;
    QCheck_alcotest.to_alcotest prop_rect_inflate;
  ]
