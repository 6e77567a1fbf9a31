(* Routing routines: paths, vias, port connection, global routing. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Port = Amg_layout.Port
module Path = Amg_route.Path
module Wire = Amg_route.Wire
module Env = Amg_core.Env

let um = Units.of_um
let env () = Env.bicmos ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_segment_rect () =
  let r = Path.segment_rect ~width:2 (0, 0) (10, 0) in
  check_bool "horizontal" true (r = Rect.make ~x0:(-1) ~y0:(-1) ~x1:11 ~y1:1);
  let v = Path.segment_rect ~width:2 (0, 0) (0, 10) in
  check_bool "vertical" true (v = Rect.make ~x0:(-1) ~y0:(-1) ~x1:1 ~y1:11);
  Alcotest.check_raises "diagonal" (Invalid_argument "Path.segment_rect: diagonal segment")
    (fun () -> ignore (Path.segment_rect ~width:2 (0, 0) (5, 5)))

let test_path () =
  let pts = [ (0, 0); (10, 0); (10, 10) ] in
  check "rects" 2 (List.length (Path.rects ~width:2 pts));
  check "length" 20 (Path.length pts);
  check "empty" 0 (List.length (Path.rects ~width:2 [ (1, 1) ]));
  (* Corner squares overlap so the bend is covered. *)
  match Path.rects ~width:2 pts with
  | [ a; b ] -> check_bool "corner covered" true (Rect.overlaps a b)
  | _ -> Alcotest.fail "two rects"

let test_via () =
  let e = env () in
  let o = Lobj.create "v" in
  let m1, m2, cut = Wire.via e o ~at:(0, 0) ~net:"n" () in
  (* Pads are cut + 2 * enclosure = 2 um; the cut is 1 um. *)
  check "m1 pad" (um 2.) (Rect.width m1.Shape.rect);
  check "m2 pad" (um 2.) (Rect.width m2.Shape.rect);
  check "cut" (um 1.) (Rect.width cut.Shape.rect);
  check_bool "concentric" true
    (Rect.contains_rect m1.Shape.rect cut.Shape.rect
    && Rect.contains_rect m2.Shape.rect cut.Shape.rect);
  check "drc" 0
    (List.length
       (Amg_drc.Checker.run ~checks:[ Widths; Spacings; Enclosures ]
          ~tech:(Env.tech e) o))

let test_contact_at () =
  let e = env () in
  let o = Lobj.create "c" in
  let land_, m1, cut = Wire.contact_at e o ~at:(0, 0) ~landing:"pdiff" ~net:"n" () in
  check "landing pad" (um 2.5) (Rect.width land_.Shape.rect);
  check "metal pad" (um 2.) (Rect.width m1.Shape.rect);
  check "cut" (um 1.) (Rect.width cut.Shape.rect);
  check "drc" 0
    (List.length
       (Amg_drc.Checker.run ~checks:[ Widths; Spacings; Enclosures ]
          ~tech:(Env.tech e) o))

let test_connect_ports () =
  let e = env () in
  let o = Lobj.create "w" in
  let pa = Port.make ~name:"a" ~net:"n" ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) in
  let pb = Port.make ~name:"b" ~net:"n" ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 10.) ~y:(um 10.) ~w:(um 2.) ~h:(um 2.)) in
  let shapes = Wire.connect_ports e o ~width:(um 2.) pa pb in
  check "two segments (L)" 2 (List.length shapes);
  (* Straight connection when aligned. *)
  let o2 = Lobj.create "w2" in
  let pc = Port.make ~name:"c" ~net:"n" ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 10.) ~y:0 ~w:(um 2.) ~h:(um 2.)) in
  check "one segment" 1 (List.length (Wire.connect_ports e o2 ~width:(um 2.) pa pc));
  (* Different layers rejected. *)
  let pd = Port.make ~name:"d" ~net:"n" ~layer:"metal2" ~rect:pa.Port.rect in
  check_bool "layer mismatch" true
    (match Wire.connect_ports e o pa pd with
    | exception Env.Rejected _ -> true
    | _ -> false)

let test_global_comb_route () =
  let e = env () in
  (* Two banks of pins on either side of a channel; two nets. *)
  let obj = Lobj.create "board" in
  let mk_pin ~net ~x ~y =
    let rect = Rect.of_size ~x ~y ~w:(um 4.) ~h:(um 2.) in
    let _ = Lobj.add_shape obj ~layer:"metal1" ~rect ~net () in
    ignore (Lobj.add_port obj ~name:net ~net ~layer:"metal1" ~rect)
  in
  mk_pin ~net:"a" ~x:0 ~y:0;
  mk_pin ~net:"a" ~x:(um 40.) ~y:(um 60.);
  mk_pin ~net:"b" ~x:(um 20.) ~y:0;
  mk_pin ~net:"b" ~x:(um 60.) ~y:(um 60.);
  let channels = [ { Amg_route.Global.ch_y0 = um 10.; ch_y1 = um 50. } ] in
  let r =
    Amg_route.Global.comb_route e obj ~nets:[ "a"; "b" ] ~channels
      ~spine_x0:(um 80.) ()
  in
  check_bool "both routed" true (r.Amg_route.Global.routed = [ "a"; "b" ]);
  (* Physically connected and legal. *)
  let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) obj in
  check "a one node" 1 (Amg_extract.Connectivity.label_node_count conn "a");
  check "b one node" 1 (Amg_extract.Connectivity.label_node_count conn "b");
  check "no shorts" 0 (List.length (Amg_extract.Connectivity.shorts conn));
  check "drc" 0
    (List.length
       (Amg_drc.Checker.run ~checks:[ Widths; Spacings; Enclosures ]
          ~tech:(Env.tech e) obj))

let test_global_too_few_pins () =
  let e = env () in
  let obj = Lobj.create "board" in
  let rect = Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 2.) in
  let _ = Lobj.add_shape obj ~layer:"metal1" ~rect ~net:"x" () in
  let _ = Lobj.add_port obj ~name:"x" ~net:"x" ~layer:"metal1" ~rect in
  let r =
    Amg_route.Global.comb_route e obj ~nets:[ "x" ]
      ~channels:[ { Amg_route.Global.ch_y0 = um 10.; ch_y1 = um 30. } ]
      ~spine_x0:(um 50.) ()
  in
  check_bool "skipped" true
    (r.Amg_route.Global.unrouted = [ ("x", "fewer than two pins") ])

let test_track_sharing () =
  let e = env () in
  (* Two nets with disjoint x extents share one track; a third overlapping
     both needs a second. *)
  let build () =
    let obj = Lobj.create "board" in
    let mk ~net ~x ~y =
      let rect = Rect.of_size ~x ~y ~w:(um 4.) ~h:(um 2.) in
      let _ = Lobj.add_shape obj ~layer:"metal1" ~rect ~net () in
      ignore (Lobj.add_port obj ~name:net ~net ~layer:"metal1" ~rect)
    in
    mk ~net:"a" ~x:0 ~y:0;
    mk ~net:"a" ~x:(um 20.) ~y:(um 60.);
    mk ~net:"b" ~x:(um 60.) ~y:0;
    mk ~net:"b" ~x:(um 80.) ~y:(um 60.);
    mk ~net:"c" ~x:(um 10.) ~y:0;
    mk ~net:"c" ~x:(um 70.) ~y:(um 60.);
    obj
  in
  let channels = [ { Amg_route.Global.ch_y0 = um 10.; ch_y1 = um 50. } ] in
  let obj1 = build () in
  let shared =
    Amg_route.Global.comb_route e obj1 ~share_tracks:true ~nets:[ "a"; "b"; "c" ]
      ~channels ~spine_x0:(um 100.) ()
  in
  check "all routed" 3 (List.length shared.Amg_route.Global.routed);
  check "two tracks suffice" 2 shared.Amg_route.Global.tracks;
  let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) obj1 in
  List.iter
    (fun n -> check (n ^ " one node") 1 (Amg_extract.Connectivity.label_node_count conn n))
    [ "a"; "b"; "c" ];
  check "no shorts" 0 (List.length (Amg_extract.Connectivity.shorts conn));
  (* Without sharing each net gets its own track. *)
  let obj2 = build () in
  let plain =
    Amg_route.Global.comb_route e obj2 ~nets:[ "a"; "b"; "c" ] ~channels
      ~spine_x0:(um 100.) ()
  in
  check "three tracks otherwise" 3 plain.Amg_route.Global.tracks

let test_drop_anchors_on_real_metal () =
  let e = env () in
  (* A hollow port (hull of two separated bars): the drop must anchor on an
     actual bar, not the hollow centre. *)
  let obj = Lobj.create "h" in
  let r1 = Rect.of_size ~x:0 ~y:0 ~w:(um 3.) ~h:(um 2.) in
  let r2 = Rect.of_size ~x:(um 20.) ~y:0 ~w:(um 3.) ~h:(um 2.) in
  let _ = Lobj.add_shape obj ~layer:"metal1" ~rect:r1 ~net:"n" () in
  let _ = Lobj.add_shape obj ~layer:"metal1" ~rect:r2 ~net:"n" () in
  let hull = Rect.hull r1 r2 in
  let _ = Lobj.add_port obj ~name:"n" ~net:"n" ~layer:"metal1" ~rect:hull in
  (match
     Amg_route.Global.drop e obj ~net:"n" ~track_y:(um 20.)
       (Lobj.port_exn obj "n")
   with
  | Ok x ->
      check_bool "anchored on a bar" true
        (Rect.contains_point r1 ~x ~y:(um 1.) || Rect.contains_point r2 ~x ~y:(um 1.))
  | Error e -> Alcotest.failf "drop failed: %s" e);
  let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) obj in
  check_bool "riser attached" true
    (Amg_extract.Connectivity.label_node_count conn "n" <= 2)


(* --- index-served drops against the full-scan reference ---------------

   A field of metal1, metal2 and poly rectangles on the routed nets, a
   foreign net or no net, with one to three ports (each the hull of one
   to three pins on its layer, so hollow ports occur) dropped in turn to
   their tracks: each drop's result and every shape drawn must equal the
   store-wide scan of [Test_util.reference_drop], and later drops see
   the earlier ones' risers and vias as obstacles.  Coordinates are in
   half micrometres. *)
type field_case = {
  field : (string * string option * (int * int * int * int)) list;
  drops : (string * string * (int * int * int * int) list * int * int list) list;
      (** net, port layer, pins, track y, avoid x's *)
}

let field_gen =
  QCheck2.Gen.(
    let rect = quad (int_range 0 120) (int_range 0 120) (int_range 1 24) (int_range 1 24) in
    let shape =
      triple (oneofl [ "metal1"; "metal2"; "poly" ])
        (oneofl [ Some "n"; Some "m"; Some "f"; None ])
        rect
    in
    let drop =
      let* net = oneofl [ "n"; "m" ] in
      let* layer = oneofl [ "metal1"; "metal2" ] in
      let* pins = list_size (int_range 1 3) rect in
      let* track_y = int_range (-40) 160 in
      let* avoid = list_size (int_range 0 3) (int_range 0 120) in
      return (net, layer, pins, track_y, avoid)
    in
    map2 (fun field drops -> { field; drops })
      (list_size (int_range 0 40) shape)
      (list_size (int_range 1 3) drop))

let show_field_case c =
  let r (x, y, w, h) = Printf.sprintf "(%d,%d %dx%d)" x y w h in
  Printf.sprintf "field [%s] drops [%s]"
    (String.concat "; "
       (List.map
          (fun (l, n, rc) -> Printf.sprintf "%s %s %s" l (Option.value ~default:"-" n) (r rc))
          c.field))
    (String.concat "; "
       (List.map
          (fun (net, l, pins, ty, avoid) ->
            Printf.sprintf "%s on %s pins %s track %d avoid %s" net l
              (String.concat "" (List.map r pins)) ty
              (String.concat "," (List.map string_of_int avoid)))
          c.drops))

let half_um = Test_util.half_um
let half_rect = Test_util.half_rect

(* Build the field and run its drops with [drop]; the drop results and
   the final store. *)
let run_field e c drop =
  let obj = Lobj.create "field" in
  List.iter
    (fun (layer, net, r) -> ignore (Lobj.add_shape obj ~layer ~rect:(half_rect r) ?net ()))
    c.field;
  let results =
    List.mapi
      (fun k (net, layer, pins, track_y, avoid) ->
        let rects = List.map half_rect pins in
        List.iter (fun rect -> ignore (Lobj.add_shape obj ~layer ~rect ~net ())) rects;
        let hull = List.fold_left Rect.hull (List.hd rects) rects in
        let port = Port.make ~name:(Printf.sprintf "p%d" k) ~net ~layer ~rect:hull in
        drop e obj ~avoid:(List.map half_um avoid) ~net ~track_y:(half_um track_y) port)
      c.drops
  in
  (results, Lobj.shapes obj)

let same_drops e c =
  let results, shapes =
    run_field e c (fun e obj ~avoid ~net ~track_y p ->
        Amg_route.Global.drop e obj ~avoid ~net ~track_y p)
  in
  let ref_results, ref_shapes =
    run_field e c (fun e obj ~avoid ~net ~track_y p ->
        Test_util.reference_drop e obj ~avoid ~net ~track_y p)
  in
  List.equal (Result.equal ~ok:Int.equal ~error:String.equal) results ref_results
  && List.equal Shape.equal shapes ref_shapes

let prop_drop_matches_reference =
  QCheck2.Test.make ~name:"drop matches the full-scan reference" ~count:200
    ~print:show_field_case field_gen (fun c -> same_drops (env ()) c)

(* The property above only shows something if its fields make drops
   succeed off their first candidate, fail, and succeed past an earlier
   drop's risers; pin that the generator reaches all three. *)
let test_drop_field_outcomes () =
  let e = env () in
  let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 33 |]) ~n:200 field_gen in
  let outcomes =
    List.map
      (fun c ->
        let results, _ = run_field e c (fun e obj ~avoid ~net ~track_y p ->
            Amg_route.Global.drop e obj ~avoid ~net ~track_y p) in
        (c, results))
      cases
  in
  let shifted (c, results) =
    List.exists2
      (fun (_, _, pins, _, _) r ->
        match r with
        | Ok x ->
            not (List.exists (fun p -> Int.equal x (Rect.center_x (half_rect p))) pins)
        | Error _ -> false)
      c.drops results
  in
  check_bool "some drop moves off its anchor's centre" true (List.exists shifted outcomes);
  check_bool "some drop finds no corridor" true
    (List.exists (fun (_, rs) -> List.exists Result.is_error rs) outcomes);
  check_bool "some later drop succeeds after an earlier one" true
    (List.exists
       (fun (_, rs) -> match rs with Ok _ :: rest -> List.exists Result.is_ok rest | _ -> false)
       outcomes)

let suite =
  [
    Alcotest.test_case "segment rect" `Quick test_segment_rect;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "via stack" `Quick test_via;
    Alcotest.test_case "point contact" `Quick test_contact_at;
    Alcotest.test_case "connect ports" `Quick test_connect_ports;
    Alcotest.test_case "global comb route" `Quick test_global_comb_route;
    Alcotest.test_case "global too few pins" `Quick test_global_too_few_pins;
    Alcotest.test_case "track sharing (left edge)" `Quick test_track_sharing;
    Alcotest.test_case "drop anchors on metal" `Quick test_drop_anchors_on_real_metal;
    QCheck_alcotest.to_alcotest prop_drop_matches_reference;
    Alcotest.test_case "drop fields reach every outcome" `Quick test_drop_field_outcomes;
  ]
