(* Layout database: shapes, objects, derived arrays, exporters. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Edge = Amg_layout.Edge
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Derive = Amg_layout.Derive
module Port = Amg_layout.Port
module Technology = Amg_tech.Technology
module Rules = Amg_tech.Rules

let um = Units.of_um
let tech () = Amg_tech.Bicmos1u.get ()
let rules () = Technology.rules (tech ())

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_edge_sides () =
  let s = Edge.set Edge.all_fixed Dir.North Edge.Variable in
  check_bool "get north" true (Edge.is_variable s Dir.North);
  check_bool "others fixed" false (Edge.is_variable s Dir.South);
  check_bool "all variable" true (Edge.is_variable Edge.all_variable Dir.East)

let test_shape_transform () =
  let s =
    Shape.make ~id:0 ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:10 ~h:20)
      ~sides:(Edge.set Edge.all_fixed Dir.North Edge.Variable)
      ()
  in
  (* MX flips y: the variable north edge must become the south edge. *)
  let flipped = Shape.transform s (Amg_geometry.Transform.of_orientation Amg_geometry.Transform.MX) in
  check_bool "variable moved to south" true (Edge.is_variable flipped.Shape.sides Dir.South);
  check_bool "north now fixed" false (Edge.is_variable flipped.Shape.sides Dir.North);
  check "area preserved" (Rect.area s.Shape.rect) (Rect.area flipped.Shape.rect)

let test_lobj_crud () =
  let o = Lobj.create "t" in
  let a = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:10 ~h:10) () in
  let b = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:20 ~y:0 ~w:10 ~h:10) ~net:"n" () in
  check "count" 2 (Lobj.shape_count o);
  check_bool "find" true (Lobj.find o a.Shape.id = Some a);
  Lobj.replace o (Shape.with_net b (Some "m"));
  check_bool "replaced" true ((Lobj.find_exn o b.Shape.id).Shape.net = Some "m");
  Lobj.remove o a.Shape.id;
  check "after remove" 1 (Lobj.shape_count o);
  Alcotest.check_raises "replace missing"
    (Invalid_argument "Lobj.replace: no shape 0 in t") (fun () -> Lobj.replace o a);
  check_bool "bbox" true (Lobj.bbox o = Some (Rect.of_size ~x:20 ~y:0 ~w:10 ~h:10));
  check_bool "layers" true (Lobj.layers o = [ "metal1" ]);
  check_bool "nets" true (Lobj.nets o = [ "m" ])

let test_lobj_translate_ports () =
  let o = Lobj.create "t" in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:10 ~h:10) ~net:"a" () in
  let _ = Lobj.add_port o ~name:"p" ~net:"a" ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:10 ~h:10) in
  Lobj.translate o ~dx:5 ~dy:7;
  let p = Lobj.port_exn o "p" in
  check "port moved x" 5 p.Port.rect.Rect.x0;
  check "port moved y" 7 p.Port.rect.Rect.y0;
  check_bool "shape moved" true
    ((List.hd (Lobj.shapes o)).Shape.rect = Rect.of_size ~x:5 ~y:7 ~w:10 ~h:10)

let test_lobj_copy_independent () =
  let o = Lobj.create "orig" in
  let _ = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:10 ~h:10) () in
  let c = Lobj.copy ~name:"copy" o in
  Lobj.translate c ~dx:100 ~dy:0;
  check_bool "original untouched" true
    ((List.hd (Lobj.shapes o)).Shape.rect = Rect.of_size ~x:0 ~y:0 ~w:10 ~h:10);
  Alcotest.(check string) "copy name" "copy" (Lobj.name c)

(* The id table: absent, removed, negative and out-of-range ids all find
   nothing, and a copy's removals (enough to squeeze its slots), adds
   (enough to grow its table) and replaces never reach the original. *)
let test_lobj_id_table () =
  let r i = Rect.of_size ~x:(i * 10) ~y:0 ~w:5 ~h:5 in
  let o = Lobj.create "ids" in
  let shapes = List.init 40 (fun i -> Lobj.add_shape o ~layer:"poly" ~rect:(r i) ()) in
  let victim = List.nth shapes 7 in
  Lobj.remove o victim.Shape.id;
  check_bool "removed id" true (Lobj.find o victim.Shape.id = None);
  check_bool "id past the table" true (Lobj.find o 1_000_000 = None);
  check_bool "negative id" true (Lobj.find o (-1) = None);
  let live = List.filter (fun (s : Shape.t) -> s != victim) shapes in
  let answers o =
    ( Lobj.shapes o,
      List.map (fun (s : Shape.t) -> Lobj.find o s.Shape.id) shapes,
      Lobj.near o ~layer:"poly" (Rect.of_size ~x:0 ~y:0 ~w:400 ~h:5) ~margin:0 )
  in
  let before = answers o in
  let c = Lobj.copy o in
  List.iteri (fun i (s : Shape.t) -> if i < 30 then Lobj.remove c s.Shape.id) live;
  for i = 0 to 99 do
    ignore (Lobj.add_shape c ~layer:"poly" ~rect:(r (i + 50)) ())
  done;
  let kept = List.nth live 35 in
  Lobj.replace c (Shape.with_rect kept (r 200));
  check_bool "original unchanged" true (answers o = before);
  check_bool "original shapes" true (Lobj.shapes o = live);
  check_bool "copy's new ids absent from the original" true
    (Lobj.find o 45 = None && Lobj.find o 139 = None);
  check "copy count" (39 - 30 + 100) (Lobj.shape_count c)

let test_absorb_renumbers () =
  let a = Lobj.create "a" in
  let _ = Lobj.add_shape a ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:5 ~h:5) () in
  let b = Lobj.create "b" in
  let s0 = Lobj.add_shape b ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:5 ~h:5) () in
  let offset = Lobj.absorb a b in
  check "two shapes" 2 (Lobj.shape_count a);
  check_bool "renumbered id present" true (Lobj.find a (s0.Shape.id + offset) <> None);
  (* b itself is untouched. *)
  check "src untouched" 1 (Lobj.shape_count b)

let test_rename_and_qualify () =
  let o = Lobj.create "t" in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:5 ~h:5) ~net:"g" () in
  let _ = Lobj.add_port o ~name:"g" ~net:"g" ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:5 ~h:5) in
  Lobj.rename_net o ~from_:"g" ~to_:"g1";
  check_bool "shape renamed" true ((List.hd (Lobj.shapes o)).Shape.net = Some "g1");
  check_bool "port renamed" true ((Lobj.port_exn o "g").Port.net = "g1");
  Lobj.qualify_nets o "x1";
  check_bool "qualified" true ((List.hd (Lobj.shapes o)).Shape.net = Some "x1.g1")

(* --- derived arrays --- *)

let test_spread () =
  (* Equidistant when there is room. *)
  let cuts = Derive.spread ~lo:0 ~hi:100 ~s:10 ~space:5 3 in
  check "count" 3 (List.length cuts);
  let gaps =
    let rec go prev = function
      | [] -> []
      | (lo, hi) :: tl -> (lo - prev) :: go hi tl
    in
    go 0 cuts @ [ 100 - snd (List.nth cuts 2) ]
  in
  List.iter (fun g -> check_bool "gaps near equal" true (abs (g - 17) <= 1)) gaps;
  (* Pinned at minimum space when tight. *)
  let tight = Derive.spread ~lo:0 ~hi:34 ~s:10 ~space:2 3 in
  let (l0, h0), (l1, h1), (l2, h2) =
    match tight with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "count"
  in
  check "pinned gap 1" 2 (l1 - h0);
  check "pinned gap 2" 2 (l2 - h1);
  check "margin balanced" (34 - h2) l0

let test_max_cuts () =
  check "three" 3 (Derive.max_cuts ~w:34 ~s:10 ~space:2);
  check "exact pitch fit" 4 (Derive.max_cuts ~w:46 ~s:10 ~space:2);
  check "one" 1 (Derive.max_cuts ~w:10 ~s:10 ~space:2);
  check "zero" 0 (Derive.max_cuts ~w:9 ~s:10 ~space:2)

let test_cut_array_and_rederive () =
  let rules = rules () in
  let o = Lobj.create "row" in
  let land_ = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.)) () in
  let metal = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.)) () in
  let _ =
    Lobj.register_array o ~cut_layer:"contact"
      ~container_ids:[ land_.Shape.id; metal.Shape.id ] ()
  in
  Lobj.rederive o rules;
  let cuts () = List.length (Lobj.shapes_on o "contact") in
  check "initial cuts" 4 (cuts ());
  (* Shrink the metal: the array is recomputed with fewer cuts. *)
  Lobj.replace o (Shape.with_rect metal (Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 2.)));
  Lobj.rederive o rules;
  check "after shrink" 1 (cuts ());
  (* Cuts of a registered array constrain the container minimum. *)
  check_bool "container flagged" true
    (Lobj.array_cut_layers_of_container o metal.Shape.id = [ "contact" ]);
  check "min extent" (um 2.)
    (Derive.min_container_extent rules ~container_layer:"metal1" ~cut_layer:"contact")

let test_cut_window () =
  let rules = rules () in
  let containers =
    [ ("poly", Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.));
      ("metal1", Rect.of_size ~x:(um 1.) ~y:0 ~w:(um 4.) ~h:(um 4.)) ]
  in
  match Derive.cut_window rules ~containers ~cut_layer:"contact" with
  | Some w ->
      (* poly shrinks by 0.5, metal by 0.5: window x = max(0.5, 1.5) .. min(3.5, 4.5) *)
      check "window x0" (um 1.5) w.Rect.x0;
      check "window x1" (um 3.5) w.Rect.x1
  | None -> Alcotest.fail "expected a window"

(* A container narrower than twice its enclosure has no window: shrinking
   it must not swap its edges into a window it cannot enclose. *)
let test_cut_window_too_narrow () =
  let rules = rules () in
  let narrow = [ ("pdiff", Rect.of_size ~x:0 ~y:0 ~w:(um 1.) ~h:(um 4.)) ] in
  check_bool "1 um pdiff, 0.75 um enclosure: no window" true
    (Derive.cut_window rules ~containers:narrow ~cut_layer:"contact" = None);
  let o = Lobj.create "narrowed" in
  let diff = Lobj.add_shape o ~layer:"pdiff" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.)) () in
  let _ = Lobj.register_array o ~cut_layer:"contact" ~container_ids:[ diff.Shape.id ] () in
  Lobj.rederive o rules;
  check "one cut in the 4 um container" 1 (List.length (Lobj.shapes_on o "contact"));
  let narrowed = Rect.of_size ~x:0 ~y:0 ~w:(um 0.5) ~h:(um 4.) in
  Lobj.replace o (Shape.with_rect diff narrowed);
  Lobj.rederive o rules;
  List.iter
    (fun (c : Shape.t) ->
      check_bool "cut enclosed by its container" true
        (Rect.contains_rect narrowed (Rect.inflate c.Shape.rect (um 0.75))))
    (Lobj.shapes_on o "contact");
  check "no cut in the 0.5 um container" 0 (List.length (Lobj.shapes_on o "contact"))

(* --- exporters and analysis --- *)

let sample_obj () =
  let o = Lobj.create "sample" in
  let _ = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.)) ~net:"g" () in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:(um 4.) ~w:(um 10.) ~h:(um 2.)) ~net:"s" () in
  o

let test_svg () =
  let svg = Amg_layout.Svg.of_lobj ~tech:(tech ()) (sample_obj ()) in
  check_bool "is svg" true (String.length svg > 0 && String.sub svg 0 4 = "<svg");
  let contains sub =
    let n = String.length svg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub svg i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "has pattern defs" true (contains "<pattern id='fill-poly'");
  check_bool "has rects" true (contains "<rect");
  check_bool "has title" true (contains "<title>sample</title>")

let test_cif () =
  let cif = Amg_layout.Cif.of_lobj ~tech:(tech ()) (sample_obj ()) in
  let contains sub =
    let n = String.length cif and m = String.length sub in
    let rec go i = i + m <= n && (String.sub cif i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "layer line" true (contains "L POLY;");
  (* 10 x 2 um box centred at (5, 1) um = 1000 x 200 centimicrons at (500, 100). *)
  check_bool "box line" true (contains "B 1000 200 500 100;");
  check_bool "trailer" true (contains "DF;");
  Alcotest.(check string) "cif layer name" "META" (Amg_layout.Cif.cif_layer_name "metal1")

let test_gds_roundtrip () =
  let tech = tech () in
  let o = sample_obj () in
  let bytes = Amg_layout.Gds.to_bytes ~tech o in
  let name, shapes = Amg_layout.Gds.parse bytes in
  Alcotest.(check string) "structure name" "sample" name;
  check "boundaries" 2 (List.length shapes);
  (* Layers map to the deck's GDS numbers and rectangles survive. *)
  let poly_gds = (Technology.layer_exn tech "poly").Amg_tech.Layer.gds in
  (match List.find_opt (fun (l, _) -> l = poly_gds) shapes with
  | Some (_, r) ->
      check_bool "poly rect" true (r = Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.))
  | None -> Alcotest.fail "poly boundary missing");
  (* Markers are not emitted. *)
  let om = Lobj.create "marked" in
  let _ = Lobj.add_shape om ~layer:"subtap" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:100 ~h:100) () in
  let _, ms = Amg_layout.Gds.parse (Amg_layout.Gds.to_bytes ~tech om) in
  check "no marker boundaries" 0 (List.length ms);
  Alcotest.check_raises "malformed" (Amg_layout.Gds.Bad_gds "record length < 4")
    (fun () -> ignore (Amg_layout.Gds.parse "\000\000\000\000"))

let test_ascii () =
  let tech = tech () in
  let art = Amg_layout.Ascii.render ~tech ~width:32 (sample_obj ()) in
  check_bool "non empty" true (String.length art > 32);
  let lines = String.split_on_char '\n' art in
  List.iter
    (fun l -> if l <> "" then check "uniform width" 32 (String.length l))
    lines;
  (* Both layers appear with their distinct glyphs. *)
  let has c = String.exists (Char.equal c) art in
  let gp = Amg_layout.Ascii.layer_glyph tech "poly" in
  let gm = Amg_layout.Ascii.layer_glyph tech "metal1" in
  check_bool "poly glyph" true (has gp);
  check_bool "metal glyph" true (has gm);
  check_bool "glyphs differ" true (gp <> gm);
  Alcotest.(check string) "empty object" "(empty)\n"
    (Amg_layout.Ascii.render ~tech (Lobj.create "e"))

let test_stats () =
  let st = Amg_layout.Stats.of_lobj (sample_obj ()) in
  check "shapes" 2 st.Amg_layout.Stats.shape_count;
  Alcotest.(check (float 0.01)) "bbox area" 60.0 st.Amg_layout.Stats.bbox_area_um2;
  Alcotest.(check (float 0.01)) "density" (40. /. 60.) st.Amg_layout.Stats.density

let test_parasitics () =
  let tech = tech () in
  let o = Lobj.create "cap" in
  (* A 10x10 um metal1 plate: 100 um2 * 30 aF + 40 um * 40 aF = 4600 aF. *)
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 10.)) ~net:"n" () in
  Alcotest.(check (float 0.01)) "plate + fringe" 4.6
    (Amg_layout.Parasitics.net_total ~tech o "n");
  (* Crossing another net adds coupling to both. *)
  let _ = Lobj.add_shape o ~layer:"metal2" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 10.)) ~net:"m" () in
  let caps = Amg_layout.Parasitics.of_lobj ~tech o in
  let n = List.find (fun c -> c.Amg_layout.Parasitics.net = "n") caps in
  Alcotest.(check (float 0.01)) "coupling" 4.0 n.Amg_layout.Parasitics.coupling_cap


(* --- properties --- *)

(* GDSII round trip: every non-marker shape survives write -> parse with its
   layer number and exact coordinates, whatever the mix. *)
let prop_gds_roundtrip =
  let shape_gen =
    QCheck2.Gen.(
      tup3
        (oneofl [ "pdiff"; "poly"; "metal1"; "metal2"; "contact" ])
        (tup2 (int_range (-20_000) 20_000) (int_range (-20_000) 20_000))
        (tup2 (int_range 50 5_000) (int_range 50 5_000)))
  in
  QCheck2.Test.make ~name:"gds roundtrip exact" ~count:200
    QCheck2.Gen.(list_size (int_range 1 12) shape_gen)
    (fun specs ->
      let tech = tech () in
      let o = Lobj.create "prop" in
      List.iter
        (fun (layer, (x, y), (w, h)) ->
          ignore (Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x ~y ~w ~h) ()))
        specs;
      let _, parsed = Amg_layout.Gds.parse (Amg_layout.Gds.to_bytes ~tech o) in
      let expect =
        List.map
          (fun (layer, (x, y), (w, h)) ->
            ((Technology.layer_exn tech layer).Amg_tech.Layer.gds,
             Rect.of_size ~x ~y ~w ~h))
          specs
      in
      let sort l = List.sort compare l in
      sort parsed = sort expect)

(* Translating an object moves every shape, port and derived array rect by
   exactly the offset; translating back is the identity. *)
let prop_translate_involutive =
  QCheck2.Gen.(
    QCheck2.Test.make ~name:"translate round trip" ~count:200
      (tup2 (int_range (-10_000) 10_000) (int_range (-10_000) 10_000))
      (fun (dx, dy) ->
        let o = Lobj.create "t" in
        let id =
          (Lobj.add_shape o ~layer:"metal1"
             ~rect:(Rect.of_size ~x:0 ~y:0 ~w:2_000 ~h:1_000) ~net:"a" ())
            .Shape.id
        in
        ignore (Lobj.add_port o ~name:"p" ~layer:"metal1" ~net:"a"
          ~rect:(Rect.of_size ~x:0 ~y:0 ~w:2_000 ~h:1_000));
        let before = ((Lobj.find_exn o id).Shape.rect, (Lobj.port_exn o "p").Port.rect) in
        Lobj.translate o ~dx ~dy;
        let moved = (Lobj.find_exn o id).Shape.rect in
        let ok_moved = moved.Rect.x0 = dx && moved.Rect.y0 = dy in
        Lobj.translate o ~dx:(-dx) ~dy:(-dy);
        let after = ((Lobj.find_exn o id).Shape.rect, (Lobj.port_exn o "p").Port.rect) in
        ok_moved && before = after))


(* Import rebuilds the same geometry under the deck's layer names; unknown
   GDS numbers are reported, not silently dropped. *)
let test_gds_import () =
  let tech = tech () in
  let o = Lobj.create "imp" in
  let _ = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.)) ~net:"g" () in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:(um 4.) ~w:(um 6.) ~h:(um 2.)) () in
  (* Markers are not exported, hence not reimported. *)
  let _ = Lobj.add_shape o ~layer:"subtap" ~rect:(Rect.of_size ~x:0 ~y:(um 8.) ~w:(um 2.) ~h:(um 2.)) () in
  let back, dropped = Amg_layout.Gds.import ~tech (Amg_layout.Gds.to_bytes ~tech o) in
  Alcotest.(check string) "name" "imp" (Lobj.name back);
  check "no dropped layers" 0 (List.length dropped);
  check "two shapes (marker gone)" 2 (Lobj.shape_count back);
  let layer_rects o =
    List.sort compare
      (List.map (fun (s : Shape.t) -> (s.Shape.layer, s.Shape.rect)) (Lobj.shapes o))
  in
  let expected =
    List.filter (fun (l, _) -> l <> "subtap") (layer_rects o)
  in
  check_bool "same geometry" true (layer_rects back = expected);
  (* A deck without the layer reports the dropped GDS number. *)
  let tiny_rules = Rules.create () in
  let tiny = Technology.create ~name:"tiny" ~rules:tiny_rules () in
  Technology.add_layer tiny
    (Amg_tech.Layer.make ~name:"poly" ~kind:Amg_tech.Layer.Poly ~gds:10
       ~fill:(Amg_tech.Patterns.make "#000") ());
  let back2, dropped2 = Amg_layout.Gds.import ~tech:tiny (Amg_layout.Gds.to_bytes ~tech o) in
  check "only poly survives" 1 (Lobj.shape_count back2);
  check_bool "metal1 gds reported" true (List.mem 30 dropped2)

(* Export -> import is the identity on non-marker geometry. *)
let prop_gds_import_roundtrip =
  let shape_gen =
    QCheck2.Gen.(
      tup3
        (oneofl [ "pdiff"; "poly"; "metal1"; "metal2"; "contact" ])
        (tup2 (int_range (-20_000) 20_000) (int_range (-20_000) 20_000))
        (tup2 (int_range 50 5_000) (int_range 50 5_000)))
  in
  QCheck2.Test.make ~name:"gds import roundtrip" ~count:150
    QCheck2.Gen.(list_size (int_range 1 10) shape_gen)
    (fun specs ->
      let tech = tech () in
      let o = Lobj.create "prop" in
      List.iter
        (fun (layer, (x, y), (w, h)) ->
          ignore (Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x ~y ~w ~h) ()))
        specs;
      let back, dropped = Amg_layout.Gds.import ~tech (Amg_layout.Gds.to_bytes ~tech o) in
      let key obj =
        List.sort compare
          (List.map (fun (s : Shape.t) -> (s.Shape.layer, s.Shape.rect)) (Lobj.shapes obj))
      in
      dropped = [] && key back = key o)

let suite =
  [
    Alcotest.test_case "edge sides" `Quick test_edge_sides;
    Alcotest.test_case "shape transform remaps sides" `Quick test_shape_transform;
    Alcotest.test_case "lobj crud" `Quick test_lobj_crud;
    Alcotest.test_case "translate moves ports" `Quick test_lobj_translate_ports;
    Alcotest.test_case "copy is independent" `Quick test_lobj_copy_independent;
    Alcotest.test_case "absorb renumbers ids" `Quick test_absorb_renumbers;
    Alcotest.test_case "lobj id table" `Quick test_lobj_id_table;
    Alcotest.test_case "rename and qualify nets" `Quick test_rename_and_qualify;
    Alcotest.test_case "equidistant spread" `Quick test_spread;
    Alcotest.test_case "max cuts" `Quick test_max_cuts;
    Alcotest.test_case "cut array rederive" `Quick test_cut_array_and_rederive;
    Alcotest.test_case "cut window" `Quick test_cut_window;
    Alcotest.test_case "cut window: container too narrow" `Quick test_cut_window_too_narrow;
    Alcotest.test_case "svg export" `Quick test_svg;
    Alcotest.test_case "cif export" `Quick test_cif;
    Alcotest.test_case "gds roundtrip" `Quick test_gds_roundtrip;
    Alcotest.test_case "ascii render" `Quick test_ascii;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "parasitics" `Quick test_parasitics;
    Alcotest.test_case "gds import" `Quick test_gds_import;
    QCheck_alcotest.to_alcotest prop_gds_roundtrip;
    QCheck_alcotest.to_alcotest prop_gds_import_roundtrip;
    QCheck_alcotest.to_alcotest prop_translate_involutive;
  ]
