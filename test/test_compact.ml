(* The successive compactor: constraint relations, placement, merging,
   auto-connection, variable edges, and the edge-graph baseline. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Edge = Amg_layout.Edge
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Constraints = Amg_compact.Constraints
module Successive = Amg_compact.Successive
module Edge_graph = Amg_compact.Edge_graph
module Technology = Amg_tech.Technology

let um = Units.of_um
let tech () = Amg_tech.Bicmos1u.get ()
let rules () = Technology.rules (tech ())

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shape ?(id = 0) ~layer ?net ?sides ?keep_clear rect =
  Shape.make ~id ~layer ~rect ?net ?sides ?keep_clear ()

let rel = Alcotest.testable Constraints.pp_relation Constraints.equal_relation

let test_relation () =
  let r0 = Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) in
  let r1 = Rect.of_size ~x:(um 10.) ~y:0 ~w:(um 2.) ~h:(um 2.) in
  let rules = rules () in
  (* Same layer, same net: mergeable. *)
  Alcotest.check rel "same net" Constraints.Mergeable
    (Constraints.relation rules (shape ~layer:"metal1" ~net:"a" r0)
       (shape ~layer:"metal1" ~net:"a" r1));
  (* Same layer, different nets: the layer's spacing rule. *)
  Alcotest.check rel "diff nets" (Constraints.Separation (um 1.5))
    (Constraints.relation rules (shape ~layer:"metal1" ~net:"a" r0)
       (shape ~layer:"metal1" ~net:"b" r1));
  (* Ignored layer: same-layer spacing waived. *)
  Alcotest.check rel "ignored" Constraints.Mergeable
    (Constraints.relation rules ~ignore_layers:[ "metal1" ]
       (shape ~layer:"metal1" ~net:"a" r0)
       (shape ~layer:"metal1" ~net:"b" r1));
  (* Cross-layer rule holds even on the same net. *)
  Alcotest.check rel "poly vs diff same net" (Constraints.Separation (um 0.5))
    (Constraints.relation rules (shape ~layer:"poly" ~net:"a" r0)
       (shape ~layer:"pdiff" ~net:"a" r1));
  (* Unrelated layers: free. *)
  Alcotest.check rel "metal over poly" Constraints.Unconstrained
    (Constraints.relation rules (shape ~layer:"metal1" r0) (shape ~layer:"poly" r1));
  (* ... unless keep-clear. *)
  Alcotest.check rel "keep clear" (Constraints.Separation 0)
    (Constraints.relation rules (shape ~layer:"metal1" ~keep_clear:true r0)
       (shape ~layer:"poly" r1));
  Alcotest.check rel "keep clear target" (Constraints.Separation 0)
    (Constraints.relation rules (shape ~layer:"metal1" r0)
       (shape ~layer:"poly" ~keep_clear:true r1));
  (* A same-potential overlap is a connection, keep-clear or not. *)
  Alcotest.check rel "keep clear same net" Constraints.Unconstrained
    (Constraints.relation rules (shape ~layer:"metal1" ~net:"a" ~keep_clear:true r0)
       (shape ~layer:"poly" ~net:"a" r1));
  (* Containment (cut in its landing) is free. *)
  Alcotest.check rel "containment" Constraints.Unconstrained
    (Constraints.relation rules
       (shape ~layer:"contact" (Rect.of_size ~x:(um 0.5) ~y:(um 0.5) ~w:(um 1.) ~h:(um 1.)))
       (shape ~layer:"poly" (Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.))))

let bar ~name ~layer ?net ?sides ~x ~y ~w ~h () =
  let o = Lobj.create name in
  let _ = Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x ~y ~w ~h) ?net ?sides () in
  o

let test_compact_spacing () =
  let rules = rules () in
  (* Two metal bars on different nets end up exactly at minimum spacing:
     the target at y 0..2, the mover at 3.5..5.5. *)
  let main = bar ~name:"main" ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.) () in
  let mover = bar ~name:"m" ~layer:"metal1" ~net:"b" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main mover Dir.South;
  let tops =
    List.map (fun (s : Shape.t) -> s.Shape.rect.Rect.y0) (Lobj.shapes main)
    |> List.sort compare
  in
  check_bool "positions" true (tops = [ 0; um 3.5 ])

let test_compact_merge_same_net () =
  let rules = rules () in
  (* Same net: the mover may slide until trailing edges align (overlap). *)
  let main = bar ~name:"main" ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 4.) () in
  let mover = bar ~name:"m" ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main mover Dir.South;
  (* Trailing-edge guard: the mover's north edge stops at the target's
     north edge, i.e. fully overlapping the top of the target. *)
  let rects = List.map (fun (s : Shape.t) -> s.Shape.rect) (Lobj.shapes main) in
  check_bool "merged overlap" true
    (List.exists (fun r -> r.Rect.y0 = um 2. && r.Rect.y1 = um 4.) rects)

let test_compact_empty_main () =
  let rules = rules () in
  let main = Lobj.create "empty" in
  let mover = bar ~name:"m" ~layer:"poly" ~x:(um 3.) ~y:(um 7.) ~w:(um 2.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main mover Dir.West;
  (* First object is copied in unchanged. *)
  check_bool "copied" true
    (Lobj.bbox main = Some (Rect.of_size ~x:(um 3.) ~y:(um 7.) ~w:(um 2.) ~h:(um 2.)))

let test_compact_align () =
  let rules = rules () in
  let main = bar ~name:"main" ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 20.) ~h:(um 2.) () in
  let mover () = bar ~name:"m" ~layer:"metal1" ~net:"b" ~x:(um 100.) ~y:0 ~w:(um 4.) ~h:(um 2.) () in
  let main1 = Lobj.copy main in
  Successive.compact ~rules ~into:main1 ~align:`Center (mover ()) Dir.South;
  (match Lobj.bbox_on main1 "metal1" with
  | Some b -> check "center align keeps hull" (um 20.) (Rect.width b)
  | None -> Alcotest.fail "no metal");
  let main2 = Lobj.copy main in
  Successive.compact ~rules ~into:main2 ~align:`Min (mover ()) Dir.South;
  let xs = List.map (fun (s : Shape.t) -> s.Shape.rect.Rect.x0) (Lobj.shapes main2) in
  check_bool "min align west edges equal" true (xs = [ 0; 0 ])

let test_stage_outside_prevents_tunneling () =
  let rules = rules () in
  (* Mover generated in the middle of the main structure must still end up
     outside, not pass through. *)
  let main = bar ~name:"main" ~layer:"pdiff" ~net:"a" ~x:0 ~y:0 ~w:(um 20.) ~h:(um 20.) () in
  let mover = bar ~name:"m" ~layer:"ndiff" ~net:"b" ~x:(um 8.) ~y:(um 8.) ~w:(um 2.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main mover Dir.South;
  (* ndiff/pdiff spacing is 3 um: mover sits on top, 3 um above. *)
  let ndiff = Lobj.bbox_on main "ndiff" in
  check_bool "landed above" true
    (match ndiff with Some r -> r.Rect.y0 = um 23. | None -> false)

let test_auto_connect () =
  let rules = rules () in
  (* A same-net bar stops on a spacing constraint against a foreign bar;
     the same-net target is stretched up to meet it. *)
  let main = Lobj.create "main" in
  let _ =
    Lobj.add_shape main ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 6.)) ~net:"s" ()
  in
  let _ =
    Lobj.add_shape main ~layer:"metal1"
      ~rect:(Rect.of_size ~x:(um 4.) ~y:0 ~w:(um 2.) ~h:(um 10.))
      ~net:"d" ()
  in
  let strap = bar ~name:"strap" ~layer:"metal1" ~net:"s" ~x:0 ~y:0 ~w:(um 6.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main strap Dir.South;
  (* The strap stops 1.5 above the d bar (top 10) -> strap at 11.5..13.5;
     the s bar (top 6) is stretched to reach it. *)
  let s_rects =
    List.filter_map
      (fun (s : Shape.t) -> if s.Shape.net = Some "s" then Some s.Shape.rect else None)
      (Lobj.shapes main)
  in
  check_bool "strap position" true
    (List.exists (fun r -> r.Rect.y0 = um 11.5 && Rect.width r = um 6.) s_rects);
  check_bool "stretched to strap" true
    (List.exists (fun r -> r.Rect.y1 = um 11.5 && Rect.width r = um 2.) s_rects)

let test_variable_edges_fig5 () =
  let rules = rules () in
  (* Fig. 5b: a variable-edge foreign bar shrinks out of the mover's way. *)
  let make_main variable =
    let main = Lobj.create "main" in
    let sides =
      if variable then Edge.set Edge.all_fixed Dir.North Edge.Variable
      else Edge.all_fixed
    in
    let _ =
      Lobj.add_shape main ~layer:"metal1"
        ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 10.))
        ~net:"d" ~sides ()
    in
    let _ =
      Lobj.add_shape main ~layer:"metal1"
        ~rect:(Rect.of_size ~x:(um 4.) ~y:0 ~w:(um 2.) ~h:(um 6.))
        ~net:"s" ()
    in
    main
  in
  let strap () = bar ~name:"strap" ~layer:"metal1" ~net:"s" ~x:0 ~y:0 ~w:(um 6.) ~h:(um 2.) () in
  let fixed_main = make_main false in
  Successive.compact ~rules ~into:fixed_main (strap ()) Dir.South;
  let var_main = make_main true in
  Successive.compact ~rules ~into:var_main (strap ()) Dir.South;
  let h obj = match Lobj.bbox obj with Some r -> Rect.height r | None -> 0 in
  check_bool "variable edges denser" true (h var_main < h fixed_main);
  (* The variable bar shrank but not below the metal minimum width. *)
  let d_bar =
    List.find
      (fun (s : Shape.t) -> s.Shape.net = Some "d")
      (Lobj.shapes var_main)
  in
  check_bool "shrunk" true (Rect.height d_bar.Shape.rect < um 10.);
  check_bool "not below min" true (Rect.height d_bar.Shape.rect >= um 1.5)

let test_cuts_never_stretched () =
  let rules = rules () in
  let main = Lobj.create "main" in
  let _ =
    Lobj.add_shape main ~layer:"contact" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 1.) ~h:(um 1.)) ~net:"a" ()
  in
  let mover = bar ~name:"m" ~layer:"contact" ~net:"a" ~x:0 ~y:(um 5.) ~w:(um 1.) ~h:(um 1.) () in
  Successive.compact ~rules ~into:main mover Dir.South;
  List.iter
    (fun (s : Shape.t) ->
      check "cut width" (um 1.) (Rect.width s.Shape.rect);
      check "cut height" (um 1.) (Rect.height s.Shape.rect))
    (Lobj.shapes_on main "contact")

let test_shrink_never_empties_array () =
  (* Regression: a variable-edge shrink that would slide a contact array's
     containers apart (leaving it cut-less and the structure disconnected)
     must be rolled back. *)
  let e = Amg_core.Env.bicmos () in
  let rules = rules () in
  let main = Lobj.create "main" in
  (* A contact row whose metal is fully variable. *)
  let row =
    Amg_modules.Contact_row.make e ~layer:"ndiff" ~w:(um 12.)
      ~net:"s" ~var_edges:[ Dir.North; Dir.South ] ()
  in
  Successive.compact ~rules ~into:main row Dir.West;
  (* A foreign strap pressing from the south wants the metal's south edge
     far up. *)
  let strap = bar ~name:"strap" ~layer:"metal1" ~net:"d" ~x:(- um 2.) ~y:0 ~w:(um 8.) ~h:(um 2.) () in
  Successive.compact ~rules ~into:main strap Dir.North;
  (* The row must still have its contacts connecting metal to diffusion. *)
  let conn = Amg_extract.Connectivity.build ~tech:(tech ()) main in
  check "row still connected" 1 (Amg_extract.Connectivity.label_node_count conn "s");
  check_bool "contacts survive" true (Lobj.shapes_on main "contact" <> [])

(* --- edge-graph baseline --- *)

let test_edge_graph_solve () =
  let g =
    { Edge_graph.node_count = 3;
      arcs =
        [ { Edge_graph.src = 0; dst = 1; weight = 10 };
          { Edge_graph.src = 1; dst = 2; weight = 5 };
          { Edge_graph.src = 0; dst = 2; weight = 20 } ] }
  in
  let pos = Edge_graph.solve g in
  check "node0" 0 pos.(0);
  check "node1" 10 pos.(1);
  check "node2 longest path" 20 pos.(2)

let test_edge_graph_positive_cycle () =
  let g =
    { Edge_graph.node_count = 2;
      arcs =
        [ { Edge_graph.src = 0; dst = 1; weight = 1 };
          { Edge_graph.src = 1; dst = 0; weight = 1 } ] }
  in
  Alcotest.check_raises "cycle"
    (Failure "Edge_graph.solve: positive cycle in constraints") (fun () ->
      ignore (Edge_graph.solve g))

let test_edge_graph_compacts () =
  let rules = rules () in
  (* Three spaced-out metal bars compact to minimum pitch. *)
  let o = Lobj.create "loose" in
  List.iteri
    (fun i net ->
      ignore
        (Lobj.add_shape o ~layer:"metal1"
           ~rect:(Rect.of_size ~x:(i * um 10.) ~y:0 ~w:(um 2.) ~h:(um 5.))
           ~net ()))
    [ "a"; "b"; "c" ];
  let before = Lobj.bbox_exn o in
  let _ = Edge_graph.compact_xy ~rules o in
  let after = Lobj.bbox_exn o in
  check "compacted width" (um 9.) (Rect.width after);
  check_bool "smaller" true (Rect.width after < Rect.width before);
  (* Still legal. *)
  check "drc"
    0
    (List.length
       (Amg_drc.Checker.run ~checks:[ Amg_drc.Checker.Spacings ] ~tech:(tech ()) o))

let test_edge_graph_rigid_connectivity () =
  let rules = rules () in
  (* Touching same-net shapes keep their relative offset. *)
  let o = Lobj.create "conn" in
  let _ =
    Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 20.) ~y:0 ~w:(um 2.) ~h:(um 5.)) ~net:"a" ()
  in
  let _ =
    Lobj.add_shape o ~layer:"metal1"
      ~rect:(Rect.of_size ~x:(um 22.) ~y:0 ~w:(um 2.) ~h:(um 5.))
      ~net:"a" ()
  in
  let _ = Edge_graph.compact_axis ~rules o Dir.Horizontal in
  let rects = List.map (fun (s : Shape.t) -> s.Shape.rect) (Lobj.shapes o) in
  (match rects with
  | [ a; b ] ->
      check "moved to origin" 0 a.Rect.x0;
      check "offset preserved" (um 2.) b.Rect.x0
  | _ -> Alcotest.fail "two rects")

(* --- property: any compaction sequence is design-rule clean --- *)

(* Random one-shape objects on routing layers with random nets, compacted
   in random directions: the resulting structure must pass the spacing
   check.  This ties the compactor's placement arithmetic to the DRC's
   L-inf semantics — they must agree exactly. *)
let prop_compaction_always_clean =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 7)
        (tup4
           (oneofl [ "metal1"; "metal2"; "poly" ])
           (oneofl [ Some "a"; Some "b"; Some "c"; None ])
           (tup2 (int_range 1 8) (int_range 1 8))
           (oneofl Dir.all)))
  in
  QCheck2.Test.make ~name:"compaction sequence always DRC clean" ~count:200 gen
    (fun specs ->
      let rules = rules () in
      let main = Lobj.create "prop" in
      List.iteri
        (fun i (layer, net, (w, h), dir) ->
          let o = Lobj.create (Printf.sprintf "o%d" i) in
          let _ =
            Lobj.add_shape o ~layer
              ~rect:
                (Amg_geometry.Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int w))
                   ~h:(um (float_of_int h)))
              ?net ()
          in
          Successive.compact ~rules ~into:main ~align:`Center o dir)
        specs;
      Amg_drc.Checker.run ~checks:[ Amg_drc.Checker.Spacings ] ~tech:(tech ()) main
      = [])

(* Variable edges must never shrink a shape below its layer's minimum
   width, whatever the compaction sequence. *)
let prop_variable_edges_respect_min_width =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 6)
        (tup3
           (oneofl [ Some "a"; Some "b"; Some "c"; None ])
           (tup2 (int_range 2 8) (int_range 2 10))
           (oneofl Dir.all)))
  in
  QCheck2.Test.make ~name:"variable edges respect minimum width" ~count:200 gen
    (fun specs ->
      let rules = rules () in
      let main = Lobj.create "prop" in
      List.iteri
        (fun i (net, (w, h), dir) ->
          let o = Lobj.create (Printf.sprintf "o%d" i) in
          let _ =
            Lobj.add_shape o ~layer:"metal1"
              ~rect:
                (Amg_geometry.Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int w))
                   ~h:(um (float_of_int h)))
              ?net ~sides:Edge.all_variable ()
          in
          Successive.compact ~rules ~into:main ~align:`Center o dir)
        specs;
      List.for_all
        (fun (s : Shape.t) ->
          min (Amg_geometry.Rect.width s.Shape.rect)
            (Amg_geometry.Rect.height s.Shape.rect)
          >= um 1.5)
        (Lobj.shapes main))


(* The final abutment position does not depend on where the mover starts
   along the movement axis: delta is linear in the start position. *)
let prop_delta_translation_linear =
  let gen =
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 5)
           (tup3
              (oneofl [ "metal1"; "metal2"; "poly" ])
              (tup2 (int_range 0 20) (int_range 0 20))
              (tup2 (int_range 1 6) (int_range 1 6))))
        (oneofl Dir.all)
        (int_range (-15) 15))
  in
  QCheck2.Test.make ~name:"delta linear in start position" ~count:200 gen
    (fun (mains, dir, t) ->
      let rules = rules () in
      let main = Lobj.create "main" in
      List.iter
        (fun (layer, (x, y), (w, h)) ->
          ignore
            (Lobj.add_shape main ~layer
               ~rect:
                 (Rect.of_size ~x:(um (float_of_int x)) ~y:(um (float_of_int y))
                    ~w:(um (float_of_int w)) ~h:(um (float_of_int h)))
               ()))
        mains;
      let mover = Lobj.create "mover" in
      ignore
        (Lobj.add_shape mover ~layer:"metal1"
           ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) ());
      let d0 = Successive.delta rules dir ~main mover in
      let tn = um (float_of_int t) in
      (match Dir.axis dir with
      | Dir.Horizontal -> Lobj.translate mover ~dx:tn ~dy:0
      | Dir.Vertical -> Lobj.translate mover ~dx:0 ~dy:tn);
      let d1 = Successive.delta rules dir ~main mover in
      d1 = d0 - tn)

let suite =
  [
    Alcotest.test_case "relation classification" `Quick test_relation;
    Alcotest.test_case "compact to spacing" `Quick test_compact_spacing;
    Alcotest.test_case "compact merge same net" `Quick test_compact_merge_same_net;
    Alcotest.test_case "compact into empty" `Quick test_compact_empty_main;
    Alcotest.test_case "alignments" `Quick test_compact_align;
    Alcotest.test_case "stage outside prevents tunneling" `Quick test_stage_outside_prevents_tunneling;
    Alcotest.test_case "auto connect stretches" `Quick test_auto_connect;
    Alcotest.test_case "variable edges (fig5)" `Quick test_variable_edges_fig5;
    Alcotest.test_case "cuts never stretched" `Quick test_cuts_never_stretched;
    Alcotest.test_case "shrink never empties arrays" `Quick test_shrink_never_empties_array;
    Alcotest.test_case "edge graph longest path" `Quick test_edge_graph_solve;
    Alcotest.test_case "edge graph cycle detection" `Quick test_edge_graph_positive_cycle;
    Alcotest.test_case "edge graph compacts" `Quick test_edge_graph_compacts;
    Alcotest.test_case "edge graph rigid connectivity" `Quick test_edge_graph_rigid_connectivity;
    QCheck_alcotest.to_alcotest prop_compaction_always_clean;
    QCheck_alcotest.to_alcotest prop_variable_edges_respect_min_width;
    QCheck_alcotest.to_alcotest prop_delta_translation_linear;
  ]
