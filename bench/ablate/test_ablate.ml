(* The ablation baselines: edge-graph compaction, the slicing floorplanner,
   the channel router and the coordinate-level generators.  The suite ids
   are those of the library suites these tests came from, so each test
   keeps its name in the report. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module M = Amg_modules
module Edge_graph = Amg_ablate.Edge_graph
module Channel = Amg_ablate.Channel
module Baseline = Amg_ablate.Baseline

let um = Units.of_um
let tech () = Amg_tech.Bicmos1u.get ()
let rules () = Amg_tech.Technology.rules (tech ())
let env () = Env.bicmos ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let drc ?(checks = [ Amg_drc.Checker.Widths; Spacings; Enclosures; Extensions ]) obj =
  List.length (Amg_drc.Checker.run ~checks ~tech:(Env.tech (env ())) obj)

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

(* --- slicing floorplanner --- *)

module F = Amg_ablate.Floorplan

let test_floorplan_basics () =
  let r =
    F.optimize
      [ F.block ~name:"a" ~w:(um 2.) ~h:(um 1.);
        F.block ~name:"b" ~w:(um 2.) ~h:(um 1.) ]
  in
  check "two blocks area" (um 2. * um 2.) r.F.area;
  (* Four blocks that tile perfectly: the DP finds the zero-waste packing. *)
  let blocks =
    [ F.block ~name:"big" ~w:(um 10.) ~h:(um 10.);
      F.block ~name:"wide" ~w:(um 10.) ~h:(um 5.);
      F.block ~name:"s1" ~w:(um 5.) ~h:(um 5.);
      F.block ~name:"s2" ~w:(um 5.) ~h:(um 5.) ]
  in
  let r = F.optimize blocks in
  let sum =
    List.fold_left (fun a b -> a + (b.F.fp_w * b.F.fp_h)) 0 blocks
  in
  check "zero waste" sum r.F.area;
  (* Placements: every block present, pairwise disjoint, inside the box. *)
  check "all placed" 4 (List.length r.F.positions);
  let rects = List.map snd r.F.positions in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then check_bool "disjoint" false (Rect.overlaps a b))
        rects)
    rects;
  let bbox = Rect.make ~x0:0 ~y0:0 ~x1:r.F.width ~y1:r.F.height in
  List.iter (fun rc -> check_bool "inside" true (Rect.contains_rect bbox rc)) rects;
  (* The aspect target steers the choice between transposed optima. *)
  let flat = F.optimize ~aspect:3.0 blocks in
  check_bool "flat wider than tall" true (flat.F.width > flat.F.height);
  (* Spacing at cuts. *)
  let sp =
    F.optimize ~spacing:(um 1.)
      [ F.block ~name:"a" ~w:(um 2.) ~h:(um 2.);
        F.block ~name:"b" ~w:(um 2.) ~h:(um 2.) ]
  in
  check "spacing added" (um 2. * um 5.) sp.F.area;
  Alcotest.check_raises "empty" (Amg_core.Env.Rejected "Floorplan: no blocks")
    (fun () -> ignore (F.optimize []))

(* Optimal slicing never loses to the row-stack baseline, placements are
   always disjoint, and the area is at least the blocks' total. *)
let prop_floorplan_optimal =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6) (tup2 (int_range 1 12) (int_range 1 12)))
  in
  QCheck2.Test.make ~name:"floorplan beats row baseline" ~count:200 gen
    (fun dims ->
      let blocks =
        List.mapi
          (fun i (w, h) ->
            F.block ~name:(string_of_int i) ~w:(um (float_of_int w))
              ~h:(um (float_of_int h)))
          dims
      in
      let r = F.optimize blocks in
      let sum = List.fold_left (fun a b -> a + (b.F.fp_w * b.F.fp_h)) 0 blocks in
      let rows = F.rows_area [ blocks ] in
      let rects = List.map snd r.F.positions in
      let disjoint =
        List.for_all
          (fun a ->
            List.for_all (fun b -> a == b || not (Rect.overlaps a b)) rects)
          rects
      in
      r.F.area >= sum && r.F.area <= rows && disjoint
      && List.length r.F.positions = List.length blocks)

(* --- detailed channel router --- *)

let test_channel_left_edge () =
  (* Disjoint intervals share a track; density is achieved. *)
  let spec =
    {
      Channel.top = [ (um 0., "a"); (um 10., "b"); (um 20., "c"); (um 40., "a") ];
      bottom = [ (um 5., "a"); (um 15., "b"); (um 30., "d"); (um 45., "d") ];
    }
  in
  check "density" 2 (Channel.density spec);
  let tracks, n = Channel.assign spec in
  check "tracks = density" 2 n;
  check "all nets placed" 4 (List.length tracks);
  (* b, c, d have pairwise-disjoint intervals: all on one track. *)
  let t net = List.assoc net tracks in
  check_bool "b c d share" true (t "b" = t "c" && t "c" = t "d");
  check_bool "a separate" true (t "a" <> t "b")

let test_channel_vcg () =
  (* A column with both pins orders the trunks. *)
  let spec =
    {
      Channel.top = [ (um 0., "x"); (um 20., "x") ];
      bottom = [ (um 0., "y"); (um 20., "y") ];
    }
  in
  check_bool "edge x above y" true (List.mem ("x", "y") (Channel.vcg spec));
  let tracks, n = Channel.assign spec in
  (* Overlapping intervals AND a vertical constraint: two tracks, x above. *)
  check "two tracks" 2 n;
  check_bool "x on top" true
    (List.assoc "x" tracks < List.assoc "y" tracks);
  (* Cyclic constraints are rejected. *)
  let cyc =
    { Channel.top = [ (0, "p"); (um 1., "q") ];
      bottom = [ (0, "q"); (um 1., "p") ] }
  in
  check_bool "cycle" true
    (match Channel.assign cyc with
    | exception Amg_robust.Diag.Fail d ->
        String.equal d.Amg_robust.Diag.message
          "cyclic vertical constraints (needs doglegs)"
    | _ -> false);
  (* Colliding pins on one edge are rejected. *)
  let clash =
    { Channel.top = [ (0, "p"); (0, "q") ]; bottom = [] }
  in
  check_bool "clash rejected" true
    (match Channel.assign clash with
    | exception Amg_robust.Diag.Fail _ -> true
    | _ -> false)

let test_channel_route_geometry () =
  let env = env () in
  let spec =
    {
      Channel.top = [ (um 0., "a"); (um 10., "b"); (um 20., "c"); (um 40., "a") ];
      bottom = [ (um 5., "a"); (um 15., "b"); (um 30., "d"); (um 45., "d") ];
    }
  in
  let obj = Amg_layout.Lobj.create "chan" in
  let r = Channel.route env obj ~spec ~y_top:(um 40.) ~y_bottom:0 ~x0:0 in
  check "two tracks" 2 r.Channel.track_count;
  (* Rule-clean and every net one electrical node. *)
  let tech = Env.tech env in
  check "drc" 0
    (List.length
       (Amg_drc.Checker.run
          ~checks:[ Amg_drc.Checker.Widths; Spacings; Enclosures ] ~tech obj));
  let conn = Amg_extract.Connectivity.build ~tech obj in
  List.iter
    (fun net ->
      check ("one node " ^ net) 1
        (List.length (Amg_extract.Connectivity.label_components conn net)))
    (Channel.nets_of spec);
  (* Too-short channels are refused rather than mis-built. *)
  check_bool "short refused" true
    (match
       Channel.route env (Amg_layout.Lobj.create "x") ~spec ~y_top:(um 5.)
         ~y_bottom:0 ~x0:0
     with
    | exception Amg_robust.Diag.Fail _ -> true
    | _ -> false)

let test_channel_doglegs () =
  let env = env () in
  (* Whole-net cyclic VCG, breakable by splitting net a at its internal
     pin: the classic dogleg case. *)
  let spec =
    {
      Channel.top = [ (um 0., "a"); (um 20., "b") ];
      bottom = [ (um 0., "b"); (um 10., "a"); (um 20., "a") ];
    }
  in
  check_bool "plain is cyclic" true
    (match Channel.assign spec with
    | exception Amg_robust.Diag.Fail _ -> true
    | _ -> false);
  let segs, tracks, n = Channel.assign_dogleg spec in
  check "three segments" 3 (List.length segs);
  check "three tracks" 3 n;
  (* a#0 above b, b above a#1 — the cycle resolved across the segments. *)
  check_bool "a0 above b" true (List.assoc "a#0" tracks < List.assoc "b#0" tracks);
  check_bool "b above a1" true (List.assoc "b#0" tracks < List.assoc "a#1" tracks);
  (* The geometry is rule-clean and each net one node despite the split. *)
  let obj = Amg_layout.Lobj.create "dog" in
  let _ = Channel.route_dogleg env obj ~spec ~y_top:(um 40.) ~y_bottom:0 ~x0:0 in
  let tech = Env.tech env in
  check "drc" 0
    (List.length
       (Amg_drc.Checker.run
          ~checks:[ Amg_drc.Checker.Widths; Spacings; Enclosures ] ~tech obj));
  let conn = Amg_extract.Connectivity.build ~tech obj in
  List.iter
    (fun net ->
      check ("one node " ^ net) 1
        (List.length (Amg_extract.Connectivity.label_components conn net)))
    [ "a"; "b" ]

let test_channel_dogleg_density_escape () =
  (* A long net pinned at both ends plus short nets under it: without
     doglegs the long net occupies one full track; with doglegs its two
     spans share tracks with the short nets. *)
  let spec =
    {
      Channel.top =
        [ (um 0., "long"); (um 20., "long"); (um 40., "long") ];
      bottom = [ (um 10., "s1"); (um 30., "s2") ];
    }
  in
  let _, plain = Channel.assign spec in
  let _, _, dog = Channel.assign_dogleg spec in
  check_bool "doglegs never worse" true (dog <= plain)


(* Track assignment is always legal: no two nets with overlapping intervals
   share a track, every VCG edge is respected, and the track count never
   beats the density lower bound. *)
let prop_channel_legal =
  let gen =
    QCheck2.Gen.(
      tup2
        (list_size (int_range 1 8) (tup2 (int_range 0 9) (int_range 0 4)))
        (list_size (int_range 1 8) (tup2 (int_range 0 9) (int_range 0 4))))
  in
  QCheck2.Test.make ~name:"channel assignment legal" ~count:300 gen
    (fun (top_raw, bot_raw) ->
      let dedup pins =
        (* One pin per column per edge (the router rejects collisions). *)
        List.sort_uniq (fun (x, _) (x', _) -> compare x x') pins
      in
      let net i = Printf.sprintf "n%d" i in
      let spec =
        {
          Channel.top = dedup (List.map (fun (x, n) -> (x * 2000, net n)) top_raw);
          bottom = dedup (List.map (fun (x, n) -> (x * 2000, net n)) bot_raw);
        }
      in
      match Channel.assign spec with
      | exception Amg_robust.Diag.Fail _ -> true (* cyclic: rejection is legal *)
      | tracks, count ->
          let iv = Hashtbl.create 8 in
          List.iter
            (fun (x, n) ->
              let lo, hi =
                match Hashtbl.find_opt iv n with
                | Some (lo, hi) -> (min lo x, max hi x)
                | None -> (x, x)
              in
              Hashtbl.replace iv n (lo, hi))
            (spec.Channel.top @ spec.Channel.bottom);
          let overlap a b =
            let la, ha = Hashtbl.find iv a and lb, hb = Hashtbl.find iv b in
            not (ha < lb || hb < la)
          in
          let no_track_clash =
            List.for_all
              (fun (a, ta) ->
                List.for_all
                  (fun (b, tb) ->
                    String.equal a b || ta <> tb || not (overlap a b))
                  tracks)
              tracks
          in
          let vcg_ok =
            List.for_all
              (fun (a, b) -> List.assoc a tracks < List.assoc b tracks)
              (Channel.vcg spec)
          in
          no_track_clash && vcg_ok && count >= Channel.density spec)

(* CLAIM-CODE prints Baseline's line counts: the non-blank lines strictly
   between a region's BEGIN and END markers in baseline.ml.  Recount them,
   so a constant cannot drift from the source. *)
let region_line_count lines ~mark =
  let marker word l = String.ends_with ~suffix:(word ^ " " ^ mark ^ " *)") l in
  let rec skip = function
    | [] -> Alcotest.failf "no BEGIN %s marker" mark
    | l :: tl -> if marker "BEGIN" l then count 0 tl else skip tl
  and count n = function
    | [] -> Alcotest.failf "no END %s marker" mark
    | l :: tl -> if marker "END" l then n else count (if l = "" then n else n + 1) tl
  in
  skip (List.map String.trim lines)

let test_baseline_equivalence () =
  let e = env () in
  (* The coordinate-level generator produces the same contact row. *)
  let base = Baseline.contact_row e ~layer:"poly" ~w:(um 2.) ~l:(um 10.) () in
  let dsl = M.Contact_row.make e ~layer:"poly" ~w:(um 2.) ~l:(um 10.) () in
  check "same contacts"
    (List.length (Lobj.shapes_on dsl "contact"))
    (List.length (Lobj.shapes_on base "contact"));
  check_bool "same bbox" true (Lobj.bbox base = Lobj.bbox dsl);
  check "baseline drc" 0 (drc base);
  let bdp = Baseline.diff_pair e ~w:(um 10.) ~l:(um 5.) () in
  check "baseline diff pair drc" 0 (drc bdp);
  (* The code-length claim, from the source the bench counts. *)
  let lines =
    In_channel.with_open_text "baseline.ml" In_channel.input_all
    |> String.split_on_char '\n'
  in
  check "contact row region" (region_line_count lines ~mark:"baseline_contact_row")
    Baseline.contact_row_loc;
  check "diff pair region" (region_line_count lines ~mark:"baseline_diff_pair")
    Baseline.diff_pair_loc;
  (* FIG10's module E source length, from the file itself. *)
  check "common centroid source"
    (In_channel.with_open_text "../../lib/modules/common_centroid.ml" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.length)
    Baseline.common_centroid_loc;
  (* The paper's headline: the hierarchical description is drastically
     shorter than coordinate-level code. *)
  let dsl_lines =
    String.split_on_char '\n' Amg_lang.Stdlib.diff_pair
    |> List.filter (fun l -> String.trim l <> "")
    |> List.length
  in
  check_bool "dsl much shorter than baseline" true
    (Baseline.diff_pair_loc > 2 * dsl_lines)

let () =
  Alcotest.run "amg_ablate"
    [
      ( "compact",
        [
          Alcotest.test_case "edge graph longest path" `Quick test_edge_graph_solve;
          Alcotest.test_case "edge graph cycle detection" `Quick
            test_edge_graph_positive_cycle;
          Alcotest.test_case "edge graph compacts" `Quick test_edge_graph_compacts;
          Alcotest.test_case "edge graph rigid connectivity" `Quick
            test_edge_graph_rigid_connectivity;
        ] );
      ( "core",
        [
          Alcotest.test_case "slicing floorplanner" `Quick test_floorplan_basics;
          QCheck_alcotest.to_alcotest prop_floorplan_optimal;
        ] );
      ( "route",
        [
          Alcotest.test_case "channel: left edge packing" `Quick test_channel_left_edge;
          Alcotest.test_case "channel: doglegs break cycles" `Quick test_channel_doglegs;
          Alcotest.test_case "channel: doglegs never worse" `Quick
            test_channel_dogleg_density_escape;
          Alcotest.test_case "channel: vertical constraints" `Quick test_channel_vcg;
          Alcotest.test_case "channel: geometry clean" `Quick test_channel_route_geometry;
          QCheck_alcotest.to_alcotest prop_channel_legal;
        ] );
      ( "modules",
        [
          Alcotest.test_case "baseline equivalence" `Quick test_baseline_equivalence;
        ] );
    ]
