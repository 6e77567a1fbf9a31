(* The successive compactor: constraint relations, placement, merging,
   auto-connection and variable edges. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Edge = Amg_layout.Edge
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Constraints = Amg_compact.Constraints
module Successive = Amg_compact.Successive
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


(* --- copy-free placement = the mutating compact on a copy --- *)

(* A random object over layers both decks have, in 0.5 um steps: plain
   shapes (some keep-clear, some with variable edges) and contacts (a
   metal1 container and a pdiff or poly landing container of one
   registered contact array, with variable edges on either).  Nets come
   from one pool, so a mover shares nets with its main structure.  Shapes
   are up to [size] steps wide, placed near the origin, so a mover as
   generated overlaps its main structure, and a shape of one often
   contains a shape of the other. *)
let gen_placement_obj ~size =
  QCheck2.Gen.(
    let net = oneofl [ Some "a"; Some "b"; Some "c"; None ] in
    let at = tup2 (int_range 0 16) (int_range 0 16) in
    let sides =
      map
        (fun vars ->
          List.fold_left2
            (fun acc d v -> if v then Edge.set acc d Edge.Variable else acc)
            Edge.all_fixed Dir.all vars)
        (list_repeat 4 (frequency [ (2, return false); (1, return true) ]))
    in
    let plain =
      let* layer = oneofl [ "metal1"; "metal2"; "poly"; "pdiff"; "ndiff"; "nwell" ] in
      let* pos = at and* size = tup2 (int_range 1 size) (int_range 1 size) in
      let* net = net and* sides = sides in
      let* keep_clear = frequency [ (5, return false); (1, return true) ] in
      return (`Plain (layer, pos, size, net, sides, keep_clear))
    in
    let contact =
      let* landing = oneofl [ "pdiff"; "poly" ] in
      let* pos = at and* size = tup2 (int_range 4 12) (int_range 4 12) in
      let* net = oneofl [ "a"; "b"; "c" ] in
      let* metal_sides = sides and* landing_sides = sides in
      return (`Contact (landing, pos, size, net, metal_sides, landing_sides))
    in
    list_size (int_range 1 6) (frequency [ (3, plain); (1, contact) ]))

let build_placement_obj rules name pieces =
  let o = Lobj.create name in
  let rect (x, y) (w, h) = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
  List.iter
    (function
      | `Plain (layer, pos, size, net, sides, keep_clear) ->
          ignore (Lobj.add_shape o ~layer ~rect:(rect pos size) ?net ~sides ~keep_clear ())
      | `Contact (landing, pos, size, net, metal_sides, landing_sides) ->
          let m =
            Lobj.add_shape o ~layer:"metal1" ~rect:(rect pos size) ~net ~sides:metal_sides ()
          in
          let l =
            Lobj.add_shape o ~layer:landing ~rect:(rect pos size) ~net ~sides:landing_sides ()
          in
          ignore
            (Lobj.register_array o ~cut_layer:"contact"
               ~container_ids:[ m.Shape.id; l.Shape.id ] ~net ()))
    pieces;
  Lobj.rederive o rules;
  o

(* [compact_readonly] must leave the main structure byte-identical to
   [compact] of a copy of the mover (the same Lobj.pp and CIF bytes, and
   the same exception or diagnostics) without touching the mover, in
   both decks, in all four directions under all four aligns, under both
   policies; a third of the cases arm one injected fault (a rule lookup,
   index query or contact rebuild), which must strike all runs alike.

   Both entries run one pipeline, so a slip in reading the mover through
   its displacement would show in neither.  A third run catches it: the
   placement does not depend on where the mover starts, along the
   movement axis under [`Keep] and anywhere under the other aligns, so
   placing a copy translated far away (whose stored position is nowhere
   near where the mover as generated stands, over its main structure)
   must leave the same bytes.

   The cases must reach both reasons to copy a read-only mover, a shrink
   of one of its variable edges and auto-connection partners, and
   auto-connection must stretch shapes; those counts are pinned from
   below. *)
let test_readonly_equals_copy () =
  let module Policy = Amg_robust.Policy in
  let module Inject = Amg_robust.Inject in
  let module Obs = Amg_obs.Obs in
  let decks =
    [| ("bicmos1u", Amg_tech.Bicmos1u.get ()); ("cmos08", Amg_tech.Cmos08.get ()) |]
  in
  let fault =
    QCheck2.Gen.(
      frequency
        [
          (2, return []);
          ( 1,
            map2
              (fun site hit -> [ (site, hit) ])
              (oneofl Inject.[ Rule_lookup; Sindex_query; Contact_rebuild ])
              (int_range 1 30) );
        ])
  in
  let far =
    QCheck2.Gen.(
      frequency [ (1, return 0); (1, int_range 60 100); (1, int_range (-100) (-60)) ])
  in
  let gen =
    QCheck2.Gen.(
      tup5
        (tup2 (int_range 0 1) (frequency [ (3, return false); (1, return true) ]))
        (gen_placement_obj ~size:16) (gen_placement_obj ~size:8) (tup2 far far) fault)
  in
  let n = 150 in
  let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n gen in
  let placements = ref 0 and shrinks = ref 0 and connects = ref 0 in
  let stretches = ref 0 and raised = ref 0 and diagnosed = ref 0 in
  List.iteri
    (fun k ((deck, permissive), main_pieces, mover_pieces, at, schedule) ->
      let deck_name, tech = decks.(deck) in
      let rules = Technology.rules tech in
      let main = build_placement_obj rules "main" main_pieces in
      let mover = build_placement_obj rules "mover" mover_pieces in
      let bytes o =
        String.concat "\n"
          [ Fmt.str "%a" Lobj.pp o; Amg_layout.Cif.of_lobj ~tech o;
            string_of_int (Lobj.id_bound o) ]
      in
      let mover_before = bytes mover in
      let outcome f =
        Policy.set_mode (if permissive then Policy.Permissive else Policy.Strict);
        Inject.arm schedule;
        Fun.protect
          ~finally:(fun () ->
            Inject.disarm ();
            Policy.set_mode Policy.Strict)
        @@ fun () ->
        match Policy.capture f with
        | (), diags -> Ok (List.map Amg_robust.Diag.to_json diags)
        | exception e -> Error (Printexc.to_string e)
      in
      List.iter
        (fun d ->
          List.iter
            (fun (align_name, align) ->
              let into_ro = Lobj.copy main and into_mut = Lobj.copy main in
              let into_far = Lobj.copy main and far = Lobj.copy mover in
              (let dx = fst at * 500 and dy = snd at * 500 in
               match (align, Dir.axis d) with
               | `Keep, Dir.Horizontal -> Lobj.translate far ~dx ~dy:0
               | `Keep, Dir.Vertical -> Lobj.translate far ~dx:0 ~dy
               | _ -> Lobj.translate far ~dx ~dy);
              Obs.reset ();
              Obs.enable ();
              let ro =
                Fun.protect ~finally:Obs.disable (fun () ->
                    outcome (fun () ->
                        Successive.compact_readonly ~rules ~into:into_ro ~align
                          (Successive.digest mover d)))
              in
              incr placements;
              if Obs.counter "compact.mover_copies_shrink" > 0 then incr shrinks;
              if Obs.counter "compact.mover_copies_connect" > 0 then incr connects;
              if Obs.counter "compact.same_potential_merges" > 0 then incr stretches;
              Obs.reset ();
              let mut =
                outcome (fun () ->
                    Successive.compact ~rules ~into:into_mut ~align (Lobj.copy mover) d)
              in
              let moved =
                outcome (fun () ->
                    Successive.compact_readonly ~rules ~into:into_far ~align
                      (Successive.digest far d))
              in
              (match ro with
              | Error _ -> incr raised
              | Ok (_ :: _) -> incr diagnosed
              | Ok [] -> ());
              let show = function
                | Ok ds -> String.concat ";" ds
                | Error e -> "raised " ^ e
              in
              let differs what a b =
                if not (String.equal a b) then
                  Alcotest.failf "case %d (%s, %s, align %s%s): %s differs:\n%s\nvs\n%s" k
                    deck_name (Dir.to_string d) align_name
                    (if permissive then ", permissive" else "")
                    what a b
              in
              differs "outcome" (show mut) (show ro);
              differs "main" (bytes into_mut) (bytes into_ro);
              differs "outcome of the far mover" (show ro) (show moved);
              differs "main of the far mover" (bytes into_ro) (bytes into_far);
              differs "mover" mover_before (bytes mover))
            [ ("keep", `Keep); ("center", `Center); ("min", `Min); ("max", `Max) ])
        Dir.all)
    cases;
  Printf.printf
    "placements %d: mover shrinks %d, auto-connections %d (stretching %d), raised %d, \
     diagnosed %d\n"
    !placements !shrinks !connects !stretches !raised !diagnosed;
  Alcotest.(check int) "placements" (n * 16) !placements;
  Alcotest.(check bool) "mover shrinks copy the mover" true (!shrinks >= 200);
  Alcotest.(check bool) "auto-connections copy the mover" true (!connects >= 200);
  Alcotest.(check bool) "auto-connections stretch shapes" true (!stretches >= 50);
  Alcotest.(check bool) "faults raise" true (!raised >= 50);
  Alcotest.(check bool) "faults are diagnosed" true (!diagnosed >= 10)

(* --- the extension check against the list-based reference ---

   Random main structures and movers ([gen_placement_obj]: keep-clear
   shapes, contact arrays, shared nets) in both decks, the mover
   displaced by up to 10 um, under a random [ignore_layers].  One
   [Successive.extension_safe] checker, as one auto-connection call
   holds, asks about several stretches of main shapes in turn, so its
   classification memo serves pairs classified for an earlier stretch.
   Each verdict must equal [Test_util.reference_extension_safe]'s, and
   each check must make as many index queries ([sindex.queries] under
   Obs), which pins where an injected [sindex-query] fault strikes.
   Both verdicts must occur; their counts are pinned from below. *)
let prop_extension_safe_matches_reference =
  let module Obs = Amg_obs.Obs in
  let gen =
    QCheck2.Gen.(
      let* deck = bool in
      let* main = gen_placement_obj ~size:16 and* mover = gen_placement_obj ~size:8 in
      let* at = pair (int_range (-20) 20) (int_range (-20) 20) in
      let* ignore_layers =
        list_size (int_range 0 2) (oneofl [ "metal1"; "metal2"; "poly"; "pdiff"; "nwell" ])
      in
      let* probes =
        list_size (int_range 1 6) (triple (int_range 0 40) (oneofl Dir.all) (int_range 1 12))
      in
      return (deck, main, mover, at, ignore_layers, probes))
  in
  let safe = ref 0 and unsafe = ref 0 in
  let test =
    QCheck2.Test.make ~name:"extension check = list-based reference" ~count:300 gen
      (fun (deck, main_pieces, mover_pieces, (dx, dy), ignore_layers, probes) ->
        let tech = if deck then Amg_tech.Bicmos1u.get () else Amg_tech.Cmos08.get () in
        let rules = Technology.rules tech in
        let main = build_placement_obj rules "main" main_pieces in
        let obj = build_placement_obj rules "mover" mover_pieces in
        Lobj.translate obj ~dx:(dx * 500) ~dy:(dy * 500);
        let main' = Lobj.copy main and obj' = Lobj.copy obj in
        let check = Successive.extension_safe rules ~ignore_layers () in
        let ids = Array.of_list (List.map (fun (s : Shape.t) -> s.Shape.id) (Lobj.shapes main)) in
        let queries f =
          Obs.reset ();
          Obs.enable ();
          let v = Fun.protect ~finally:Obs.disable f in
          (v, Obs.counter "sindex.queries")
        in
        List.for_all
          (fun (k, facing, steps) ->
            let id = ids.(k mod Array.length ids) in
            let s = Lobj.find_exn main id and s' = Lobj.find_exn main' id in
            let r' = Rect.grow_side s.Shape.rect facing (steps * 500) in
            let got, q = queries (fun () -> check ~main ~obj s r') in
            let want, q' =
              queries (fun () ->
                  Test_util.reference_extension_safe rules ~ignore_layers ~main:main' ~obj:obj' s'
                    r')
            in
            incr (if want then safe else unsafe);
            if got <> want || q <> q' then
              QCheck2.Test.fail_reportf "shape %d grown %s by %d: %b with %d queries, reference %b with %d"
                id (Dir.to_string facing) steps got q want q'
            else true)
          probes)
  in
  (* QCHECK_SEED, as the other properties read it, or a fixed seed. *)
  let seed =
    Option.value ~default:7 (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
  in
  let run () =
    QCheck2.Test.check_exn ~rand:(Random.State.make [| seed |]) test;
    Printf.printf "stretches: %d safe, %d not\n" !safe !unsafe;
    Alcotest.(check bool) "some stretches are safe" true (!safe >= 100);
    Alcotest.(check bool) "some stretches are not" true (!unsafe >= 100)
  in
  Alcotest.test_case "extension check = list-based reference" `Quick run

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
    QCheck_alcotest.to_alcotest prop_compaction_always_clean;
    QCheck_alcotest.to_alcotest prop_variable_edges_respect_min_width;
    QCheck_alcotest.to_alcotest prop_delta_translation_linear;
    Alcotest.test_case "copy-free placement = compact of a copy" `Quick
      test_readonly_equals_copy;
    prop_extension_safe_matches_reference;
  ]
