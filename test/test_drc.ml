(* The design-rule checker: every violation class triggered deliberately,
   plus the latch-up cover check of Fig. 1. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Checker = Amg_drc.Checker
module Violation = Amg_drc.Violation
module Latchup = Amg_drc.Latchup

let um = Units.of_um
let tech () = Amg_tech.Bicmos1u.get ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let add o ~layer ?net ~x ~y ~w ~h () =
  ignore (Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x ~y ~w ~h) ?net ())

let kind_name (v : Violation.t) =
  match v.Violation.kind with
  | Violation.Width _ -> "width"
  | Violation.Spacing _ -> "spacing"
  | Violation.Short _ -> "short"
  | Violation.Enclosure _ -> "enclosure"
  | Violation.Extension _ -> "extension"
  | Violation.Cut_size _ -> "cut_size"
  | Violation.Min_area _ -> "min_area"
  | Violation.Latchup _ -> "latchup"

let kinds vios = List.sort_uniq compare (List.map kind_name vios)

let test_clean_object () =
  let o = Lobj.create "clean" in
  add o ~layer:"metal1" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"metal1" ~x:(um 4.) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  check "no violations" 0
    (List.length (Checker.run ~checks:[ Widths; Spacings; Enclosures; Extensions ] ~tech:(tech ()) o))

let test_width () =
  let o = Lobj.create "w" in
  add o ~layer:"metal1" ~x:0 ~y:0 ~w:(um 1.) ~h:(um 10.) ();
  let vios = Checker.check_widths ~tech:(tech ()) o in
  check_bool "width violation" true (kinds vios = [ "width" ])

let test_cut_size () =
  let o = Lobj.create "c" in
  add o ~layer:"contact" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 1.) ();
  let vios = Checker.check_widths ~tech:(tech ()) o in
  check_bool "cut size violation" true (kinds vios = [ "cut_size" ])

let test_spacing () =
  let o = Lobj.create "s" in
  add o ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"metal1" ~net:"b" ~x:(um 3.) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  let vios = Checker.check_spacings ~tech:(tech ()) o in
  check_bool "spacing violation" true (kinds vios = [ "spacing" ]);
  (* L-inf: a large diagonal offset clears it. *)
  let o2 = Lobj.create "s2" in
  add o2 ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o2 ~layer:"metal1" ~net:"b" ~x:(um 3.) ~y:(um 4.) ~w:(um 2.) ~h:(um 2.) ();
  check "diagonal ok" 0 (List.length (Checker.check_spacings ~tech:(tech ()) o2))

let test_short () =
  let o = Lobj.create "sh" in
  add o ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"metal1" ~net:"b" ~x:(um 2.) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  let vios = Checker.check_spacings ~tech:(tech ()) o in
  check_bool "short" true (kinds vios = [ "short" ])

let test_connected_component_merging () =
  (* Two same-net far-apart bars joined by a third: no spacing violation
     inside one connected region. *)
  let o = Lobj.create "comp" in
  add o ~layer:"metal1" ~net:"a" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"metal1" ~net:"a" ~x:(um 2.5) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  (* 0.5 < 1.5 apart but both net a: mergeable relation, no violation. *)
  check "same net close" 0 (List.length (Checker.check_spacings ~tech:(tech ()) o));
  (* The same geometry with unknown nets joined by a bridge. *)
  let o2 = Lobj.create "comp2" in
  add o2 ~layer:"metal1" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o2 ~layer:"metal1" ~x:(um 2.5) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  check "unknown nets close" 1 (List.length (Checker.check_spacings ~tech:(tech ()) o2));
  add o2 ~layer:"metal1" ~x:(um 1.) ~y:(um 1.) ~w:(um 2.) ~h:(um 2.) ();
  check "bridged" 0 (List.length (Checker.check_spacings ~tech:(tech ()) o2))

let test_enclosure () =
  let o = Lobj.create "e" in
  (* Contact landing on poly but with no metal1 over it. *)
  add o ~layer:"poly" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"contact" ~x:(um 0.5) ~y:(um 0.5) ~w:(um 1.) ~h:(um 1.) ();
  let vios = Checker.check_enclosures ~tech:(tech ()) o in
  check "missing metal" 1 (List.length vios);
  (* Adding the metal fixes it. *)
  add o ~layer:"metal1" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  check "fixed" 0 (List.length (Checker.check_enclosures ~tech:(tech ()) o));
  (* A contact with metal but no landing layer. *)
  let o2 = Lobj.create "e2" in
  add o2 ~layer:"metal1" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o2 ~layer:"contact" ~x:(um 0.5) ~y:(um 0.5) ~w:(um 1.) ~h:(um 1.) ();
  check "missing landing" 1 (List.length (Checker.check_enclosures ~tech:(tech ()) o2));
  (* A via needs both metals. *)
  let o3 = Lobj.create "e3" in
  add o3 ~layer:"metal1" ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  add o3 ~layer:"via" ~x:(um 0.5) ~y:(um 0.5) ~w:(um 1.) ~h:(um 1.) ();
  check "via missing metal2" 1 (List.length (Checker.check_enclosures ~tech:(tech ()) o3))

let test_extension () =
  let o = Lobj.create "x" in
  (* Proper vertical gate: poly 1 um wide crossing a 10 um diffusion. *)
  add o ~layer:"poly" ~x:(um 3.) ~y:(- um 1.) ~w:(um 2.) ~h:(um 12.) ();
  add o ~layer:"pdiff" ~x:0 ~y:0 ~w:(um 8.) ~h:(um 10.) ();
  check "good gate" 0 (List.length (Checker.check_extensions ~tech:(tech ()) o));
  (* End-cap too short. *)
  let o2 = Lobj.create "x2" in
  add o2 ~layer:"poly" ~x:(um 3.) ~y:(- um 0.5) ~w:(um 2.) ~h:(um 11.) ();
  add o2 ~layer:"pdiff" ~x:0 ~y:0 ~w:(um 8.) ~h:(um 10.) ();
  check_bool "short endcap" true
    (kinds (Checker.check_extensions ~tech:(tech ()) o2) = [ "extension" ]);
  (* Poly overlapping diffusion without crossing: malformed gate. *)
  let o3 = Lobj.create "x3" in
  add o3 ~layer:"poly" ~x:(um 3.) ~y:(um 2.) ~w:(um 2.) ~h:(um 4.) ();
  add o3 ~layer:"pdiff" ~x:0 ~y:0 ~w:(um 8.) ~h:(um 10.) ();
  check_bool "partial gate flagged" true
    (kinds (Checker.check_extensions ~tech:(tech ()) o3) = [ "extension" ])

let test_latchup () =
  let t = tech () in
  let o = Lobj.create "l" in
  (* Active area with a tap close by: covered. *)
  add o ~layer:"pdiff" ~net:"x" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 10.) ();
  add o ~layer:"subtap" ~x:(um 20.) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  check "covered" 0 (List.length (Latchup.check ~tech:t o));
  (* Far-away active area: uncovered. *)
  add o ~layer:"ndiff" ~net:"y" ~x:(um 100.) ~y:0 ~w:(um 10.) ~h:(um 10.) ();
  let vios = Latchup.check ~tech:t o in
  check "uncovered" 1 (List.length vios);
  (match vios with
  | [ { Violation.kind = Violation.Latchup { uncovered }; _ } ] ->
      (* Only the part beyond the 50 um radius remains. *)
      check_bool "residue beyond reach" true
        (List.for_all (fun r -> r.Rect.x0 >= um 72.) uncovered)
  | _ -> Alcotest.fail "expected a latchup violation");
  (* A second tap repairs it. *)
  add o ~layer:"subtap" ~x:(um 95.) ~y:0 ~w:(um 2.) ~h:(um 2.) ();
  check "repaired" 0 (List.length (Latchup.check ~tech:t o))

let test_latchup_multi_tap_cover () =
  (* The paper's successive-subtraction semantics: one big active region
     covered only by the union of several taps. *)
  let t = tech () in
  let o = Lobj.create "multi" in
  add o ~layer:"ndiff" ~net:"x" ~x:0 ~y:0 ~w:(um 200.) ~h:(um 4.) ();
  add o ~layer:"subtap" ~x:(um 30.) ~y:(um 6.) ~w:(um 2.) ~h:(um 2.) ();
  check "one tap insufficient" 1 (List.length (Latchup.check ~tech:t o));
  add o ~layer:"subtap" ~x:(um 110.) ~y:(um 6.) ~w:(um 2.) ~h:(um 2.) ();
  add o ~layer:"subtap" ~x:(um 170.) ~y:(um 6.) ~w:(um 2.) ~h:(um 2.) ();
  check "union covers" 0 (List.length (Latchup.check ~tech:t o))

let test_resistor_body_not_short () =
  let env = Amg_core.Env.bicmos () in
  let res, _ = Amg_modules.Resistor.make env ~squares:40. () in
  let shorts =
    List.filter
      (fun v -> kind_name v = "short")
      (Checker.check_spacings ~tech:(tech ()) res)
  in
  check "no short through film" 0 (List.length shorts)

let test_describe () =
  let v =
    Violation.make
      (Violation.Spacing { layer_a = "m1"; layer_b = "m2"; required = um 1.5; actual = um 1. })
      (Rect.of_size ~x:0 ~y:0 ~w:1 ~h:1)
  in
  Alcotest.(check string) "describe" "spacing m1/m2: 1.00um < 1.50um"
    (Violation.describe v)


let test_min_area () =
  let tech = tech () in
  (* An isolated 1.5 x 1.5 um metal1 island: width-clean, but 2.25 um2 <
     the 4 um2 minimum-area rule. *)
  let o = Lobj.create "tiny" in
  add o ~layer:"metal1" ~x:0 ~y:0 ~w:(um 1.5) ~h:(um 1.5) ();
  let vios = Amg_drc.Checker.run ~checks:[ Amg_drc.Checker.Widths ] ~tech o in
  check_bool "flagged" true (List.mem "min_area" (kinds vios));
  check_bool "only min_area" true (kinds vios = [ "min_area" ]);
  (* Growing the island with a touching rectangle fixes it: the rule reads
     the connected region's union area, not per-rectangle areas. *)
  add o ~layer:"metal1" ~x:(um 1.5) ~y:0 ~w:(um 1.5) ~h:(um 2.) ();
  let vios2 = Amg_drc.Checker.run ~checks:[ Amg_drc.Checker.Widths ] ~tech o in
  check "union passes" 0 (List.length vios2);
  (* Overlapping rectangles are not double-counted: 2.25 + 2.25 um2 drawn,
     but the union is only 1.5 x 1.9 = 2.85 um2 < 4. *)
  let o3 = Lobj.create "overlap" in
  add o3 ~layer:"metal1" ~x:0 ~y:0 ~w:(um 1.5) ~h:(um 1.5) ();
  add o3 ~layer:"metal1" ~x:(um 0.4) ~y:0 ~w:(um 1.5) ~h:(um 1.5) ();
  let vios3 = Amg_drc.Checker.run ~checks:[ Amg_drc.Checker.Widths ] ~tech o3 in
  check_bool "no double count" true (List.mem "min_area" (kinds vios3))


let test_well_taps () =
  let tech = tech () in
  (* A floating nwell (PMOS body, no tap): flagged. *)
  let o = Lobj.create "floating" in
  add o ~layer:"nwell" ~x:0 ~y:0 ~w:(um 20.) ~h:(um 10.) ();
  add o ~layer:"pdiff" ~x:(um 4.) ~y:(um 4.) ~w:(um 6.) ~h:(um 2.) ();
  check "flagged" 1 (List.length (Amg_drc.Latchup.untapped_wells ~tech o));
  (* A tap inside the well fixes it. *)
  add o ~layer:"subtap" ~x:(um 14.) ~y:(um 4.) ~w:(um 2.) ~h:(um 2.) ();
  check "tapped ok" 0 (List.length (Amg_drc.Latchup.untapped_wells ~tech o));
  (* Touching well rectangles are one region: a tap in either half covers
     both. *)
  let o2 = Lobj.create "merged" in
  add o2 ~layer:"nwell" ~x:0 ~y:0 ~w:(um 10.) ~h:(um 10.) ();
  add o2 ~layer:"nwell" ~x:(um 10.) ~y:0 ~w:(um 10.) ~h:(um 10.) ();
  add o2 ~layer:"subtap" ~x:(um 2.) ~y:(um 2.) ~w:(um 2.) ~h:(um 2.) ();
  check "merged region ok" 0 (List.length (Amg_drc.Latchup.untapped_wells ~tech o2));
  (* A bipolar collector well (base implant inside) is a device terminal,
     not a floating body: exempt. *)
  let o3 = Lobj.create "npn" in
  add o3 ~layer:"nwell" ~x:0 ~y:0 ~w:(um 12.) ~h:(um 12.) ();
  add o3 ~layer:"pbase" ~x:(um 3.) ~y:(um 3.) ~w:(um 6.) ~h:(um 6.) ();
  check "collector well exempt" 0
    (List.length (Amg_drc.Latchup.untapped_wells ~tech o3))

(* --- the spacing pass against its per-(shape, layer) reference --- *)

module Shape = Amg_layout.Shape
module Dir = Amg_geometry.Dir
module Layer = Amg_tech.Layer
module Technology = Amg_tech.Technology
module Constraints = Amg_compact.Constraints

(* The pairwise spacing violations as the checker reported them before it
   classified each layer pair once: every (shape, layer) classified on its
   own and queried, whatever the pair's rule.  Same-layer components come
   from an all-pairs union-find over touching shapes. *)
let reference_spacings ~tech obj =
  let rules = Technology.rules tech in
  let shapes = Array.of_list (Lobj.shapes obj) in
  let n = Array.length shapes in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = shapes.(i) and b = shapes.(j) in
      if String.equal a.Shape.layer b.Shape.layer && Rect.touches a.rect b.rect then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end
    done
  done;
  let idx_of_id = Hashtbl.create n in
  Array.iteri (fun i (s : Shape.t) -> Hashtbl.replace idx_of_id s.Shape.id i) shapes;
  let gate_pair (a : Shape.t) (b : Shape.t) =
    let kind_of (s : Shape.t) =
      Option.map (fun l -> l.Layer.kind) (Technology.layer tech s.Shape.layer)
    in
    let is_gate (p : Shape.t) (d : Shape.t) =
      match (kind_of p, kind_of d) with
      | Some Layer.Poly, Some Layer.Diffusion -> Rect.overlaps p.rect d.rect
      | _ -> false
    in
    is_gate a b || is_gate b a
  in
  let out = ref [] in
  let report (a : Shape.t) (b : Shape.t) sep actual =
    out :=
      Violation.make
        (Violation.Spacing
           { layer_a = a.layer; layer_b = b.layer; required = sep; actual })
        (Rect.hull a.rect b.rect)
      :: !out
  in
  for i = 0 to n - 1 do
    let a = shapes.(i) in
    let partners =
      List.concat_map
        (fun layer ->
          let cls = Constraints.classify rules a.Shape.layer layer in
          List.filter_map
            (fun (b : Shape.t) ->
              if b.Shape.id > a.Shape.id then
                match Constraints.relation_cls cls a b with
                | Constraints.Unconstrained | Constraints.Mergeable -> None
                | Constraints.Separation sep -> Some (b, sep)
              else None)
            (Lobj.near obj ~layer a.Shape.rect ~margin:(Constraints.margin_cls cls)))
        (Lobj.layers obj)
      |> List.sort (fun ((b1 : Shape.t), _) (b2, _) -> Int.compare b1.Shape.id b2.Shape.id)
    in
    List.iter
      (fun ((b : Shape.t), sep) ->
        let j = Hashtbl.find idx_of_id b.Shape.id in
        if gate_pair a b then ()
        else if String.equal a.layer b.layer && find i = find j then ()
        else if Rect.touches a.rect b.rect then begin
          if sep > 0 || Rect.overlaps a.rect b.rect then report a b sep 0
        end
        else
          let actual =
            Int.max
              (Rect.gap Dir.Horizontal a.rect b.rect)
              (Rect.gap Dir.Vertical a.rect b.rect)
          in
          if actual < sep then report a b sep actual)
      partners
  done;
  List.rev !out

(* The rest of the report as the checker produced it before its per-call
   view: every shape pays its own technology and rule lookups, and
   same-layer components come from the Hashtbl union-find below, run
   once per pass.  Shorts and min-area regions are reported in the
   iteration order of Hashtbls keyed by that union-find's roots. *)
let reference_components obj shapes idxs =
  let parent = Hashtbl.create 16 in
  let member = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace parent i i;
      Hashtbl.replace member shapes.(i).Shape.id i)
    idxs;
  let rec find i =
    let p = Hashtbl.find parent i in
    if p = i then i
    else begin
      let r = find p in
      Hashtbl.replace parent i r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then Hashtbl.replace parent ri rj
  in
  List.iter
    (fun i ->
      let s = shapes.(i) in
      List.iter
        (fun (b : Shape.t) ->
          match Hashtbl.find_opt member b.Shape.id with
          | Some j when i < j && Rect.touches s.Shape.rect b.Shape.rect -> union i j
          | _ -> ())
        (Lobj.near obj ~layer:s.Shape.layer s.Shape.rect ~margin:0))
    idxs;
  find

let kind_of ~tech (s : Shape.t) =
  Option.map (fun l -> l.Layer.kind) (Technology.layer tech s.Shape.layer)

let reference_widths ~tech obj =
  let rules = Technology.rules tech in
  List.filter_map
    (fun (s : Shape.t) ->
      match Technology.layer tech s.Shape.layer with
      | None -> None
      | Some l when l.Layer.kind = Layer.Marker -> None
      | Some l when Layer.is_cut l ->
          let req = Amg_tech.Rules.cut_size rules s.layer in
          let w = Rect.width s.rect and h = Rect.height s.rect in
          if w <> req || h <> req then
            Some
              (Violation.make
                 (Violation.Cut_size { layer = s.layer; required = req; actual_w = w; actual_h = h })
                 s.rect)
          else None
      | Some _ -> (
          match Amg_tech.Rules.width_opt rules s.layer with
          | None -> None
          | Some req ->
              let actual = Int.min (Rect.width s.rect) (Rect.height s.rect) in
              if actual < req then
                Some (Violation.make (Violation.Width { layer = s.layer; required = req; actual }) s.rect)
              else None))
    (Lobj.shapes obj)

(* Shape indices per layer, each list in descending index order, in a
   Hashtbl filled in shape order: the parent's iteration order. *)
let by_layer ?(keep = fun _ -> true) shapes =
  let t = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Shape.t) ->
      if keep s then
        let cur = Option.value ~default:[] (Hashtbl.find_opt t s.layer) in
        Hashtbl.replace t s.layer (i :: cur))
    shapes;
  t

let reference_min_areas ~tech obj =
  let rules = Technology.rules tech in
  let shapes = Array.of_list (Lobj.shapes obj) in
  let out = ref [] in
  Hashtbl.iter
    (fun layer idxs ->
      let required = Option.get (Amg_tech.Rules.min_area rules layer) in
      let find = reference_components obj shapes idxs in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let r = find i in
          let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
          Hashtbl.replace groups r (shapes.(i).Shape.rect :: cur))
        idxs;
      Hashtbl.iter
        (fun _root rects ->
          let actual = Amg_geometry.Region.area rects in
          if actual < required then
            out :=
              Violation.make
                (Violation.Min_area { layer; required; actual })
                (Option.get (Rect.hull_list rects))
              :: !out)
        groups)
    (by_layer
       ~keep:(fun s -> Option.is_some (Amg_tech.Rules.min_area rules s.Shape.layer))
       shapes);
  !out

let reference_shorts ~tech obj =
  let shapes = Array.of_list (Lobj.shapes obj) in
  let is_gate (p : Shape.t) (d : Shape.t) =
    match (kind_of ~tech p, kind_of ~tech d) with
    | Some Layer.Poly, Some Layer.Diffusion -> Rect.overlaps p.rect d.rect
    | _ -> false
  in
  let poly_layers =
    List.filter
      (fun l -> Option.map (fun tl -> tl.Layer.kind) (Technology.layer tech l) = Some Layer.Poly)
      (Lobj.layers obj)
  in
  let is_channel i =
    let s = shapes.(i) in
    (Option.map Layer.is_active (Technology.layer tech s.Shape.layer) = Some true
    && List.exists
         (fun pl ->
           List.exists
             (fun (p : Shape.t) -> p != s && (is_gate p s || is_gate s p))
             (Lobj.near obj ~layer:pl s.Shape.rect ~margin:0))
         poly_layers)
    || List.exists
         (fun (m : Shape.t) -> Rect.contains_rect m.Shape.rect s.Shape.rect)
         (Lobj.near obj ~layer:"resmark" s.Shape.rect ~margin:0)
  in
  let out = ref [] in
  Hashtbl.iter
    (fun layer idxs ->
      let conducting = List.filter (fun i -> not (is_channel i)) idxs in
      let find = reference_components obj shapes conducting in
      let net_of_root = Hashtbl.create 8 in
      List.iter
        (fun i ->
          match shapes.(i).Shape.net with
          | None -> ()
          | Some net -> (
              let r = find i in
              match Hashtbl.find_opt net_of_root r with
              | None -> Hashtbl.replace net_of_root r (net, i)
              | Some (other, j) when not (String.equal other net) ->
                  out :=
                    Violation.make
                      (Violation.Short { layer; net_a = other; net_b = net })
                      (Rect.hull shapes.(j).Shape.rect shapes.(i).Shape.rect)
                    :: !out
              | Some _ -> ()))
        conducting)
    (by_layer shapes);
  List.rev !out

let reference_enclosures ~tech obj =
  let rules = Technology.rules tech in
  let enclosed_by (c : Shape.t) outer margin =
    let needed = Rect.inflate c.rect margin in
    List.exists
      (fun (s : Shape.t) -> Rect.contains_rect s.rect needed)
      (Lobj.near obj ~layer:outer needed ~margin:0)
  in
  List.concat_map
    (fun (c : Shape.t) ->
      match Technology.layer tech c.Shape.layer with
      | Some l when Layer.is_cut l ->
          let metal_outers, landing_outers =
            List.partition
              (fun (o, _) -> Option.map Layer.is_metal (Technology.layer tech o) = Some true)
              (Amg_tech.Rules.enclosing_layers rules ~inner:c.layer)
          in
          let vio_of (o, m) =
            Violation.make (Violation.Enclosure { outer = o; inner = c.layer; required = m }) c.rect
          in
          List.map vio_of (List.filter (fun (o, m) -> not (enclosed_by c o m)) metal_outers)
          @
          (match landing_outers with
          | first :: _ when not (List.exists (fun (o, m) -> enclosed_by c o m) landing_outers) ->
              [ vio_of first ]
          | _ -> [])
      | _ -> [])
    (Lobj.shapes obj)

(* The whole report, check by check in [Checker.all_checks] order.
   Extensions and latch-up have no union-find; they come from their own
   single-check entry points. *)
let reference_report ~tech obj =
  reference_widths ~tech obj @ reference_min_areas ~tech obj
  @ reference_shorts ~tech obj @ reference_spacings ~tech obj
  @ reference_enclosures ~tech obj
  @ Checker.check_extensions ~tech obj
  @ Latchup.check ~tech obj @ Latchup.check_well_taps ~tech obj

let prop_report_matches_reference (deck, tech, layers) =
  QCheck2.Test.make ~name:(deck ^ ": DRC report = reference, in order") ~count:300
    (Dirty_layout.gen layers) (fun specs ->
      let o = Dirty_layout.build specs in
      Checker.run ~tech o = reference_report ~tech o)

let prop_array_report_matches_reference (deck, tech, layers) =
  let rules = Technology.rules tech in
  QCheck2.Test.make ~name:(deck ^ " arrays: DRC report = reference, in order") ~count:150
    (Dirty_layout.gen_arrays layers) (fun spec ->
      let o = Dirty_layout.build_arrays rules spec in
      Checker.run ~tech o = reference_report ~tech o)

(* --- array groups: the checker settles runs of array cuts at once --- *)

(* Every shape of [o] re-added, in order, with a [User] origin: the
   checker then forms no group and checks every cut on its own. *)
let flattened o =
  let f = Lobj.create (Lobj.name o) in
  List.iter
    (fun (s : Shape.t) ->
      ignore
        (Lobj.add_shape f ~layer:s.layer ~rect:s.rect ?net:s.net ~sides:s.sides
           ~keep_clear:s.keep_clear ()))
    (Lobj.shapes o);
  f

let same_as_flattened ?checks ~tech o =
  Checker.run ?checks ~tech o = Checker.run ?checks ~tech (flattened o)

let prop_arrays_match_flattened (deck, tech, layers) =
  let rules = Technology.rules tech in
  QCheck2.Test.make ~name:(deck ^ " arrays: report = flattened copy's") ~count:150
    (Dirty_layout.gen_arrays layers) (fun spec ->
      same_as_flattened ~tech (Dirty_layout.build_arrays rules spec))

let geometric = Checker.[ Widths; Spacings; Enclosures; Extensions ]

let test_modules_match_flattened () =
  List.iter
    (fun (deck, env) ->
      let tech = Amg_core.Env.tech env in
      List.iter
        (fun (cls, cells) ->
          List.iter
            (fun (cell, build) ->
              check_bool (String.concat " " [ cls; deck; cell ]) true
                (same_as_flattened ~checks:geometric ~tech (build ())))
            cells)
        (Module_grid.classes env);
      if String.equal deck "bicmos1u" then
        List.iter
          (fun cell ->
            check_bool ("cap_array " ^ Module_grid.cap_array_cell cell) true
              (same_as_flattened ~checks:geometric ~tech (Module_grid.cap_array env cell)))
          Module_grid.cap_arrays)
    (Module_grid.decks ())

let test_circuits_match_flattened () =
  let env = Amg_core.Env.bicmos () in
  let tech = Amg_core.Env.tech env in
  check_bool "amplifier" true
    (same_as_flattened ~tech (Amg_amplifier.Amplifier.build env).Amg_amplifier.Amplifier.obj);
  check_bool "ota" true (same_as_flattened ~tech (Amg_amplifier.Ota.build env).Amg_amplifier.Ota.obj)

(* A clean capacitor array's contacts are settled a group at a time: its
   geometric check makes fewer index queries than it has cuts. *)
let test_cap_array_fast_path () =
  let env = Amg_core.Env.bicmos () in
  let tech = Amg_core.Env.tech env in
  let o = fst (Amg_modules.Cap_array.make env ~unit_ff:70. ~units_a:2 ~units_b:2 ()) in
  let cuts =
    List.length
      (List.filter
         (fun (s : Shape.t) -> match s.origin with Shape.Array_member _ -> true | Shape.User -> false)
         (Lobj.shapes o))
  in
  let module Obs = Amg_obs.Obs in
  Obs.enable ();
  let vios = Checker.run ~checks:geometric ~tech o in
  let queries = Obs.counter "sindex.queries" in
  Obs.disable ();
  Obs.reset ();
  check "clean" 0 (List.length vios);
  check_bool (Printf.sprintf "%d queries < %d cuts" queries cuts) true (queries < cuts)

(* Hand-drawn cuts of one array, on no net, over metal1 and poly, at a
   1 um gap (the contact spacing is 1.5 um) along one row.  Drawn in
   row-major order they are not apart, so every neighbour pair is
   reported; drawn interleaved (every other cut, then the rest) no two
   neighbours are consecutive and every step is two pitches long, and
   the group must still not pass for apart. *)
let test_out_of_order_cuts () =
  let tech = tech () in
  let row order =
    let o = Lobj.create "row" in
    add o ~layer:"metal1" ~x:(- um 1.) ~y:(- um 1.) ~w:(um 12.) ~h:(um 3.) ();
    add o ~layer:"poly" ~x:(- um 1.) ~y:(- um 1.) ~w:(um 12.) ~h:(um 3.) ();
    List.iter
      (fun k ->
        ignore
          (Lobj.add_shape o ~layer:"contact" ~origin:(Shape.Array_member 7)
             ~rect:(Rect.of_size ~x:(k * um 2.) ~y:0 ~w:(um 1.) ~h:(um 1.))
             ()))
      order;
    o
  in
  List.iter
    (fun (name, order) ->
      let o = row order in
      let vios = Checker.run ~checks:geometric ~tech o in
      check (name ^ ": neighbour spacings") 4
        (List.length (List.filter (fun v -> kind_name v = "spacing") vios));
      check_bool (name ^ ": = flattened") true (same_as_flattened ~checks:geometric ~tech o))
    [ ("row-major", [ 0; 1; 2; 3; 4 ]); ("interleaved", [ 0; 2; 4; 1; 3 ]) ]

(* --- the CIF writer against a Printf rendering --- *)

let reference_cif ~tech obj =
  let to_cif nm = (nm + 5) / 10 in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "(CIF file: %s, technology %s);\nDS 1 1 1;\n" (Lobj.name obj)
       (Technology.name tech));
  List.iter
    (fun layer ->
      match Lobj.shapes_on obj layer with
      | [] -> ()
      | shapes ->
          Buffer.add_string b (Printf.sprintf "L %s;\n" (Amg_layout.Cif.cif_layer_name layer));
          List.iter
            (fun (s : Shape.t) ->
              let r = s.rect in
              Buffer.add_string b
                (Printf.sprintf "B %d %d %d %d;\n"
                   (to_cif (Rect.width r))
                   (to_cif (Rect.height r))
                   (to_cif ((r.x0 + r.x1) / 2))
                   (to_cif ((r.y0 + r.y1) / 2))))
            shapes)
    (Technology.layer_names tech);
  Buffer.add_string b "DF;\nC 1;\nE\n";
  Buffer.contents b

let prop_cif_matches_printf =
  let tech = tech () in
  let coord =
    QCheck2.Gen.(
      frequency
        [ (1, return 0); (2, int_range (-20) 20);
          (4, int_range (-1_000_000_000) 1_000_000_000) ])
  in
  let shape =
    QCheck2.Gen.(
      let* layer = oneofl ("nolayer" :: Technology.layer_names tech) in
      let* x0, y0 = pair coord coord in
      let* w, h = pair (int_bound 2_000_000) (int_bound 2_000_000) in
      return (layer, Rect.make ~x0 ~y0 ~x1:(x0 + w) ~y1:(y0 + h)))
  in
  QCheck2.Test.make ~name:"CIF = Printf rendering" ~count:300
    QCheck2.Gen.(list_size (int_range 0 30) shape)
    (fun shapes ->
      let o = Lobj.create "cif" in
      List.iter (fun (layer, rect) -> ignore (Lobj.add_shape o ~layer ~rect ())) shapes;
      String.equal (Amg_layout.Cif.of_lobj ~tech o) (reference_cif ~tech o))

let suite =
  [
    Alcotest.test_case "clean object" `Quick test_clean_object;
    Alcotest.test_case "width" `Quick test_width;
    Alcotest.test_case "cut size" `Quick test_cut_size;
    Alcotest.test_case "spacing (L-inf)" `Quick test_spacing;
    Alcotest.test_case "short" `Quick test_short;
    Alcotest.test_case "connected components" `Quick test_connected_component_merging;
    Alcotest.test_case "enclosure" `Quick test_enclosure;
    Alcotest.test_case "gate extension" `Quick test_extension;
    Alcotest.test_case "latch-up cover" `Quick test_latchup;
    Alcotest.test_case "latch-up multi-tap union" `Quick test_latchup_multi_tap_cover;
    Alcotest.test_case "resistor body exempt from shorts" `Quick test_resistor_body_not_short;
    Alcotest.test_case "min area (union semantics)" `Quick test_min_area;
    Alcotest.test_case "well-tap rule" `Quick test_well_taps;
    Alcotest.test_case "violation describe" `Quick test_describe;
    QCheck_alcotest.to_alcotest
      (prop_report_matches_reference
         ("bicmos1u", tech (), Dirty_layout.bicmos_layers));
    QCheck_alcotest.to_alcotest
      (prop_report_matches_reference
         ("cmos08", Amg_tech.Cmos08.get (), Dirty_layout.cmos08_layers));
    QCheck_alcotest.to_alcotest
      (prop_array_report_matches_reference
         ("bicmos1u", tech (), Dirty_layout.bicmos_layers));
    QCheck_alcotest.to_alcotest
      (prop_array_report_matches_reference
         ("cmos08", Amg_tech.Cmos08.get (), Dirty_layout.cmos08_layers));
    QCheck_alcotest.to_alcotest
      (prop_arrays_match_flattened ("bicmos1u", tech (), Dirty_layout.bicmos_layers));
    QCheck_alcotest.to_alcotest
      (prop_arrays_match_flattened ("cmos08", Amg_tech.Cmos08.get (), Dirty_layout.cmos08_layers));
    Alcotest.test_case "modules: report = flattened copy's" `Quick test_modules_match_flattened;
    Alcotest.test_case "circuits: report = flattened copy's" `Quick test_circuits_match_flattened;
    Alcotest.test_case "cap array: fewer queries than cuts" `Quick test_cap_array_fast_path;
    Alcotest.test_case "out-of-order array cuts" `Quick test_out_of_order_cuts;
    QCheck_alcotest.to_alcotest prop_cif_matches_printf;
  ]
