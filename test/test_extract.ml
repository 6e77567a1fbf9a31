(* Layout extraction and layout-versus-schematic comparison. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module M = Amg_modules
module X = Amg_extract
module D = Amg_circuit.Device
module Netlist = Amg_circuit.Netlist

let um = Units.of_um
let env () = Env.bicmos ()
let tech () = Env.tech (env ())

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let extract obj = X.Devices.extract ~tech:(tech ()) obj

let test_connectivity_basics () =
  let o = Lobj.create "c" in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 2.)) ~net:"a" () in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 4.) ~y:0 ~w:(um 4.) ~h:(um 2.)) ~net:"b" () in
  let conn = X.Connectivity.build ~tech:(tech ()) o in
  (* Touching same-layer shapes merge; conflicting labels are a short. *)
  check "one node" 1 (X.Connectivity.node_count conn);
  check "one short" 1 (List.length (X.Connectivity.shorts conn));
  (* Disjoint shapes stay apart. *)
  let o2 = Lobj.create "c2" in
  let _ = Lobj.add_shape o2 ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) ~net:"a" () in
  let _ = Lobj.add_shape o2 ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 4.) ~y:0 ~w:(um 2.) ~h:(um 2.)) ~net:"b" () in
  let conn2 = X.Connectivity.build ~tech:(tech ()) o2 in
  check "two nodes" 2 (X.Connectivity.node_count conn2);
  check "no short" 0 (List.length (X.Connectivity.shorts conn2))

let test_cut_connects_layers () =
  let e = env () in
  let o = Lobj.create "v" in
  let _ = Amg_route.Wire.via e o ~at:(0, 0) ~net:"n" () in
  let conn = X.Connectivity.build ~tech:(tech ()) o in
  check "via merges metals" 1 (X.Connectivity.node_count conn);
  (* Without the cut the metals are separate. *)
  let o2 = Lobj.create "v2" in
  let _ = Lobj.add_shape o2 ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) () in
  let _ = Lobj.add_shape o2 ~layer:"metal2" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) () in
  let conn2 = X.Connectivity.build ~tech:(tech ()) o2 in
  check "stacked metals isolated" 2 (X.Connectivity.node_count conn2)

let test_channel_splits_diffusion () =
  let o = Lobj.create "g" in
  (* A diffusion crossed by a gate: the two sides must be distinct nodes. *)
  let _ = Lobj.add_shape o ~layer:"pdiff" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 4.)) () in
  let _ = Lobj.add_shape o ~layer:"poly" ~rect:(Rect.of_size ~x:(um 4.) ~y:(- um 1.) ~w:(um 2.) ~h:(um 6.)) ~net:"g" () in
  let conn = X.Connectivity.build ~tech:(tech ()) o in
  let left = X.Connectivity.node_at conn ~layer:"pdiff" ~x:(um 1.) ~y:(um 2.) in
  let right = X.Connectivity.node_at conn ~layer:"pdiff" ~x:(um 9.) ~y:(um 2.) in
  check_bool "both found" true (left <> None && right <> None);
  check_bool "separate" true (left <> right)

let test_well_does_not_conduct () =
  let e = env () in
  (* A PMOS with its well: gate, source, drain stay separate. *)
  let t = M.Mosfet.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.) () in
  let ex = extract t in
  check "one device" 1 (List.length ex.X.Devices.mosfets);
  check "no shorts" 0 (List.length ex.X.Devices.short_nets);
  let m = List.hd ex.X.Devices.mosfets in
  check_bool "nets" true
    (m.X.Devices.x_g = "g"
    && List.sort compare [ m.X.Devices.x_s; m.X.Devices.x_d ] = [ "d"; "s" ]);
  check "width" (um 10.) m.X.Devices.x_w;
  check "length" (um 2.) m.X.Devices.x_l

let test_extract_diff_pair () =
  let e = env () in
  let dp = M.Diff_pair.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.) () in
  let ex = extract dp in
  check "two devices" 2 (List.length ex.X.Devices.mosfets);
  List.iter
    (fun (m : X.Devices.mos) ->
      check_bool "shares s" true
        (m.X.Devices.x_s = "s" || m.X.Devices.x_d = "s"))
    ex.X.Devices.mosfets

let test_extract_mirror_diode () =
  let e = env () in
  let mir = M.Current_mirror.symmetric e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) () in
  let ex = extract mir in
  check "two merged devices" 2 (List.length ex.X.Devices.mosfets);
  let diode =
    List.find
      (fun (m : X.Devices.mos) ->
        m.X.Devices.x_g = m.X.Devices.x_d || m.X.Devices.x_g = m.X.Devices.x_s)
      ex.X.Devices.mosfets
  in
  (* Diode-connected but not a dummy. *)
  check_bool "not dummy" false (X.Devices.is_dummy diode);
  check "diode width merged" (um 16.) diode.X.Devices.x_w

let test_extract_module_e () =
  let e = env () in
  let cc = M.Common_centroid.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.) () in
  let ex = extract cc in
  let live = List.filter (fun m -> not (X.Devices.is_dummy m)) ex.X.Devices.mosfets in
  let dummies = List.filter X.Devices.is_dummy ex.X.Devices.mosfets in
  check "two live devices" 2 (List.length live);
  check "one merged dummy bank" 1 (List.length dummies);
  List.iter
    (fun (m : X.Devices.mos) ->
      check "live width 4 fingers" (um 40.) m.X.Devices.x_w;
      check_bool "tail source" true (m.X.Devices.x_s = "tail" || m.X.Devices.x_d = "tail"))
    live;
  (* 16 dummy fingers of 10 um. *)
  check "dummy bank width" (um 160.) (List.hd dummies).X.Devices.x_w;
  check "no shorts" 0 (List.length ex.X.Devices.short_nets)

let test_extract_bjt () =
  let e = env () in
  let q = M.Bipolar.make e ~we:(um 2.) ~le:(um 8.) () in
  let ex = extract q in
  check "one npn" 1 (List.length ex.X.Devices.bjts);
  check_bool "terminals" true (ex.X.Devices.bjts = [ ("c", "b", "e") ])

let test_extract_resistor_cap () =
  let e = env () in
  let r, ohms = M.Resistor.make e ~squares:80. () in
  let ex = extract r in
  (match ex.X.Devices.resistors with
  | [ (a, b, v) ] ->
      check_bool "terminals" true (List.sort compare [ a; b ] = [ "a"; "b" ]);
      check_bool "value close to generator" true
        (Float.abs (v -. ohms) /. ohms < 0.15)
  | _ -> Alcotest.fail "one resistor");
  check "film not shorted" 0 (List.length ex.X.Devices.short_nets);
  let c, ff = M.Capacitor.make e ~cap_ff:300. () in
  let exc = extract c in
  (match exc.X.Devices.capacitors with
  | [ (t, b, v) ] ->
      check_bool "plates" true (t = "top" && b = "bot");
      check_bool "value" true (Float.abs (v -. ff) < 1.)
  | _ -> Alcotest.fail "one capacitor");
  (* Regression: the top-plate contacts must not short the plates. *)
  check "plates isolated" 0 (List.length exc.X.Devices.short_nets)

let test_short_detection () =
  let o = Lobj.create "s" in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 2.)) ~net:"x" () in
  let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:(um 2.) ~y:0 ~w:(um 4.) ~h:(um 2.)) ~net:"y" () in
  let ex = extract o in
  check_bool "short reported" true (ex.X.Devices.short_nets = [ [ "x"; "y" ] ])

let test_lvs_amplifier () =
  let e = env () in
  let r = Amg_amplifier.Amplifier.build e in
  let ex = extract r.Amg_amplifier.Amplifier.obj in
  let result = X.Compare.run ~golden:(Amg_amplifier.Schematic.netlist ()) ex in
  if not (X.Compare.clean result) then
    Alcotest.failf "%a" X.Compare.pp_result result;
  check "all devices matched" 14 result.X.Compare.matched

let test_lvs_detects_wrong_netlist () =
  let e = env () in
  let dp = M.Diff_pair.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.) () in
  let ex = extract dp in
  (* Golden netlist with a wrong width and a missing device. *)
  let golden =
    Netlist.create ~name:"bad"
      [
        D.mos ~name:"M1" ~polarity:D.Pmos ~w:(um 20.) ~l:(um 5.) ~g:"g1" ~d:"d1" ~s:"s" ~b:"w";
        D.mos ~name:"M2" ~polarity:D.Pmos ~w:(um 10.) ~l:(um 5.) ~g:"g2" ~d:"d2" ~s:"s" ~b:"w";
        D.mos ~name:"M3" ~polarity:D.Pmos ~w:(um 10.) ~l:(um 5.) ~g:"g3" ~d:"d3" ~s:"s" ~b:"w";
      ]
  in
  let result = X.Compare.run ~golden ex in
  check_bool "not clean" false (X.Compare.clean result);
  check_bool "reports size mismatch" true
    (List.exists
       (function X.Compare.Size_mismatch _ -> true | _ -> false)
       result.X.Compare.mismatches);
  check_bool "reports missing" true
    (List.exists
       (function X.Compare.Missing_device _ -> true | _ -> false)
       result.X.Compare.mismatches)


let test_reduce_resistors () =
  let internal n = String.length n > 1 && n.[0] = 'n' in
  (* Chain a -n1- n1 -n2- b collapses to one summed resistor. *)
  let reduced =
    X.Devices.reduce_resistors ~internal
      [ ("a", "n1", 100.); ("n1", "n2", 50.); ("n2", "b", 25.) ]
  in
  Alcotest.(check (list (triple string string (float 1e-6))))
    "series chain" [ ("a", "b", 175.) ] reduced;
  (* A labeled middle node blocks the merge. *)
  let kept =
    X.Devices.reduce_resistors ~internal [ ("a", "mid", 100.); ("mid", "b", 50.) ]
  in
  check "labeled node kept" 2 (List.length kept);
  (* A node touched by three resistors is a real junction. *)
  let star =
    X.Devices.reduce_resistors ~internal
      [ ("a", "n1", 1.); ("b", "n1", 1.); ("c", "n1", 1.) ]
  in
  check "star kept" 3 (List.length star);
  (* Parallel resistors combine reciprocally. *)
  (match X.Devices.reduce_resistors ~internal [ ("a", "b", 100.); ("b", "a", 100.) ] with
  | [ (_, _, v) ] -> Alcotest.(check (float 1e-6)) "parallel" 50. v
  | _ -> Alcotest.fail "one resistor expected");
  (* Series then parallel: two equal chains between a and b. *)
  (match
     X.Devices.reduce_resistors ~internal
       [ ("a", "n1", 60.); ("n1", "b", 40.); ("a", "n2", 30.); ("n2", "b", 70.) ]
   with
  | [ (_, _, v) ] -> Alcotest.(check (float 1e-6)) "bridge" 50. v
  | _ -> Alcotest.fail "one resistor expected")

(* --- SPICE export --- *)

let check_str = Alcotest.(check string)

let has_sub sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_spice_values () =
  check_str "ohms k" "2k" (X.Spice.si_value 2000.);
  check_str "ohms plain" "470" (X.Spice.si_value 470.);
  check_str "farads f" "400f" (X.Spice.si_value 4e-13);
  check_str "farads p" "1.5p" (X.Spice.si_value 1.5e-12);
  check_str "metres u" "10u" (X.Spice.si_value 1e-5);
  check_str "meg" "4.7meg" (X.Spice.si_value 4.7e6);
  check_str "zero" "0" (X.Spice.si_value 0.);
  check_str "node ground" "0" (X.Spice.node "");
  check_str "node hier" "pair_out" (X.Spice.node "pair/out")

let test_spice_cards () =
  check_str "mos card"
    "MM1 out in vss vss nmos1u w=10u l=2u"
    (X.Spice.device_card
       (D.mos ~name:"M1" ~polarity:D.Nmos ~w:(um 10.) ~l:(um 2.) ~g:"in"
          ~d:"out" ~s:"vss" ~b:"vss"));
  check_str "bjt card" "QQ1 vdd b out npn1u"
    (X.Spice.device_card (D.bjt ~name:"Q1" ~c:"vdd" ~b:"b" ~e:"out"));
  check_str "res card" "RR1 a b 2k"
    (X.Spice.device_card (D.res ~name:"R1" ~a:"a" ~b:"b" ~ohms:2000.));
  check_str "cap card" "CC1 t b 400f"
    (X.Spice.device_card (D.cap ~name:"C1" ~a:"t" ~b:"b" ~ff:400.))

let test_spice_subckt () =
  let nl =
    Netlist.create ~name:"amp" ~external_ports:[ "in"; "out"; "vdd"; "vss" ]
      [
        D.mos ~name:"M1" ~polarity:D.Nmos ~w:(um 10.) ~l:(um 2.) ~g:"in"
          ~d:"out" ~s:"vss" ~b:"vss";
        D.res ~name:"R1" ~a:"vdd" ~b:"out" ~ohms:10_000.;
      ]
  in
  let lines = X.Spice.subckt_of_netlist nl in
  check_str "header" ".subckt amp in out vdd vss" (List.hd lines);
  check_str "footer" ".ends" (List.nth lines (List.length lines - 1));
  check "card count" 4 (List.length lines);
  (* A netlist without ports is emitted flat. *)
  let flat = Netlist.create ~name:"flat" [ D.res ~name:"R" ~a:"a" ~b:"b" ~ohms:1. ] in
  check_bool "flat has no .ends" false
    (List.mem ".ends" (X.Spice.subckt_of_netlist flat))

let test_spice_of_extracted () =
  let e = env () in
  let dp = M.Diff_pair.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.) () in
  let deck = X.Spice.of_extracted (extract dp) in
  let lines = String.split_on_char '\n' deck in
  let mos = List.filter (fun l -> String.length l > 0 && l.[0] = 'M') lines in
  check "two mos cards" 2 (List.length mos);
  List.iter
    (fun l -> begin
       check_bool "pmos model" true
         (has_sub "pmos1u" l);
       check_bool "width" true (has_sub "w=10u" l);
       check_bool "length" true (has_sub "l=5u" l)
     end)
    mos;
  check_bool "ends with .end" true (has_sub ".end" deck)

let test_spice_amplifier_deck () =
  (* The extracted amplifier deck names every schematic net and carries the
     exact R and C values. *)
  let e = env () in
  let r = Amg_amplifier.Amplifier.build e in
  let x = extract r.Amg_amplifier.Amplifier.obj in
  let deck = X.Spice.of_extracted x in
  let contains sub = has_sub sub deck in
  List.iter
    (fun net -> check_bool ("mentions " ^ net) true (contains net))
    [ "inp"; "inn"; "out"; "vdd"; "vss"; "tail"; "npn1u" ];
  check_bool "no shorts recorded" true (x.X.Devices.short_nets = []);
  check_bool "no SHORT comments" false (contains "SHORT")

(* --- index-served node_at against the piece scan ----------------------

   Random layouts over every routing, cut, well and marker layer, with
   degenerate rectangles, via stacks and poly resistor bodies under
   resmark; each shape's corners, edge midpoints, centre and two points
   just outside it are probed on every deck layer and one the deck lacks.
   [node_at] must answer as [Test_util.reference_node_at], the scan of
   every piece in index order.  Coordinates are in half micrometres. *)
type node_shape =
  | Box of string * string option * (int * int * int * int)
  | Stack of string option * int * int  (** metal1 + via + metal2 *)
  | Body of (int * int * int * int) * int  (** poly under a resmark grown by k *)

let node_layers =
  [ "pdiff"; "ndiff"; "poly"; "poly2"; "contact"; "metal1"; "via"; "metal2";
    "resmark"; "nwell" ]

let node_layout_gen =
  QCheck2.Gen.(
    let net = oneofl [ Some "a"; Some "b"; None ] in
    let rect = quad (int_range 0 40) (int_range 0 40) (int_range 0 16) (int_range 0 16) in
    list_size (int_range 1 30)
      (frequency
         [
           (6, map3 (fun l n r -> Box (l, n, r)) (oneofl node_layers) net rect);
           (1, map3 (fun n x y -> Stack (n, x, y)) net (int_range 0 40) (int_range 0 40));
           (1, map2 (fun r k -> Body (r, k)) rect (int_range 0 2));
         ]))

let show_node_layout shapes =
  let r (x, y, w, h) = Printf.sprintf "(%d,%d %dx%d)" x y w h in
  String.concat "; "
    (List.map
       (function
         | Box (l, n, rc) -> Printf.sprintf "%s %s %s" l (Option.value ~default:"-" n) (r rc)
         | Stack (n, x, y) -> Printf.sprintf "stack %s (%d,%d)" (Option.value ~default:"-" n) x y
         | Body (rc, k) -> Printf.sprintf "body %s +%d" (r rc) k)
       shapes)

let half_um = Test_util.half_um
let half_rect = Test_util.half_rect

let node_layout e shapes =
  let o = Lobj.create "nodes" in
  List.iter
    (function
      | Box (layer, net, r) -> ignore (Lobj.add_shape o ~layer ~rect:(half_rect r) ?net ())
      | Stack (net, x, y) -> ignore (Amg_route.Wire.via e o ~at:(half_um x, half_um y) ?net ())
      | Body (r, k) ->
          let rect = half_rect r in
          ignore (Lobj.add_shape o ~layer:"poly" ~rect ());
          ignore (Lobj.add_shape o ~layer:"resmark" ~rect:(Rect.inflate rect (half_um k)) ()))
    shapes;
  o

(* Every probe of [obj] on which [node_at] and the scan disagree. *)
let node_at_mismatches obj =
  let conn = X.Connectivity.build ~tech:(tech ()) obj in
  List.concat_map
    (fun (s : Amg_layout.Shape.t) ->
      let r = s.Amg_layout.Shape.rect in
      let cx = Rect.center_x r and cy = Rect.center_y r in
      let points =
        [ (r.Rect.x0, r.Rect.y0); (r.Rect.x1, r.Rect.y1); (r.Rect.x0, r.Rect.y1);
          (r.Rect.x1, r.Rect.y0); (cx, r.Rect.y0); (r.Rect.x1, cy); (cx, cy);
          (r.Rect.x0 - 1, cy); (cx, r.Rect.y1 + 1) ]
      in
      List.concat_map
        (fun layer ->
          List.filter_map
            (fun (x, y) ->
              let got = X.Connectivity.node_at conn ~layer ~x ~y in
              let want = Test_util.reference_node_at conn ~layer ~x ~y in
              if Option.equal Int.equal got want then None else Some (layer, x, y))
            points)
        ("metal3" :: node_layers))
    (Lobj.shapes obj)

let prop_node_at_matches_scan =
  QCheck2.Test.make ~name:"node_at matches the piece scan" ~count:200
    ~print:show_node_layout node_layout_gen (fun shapes ->
      match node_at_mismatches (node_layout (env ()) shapes) with
      | [] -> true
      | (layer, x, y) :: _ -> QCheck2.Test.fail_reportf "differs on %s at (%d,%d)" layer x y)

(* The same on library modules: resistor bodies (resistor pair), series
   diffusion nodes (stacked devices), poly2 plates (capacitor array). *)
let test_node_at_modules () =
  let e = env () in
  List.iter
    (fun (name, obj) -> check (name ^ ": node_at mismatches") 0 (List.length (node_at_mismatches obj)))
    [
      ("resistor pair", fst (M.Resistor_pair.make e ~squares:45. ()));
      ("stacked", M.Stacked.series e ~polarity:M.Mosfet.Nmos ~w:(um 12.) ~l:(um 3.8) ~stages:4 ());
      ("cap array", fst (M.Cap_array.make e ~unit_ff:60. ~units_a:1 ~units_b:2 ()));
    ]

(* --- the cut pass by runs against the per-cut reference --------------

   Random layouts in both decks: registered cut arrays (contacts on
   poly, diffusion or a poly2 plate over poly, and vias), each built in
   an object of its own and absorbed, under landing metal made of its
   container and up to two more rectangles that cover only part of it;
   user cuts interleaved between the arrays, stray metal and poly, and
   resmark regions over some of it.  Coordinates are in half
   micrometres.  [Connectivity.build] must give every piece the root
   and net name, and the layout the labelled nets and shorts, of a
   union-find built the old way: same-layer touching pieces by an
   all-pairs scan, then [Test_util.reference_cut_pass]. *)
type cut_item =
  | Arr of string * (int * int) * (int * int) * string option
      * ((int * int * int * int) * string option) list
      (** landing, origin, size, net, extra landing-metal rectangles
          (offsets and size in the array's frame) *)
  | User_cut of string * (int * int) * string option
  | Mark of (int * int * int * int)
  | Stray of string * (int * int * int * int) * string option

let cut_layout_gen =
  QCheck2.Gen.(
    let nets = oneofl [ Some "a"; Some "b"; Some "c"; None ] in
    let at = tup2 (int_range 0 40) (int_range 0 40) in
    let rect = quad (int_range 0 48) (int_range 0 48) (int_range 1 16) (int_range 1 16) in
    let arr bicmos =
      let* landing =
        oneofl
          ([ "poly"; "pdiff"; "ndiff"; "via" ] @ if bicmos then [ "poly2" ] else [])
      in
      let* pos = at and* size = tup2 (int_range 4 16) (int_range 4 16) in
      let* net = nets in
      let* extras =
        list_size (int_range 0 2)
          (pair (quad (int_range (-3) 12) (int_range (-3) 12) (int_range 1 10) (int_range 1 10)) nets)
      in
      return (Arr (landing, pos, size, net, extras))
    in
    let* bicmos = bool in
    let* items =
      list_size (int_range 1 8)
        (frequency
           [
             (4, arr bicmos);
             (2, map2 (fun (l, p) n -> User_cut (l, p, n)) (pair (oneofl [ "contact"; "via" ]) at) nets);
             (1, map (fun r -> Mark r) rect);
             (2, map3 (fun l r n -> Stray (l, r, n)) (oneofl [ "metal1"; "metal2"; "poly"; "pdiff" ]) rect nets);
           ])
    in
    return (bicmos, items))

let show_cut_layout (bicmos, items) =
  let r (x, y, w, h) = Printf.sprintf "(%d,%d %dx%d)" x y w h in
  let n = Option.value ~default:"-" in
  (if bicmos then "bicmos1u: " else "cmos08: ")
  ^ String.concat "; "
      (List.map
         (function
           | Arr (l, (x, y), (w, h), net, extras) ->
               Printf.sprintf "array %s %s %s [%s]" l (r (x, y, w, h)) (n net)
                 (String.concat ", " (List.map (fun (e, en) -> r e ^ " " ^ n en) extras))
           | User_cut (l, (x, y), net) -> Printf.sprintf "cut %s (%d,%d) %s" l x y (n net)
           | Mark rc -> "resmark " ^ r rc
           | Stray (l, rc, net) -> Printf.sprintf "%s %s %s" l (r rc) (n net))
         items)

let cut_layout (bicmos, items) =
  let tech = if bicmos then Amg_tech.Bicmos1u.get () else Amg_tech.Cmos08.get () in
  let rules = Amg_tech.Technology.rules tech in
  let o = Lobj.create "cuts" in
  List.iter
    (function
      | Arr (landing, (x, y), (w, h), net, extras) ->
          let sub = Lobj.create "array" in
          let at = half_rect (0, 0, w, h) in
          let metal, lower, cut_layer =
            match landing with
            | "via" -> ("metal2", "metal1", "via")
            | l -> ("metal1", l, "contact")
          in
          let a = Lobj.add_shape sub ~layer:lower ~rect:at ?net () in
          let b = Lobj.add_shape sub ~layer:metal ~rect:at ?net () in
          if String.equal landing "poly2" then
            ignore (Lobj.add_shape sub ~layer:"poly" ~rect:(Rect.inflate at (half_um 2)) ());
          ignore
            (Lobj.register_array sub ~cut_layer ~container_ids:[ a.Amg_layout.Shape.id; b.Amg_layout.Shape.id ]
               ?net ());
          Lobj.rederive sub rules;
          List.iter
            (fun ((ex, ey, ew, eh), en) ->
              ignore (Lobj.add_shape sub ~layer:metal ~rect:(half_rect (ex, ey, ew, eh)) ?net:en ()))
            extras;
          ignore (Lobj.absorb ~dx:(half_um x) ~dy:(half_um y) o sub)
      | User_cut (layer, (x, y), net) ->
          let side = Amg_tech.Rules.cut_size rules layer in
          ignore
            (Lobj.add_shape o ~layer
               ~rect:(Rect.of_size ~x:(half_um x) ~y:(half_um y) ~w:side ~h:side)
               ?net ())
      | Mark r -> ignore (Lobj.add_shape o ~layer:"resmark" ~rect:(half_rect r) ())
      | Stray (layer, r, net) -> ignore (Lobj.add_shape o ~layer ~rect:(half_rect r) ?net ()))
    items;
  (tech, o)

(* The first difference between [Connectivity.build] and the reference
   on [obj], if any. *)
let cut_pass_mismatch ~tech obj =
  let module C = X.Connectivity in
  let conn = C.build ~tech obj in
  let pieces = C.pieces conn in
  let n = Array.length pieces in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = pieces.(i) and b = pieces.(j) in
      if
        a.C.p_conducting && b.C.p_conducting
        && String.equal a.C.p_layer b.C.p_layer
        && Rect.touches a.C.p_rect b.C.p_rect
      then union i j
    done
  done;
  Test_util.reference_cut_pass ~tech obj pieces ~union;
  let labels = Hashtbl.create 32 in
  Array.iteri
    (fun i (p : C.piece) ->
      match p.C.p_net with
      | Some net when p.C.p_conducting ->
          let r = find i in
          let cur = Option.value ~default:[] (Hashtbl.find_opt labels r) in
          if not (List.mem net cur) then
            Hashtbl.replace labels r (List.sort String.compare (net :: cur))
      | _ -> ())
    pieces;
  let net_name r =
    match Hashtbl.find_opt labels r with
    | Some [ l ] -> l
    | Some ls -> String.concat "+" ls
    | None -> Printf.sprintf "n%d" r
  in
  let labeled = Hashtbl.fold (fun _ ls acc -> ls @ acc) labels [] |> List.sort_uniq String.compare in
  let shorts =
    Hashtbl.fold (fun _ ls acc -> match ls with _ :: _ :: _ -> ls :: acc | _ -> acc) labels []
  in
  let sorted = List.sort (List.compare String.compare) in
  let rec piece i =
    if i = n then None
    else
      let got = C.find conn i and want = find i in
      if got <> want then Some (Printf.sprintf "piece %d: root %d, reference %d" i got want)
      else if not (String.equal (C.net_name conn got) (net_name want)) then
        Some (Printf.sprintf "piece %d: net %s, reference %s" i (C.net_name conn got) (net_name want))
      else piece (i + 1)
  in
  match piece 0 with
  | Some _ as m -> m
  | None ->
      if C.labeled_nets conn <> labeled then Some "labelled nets differ"
      else if sorted (C.shorts conn) <> sorted shorts then Some "shorts differ"
      else None

let prop_cut_pass_matches_reference =
  QCheck2.Test.make ~name:"cut pass = per-cut reference" ~count:300 ~print:show_cut_layout
    cut_layout_gen (fun layout ->
      let tech, obj = cut_layout layout in
      match cut_pass_mismatch ~tech obj with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s" m)

let suite =
  [
    Alcotest.test_case "connectivity basics" `Quick test_connectivity_basics;
    Alcotest.test_case "cuts connect layers" `Quick test_cut_connects_layers;
    Alcotest.test_case "channel splits diffusion" `Quick test_channel_splits_diffusion;
    QCheck_alcotest.to_alcotest prop_node_at_matches_scan;
    Alcotest.test_case "node_at matches the scan on modules" `Quick test_node_at_modules;
    QCheck_alcotest.to_alcotest prop_cut_pass_matches_reference;
    Alcotest.test_case "well does not conduct" `Quick test_well_does_not_conduct;
    Alcotest.test_case "extract diff pair" `Quick test_extract_diff_pair;
    Alcotest.test_case "extract mirror diode" `Quick test_extract_mirror_diode;
    Alcotest.test_case "extract module E" `Quick test_extract_module_e;
    Alcotest.test_case "extract bipolar" `Quick test_extract_bjt;
    Alcotest.test_case "extract R and C" `Quick test_extract_resistor_cap;
    Alcotest.test_case "short detection" `Quick test_short_detection;
    Alcotest.test_case "LVS: full amplifier clean" `Quick test_lvs_amplifier;
    Alcotest.test_case "LVS: detects wrong netlist" `Quick test_lvs_detects_wrong_netlist;
    Alcotest.test_case "resistor series/parallel reduction" `Quick test_reduce_resistors;
    Alcotest.test_case "SPICE: SI values and nodes" `Quick test_spice_values;
    Alcotest.test_case "SPICE: device cards" `Quick test_spice_cards;
    Alcotest.test_case "SPICE: subckt wrapper" `Quick test_spice_subckt;
    Alcotest.test_case "SPICE: extracted diff pair" `Quick test_spice_of_extracted;
    Alcotest.test_case "SPICE: amplifier deck" `Quick test_spice_amplifier_deck;
  ]
