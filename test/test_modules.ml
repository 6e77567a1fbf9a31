(* The module library: every generator builds DRC-clean and keeps its
   analog properties (shared rows, straps, symmetry, matching). *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module M = Amg_modules

let um = Units.of_um
let env () = Env.bicmos ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let drc ?(checks = [ Amg_drc.Checker.Widths; Spacings; Enclosures; Extensions ]) obj =
  List.length (Amg_drc.Checker.run ~checks ~tech:(Env.tech (env ())) obj)

let test_contact_row () =
  let e = env () in
  let o = M.Contact_row.make e ~layer:"pdiff" ~w:(um 2.) ~l:(um 10.) ~net:"x" ~port:"x" () in
  check "drc" 0 (drc o);
  check "contacts" 4 (List.length (Lobj.shapes_on o "contact"));
  check_bool "port present" true (Lobj.port o "x" <> None);
  (* Contacts inherit the net. *)
  List.iter
    (fun (s : Shape.t) -> check_bool "net" true (s.Shape.net = Some "x"))
    (Lobj.shapes o)

let test_via_row () =
  let e = env () in
  let o = M.Contact_row.via_row e ~l:(um 10.) ~net:"x" ~port:"x" () in
  check "drc" 0 (drc o);
  check_bool "has metal2" true (List.mem "metal2" (Lobj.layers o));
  check_bool "vias" true (List.length (Lobj.shapes_on o "via") >= 3);
  check_bool "port on metal2" true
    (match Lobj.port o "x" with Some p -> p.Amg_layout.Port.layer = "metal2" | None -> false)

let test_taps () =
  let e = env () in
  let sub = M.Contact_row.substrate_tap e ~l:(um 20.) () in
  check "drc" 0 (drc sub);
  check_bool "marker present" true (Lobj.shapes_on sub "subtap" <> []);
  check_bool "vss net" true
    (List.exists (fun (s : Shape.t) -> s.Shape.net = Some "vss") (Lobj.shapes sub));
  let well = M.Contact_row.well_tap e () in
  check_bool "well tap marker" true (Lobj.shapes_on well "subtap" <> []);
  check_bool "ndiff landing" true (List.mem "ndiff" (Lobj.layers well))

let test_guard_ring () =
  let e = env () in
  let o = Lobj.create "core" in
  let _ = Amg_core.Prim.inbox e o ~layer:"poly" ~w:(um 4.) ~l:(um 4.) () in
  let legs = M.Contact_row.guard_ring e o ~layer:"pdiff" () in
  check "four legs" 4 (List.length legs);
  check_bool "contacts in legs" true (Lobj.shapes_on o "contact" <> []);
  check_bool "subtap markers" true (List.length (Lobj.shapes_on o "subtap") = 4);
  check "drc" 0 (drc o)

let test_mosfet () =
  let e = env () in
  let o = M.Mosfet.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.) () in
  check "drc" 0 (drc o);
  check_bool "ports" true
    (List.map (fun (p : Amg_layout.Port.t) -> p.Amg_layout.Port.name) (Lobj.ports o)
    = [ "g"; "s"; "d" ]);
  check_bool "well present" true (Lobj.shapes_on o "nwell" <> []);
  (* NMOS has no well. *)
  let n = M.Mosfet.make e ~polarity:M.Mosfet.Nmos ~w:(um 10.) ~l:(um 2.) () in
  check_bool "no well" true (Lobj.shapes_on n "nwell" = []);
  check_bool "ndiff" true (List.mem "ndiff" (Lobj.layers n));
  check "drc nmos" 0 (drc n)

let test_diff_pair () =
  let e = env () in
  let o = M.Diff_pair.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.) () in
  check "drc" 0 (drc o);
  (* Three diffusion contact rows and two gates (paper: "two transistors,
     three diffusion-contact-rows and two poly-contacts"). *)
  let row_nets =
    List.filter_map (fun (s : Shape.t) -> s.Shape.net) (Lobj.shapes_on o "pdiff")
    |> List.sort_uniq compare
  in
  check_bool "row nets" true (row_nets = [ "d1"; "d2"; "s" ]);
  let gates =
    List.filter
      (fun (s : Shape.t) ->
        Shape.on_layer s "poly" && Rect.height s.Shape.rect > um 10.)
      (Lobj.shapes o)
  in
  check "two gates" 2 (List.length gates)

let test_interdigitated () =
  let e = env () in
  let o =
    M.Interdigitated.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.)
      ~fingers:4 ()
  in
  check "drc" 0 (drc o);
  check "rows" 5 (M.Interdigitated.row_count ~fingers:4);
  (* The source strap merged with the source rows: one connected s region
     touching the strap.  Verify port nets exist. *)
  List.iter
    (fun n -> check_bool ("port " ^ n) true (Lobj.port o n <> None))
    [ "g"; "s"; "d" ]

let test_mos_array_validation () =
  let e = env () in
  check_bool "bad columns rejected" true
    (match
       M.Mos_array.make e ~polarity:M.Mosfet.Nmos ~w:(um 4.) ~l:(um 2.)
         ~columns:[ M.Mos_array.Fin "g" ] ~straps:[] ()
     with
    | exception Env.Rejected _ -> true
    | _ -> false)

let test_current_mirrors () =
  let e = env () in
  let simple = M.Current_mirror.simple e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) () in
  check "simple drc" 0 (drc simple);
  let sym = M.Current_mirror.symmetric e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) () in
  check "symmetric drc" 0 (drc sym);
  (* The symmetric mirror has the diode row in the middle: vg diffusion
     centred between the two dout rows. *)
  let rows net =
    List.filter_map
      (fun (s : Shape.t) ->
        if Shape.on_layer s "ndiff" && s.Shape.net = Some net then
          Some (Rect.center_x s.Shape.rect)
        else None)
      (Lobj.shapes sym)
  in
  (match (rows "vg", rows "dout") with
  | [ diode ], [ o1; o2 ] ->
      check "diode centred" (diode * 2) (o1 + o2)
  | _ -> Alcotest.fail "expected 1 diode and 2 output rows");
  check_bool "ports" true
    (Lobj.port sym "vg" <> None && Lobj.port sym "dout" <> None && Lobj.port sym "vss" <> None)

let test_cross_coupled () =
  let e = env () in
  let o = M.Cross_coupled.common_gate e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) () in
  check "drc" 0 (drc o);
  (* ABBA symmetry: dA rows outermost, dB in the middle. *)
  let xs net =
    List.filter_map
      (fun (s : Shape.t) ->
        if Shape.on_layer s "ndiff" && s.Shape.net = Some net then
          Some (Rect.center_x s.Shape.rect)
        else None)
      (Lobj.shapes o)
    |> List.sort compare
  in
  (match (xs "da", xs "db") with
  | [ a1; a2 ], [ b ] ->
      check "centroids coincide" (a1 + a2) (2 * b)
  | _ -> Alcotest.fail "row structure");
  check_bool "dB on metal2" true
    (match Lobj.port o "db" with Some p -> p.Amg_layout.Port.layer = "metal2" | None -> false)

let test_common_centroid () =
  let e = env () in
  let o = M.Common_centroid.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.) () in
  check "drc" 0 (drc o);
  (* Exact centroid coincidence. *)
  (match
     (M.Common_centroid.gate_centroid o ~net:"inp",
      M.Common_centroid.gate_centroid o ~net:"inn")
   with
  | Some ca, Some cb -> Alcotest.(check (float 0.001)) "centroids" ca cb
  | _ -> Alcotest.fail "centroids missing");
  (* Identical via counts on the two inputs. *)
  let _, _, va = M.Common_centroid.wiring_summary o ~net:"inp" in
  let _, _, vb = M.Common_centroid.wiring_summary o ~net:"inn" in
  check "via parity" va vb;
  (* The paper's dummy structure: 4 + 8 + 4 dummies plus 2x2 fingers per
     device = 24 gate fingers in total. *)
  let fingers =
    List.length
      (List.filter
         (fun (s : Shape.t) ->
           Shape.on_layer s "poly" && Rect.height s.Shape.rect > um 10.)
         (Lobj.shapes o))
  in
  check "finger count" 24 fingers;
  List.iter
    (fun n -> check_bool ("port " ^ n) true (Lobj.port o n <> None))
    [ "inp"; "inn"; "da"; "db"; "tail" ]

let test_common_centroid_bad_pairs () =
  let e = env () in
  check_bool "odd pairs rejected" true
    (match
       M.Common_centroid.make e
         ~spec:{ M.Common_centroid.pairs = 3; side_dummies = 1; mid_dummies = 2 }
         ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.) ()
     with
    | exception Env.Rejected _ -> true
    | _ -> false)

let test_bipolar () =
  let e = env () in
  let q = M.Bipolar.make e ~we:(um 2.) ~le:(um 8.) () in
  check "drc" 0 (drc q);
  (* The emitter sits inside the base implant, the collector outside. *)
  let pbase = match Lobj.bbox_on q "pbase" with Some r -> r | None -> Alcotest.fail "no base" in
  let emitter =
    List.find (fun (s : Shape.t) -> s.Shape.net = Some "e" && Shape.on_layer s "ndiff") (Lobj.shapes q)
  in
  let collector =
    List.find (fun (s : Shape.t) -> s.Shape.net = Some "c" && Shape.on_layer s "ndiff") (Lobj.shapes q)
  in
  check_bool "emitter in base" true (Rect.contains_rect pbase emitter.Shape.rect);
  check_bool "collector outside base" false (Rect.overlaps pbase collector.Shape.rect);
  check_bool "well is collector" true
    (match Lobj.bbox_on q "nwell" with
    | Some w -> Rect.contains_rect w pbase
    | None -> false);
  check_bool "tap marker" true (Lobj.shapes_on q "subtap" <> []);
  let pair = M.Bipolar.symmetric_pair e ~we:(um 2.) ~le:(um 8.) () in
  check "pair drc" 0 (drc pair)

(* The symmetric pair mirrors its second device.  A mirror rebuilds the
   per-layer indexes; the layer list must keep first-use order without
   listing any layer twice. *)
let test_bipolar_mirror_layers () =
  let e = env () in
  let q = M.Bipolar.make e ~we:(um 2.) ~le:(um 8.) () in
  let before = Lobj.layers q in
  List.iter
    (fun o ->
      let m = Lobj.copy q in
      Lobj.transform m (Amg_geometry.Transform.of_orientation o);
      Alcotest.(check (list string))
        (Amg_geometry.Transform.show_orientation o)
        before (Lobj.layers m))
    Amg_geometry.Transform.[ MX; MY ]

let test_resistor () =
  let e = env () in
  let o, ohms = M.Resistor.make e ~squares:100. () in
  check "drc" 0 (drc o);
  (* 100 squares at 25 ohm/sq, minus the bend corrections. *)
  check_bool "value in range" true (ohms > 2300. && ohms <= 2500.);
  check_bool "resmark present" true (Lobj.shapes_on o "resmark" <> []);
  check_bool "ports" true (Lobj.port o "a" <> None && Lobj.port o "b" <> None);
  (* A short resistor is a single straight leg. *)
  let short, short_ohms = M.Resistor.make e ~squares:10. () in
  check "short drc" 0 (drc short);
  Alcotest.(check (float 1.)) "short exact" 250. short_ohms

let test_capacitor () =
  let e = env () in
  let o, ff = M.Capacitor.make e ~cap_ff:200. () in
  check "drc" 0 (drc o);
  check_bool "value close" true (Float.abs (ff -. 200.) /. 200. < 0.1);
  check_bool "poly2 present" true (List.mem "poly2" (Lobj.layers o));
  check_bool "ports" true (Lobj.port o "top" <> None && Lobj.port o "bot" <> None)

let test_stacked () =
  let e = env () in
  let st = M.Stacked.series e ~polarity:M.Mosfet.Nmos ~w:(um 6.) ~l:(um 4.) ~stages:4 () in
  check "drc" 0 (drc st);
  let ex = Amg_extract.Devices.extract ~tech:(Env.tech e) st in
  check "four series stages" 4 (List.length ex.Amg_extract.Devices.mosfets);
  (* All gates common; the chain visits a and b exactly once each. *)
  let terminals =
    List.concat_map
      (fun (m : Amg_extract.Devices.mos) ->
        [ m.Amg_extract.Devices.x_s; m.Amg_extract.Devices.x_d ])
      ex.Amg_extract.Devices.mosfets
  in
  check "a appears once" 1 (List.length (List.filter (String.equal "a") terminals));
  check "b appears once" 1 (List.length (List.filter (String.equal "b") terminals));
  List.iter
    (fun (m : Amg_extract.Devices.mos) ->
      check_bool "common gate" true (m.Amg_extract.Devices.x_g = "g"))
    ex.Amg_extract.Devices.mosfets

let test_diode_connected () =
  let e = env () in
  let d = M.Mosfet.diode_connected e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) () in
  check "drc" 0 (drc d);
  (* The gate and drain metals must be one electrical node — the wire is
     real, not just a label. *)
  let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) d in
  let node_of_port name =
    let p = Lobj.port_exn d name in
    Amg_extract.Connectivity.node_at conn ~layer:"metal1"
      ~x:(Rect.center_x p.Amg_layout.Port.rect)
      ~y:(Rect.center_y p.Amg_layout.Port.rect)
  in
  let g = node_of_port "g" and s = node_of_port "s" in
  check_bool "found" true (g <> None && s <> None);
  check_bool "gate separate from source" true (g <> s);
  (* Probing the drain row (east side) lands on the gate node. *)
  let ex = Amg_extract.Devices.extract ~tech:(Env.tech e) d in
  (match ex.Amg_extract.Devices.mosfets with
  | [ m ] ->
      check_bool "diode" true
        (m.Amg_extract.Devices.x_g = m.Amg_extract.Devices.x_d
        || m.Amg_extract.Devices.x_g = m.Amg_extract.Devices.x_s)
  | _ -> Alcotest.fail "one device");
  check "no shorts" 0 (List.length ex.Amg_extract.Devices.short_nets)

let test_module_connectivity () =
  (* The paper's modules include their internal wiring: every named net of
     each module must be physically one node. *)
  let e = env () in
  let audit name o nets =
    let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) o in
    List.iter
      (fun n ->
        Alcotest.(check int)
          (name ^ "." ^ n ^ " connected")
          1
          (Amg_extract.Connectivity.label_node_count conn n))
      nets
  in
  audit "interdig"
    (M.Interdigitated.make e ~polarity:M.Mosfet.Nmos ~w:(um 10.) ~l:(um 2.) ~fingers:4 ())
    [ "s"; "d"; "g" ];
  audit "xcoupled"
    (M.Cross_coupled.common_gate e ~polarity:M.Mosfet.Nmos ~w:(um 12.) ~l:(um 2.) ())
    [ "vss"; "da"; "db"; "vbias" ];
  audit "mirror_sym"
    (M.Current_mirror.symmetric e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) ())
    [ "vss"; "dout"; "vg" ];
  audit "mirror_simple"
    (M.Current_mirror.simple e ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.) ())
    [ "vss"; "dout"; "vg" ];
  audit "npn_pair"
    (M.Bipolar.symmetric_pair e ~we:(um 2.) ~le:(um 8.)
       ~nets_1:("e", "b", "c") ~nets_2:("e", "b", "c") ())
    [ "e"; "b"; "c" ];
  audit "stacked"
    (M.Stacked.series e ~polarity:M.Mosfet.Nmos ~w:(um 6.) ~l:(um 4.) ~stages:3 ())
    [ "a"; "b"; "g" ]

(* --- common-centroid unit-capacitor array --- *)

let plan_centroids (p : M.Cap_array.plan) =
  (* Cell-grid centroids per group (unit cell centres at integer coords). *)
  let acc = Hashtbl.create 2 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j g ->
          let n, sx, sy =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc g)
          in
          Hashtbl.replace acc g (n + 1, sx + j, sy + i))
        row)
    p.M.Cap_array.cells;
  Hashtbl.fold
    (fun g (n, sx, sy) l ->
      (g, (float_of_int sx /. float_of_int n, float_of_int sy /. float_of_int n)) :: l)
    acc []

let plan_symmetric (p : M.Cap_array.plan) =
  let ok = ref true in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j g ->
          if
            p.M.Cap_array.cells.(p.M.Cap_array.rows - 1 - i).(p.M.Cap_array.cols - 1 - j)
            <> g
          then ok := false)
        row)
    p.M.Cap_array.cells;
  !ok

let test_cap_array_plan () =
  let p = M.Cap_array.plan ~units_a:4 ~units_b:4 in
  check "rows" 2 p.M.Cap_array.rows;
  check "cols" 4 p.M.Cap_array.cols;
  (match plan_centroids p with
  | [ (_, a); (_, b) ] -> check_bool "centroids equal" true (a = b)
  | _ -> Alcotest.fail "two groups expected");
  check_bool "symmetric 4:4" true (plan_symmetric p);
  check_bool "symmetric 2:6" true (plan_symmetric (M.Cap_array.plan ~units_a:2 ~units_b:6));
  check_bool "symmetric odd grid 4:5" true
    (plan_symmetric (M.Cap_array.plan ~units_a:4 ~units_b:5));
  (* An odd total always has exactly one odd count (parity), so any odd
     total is assignable: the odd group owns the centre cell. *)
  check_bool "4:11 assignable" true
    (plan_symmetric (M.Cap_array.plan ~units_a:4 ~units_b:11));
  (* Odd/odd on an even grid is the one unassignable split. *)
  Alcotest.check_raises "odd counts on even grid"
    (Amg_core.Env.Rejected
       "Cap_array: even grid needs even unit counts for a symmetric assignment")
    (fun () -> ignore (M.Cap_array.plan ~units_a:3 ~units_b:5))

let test_cap_array_layout () =
  let e = env () in
  let obj, _ = M.Cap_array.make e ~unit_ff:20. ~units_a:2 ~units_b:6 () in
  check "drc clean" 0 (drc obj);
  (* Both groups' physical top-plate centroids coincide exactly. *)
  (match (M.Cap_array.centroid obj ~net:"ca", M.Cap_array.centroid obj ~net:"cb") with
  | Some (ax, ay), Some (bx, by) ->
      check_bool "x centroid" true (Float.abs (ax -. bx) < 1.);
      check_bool "y centroid" true (Float.abs (ay -. by) < 1.)
  | _ -> Alcotest.fail "centroids missing");
  (* Extraction: exactly two capacitors at the 1:3 ratio, dummies gone. *)
  let x = Amg_extract.Devices.extract ~tech:(Env.tech e) obj in
  (match
     List.sort compare
       (List.map (fun (a, b, ff) -> ((min a b, max a b), ff))
          x.Amg_extract.Devices.capacitors)
   with
  | [ (("bot", "ca"), fa); (("bot", "cb"), fb) ] ->
      check_bool "ratio 1:3" true (Float.abs ((fb /. fa) -. 3.) < 0.01)
  | caps -> Alcotest.failf "expected 2 caps, got %d" (List.length caps));
  check "no shorts" 0 (List.length x.Amg_extract.Devices.short_nets);
  (* Each terminal is one electrical node. *)
  let conn = Amg_extract.Connectivity.build ~tech:(Env.tech e) obj in
  List.iter
    (fun net ->
      check ("one node " ^ net) 1
        (List.length (Amg_extract.Connectivity.label_components conn net)))
    [ "ca"; "cb"; "bot" ];
  (* Without dummies it still checks out. *)
  let bare, _ = M.Cap_array.make e ~unit_ff:20. ~units_a:2 ~units_b:2 ~dummies:false () in
  check "bare drc" 0 (drc bare)

(* Any valid unit-count split yields a point-symmetric plan with exact
   count bookkeeping. *)
let prop_cap_array_plan_symmetric =
  QCheck2.Test.make ~name:"cap array plan symmetric" ~count:200
    QCheck2.Gen.(tup2 (int_range 1 12) (int_range 1 12))
    (fun (ha, hb) ->
      let a = 2 * ha and b = 2 * hb in
      let p = M.Cap_array.plan ~units_a:a ~units_b:b in
      let count g =
        Array.fold_left
          (fun acc row ->
            Array.fold_left (fun acc c -> if c = g then acc + 1 else acc) acc row)
          0 p.M.Cap_array.cells
      in
      count M.Cap_array.A = a && count M.Cap_array.B = b && plan_symmetric p
      && p.M.Cap_array.rows * p.M.Cap_array.cols = a + b)


(* --- matched resistor pair --- *)

let test_resistor_pair () =
  let e = env () in
  let obj, nominal = M.Resistor_pair.make e ~squares:80. () in
  Alcotest.(check (float 1e-6)) "nominal 80 sq x 25 ohm" 2000. nominal;
  check "drc clean" 0 (drc obj);
  (* Extraction reduces each two-strip chain to one resistor; both equal. *)
  let x = Amg_extract.Devices.extract ~tech:(Env.tech e) obj in
  (match
     List.sort compare
       (List.map (fun (a, b, v) -> ((min a b, max a b), v)) x.Amg_extract.Devices.resistors)
   with
  | [ (("a1", "a2"), va); (("b1", "b2"), vb) ] ->
      Alcotest.(check (float 1e-6)) "A value exact" 2000. va;
      Alcotest.(check (float 1e-6)) "B equals A" va vb
  | rs -> Alcotest.failf "expected 2 reduced resistors, got %d" (List.length rs));
  check "no shorts" 0 (List.length x.Amg_extract.Devices.short_nets);
  (* ABBA: both films share the x centroid. *)
  (match
     ( M.Resistor_pair.film_centroid_x obj ~strips:[ 0; 3 ],
       M.Resistor_pair.film_centroid_x obj ~strips:[ 1; 2 ] )
   with
  | Some a, Some b -> check_bool "centroid" true (Float.abs (a -. b) < 1.)
  | _ -> Alcotest.fail "centroids missing");
  Alcotest.check_raises "zero squares"
    (Amg_core.Env.Rejected "Resistor_pair: squares <= 0") (fun () ->
      ignore (M.Resistor_pair.make e ~squares:0. ()))


(* --- parameter sweeps: every generator is rule-clean across its whole
   useful parameter range, not just the defaults the unit tests pick. --- *)

let drc_clean_named name obj =
  match
    Amg_drc.Checker.run
      ~checks:[ Amg_drc.Checker.Widths; Spacings; Enclosures; Extensions ]
      ~tech:(Env.tech (env ())) obj
  with
  | [] -> true
  | v :: _ ->
      QCheck2.Test.fail_reportf "%s: %s" name (Amg_drc.Violation.describe v)

let prop_sweep_interdigitated =
  QCheck2.Test.make ~name:"sweep: interdigitated DRC clean" ~count:25
    QCheck2.Gen.(
      tup4 (int_range 2 12) (int_range 1 4) (int_range 2 6) bool)
    (fun (w, l, fingers, nmos) ->
      let e = env () in
      let o =
        M.Interdigitated.make e
          ~polarity:(if nmos then M.Mosfet.Nmos else M.Mosfet.Pmos)
          ~w:(um (float_of_int w)) ~l:(um (float_of_int l)) ~fingers ()
      in
      drc_clean_named "interdigitated" o)

let prop_sweep_diff_pair =
  QCheck2.Test.make ~name:"sweep: diff pair DRC clean" ~count:25
    QCheck2.Gen.(tup3 (int_range 2 14) (int_range 1 5) bool)
    (fun (w, l, nmos) ->
      let e = env () in
      let o =
        M.Diff_pair.make e
          ~polarity:(if nmos then M.Mosfet.Nmos else M.Mosfet.Pmos)
          ~w:(um (float_of_int w)) ~l:(um (float_of_int l)) ()
      in
      drc_clean_named "diff_pair" o)

let prop_sweep_mirror =
  QCheck2.Test.make ~name:"sweep: mirrors DRC clean" ~count:25
    QCheck2.Gen.(tup3 (int_range 3 12) (int_range 1 4) bool)
    (fun (w, l, sym) ->
      let e = env () in
      let o =
        (if sym then M.Current_mirror.symmetric else M.Current_mirror.simple)
          e ~polarity:M.Mosfet.Nmos ~w:(um (float_of_int w))
          ~l:(um (float_of_int l)) ()
      in
      drc_clean_named "mirror" o)

let prop_sweep_resistor =
  QCheck2.Test.make ~name:"sweep: resistor DRC clean + value" ~count:25
    QCheck2.Gen.(int_range 10 200)
    (fun squares ->
      let e = env () in
      let o, ohms =
        M.Resistor.make e ~squares:(float_of_int squares) ()
      in
      (* Sheet 25 ohm/sq; bends discount, leg discretisation can overshoot
         slightly — the generator returns the honest measured value. *)
      ohms <= float_of_int squares *. 25. *. 1.1
      && ohms > float_of_int squares *. 25. *. 0.8
      && drc_clean_named "resistor" o)

let prop_sweep_stacked =
  QCheck2.Test.make ~name:"sweep: stacked DRC clean" ~count:20
    QCheck2.Gen.(tup3 (int_range 3 10) (int_range 1 3) (int_range 1 4))
    (fun (w, l, stages) ->
      let e = env () in
      let o =
        M.Stacked.series e ~polarity:M.Mosfet.Nmos ~w:(um (float_of_int w))
          ~l:(um (float_of_int l)) ~stages ()
      in
      drc_clean_named "stacked" o)

let prop_sweep_cap_array =
  QCheck2.Test.make ~name:"sweep: cap array DRC clean + ratio" ~count:15
    QCheck2.Gen.(tup2 (int_range 1 3) (int_range 1 3))
    (fun (ha, hb) ->
      let e = env () in
      let a = 2 * ha and b = 2 * hb in
      let obj, _ =
        M.Cap_array.make e ~unit_ff:15. ~units_a:a ~units_b:b ()
      in
      let x = Amg_extract.Devices.extract ~tech:(Env.tech e) obj in
      let ratio_ok =
        match
          List.sort compare
            (List.map (fun (p, q, ff) -> ((min p q, max p q), ff))
               x.Amg_extract.Devices.capacitors)
        with
        | [ (_, fa); (_, fb) ] ->
            Float.abs ((fb /. fa) -. (float_of_int b /. float_of_int a)) < 0.02
            || Float.abs ((fa /. fb) -. (float_of_int b /. float_of_int a)) < 0.02
        | _ -> false
      in
      ratio_ok && drc_clean_named "cap_array" obj)


let prop_sweep_cross_coupled =
  QCheck2.Test.make ~name:"sweep: cross coupled DRC clean" ~count:15
    QCheck2.Gen.(tup3 (int_range 4 12) (int_range 1 3) bool)
    (fun (w, l, tap) ->
      let e = env () in
      let o =
        M.Cross_coupled.common_gate e ~polarity:M.Mosfet.Pmos
          ?well_tap:(if tap then Some "vdd" else None)
          ~w:(um (float_of_int w)) ~l:(um (float_of_int l)) ()
      in
      drc_clean_named "cross_coupled" o)

let prop_sweep_common_centroid =
  QCheck2.Test.make ~name:"sweep: module E DRC clean + centroid" ~count:8
    QCheck2.Gen.(tup2 (int_range 6 12) (int_range 1 3))
    (fun (w, l) ->
      let e = env () in
      let o =
        M.Common_centroid.make e ~polarity:M.Mosfet.Pmos
          ~w:(um (float_of_int w)) ~l:(um (float_of_int l)) ()
      in
      let centroid_ok =
        match
          ( M.Common_centroid.gate_centroid o ~net:"inp",
            M.Common_centroid.gate_centroid o ~net:"inn" )
        with
        | Some a, Some b -> Float.abs (a -. b) < 1.
        | _ -> false
      in
      centroid_ok && drc_clean_named "common_centroid" o)

let suite =
  [
    Alcotest.test_case "contact row" `Quick test_contact_row;
    Alcotest.test_case "via row" `Quick test_via_row;
    Alcotest.test_case "taps" `Quick test_taps;
    Alcotest.test_case "guard ring" `Quick test_guard_ring;
    Alcotest.test_case "mosfet" `Quick test_mosfet;
    Alcotest.test_case "diff pair structure" `Quick test_diff_pair;
    Alcotest.test_case "interdigitated" `Quick test_interdigitated;
    Alcotest.test_case "mos array validation" `Quick test_mos_array_validation;
    Alcotest.test_case "current mirrors" `Quick test_current_mirrors;
    Alcotest.test_case "cross coupled" `Quick test_cross_coupled;
    Alcotest.test_case "common centroid (module E)" `Quick test_common_centroid;
    Alcotest.test_case "common centroid validation" `Quick test_common_centroid_bad_pairs;
    Alcotest.test_case "bipolar" `Quick test_bipolar;
    Alcotest.test_case "bipolar mirror keeps layer order" `Quick
      test_bipolar_mirror_layers;
    Alcotest.test_case "resistor" `Quick test_resistor;
    Alcotest.test_case "capacitor" `Quick test_capacitor;
    Alcotest.test_case "stacked transistors" `Quick test_stacked;
    Alcotest.test_case "diode connected" `Quick test_diode_connected;
    Alcotest.test_case "module connectivity" `Quick test_module_connectivity;
    Alcotest.test_case "cap array: plan" `Quick test_cap_array_plan;
    Alcotest.test_case "cap array: layout, DRC, ratio" `Quick test_cap_array_layout;
    QCheck_alcotest.to_alcotest prop_cap_array_plan_symmetric;
    Alcotest.test_case "resistor pair: matched + reduced" `Quick test_resistor_pair;
    QCheck_alcotest.to_alcotest prop_sweep_interdigitated;
    QCheck_alcotest.to_alcotest prop_sweep_diff_pair;
    QCheck_alcotest.to_alcotest prop_sweep_mirror;
    QCheck_alcotest.to_alcotest prop_sweep_resistor;
    QCheck_alcotest.to_alcotest prop_sweep_stacked;
    QCheck_alcotest.to_alcotest prop_sweep_cap_array;
    QCheck_alcotest.to_alcotest prop_sweep_cross_coupled;
    QCheck_alcotest.to_alcotest prop_sweep_common_centroid;
  ]
