(* Vertical NPN transistor module (§3, block F: "the bipolar transistors
   … are composed symmetrically").

   Simplified vertical NPN in the BiCMOS process: the n-well is the
   collector, a p-base implant carries the emitter (n-diffusion) and the
   base contact (p-diffusion); the collector contact ring is an
   n-diffusion row in the well outside the base.  The collector row doubles
   as the well tap for the latch-up check. *)

module Dir = Amg_geometry.Dir
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Build = Amg_core.Build

let make env ?(name = "npn") ~we ~le ?(net_e = "e") ?(net_b = "b")
    ?(net_c = "c") () =
  let obj = Lobj.create name in
  (* Emitter stripe with its contacts. *)
  let emitter =
    Contact_row.make env ~name:"emitter" ~layer:"ndiff" ~w:we ~l:le ~net:net_e ()
  in
  Build.compact env ~into:obj emitter Dir.West;
  (* Base contact row on the west side of the emitter, inside the base. *)
  let base_row =
    Contact_row.make env ~name:"base_row" ~layer:"pdiff" ~w:we ~net:net_b ()
  in
  Build.compact env ~into:obj ~align:`Center base_row Dir.East;
  (* The p-base implant around emitter and base contact. *)
  let _ = Prim.around env obj ~layer:"pbase" ~net:net_b () in
  (* Collector contact row outside the base on the east side; the
     pbase/ndiff spacing rule keeps it clear of the implant. *)
  let coll_row =
    Contact_row.make env ~name:"coll_row" ~layer:"ndiff" ~w:we ~net:net_c ()
  in
  Build.compact env ~into:obj ~align:`Center coll_row Dir.West;
  (* The well is the collector; mark the collector row as a tap. *)
  let _ = Prim.around env obj ~layer:"nwell" ~net:net_c () in
  (match Lobj.bbox_on obj "nwell" with
  | Some _ -> (
      match
        List.find_opt
          (fun (s : Amg_layout.Shape.t) ->
            Amg_layout.Shape.on_layer s "ndiff"
            && s.Amg_layout.Shape.net = Some net_c)
          (Lobj.shapes obj)
      with
      | Some s -> ignore (Lobj.add_shape obj ~layer:"subtap" ~rect:s.Amg_layout.Shape.rect ())
      | None -> ())
  | None -> ());
  Mosfet.port_on obj ~name:net_e ~net:net_e ();
  Mosfet.port_on obj ~name:net_b ~net:net_b ();
  Mosfet.port_on obj ~name:net_c ~net:net_c ();
  obj

(* A symmetric pair: the second device is the mirror image of the first,
   abutted on the east side (block F). *)
let symmetric_pair env ?(name = "npn_pair") ~we ~le ?(nets_1 = ("e1", "b1", "c1"))
    ?(nets_2 = ("e2", "b2", "c2")) () =
  let e1, b1, c1 = nets_1 and e2, b2, c2 = nets_2 in
  let t1 = make env ~name:"npn1" ~we ~le ~net_e:e1 ~net_b:b1 ~net_c:c1 () in
  let t2 = make env ~name:"npn2" ~we ~le ~net_e:e2 ~net_b:b2 ~net_c:c2 () in
  Lobj.transform t2 (Amg_geometry.Transform.of_orientation Amg_geometry.Transform.MY);
  let obj = Lobj.create name in
  Build.compact env ~into:obj t1 Dir.West;
  Build.compact env ~into:obj ~align:`Min t2 Dir.West;
  (* Shared terminals get straps connecting both devices: collectors on a
     south metal1 bar and bases on a north metal1 bar (their row metals
     auto-connect); shared emitters use a metal2 bar above the base strap
     with via drops, crossing the metal1 freely. *)
  let rules = Env.rules env in
  let full_bar ~layer ~net =
    let bar = Lobj.create (net ^ "_strap") in
    let b = Lobj.bbox_exn obj in
    let _ =
      Lobj.add_shape bar ~layer:"metal1"
        ~rect:
          (Amg_geometry.Rect.of_size ~x:b.Amg_geometry.Rect.x0 ~y:0
             ~w:(Amg_geometry.Rect.width b)
             ~h:(Amg_tech.Rules.width rules layer))
        ~net ()
    in
    bar
  in
  if String.equal c1 c2 then
    Build.compact env ~into:obj ~align:`Min (full_bar ~layer:"metal1" ~net:c1) Dir.North;
  if String.equal b1 b2 then
    Build.compact env ~into:obj ~align:`Min (full_bar ~layer:"metal1" ~net:b1) Dir.South;
  if String.equal e1 e2 then begin
    (* Metal2 bar above the devices spanning only the emitter columns (the
       block edges stay clear for a parent router), via drops into each
       emitter metal. *)
    let b = Lobj.bbox_exn obj in
    let m2w = Amg_tech.Rules.width rules "metal2" in
    let y0 = b.Amg_geometry.Rect.y1 + Amg_geometry.Units.of_um 1. in
    let exs =
      List.filter_map
        (fun (sh : Amg_layout.Shape.t) ->
          if Amg_layout.Shape.on_layer sh "metal1" && sh.Amg_layout.Shape.net = Some e1
          then Some (Amg_geometry.Rect.center_x sh.Amg_layout.Shape.rect)
          else None)
        (Lobj.shapes obj)
    in
    let lo = List.fold_left Int.min b.Amg_geometry.Rect.x1 exs - m2w in
    let hi = List.fold_left Int.max b.Amg_geometry.Rect.x0 exs + m2w in
    let _ =
      Lobj.add_shape obj ~layer:"metal2"
        ~rect:(Amg_geometry.Rect.make ~x0:lo ~y0 ~x1:hi ~y1:(y0 + m2w))
        ~net:e1 ()
    in
    List.iter
      (fun (sh : Amg_layout.Shape.t) ->
        if
          Amg_layout.Shape.on_layer sh "metal1"
          && sh.Amg_layout.Shape.net = Some e1
        then begin
          let x = Amg_geometry.Rect.center_x sh.Amg_layout.Shape.rect in
          let vy = sh.Amg_layout.Shape.rect.Amg_geometry.Rect.y1 - Amg_geometry.Units.of_um 1. in
          let _ = Amg_route.Wire.via env obj ~at:(x, vy) ~net:e1 () in
          ignore
            (Amg_route.Path.draw obj ~layer:"metal2" ~width:m2w ~net:e1
               [ (x, vy); (x, y0 + (m2w / 2)) ])
        end)
      (Lobj.shapes obj)
  end;
  (* Shared nets (e.g. both collectors on the supply) end up with duplicate
     ports; merge them into one hull port per net. *)
  let by_net = Hashtbl.create 8 in
  List.iter
    (fun (p : Amg_layout.Port.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_net p.net) in
      Hashtbl.replace by_net p.net (p :: cur))
    (Lobj.ports obj);
  Hashtbl.iter
    (fun net ports ->
      match ports with
      | _ :: _ :: _ ->
          List.iter (fun (p : Amg_layout.Port.t) -> Lobj.remove_port obj p.name) ports;
          (match
             Amg_geometry.Rect.hull_list
               (List.map (fun (p : Amg_layout.Port.t) -> p.rect) ports)
           with
          | Some rect ->
              ignore
                (Lobj.add_port obj ~name:net ~net
                   ~layer:(List.hd ports).Amg_layout.Port.layer ~rect)
          | None -> ())
      | _ -> ())
    by_net;
  obj
