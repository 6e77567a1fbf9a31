(* The contact row of the paper's Fig. 2 — the workhorse sub-module:
   landing rectangle, metal1 inside it, equidistant contact array.  Edge
   freedoms are parameterizable so parents can let the compactor shrink the
   row (Fig. 5b). *)

module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Edge = Amg_layout.Edge
module Env = Amg_core.Env
module Prim = Amg_core.Prim

let variable_sides dirs =
  List.fold_left (fun acc d -> Edge.set acc d Edge.Variable) Edge.all_fixed dirs

(* [make env ~layer ?w ?l ?net ()] builds a contact row landing on [layer].
   [var_edges] marks the listed edges of both the landing and the metal
   rectangle as variable.  [port] adds a metal1 port of that name. *)
let make env ?(name = "contact_row") ~layer ?w ?l ?net ?(var_edges = []) ?port () =
  let obj = Lobj.create name in
  let sides = variable_sides var_edges in
  let _ = Prim.inbox env obj ~layer ?w ?l ?net ~sides () in
  let metal = Prim.inbox env obj ~layer:"metal1" ?net ~sides () in
  let _ = Prim.array env obj ~layer:"contact" ?net () in
  (match (port, net) with
  | Some pname, Some pnet ->
      ignore (Lobj.add_port obj ~name:pname ~net:pnet ~layer:"metal1" ~rect:metal.Amg_layout.Shape.rect)
  | Some pname, None ->
      ignore (Lobj.add_port obj ~name:pname ~net:pname ~layer:"metal1" ~rect:metal.Amg_layout.Shape.rect)
  | None, _ -> ());
  obj

(* A via row: metal1, metal2 and the via array — used to change layers on
   straps. *)
let via_row env ?(name = "via_row") ?w ?l ?net ?(var_edges = []) ?port () =
  let obj = Lobj.create name in
  let sides = variable_sides var_edges in
  let _ = Prim.inbox env obj ~layer:"metal1" ?w ?l ?net ~sides () in
  let metal2 = Prim.inbox env obj ~layer:"metal2" ?net ~sides () in
  let _ = Prim.array env obj ~layer:"via" ?net () in
  (match (port, net) with
  | Some pname, Some pnet ->
      ignore (Lobj.add_port obj ~name:pname ~net:pnet ~layer:"metal2" ~rect:metal2.Amg_layout.Shape.rect)
  | Some pname, None ->
      ignore (Lobj.add_port obj ~name:pname ~net:pname ~layer:"metal2" ~rect:metal2.Amg_layout.Shape.rect)
  | None, _ -> ());
  obj

(* Substrate tap: a p-diffusion contact row tied to the substrate net, with
   the [subtap] marker the latch-up check of Fig. 1 looks for. *)
let substrate_tap env ?(name = "subtap") ?w ?l ?(net = "vss") () =
  let obj = make env ~name ~layer:"pdiff" ?w ?l ~net ~port:"tap" () in
  (match Lobj.bbox_on obj "pdiff" with
  | Some rect -> ignore (Lobj.add_shape obj ~layer:"subtap" ~rect ())
  | None -> ());
  obj

(* Well tap: an n-diffusion contact row inside the well, tied to the supply;
   also a latch-up tap for the well side. *)
let well_tap env ?(name = "welltap") ?w ?l ?(net = "vdd") () =
  let obj = make env ~name ~layer:"ndiff" ?w ?l ~net ~port:"tap" () in
  (match Lobj.bbox_on obj "ndiff" with
  | Some rect -> ignore (Lobj.add_shape obj ~layer:"subtap" ~rect ())
  | None -> ());
  obj

(* Guard ring: a diffusion ring around the current structure with contact
   rows on the north and south legs, marked as a tap. *)
let guard_ring env obj ~layer ?(net = "vss") () =
  let rules = Env.rules env in
  let width =
    Int.max
      (Amg_tech.Rules.width rules layer)
      (Amg_layout.Derive.min_container_extent rules ~container_layer:layer
         ~cut_layer:"contact")
  in
  let legs = Prim.ring env obj ~layer ~width ~net () in
  (* Metal and contacts on the horizontal legs. *)
  List.iter
    (fun (leg : Amg_layout.Shape.t) ->
      let r = leg.Amg_layout.Shape.rect in
      if Rect.width r > Rect.height r then begin
        let m =
          Rect.inflate r
            (-Amg_core.Margins.inside rules ~outer:layer ~inner:"metal1")
        in
        let metal = Lobj.add_shape obj ~layer:"metal1" ~rect:m ~net () in
        let _ =
          Prim.array env obj ~layer:"contact" ~net ~within:[ leg; metal ] ()
        in
        ()
      end;
      ignore (Lobj.add_shape obj ~layer:"subtap" ~rect:r ()))
    legs;
  legs
