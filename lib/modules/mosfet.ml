(* Single MOS transistor module (the "Trans" entity of Fig. 7): gate
   TWORECTS, poly contact row on the north, optional diffusion contact rows
   east/west; n-well placed automatically for PMOS devices. *)

module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Build = Amg_core.Build

type polarity = Nmos | Pmos [@@deriving show { with_path = false }, eq]

let diffusion_layer = function Nmos -> "ndiff" | Pmos -> "pdiff"

type sd_contacts = [ `Both | `West | `East | `None ]

(* Add a port over the hull of the object's [layer] shapes on [net]. *)
let port_on obj ~name ~net ?(layer = "metal1") () =
  let rects =
    List.filter_map
      (fun (s : Shape.t) ->
        if Shape.on_layer s layer && s.Shape.net = Some net then Some s.Shape.rect
        else None)
      (Lobj.shapes obj)
  in
  match Amg_geometry.Rect.hull_list rects with
  | Some rect -> ignore (Lobj.add_port obj ~name ~net ~layer ~rect)
  | None -> ()

(* Auto-connection repair for diffusion rows: at short gate lengths or
   narrow widths the diagonal metal clearance to the gate's contact pad
   can push a compacted S/D row a fraction past the transistor diffusion,
   leaving a sub-spacing gap (an open AND a spacing violation).  Stretch
   the netted row diffusion to overlap the facing un-netted channel
   diffusion — the same-potential merge of §2.3, applied across layers'
   interaction the plain auto-connect cannot see (the binding pair was on
   metal1, the gap on the diffusion). *)
let merge_diff_gaps env obj ~diff =
  let rules = Env.rules env in
  let space =
    Option.value ~default:0 (Amg_tech.Rules.space rules diff diff)
  in
  let grid = Env.grid env in
  let shapes = Lobj.shapes obj in
  List.iter
    (fun (row : Amg_layout.Shape.t) ->
      if Shape.on_layer row diff && row.Shape.net <> None
      then
        List.iter
          (fun (ch : Amg_layout.Shape.t) ->
            if
              Shape.on_layer ch diff
              && ch.Shape.net = None
              && ch.Shape.id <> row.Shape.id
            then begin
              let r = row.Shape.rect and c = ch.Shape.rect in
              let y_overlap =
                Int.min r.Rect.y1 c.Rect.y1 > Int.max r.Rect.y0 c.Rect.y0
              in
              let gap_east = c.Rect.x0 - r.Rect.x1 (* channel east of row *)
              and gap_west = r.Rect.x0 - c.Rect.x1 in
              let stretch rect =
                match Lobj.find obj row.Shape.id with
                | Some cur -> Lobj.replace obj { cur with Shape.rect = rect }
                | None -> ()
              in
              if y_overlap && gap_east > 0 && gap_east < space then
                stretch { r with Rect.x1 = c.Rect.x0 + grid }
              else if y_overlap && gap_west > 0 && gap_west < space then
                stretch { r with Rect.x0 = c.Rect.x1 - grid }
            end)
          shapes)
    shapes

let make env ?(name = "mosfet") ~polarity ~w ~l ?(gate_contact = true)
    ?(sd_contacts = (`Both : sd_contacts)) ?(net_g = "g") ?(net_s = "s")
    ?(net_d = "d") ?(well = true) () =
  let diff = diffusion_layer polarity in
  let obj = Lobj.create name in
  let _gate = Prim.tworects env obj ~layer_a:"poly" ~layer_b:diff ~w ~l ~net_a:net_g () in
  if gate_contact then begin
    let polycon = Contact_row.make env ~name:"polycon" ~layer:"poly" ~l ~net:net_g () in
    Build.compact env ~into:obj ~ignore_layers:[ "poly" ] ~align:`Center polycon
      Dir.South
  end;
  let add_sd dir net =
    let row = Contact_row.make env ~name:"diffcon" ~layer:diff ~w ~net () in
    Build.compact env ~into:obj ~ignore_layers:[ diff ] ~align:`Min row dir
  in
  (match sd_contacts with
  | `Both ->
      add_sd Dir.East net_s;   (* moving east: lands on the west side *)
      add_sd Dir.West net_d
  | `West -> add_sd Dir.East net_s
  | `East -> add_sd Dir.West net_d
  | `None -> ());
  merge_diff_gaps env obj ~diff;
  if polarity = Pmos && well then
    ignore (Prim.around env obj ~layer:"nwell" ());
  if gate_contact then port_on obj ~name:"g" ~net:net_g ();
  (match sd_contacts with
  | `Both ->
      port_on obj ~name:"s" ~net:net_s ();
      port_on obj ~name:"d" ~net:net_d ()
  | `West -> port_on obj ~name:"s" ~net:net_s ()
  | `East -> port_on obj ~name:"d" ~net:net_d ()
  | `None -> ());
  obj

(* Diode-connected transistor (§1 lists it among the module types): a
   transistor with its drain row renamed onto the gate net and wired to the
   gate contact with an L-shaped metal path. *)
let diode_connected env ?(name = "mos_diode") ~polarity ~w ~l ?(net_g = "g")
    ?(net_s = "s") ?(well = true) () =
  let obj =
    make env ~name ~polarity ~w ~l ~net_g ~net_s ~net_d:"__diode_d" ~well ()
  in
  Lobj.rename_net obj ~from_:"__diode_d" ~to_:net_g;
  (match (Lobj.port obj "g", Lobj.port obj "d") with
  | Some gp, Some dp ->
      (* Run along the gate contact row, then down into the drain row. *)
      let _ = Amg_route.Wire.connect_ports env obj ~net:net_g gp dp in
      Lobj.remove_port obj "d"
  | _ -> ());
  obj
