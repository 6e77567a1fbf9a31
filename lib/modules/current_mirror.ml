(* Current mirrors.

   [simple]: two-finger mirror (diode + output) sharing the source row.
   [symmetric]: the paper's block-B style — "a symmetrical layout module
   … with the diode transistor in the middle": the output device is split
   into two fingers flanking the diode.
   [stacked_pair]: two arrays abutted vertically with their facing straps
   merged — the cascode arrangement of block A. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Build = Amg_core.Build
module Path = Amg_route.Path

(* The diode connection: the gates are strapped by the poly bar with a
   single contact row whose metal is separate from the gate-net row strap
   (metal2); join them with a via on the contact metal and an L-shaped
   metal2 path into the strap. *)
let connect_diode env obj ~net =
  let tech = Env.tech env in
  let shapes = Lobj.shapes obj in
  let diffs =
    List.filter_map
      (fun (s : Shape.t) ->
        match Amg_tech.Technology.layer tech s.Shape.layer with
        | Some l when Amg_tech.Layer.is_active l -> Some s.Shape.rect
        | _ -> None)
      shapes
  in
  (* The gate-contact metal: on the net, metal1, away from the diffusion
     rows. *)
  let polycon =
    List.find_opt
      (fun (s : Shape.t) ->
        Shape.on_layer s "metal1"
        && s.Shape.net = Some net
        && not (List.exists (Rect.overlaps s.Shape.rect) diffs))
      shapes
  in
  let strap =
    List.find_opt
      (fun (s : Shape.t) ->
        Shape.on_layer s "metal2" && s.Shape.net = Some net
        && Rect.width s.Shape.rect > Rect.height s.Shape.rect)
      shapes
  in
  match (polycon, strap) with
  | Some pc, Some st ->
      let px = Rect.center_x pc.Shape.rect and py = Rect.center_y pc.Shape.rect in
      let sy = Rect.center_y st.Shape.rect in
      let sx =
        Int.min (st.Shape.rect.Rect.x1 - Amg_geometry.Units.of_um 1.)
          (Int.max (st.Shape.rect.Rect.x0 + Amg_geometry.Units.of_um 1.) px)
      in
      let _ = Amg_route.Wire.via env obj ~at:(px, py) ~net () in
      let _ =
        Path.draw obj ~layer:"metal2"
          ~width:(Rules.width (Env.rules env) "metal2")
          ~net
          [ (px, py); (px, sy); (sx, sy) ]
      in
      ()
  | _ -> ()

let straps ~net_g ~net_s ~net_dout =
  [
    { Mos_array.strap_net = net_s; side = Dir.South; metal = Mos_array.M1 };
    { Mos_array.strap_net = net_dout; side = Dir.North; metal = Mos_array.M1 };
    { Mos_array.strap_net = net_g; side = Dir.North; metal = Mos_array.M2 };
  ]

let simple env ?(name = "mirror") ?well_tap ~polarity ~w ~l ?(net_g = "vg")
    ?(net_s = "vss") ?(net_dout = "dout") () =
  let arr =
    Mos_array.make env ~name ?well_tap ~polarity ~w ~l
      ~columns:
        [ Mos_array.Row net_g; Mos_array.Fin net_g; Mos_array.Row net_s;
          Mos_array.Fin net_g; Mos_array.Row net_dout ]
      ~straps:(straps ~net_g ~net_s ~net_dout)
      ()
  in
  connect_diode env arr.Mos_array.obj ~net:net_g;
  arr.Mos_array.obj

let symmetric env ?(name = "mirror_sym") ?well_tap ~polarity ~w ~l
    ?(net_g = "vg") ?(net_s = "vss") ?(net_dout = "dout") () =
  let arr =
    Mos_array.make env ~name ?well_tap ~polarity ~w ~l
      ~columns:
        [ Mos_array.Row net_dout; Mos_array.Fin net_g; Mos_array.Row net_s;
          Mos_array.Fin net_g; Mos_array.Row net_g; Mos_array.Fin net_g;
          Mos_array.Row net_s; Mos_array.Fin net_g; Mos_array.Row net_dout ]
      ~straps:(straps ~net_g ~net_s ~net_dout)
      ()
  in
  connect_diode env arr.Mos_array.obj ~net:net_g;
  arr.Mos_array.obj

(* Two arrays abutted vertically, the lower one's north strap carrying the
   same net as the upper one's south strap: compaction stops on the strap
   spacing and auto-connection merges the rails (block A's cascode). *)
let stacked_pair env ?(name = "cascode") ~(bottom : Mos_array.t)
    ~(top : Mos_array.t) () =
  let obj = Lobj.create name in
  Build.compact env ~into:obj bottom.Mos_array.obj Dir.South;
  Build.compact env ~into:obj ~align:`Center top.Mos_array.obj Dir.South;
  obj
