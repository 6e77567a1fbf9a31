(* General inter-digitated MOS array engine.

   A module is described west-to-east as a column list alternating contact
   rows (with per-row nets) and gate fingers (with per-finger gate nets),
   plus a strap plan.  This single engine expresses the paper's block
   modules: simple and symmetric current mirrors (block B), cross-coupled
   current sources (block C), and — with dummies — the common-centroid
   differential pair of module E.

   Wiring resources:
   - row nets are strapped by metal1 bars north/south (variable row-metal
     edges let the compactor shrink foreign rows out of the way, Fig. 5);
   - additional nets use metal2 bars with via connections, so they may
     cross the metal1 straps;
   - every gate finger gets a poly landing pad; gate nets are collected on
     metal tracks above the array. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Build = Amg_core.Build
module Path = Amg_route.Path
module Wire = Amg_route.Wire

type column = Row of string | Fin of string
(* [Row net]: a diffusion contact row on the given net.
   [Fin gate_net]: a gate finger. *)

type metal = M1 | M2

type strap = { strap_net : string; side : Dir.t; metal : metal }

type t = {
  obj : Lobj.t;
  rows : (string * Lobj.t) list;     (* net, placed row object *)
  fins : (string * Lobj.t) list;     (* gate net, placed finger object *)
  pads : (string * Rect.t) list;     (* gate net, landing-pad metal rect *)
}

let validate columns =
  let rec ok = function
    | Row _ :: (Fin _ :: _ as rest) -> ok rest
    | Fin _ :: (Row _ :: _ as rest) -> ok rest
    | [ Row _ ] -> true
    | _ -> false
  in
  match columns with
  | Row _ :: _ when ok columns -> ()
  | _ ->
      Env.reject
        "mos_array: columns must alternate Row and Fin, starting and ending with Row"

let finger env ~diff ~w ~l ~net_g =
  let o = Lobj.create "finger" in
  let _ = Prim.tworects env o ~layer_a:"poly" ~layer_b:diff ~w ~l ~net_a:net_g () in
  o

let strap_bar env ~name ~layer ~len ~net =
  let o = Lobj.create name in
  let width = Rules.width (Env.rules env) layer in
  let _ = Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x:0 ~y:0 ~w:len ~h:width) ~net () in
  o

(* Gate landing pad: poly + metal1 + contact, at least one contact wide. *)
let gate_pad env ~net_g =
  Contact_row.make env ~name:"gatepad" ~layer:"poly" ~net:net_g ()

let center_x_of obj =
  match Lobj.bbox obj with
  | Some r -> Rect.center_x r
  | None -> 0

let make env ?(name = "mos_array") ?(gate_tracks = true) ?well_tap ~polarity ~w ~l ~columns ~straps () =
  validate columns;
  let rules = Env.rules env in
  let diff = Mosfet.diffusion_layer polarity in
  let obj = Lobj.create name in
  (* 1. Columns, west to east. *)
  let rows = ref [] and fins = ref [] in
  List.iter
    (fun col ->
      match col with
      | Row net ->
          let row =
            Contact_row.make env ~name:"row" ~layer:diff ~w ~net
              ~var_edges:[ Dir.North; Dir.South ] ()
          in
          Build.compact env ~into:obj ~ignore_layers:[ diff ] row Dir.West;
          rows := (net, row) :: !rows
      | Fin net_g ->
          let fin = finger env ~diff ~w ~l ~net_g in
          Build.compact env ~into:obj ~ignore_layers:[ diff ] fin Dir.West;
          fins := (net_g, fin) :: !fins)
    columns;
  let rows = List.rev !rows and fins = List.rev !fins in
  let array_bbox = Lobj.bbox_exn obj in
  (* When every finger shares one gate net, strap the gates with a plain
     poly bar and a single contact row on its western extension (the
     Interdigitated style): no landing pads and no metal2 track means
     nothing fences the rows in.  Multi-net arrays fall back to per-finger
     pads with stacked metal2 tracks. *)
  let gate_nets_all =
    List.sort_uniq compare (List.map fst fins)
  in
  let single_gate_net =
    match gate_nets_all with [ _ ] -> gate_tracks | _ -> false
  in
  if single_gate_net then begin
    let net_g = List.hd gate_nets_all in
    let bar_ext =
      Amg_layout.Derive.min_container_extent rules ~container_layer:"poly"
        ~cut_layer:"contact"
      + Rules.space_exn rules "metal1" "metal1"
    in
    let span0 = Rect.width array_bbox in
    let bar = strap_bar env ~name:"gatebar" ~layer:"poly" ~len:(span0 + bar_ext) ~net:net_g in
    Build.compact env ~into:obj ~align:`Max bar Dir.South;
    let polycon =
      Contact_row.make env ~name:"polycon" ~layer:"poly" ~net:net_g ()
    in
    Build.compact env ~into:obj ~ignore_layers:[ "poly" ] ~align:`Min polycon
      Dir.South
  end;
  (* 2. Gate landing pads above each finger (multi-net arrays only). *)
  let pads =
    if single_gate_net then []
    else
      List.map
        (fun (net_g, fin) ->
        let pad = gate_pad env ~net_g in
        (* Centre the pad on its finger before compacting it down. *)
        (match (Lobj.bbox pad, Lobj.bbox_on fin "poly") with
        | Some pb, Some fb ->
            Lobj.translate pad ~dx:(Rect.center_x fb - Rect.center_x pb) ~dy:0
        | _ -> ());
        Build.compact env ~into:obj ~ignore_layers:[ "poly" ] pad Dir.South;
        let metal_rect =
          match Lobj.bbox_on pad "metal1" with
          | Some r -> r
          | None -> Rect.of_size ~x:(center_x_of pad) ~y:0 ~w:0 ~h:0
        in
        (net_g, metal_rect))
      fins
  in
  (* 2b. Gate tracks: gate nets with several pads are collected on stacked
     metal2 bars above the pads.  Each pad rises on a metal1 drop (which may
     legally cross foreign metal2 tracks) and changes layer with a via at
     its own track, so any finger pattern — nested or interleaved — routes
     without planarity restrictions. *)
  let gate_nets =
    List.fold_left
      (fun acc (g, _) -> if List.mem g acc then acc else acc @ [ g ])
      [] fins
  in
  let multi_pad_nets =
    if not gate_tracks then []
    else
      List.filter
        (fun g ->
          List.length (List.filter (fun (g', _) -> String.equal g g') pads) > 1)
        gate_nets
  in
  let pads_top =
    List.fold_left (fun acc (_, r) -> Int.max acc r.Rect.y1) min_int pads
  in
  let m1w = Rules.width rules "metal1" in
  let m2w = Rules.width rules "metal2" in
  let m2s = Rules.space_exn rules "metal2" "metal2" in
  let track_info =
    List.map
      (fun g ->
        let xs =
          List.filter_map
            (fun (g', r) -> if String.equal g g' then Some (Rect.center_x r) else None)
            pads
        in
        let lo = List.fold_left Int.min max_int xs and hi = List.fold_left Int.max min_int xs in
        (g, lo, hi))
      multi_pad_nets
    |> List.sort (fun (_, lo1, hi1) (_, lo2, hi2) -> compare (hi1 - lo1) (hi2 - lo2))
  in
  List.iteri
    (fun k (g, lo, hi) ->
      let y0 = pads_top + (2 * m2w) + (k * (m2w + m2s)) in
      let yc = y0 + (m2w / 2) in
      let track = Rect.make ~x0:(lo - m2w) ~y0 ~x1:(hi + m2w) ~y1:(y0 + m2w) in
      let _ = Lobj.add_shape obj ~layer:"metal2" ~rect:track ~net:g () in
      List.iter
        (fun (g', pr) ->
          if String.equal g g' then begin
            let x = Rect.center_x pr in
            let _ =
              Path.draw obj ~layer:"metal1" ~width:m1w ~net:g
                [ (x, Rect.center_y pr); (x, yc) ]
            in
            let _ = Wire.via env obj ~at:(x, yc) ~net:g () in
            ()
          end)
        pads)
    track_info;
  (* 3. Metal1 straps (successively compacted; rows of other nets shrink
     out of the way through their variable edges). *)
  let span = Rect.width array_bbox in
  List.iter
    (fun s ->
      match s.metal with
      | M1 ->
          (* Overhang beyond the gate-track span so a parent router can
             via onto the strap clear of the metal2 underneath. *)
          let bar =
            strap_bar env ~name:(s.strap_net ^ "_strap") ~layer:"metal1"
              ~len:(span + (2 * Units.of_um 4.))
              ~net:s.strap_net
          in
          Build.compact env ~into:obj ~align:`Center bar (Dir.opposite s.side)
      | M2 -> ())
    straps;
  (* 4. Metal2 straps with via connections to their rows. *)
  List.iter
    (fun s ->
      match s.metal with
      | M2 ->
          (* Inner span only: covering just this net's rows leaves escape
             lanes at the block edges for a parent router. *)
          let xs =
            List.filter_map
              (fun (net, row) ->
                if String.equal net s.strap_net then
                  Option.map Rect.center_x (Lobj.bbox row)
                else None)
              rows
          in
          let len =
            match xs with
            | [] -> span
            | x :: _ ->
                let lo = List.fold_left Int.min x xs and hi = List.fold_left Int.max x xs in
                hi - lo + (2 * Rules.width rules "metal2")
          in
          let bar =
            strap_bar env ~name:(s.strap_net ^ "_strap2") ~layer:"metal2" ~len
              ~net:s.strap_net
          in
          Build.compact env ~into:obj ~align:`Center bar (Dir.opposite s.side);
          let strap_rect =
            match Lobj.bbox_on bar "metal2" with
            | Some r -> r
            | None -> array_bbox
          in
          (* The row objects hold pre-shrink geometry; look the current row
             metal up in the main object by net and x position (straps only
             shrink rows vertically). *)
          let current_row_metal ~net ~x =
            List.find_opt
              (fun (sh : Shape.t) ->
                Shape.on_layer sh "metal1"
                && sh.Shape.net = Some net
                && abs (Rect.center_x sh.Shape.rect - x) < Units.of_um 1.)
              (Lobj.shapes obj)
          in
          List.iter
            (fun (net, row) ->
              if String.equal net s.strap_net then begin
                match
                  Option.bind (Lobj.bbox_on row "metal1") (fun stale ->
                      Option.map
                        (fun (sh : Shape.t) -> sh.Shape.rect)
                        (current_row_metal ~net ~x:(Rect.center_x stale)))
                with
                | Some rm ->
                    let x = Rect.center_x rm in
                    (* Via inside the row metal, then a metal2 path down/up
                       to the strap (it may cross the metal1 straps). *)
                    let via_y =
                      if s.side = Dir.South then rm.Rect.y0 + Units.of_um 1.
                      else rm.Rect.y1 - Units.of_um 1.
                    in
                    let _ = Wire.via env obj ~at:(x, via_y) ~net:s.strap_net () in
                    let _ =
                      Path.draw obj ~layer:"metal2"
                        ~width:(Rules.width rules "metal2")
                        ~net:s.strap_net
                        [ (x, via_y); (x, Rect.center_y strap_rect) ]
                    in
                    ()
                | None -> ()
              end)
            rows
      | M1 -> ())
    straps;
  (* 5. Well for PMOS: an optional well-tap row north of the structure
     (tied to [well_tap]'s net, marked for the latch-up check), then the
     well as the hull of all device layers plus the margin. *)
  if polarity = Mosfet.Pmos then begin
    (match well_tap with
    | Some tap_net ->
        let tap = Contact_row.well_tap env ~net:tap_net () in
        Lobj.remove_port tap "tap";
        (* Approach from the side whose strap carries the tap net so the
           tap metal auto-connects with that strap instead of sitting as
           an isolated island behind the other straps. *)
        let dir =
          match
            List.find_opt
              (fun st -> String.equal st.strap_net tap_net)
              straps
          with
          | Some { side = Dir.South; _ } -> Dir.North
          | Some { side = Dir.East; _ } -> Dir.West
          | Some { side = Dir.West; _ } -> Dir.East
          | _ -> Dir.South
        in
        Build.compact env ~into:obj ~align:`Center tap dir;
        Mosfet.port_on obj ~name:tap_net ~net:tap_net ()
    | None -> ());
    let device_rects =
      List.filter_map
        (fun (sh : Shape.t) ->
          if
            Shape.on_layer sh diff || Shape.on_layer sh "poly"
            || Shape.on_layer sh "ndiff"
          then Some sh.Shape.rect
          else None)
        (Lobj.shapes obj)
    in
    match Rect.hull_list device_rects with
    | Some hull ->
        let margin = Rules.enclosure_or_zero rules ~outer:"nwell" ~inner:diff in
        ignore (Lobj.add_shape obj ~layer:"nwell" ~rect:(Rect.inflate hull margin) ())
    | None -> ()
  end;
  (* 6. Ports for every strapped net and every gate net; M2-strapped nets
     additionally expose their row metal as a metal1 port so a parent
     router can escape through the array (the strap itself may be fenced in
     by other metal2). *)
  List.iter
    (fun s ->
      Mosfet.port_on obj ~name:s.strap_net ~net:s.strap_net
        ~layer:(match s.metal with M1 -> "metal1" | M2 -> "metal2")
        ();
      match s.metal with
      | M2 -> Mosfet.port_on obj ~name:s.strap_net ~net:s.strap_net ~layer:"metal1" ()
      | M1 -> ())
    straps;
  List.iter
    (fun (net_g, rect) ->
      if Lobj.port obj net_g = None then
        if List.mem net_g multi_pad_nets then
          Mosfet.port_on obj ~name:net_g ~net:net_g ~layer:"metal2" ()
        else ignore (Lobj.add_port obj ~name:net_g ~net:net_g ~layer:"metal1" ~rect))
    pads;
  if single_gate_net then
    List.iter
      (fun g -> if Lobj.port obj g = None then Mosfet.port_on obj ~name:g ~net:g ())
      gate_nets_all;
  { obj; rows; fins; pads }
