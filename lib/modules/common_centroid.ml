(* Module E (§3, Fig. 10): the centroidal cross-coupled inter-digitated
   differential pair "with eight dummy transistors in the middle and four
   dummy transistors on the right and left side", with fully symmetric
   wiring.

   Finger sequence (west to east), for [pairs = k] fingers per device per
   half:

     [D x side_dummies] [A..A dA A..A] [B..B dB B..B] [D x mid_dummies]
     [B..B dB B..B] [A..A dA A..A] [D x side_dummies]

   Both devices' centroids coincide with the centre axis; the right half is
   the mirror image of the left, so gradient-induced mismatch cancels.

   Wiring plan (all x positions mirrored about the centre axis):
   - south, inside out: the common-source metal1 rail S1; the inner-span
     metal2 rail S2 for drain B; the full-span metal2 rail S3 for drain A;
     both drains reach their rails through vias and metal2 drops that cross
     S1 where metal1 may not run;
   - north: poly landing pads on every gate; dummies tie their pads to the
     source rail with metal1 drops straight down through the array; the
     input gates collect on four metal2 half-tracks (left-A high, left-B
     low, right-B high, right-A low) joined by a planar two-via crossover
     in the dummy region, giving each input identical structure: one tall
     metal1 riser, one short riser, one horizontal, two vias, and the same
     number of crossings (zero) — "the wiring is fully symmetrical and
     every net has identical crossings". *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Build = Amg_core.Build
module Path = Amg_route.Path
module Wire = Amg_route.Wire

type spec = {
  pairs : int;         (* fingers per device per half *)
  side_dummies : int;  (* paper: 4 *)
  mid_dummies : int;   (* paper: 8 *)
}

let paper_spec = { pairs = 2; side_dummies = 4; mid_dummies = 8 }

(* Column plan.  Each device group of [n] fingers shares one drain row in
   its middle: s F s .. F d F .. s; dummies sit between source rows. *)
let group ~net_g ~net_d n =
  let rec go i acc =
    if i >= n then acc
    else
      let acc = Mos_array.Fin net_g :: acc in
      let acc =
        if i = (n / 2) - 1 || (n = 1 && i = 0) then Mos_array.Row net_d :: acc
        else if i < n - 1 then Mos_array.Row "__s" :: acc
        else acc
      in
      go (i + 1) acc
  in
  List.rev (go 0 [])

let dummies n =
  List.concat_map (fun _ -> [ Mos_array.Fin "__dum"; Mos_array.Row "__s" ])
    (List.init n Fun.id)

let columns ~spec ~net_ga ~net_gb ~net_da ~net_db =
  [ Mos_array.Row "__s" ]
  @ dummies spec.side_dummies
  @ group ~net_g:net_ga ~net_d:net_da spec.pairs @ [ Mos_array.Row "__s" ]
  @ group ~net_g:net_gb ~net_d:net_db spec.pairs @ [ Mos_array.Row "__s" ]
  @ dummies spec.mid_dummies
  @ group ~net_g:net_gb ~net_d:net_db spec.pairs @ [ Mos_array.Row "__s" ]
  @ group ~net_g:net_ga ~net_d:net_da spec.pairs @ [ Mos_array.Row "__s" ]
  @ dummies spec.side_dummies

(* x centre of every row/pad of a net. *)
let xs_of_net shapes ~layer ~net =
  List.filter_map
    (fun (s : Shape.t) ->
      if Shape.on_layer s layer && s.Shape.net = Some net then
        Some (Rect.center_x s.Shape.rect)
      else None)
    shapes

let make env ?(name = "common_centroid") ?(spec = paper_spec) ?well_tap
    ~polarity ~w ~l ?(net_ga = "inp") ?(net_gb = "inn") ?(net_da = "da")
    ?(net_db = "db") ?(net_s = "tail") () =
  if spec.pairs < 1 || spec.pairs mod 2 <> 0 && spec.pairs <> 1 then
    Env.reject "common_centroid: pairs must be 1 or even";
  let rules = Env.rules env in
  let arr =
    Mos_array.make env ~name ~gate_tracks:false ~polarity ~w ~l
      ~columns:(columns ~spec ~net_ga ~net_gb ~net_da ~net_db)
      ~straps:[]
      ()
  in
  let obj = arr.Mos_array.obj in
  Lobj.rename_net obj ~from_:"__s" ~to_:net_s;
  Lobj.rename_net obj ~from_:"__dum" ~to_:net_s;
  let bbox = Lobj.bbox_exn obj in
  let xc = Rect.center_x bbox in
  let m1w = Rules.width rules "metal1" in
  let m2w = Rules.width rules "metal2" in
  let m2s = Rules.space_exn rules "metal2" "metal2" in
  let m1s = Rules.space_exn rules "metal1" "metal1" in
  let um = Units.of_um in
  (* --- south: source rail S1 (metal1, full span); below it the drain-A
     rail S3 on METAL1 (full span) so that drain-B's metal2 drops may cross
     it; outermost the drain-B rail S2 on metal2 (inner span).  Every rail
     is escapable by a parent router: S2 is outermost on its x range, and
     S3 extends past S2's span on both sides. *)
  let s1 = Lobj.create "s1" in
  let _ =
    Lobj.add_shape s1 ~layer:"metal1"
      ~rect:(Rect.of_size ~x:bbox.Rect.x0 ~y:0 ~w:(Rect.width bbox) ~h:m1w)
      ~net:net_s ()
  in
  Build.compact env ~into:obj ~align:`Min s1 Dir.North;
  let south_base =
    match Lobj.bbox obj with Some r -> r.Rect.y0 | None -> 0
  in
  let shapes = Lobj.shapes obj in
  let da_xs = xs_of_net shapes ~layer:"pdiff" ~net:net_da
              @ xs_of_net shapes ~layer:"ndiff" ~net:net_da in
  let db_xs = xs_of_net shapes ~layer:"pdiff" ~net:net_db
              @ xs_of_net shapes ~layer:"ndiff" ~net:net_db in
  if List.length da_xs <> 2 || List.length db_xs <> 2 then
    Env.reject "common_centroid: expected two drain rows per device";
  let rail ~layer ~h ~y ~net ~x0 ~x1 =
    ignore
      (Lobj.add_shape obj ~layer ~rect:(Rect.make ~x0 ~y0:y ~x1 ~y1:(y + h))
         ~net ())
  in
  let margin = m2w in
  (* Extra half-micron so the rail-via landing pads clear S1. *)
  let s3_y = south_base - m1s - m1w - um 0.5 in
  let s2_y = s3_y - m2s - m2w - um 1. in
  rail ~layer:"metal1" ~h:m1w ~y:s3_y ~net:net_da ~x0:bbox.Rect.x0
    ~x1:bbox.Rect.x1;
  rail ~layer:"metal2" ~h:m2w ~y:s2_y ~net:net_db
    ~x0:(List.fold_left Int.min max_int db_xs - margin)
    ~x1:(List.fold_left Int.max min_int db_xs + margin);
  (* Drop each drain row to its rail on metal2, crossing the metal1 rails
     freely: drain A changes back to metal1 with a via at S3, drain B
     merges into its metal2 rail S2. *)
  let drop_drain ~net ~rail_y ~via_at_rail x =
    (* Find the current row metal for the via position. *)
    let row_metal =
      List.find_opt
        (fun (s : Shape.t) ->
          Shape.on_layer s "metal1" && s.Shape.net = Some net
          && abs (Rect.center_x s.Shape.rect - x) < um 1.)
        (Lobj.shapes obj)
    in
    match row_metal with
    | None -> Env.reject "common_centroid: lost drain row at x=%d" x
    | Some rm ->
        let via_y = rm.Shape.rect.Rect.y0 + um 1. in
        let _ = Wire.via env obj ~at:(x, via_y) ~net () in
        let rail_c = rail_y + (m2w / 2) in
        let _ =
          Path.draw obj ~layer:"metal2" ~width:m2w ~net [ (x, via_y); (x, rail_c) ]
        in
        if via_at_rail then ignore (Wire.via env obj ~at:(x, rail_c) ~net ())
  in
  List.iter (drop_drain ~net:net_db ~rail_y:s2_y ~via_at_rail:false) db_xs;
  List.iter
    (drop_drain ~net:net_da ~rail_y:(s3_y + ((m1w - m2w) / 2)) ~via_at_rail:true)
    da_xs;
  (* --- north: gate pads are already there; tie dummy pads straight down
     through the array to the source rail. *)
  let pads = arr.Mos_array.pads in
  let pads_top =
    List.fold_left (fun acc (_, r) -> Int.max acc r.Rect.y1) min_int pads
  in
  List.iter
    (fun (g, pr) ->
      (* The pads list still carries the pre-rename dummy net name. *)
      if String.equal g "__dum" then
        let x = Rect.center_x pr in
        ignore
          (Path.draw obj ~layer:"metal1" ~width:m1w ~net:net_s
             [ (x, Rect.center_y pr); (x, south_base + (m1w / 2)) ]))
    pads;
  (* --- the four half-tracks and the planar crossover. *)
  let y_mid2 = pads_top + m1s + (m1w / 2) in
  let y_mid1 = y_mid2 + m1w + m1s in
  let y_lo = y_mid1 + m1w + m1s in
  let y_hi = y_lo + m2w + m2s in
  let g1 = um 2. and g2 = um 2. + m2w + m2s in
  let track ~net ~y ~x0 ~x1 =
    ignore
      (Lobj.add_shape obj ~layer:"metal2"
         ~rect:(Rect.make ~x0 ~y0:y ~x1 ~y1:(y + m2w))
         ~net ())
  in
  let side_pads net side =
    List.filter_map
      (fun (g, r) ->
        let x = Rect.center_x r in
        if String.equal g net && (if side = `Left then x < xc else x > xc) then
          Some x
        else None)
      pads
  in
  let rise ~net ~track_y x =
    (* metal1 riser from the pad at x up to the track, via at the top. *)
    let pad_y =
      match
        List.find_opt (fun (g, r) -> String.equal g net && Rect.center_x r = x) pads
      with
      | Some (_, r) -> Rect.center_y r
      | None -> pads_top
    in
    let yc = track_y + (m2w / 2) in
    let _ = Path.draw obj ~layer:"metal1" ~width:m1w ~net [ (x, pad_y); (x, yc) ] in
    let _ = Wire.via env obj ~at:(x, yc) ~net () in
    ()
  in
  let ga_left = side_pads net_ga `Left and ga_right = side_pads net_ga `Right in
  let gb_left = side_pads net_gb `Left and gb_right = side_pads net_gb `Right in
  let span xs = (List.fold_left Int.min max_int xs, List.fold_left Int.max min_int xs) in
  let la0, la1 = span ga_left and ra0, ra1 = span ga_right in
  let lb0, lb1 = span gb_left and rb0, rb1 = span gb_right in
  (* TL: A left at y_hi, extended east to its crossover riser xc-g1.
     BR: A right at y_lo, extended west to xc+g1.
     BL: B left at y_lo, extended east to xc-g2.
     TR: B right at y_hi, extended west to xc+g2. *)
  track ~net:net_ga ~y:y_hi ~x0:(la0 - m2w) ~x1:(xc - g1 + (m2w / 2));
  track ~net:net_ga ~y:y_lo ~x0:(xc + g1 - (m2w / 2)) ~x1:(ra1 + m2w);
  track ~net:net_gb ~y:y_lo ~x0:(lb0 - m2w) ~x1:(xc - g2 + (m2w / 2));
  track ~net:net_gb ~y:y_hi ~x0:(xc + g2 - (m2w / 2)) ~x1:(rb1 + m2w);
  ignore (la1, ra0, lb1, rb0);
  List.iter (rise ~net:net_ga ~track_y:y_hi) ga_left;
  List.iter (rise ~net:net_ga ~track_y:y_lo) ga_right;
  List.iter (rise ~net:net_gb ~track_y:y_lo) gb_left;
  List.iter (rise ~net:net_gb ~track_y:y_hi) gb_right;
  (* Crossover: net A goes via-metal1-via from its high-left track to its
     low-right track around the centre; net B mirrors it one level lower
     and one pitch wider. *)
  let crossover ~net ~from_x ~from_y ~to_x ~to_y ~y_mid =
    let _ = Wire.via env obj ~at:(from_x, from_y + (m2w / 2)) ~net () in
    let _ = Wire.via env obj ~at:(to_x, to_y + (m2w / 2)) ~net () in
    let _ =
      Path.draw obj ~layer:"metal1" ~width:m1w ~net
        [
          (from_x, from_y + (m2w / 2));
          (from_x, y_mid);
          (to_x, y_mid);
          (to_x, to_y + (m2w / 2));
        ]
    in
    ()
  in
  crossover ~net:net_ga ~from_x:(xc - g1) ~from_y:y_hi ~to_x:(xc + g1)
    ~to_y:y_lo ~y_mid:y_mid1;
  crossover ~net:net_gb ~from_x:(xc + g2) ~from_y:y_hi ~to_x:(xc - g2)
    ~to_y:y_lo ~y_mid:y_mid2;
  (* --- well tap, well and ports. *)
  if polarity = Mosfet.Pmos then begin
    (match well_tap with
    | Some tap_net ->
        let tap = Contact_row.well_tap env ~net:tap_net () in
        Lobj.remove_port tap "tap";
        Build.compact env ~into:obj ~align:`Center tap Dir.South;
        Mosfet.port_on obj ~name:tap_net ~net:tap_net ()
    | None -> ());
    let diff = Mosfet.diffusion_layer polarity in
    let device_rects =
      List.filter_map
        (fun (s : Shape.t) ->
          if
            Shape.on_layer s diff || Shape.on_layer s "poly"
            || Shape.on_layer s "ndiff"
          then Some s.Shape.rect
          else None)
        (Lobj.shapes obj)
    in
    match Rect.hull_list device_rects with
    | Some hull ->
        let margin = Rules.enclosure_or_zero rules ~outer:"nwell" ~inner:diff in
        ignore (Lobj.add_shape obj ~layer:"nwell" ~rect:(Rect.inflate hull margin) ())
    | None -> ()
  end;
  Mosfet.port_on obj ~name:net_s ~net:net_s ();
  Mosfet.port_on obj ~name:net_da ~net:net_da ~layer:"metal2" ();
  Mosfet.port_on obj ~name:net_db ~net:net_db ~layer:"metal2" ();
  Mosfet.port_on obj ~name:net_ga ~net:net_ga ~layer:"metal2" ();
  Mosfet.port_on obj ~name:net_gb ~net:net_gb ~layer:"metal2" ();
  obj

(* --- symmetry verification helpers (used by tests and the Fig. 10
   bench) --- *)

(* Centroid x of a device's gate fingers (poly shapes on its net). *)
let gate_centroid obj ~net =
  let xs =
    List.filter_map
      (fun (s : Shape.t) ->
        if Shape.on_layer s "poly" && s.Shape.net = Some net then
          Some (float_of_int (Rect.center_x s.Shape.rect))
        else None)
      (Lobj.shapes obj)
  in
  match xs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

(* Wire structure summary per net: (metal1 area, metal2 area, via count) —
   equal summaries for the two inputs mean matched wiring. *)
let wiring_summary obj ~net =
  List.fold_left
    (fun (m1, m2, vias) (s : Shape.t) ->
      if s.Shape.net <> Some net then (m1, m2, vias)
      else
        match s.Shape.layer with
        | "metal1" -> (m1 + Rect.area s.Shape.rect, m2, vias)
        | "metal2" -> (m1, m2 + Rect.area s.Shape.rect, vias)
        | "via" -> (m1, m2, vias + 1)
        | _ -> (m1, m2, vias))
    (0, 0, 0) (Lobj.shapes obj)
