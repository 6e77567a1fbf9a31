(* Matched interdigitated resistor pair.

   Two equal resistors A and B built from identical straight poly strips
   at constant pitch, assigned point-symmetrically (A B B A for one strip
   pair each), so both resistors share the array centroid and see the same
   etch environment — the resistor counterpart of the matched transistor
   and capacitor structures.

   Each strip carries its own resistor-body marker and contact heads at
   both ends; a resistor's strips are chained in series by metal1 links:
   A's link runs in a lane below the bottom heads (its strips are the
   outer pair, so the stubs drop outside everything), B's link in a lane
   above the top heads.  Extraction sees two film segments per resistor
   joined at an unlabeled node and reduces them to one schematic device of
   the summed value. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env

let make env ?(name = "resistor_pair") ?(layer = "poly") ~squares ?width
    ?(net_a1 = "a1") ?(net_a2 = "a2") ?(net_b1 = "b1") ?(net_b2 = "b2") () =
  let rules = Env.rules env in
  let w = Option.value ~default:(Rules.width rules layer) width in
  let sheet =
    match Technology.layer (Env.tech env) layer with
    | Some l -> l.Layer.sheet_res
    | None -> 0.
  in
  if squares <= 0. then Env.reject "Resistor_pair: squares <= 0";
  (* Two strips per resistor; strip length carries half the squares. *)
  let strip_len = Int.max w (int_of_float (squares /. 2. *. float_of_int w)) in
  let head_extent =
    Amg_layout.Derive.min_container_extent rules ~container_layer:layer
      ~cut_layer:"contact"
  in
  let spacing = Option.value ~default:w (Rules.space rules layer layer) in
  let pitch = w + spacing + Int.max 0 (head_extent - w) in
  let m1w = Rules.width rules "metal1" in
  let m1s = Rules.space_exn rules "metal1" "metal1" in
  let obj = Lobj.create name in
  (* Strip columns in A B B A order. *)
  let cx i = i * pitch in
  let strip i =
    let rect =
      Rect.make ~x0:(cx i - (w / 2)) ~y0:0 ~x1:(cx i + (w / 2)) ~y1:strip_len
    in
    ignore (Lobj.add_shape obj ~layer ~rect ());
    (* Per-strip body marker: exactly this film, not the neighbours. *)
    ignore (Lobj.add_shape obj ~layer:"resmark" ~rect ())
  in
  List.iter strip [ 0; 1; 2; 3 ];
  (* Contact heads centred on the strip ends.  Heads on internal link nodes
     carry no net (extraction must see them as anonymous). *)
  let head ?net i ~top =
    let h = Contact_row.make env ~name:"head" ~layer ?net () in
    let hb = Lobj.bbox_exn h in
    Lobj.translate h
      ~dx:(cx i - Rect.center_x hb)
      ~dy:((if top then strip_len else 0) - Rect.center_y hb);
    ignore (Lobj.absorb obj h);
    Lobj.bbox_exn h
  in
  let a_top0 = head 0 ~top:true ~net:net_a1 in
  let a_top3 = head 3 ~top:true ~net:net_a2 in
  let a_bot0 = head 0 ~top:false in
  let a_bot3 = head 3 ~top:false in
  let b_bot1 = head 1 ~top:false ~net:net_b1 in
  let b_bot2 = head 2 ~top:false ~net:net_b2 in
  let b_top1 = head 1 ~top:true in
  let b_top2 = head 2 ~top:true in
  ignore (a_top0, a_top3, b_bot1, b_bot2);
  (* A's series link: lane below the bottom heads, stubs on the outer
     strips. *)
  let link ~heads ~lane_y0 ~lane_y1 =
    let stub (hb : Rect.t) =
      let x = Rect.center_x hb in
      (* Span through both the head and the lane so they solidly overlap. *)
      let y0 = Int.min hb.Rect.y0 lane_y0 and y1 = Int.max hb.Rect.y1 lane_y1 in
      ignore
        (Lobj.add_shape obj ~layer:"metal1"
           ~rect:(Rect.make ~x0:(x - (m1w / 2)) ~y0 ~x1:(x + (m1w / 2)) ~y1)
           ())
    in
    List.iter stub heads;
    let xs = List.map (fun (h : Rect.t) -> Rect.center_x h) heads in
    let x0 = List.fold_left Int.min (List.hd xs) xs - (m1w / 2)
    and x1 = List.fold_left Int.max (List.hd xs) xs + (m1w / 2) in
    ignore
      (Lobj.add_shape obj ~layer:"metal1"
         ~rect:(Rect.make ~x0 ~y0:lane_y0 ~x1 ~y1:lane_y1)
         ())
  in
  let bot_edge = Int.min a_bot0.Rect.y0 b_bot1.Rect.y0 in
  link ~heads:[ a_bot0; a_bot3 ]
    ~lane_y0:(bot_edge - m1s - (2 * m1w))
    ~lane_y1:(bot_edge - m1s);
  let top_edge = Int.max b_top1.Rect.y1 b_top2.Rect.y1 in
  link ~heads:[ b_top1; b_top2 ]
    ~lane_y0:(top_edge + m1s)
    ~lane_y1:(top_edge + m1s + (2 * m1w));
  List.iter
    (fun net -> Mosfet.port_on obj ~name:net ~net ())
    [ net_a1; net_a2; net_b1; net_b2 ];
  (obj, squares *. sheet)

(* Centroid of a resistor's film strips (x only — strips are identical in
   y), for the matching tests. *)
let film_centroid_x obj ~strips =
  let rects =
    List.filteri (fun i _ -> List.mem i strips) (Lobj.rects_on obj "poly")
  in
  match rects with
  | [] -> None
  | _ ->
      let area, mx =
        List.fold_left
          (fun (a, mx) (r : Rect.t) ->
            let ar = float_of_int (Rect.area r) in
            (a +. ar, mx +. (ar *. float_of_int (Rect.center_x r))))
          (0., 0.) rects
      in
      Some (mx /. area)
