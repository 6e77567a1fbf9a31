(* Common-centroid unit-capacitor array.

   Two capacitors C_A and C_B are built from identical poly/poly2 unit
   cells on a shared bottom plate, assigned to grid positions in
   point-symmetric pairs so both groups share the array's centre of
   gravity — the capacitor counterpart of the module-E transistor
   centroid, and a staple of the module-library class the paper describes
   (ratioed capacitors for switched-capacitor circuits).

   Structure, bottom to top:
   - one poly bottom plate under everything (net [net_bot]), extended
     south into a contact tab;
   - unit poly2 top plates in a rows x cols grid, each with its metal1
     pad and contact array;
   - per-row metal1 straps: the A strap above each row, the B strap below
     it; short metal1 stubs tie each unit to its group's strap;
   - vertical metal1 rails join all A straps on the east and all B straps
     on the west (everything single-layer — no vias needed);
   - an optional dummy ring at the same unit size, every dummy tied to the
     bottom-plate net through its own contacts and a perimeter metal ring
     that merges with the south tab (dummies on the device net would float;
     tying them to the bottom plate is standard practice and makes them
     disappear in extraction as same-node capacitors). *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Margins = Amg_core.Margins

type group = A | B

type plan = { rows : int; cols : int; cells : group array array }

(* Near-square factorisation of the total unit count. *)
let grid_dims total =
  let best = ref (1, total) in
  for r = 1 to total do
    if total mod r = 0 then begin
      let c = total / r in
      let br, bc = !best in
      if abs (r - c) < abs (br - bc) then best := (r, c)
    end
  done;
  !best

(* Point-symmetric pair assignment: cell (i,j) and its partner
   (rows-1-i, cols-1-j) always belong to the same group, so both groups'
   centroids coincide with the array centre by construction. *)
let plan ~units_a ~units_b =
  let total = units_a + units_b in
  if units_a <= 0 || units_b <= 0 then
    Env.reject "Cap_array: unit counts must be positive";
  let rows, cols = grid_dims total in
  (* Parity: an odd total always splits into one odd and one even count, so
     the centre cell has a well-defined owner; an even total splits either
     even/even (fine) or odd/odd — the only unassignable case. *)
  let odd_center = total mod 2 = 1 in
  if (not odd_center) && units_a mod 2 = 1 then
    Env.reject
      "Cap_array: even grid needs even unit counts for a symmetric assignment";
  let cells = Array.make_matrix rows cols A in
  let remaining_a = ref units_a and remaining_b = ref units_b in
  let take g n =
    (match g with A -> remaining_a | B -> remaining_b) := (match g with A -> !remaining_a | B -> !remaining_b) - n
  in
  (* Centre cell (odd total) goes to the odd-count group. *)
  if odd_center then begin
    let g = if units_a mod 2 = 1 then A else B in
    cells.(rows / 2).(cols / 2) <- g;
    take g 1
  end;
  (* Remaining cells in symmetric pairs, alternating while both groups have
     pairs left. *)
  let next = ref A in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let pi = rows - 1 - i and pj = cols - 1 - j in
      (* Visit each pair once, from its lexicographically first member;
         skip the centre. *)
      if (i, j) < (pi, pj) then begin
        let g =
          if !remaining_a < 2 then B
          else if !remaining_b < 2 then A
          else begin
            let g = !next in
            next := (match g with A -> B | B -> A);
            g
          end
        in
        cells.(i).(j) <- g;
        cells.(pi).(pj) <- g;
        take g 2
      end
    done
  done;
  assert (!remaining_a = 0 && !remaining_b = 0);
  { rows; cols; cells }

(* Area-weighted centroid of a group's top plates, in nm. *)
let centroid obj ~net =
  let shapes =
    List.filter
      (fun (s : Amg_layout.Shape.t) -> Amg_layout.Shape.on_layer s "poly2")
      (Lobj.shapes_on_net obj net)
  in
  match shapes with
  | [] -> None
  | _ ->
      let area, mx, my =
        List.fold_left
          (fun (a, mx, my) (s : Amg_layout.Shape.t) ->
            let ar = float_of_int (Rect.area s.rect) in
            ( a +. ar,
              mx +. (ar *. float_of_int (Rect.center_x s.rect)),
              my +. (ar *. float_of_int (Rect.center_y s.rect)) ))
          (0., 0., 0.) shapes
      in
      Some (mx /. area, my /. area)

let make env ?(name = "cap_array") ~unit_ff ~units_a ~units_b
    ?(net_a = "ca") ?(net_b = "cb") ?(net_bot = "bot") ?(dummies = true)
    ?assignment () =
  let rules = Env.rules env in
  let p =
    match assignment with Some p -> p | None -> plan ~units_a ~units_b
  in
  let side = Capacitor.plate_side env ~cap_ff:unit_ff in
  let m1w = Rules.width rules "metal1" in
  let m1s = Rules.space_exn rules "metal1" "metal1" in
  let strap_w = Int.max m1w (Units.of_um 2.) in
  let p2s = Rules.space_exn rules "poly2" "poly2" in
  let gap_x = Int.max p2s (Units.of_um 2.) in
  (* Between consecutive rows: A strap of the lower row, B strap of the
     upper one, with metal spacing everywhere. *)
  let gap_y = (3 * m1s) + (2 * strap_w) in
  let pitch_x = side + gap_x and pitch_y = side + gap_y in
  let mm = Margins.inside rules ~outer:"poly2" ~inner:"metal1" in
  let obj = Lobj.create name in
  let unit ~x ~y ~net =
    let top = Prim.raw obj ~layer:"poly2" ~rect:(Rect.of_size ~x ~y ~w:side ~h:side) ~net () in
    let pad =
      Prim.raw obj ~layer:"metal1"
        ~rect:(Rect.inflate top.Amg_layout.Shape.rect (-mm))
        ~net ()
    in
    let _ = Prim.array env obj ~layer:"contact" ~net ~within:[ top; pad ] () in
    (top, pad)
  in
  let stub ~(pad : Amg_layout.Shape.t) ~to_y ~net =
    (* Vertical metal1 from the pad edge to the strap, centred on the unit. *)
    let r = pad.Amg_layout.Shape.rect in
    let cx = Rect.center_x r in
    let y0, y1 =
      if to_y > r.Rect.y1 then (r.Rect.y1, to_y) else (to_y, r.Rect.y0)
    in
    ignore
      (Prim.raw obj ~layer:"metal1"
         ~rect:(Rect.make ~x0:(cx - (m1w / 2)) ~y0 ~x1:(cx + (m1w / 2)) ~y1)
         ~net ())
  in
  let arr_w = (p.cols * side) + ((p.cols - 1) * gap_x) in
  (* Per-row strap positions. *)
  let strap_a_y i = (i * pitch_y) + side + m1s in
  let strap_b_y i = (i * pitch_y) - m1s - strap_w in
  (* Rails. *)
  let rail_a_x0 = arr_w + m1s in
  let rail_b_x1 = -m1s in
  (* Units, stubs and straps. *)
  for i = 0 to p.rows - 1 do
    let ya = strap_a_y i and yb = strap_b_y i in
    ignore
      (Prim.raw obj ~layer:"metal1"
         ~rect:(Rect.make ~x0:0 ~y0:ya ~x1:(rail_a_x0 + strap_w) ~y1:(ya + strap_w))
         ~net:net_a ());
    ignore
      (Prim.raw obj ~layer:"metal1"
         ~rect:(Rect.make ~x0:(rail_b_x1 - strap_w) ~y0:yb ~x1:arr_w ~y1:(yb + strap_w))
         ~net:net_b ());
    for j = 0 to p.cols - 1 do
      let x = j * pitch_x and y = i * pitch_y in
      match p.cells.(i).(j) with
      | A ->
          let _, pad = unit ~x ~y ~net:net_a in
          stub ~pad ~to_y:(ya + strap_w) ~net:net_a
      | B ->
          let _, pad = unit ~x ~y ~net:net_b in
          stub ~pad ~to_y:yb ~net:net_b
    done
  done;
  let top_a = strap_a_y (p.rows - 1) + strap_w in
  let bot_b = strap_b_y 0 in
  ignore
    (Prim.raw obj ~layer:"metal1"
       ~rect:(Rect.make ~x0:rail_a_x0 ~y0:(strap_a_y 0) ~x1:(rail_a_x0 + strap_w) ~y1:top_a)
       ~net:net_a ());
  ignore
    (Prim.raw obj ~layer:"metal1"
       ~rect:
         (Rect.make ~x0:(rail_b_x1 - strap_w) ~y0:bot_b ~x1:rail_b_x1
            ~y1:(strap_b_y (p.rows - 1) + strap_w))
       ~net:net_b ());
  (* Dummy ring: same-size units beyond the straps/rails, tied to the
     bottom-plate net through their own pads, stubs and a perimeter metal
     ring. *)
  let ring_rects = ref [] in
  if dummies then begin
    let dx_w = rail_b_x1 - strap_w - m1s - side in
    let dx_e = rail_a_x0 + strap_w + m1s in
    let dy_s = bot_b - m1s - side in
    let dy_n = top_a + m1s in
    (* Perimeter ring just outside the dummies. *)
    let ring_x0 = dx_w - m1s - strap_w
    and ring_x1 = dx_e + side + m1s + strap_w in
    let ring_y0 = dy_s - m1s - strap_w
    and ring_y1 = dy_n + side + m1s + strap_w in
    let ring_seg r = ring_rects := r :: !ring_rects in
    ring_seg (Rect.make ~x0:ring_x0 ~y0:ring_y0 ~x1:ring_x1 ~y1:(ring_y0 + strap_w));
    ring_seg (Rect.make ~x0:ring_x0 ~y0:(ring_y1 - strap_w) ~x1:ring_x1 ~y1:ring_y1);
    ring_seg (Rect.make ~x0:ring_x0 ~y0:ring_y0 ~x1:(ring_x0 + strap_w) ~y1:ring_y1);
    ring_seg (Rect.make ~x0:(ring_x1 - strap_w) ~y0:ring_y0 ~x1:ring_x1 ~y1:ring_y1);
    List.iter
      (fun r -> ignore (Prim.raw obj ~layer:"metal1" ~rect:r ~net:net_bot ()))
      !ring_rects;
    let dummy ~x ~y ~dir =
      let _, pad = unit ~x ~y ~net:net_bot in
      let r = pad.Amg_layout.Shape.rect in
      let cx = Rect.center_x r and cy = Rect.center_y r in
      match dir with
      | `N ->
          ignore
            (Prim.raw obj ~layer:"metal1"
               ~rect:(Rect.make ~x0:(cx - (m1w / 2)) ~y0:r.Rect.y1 ~x1:(cx + (m1w / 2)) ~y1:(ring_y1 - strap_w))
               ~net:net_bot ())
      | `S ->
          ignore
            (Prim.raw obj ~layer:"metal1"
               ~rect:(Rect.make ~x0:(cx - (m1w / 2)) ~y0:(ring_y0 + strap_w) ~x1:(cx + (m1w / 2)) ~y1:r.Rect.y0)
               ~net:net_bot ())
      | `W ->
          ignore
            (Prim.raw obj ~layer:"metal1"
               ~rect:(Rect.make ~x0:(ring_x0 + strap_w) ~y0:(cy - (m1w / 2)) ~x1:r.Rect.x0 ~y1:(cy + (m1w / 2)))
               ~net:net_bot ())
      | `E ->
          ignore
            (Prim.raw obj ~layer:"metal1"
               ~rect:(Rect.make ~x0:r.Rect.x1 ~y0:(cy - (m1w / 2)) ~x1:(ring_x1 - strap_w) ~y1:(cy + (m1w / 2)))
               ~net:net_bot ())
    in
    for j = 0 to p.cols - 1 do
      dummy ~x:(j * pitch_x) ~y:dy_n ~dir:`N;
      dummy ~x:(j * pitch_x) ~y:dy_s ~dir:`S
    done;
    for i = 0 to p.rows - 1 do
      dummy ~x:dx_w ~y:(i * pitch_y) ~dir:`W;
      dummy ~x:dx_e ~y:(i * pitch_y) ~dir:`E
    done
  end;
  (* Bottom plate: poly under every poly2 with the enclosure margin, plus a
     south tab with its contact row and metal that merges with the dummy
     ring (or stands alone when there are no dummies). *)
  let pm = Rules.enclosure_or_zero rules ~outer:"poly" ~inner:"poly2" in
  let p2_hull =
    match
      Rect.hull_list
        (List.filter_map
           (fun (s : Amg_layout.Shape.t) ->
             if Amg_layout.Shape.on_layer s "poly2" then Some s.rect else None)
           (Lobj.shapes obj))
    with
    | Some h -> h
    | None -> Env.reject "Cap_array: empty"
  in
  let plate = Rect.inflate p2_hull pm in
  (* Tab below everything built so far. *)
  let below = (Lobj.bbox_exn obj).Rect.y0 in
  let tab_h =
    Amg_layout.Derive.min_container_extent rules ~container_layer:"poly"
      ~cut_layer:"contact"
    + Rules.width rules "poly"
  in
  let tab_y1 = Int.min (below - m1s) plate.Rect.y0 in
  let tab =
    Rect.make ~x0:plate.Rect.x0 ~y0:(tab_y1 - tab_h) ~x1:plate.Rect.x1 ~y1:tab_y1
  in
  let plate_rect = Rect.hull plate tab in
  ignore (Prim.raw obj ~layer:"poly" ~rect:plate_rect ~net:net_bot ());
  let tab_poly = Prim.raw obj ~layer:"poly" ~rect:tab ~net:net_bot () in
  let tab_metal =
    Prim.raw obj ~layer:"metal1"
      ~rect:(Rect.inflate tab (-Margins.inside rules ~outer:"poly" ~inner:"metal1"))
      ~net:net_bot ()
  in
  let _ = Prim.array env obj ~layer:"contact" ~net:net_bot ~within:[ tab_poly; tab_metal ] () in
  (* Tie the dummy ring to the tab with a short vertical metal. *)
  (match !ring_rects with
  | [] -> ()
  | _ ->
      let ring_bottom =
        List.fold_left (fun acc (r : Rect.t) -> Int.min acc r.Rect.y0) max_int !ring_rects
      in
      let tm = tab_metal.Amg_layout.Shape.rect in
      (* Vertical tie overlapping both the tab metal and the ring's bottom
         segment (the ring spans the full width, so any x inside the tab
         metal works). *)
      ignore
        (Prim.raw obj ~layer:"metal1"
           ~rect:
             (Rect.make ~x0:tm.Rect.x0 ~y0:tm.Rect.y0
                ~x1:(tm.Rect.x0 + strap_w) ~y1:(ring_bottom + strap_w))
           ~net:net_bot ()));
  Mosfet.port_on obj ~name:net_a ~net:net_a ();
  Mosfet.port_on obj ~name:net_b ~net:net_b ();
  Mosfet.port_on obj ~name:net_bot ~net:net_bot ();
  (obj, p)
