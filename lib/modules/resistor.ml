(* Poly serpentine resistor.

   The resistance is realised as squares of the poly sheet: the requested
   number of squares is folded into horizontal legs connected by end bends
   (each corner square counted as 0.56 squares, the usual approximation),
   with contact-row heads at both ends. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Rules = Amg_tech.Rules
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Build = Amg_core.Build
module Path = Amg_route.Path

let corner_squares = 0.56

(* Serpentine centre-line for [squares] squares of width [w], legs at most
   [max_leg] long.  [gap] is the leg-to-leg clearance; the caller widens it
   so the contact heads at the ends clear the neighbouring leg. *)
let serpentine ~w ~gap ~squares ~max_leg =
  if squares <= 0. then invalid_arg "Resistor.serpentine: squares <= 0";
  let total_len = int_of_float (squares *. float_of_int w) in
  let leg = Int.max w (Int.min max_leg total_len) in
  let pitch = w + gap in
  let rec go remaining x_start y dir acc =
    if remaining <= 0 then List.rev acc
    else begin
      let run = Int.min leg remaining in
      let x_end = if dir > 0 then x_start + run else x_start - run in
      let acc = (x_end, y) :: acc in
      let remaining = remaining - run in
      if remaining <= 0 then List.rev acc
      else
        (* The vertical hop is resistive film too: its length counts
           against the requested squares (at least one unit of leg must
           remain so the far head lands on a horizontal run). *)
        let acc = (x_end, y + pitch) :: acc in
        go (Int.max w (remaining - pitch)) x_end (y + pitch) (-dir) acc
    end
  in
  go total_len 0 0 1 [ (0, 0) ]

let squares_of_points ~w points =
  let bends = Int.max 0 (List.length points - 2) in
  let len = Path.length points in
  (float_of_int len /. float_of_int w)
  -. (float_of_int bends *. (1. -. corner_squares))

let make env ?(name = "resistor") ?(layer = "poly") ~squares ?width
    ?(max_leg = Amg_geometry.Units.of_um 40.) ?(net_a = "a") ?(net_b = "b") () =
  let rules = Env.rules env in
  let w = Option.value ~default:(Rules.width rules layer) width in
  let sheet =
    match Technology.layer (Env.tech env) layer with
    | Some l -> l.Layer.sheet_res
    | None -> 0.
  in
  (* Clearance: the contact head centred on a leg end must clear the
     neighbouring leg by the poly spacing rule. *)
  let head_extent =
    Amg_layout.Derive.min_container_extent rules ~container_layer:layer
      ~cut_layer:"contact"
  in
  let spacing = Option.value ~default:w (Rules.space rules layer layer) in
  let gap = spacing + Int.max 0 (head_extent - w) in
  let points = serpentine ~w ~gap ~squares ~max_leg in
  let body = Lobj.create name in
  (* The body carries no net: both heads contact the same resistive film. *)
  let _ = Path.draw body ~layer ~width:w points in
  let obj = Lobj.create name in
  Build.compact env ~into:obj body Dir.West;
  (* The resistor-body marker keeps the DRC short check from treating the
     film as a conductor between the two head nets. *)
  (match Lobj.bbox obj with
  | Some rect -> ignore (Lobj.add_shape obj ~layer:"resmark" ~rect ())
  | None -> ());
  (* Contact heads at the two ends of the serpentine. *)
  let head net (x, y) =
    let h = Contact_row.make env ~name:"head" ~layer ~net () in
    let hb = Lobj.bbox_exn h in
    Lobj.translate h
      ~dx:(x - Rect.center_x hb)
      ~dy:(y - Rect.center_y hb);
    (* Absorb directly: the head lands on the film end. *)
    ignore (Lobj.absorb obj h)
  in
  let first = List.nth points 0 in
  let last = List.nth points (List.length points - 1) in
  head net_a first;
  head net_b last;
  Mosfet.port_on obj ~name:net_a ~net:net_a ();
  Mosfet.port_on obj ~name:net_b ~net:net_b ();
  (obj, squares_of_points ~w points *. sheet)
