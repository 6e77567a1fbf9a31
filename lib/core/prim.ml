(* The primitive shape functions of §2.2:

   - [inbox]: "inserting a rectangle inside other rectangles" — with
     automatic overlap margins and automatic expansion of the outer
     rectangles when the new one cannot be placed;
   - [array]: "creating an array of rectangles inside other rectangles" —
     the maximum number of equidistant cuts, expanding the outers when not
     even one fits;
   - [around]: "placing a rectangle around a structure";
   - [ring]: "placing a ring around a structure";
   - [tworects]: "creating two overlapping rectangles" — the transistor;
   - [angle]: "producing an angle adaptor for wiring purposes". *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Edge = Amg_layout.Edge
module Derive = Amg_layout.Derive

(* Shapes eligible to contain new geometry: user-placed, non-cut,
   non-marker. *)
let containers env obj =
  List.filter
    (fun (s : Shape.t) ->
      s.Shape.origin = Shape.User
      &&
      match Technology.layer (Env.tech env) s.Shape.layer with
      | Some l -> (not (Layer.is_cut l)) && l.Layer.kind <> Layer.Marker
      | None -> false)
    (Lobj.shapes obj)

(* Grow every container symmetrically by [amount] total along [axis];
   per-side growth is snapped up to the grid.  Ids are stable, so array
   registrations survive. *)
let expand_axis env obj cs axis amount =
  let grid = Env.grid env in
  let per_side = Units.snap_up ~grid ((amount + 1) / 2) in
  List.iter
    (fun (c : Shape.t) ->
      match Lobj.find obj c.Shape.id with
      | None -> ()
      | Some cur ->
          let rect =
            match (axis : Dir.axis) with
            | Horizontal -> Rect.inflate_xy cur.Shape.rect ~dx:per_side ~dy:0
            | Vertical -> Rect.inflate_xy cur.Shape.rect ~dx:0 ~dy:per_side
          in
          Lobj.replace obj (Shape.with_rect cur rect))
    cs

(* Intersection of the containers, each shrunk by its automatic margin for
   [inner_layer]. *)
let inner_window env obj cs inner_layer =
  let rules = Env.rules env in
  let shrunk =
    List.map
      (fun (c : Shape.t) ->
        let cur = match Lobj.find obj c.Shape.id with Some s -> s | None -> c in
        Rect.inflate cur.Shape.rect
          (-Margins.inside rules ~outer:cur.Shape.layer ~inner:inner_layer))
      cs
  in
  match shrunk with
  | [] -> None
  | r :: rs ->
      List.fold_left
        (fun acc r -> Option.bind acc (fun a -> Rect.inter a r))
        (if Rect.is_degenerate r then None else Some r)
        rs

let center_span ~grid ~lo ~hi want =
  let slack = hi - lo - want in
  let x0 = Units.snap_down ~grid (lo + (slack / 2)) in
  let x0 = Int.max lo (Int.min x0 (hi - want)) in
  (x0, x0 + want)

let inbox env obj ~layer ?w ?l ?net ?sides ?keep_clear () =
  Technology.check_layer (Env.tech env) layer;
  let rules = Env.rules env in
  let minw = Rules.width rules layer in
  let validate dim =
    match dim with
    | Some v when v < minw ->
        Env.reject "inbox %s: requested size %a below minimum width %a" layer
          Units.pp_nm v Units.pp_nm minw
    | _ -> ()
  in
  validate w;
  validate l;
  let cs = containers env obj in
  let shape =
    match cs with
    | [] ->
        (* First rectangle of the object: origin-anchored, defaults to the
           minimum width ("the minimum possible length … is selected
           according to the design-rules", §2.2). *)
        let lx = Option.value ~default:minw l and wy = Option.value ~default:minw w in
        Lobj.add_shape obj ~layer ~rect:(Rect.of_size ~x:0 ~y:0 ~w:lx ~h:wy) ?net
          ?sides ?keep_clear ()
    | _ ->
        let grid = Env.grid env in
        let rec place attempt =
          if attempt > 8 then
            Env.reject "inbox %s: cannot fit inside the existing structure" layer;
          match inner_window env obj cs layer with
          | None ->
              (* Disjoint after shrinking: expand everything and retry. *)
              expand_axis env obj cs Dir.Horizontal (2 * minw);
              expand_axis env obj cs Dir.Vertical (2 * minw);
              place (attempt + 1)
          | Some win ->
              let want_x = Int.max minw (Option.value ~default:(Rect.width win) l) in
              let want_y = Int.max minw (Option.value ~default:(Rect.height win) w) in
              let gx = want_x - Rect.width win and gy = want_y - Rect.height win in
              if gx > 0 || gy > 0 then begin
                if gx > 0 then expand_axis env obj cs Dir.Horizontal gx;
                if gy > 0 then expand_axis env obj cs Dir.Vertical gy;
                place (attempt + 1)
              end
              else
                let x0, x1 = center_span ~grid ~lo:win.Rect.x0 ~hi:win.Rect.x1 want_x in
                let y0, y1 = center_span ~grid ~lo:win.Rect.y0 ~hi:win.Rect.y1 want_y in
                Lobj.add_shape obj ~layer ~rect:(Rect.make ~x0 ~y0 ~x1 ~y1) ?net
                  ?sides ?keep_clear ()
        in
        place 0
  in
  Lobj.rederive obj rules;
  shape

let array env obj ~layer ?net ?within () =
  Technology.check_layer (Env.tech env) layer;
  let rules = Env.rules env in
  let cs = match within with Some cs -> cs | None -> containers env obj in
  if cs = [] then Env.reject "array %s: no containers in object" layer;
  let cut = Rules.cut_size rules layer in
  let rec fit attempt =
    if attempt > 8 then
      Env.reject "array %s: cannot fit one cut inside the structure" layer;
    let current =
      List.map
        (fun (c : Shape.t) ->
          let cur = match Lobj.find obj c.Shape.id with Some s -> s | None -> c in
          (cur.Shape.layer, cur.Shape.rect))
        cs
    in
    match Derive.cut_window rules ~containers:current ~cut_layer:layer with
    | None ->
        expand_axis env obj cs Dir.Horizontal (2 * cut);
        expand_axis env obj cs Dir.Vertical (2 * cut);
        fit (attempt + 1)
    | Some win ->
        let gx = cut - Rect.width win and gy = cut - Rect.height win in
        if gx > 0 || gy > 0 then begin
          if gx > 0 then expand_axis env obj cs Dir.Horizontal gx;
          if gy > 0 then expand_axis env obj cs Dir.Vertical gy;
          fit (attempt + 1)
        end
  in
  fit 0;
  let id =
    Lobj.register_array obj ~cut_layer:layer
      ~container_ids:(List.map (fun (c : Shape.t) -> c.Shape.id) cs)
      ?net ()
  in
  Lobj.rederive obj rules;
  id

type gate_orient = [ `Vertical | `Horizontal ]

let tworects env obj ~layer_a ~layer_b ~w ~l ?net_a ?net_b
    ?(orient : gate_orient = `Vertical) () =
  let tech = Env.tech env in
  Technology.check_layer tech layer_a;
  Technology.check_layer tech layer_b;
  let rules = Env.rules env in
  if w <= 0 || l <= 0 then Env.reject "tworects: non-positive W or L";
  let endcap = Option.value ~default:0 (Rules.extension rules ~of_:layer_a ~past:layer_b) in
  let sd = Option.value ~default:0 (Rules.extension rules ~of_:layer_b ~past:layer_a) in
  let ra, rb =
    match orient with
    | `Vertical ->
        (* Gate stripe vertical: channel is l wide (x) and w tall (y). *)
        ( Rect.make ~x0:0 ~y0:(-endcap) ~x1:l ~y1:(w + endcap),
          Rect.make ~x0:(-sd) ~y0:0 ~x1:(l + sd) ~y1:w )
    | `Horizontal ->
        ( Rect.make ~x0:(-endcap) ~y0:0 ~x1:(w + endcap) ~y1:l,
          Rect.make ~x0:0 ~y0:(-sd) ~x1:w ~y1:(l + sd) )
  in
  let a = Lobj.add_shape obj ~layer:layer_a ~rect:ra ?net:net_a () in
  let b = Lobj.add_shape obj ~layer:layer_b ~rect:rb ?net:net_b () in
  (a, b)

let around env obj ~layer ?margin ?net () =
  Technology.check_layer (Env.tech env) layer;
  let rules = Env.rules env in
  match Lobj.bbox obj with
  | None -> Env.reject "around %s: empty object" layer
  | Some bbox ->
      let m =
        match margin with
        | Some m -> m
        | None ->
            List.fold_left
              (fun acc (s : Shape.t) ->
                Int.max acc (Margins.inside rules ~outer:layer ~inner:s.Shape.layer))
              0 (Lobj.shapes obj)
      in
      Lobj.add_shape obj ~layer ~rect:(Rect.inflate bbox m) ?net ()

let ring env obj ~layer ?width ?margin ?net () =
  Technology.check_layer (Env.tech env) layer;
  let rules = Env.rules env in
  match Lobj.bbox obj with
  | None -> Env.reject "ring %s: empty object" layer
  | Some bbox ->
      let w = Option.value ~default:(Rules.width rules layer) width in
      let m =
        match margin with
        | Some m -> m
        | None ->
            (* Clear the structure by the largest spacing rule between the
               ring layer and any contained layer. *)
            List.fold_left
              (fun acc (s : Shape.t) ->
                match Rules.space rules layer s.Shape.layer with
                | Some d -> Int.max acc d
                | None -> acc)
              0 (Lobj.shapes obj)
      in
      let inner = Rect.inflate bbox m in
      let outer = Rect.inflate inner w in
      let add rect = Lobj.add_shape obj ~layer ~rect ?net () in
      [
        add (Rect.make ~x0:outer.Rect.x0 ~y0:outer.Rect.y0 ~x1:outer.Rect.x1 ~y1:inner.Rect.y0);
        add (Rect.make ~x0:outer.Rect.x0 ~y0:inner.Rect.y1 ~x1:outer.Rect.x1 ~y1:outer.Rect.y1);
        add (Rect.make ~x0:outer.Rect.x0 ~y0:inner.Rect.y0 ~x1:inner.Rect.x0 ~y1:inner.Rect.y1);
        add (Rect.make ~x0:inner.Rect.x1 ~y0:inner.Rect.y0 ~x1:outer.Rect.x1 ~y1:inner.Rect.y1);
      ]

let angle env obj ~layer ~width ~corner:(cx, cy) ~leg1:(d1, len1) ~leg2:(d2, len2)
    ?net () =
  Technology.check_layer (Env.tech env) layer;
  if Dir.axis d1 = Dir.axis d2 then
    Env.reject "angle %s: legs must be perpendicular" layer;
  if width <= 0 || len1 < 0 || len2 < 0 then Env.reject "angle %s: bad sizes" layer;
  let h = width / 2 in
  let square =
    Rect.make ~x0:(cx - h) ~y0:(cy - h) ~x1:(cx - h + width) ~y1:(cy - h + width)
  in
  let leg d len = Rect.grow_side square d len in
  let a = Lobj.add_shape obj ~layer ~rect:(leg d1 len1) ?net () in
  let b = Lobj.add_shape obj ~layer ~rect:(leg d2 len2) ?net () in
  (a, b)

let raw obj ~layer ~rect ?net ?sides ?keep_clear () =
  Lobj.add_shape obj ~layer ~rect ?net ?sides ?keep_clear ()
