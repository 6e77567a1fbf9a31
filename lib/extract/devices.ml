(* Device recognition on top of the extracted connectivity.

   - MOS: every full crossing of a poly shape over a diffusion shape is a
     transistor; W and L are measured from the channel rectangle, the
     source/drain nodes are probed just outside the channel.
   - Bipolar: an emitter is an n-diffusion inside a p-base inside an
     n-well; base and collector contacts are the p-diffusion inside the
     base and the n-diffusion in the well outside it.
   - Resistors: a [resmark] region bridges the conducting nodes of the
     head shapes that touch its film.
   - Capacitors: a poly2 plate over a poly plate.

   Parallel MOS devices (same gate/source/drain nodes and length) merge
   into one with their widths summed — the finger reduction every LVS does
   before comparing. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module D = Amg_circuit.Device

type mos = {
  x_polarity : D.mos_polarity;
  x_w : int;
  x_l : int;
  x_g : string;
  x_s : string;
  x_d : string;
}
[@@deriving show { with_path = false }, eq, ord]

type extracted = {
  mosfets : mos list;
  bjts : (string * string * string) list; (* collector, base, emitter *)
  resistors : (string * string * float) list; (* a, b, ohms *)
  capacitors : (string * string * float) list; (* top, bottom, fF *)
  short_nets : string list list;
}

let polarity_of_diff = function
  | "pdiff" -> D.Pmos
  | _ -> D.Nmos

let extract_mosfets ~tech conn shapes =
  let polys =
    List.filter
      (fun (s : Shape.t) ->
        match Technology.layer tech s.Shape.layer with
        | Some l -> l.Layer.kind = Layer.Poly
        | None -> false)
      shapes
  in
  let diffs =
    List.filter
      (fun s ->
        match Technology.layer tech s.Shape.layer with
        | Some l -> Layer.is_active l
        | None -> false)
      shapes
  in
  List.concat_map
    (fun (p : Shape.t) ->
      List.filter_map
        (fun (d : Shape.t) ->
          let pr = p.Shape.rect and dr = d.Shape.rect in
          match Rect.inter pr dr with
          | None -> None
          | Some channel ->
              let vertical = pr.Rect.y0 <= dr.Rect.y0 && pr.Rect.y1 >= dr.Rect.y1 in
              let horizontal = pr.Rect.x0 <= dr.Rect.x0 && pr.Rect.x1 >= dr.Rect.x1 in
              if not (vertical || horizontal) then None
              else begin
                let gate_node =
                  Connectivity.node_at conn ~layer:p.Shape.layer
                    ~x:(Rect.center_x pr) ~y:(Rect.center_y pr)
                in
                let probe ~x ~y = Connectivity.node_at conn ~layer:d.Shape.layer ~x ~y in
                let s_node, d_node, w, l =
                  if vertical then
                    ( probe ~x:(channel.Rect.x0 - 1) ~y:(Rect.center_y channel),
                      probe ~x:(channel.Rect.x1 + 1) ~y:(Rect.center_y channel),
                      Rect.height channel, Rect.width channel )
                  else
                    ( probe ~x:(Rect.center_x channel) ~y:(channel.Rect.y0 - 1),
                      probe ~x:(Rect.center_x channel) ~y:(channel.Rect.y1 + 1),
                      Rect.width channel, Rect.height channel )
                in
                match (gate_node, s_node, d_node) with
                | Some g, Some s, Some dd ->
                    Some
                      { x_polarity = polarity_of_diff d.Shape.layer;
                        x_w = w; x_l = l;
                        x_g = Connectivity.net_name conn g;
                        x_s = Connectivity.net_name conn s;
                        x_d = Connectivity.net_name conn dd }
                | _ -> None
              end)
        diffs)
    polys

(* Merge parallel fingers: same polarity, same L, same gate and the same
   unordered {source, drain} pair; widths add. *)
let merge_parallel mosfets =
  let key m =
    let s, d = if String.compare m.x_s m.x_d <= 0 then (m.x_s, m.x_d) else (m.x_d, m.x_s) in
    (m.x_polarity, m.x_l, m.x_g, s, d)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let k = key m in
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k m
      | Some prev -> Hashtbl.replace tbl k { prev with x_w = prev.x_w + m.x_w })
    mosfets;
  Hashtbl.fold (fun _ m acc -> m :: acc) tbl [] |> List.sort compare_mos

let extract_bjts conn obj shapes =
  let bases = Lobj.rects_on obj "pbase" in
  let wells = Lobj.rects_on obj "nwell" in
  let ndiffs = List.filter (fun (s : Shape.t) -> Shape.on_layer s "ndiff") shapes in
  let pdiffs = List.filter (fun (s : Shape.t) -> Shape.on_layer s "pdiff") shapes in
  List.concat_map
    (fun base ->
      let well = List.find_opt (fun w -> Rect.contains_rect w base) wells in
      match well with
      | None -> []
      | Some well ->
          let node_of (s : Shape.t) =
            Connectivity.node_at conn ~layer:s.Shape.layer
              ~x:(Rect.center_x s.Shape.rect) ~y:(Rect.center_y s.Shape.rect)
          in
          let emitters =
            List.filter (fun (s : Shape.t) -> Rect.contains_rect base s.Shape.rect) ndiffs
          in
          let base_contact =
            List.find_opt
              (fun (s : Shape.t) -> Rect.contains_rect base s.Shape.rect)
              pdiffs
          in
          let collector_contact =
            List.find_opt
              (fun (s : Shape.t) ->
                Rect.contains_rect well s.Shape.rect
                && not (Rect.overlaps base s.Shape.rect))
              ndiffs
          in
          (match (emitters, base_contact, collector_contact) with
          | e :: _, Some b, Some c -> (
              match (node_of c, node_of b, node_of e) with
              | Some cn, Some bn, Some en ->
                  [ ( Connectivity.net_name conn cn,
                      Connectivity.net_name conn bn,
                      Connectivity.net_name conn en ) ]
              | _ -> [])
          | _ -> []))
    bases

let extract_resistors ~tech conn obj shapes =
  let marks = Lobj.rects_on obj "resmark" in
  List.filter_map
    (fun mark ->
      (* Film pieces inside the mark; heads are conducting shapes of the
         same layer touching the film. *)
      let films =
        List.filter
          (fun (s : Shape.t) ->
            (match Technology.layer tech s.Shape.layer with
            | Some l -> l.Layer.conducting && not (Layer.is_cut l)
            | None -> false)
            && Rect.contains_rect mark s.Shape.rect)
          shapes
      in
      match films with
      | [] -> None
      | (f : Shape.t) :: _ ->
          let sheet =
            match Technology.layer tech f.Shape.layer with
            | Some l -> l.Layer.sheet_res
            | None -> 0.
          in
          let heads =
            List.filter
              (fun (s : Shape.t) ->
                Shape.on_layer s f.Shape.layer
                && (not (Rect.contains_rect mark s.Shape.rect))
                && List.exists
                     (fun (film : Shape.t) -> Rect.touches s.Shape.rect film.Shape.rect)
                     films)
              shapes
          in
          let nodes =
            List.filter_map
              (fun (s : Shape.t) ->
                Connectivity.node_at conn ~layer:s.Shape.layer
                  ~x:(Rect.center_x s.Shape.rect) ~y:(Rect.center_y s.Shape.rect))
              heads
            |> List.sort_uniq compare
          in
          (* Value estimate: film centre-line length over width. *)
          let film_area = List.fold_left (fun a (s : Shape.t) -> a + Rect.area s.Shape.rect) 0 films in
          let w =
            List.fold_left (fun a (s : Shape.t) ->
                Int.min a (Int.min (Rect.width s.Shape.rect) (Rect.height s.Shape.rect)))
              max_int films
          in
          let squares = if w = 0 then 0. else float_of_int film_area /. float_of_int (w * w) in
          (match nodes with
          | [ a; b ] ->
              Some
                ( Connectivity.net_name conn a,
                  Connectivity.net_name conn b,
                  squares *. sheet )
          | _ -> None))
    marks

let extract_capacitors ~tech conn shapes =
  let poly2s = List.filter (fun (s : Shape.t) -> Shape.on_layer s "poly2") shapes in
  let polys = List.filter (fun (s : Shape.t) -> Shape.on_layer s "poly") shapes in
  let cap_per_um2 =
    match Technology.layer tech "poly2" with
    | Some l -> l.Layer.area_cap
    | None -> 0.
  in
  List.concat_map
    (fun (top : Shape.t) ->
      List.filter_map
        (fun (bot : Shape.t) ->
          match Rect.inter top.Shape.rect bot.Shape.rect with
          | Some overlap when Rect.area overlap > 0 -> (
              let tn =
                Connectivity.node_at conn ~layer:"poly2"
                  ~x:(Rect.center_x top.Shape.rect) ~y:(Rect.center_y top.Shape.rect)
              in
              let bn =
                Connectivity.node_at conn ~layer:"poly"
                  ~x:(Rect.center_x bot.Shape.rect) ~y:(Rect.center_y bot.Shape.rect)
              in
              match (tn, bn) with
              | Some t, Some b ->
                  let ff =
                    cap_per_um2 *. (float_of_int (Rect.area overlap) /. 1.0e6) /. 1000.
                  in
                  Some (Connectivity.net_name conn t, Connectivity.net_name conn b, ff)
              | _ -> None)
          | _ -> None)
        polys)
    poly2s

(* Standard LVS reductions on resistors: chains through internal nodes
   (nodes that appear in exactly two resistor terminals and nowhere else)
   merge with summed values — a strip resistor realised as several film
   segments linked by metal is one schematic device.  Parallel resistors
   between the same node pair combine reciprocally. *)
let reduce_resistors ~internal resistors =
  let merge_series rs =
    let occurrences node =
      List.filteri
        (fun _ (a, b, _) -> String.equal a node || String.equal b node)
        rs
    in
    let candidate =
      List.concat_map (fun (a, b, _) -> [ a; b ]) rs
      |> List.sort_uniq String.compare
      |> List.find_opt (fun n -> internal n && List.length (occurrences n) = 2)
    in
    match candidate with
    | None -> None
    | Some n -> (
        match occurrences n with
        | [ ((a1, b1, v1) as r1); ((a2, b2, v2) as r2) ] ->
            let other (a, b, _) = if String.equal a n then b else a in
            let x = other r1 and y = other r2 in
            ignore (a1, b1, a2, b2);
            Some
              ((x, y, v1 +. v2)
              :: List.filter (fun r -> r != r1 && r != r2) rs)
        | _ -> None)
  in
  let rec series rs = match merge_series rs with Some rs' -> series rs' | None -> rs in
  let parallel rs =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (a, b, v) ->
        let key = if String.compare a b <= 0 then (a, b) else (b, a) in
        match Hashtbl.find_opt tbl key with
        | None ->
            order := key :: !order;
            Hashtbl.replace tbl key ((a, b), v)
        | Some (first, acc) ->
            let v' =
              if acc = 0. || v = 0. then 0.
              else 1. /. ((1. /. acc) +. (1. /. v))
            in
            Hashtbl.replace tbl key (first, v'))
      rs;
    List.rev_map
      (fun key ->
        let (a, b), v = Hashtbl.find tbl key in
        (a, b, v))
      !order
  in
  parallel (series resistors)

(* Standard LVS reductions on capacitors: plates on the same node are not a
   device (dummy units tied to the bottom plate), and parallel capacitors
   between the same node pair merge with summed values (unit-capacitor
   arrays). *)
let merge_parallel_caps caps =
  let live = List.filter (fun (a, b, _) -> not (String.equal a b)) caps in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (a, b, ff) ->
      let key = if String.compare a b <= 0 then (a, b) else (b, a) in
      (match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.replace tbl key ((a, b), ff)
      | Some (first, acc) -> Hashtbl.replace tbl key (first, acc +. ff)))
    live;
  List.rev_map
    (fun key ->
      let (a, b), ff = Hashtbl.find tbl key in
      (a, b, ff))
    !order

(* The passes read one shape list, in store order (the order the
   capacitor pairs, the resistor films and heads and the transistor
   pairs are met in). *)
let extract ~tech obj =
  let conn = Connectivity.build ~tech obj in
  let shapes = Lobj.shapes obj in
  let mosfets = merge_parallel (extract_mosfets ~tech conn shapes) in
  let bjts = extract_bjts conn obj shapes in
  let capacitors = merge_parallel_caps (extract_capacitors ~tech conn shapes) in
  (* A node is internal to a resistor chain only if it carries no user
     label and no other device type touches it. *)
  let labeled = Connectivity.labeled_nets conn in
  let other_nets =
    List.concat_map (fun m -> [ m.x_g; m.x_s; m.x_d ]) mosfets
    @ List.concat_map (fun (c, b, e) -> [ c; b; e ]) bjts
    @ List.concat_map (fun (a, b, _) -> [ a; b ]) capacitors
  in
  let internal n = (not (List.mem n labeled)) && not (List.mem n other_nets) in
  {
    mosfets;
    bjts;
    resistors = reduce_resistors ~internal (extract_resistors ~tech conn obj shapes);
    capacitors;
    short_nets = Connectivity.shorts conn;
  }

(* A dummy transistor has gate, source and drain all tied to one rail (the
   module-E dummies).  A diode-connected device (gate tied to the drain
   only) is a real device and stays live. *)
let is_dummy m = String.equal m.x_g m.x_s && String.equal m.x_g m.x_d

let pp_extracted ppf e =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun m ->
      Fmt.pf ppf "MOS %s W=%.1f L=%.1f g=%s s=%s d=%s%s@,"
        (match m.x_polarity with D.Pmos -> "P" | D.Nmos -> "N")
        (Units.to_um m.x_w) (Units.to_um m.x_l) m.x_g m.x_s m.x_d
        (if is_dummy m then " (dummy)" else ""))
    e.mosfets;
  List.iter (fun (c, b, em) -> Fmt.pf ppf "NPN c=%s b=%s e=%s@," c b em) e.bjts;
  List.iter (fun (a, b, r) -> Fmt.pf ppf "RES %s %s %.0f ohm@," a b r) e.resistors;
  List.iter (fun (t, b, c) -> Fmt.pf ppf "CAP %s %s %.1f fF@," t b c) e.capacitors;
  List.iter
    (fun nets -> Fmt.pf ppf "SHORT between %s@," (String.concat ", " nets))
    e.short_nets;
  Fmt.pf ppf "@]"
