module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Rules = Amg_tech.Rules
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Constraints = Amg_compact.Constraints
module Obs = Amg_obs.Obs

type check = Widths | Spacings | Enclosures | Extensions | Latch_up
[@@deriving show { with_path = false }, eq]

let all_checks = [ Widths; Spacings; Enclosures; Extensions; Latch_up ]

let check_widths ~tech obj =
  let rules = Technology.rules tech in
  List.filter_map
    (fun (s : Shape.t) ->
      match Technology.layer tech s.Shape.layer with
      | None -> None
      | Some l when l.Layer.kind = Layer.Marker -> None
      | Some l when Layer.is_cut l ->
          let req = Rules.cut_size rules s.layer in
          let w = Rect.width s.rect and h = Rect.height s.rect in
          if w <> req || h <> req then
            Some
              (Violation.make
                 (Violation.Cut_size { layer = s.layer; required = req; actual_w = w; actual_h = h })
                 s.rect)
          else None
      | Some _ -> (
          match Rules.width_opt rules s.layer with
          | None -> None
          | Some req ->
              let actual = Int.min (Rect.width s.rect) (Rect.height s.rect) in
              if actual < req then
                Some
                  (Violation.make
                     (Violation.Width { layer = s.layer; required = req; actual })
                     s.rect)
              else None))
    (Lobj.shapes obj)


(* A poly shape overlapping an active shape is a (candidate) gate: spacing
   does not apply there — the extension checks validate the crossing. *)
let gate_pair ~tech (a : Shape.t) (b : Shape.t) =
  let kind_of s =
    match Technology.layer tech s.Shape.layer with
    | Some l -> Some l.Layer.kind
    | None -> None
  in
  let is_gate p d =
    match (kind_of p, kind_of d) with
    | Some Layer.Poly, Some Layer.Diffusion -> Rect.overlaps p.Shape.rect d.Shape.rect
    | _ -> false
  in
  is_gate a b || is_gate b a

(* Union-find over the shape indices of one layer, shapes linked when they
   touch: same-layer spacing applies only between different connected
   components (touching rectangles merge into one region), and a component
   carrying two known different nets is a short.  Touch partners are found
   with a margin-0 index query instead of an all-pairs scan; shapes outside
   [idxs] (e.g. channel rectangles excluded from conduction) simply miss
   the index-to-member table and are skipped. *)
let components obj shapes idxs =
  let parent = Hashtbl.create 16 in
  let member = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace parent i i;
      Hashtbl.replace member shapes.(i).Shape.id i)
    idxs;
  let rec find i =
    let p = Hashtbl.find parent i in
    if p = i then i
    else begin
      let r = find p in
      Hashtbl.replace parent i r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then Hashtbl.replace parent ri rj
  in
  List.iter
    (fun i ->
      let s = shapes.(i) in
      List.iter
        (fun (b : Shape.t) ->
          match Hashtbl.find_opt member b.Shape.id with
          | Some j when i < j && Rect.touches s.Shape.rect b.Shape.rect ->
              union i j
          | _ -> ())
        (Lobj.near obj ~layer:s.Shape.layer s.Shape.rect ~margin:0))
    idxs;
  find

(* Minimum-area rules apply to connected same-layer regions (a large L
   drawn as several rectangles is one region), measured with the exact
   union area. *)
let check_min_areas ~tech obj =
  let rules = Technology.rules tech in
  let shapes = Array.of_list (Lobj.shapes obj) in
  let out = ref [] in
  let by_layer = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Shape.t) ->
      match Rules.min_area rules s.Shape.layer with
      | None -> ()
      | Some _ ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_layer s.layer) in
          Hashtbl.replace by_layer s.layer (i :: cur))
    shapes;
  Hashtbl.iter
    (fun layer idxs ->
      let required = Option.get (Rules.min_area rules layer) in
      let find = components obj shapes idxs in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let r = find i in
          let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
          Hashtbl.replace groups r (shapes.(i).Shape.rect :: cur))
        idxs;
      Hashtbl.iter
        (fun _root rects ->
          let actual = Amg_geometry.Region.area rects in
          if actual < required then
            let where =
              match Amg_geometry.Rect.hull_list rects with
              | Some h -> h
              | None -> Rect.of_size ~x:0 ~y:0 ~w:0 ~h:0
            in
            out :=
              Violation.make
                (Violation.Min_area { layer; required; actual })
                where
              :: !out)
        groups)
    by_layer;
  !out

let check_spacings ~tech obj =
  let rules = Technology.rules tech in
  let shapes = Array.of_list (Lobj.shapes obj) in
  let out = ref [] in
  let n = Array.length shapes in
  let layers = Lobj.layers obj in
  let idx_of_id = Hashtbl.create n in
  Array.iteri (fun i (s : Shape.t) -> Hashtbl.replace idx_of_id s.Shape.id i) shapes;
  (* Connected components per layer, for same-layer merge semantics. *)
  let by_layer = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Shape.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (i :: cur))
    shapes;
  let find_by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun layer idxs ->
      Hashtbl.replace find_by_layer layer (components obj shapes idxs))
    by_layer;
  let same_component layer i j =
    let find = Hashtbl.find find_by_layer layer in
    find i = find j
  in
  (* A diffusion rectangle crossed by a gate is electrically interrupted by
     the channel, and a shape under the [resmark] marker is a resistor
     body: neither conducts for short detection.  Both tests only involve
     shapes meeting [s], so a margin-0 query bounds them. *)
  let poly_layers =
    List.filter
      (fun l ->
        match Technology.layer tech l with
        | Some tl -> tl.Layer.kind = Layer.Poly
        | None -> false)
      layers
  in
  let is_channel i =
    let s = shapes.(i) in
    (match Technology.layer tech s.Shape.layer with
    | Some l -> Layer.is_active l
    | None -> false)
    && List.exists
         (fun pl ->
           List.exists
             (fun (p : Shape.t) -> p != s && gate_pair ~tech p s)
             (Lobj.near obj ~layer:pl s.Shape.rect ~margin:0))
         poly_layers
  in
  let is_resistive i =
    let s = shapes.(i) in
    List.exists
      (fun (m : Shape.t) -> Rect.contains_rect m.Shape.rect s.Shape.rect)
      (Lobj.near obj ~layer:"resmark" s.Shape.rect ~margin:0)
  in
  let is_channel i = is_channel i || is_resistive i in
  (* Shorts: a same-layer component carrying two known different nets.
     Channel rectangles are excluded so source and drain stay distinct. *)
  Hashtbl.iter
    (fun layer idxs ->
      let conducting = List.filter (fun i -> not (is_channel i)) idxs in
      let find = components obj shapes conducting in
      let net_of_root = Hashtbl.create 8 in
      List.iter
        (fun i ->
          match shapes.(i).Shape.net with
          | None -> ()
          | Some net -> (
              let r = find i in
              match Hashtbl.find_opt net_of_root r with
              | None -> Hashtbl.replace net_of_root r (net, i)
              | Some (other, j) when not (String.equal other net) ->
                  out :=
                    Violation.make
                      (Violation.Short { layer; net_a = other; net_b = net })
                      (Rect.hull shapes.(j).Shape.rect shapes.(i).Shape.rect)
                    :: !out
              | Some _ -> ()))
        conducting)
    by_layer;
  (* Each (layer, layer) pair is classified once per call, not once per
     (shape, layer): [cls.(la).(lb)] over the indices of [layers].  Shapes
     on different layers without a spacing rule separate only when one of
     them is keep-clear (the compactor's [may_constrain] test), so a shape
     that is not keep-clear skips layer [lb] without an index query
     unless [may_separate.(la).(lb)]: a rule, the same layer, or a
     keep-clear shape on [lb]. *)
  let layer_arr = Array.of_list layers in
  let nl = Array.length layer_arr in
  let layer_ix = Hashtbl.create nl in
  Array.iteri (fun k l -> Hashtbl.replace layer_ix l k) layer_arr;
  let cls =
    Array.map
      (fun la -> Array.map (fun lb -> Constraints.classify rules la lb) layer_arr)
      layer_arr
  in
  let may_separate =
    Array.map
      (Array.mapi (fun lb (c : Constraints.pair_class) ->
           c.same_layer || Option.is_some c.space
           || Lobj.keep_clear_on obj layer_arr.(lb) > 0))
      cls
  in
  (* Pairwise spacing: for each shape, examine only index candidates within
     the layer pair's rule distance — any violating pair has both gaps
     below its separation, so it lies inside the inflated window.  Partners
     are deduplicated by id (each unordered pair is reported once, from its
     lower-id member) and sorted, which reproduces the all-pairs scan's
     (i, j) emission order because ascending id is insertion order. *)
  for i = 0 to n - 1 do
    let a = shapes.(i) in
    let la = Hashtbl.find layer_ix a.Shape.layer in
    let partners = ref [] in
    for lb = 0 to nl - 1 do
      if a.Shape.keep_clear || may_separate.(la).(lb) then begin
        let cls = cls.(la).(lb) in
        Lobj.iter_near obj ~layer:layer_arr.(lb) a.Shape.rect
          ~margin:(Constraints.margin_cls cls) (fun b ->
            if b.Shape.id > a.Shape.id then
              match Constraints.relation_cls cls a b with
              | Constraints.Unconstrained | Constraints.Mergeable -> ()
              | Constraints.Separation sep -> partners := (b, sep) :: !partners)
      end
    done;
    let partners =
      List.sort
        (fun ((b1 : Shape.t), _) (b2, _) -> Int.compare b1.Shape.id b2.Shape.id)
        !partners
    in
    List.iter
      (fun ((b : Shape.t), sep) ->
        if gate_pair ~tech a b then ()
        else begin
          let j = Hashtbl.find idx_of_id b.Shape.id in
          let same_layer = String.equal a.Shape.layer b.Shape.layer in
          if same_layer && same_component a.layer i j then ()
          else if Rect.touches a.rect b.rect then begin
            (* Different layers with a separation: abutment/overlap is a
               violation when a positive distance is required; a
               keep-clear (sep = 0) pair only objects to interior
               overlap.  Same-layer touching pairs are same-component and
               were skipped above. *)
            if sep > 0 || Rect.overlaps a.rect b.rect then
              out :=
                Violation.make
                  (Violation.Spacing
                     { layer_a = a.layer; layer_b = b.layer; required = sep; actual = 0 })
                  (Rect.hull a.rect b.rect)
                :: !out
          end
          else begin
            let dx = Rect.gap Dir.Horizontal a.rect b.rect in
            let dy = Rect.gap Dir.Vertical a.rect b.rect in
            let actual = Int.max dx dy in
            if actual < sep then
              out :=
                Violation.make
                  (Violation.Spacing
                     { layer_a = a.layer; layer_b = b.layer; required = sep; actual })
                  (Rect.hull a.rect b.rect)
                :: !out
          end
        end)
      partners
  done;
  List.rev !out

(* A cut must be enclosed, with its rule margin, by every metal layer that
   has an enclosure rule for it, and by at least one of the non-metal
   landing layers (poly/diffusion/poly2 for contacts). *)
let check_enclosures ~tech obj =
  let rules = Technology.rules tech in
  let enclosed_by (c : Shape.t) outer margin =
    (* A containing shape necessarily meets the needed rectangle, so the
       margin-0 candidates around it are the only ones to test. *)
    let needed = Rect.inflate c.rect margin in
    List.exists
      (fun (s : Shape.t) -> Rect.contains_rect s.rect needed)
      (Lobj.near obj ~layer:outer needed ~margin:0)
  in
  List.concat_map
    (fun (c : Shape.t) ->
      match Technology.layer tech c.Shape.layer with
      | Some l when Layer.is_cut l ->
          let outers = Rules.enclosing_layers rules ~inner:c.layer in
          let is_metal_outer (o, _) =
            match Technology.layer tech o with
            | Some ol -> Layer.is_metal ol
            | None -> false
          in
          let metal_outers, landing_outers = List.partition is_metal_outer outers in
          let missing_metals =
            List.filter (fun (o, m) -> not (enclosed_by c o m)) metal_outers
          in
          let landing_ok =
            landing_outers = []
            || List.exists (fun (o, m) -> enclosed_by c o m) landing_outers
          in
          let vio_of (o, m) =
            Violation.make
              (Violation.Enclosure { outer = o; inner = c.layer; required = m })
              c.rect
          in
          List.map vio_of missing_metals
          @
          (if landing_ok then []
           else
             match landing_outers with
             | first :: _ -> [ vio_of first ]
             | [] -> [])
      | _ -> [])
    (Lobj.shapes obj)

(* Gate extension checks: wherever poly crosses diffusion, the poly end-caps
   and the source/drain extensions must meet their rules. *)
let check_extensions ~tech obj =
  let rules = Technology.rules tech in
  let polys =
    List.filter
      (fun (s : Shape.t) ->
        match Technology.layer tech s.Shape.layer with
        | Some l -> l.Layer.kind = Layer.Poly
        | None -> false)
      (Lobj.shapes obj)
  in
  let active_layers =
    List.filter
      (fun l ->
        match Technology.layer tech l with
        | Some tl -> Layer.is_active tl
        | None -> false)
      (Lobj.layers obj)
  in
  (* Only crossings matter, so each poly is paired with the active shapes
     meeting it (margin-0 candidates), in id order like the full scan. *)
  let diffs_near (p : Shape.t) =
    List.concat_map
      (fun l -> Lobj.near obj ~layer:l p.Shape.rect ~margin:0)
      active_layers
    |> List.sort (fun (a : Shape.t) (b : Shape.t) ->
           Int.compare a.Shape.id b.Shape.id)
  in
  let check_pair (p : Shape.t) (d : Shape.t) =
    if not (Rect.overlaps p.rect d.rect) then []
    else begin
      let pr = p.rect and dr = d.rect in
      let crosses_vertically = pr.Rect.y0 <= dr.Rect.y0 && pr.Rect.y1 >= dr.Rect.y1 in
      let crosses_horizontally = pr.Rect.x0 <= dr.Rect.x0 && pr.Rect.x1 >= dr.Rect.x1 in
      let endcap_req = Rules.extension rules ~of_:p.layer ~past:d.layer in
      let sd_req = Rules.extension rules ~of_:d.layer ~past:p.layer in
      let mk ~of_ ~past ~required ~actual where =
        if actual < required then
          [ Violation.make (Violation.Extension { of_; past; required; actual }) where ]
        else []
      in
      if crosses_vertically then
        (match endcap_req with
        | Some req ->
            mk ~of_:p.layer ~past:d.layer ~required:req
              ~actual:(Int.min (dr.Rect.y0 - pr.Rect.y0) (pr.Rect.y1 - dr.Rect.y1))
              pr
        | None -> [])
        @
        (match sd_req with
        | Some req ->
            mk ~of_:d.layer ~past:p.layer ~required:req
              ~actual:(Int.min (pr.Rect.x0 - dr.Rect.x0) (dr.Rect.x1 - pr.Rect.x1))
              dr
        | None -> [])
      else if crosses_horizontally then
        (match endcap_req with
        | Some req ->
            mk ~of_:p.layer ~past:d.layer ~required:req
              ~actual:(Int.min (dr.Rect.x0 - pr.Rect.x0) (pr.Rect.x1 - dr.Rect.x1))
              pr
        | None -> [])
        @
        (match sd_req with
        | Some req ->
            mk ~of_:d.layer ~past:p.layer ~required:req
              ~actual:(Int.min (pr.Rect.y0 - dr.Rect.y0) (dr.Rect.y1 - pr.Rect.y1))
              dr
        | None -> [])
      else
        (* Poly overlaps active without fully crossing: a malformed gate. *)
        match endcap_req with
        | Some req ->
            [ Violation.make
                (Violation.Extension
                   { of_ = p.layer; past = d.layer; required = req; actual = 0 })
                (Rect.hull pr dr) ]
        | None -> []
    end
  in
  List.concat_map (fun p -> List.concat_map (check_pair p) (diffs_near p)) polys

let span_name = function
  | Widths -> "drc.widths"
  | Spacings -> "drc.spacings"
  | Enclosures -> "drc.enclosures"
  | Extensions -> "drc.extensions"
  | Latch_up -> "drc.latchup"

let run ?(checks = all_checks) ~tech obj =
  Obs.span "drc.run" @@ fun () ->
  List.concat_map
    (fun c ->
      Obs.span (span_name c) @@ fun () ->
      Amg_robust.Inject.(probe Drc_check);
      let vs =
        match c with
        | Widths -> check_widths ~tech obj @ check_min_areas ~tech obj
        | Spacings -> check_spacings ~tech obj
        | Enclosures -> check_enclosures ~tech obj
        | Extensions -> check_extensions ~tech obj
        | Latch_up -> Latchup.check ~tech obj @ Latchup.check_well_taps ~tech obj
      in
      if Obs.enabled () then Obs.count "drc.violations" (List.length vs);
      vs)
    checks
