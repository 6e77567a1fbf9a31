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

(* A run of array cuts the checker may settle at once: shapes [lo .. hi]
   of the view (at least two), all on one cut layer, with one
   [Array_member] origin, one net and one size, none keep-clear.  [apart]
   is the proof that no two members touch and, on no net, that no two
   are closer than the layer's own spacing: members in strict row-major
   order (y ascending, x ascending within a row) whose smallest in-row x
   step and smallest row-to-row y step leave that gap.  Any pair of
   members is then at least one of those steps apart on one axis. *)
type group = { lo : int; hi : int; hull : Rect.t; apart : bool }

(* The layout as every check reads it, built once per [run].  A shape is
   known by its index in [Lobj.shapes] order, which is ascending id order.
   Per shape the view holds its layer's index into [names] (the object's
   layers) and its group (or -1); per layer, the technology entry and the
   member indices, descending — the order every pass visits them in.
   Each layer's touch graph is found when a pass first needs it, then
   shared. *)
type view = {
  obj : Lobj.t;
  tech : Technology.t;
  rules : Rules.t;
  shapes : Shape.t array;
  ix_of_id : int array;
  names : string array;
  tl : Layer.t option array;
  layer : int array;
  members : int list array;
  first_use : int list;  (* layer indices by their first shape *)
  edges : int array option array;
  comp : int array;  (* union-find of same-layer components, per layer once [comp_ready] *)
  comp_ready : bool array;
  groups : group array;
  group : int array;
}

(* Whether members [lo .. hi], of one size, are apart (see [group]). *)
let apart rules shapes ~lo ~hi =
  let first = shapes.(lo) in
  let w = Rect.width first.Shape.rect and h = Rect.height first.Shape.rect in
  let need =
    match first.Shape.net with
    | Some _ -> 1
    | None -> Int.max 1 (Rules.space_or_zero rules first.Shape.layer first.Shape.layer)
  in
  let rec steps k dx dy =
    if k > hi then dx - w >= need && dy - h >= need
    else
      let p = shapes.(k - 1).Shape.rect and c = shapes.(k).Shape.rect in
      if c.Rect.y0 = p.Rect.y0 && c.Rect.x0 > p.Rect.x0 then
        steps (k + 1) (Int.min dx (c.Rect.x0 - p.Rect.x0)) dy
      else if c.Rect.y0 > p.Rect.y0 then steps (k + 1) dx (Int.min dy (c.Rect.y0 - p.Rect.y0))
      else false
  in
  steps (lo + 1) max_int max_int

(* The groups of [shapes], in one pass: maximal runs of consecutive
   shapes that [joins] their predecessor. *)
let find_groups rules tl layer shapes =
  let n = Array.length shapes in
  let groupable i =
    let s = shapes.(i) in
    (not s.Shape.keep_clear)
    && (match s.Shape.origin with Shape.Array_member _ -> true | Shape.User -> false)
    && match tl.(layer.(i)) with Some t -> Layer.is_cut t | None -> false
  in
  let joins i =
    let a = shapes.(i - 1) and b = shapes.(i) in
    layer.(i - 1) = layer.(i)
    && (match (a.Shape.origin, b.Shape.origin) with
       | Shape.Array_member x, Shape.Array_member y -> x = y
       | _ -> false)
    && Option.equal String.equal a.Shape.net b.Shape.net
    && Rect.width a.Shape.rect = Rect.width b.Shape.rect
    && Rect.height a.Shape.rect = Rect.height b.Shape.rect
  in
  let group = Array.make n (-1) and groups = ref [] and count = ref 0 in
  let close lo hi =
    if lo >= 0 && hi > lo then begin
      let hull = ref shapes.(lo).Shape.rect in
      for k = lo to hi do
        group.(k) <- !count;
        hull := Rect.hull !hull shapes.(k).Shape.rect
      done;
      groups := { lo; hi; hull = !hull; apart = apart rules shapes ~lo ~hi } :: !groups;
      incr count
    end
  in
  let rec scan i lo =
    if i = n then close lo (n - 1)
    else if lo >= 0 && groupable i && joins i then scan (i + 1) lo
    else begin
      close lo (i - 1);
      scan (i + 1) (if groupable i then i else -1)
    end
  in
  scan 0 (-1);
  (Array.of_list (List.rev !groups), group)

let view ~tech obj =
  let shapes = Array.of_list (Lobj.shapes obj) in
  let n = Array.length shapes in
  let names = Array.of_list (Lobj.layers obj) in
  let nl = Array.length names in
  let ix_of_name = Hashtbl.create nl in
  Array.iteri (fun l name -> Hashtbl.replace ix_of_name name l) names;
  let ix_of_id = Array.make (Lobj.id_bound obj) (-1) in
  let layer = Array.make n 0 and members = Array.make nl [] in
  let first_use = ref [] in
  Array.iteri
    (fun i (s : Shape.t) ->
      ix_of_id.(s.Shape.id) <- i;
      let l = Hashtbl.find ix_of_name s.Shape.layer in
      layer.(i) <- l;
      (match members.(l) with [] -> first_use := l :: !first_use | _ -> ());
      members.(l) <- i :: members.(l))
    shapes;
  let rules = Technology.rules tech in
  let tl = Array.map (Technology.layer tech) names in
  let groups, group = find_groups rules tl layer shapes in
  {
    obj; tech; rules; shapes; ix_of_id; names; tl;
    layer; members; first_use = List.rev !first_use;
    edges = Array.make nl None;
    comp = Array.make n 0;
    comp_ready = Array.make nl false;
    groups; group;
  }

(* [settled v proof i]: whether shape [i] is in a group whose [proof]
   holds.  Each group's proof is run at most once per [settled v proof]. *)
let settled v proof =
  let known = Array.make (Array.length v.groups) 0 in
  fun i ->
    let g = v.group.(i) in
    g >= 0
    &&
    match known.(g) with
    | 0 ->
        let ok = proof v.groups.(g) in
        known.(g) <- (if ok then 1 else 2);
        ok
    | k -> k = 1

(* Whether every shape on [layer] within [margin] of the group's hull is
   one of its members. *)
let meets_only v g ~layer ~margin =
  let only = ref true in
  Lobj.iter_near v.obj ~layer g.hull ~margin (fun (s : Shape.t) ->
      let j = v.ix_of_id.(s.Shape.id) in
      if j < g.lo || j > g.hi then only := false);
  !only

(* Shorts and min-area regions are reported layer by layer in the order a
   name-keyed [Hashtbl.create 16], filled in first-use order, iterates:
   the order the checker has always reported them in. *)
let hashtbl_order v ls =
  let t = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace t v.names.(l) l) ls;
  List.rev (Hashtbl.fold (fun _ l acc -> l :: acc) t [])

(* A poly shape overlapping an active shape is a (candidate) gate: spacing
   does not apply there — the extension checks validate the crossing. *)
let gate_pair v i j =
  let is_gate p d =
    match (v.tl.(v.layer.(p)), v.tl.(v.layer.(d))) with
    | Some { Layer.kind = Layer.Poly; _ }, Some { Layer.kind = Layer.Diffusion; _ } ->
        Rect.overlaps v.shapes.(p).Shape.rect v.shapes.(d).Shape.rect
    | _ -> false
  in
  is_gate i j || is_gate j i

(* Layer [l]'s touch graph as [i; j] pairs: for each member [i] in visiting
   order, its touching partners [j > i] in ascending order.  That is the
   union order of the per-pass union-find the checker used to run, so a
   replay with its union rule, [parent.(find i) <- find j], ends at the
   same roots.  A group whose members are apart and whose hull meets no
   other shape of the layer has no edge: its members are skipped. *)
let edges v l =
  match v.edges.(l) with
  | Some e -> e
  | None ->
      let alone =
        settled v (fun g -> g.apart && meets_only v g ~layer:v.names.(l) ~margin:0)
      in
      let acc = ref [] in
      List.iter
        (fun i ->
          if not (alone i) then begin
            let r = v.shapes.(i).Shape.rect in
            let partners = ref [] in
            Lobj.iter_near v.obj ~layer:v.names.(l) r ~margin:0 (fun (b : Shape.t) ->
                let j = v.ix_of_id.(b.Shape.id) in
                if j > i && Rect.touches r b.Shape.rect then partners := j :: !partners);
            List.iter (fun j -> acc := j :: i :: !acc) (List.sort Int.compare !partners)
          end)
        v.members.(l);
      let e = Array.of_list (List.rev !acc) in
      v.edges.(l) <- Some e;
      e

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

(* Union-find over layer [l]'s members in [parent], from the touch edges
   whose two ends pass [keep]. *)
let replay v parent ~keep l =
  List.iter (fun i -> parent.(i) <- i) v.members.(l);
  let e = edges v l in
  for k = 0 to (Array.length e / 2) - 1 do
    let i = e.(2 * k) and j = e.((2 * k) + 1) in
    if keep i && keep j then begin
      let ri = find parent i and rj = find parent j in
      if ri <> rj then parent.(ri) <- rj
    end
  done

(* The root of shape [i]'s same-layer component: touching rectangles merge
   into one region. *)
let component v i =
  let l = v.layer.(i) in
  if not v.comp_ready.(l) then begin
    replay v v.comp ~keep:(fun _ -> true) l;
    v.comp_ready.(l) <- true
  end;
  find v.comp i

let widths v =
  let rule =
    Array.mapi
      (fun l tl ->
        match tl with
        | Some t when Layer.is_cut t -> `Cut (Rules.cut_size v.rules v.names.(l))
        | Some t when t.Layer.kind <> Layer.Marker -> (
            match Rules.width_opt v.rules v.names.(l) with Some req -> `Width req | None -> `Free)
        | _ -> `Free)
      v.tl
  in
  let out = ref [] in
  Array.iteri
    (fun i (s : Shape.t) ->
      let w = Rect.width s.rect and h = Rect.height s.rect in
      let add kind = out := Violation.make kind s.rect :: !out in
      match rule.(v.layer.(i)) with
      | `Cut req when w <> req || h <> req ->
          add (Violation.Cut_size { layer = s.layer; required = req; actual_w = w; actual_h = h })
      | `Width req when Int.min w h < req ->
          add (Violation.Width { layer = s.layer; required = req; actual = Int.min w h })
      | _ -> ())
    v.shapes;
  List.rev !out

(* Minimum-area rules apply to connected same-layer regions (a large L
   drawn as several rectangles is one region), measured with the exact
   union area. *)
let min_areas v =
  let area = Array.map (Rules.min_area v.rules) v.names in
  let out = ref [] in
  List.iter
    (fun l ->
      let required = Option.get area.(l) in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let r = component v i in
          let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
          Hashtbl.replace groups r (v.shapes.(i).Shape.rect :: cur))
        v.members.(l);
      Hashtbl.iter
        (fun _root rects ->
          let actual = Amg_geometry.Region.area rects in
          if actual < required then
            out :=
              Violation.make
                (Violation.Min_area { layer = v.names.(l); required; actual })
                (Option.get (Rect.hull_list rects))
              :: !out)
        groups)
    (hashtbl_order v (List.filter (fun l -> Option.is_some area.(l)) v.first_use));
  !out

(* Shorts: a same-layer component carrying two known different nets.  A
   diffusion rectangle crossed by a gate is electrically interrupted by
   the channel, and a shape under the [resmark] marker is a resistor body:
   neither conducts, so source and drain stay distinct.  Both tests only
   involve shapes meeting the rectangle, so a margin-0 query bounds them.
   A cut is never active, so a group whose hull meets no [resmark] shape
   conducts throughout. *)
let shorts v =
  let n = Array.length v.shapes in
  let unmarked =
    settled v (fun g ->
        not (Lobj.exists_near v.obj ~layer:"resmark" g.hull ~margin:0 (fun _ -> true)))
  in
  let polys =
    List.filter
      (fun l -> match v.tl.(l) with Some { Layer.kind = Layer.Poly; _ } -> true | _ -> false)
      (List.init (Array.length v.names) Fun.id)
  in
  let conducts i =
    unmarked i
    ||
    let s = v.shapes.(i) in
    let channel =
      (match v.tl.(v.layer.(i)) with Some t -> Layer.is_active t | None -> false)
      && List.exists
           (fun pl ->
             Lobj.exists_near v.obj ~layer:v.names.(pl) s.Shape.rect ~margin:0
               (fun (p : Shape.t) ->
                 let j = v.ix_of_id.(p.Shape.id) in
                 j <> i && gate_pair v j i))
           polys
    in
    not
      (channel
      || Lobj.exists_near v.obj ~layer:"resmark" s.Shape.rect ~margin:0 (fun (m : Shape.t) ->
             Rect.contains_rect m.Shape.rect s.Shape.rect))
  in
  let conducting = Array.init n conducts in
  let parent = Array.make n 0 and first = Array.make n (-1) in
  let out = ref [] in
  List.iter
    (fun l ->
      replay v parent ~keep:(fun i -> conducting.(i)) l;
      List.iter
        (fun i ->
          match v.shapes.(i).Shape.net with
          | Some net when conducting.(i) ->
              let r = find parent i in
              let j = first.(r) in
              if j < 0 then first.(r) <- i
              else
                let other = Option.get v.shapes.(j).Shape.net in
                if not (String.equal other net) then
                  out :=
                    Violation.make
                      (Violation.Short { layer = v.names.(l); net_a = other; net_b = net })
                      (Rect.hull v.shapes.(j).Shape.rect v.shapes.(i).Shape.rect)
                    :: !out
          | _ -> ())
        v.members.(l))
    (hashtbl_order v v.first_use);
  List.rev !out

let spacings v =
  let shapes = v.shapes and rules = v.rules and layer_arr = v.names in
  let out = ref [] in
  let n = Array.length shapes in
  (* Each (layer, layer) pair is classified once per call, not once per
     (shape, layer): [cls.(la).(lb)] over the indices of [layers].  Shapes
     on different layers without a spacing rule separate only when one of
     them is keep-clear (the compactor's [may_constrain] test), so a shape
     that is not keep-clear skips layer [lb] without an index query
     unless [may_separate.(la).(lb)]: a rule, the same layer, or a
     keep-clear shape on [lb]. *)
  let nl = Array.length layer_arr in
  let cls =
    Array.map
      (fun la -> Array.map (fun lb -> Constraints.classify rules la lb) layer_arr)
      layer_arr
  in
  let may_separate =
    Array.map
      (Array.mapi (fun lb (c : Constraints.pair_class) ->
           c.same_layer || Option.is_some c.space
           || Lobj.keep_clear_on v.obj layer_arr.(lb) > 0))
      cls
  in
  (* A member is not keep-clear, so it queries only the layers [lb] its
     layer may separate from.  When its group is apart and each such
     query around the group's hull meets members only, its partners are
     members: mergeable on a net, and otherwise at least the layer's
     spacing apart.  It reports nothing, and is skipped. *)
  let quiet =
    settled v (fun g ->
        let la = v.layer.(g.lo) in
        let clear lb =
          (not may_separate.(la).(lb))
          || meets_only v g ~layer:layer_arr.(lb) ~margin:(Constraints.margin_cls cls.(la).(lb))
        in
        g.apart && List.for_all clear (List.init nl Fun.id))
  in
  (* Pairwise spacing: for each shape, examine only index candidates within
     the layer pair's rule distance — any violating pair has both gaps
     below its separation, so it lies inside the inflated window.  Partners
     are deduplicated by id (each unordered pair is reported once, from its
     lower-id member) and sorted, which reproduces the all-pairs scan's
     (i, j) emission order because ascending id is insertion order. *)
  let check i =
    let a = shapes.(i) in
    let la = v.layer.(i) in
    let partners = ref [] in
    for lb = 0 to nl - 1 do
      if a.Shape.keep_clear || may_separate.(la).(lb) then begin
        let cls = cls.(la).(lb) in
        Lobj.iter_near v.obj ~layer:layer_arr.(lb) a.Shape.rect
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
        let j = v.ix_of_id.(b.Shape.id) in
        if gate_pair v i j then ()
        else if la = v.layer.(j) && component v i = component v j then ()
        else
          (* Touching shapes are 0 apart.  Different layers with a
             separation then violate when a positive distance is required,
             while a keep-clear (sep = 0) pair only objects to interior
             overlap.  Same-layer touching pairs are same-component and
             were skipped above. *)
          let actual =
            if Rect.touches a.rect b.rect then 0
            else Int.max (Rect.gap Dir.Horizontal a.rect b.rect) (Rect.gap Dir.Vertical a.rect b.rect)
          in
          if actual < sep || Rect.overlaps a.rect b.rect then
            out :=
              Violation.make
                (Violation.Spacing { layer_a = a.layer; layer_b = b.layer; required = sep; actual })
                (Rect.hull a.rect b.rect)
              :: !out)
      partners
  in
  for i = 0 to n - 1 do
    if not (quiet i) then check i
  done;
  shorts v @ List.rev !out

(* A cut must be enclosed, with its rule margin, by every metal layer that
   has an enclosure rule for it, and by at least one of the non-metal
   landing layers (poly/diffusion/poly2 for contacts).  Each cut layer's
   rules are split into the two kinds once. *)
let enclosures v =
  let outers =
    Array.mapi
      (fun l tl ->
        match tl with
        | Some t when Layer.is_cut t ->
            List.partition
              (fun (o, _) ->
                match Technology.layer v.tech o with Some ol -> Layer.is_metal ol | None -> false)
              (Rules.enclosing_layers v.rules ~inner:v.names.(l))
        | _ -> ([], []))
      v.tl
  in
  (* A containing shape necessarily meets the needed rectangle, so the
     margin-0 candidates around it are the only ones to test.  One shape
     enclosing a group's hull encloses each of its members. *)
  let enclosed r (outer, margin) =
    let needed = Rect.inflate r margin in
    Lobj.exists_near v.obj ~layer:outer needed ~margin:0 (fun (s : Shape.t) ->
        Rect.contains_rect s.rect needed)
  in
  let enclosed_all r l =
    let metal_outers, landing_outers = outers.(l) in
    List.for_all (enclosed r) metal_outers
    && match landing_outers with [] -> true | _ -> List.exists (enclosed r) landing_outers
  in
  let covered = settled v (fun g -> enclosed_all g.hull v.layer.(g.lo)) in
  let out = ref [] in
  Array.iteri
    (fun i (c : Shape.t) ->
      if not (covered i) then begin
        let vio (o, m) =
          out :=
            Violation.make (Violation.Enclosure { outer = o; inner = c.layer; required = m }) c.rect
            :: !out
        in
        let metal_outers, landing_outers = outers.(v.layer.(i)) in
        List.iter (fun om -> if not (enclosed c.rect om) then vio om) metal_outers;
        match landing_outers with
        | first :: _ when not (List.exists (enclosed c.rect) landing_outers) -> vio first
        | _ -> ()
      end)
    v.shapes;
  List.rev !out

(* Gate extension checks: wherever poly crosses diffusion, the poly end-caps
   and the source/drain extensions must meet their rules. *)
let extensions v =
  let rules = v.rules in
  let polys =
    List.filteri
      (fun i _ -> match v.tl.(v.layer.(i)) with Some { Layer.kind = Layer.Poly; _ } -> true | _ -> false)
      (Array.to_list v.shapes)
  in
  let active_layers =
    List.filteri
      (fun l _ -> match v.tl.(l) with Some tl -> Layer.is_active tl | None -> false)
      (Array.to_list v.names)
  in
  (* Only crossings matter, so each poly is paired with the active shapes
     meeting it (margin-0 candidates), in id order like the full scan. *)
  let diffs_near (p : Shape.t) =
    List.concat_map
      (fun l -> Lobj.near v.obj ~layer:l p.Shape.rect ~margin:0)
      active_layers
    |> List.sort (fun (a : Shape.t) (b : Shape.t) ->
           Int.compare a.Shape.id b.Shape.id)
  in
  let check_pair (p : Shape.t) (d : Shape.t) =
    if not (Rect.overlaps p.rect d.rect) then []
    else begin
      let pr = p.rect and dr = d.rect in
      let ext ~of_ ~past ~actual where =
        match Rules.extension rules ~of_ ~past with
        | Some required when actual < required ->
            [ Violation.make (Violation.Extension { of_; past; required; actual }) where ]
        | _ -> []
      in
      let endcap actual = ext ~of_:p.layer ~past:d.layer ~actual pr in
      let sd actual = ext ~of_:d.layer ~past:p.layer ~actual dr in
      if pr.Rect.y0 <= dr.Rect.y0 && pr.Rect.y1 >= dr.Rect.y1 then
        (* Crosses vertically. *)
        endcap (Int.min (dr.Rect.y0 - pr.Rect.y0) (pr.Rect.y1 - dr.Rect.y1))
        @ sd (Int.min (pr.Rect.x0 - dr.Rect.x0) (dr.Rect.x1 - pr.Rect.x1))
      else if pr.Rect.x0 <= dr.Rect.x0 && pr.Rect.x1 >= dr.Rect.x1 then
        endcap (Int.min (dr.Rect.x0 - pr.Rect.x0) (pr.Rect.x1 - dr.Rect.x1))
        @ sd (Int.min (pr.Rect.y0 - dr.Rect.y0) (dr.Rect.y1 - pr.Rect.y1))
      else
        (* Poly overlaps active without fully crossing: a malformed gate. *)
        match Rules.extension rules ~of_:p.layer ~past:d.layer with
        | Some required ->
            [ Violation.make
                (Violation.Extension { of_ = p.layer; past = d.layer; required; actual = 0 })
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

let check_widths ~tech obj = widths (view ~tech obj)
let check_spacings ~tech obj = spacings (view ~tech obj)
let check_enclosures ~tech obj = enclosures (view ~tech obj)
let check_extensions ~tech obj = extensions (view ~tech obj)

let run ?(checks = all_checks) ~tech obj =
  Obs.span "drc.run" @@ fun () ->
  let v = lazy (view ~tech obj) in
  List.concat_map
    (fun c ->
      Obs.span (span_name c) @@ fun () ->
      Amg_robust.Inject.(probe Drc_check);
      let vs =
        match c with
        | Widths ->
            let v = Lazy.force v in
            widths v @ min_areas v
        | Spacings -> spacings (Lazy.force v)
        | Enclosures -> enclosures (Lazy.force v)
        | Extensions -> extensions (Lazy.force v)
        | Latch_up -> Latchup.check ~tech obj @ Latchup.check_well_taps ~tech obj
      in
      if Obs.enabled () then Obs.count "drc.violations" (List.length vs);
      vs)
    checks
