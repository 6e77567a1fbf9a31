(* The spatial index and its consumers: qcheck equivalence of the indexed
   candidate queries against naive all-pairs scans, and a regression pin on
   the diff-pair optimization example. *)

module Rect = Amg_geometry.Rect
module Interval = Amg_geometry.Interval
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Sindex = Amg_geometry.Sindex
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Edge = Amg_layout.Edge
module Constraints = Amg_compact.Constraints
module Successive = Amg_compact.Successive
module Technology = Amg_tech.Technology
module Rules = Amg_tech.Rules
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module M = Amg_modules

let um = Units.of_um
let rules () = Technology.rules (Amg_tech.Bicmos1u.get ())

(* --- Sindex.query vs. filtering the model --- *)

let gen_rect =
  QCheck2.Gen.(
    let* x = int_range (-50_000) 50_000 in
    let* y = int_range (-50_000) 50_000 in
    let* w = int_range 100 180_000 in
    (* up to 180 um wide: wider than max_bins * cell, hits the overflow path *)
    let* h = int_range 100 12_000 in
    return (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + h)))

let prop_query_matches_model =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 40) gen_rect) (* inserts, keyed by position *)
        (list_size (int_range 0 10) (int_range 0 39)) (* keys to remove *)
        (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
        (tup2 gen_rect (int_range 0 3_000)) (* window, margin *))
  in
  QCheck2.Test.make ~name:"Sindex.query = naive filter" ~count:500 gen
    (fun (inserts, removals, (dx, dy), (window, margin)) ->
      let ix = Sindex.create () in
      List.iteri (fun key r -> Sindex.insert ix key r) inserts;
      List.iter (fun key -> Sindex.remove ix key) removals;
      Sindex.translate_all ix ~dx ~dy;
      let model =
        List.mapi (fun key r -> (key, Rect.translate r ~dx ~dy)) inserts
        |> List.filter (fun (key, _) -> not (List.mem key removals))
      in
      let inflated = Rect.inflate window margin in
      let expected =
        List.filter_map
          (fun (key, r) ->
            if
              r.Rect.x0 <= inflated.Rect.x1
              && inflated.Rect.x0 <= r.Rect.x1
              && r.Rect.y0 <= inflated.Rect.y1
              && inflated.Rect.y0 <= r.Rect.y1
            then Some key
            else None)
          model
        |> List.sort_uniq Int.compare
      in
      (* The visitor must report each matching key exactly once — overflow
         entries, negative coordinates and the translation offset
         included — so its keys, sorted but not deduplicated, are the
         model's. *)
      let visited = ref [] in
      Sindex.iter_query ix window ~margin (fun key -> visited := key :: !visited);
      Sindex.query ix window ~margin = expected
      && List.sort Int.compare !visited = expected)

(* --- random layouts shared by the consumer equivalence properties --- *)

let layers = [ "metal1"; "poly"; "pdiff"; "contact" ]

(* Some shapes are keep-clear (which makes cross-layer pairs without a
   spacing rule constrain) and some have variable edges. *)
let gen_shape_spec =
  QCheck2.Gen.(
    tup4 (oneofl layers)
      (oneofl [ Some "a"; Some "b"; Some "c"; None ])
      (tup2 (int_range 0 80) (int_range 0 80)) (* position, 0.5 um steps *)
      (tup3
         (tup2 (int_range 1 16) (int_range 1 16)) (* size, 0.5 um steps *)
         (frequency [ (5, return false); (1, return true) ]) (* keep-clear *)
         (oneofl
            [
              Edge.all_fixed;
              Edge.all_fixed;
              Edge.all_variable;
              Edge.set Edge.all_fixed Dir.North Edge.Variable;
              Edge.set Edge.all_fixed Dir.West Edge.Variable;
            ])))

let build_lobj name specs =
  let o = Lobj.create name in
  List.iter
    (fun (layer, net, (x, y), ((w, h), keep_clear, sides)) ->
      ignore
        (Lobj.add_shape o ~layer
           ~rect:
             (Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
           ?net ~sides ~keep_clear ()))
    specs;
  o

(* --- Lobj.near vs. filtering Lobj.shapes --- *)

let prop_near_matches_shapes =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 30) gen_shape_spec)
        (oneofl layers)
        (tup2 (int_range (-40) 120) (int_range (-40) 120))
        (tup2 (tup2 (int_range 1 40) (int_range 1 40)) (int_range 0 6)))
  in
  QCheck2.Test.make ~name:"Lobj.near = naive shape filter" ~count:500 gen
    (fun (specs, layer, (x, y), ((w, h), margin)) ->
      let o = build_lobj "near" specs in
      let window = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
      let margin = margin * 500 in
      let inflated = Rect.inflate window margin in
      let expected =
        List.filter
          (fun (s : Shape.t) ->
            Shape.on_layer s layer
            && s.rect.Rect.x0 <= inflated.Rect.x1
            && inflated.Rect.x0 <= s.rect.Rect.x1
            && s.rect.Rect.y0 <= inflated.Rect.y1
            && inflated.Rect.y0 <= s.rect.Rect.y1)
          (Lobj.shapes o)
      in
      Lobj.near o ~layer window ~margin = expected)

(* --- the candidate pass vs. the all-pairs scan --- *)

(* The bound stationary [b] imposes on [a] moving in [d], from the pair's
   relation and the shapes' spans, as the all-pairs scan computed it: the
   reference for the pass's allocation-free bound arithmetic. *)
let naive_pair_limit rules ?ignore_layers d (a : Shape.t) (b : Shape.t) =
  let axis = Dir.axis d in
  match Constraints.relation rules ?ignore_layers a b with
  | Constraints.Unconstrained -> None
  | Constraints.Mergeable as rel ->
      if Constraints.shadows ~axis ~sep:0 a.rect b.rect then
        let trailing r = Rect.side r (Dir.opposite d) in
        Some (trailing b.rect - trailing a.rect, rel)
      else None
  | Constraints.Separation sep as rel ->
      if Constraints.shadows ~axis ~sep a.rect b.rect then
        let ia = Rect.span axis a.rect and ib = Rect.span axis b.rect in
        Some
          ( (if Dir.sign d < 0 then ib.Interval.hi + sep - ia.Interval.lo
             else ib.Interval.lo - sep - ia.Interval.hi),
            rel )
      else None

(* Every pair limit, in (mover, target) insertion order, summarized the
   way a placement uses it: the tightest bound, the limits tied at it in
   scan order, and the tightest bound strictly looser than it. *)
let naive_pass rules ?ignore_layers d ~main obj =
  let limits =
    List.concat_map
      (fun (a : Shape.t) ->
        List.filter_map
          (fun (b : Shape.t) ->
            match naive_pair_limit rules ?ignore_layers d a b with
            | Some (bound, rel) -> Some (bound, a.Shape.id, b.Shape.id, rel)
            | None -> None)
          (Lobj.shapes main))
      (Lobj.shapes obj)
  in
  let tightest bounds =
    List.fold_left
      (fun acc b ->
        match acc with
        | None -> Some b
        | Some t -> Some (if Dir.sign d < 0 then max t b else min t b))
      None bounds
  in
  let bounds = List.map (fun (b, _, _, _) -> b) limits in
  let best = tightest bounds in
  ( best,
    List.filter (fun (b, _, _, _) -> Some b = best) limits,
    tightest (List.filter (fun b -> Some b <> best) bounds) )

let prop_pass_equiv =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 25) gen_shape_spec)
        (list_size (int_range 1 5) gen_shape_spec)
        (oneofl Dir.all)
        (oneofl [ []; [ "metal1" ]; [ "poly" ] ]))
  in
  QCheck2.Test.make ~name:"candidate pass = all-pairs scan" ~count:500 gen
    (fun (main_specs, obj_specs, d, ignore_layers) ->
      let rules = rules () in
      let main = build_lobj "main" main_specs in
      let obj = build_lobj "obj" obj_specs in
      let pass = Successive.scan rules ~ignore_layers d ~main obj in
      let tied =
        List.map
          (fun l ->
            ( l.Successive.bound,
              l.Successive.mover.Shape.id,
              l.Successive.target.Shape.id,
              l.Successive.rel ))
          pass.Successive.tied
      in
      (pass.Successive.tightest, tied, pass.Successive.runner_up)
      = naive_pass rules ~ignore_layers d ~main obj)

(* --- auto_connect vs. a straight reimplementation of the full scan --- *)

let naive_auto_connect rules d ~main obj =
  let axis = Dir.axis d in
  let cross = Dir.cross_axis d in
  let stretchable (s : Shape.t) = Rules.cut_size_opt rules s.Shape.layer = None in
  let extension_safe (s : Shape.t) r' =
    let ok (other : Shape.t) =
      other == s
      ||
      match Constraints.relation rules s other with
      | Constraints.Unconstrained | Constraints.Mergeable -> true
      | Constraints.Separation sep ->
          let dx = Rect.gap Dir.Horizontal r' other.Shape.rect in
          let dy = Rect.gap Dir.Vertical r' other.Shape.rect in
          max dx dy >= sep
    in
    List.for_all ok (Lobj.shapes main) && List.for_all ok (Lobj.shapes obj)
  in
  List.iter
    (fun (a : Shape.t) ->
      List.iter
        (fun (b : Shape.t) ->
          if
            String.equal a.Shape.layer b.Shape.layer
            && Shape.same_net a b && stretchable b
          then begin
            let ia = Rect.span cross a.rect and ib = Rect.span cross b.rect in
            if Interval.overlaps ia ib then begin
              let sa = Rect.span axis a.rect and sb = Rect.span axis b.rect in
              let gap =
                max (sa.Interval.lo - sb.Interval.hi) (sb.Interval.lo - sa.Interval.hi)
              in
              if gap > 0 then begin
                let facing =
                  if sb.Interval.hi <= sa.Interval.lo then
                    match axis with
                    | Dir.Horizontal -> Dir.East
                    | Dir.Vertical -> Dir.North
                  else
                    match axis with
                    | Dir.Horizontal -> Dir.West
                    | Dir.Vertical -> Dir.South
                in
                match Lobj.find main b.Shape.id with
                | Some cur ->
                    let r' = Rect.grow_side cur.Shape.rect facing gap in
                    if extension_safe cur r' then
                      Lobj.replace main (Shape.with_rect cur r')
                | None -> ()
              end
            end
          end)
        (Lobj.shapes main))
    (Lobj.shapes obj)

let shape_fingerprint (s : Shape.t) = (s.Shape.id, s.layer, s.rect, s.net)

(* The fused path of a placement: the pass is taken where the mover
   starts, the mover then travels along the movement axis (to its placed
   position, or by an arbitrary amount), and auto-connection works from
   the pass's pairs on the moved geometry. *)
let prop_auto_connect_equiv =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 20) gen_shape_spec)
        (list_size (int_range 1 4) gen_shape_spec)
        (oneofl Dir.all)
        (option (int_range (-40) 40)) (* None: travel to the placement *))
  in
  QCheck2.Test.make ~name:"auto_connect = all-pairs reference" ~count:500 gen
    (fun (main_specs, obj_specs, d, travel) ->
      let rules = rules () in
      let main_a = build_lobj "main" main_specs in
      let main_b = Lobj.copy main_a in
      let obj = build_lobj "obj" obj_specs in
      let pass = Successive.scan rules d ~main:main_a obj in
      let dl =
        match travel with
        | Some k -> k * 500
        | None -> Successive.delta rules d ~main:main_a obj
      in
      (match Dir.axis d with
      | Dir.Horizontal -> Lobj.translate obj ~dx:dl ~dy:0
      | Dir.Vertical -> Lobj.translate obj ~dx:0 ~dy:dl);
      Successive.auto_connect rules d ~main:main_a ~pass obj;
      naive_auto_connect rules d ~main:main_b obj;
      List.map shape_fingerprint (Lobj.shapes main_a)
      = List.map shape_fingerprint (Lobj.shapes main_b))

(* --- regression: the diff-pair branch-and-bound optimum is unchanged --- *)

let test_diffpair_bb_regression () =
  let env = Env.bicmos () in
  let trans =
    M.Mosfet.make env ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.)
      ~sd_contacts:`None ~well:false ()
  in
  Lobj.set_name trans "trans";
  let polycon = M.Contact_row.make env ~layer:"poly" ~l:(um 5.) ~net:"g" () in
  Lobj.set_name polycon "polycon";
  let diffcon = M.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net:"sd" () in
  Lobj.set_name diffcon "diffcon";
  let steps =
    [
      Optimize.step trans Dir.South;
      Optimize.step polycon ~ignore_layers:[ "poly" ] Dir.South;
      Optimize.step diffcon ~ignore_layers:[ "pdiff" ] Dir.South;
    ]
  in
  let main, r, order, nodes = Optimize.optimize_bb env ~name:"dp" steps in
  Alcotest.(check (float 0.0001)) "rating" 196.0 r;
  Alcotest.(check (list string)) "order"
    [ "diffcon"; "trans"; "polycon" ]
    (List.map (fun s -> Lobj.name s.Optimize.obj) order);
  Alcotest.(check int) "bbox area" 196_000_000 (Lobj.bbox_area main);
  (* Root + 3 sub-searches seeded with the canonical order's rating; the
     count is deterministic and domain-count-independent. *)
  Alcotest.(check int) "nodes" 13 nodes

let suite =
  [
    QCheck_alcotest.to_alcotest prop_query_matches_model;
    QCheck_alcotest.to_alcotest prop_near_matches_shapes;
    QCheck_alcotest.to_alcotest prop_pass_equiv;
    QCheck_alcotest.to_alcotest prop_auto_connect_equiv;
    Alcotest.test_case "diff-pair bb optimum unchanged" `Quick
      test_diffpair_bb_regression;
  ]
