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
module Wire = Amg_robust.Wire
module M = Amg_modules

let um = Units.of_um
let rules () = Technology.rules (Amg_tech.Bicmos1u.get ())

(* --- Sindex vs. a list model --- *)

let gen_rect =
  QCheck2.Gen.(
    let* x = int_range (-50_000) 50_000 in
    let* y = int_range (-50_000) 50_000 in
    let* w = int_range 100 180_000 in
    (* up to 180 um wide: wider than max_bins * cell, hits the overflow path *)
    let* h = int_range 100 12_000 in
    return (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + h)))

(* Mostly [gen_rect], sometimes a small rectangle near +-2^30: bins are
   then entered far below and above the occupied range, so the bin
   arrays grow toward lower bin numbers and through several doublings. *)
let gen_far_rect =
  QCheck2.Gen.(
    frequency
      [
        (6, gen_rect);
        ( 1,
          let* sx = oneofl [ -1; 1 ] in
          let* sy = oneofl [ -1; 0; 1 ] in
          let* jx = int_range 0 50_000 in
          let* jy = int_range 0 50_000 in
          let x = (sx * (1 lsl 30)) - jx and y = (sy * (1 lsl 30)) - jy in
          let* w = int_range 100 20_000 in
          let* h = int_range 100 20_000 in
          return (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + h)) );
      ])

(* A window and a margin.  Some windows are columns spanning both far
   bands, placed over the far rectangles or over the origin. *)
let gen_window =
  let far = (1 lsl 30) + 60_000 in
  QCheck2.Gen.(
    let column =
      let* x = oneofl [ -far; -30_000; far - 120_000 ] in
      let* w = int_range 1_000 80_000 in
      return (Rect.make ~x0:x ~y0:(-far) ~x1:(x + w) ~y1:far)
    in
    tup2 (frequency [ (4, gen_rect); (1, column) ]) (int_range 0 3_000))

(* The live (key, world rect) pairs: insert key i with rectangle i,
   remove each distinct present key of [removals] once, with its
   rectangle, then translate. *)
let build_index inserts removals (dx, dy) =
  let ix = Sindex.create () in
  List.iteri (fun key r -> Sindex.insert ix key r) inserts;
  let removed =
    List.sort_uniq Int.compare removals
    |> List.filter (fun key -> key < List.length inserts)
  in
  List.iter (fun key -> Sindex.remove ix key (List.nth inserts key)) removed;
  Sindex.translate_all ix ~dx ~dy;
  let model =
    List.mapi (fun key r -> (key, Rect.translate r ~dx ~dy)) inserts
    |> List.filter (fun (key, _) -> not (List.mem key removed))
  in
  (ix, model)

let model_query model window margin =
  let inflated = Rect.inflate window margin in
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

let model_bbox = function
  | [] -> None
  | (_, r) :: rest -> Some (List.fold_left (fun h (_, r) -> Rect.hull h r) r rest)

(* Everything the index answers about its contents: the query's keys
   (as a list and as visits, sorted but not deduplicated, so each key
   must be reported exactly once), every entry with its rectangle, the
   hull and the count. *)
let observe ix (window, margin) =
  let visited = ref [] in
  Sindex.iter_query ix window ~margin (fun key -> visited := key :: !visited);
  let entries = ref [] in
  Sindex.iter ix (fun key r -> entries := (key, r) :: !entries);
  ( Sindex.query ix window ~margin,
    List.sort Int.compare !visited,
    List.sort compare !entries,
    Sindex.bbox ix,
    Sindex.cardinal ix )

let expected model (window, margin) =
  let keys = model_query model window margin in
  (keys, keys, List.sort compare model, model_bbox model, List.length model)

let prop_query_matches_model =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 40) gen_far_rect) (* inserts, keyed by position *)
        (list_size (int_range 0 10) (int_range 0 39)) (* keys to remove *)
        (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
        gen_window)
  in
  QCheck2.Test.make ~name:"Sindex.query = naive filter" ~count:500 gen
    (fun (inserts, removals, shift, query) ->
      let ix, model = build_index inserts removals shift in
      observe ix query = expected model query)

(* A copy and its original are independent: inserts, removals and a
   translation on one never change what the other answers.  Bins are
   arrays updated in place, so a shared array would show here. *)
(* --- the bound-ordered walk vs. the window query --- *)

(* [gen_rect], sometimes transposed, so both axes get entries too tall or
   too wide for their bins (the overflow lists), sometimes snapped to a
   2 um grid, so edges fall on bin boundaries (the 4 um default cell), and
   now and then a far rectangle, so the window runs past the bin arrays'
   ends. *)
let gen_walk_rect =
  let snap v = v / 2_000 * 2_000 in
  QCheck2.Gen.(
    frequency
      [
        (6, gen_rect);
        (1, gen_far_rect);
        ( 2,
          map
            (fun (r : Rect.t) ->
              Rect.make ~x0:(snap r.Rect.x0) ~y0:(snap r.Rect.y0)
                ~x1:(snap r.Rect.x1 + 2_000) ~y1:(snap r.Rect.y1 + 2_000))
            gen_rect );
        ( 2,
          map
            (fun (r : Rect.t) ->
              Rect.make ~x0:r.Rect.y0 ~y0:r.Rect.x0 ~x1:r.Rect.y1 ~y1:r.Rect.x1)
            gen_rect );
      ])

let gen_walk =
  QCheck2.Gen.(
    tup5
      (list_size (int_range 0 40) gen_walk_rect)
      (list_size (int_range 0 10) (int_range 0 39))
      (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
      gen_window (oneofl Dir.all))

(* The edge of an entry that a walk along [d] meets first: its high edge
   walking down (South, West), its low edge walking up. *)
let facing d (r : Rect.t) = Rect.side r (Dir.opposite d)

(* With [go] always true the walk reports exactly the query's keys, each
   once, on both axes, in both directions. *)
let prop_walk_matches_query =
  QCheck2.Test.make ~name:"Sindex.walk (never stopped) = Sindex.query" ~count:500 gen_walk
    (fun (inserts, removals, shift, (window, margin), d) ->
      let ix, _ = build_index inserts removals shift in
      let visited = ref [] in
      let complete =
        Sindex.walk ix window ~margin d ~go:(fun _ -> true) (fun key ->
            visited := key :: !visited)
      in
      complete && List.sort Int.compare !visited = Sindex.query ix window ~margin)

(* A walk stopped by [go] at edge [e] reported each key once, only keys
   of the window, and left out no window entry whose facing edge lies
   beyond [e] along the walk (above it walking down, below it walking
   up); the bounds [go] sees move monotonically along the walk. *)
let prop_walk_stop_bound =
  QCheck2.Test.make ~name:"Sindex.walk stops only past what it reported" ~count:500
    QCheck2.Gen.(pair gen_walk (int_range 0 6))
    (fun ((inserts, removals, shift, (window, margin), d), stop_after) ->
      let ix, model = build_index inserts removals shift in
      let down = Dir.sign d < 0 in
      let calls = ref 0 and stopped_at = ref None and monotone = ref true in
      let last = ref None in
      let go e =
        (match !last with
        | Some l when (down && e > l) || ((not down) && e < l) -> monotone := false
        | _ -> ());
        last := Some e;
        incr calls;
        if !calls > stop_after then begin
          stopped_at := Some e;
          false
        end
        else true
      in
      let visited = ref [] in
      let complete = Sindex.walk ix window ~margin d ~go (fun key -> visited := key :: !visited) in
      let visited = List.sort Int.compare !visited in
      let keys = Sindex.query ix window ~margin in
      let once = List.sort_uniq Int.compare visited = visited in
      let within = List.for_all (fun k -> List.mem k keys) visited in
      let left_out =
        List.filter (fun (k, _) -> List.mem k keys && not (List.mem k visited)) model
      in
      once && within && !monotone
      &&
      match (complete, !stopped_at) with
      | true, None -> left_out = []
      | false, Some e ->
          List.for_all
            (fun (_, r) -> if down then facing d r <= e else facing d r >= e)
            left_out
      | _ -> false)

let prop_copy_independent =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 30) gen_far_rect)
        (list_size (int_range 1 10) gen_far_rect) (* entered after the copy *)
        (tup2 (list_size (int_range 1 10) (int_range 0 29)) bool)
        gen_window)
  in
  QCheck2.Test.make ~name:"Sindex.copy is independent" ~count:300 gen
    (fun (inserts, extra, (removals, mutate_copy), query) ->
      let ix, model = build_index inserts [] (0, 0) in
      let cp = Sindex.copy ix in
      let victim, other = if mutate_copy then (cp, ix) else (ix, cp) in
      let before = observe other query in
      let n = List.length inserts in
      List.iteri (fun i r -> Sindex.insert victim (n + i) r) extra;
      List.iter
        (fun key -> Sindex.remove victim key (List.nth inserts key))
        (List.sort_uniq Int.compare removals |> List.filter (fun k -> k < n));
      Sindex.translate_all victim ~dx:7_000 ~dy:(-3_000);
      before = expected model query && observe other query = before)

(* Removing a key set in one [remove_batch] leaves the index exactly as a
   [remove] per key does: the same query answers, the same visiting order
   of [iter_query] and [iter] (so the same bin lists), the same count and
   hull.  Rectangles may be wider or taller than the bins allow (the
   overflow lists), and a copy taken before the removal sees none of
   it. *)
let prop_remove_batch_matches_remove =
  let gen_tall =
    QCheck2.Gen.map
      (fun (r : Rect.t) ->
        Rect.make ~x0:r.Rect.y0 ~y0:r.Rect.x0 ~x1:r.Rect.y1 ~y1:r.Rect.x1)
      gen_rect
  in
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 40)
           (pair (frequency [ (4, gen_rect); (1, gen_tall) ]) bool))
        (* each rectangle, and whether the batch removes it *)
        (tup2 (int_range (-1_000) 1_000) (oneofl [ 1; 3; 1_000_003 ]))
        (* keys: base + step * position *)
        (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
        (list_size (int_range 1 4) gen_window))
  in
  QCheck2.Test.make ~name:"Sindex.remove_batch = one remove per key" ~count:500
    gen (fun (entries, (base, step), (dx, dy), windows) ->
      let keyed = List.mapi (fun i (r, gone) -> (base + (step * i), r, gone)) entries in
      let build () =
        let ix = Sindex.create () in
        List.iter (fun (key, r, _) -> Sindex.insert ix key r) keyed;
        Sindex.translate_all ix ~dx ~dy;
        ix
      in
      let batch = build () and single = build () in
      let gone =
        List.filter_map
          (fun (key, r, gone) ->
            if gone then Some (key, Rect.translate r ~dx ~dy) else None)
          keyed
      in
      let see ix =
        let entries = ref [] in
        Sindex.iter ix (fun key r -> entries := (key, r) :: !entries);
        ( List.map
            (fun (w, margin) ->
              let visited = ref [] in
              Sindex.iter_query ix w ~margin (fun key -> visited := key :: !visited);
              (Sindex.query ix w ~margin, !visited))
            windows,
          !entries,
          Sindex.cardinal ix,
          Sindex.bbox ix )
      in
      let copy = Sindex.copy batch in
      let before = see copy in
      let gone_keys = Hashtbl.create 16 in
      List.iter (fun (key, _) -> Hashtbl.replace gone_keys key ()) gone;
      Sindex.remove_batch batch gone ~gone:(Hashtbl.mem gone_keys);
      List.iter (fun (key, r) -> Sindex.remove single key r) (List.rev gone);
      see batch = see single && see copy = before)

(* --- random layouts shared by the consumer equivalence properties --- *)

let layers = [ "metal1"; "poly"; "pdiff"; "contact" ]

(* Some shapes are keep-clear (which makes cross-layer pairs without a
   spacing rule constrain) and some have variable edges. *)
let gen_plain_spec =
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

(* A contact as contact rows draw it: a row or column of 1 um cuts at
   2.5 um pitch, enclosed by 0.5 um in a same-net metal1 shape.  Cut pairs
   bound a move 1 um looser than the metal1 pair around them, so these
   are what the candidate pass skips, whole layer pairs and single cuts. *)
let gen_contact_spec =
  QCheck2.Gen.(
    let* net = oneofl [ "a"; "b"; "c" ] in
    let* x, y = tup2 (int_range 0 76) (int_range 0 76) in
    let* cuts = int_range 1 3 in
    let* vertical = bool in
    let fixed = Edge.all_fixed in
    let long = (5 * cuts) - 1 in
    let metal =
      ("metal1", Some net, (x, y), ((if vertical then (4, long) else (long, 4)), false, fixed))
    in
    let cut i =
      let along = 1 + (5 * i) in
      ( "contact",
        Some net,
        (if vertical then (x + 1, y + along) else (x + along, y + 1)),
        ((2, 2), false, fixed) )
    in
    return (metal :: List.init cuts cut))

(* One shape, or one contact: a list of specs. *)
let gen_shape_spec =
  QCheck2.Gen.(
    frequency [ (4, map (fun s -> [ s ]) gen_plain_spec); (1, gen_contact_spec) ])

let build_lobj name specs =
  let o = Lobj.create name in
  List.iter
    (fun (layer, net, (x, y), ((w, h), keep_clear, sides)) ->
      ignore
        (Lobj.add_shape o ~layer
           ~rect:
             (Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
           ?net ~sides ~keep_clear ()))
    (List.concat specs);
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

(* --- the lazily built layer index vs. an eagerly indexed reference --- *)

(* One operation of a random store history.  Shape picks are indices
   into the live shapes, taken modulo their count. *)
type spec = string * string option * (int * int) * ((int * int) * bool * Edge.sides)

type store_op =
  | Add of spec
  | Absorb of spec list list * (int * int)
  | Grow of int * Dir.t * int
  | Shrink of int * Dir.t * int
  | Relayer of int * string
  | Remove of int
  | Remove_most
  | Register of int
  | Rederive
  | Translate of int * int
  | Transform of Amg_geometry.Transform.orientation
  | Copy of bool
  | Fill
  | Release
  | Query of string * (int * int) * int

let gen_store_op =
  QCheck2.Gen.(
    let pick = int_range 0 1000 in
    frequency
      [
        (6, map (fun s -> Add s) gen_plain_spec);
        ( 3,
          map2
            (fun specs at -> Absorb (specs, at))
            (list_size (int_range 1 6) gen_shape_spec)
            (tup2 (int_range (-20) 20) (int_range (-20) 20)) );
        (2, map3 (fun k d a -> Grow (k, d, a)) pick (oneofl Dir.all) (int_range 1 8));
        (2, map3 (fun k d a -> Shrink (k, d, a)) pick (oneofl Dir.all) (int_range 1 3));
        (2, map2 (fun k l -> Relayer (k, l)) pick (oneofl layers));
        (2, map (fun k -> Remove k) pick);
        (1, return Remove_most);
        (1, map (fun k -> Register k) pick);
        (1, return Rederive);
        (1, map2 (fun x y -> Translate (x, y)) (int_range (-10) 10) (int_range (-10) 10));
        (1, map (fun o -> Transform o) (oneofl Amg_geometry.Transform.[ MX; MY; R90; R180 ]));
        (1, map (fun b -> Copy b) bool);
        (1, return Fill);
        (1, return Release);
        ( 4,
          map3
            (fun l at m -> Query (l, at, m))
            (oneofl layers)
            (tup2 (int_range (-20) 90) (int_range (-20) 90))
            (int_range 0 6) );
      ])

(* Is shape [id] a container of a registered array?  Removing one, or
   moving it to a layer no cut may sit in, would break [rederive]. *)
let is_container o id = Lobj.arrays_of_container o id <> []

let is_member (s : Shape.t) =
  match s.Shape.origin with Shape.Array_member _ -> true | Shape.User -> false

(* The lazy object [o] and its eagerly indexed twin [e] agree on every
   read of [layer]: candidate queries (ids in order, against a naive
   filter too), the visiting order of [iter_near] (the bins are the same),
   [shapes_on], the hull, and afterwards the index holds every shape. *)
let agree_on ~window ~margin o e layer =
  let ids l = List.map (fun (s : Shape.t) -> s.Shape.id) l in
  let visits x =
    let acc = ref [] in
    Lobj.iter_near x ~layer window ~margin (fun s -> acc := s.Shape.id :: !acc);
    List.rev !acc
  in
  let inflated = Rect.inflate window margin in
  let naive =
    List.filter
      (fun (s : Shape.t) ->
        Shape.on_layer s layer
        && s.rect.Rect.x0 <= inflated.Rect.x1
        && inflated.Rect.x0 <= s.rect.Rect.x1
        && s.rect.Rect.y0 <= inflated.Rect.y1
        && inflated.Rect.y0 <= s.rect.Rect.y1)
      (Lobj.shapes o)
  in
  let count = List.length (List.filter (fun s -> Shape.on_layer s layer) (Lobj.shapes o)) in
  Lobj.indexed o layer <= count
  && Option.equal Rect.equal (Lobj.bbox_on o layer) (Lobj.bbox_on e layer)
  && ids (Lobj.near o ~layer window ~margin) = ids naive
  && ids (Lobj.near e ~layer window ~margin) = ids naive
  && visits o = visits e
  && ids (Lobj.shapes_on o layer) = ids (Lobj.shapes_on e layer)
  && Lobj.indexed o layer = count
  && Lobj.indexed e layer = count

let agree_everywhere o e =
  let window = Rect.of_size ~x:(-20_000) ~y:(-20_000) ~w:100_000 ~h:100_000 in
  List.equal Shape.equal (Lobj.shapes o) (Lobj.shapes e)
  && List.equal String.equal (Lobj.layers o) (Lobj.layers e)
  && Option.equal Rect.equal (Lobj.bbox o) (Lobj.bbox e)
  && List.for_all
       (fun layer ->
         Lobj.keep_clear_on o layer = Lobj.keep_clear_on e layer
         && agree_on ~window ~margin:1000 o e layer)
       ("contact" :: layers)

let prop_lazy_index_matches_eager =
  let decks = [| Amg_tech.Bicmos1u.get (); Amg_tech.Cmos08.get () |] in
  let gen =
    QCheck2.Gen.(
      tup3 (int_range 0 1)
        (list_size (int_range 0 12) gen_shape_spec)
        (list_size (int_range 1 40) gen_store_op))
  in
  QCheck2.Test.make ~name:"lazy layer index = eager index" ~count:400 gen
    (fun (deck, start, ops) ->
      let rules = Technology.rules decks.(deck) in
      let o = build_lobj "lazy" start in
      let e = Lobj.copy o in
      Lobj.fill_caches e;
      (* Both objects take every mutation; [e] is brought up to date after
         each, as eager insertion would leave it.  Pairs a copy split off
         are checked at the end too. *)
      let cur = ref (o, e) and retired = ref [] and ok = ref true in
      let both f =
        let o, e = !cur in
        f o;
        f e;
        Lobj.fill_caches e;
        Lobj.check o;
        Lobj.check e
      in
      let pick k f =
        let o, _ = !cur in
        match Lobj.shapes o with
        | [] -> ()
        | shapes -> f (List.nth shapes (k mod List.length shapes))
      in
      let step = function
        | Add (layer, net, (x, y), ((w, h), keep_clear, sides)) ->
            both (fun x' ->
                ignore
                  (Lobj.add_shape x' ~layer
                     ~rect:(Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
                     ?net ~sides ~keep_clear ()))
        | Absorb (specs, (dx, dy)) ->
            let src = build_lobj "src" specs in
            both (fun x -> ignore (Lobj.absorb ~dx:(dx * 500) ~dy:(dy * 500) x src))
        | Grow (k, d, a) | Shrink (k, d, a) as op ->
            let a = match op with Shrink _ -> -a | _ -> a in
            pick k (fun s ->
                let r = Rect.grow_side s.Shape.rect d (a * 500) in
                if Rect.width r > 0 && Rect.height r > 0 then
                  both (fun x -> Lobj.replace x (Shape.with_rect s r)))
        | Relayer (k, layer) ->
            pick k (fun s ->
                if not (is_container (fst !cur) s.Shape.id || is_member s) then
                  both (fun x -> Lobj.replace x { s with Shape.layer }))
        | Remove k ->
            pick k (fun s ->
                if not (is_container (fst !cur) s.Shape.id) then
                  both (fun x -> Lobj.remove x s.Shape.id))
        | Remove_most ->
            let o, _ = !cur in
            let doomed =
              List.filteri
                (fun i (s : Shape.t) -> i mod 4 <> 0 && not (is_container o s.Shape.id))
                (Lobj.shapes o)
            in
            both (fun x -> List.iter (fun (s : Shape.t) -> Lobj.remove x s.Shape.id) doomed)
        | Register k ->
            pick k (fun s ->
                if
                  List.mem s.Shape.layer [ "metal1"; "pdiff"; "poly" ] && not (is_member s)
                then
                  both (fun x ->
                      ignore
                        (Lobj.register_array x ~cut_layer:"contact"
                           ~container_ids:[ s.Shape.id ] ?net:s.Shape.net ())))
        | Rederive -> both (fun x -> Lobj.rederive x rules)
        | Translate (dx, dy) -> both (fun x -> Lobj.translate x ~dx:(dx * 500) ~dy:(dy * 500))
        | Transform orient ->
            both (fun x -> Lobj.transform x (Amg_geometry.Transform.of_orientation orient))
        | Copy mutate_original ->
            let o, e = !cur in
            let copied = (Lobj.copy o, Lobj.copy e) in
            let kept, other = if mutate_original then ((o, e), copied) else (copied, (o, e)) in
            retired := other :: !retired;
            cur := kept;
            both (fun x ->
                ignore
                  (Lobj.add_shape x ~layer:"metal1"
                     ~rect:(Rect.of_size ~x:0 ~y:0 ~w:2000 ~h:2000) ()))
        | Fill -> both Lobj.fill_caches
        | Release -> both Lobj.release_indexes
        | Query (layer, (x, y), margin) ->
            let o, e = !cur in
            let window = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:10_000 ~h:6_000 in
            if not (agree_on ~window ~margin:(margin * 500) o e layer) then ok := false
      in
      List.iter step ops;
      !ok && List.for_all (fun (o, e) -> agree_everywhere o e) (!cur :: !retired))

(* Entering shapes leaves them pending: an absorb indexes nothing until a
   query of the layer, which then holds every shape of it. *)
let test_lazy_index_defers () =
  let env = Env.bicmos () in
  let row net = M.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net () in
  let main = row "a" in
  Lobj.fill_caches main;
  let cuts o = List.length (Lobj.shapes_on (Lobj.copy o) "contact") in
  let before = Lobj.indexed main "contact" in
  ignore (Lobj.absorb ~dy:(um 20.) main (row "b"));
  Alcotest.(check int) "absorbed cuts wait" before (Lobj.indexed main "contact");
  Alcotest.(check bool) "cuts were absorbed" true (cuts main > before);
  ignore (Lobj.near main ~layer:"contact" (Lobj.bbox_exn main) ~margin:0);
  Alcotest.(check int) "a query enters them" (cuts main) (Lobj.indexed main "contact")

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
   scan order, the tightest bound strictly looser than it, and
   auto-connection's candidates — same-layer same-net pairs on a
   stretchable layer whose cross-axis spans overlap strictly. *)
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
  let cross = Dir.cross_axis d in
  let connect =
    List.concat_map
      (fun (a : Shape.t) ->
        List.filter_map
          (fun (b : Shape.t) ->
            if
              String.equal a.Shape.layer b.Shape.layer
              && Rules.cut_size_opt rules a.Shape.layer = None
              && Shape.same_net a b
              && Interval.overlaps (Rect.span cross a.rect) (Rect.span cross b.rect)
            then Some (a.Shape.id, b.Shape.id)
            else None)
          (Lobj.shapes main))
      (Lobj.shapes obj)
  in
  ( best,
    List.filter (fun (b, _, _, _) -> Some b = best) limits,
    tightest (List.filter (fun b -> Some b <> best) bounds),
    connect )

(* A pass in [naive_pass]'s terms, its runner-up forced. *)
let pass_summary (pass : Successive.pass) =
  ( pass.tightest,
    List.map
      (fun l ->
        ( l.Successive.bound,
          l.Successive.mover.Shape.id,
          l.Successive.target.Shape.id,
          l.Successive.rel ))
      pass.tied,
    Lazy.force pass.runner_up,
    pass.connect )

(* The nets both objects' shapes carry. *)
let common_nets a b =
  let nets o = List.filter_map (fun (s : Shape.t) -> s.Shape.net) (Lobj.shapes o) in
  List.sort_uniq String.compare (List.filter (fun n -> List.mem n (nets b)) (nets a))

(* The pass is also run as a search runs it: through the mover's digest
   and a class table, which covers every layer, or only some of them (a
   layer it misses is classified on the spot), and with a shared-net list
   covering every net the main and the mover share — exactly those, or
   more.  The main is built directly, or absorbed whole into an empty
   object so that its shapes are pending in the layer indexes until the
   pass reads them; each pass reads a main of its own. *)
let prop_pass_equiv =
  let gen =
    QCheck2.Gen.(
      tup6
        (list_size (int_range 1 25) gen_shape_spec)
        (list_size (int_range 1 5) gen_shape_spec)
        (oneofl Dir.all)
        (oneofl [ []; [ "metal1" ]; [ "poly" ] ])
        (oneofl [ layers; [ "metal1"; "contact" ]; [] ])
        (pair bool bool))
  in
  QCheck2.Test.make ~name:"candidate pass = all-pairs scan" ~count:500 gen
    (fun (main_specs, obj_specs, d, ignore_layers, covered, (absorbed, extra)) ->
      let rules = rules () in
      let main () =
        if absorbed then begin
          let m = Lobj.create "main" in
          ignore (Lobj.absorb m (build_lobj "part" main_specs));
          m
        end
        else build_lobj "main" main_specs
      in
      let obj = build_lobj "obj" obj_specs in
      let expected = naive_pass rules ~ignore_layers d ~main:(main ()) obj in
      let classes = Successive.classes rules covered in
      let shared =
        common_nets (main ()) obj @ if extra then [ "a"; "z" ] else []
      in
      pass_summary (Successive.scan rules ~ignore_layers d ~main:(main ()) obj) = expected
      && pass_summary
           (Successive.scan_digest rules ~ignore_layers ~classes ~main:(main ())
              (Successive.digest obj d))
         = expected
      && pass_summary
           (Successive.scan_digest rules ~ignore_layers ~classes ~shared ~main:(main ())
              (Successive.digest obj d))
         = expected)

(* --- what the pass skips --- *)

(* Candidate pairs the pass visits while [f] runs. *)
let pairs_visited f =
  Amg_obs.Obs.reset ();
  Amg_obs.Obs.enable ();
  Fun.protect ~finally:Amg_obs.Obs.disable f;
  let n = Amg_obs.Obs.counter "compact.pairs_considered" in
  Amg_obs.Obs.reset ();
  n

(* Two contact rows in bicmos1u: a cut pair bounds the move 1 um looser
   than the metal1 pair around it (cut spacing 1.5 minus two 0.5 um
   enclosures is below metal1 spacing 1.5), so the pass visits no
   contact x contact pair.  Cuts constrain nothing on other layers, so
   removing every cut from both rows must leave the visited count as it
   is. *)
let test_contact_rows_skip_cuts () =
  let env = Env.bicmos () in
  let rules = Env.rules env in
  let row net = M.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net () in
  let main = row "a" and obj = row "b" in
  Lobj.translate obj ~dx:0 ~dy:(um 20.);
  let without_cuts o =
    let c = Lobj.copy o in
    List.iter (fun (s : Shape.t) -> Lobj.remove c s.Shape.id) (Lobj.shapes_on c "contact");
    c
  in
  let cut_limits =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> naive_pair_limit rules Dir.South a b)
          (Lobj.shapes_on main "contact"))
      (Lobj.shapes_on obj "contact")
  in
  Alcotest.(check bool) "cut pairs bound the move" true (cut_limits <> []);
  let visited m o = pairs_visited (fun () -> ignore (Successive.scan rules Dir.South ~main:m o)) in
  Alcotest.(check int) "no contact x contact pair visited"
    (visited (without_cuts main) (without_cuts obj))
    (visited main obj);
  Alcotest.(check bool) "pass = all-pairs scan" true
    (pass_summary (Successive.scan rules Dir.South ~main obj)
    = naive_pass rules Dir.South ~main obj)

(* A variable edge whose slack is set by a runner-up on a layer pair the
   pruned pass skips.  Moving South, the metal1 pair binds at -12.5 um;
   the poly pair, whose optimistic bound is looser and whose mover shape
   has no net to connect, is never visited by the pruned pass but is the
   runner-up at -15.5 um.  The target's variable north edge must shrink
   by exactly the 3 um between them.  A further shrink would leave the
   metal1/pdiff contact array without a cut and is rolled back, so the
   amount stays visible in the final geometry; shrinking by the whole
   slack at once would be rolled back and leave the edge where it was. *)
let test_runner_up_on_skipped_pair () =
  let env = Env.bicmos () in
  let rules = Env.rules env in
  let box x0 y0 x1 y1 = Rect.make ~x0:(um x0) ~y0:(um y0) ~x1:(um x1) ~y1:(um y1) in
  let main = Lobj.create "main" in
  let t =
    Lobj.add_shape main ~layer:"metal1" ~rect:(box 0. 0. 10. 6.) ~net:"a"
      ~sides:(Edge.set Edge.all_fixed Dir.North Edge.Variable) ()
  in
  let d = Lobj.add_shape main ~layer:"pdiff" ~rect:(box 0. 0. 10. 3.) ~net:"a" () in
  ignore
    (Lobj.register_array main ~cut_layer:"contact"
       ~container_ids:[ t.Shape.id; d.Shape.id ] ~net:"a" ());
  Lobj.rederive main rules;
  ignore (Lobj.add_shape main ~layer:"poly" ~rect:(box 0. 0. 10. 3.) ~net:"p" ());
  let obj = Lobj.create "obj" in
  ignore (Lobj.add_shape obj ~layer:"metal1" ~rect:(box 0. 20. 10. 22.) ~net:"b" ());
  ignore (Lobj.add_shape obj ~layer:"poly" ~rect:(box 0. 20. 10. 22.) ());
  let best, _, runner_up, _ = naive_pass rules Dir.South ~main obj in
  Alcotest.(check (option int)) "metal1 binds" (Some (um (-12.5))) best;
  Alcotest.(check (option int)) "poly is the runner-up" (Some (um (-15.5))) runner_up;
  let pass = ref None in
  Alcotest.(check int) "pruned pass visits only the metal1 pair" 1
    (pairs_visited (fun () -> pass := Some (Successive.scan rules Dir.South ~main obj)));
  Alcotest.(check (option int)) "forced runner-up" runner_up
    (Lazy.force (Option.get !pass).Successive.runner_up);
  Successive.compact ~rules ~into:main obj Dir.South;
  let shrunk = um 6. - (Lobj.find_exn main t.Shape.id).Shape.rect.Rect.y1 in
  Alcotest.(check int) "shrink amount" (abs (Option.get best - Option.get runner_up)) shrunk

(* Two targets tie at the tightest bound: a fixed metal1 shape and, with
   the higher id, one whose north edge is variable.  A round whose tied
   separations all have fixed facing edges returns its pass at once, so
   this one must not: the variable edge still shrinks, all the way to
   the layer's minimum width (the runner-up is the fixed tie itself, so
   nothing else limits the shrink), while the fixed shape keeps setting
   the mover's position.  Moving the variable shape's edge to the mover
   instead (mover edge variable) shrinks the mover. *)
let test_variable_tie_beside_fixed () =
  let env = Env.bicmos () in
  let rules = Env.rules env in
  let box x0 y0 x1 y1 = Rect.make ~x0:(um x0) ~y0:(um y0) ~x1:(um x1) ~y1:(um y1) in
  let north_var = Edge.set Edge.all_fixed Dir.North Edge.Variable in
  let space = Option.get (Rules.space rules "metal1" "metal1") in
  let width = Rules.width rules "metal1" in
  let main = Lobj.create "main" in
  let fixed = Lobj.add_shape main ~layer:"metal1" ~rect:(box 0. 0. 4. 8.) ~net:"a" () in
  let var =
    Lobj.add_shape main ~layer:"metal1" ~rect:(box 10. 0. 14. 8.) ~net:"b" ~sides:north_var ()
  in
  let obj = Lobj.create "obj" in
  ignore (Lobj.add_shape obj ~layer:"metal1" ~rect:(box 0. 30. 14. 32.) ~net:"c" ());
  let pass = Successive.scan rules Dir.South ~main obj in
  Alcotest.(check (list int)) "both targets tie"
    [ fixed.Shape.id; var.Shape.id ]
    (List.map (fun l -> l.Successive.target.Shape.id) pass.Successive.tied);
  Successive.compact ~rules ~into:main obj Dir.South;
  Alcotest.(check bool) "fixed target kept" true
    (Rect.equal (Lobj.find_exn main fixed.Shape.id).Shape.rect fixed.Shape.rect);
  Alcotest.(check int) "variable edge shrunk to the minimum width" width
    (Rect.height (Lobj.find_exn main var.Shape.id).Shape.rect);
  Alcotest.(check int) "the fixed tie places the mover" (um 8. + space)
    (Option.get (Lobj.bbox obj)).Rect.y0;
  (* The same tie with the variable edge on the mover's side. *)
  let main = Lobj.create "main" in
  ignore (Lobj.add_shape main ~layer:"metal1" ~rect:(box 0. 0. 4. 8.) ~net:"a" ());
  ignore (Lobj.add_shape main ~layer:"metal1" ~rect:(box 10. 0. 14. 8.) ~net:"b" ());
  let obj = Lobj.create "obj" in
  ignore (Lobj.add_shape obj ~layer:"metal1" ~rect:(box 0. 30. 4. 34.) ~net:"c" ());
  let m =
    Lobj.add_shape obj ~layer:"metal1" ~rect:(box 10. 30. 14. 34.) ~net:"d"
      ~sides:(Edge.set Edge.all_fixed Dir.South Edge.Variable) ()
  in
  Successive.compact ~rules ~into:main obj Dir.South;
  Alcotest.(check int) "mover's variable edge shrunk to the minimum width" width
    (Rect.height (Lobj.find_exn obj m.Shape.id).Shape.rect)

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
  let main, r, order, nodes = Optimize.search env ~name:"dp" Wire.Bb steps in
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
    QCheck_alcotest.to_alcotest prop_copy_independent;
    QCheck_alcotest.to_alcotest prop_remove_batch_matches_remove;
    QCheck_alcotest.to_alcotest prop_near_matches_shapes;
    QCheck_alcotest.to_alcotest prop_lazy_index_matches_eager;
    Alcotest.test_case "lazy index defers absorbed shapes" `Quick test_lazy_index_defers;
    QCheck_alcotest.to_alcotest prop_pass_equiv;
    QCheck_alcotest.to_alcotest prop_auto_connect_equiv;
    Alcotest.test_case "contact rows: no contact x contact pair visited" `Quick
      test_contact_rows_skip_cuts;
    Alcotest.test_case "variable edge: runner-up on a skipped pair" `Quick
      test_runner_up_on_skipped_pair;
    Alcotest.test_case "diff-pair bb optimum unchanged" `Quick
      test_diffpair_bb_regression;
    QCheck_alcotest.to_alcotest prop_walk_matches_query;
    QCheck_alcotest.to_alcotest prop_walk_stop_bound;
    Alcotest.test_case "variable edge: a variable tie beside a fixed one" `Quick
      test_variable_tie_beside_fixed;
  ]
