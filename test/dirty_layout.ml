(* Random DRC-dirty layouts, shared by the checker's oracle properties
   (test_drc.ml) and the DRC report golden (golden_gen.ml). *)

module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape

let bicmos_layers =
  [ "nwell"; "pbase"; "pdiff"; "ndiff"; "poly"; "poly2"; "contact"; "metal1"; "via";
    "metal2"; "subtap"; "resmark" ]

let cmos08_layers =
  [ "nwell"; "pdiff"; "ndiff"; "poly"; "contact"; "metal1"; "via"; "metal2"; "subtap";
    "resmark" ]

(* Layouts over [layers], in 0.5 um steps: plain shapes (some keep-clear,
   most on one of three nets), gates (a poly stripe across a diffusion),
   resistor bodies (poly under [resmark]) and clusters (a chain of small
   same-layer shapes, each touching the last: connected regions below the
   minimum area, whose report order rests on their union-find roots). *)
let gen layers =
  let rect (x, y, w, h) =
    Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500)
  in
  QCheck2.Gen.(
    let net = oneofl [ Some "a"; Some "b"; Some "c"; None ] in
    let at = tup2 (int_range 0 40) (int_range 0 40) in
    let plain =
      let* layer = oneofl layers in
      let* x, y = at in
      let* w, h = tup2 (int_range 1 20) (int_range 1 20) in
      let* net = net in
      let* keep_clear = frequency [ (5, return false); (1, return true) ] in
      return [ (layer, rect (x, y, w, h), net, keep_clear) ]
    in
    let gate =
      let* diff = oneofl [ "pdiff"; "ndiff" ] in
      let* x, y = at in
      let* w, h = tup2 (int_range 4 20) (int_range 2 12) in
      let* off, l = tup2 (int_range 0 10) (int_range 1 4) in
      let* ext = int_range 0 3 in
      let* net = net in
      return
        [
          (diff, rect (x, y, w, h), net, false);
          ( "poly",
            rect (x + Int.min off (w - l), y - ext, l, h + (2 * ext)),
            Some "g",
            false );
        ]
    in
    let resistor =
      let* x, y = at in
      let* w, h = tup2 (int_range 2 20) (int_range 1 4) in
      let* m = int_range 0 2 in
      return
        [
          ("poly", rect (x, y, w, h), Some "r", false);
          ("resmark", rect (x - m, y - m, w + (2 * m), h + (2 * m)), None, false);
        ]
    in
    let cluster =
      let* layer = oneofl layers in
      let* x, y = at in
      let* parts = list_size (int_range 2 4) (tup4 bool (int_range 1 2) (int_range 1 2) net) in
      let _, _, shapes =
        List.fold_left
          (fun (x, y, acc) (east, w, h, net) ->
            let next = if east then (x + w, y) else (x, y + h) in
            (fst next, snd next, (layer, rect (x, y, w, h), net, false) :: acc))
          (x, y, []) parts
      in
      return (List.rev shapes)
    in
    map List.concat
      (list_size (int_range 0 35)
         (frequency [ (6, plain); (2, gate); (1, resistor); (2, cluster) ])))

let build specs =
  let o = Lobj.create "dirty" in
  List.iter
    (fun (layer, rect, net, keep_clear) ->
      ignore (Lobj.add_shape o ~layer ~rect ?net ~keep_clear ()))
    specs;
  o

(* The [seed]th layout of a fixed sequence: the same for every run. *)
let seeded layers seed =
  build (QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) (gen layers))

(* Dirty layouts that register cut arrays, for the checker's group proofs.
   An array is a landing rectangle under metal1 with contacts (on poly,
   diffusion or poly2), metal1 alone with contacts (no landing layer), or
   metal1 with vias, under metal2 or without it; on a net or on none.
   Around each array: foreign cuts inside or beside it, keep-clear shapes
   on another layer, a [resmark] over it, and an abutting twin array,
   each entered before or after the arrays' cuts.  Some arrays are
   mirrored (their cuts leave row-major order), and some lose one member.
   Besides the derived arrays, some cut grids are drawn by hand with an
   [Array_member] origin: any pitch (touching and overlapping cuts
   included), in row-major, column-major, reversed or shuffled order,
   under metal1 and a landing shape at any margin.  The [gen] layout
   above is the background. *)

type shape_spec = string * Rect.t * string option * bool

type array_spec = {
  cut : string;
  containers : (string * Rect.t) list;
  array_net : string option;
  mirrored : bool;
}

type arrays_spec = {
  before : shape_spec list;  (* entered before the arrays' cuts *)
  drawn : (shape_spec list * (string * Rect.t * string option) list) list;
      (* hand-drawn grids: their enclosing shapes, then their cuts *)
  arrays : array_spec list;
  after : shape_spec list;  (* entered after them *)
  drops : (int * int) list;  (* (array, member): a cut to remove *)
}

let gen_arrays layers =
  let rect (x, y, w, h) =
    Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500)
  in
  let landings =
    List.filter (fun l -> List.mem l layers) [ "poly"; "pdiff"; "ndiff"; "poly2" ]
  in
  QCheck2.Gen.(
    let net = oneofl [ Some "a"; Some "b"; None ] in
    let array_at (x, y, w, h) =
      let* kind =
        frequency
          [ (4, map (fun l -> `Landed l) (oneofl landings)); (1, return `Unlanded);
            (2, return `Via); (1, return `Via_no_metal2) ]
      in
      let* grow = int_range 0 1 in
      let* array_net = net in
      let* mirrored = frequency [ (4, return false); (1, return true) ] in
      let r = rect (x, y, w, h) in
      let over = Rect.inflate r (grow * 500) in
      let cut, containers =
        match kind with
        | `Landed l -> ("contact", [ (l, r); ("metal1", over) ])
        | `Unlanded -> ("contact", [ ("metal1", r) ])
        | `Via -> ("via", [ ("metal1", r); ("metal2", over) ])
        | `Via_no_metal2 -> ("via", [ ("metal1", r) ])
      in
      return { cut; containers; array_net; mirrored }
    in
    (* Extras placed relative to the array at [(x, y)], [w] x [h] steps. *)
    let extra (x, y, w, h) cut =
      let near = tup2 (int_range (x - 4) (x + w + 2)) (int_range (y - 4) (y + h + 2)) in
      frequency
        [
          ( 3,
            let* cx, cy = near in
            let* n = net in
            return (cut, rect (cx, cy, 2, 2), n, false) );
          ( 2,
            let* layer = oneofl (List.filter (fun l -> l <> "resmark") layers) in
            let* cx, cy = near in
            let* ew, eh = tup2 (int_range 1 6) (int_range 1 6) in
            return (layer, rect (cx, cy, ew, eh), None, true) );
          ( 1,
            let* m = int_range (-1) 2 in
            return ("resmark", rect (x - m, y - m, w + (2 * m), h + (2 * m)), None, false) );
        ]
    in
    let site =
      let* x, y = tup2 (int_range 0 72) (int_range 0 72) in
      let* w, h = tup2 (int_range 5 30) (int_range 5 20) in
      let box = (x, y, w, h) in
      let* a = array_at box in
      let* twin = frequency [ (4, return None); (1, map Option.some (array_at (x + w, y, w, h))) ] in
      let* extras = list_size (int_range 0 3) (tup2 bool (extra box a.cut)) in
      return (a :: Option.to_list twin, extras)
    in
    let drawn =
      let* x, y = tup2 (int_range 0 72) (int_range 0 72) in
      let* cut = oneofl [ "contact"; "via" ] in
      let* size = oneofl [ 800; 1000 ] in
      let* gap = map (fun k -> 100 * k) (int_range 0 20) in
      let* nx, ny = tup2 (int_range 1 5) (int_range 1 3) in
      let* n = net in
      let pitch = size + gap in
      let cell (i, j) =
        Rect.of_size ~x:((x * 500) + (i * pitch)) ~y:((y * 500) + (j * pitch)) ~w:size ~h:size
      in
      let row_major = List.concat_map (fun j -> List.init nx (fun i -> (i, j))) (List.init ny Fun.id) in
      let* order =
        frequency
          [ (3, return row_major);
            (1, return (List.concat_map (fun i -> List.init ny (fun j -> (i, j))) (List.init nx Fun.id)));
            (1, return (List.rev row_major)); (1, shuffle_l row_major) ]
      in
      let cuts = List.map cell order in
      let hull = Option.get (Rect.hull_list cuts) in
      let* m1 = map (fun k -> 100 * k) (int_range 0 6) in
      let* landing = option (pair (oneofl landings) (map (fun k -> 100 * k) (int_range 0 8))) in
      let under =
        ("metal1", Rect.inflate hull m1, n, false)
        :: (match landing with Some (l, m) -> [ (l, Rect.inflate hull m, n, false) ] | None -> [])
      in
      return (under, List.map (fun r -> (cut, r, n)) cuts)
    in
    let* background = gen layers in
    let* drawn = list_size (int_range 0 2) drawn in
    let* sites = list_size (int_range 1 4) site in
    let* drops = list_size (int_range 0 2) (tup2 (int_range 0 7) (int_range 0 40)) in
    let extras = List.concat_map snd sites in
    return
      {
        before = background @ List.filter_map (fun (early, s) -> if early then Some s else None) extras;
        drawn;
        arrays = List.concat_map fst sites;
        after = List.filter_map (fun (early, s) -> if early then None else Some s) extras;
        drops;
      })

(* The hand-drawn grids follow [before], the [k]th grid's cuts with
   origin [Array_member (1000 + k)], an id no registered array has.  The
   arrays that are not mirrored are registered in the object itself and
   derived by one [Lobj.rederive]; a mirrored one is derived in an object
   of its own, mirrored in place about its vertical centre line (so its
   cuts run east to west within a row) and absorbed after.  A drop
   [(a, k)] removes member [k] (modulo the count) of the [a]th run of
   members (modulo the runs) in shape order. *)
let build_arrays rules spec =
  let o = build spec.before in
  List.iteri
    (fun k (under, cuts) ->
      List.iter
        (fun (layer, rect, net, keep_clear) ->
          ignore (Lobj.add_shape o ~layer ~rect ?net ~keep_clear ()))
        under;
      List.iter
        (fun (layer, rect, net) ->
          ignore (Lobj.add_shape o ~layer ~rect ?net ~origin:(Shape.Array_member (1000 + k)) ()))
        cuts)
    spec.drawn;
  let register t a =
    let ids =
      List.map
        (fun (layer, rect) -> (Lobj.add_shape t ~layer ~rect ?net:a.array_net ()).Shape.id)
        a.containers
    in
    ignore (Lobj.register_array t ~cut_layer:a.cut ~container_ids:ids ?net:a.array_net ())
  in
  List.iter (fun a -> if not a.mirrored then register o a) spec.arrays;
  Lobj.rederive o rules;
  List.iter
    (fun a ->
      if a.mirrored then begin
        let m = Lobj.create "mirrored" in
        register m a;
        Lobj.rederive m rules;
        let hull = Option.get (Lobj.bbox m) in
        Lobj.transform m
          { Amg_geometry.Transform.orient = MY; dx = hull.Rect.x0 + hull.Rect.x1; dy = 0 };
        ignore (Lobj.absorb o m)
      end)
    spec.arrays;
  List.iter
    (fun (layer, rect, net, keep_clear) ->
      ignore (Lobj.add_shape o ~layer ~rect ?net ~keep_clear ()))
    spec.after;
  let members () =
    List.fold_left
      (fun acc (s : Shape.t) ->
        match s.Shape.origin with
        | Shape.Array_member a -> (
            match acc with
            | (a', ids) :: rest when a' = a -> (a, s.Shape.id :: ids) :: rest
            | _ -> (a, [ s.Shape.id ]) :: acc)
        | Shape.User -> acc)
      [] (Lobj.shapes o)
    |> List.rev_map (fun (_, ids) -> Array.of_list (List.rev ids))
  in
  List.iter
    (fun (a, k) ->
      match members () with
      | [] -> ()
      | arrays ->
          let ids = List.nth arrays (a mod List.length arrays) in
          Lobj.remove o ids.(k mod Array.length ids))
    spec.drops;
  o

(* The [seed]th array layout of a fixed sequence. *)
let seeded_arrays rules layers seed =
  build_arrays rules
    (QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) (gen_arrays layers))
