(* Random DRC-dirty layouts, shared by the checker's oracle properties
   (test_drc.ml) and the DRC report golden (golden_gen.ml). *)

module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj

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
