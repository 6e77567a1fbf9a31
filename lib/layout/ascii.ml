(* ASCII-art layout preview for the terminal: one character per cell, the
   topmost layer (technology drawing order) wins.  Meant for quick looks
   during module development, as the paper's environment showed "a
   corresponding graphical view of the module" beside the source. *)

module Rect = Amg_geometry.Rect
module Technology = Amg_tech.Technology

(* Character per layer, assigned in drawing order. *)
let glyphs = "~-=pPcMvVT#&%@"

let layer_glyph tech lname =
  let idx = Technology.draw_index tech lname in
  if idx = max_int then '?'
  else glyphs.[idx mod String.length glyphs]

let render ~tech ?(width = 72) obj =
  match Lobj.bbox obj with
  | None -> "(empty)\n"
  | Some bbox ->
      let w_nm = Int.max 1 (Rect.width bbox) and h_nm = Int.max 1 (Rect.height bbox) in
      let cols = width in
      (* Terminal cells are roughly twice as tall as wide. *)
      let rows = Int.max 1 (h_nm * cols / w_nm / 2) in
      let rows = Int.min rows 120 in
      let grid = Array.make_matrix rows cols ' ' in
      (* Cuts draw last so contacts stay visible over their metal. *)
      let order (s : Shape.t) =
        match Technology.layer tech s.Shape.layer with
        | Some l when Amg_tech.Layer.is_cut l -> max_int - 1
        | _ -> Technology.draw_index tech s.Shape.layer
      in
      let sorted =
        List.stable_sort (fun a b -> compare (order a) (order b)) (Lobj.shapes obj)
      in
      List.iter
        (fun (s : Shape.t) ->
          if Technology.mem_layer tech s.Shape.layer then begin
            let r = s.Shape.rect in
            let cx0 = (r.Rect.x0 - bbox.Rect.x0) * cols / w_nm in
            let cx1 = (r.Rect.x1 - bbox.Rect.x0) * cols / w_nm in
            let cy0 = (bbox.Rect.y1 - r.Rect.y1) * rows / h_nm in
            let cy1 = (bbox.Rect.y1 - r.Rect.y0) * rows / h_nm in
            let g = layer_glyph tech s.Shape.layer in
            for y = Int.max 0 cy0 to Int.min (rows - 1) (Int.max cy0 (cy1 - 1)) do
              for x = Int.max 0 cx0 to Int.min (cols - 1) (Int.max cx0 (cx1 - 1)) do
                grid.(y).(x) <- g
              done
            done
          end)
        sorted;
      let b = Buffer.create (rows * (cols + 1)) in
      Array.iter
        (fun row ->
          Array.iter (Buffer.add_char b) row;
          Buffer.add_char b '\n')
        grid;
      Buffer.contents b

let legend ~tech obj =
  List.map (fun l -> (layer_glyph tech l, l)) (Lobj.layers obj)
