module Rect = Amg_geometry.Rect
module Rules = Amg_tech.Rules

(* Usable window inside the containers for a cut of [cut_layer]: each
   container shrinks by its enclosure margin, then everything intersects.
   A container narrower than twice its margin on either axis leaves no
   window at all (shrinking must not swap its edges into a window the
   container cannot enclose). *)
let cut_window rules ~containers ~cut_layer =
  let shrink (layer, (r : Rect.t)) =
    let m = Rules.enclosure_or_zero rules ~outer:layer ~inner:cut_layer in
    if r.x1 - r.x0 < 2 * m || r.y1 - r.y0 < 2 * m then None
    else Some (Rect.inflate r (-m))
  in
  match List.map shrink containers with
  | [] -> None
  | r :: rs ->
      List.fold_left
        (fun acc r -> Option.bind acc (fun a -> Option.bind r (Rect.inter a)))
        (Option.bind r (fun r -> if Rect.is_degenerate r then None else Some r))
        rs

(* Equidistant positions of [n] cuts of size [s] in an extent [lo, hi]:
   all gaps (including the two end margins) are as equal as integer
   arithmetic allows, except that cut-to-cut gaps never drop below the
   minimum [space]; any slack the inner gaps cannot legally absorb moves to
   the end margins.  The rounding remainder is spread one nanometre at a
   time from the low end, keeping the arrangement symmetric to within one
   grid unit. *)
let spread ~lo ~hi ~s ~space n =
  let w = hi - lo in
  let total_gap = w - (n * s) in
  let equal_gap = total_gap / (n + 1) in
  if n = 0 then []
  else if equal_gap >= space || n = 1 then begin
    let base = equal_gap and rem = total_gap mod (n + 1) in
    let rec go i pos acc =
      if i >= n then List.rev acc
      else
        let extra = if i < rem then 1 else 0 in
        let x = pos + base + extra in
        go (i + 1) (x + s) ((x, x + s) :: acc)
    in
    go 0 lo []
  end
  else begin
    (* Inner gaps pinned at the minimum space; margins share the rest. *)
    let margin_total = total_gap - ((n - 1) * space) in
    let m0 = margin_total / 2 in
    let rec go i pos acc =
      if i >= n then List.rev acc
      else go (i + 1) (pos + s + space) ((pos, pos + s) :: acc)
    in
    go 0 (lo + m0) []
  end

(* Maximum number of cuts of size [s] at pitch [s + space] fitting in [w]. *)
let max_cuts ~w ~s ~space =
  if w < s then 0 else 1 + ((w - s) / (s + space))

(* Compute the rectangles of a contact/via array filling the window defined
   by [containers].  "The maximum number of rectangles which fits
   horizontally and vertically into the structure is calculated according to
   the necessary overlap and the contacts are placed equidistantly to
   minimize the contact resistance" (§2.2).  Returns [] when not even one
   cut fits — the caller (the ARRAY primitive) must then expand the outer
   geometries. *)
let cut_array rules ~containers ~cut_layer =
  match cut_window rules ~containers ~cut_layer with
  | None -> []
  | Some window ->
      let s = Rules.cut_size rules cut_layer in
      let space = Rules.cut_space rules cut_layer in
      let nx = max_cuts ~w:(Rect.width window) ~s ~space in
      let ny = max_cuts ~w:(Rect.height window) ~s ~space in
      if nx = 0 || ny = 0 then []
      else
        let xs = spread ~lo:window.Rect.x0 ~hi:window.Rect.x1 ~s ~space nx in
        let ys = spread ~lo:window.Rect.y0 ~hi:window.Rect.y1 ~s ~space ny in
        List.concat_map
          (fun (y0, y1) ->
            List.map (fun (x0, x1) -> Rect.make ~x0 ~y0 ~x1 ~y1) xs)
          ys

(* Smallest container extent (along one axis) that still admits one cut:
   cut size plus the enclosure margin on both sides.  This bounds how far a
   variable edge of an array container may be shrunk. *)
let min_container_extent rules ~container_layer ~cut_layer =
  Rules.cut_size rules cut_layer
  + (2 * Rules.enclosure_or_zero rules ~outer:container_layer ~inner:cut_layer)
