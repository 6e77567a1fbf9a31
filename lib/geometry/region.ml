type t = Rect.t list

let empty = []

let of_rects rs = List.filter (fun r -> not (Rect.is_degenerate r)) rs

let is_empty = function [] -> true | _ :: _ -> false

(* Residue of [solids] after removing every rectangle of [covers], by
   successive subtraction: exactly the procedure of the paper's Fig. 1.
   Each cover splits every remaining solid into at most four pieces; the rule
   is fulfilled when nothing remains. *)
let residue ~solids ~covers =
  let subtractions = ref 0 in
  let remove_cover remaining cover =
    subtractions := !subtractions + List.length remaining;
    List.concat_map (fun solid -> Rect.subtract solid cover) remaining
  in
  let r = List.fold_left remove_cover (of_rects solids) covers in
  if Amg_obs.Obs.enabled () then
    Amg_obs.Obs.count "region.cover_subtractions" !subtractions;
  r

let covered ~solids ~covers = is_empty (residue ~solids ~covers)

(* Union area by vertical-slab sweep over the compressed x coordinates.
   Within a slab, the covered y extent is the union of the y spans of the
   rectangles crossing the slab. *)
let area rects =
  let rects = of_rects rects in
  match rects with
  | [] -> 0
  | _ ->
      let xs =
        List.concat_map (fun (r : Rect.t) -> [ r.x0; r.x1 ]) rects
        |> List.sort_uniq Int.compare
      in
      let rec slabs acc = function
        | x0 :: (x1 :: _ as rest) ->
            let w = x1 - x0 in
            let spans =
              List.filter_map
                (fun (r : Rect.t) ->
                  if r.x0 <= x0 && x1 <= r.x1 then Some (r.y0, r.y1) else None)
                rects
              |> List.sort (fun (a0, a1) (b0, b1) ->
                     let c = Int.compare a0 b0 in
                     if c <> 0 then c else Int.compare a1 b1)
            in
            let covered_h =
              let rec go acc cur = function
                | [] -> (
                    match cur with None -> acc | Some (lo, hi) -> acc + hi - lo)
                | (y0, y1) :: tl -> (
                    match cur with
                    | None -> go acc (Some (y0, y1)) tl
                    | Some (lo, hi) ->
                        if y0 <= hi then go acc (Some (lo, Int.max hi y1)) tl
                        else go (acc + hi - lo) (Some (y0, y1)) tl)
              in
              go 0 None spans
            in
            slabs (acc + (w * covered_h)) rest
        | _ -> acc
      in
      slabs 0 xs

let hull rects = Rect.hull_list (of_rects rects)

let contains_point rects ~x ~y =
  List.exists (fun r -> Rect.contains_point r ~x ~y) rects

let inter_rect rects clip = List.filter_map (Rect.inter clip) rects

let translate rects ~dx ~dy = List.map (fun r -> Rect.translate r ~dx ~dy) rects
