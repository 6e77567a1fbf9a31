(* Interval-binned spatial index.  Rectangles are stored in local
   coordinates (world minus a running offset, so translating the whole
   index is an O(1) offset bump) and entered into the bins covered by
   their x-span and by their y-span.  A query gathers candidates from the
   cheaper axis and filters them against the window precisely.

   Bins hold immutable (key, rect) lists: the rectangle rides along so the
   query's precise filter runs without a table lookup per candidate, and
   [copy] shares the lists (they are replaced, never mutated), which keeps
   the object-copy in the optimizer's inner loop cheap. *)

type bins = (int * Rect.t) list Itbl.t

type t = {
  cell : int;
  mutable ox : int; (* world x = local x + ox *)
  mutable oy : int;
  rects : Rect.t Itbl.t; (* key -> local rect *)
  xbins : bins;
  ybins : bins;
  mutable xwide : (int * Rect.t) list; (* entries spanning > max_bins x-bins *)
  mutable ywide : (int * Rect.t) list;
}

(* A rectangle covering more bins than this on an axis goes to the axis's
   overflow list: entering a chip-wide rail into thousands of bins would
   cost more than testing it on every query. *)
let max_bins = 32

let create ?(cell = 4000) () =
  {
    cell = max 1 cell;
    ox = 0;
    oy = 0;
    rects = Itbl.create 32;
    xbins = Itbl.create 32;
    ybins = Itbl.create 32;
    xwide = [];
    ywide = [];
  }

let copy t =
  {
    t with
    rects = Itbl.copy t.rects;
    xbins = Itbl.copy t.xbins;
    ybins = Itbl.copy t.ybins;
  }

let cardinal t = Itbl.length t.rects
let mem t key = Itbl.mem t.rects key

let find t key =
  Option.map
    (fun r -> Rect.translate r ~dx:t.ox ~dy:t.oy)
    (Itbl.find_opt t.rects key)

(* Floor division, correct for negative coordinates. *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let bin_range t lo hi = (fdiv lo t.cell, fdiv hi t.cell)

let bin_add bins b entry =
  let cur = match Itbl.find_opt bins b with Some l -> l | None -> [] in
  Itbl.replace bins b (entry :: cur)

let bin_remove bins b key =
  match Itbl.find_opt bins b with
  | None -> ()
  | Some l -> (
      match List.filter (fun (k, _) -> k <> key) l with
      | [] -> Itbl.remove bins b
      | l' -> Itbl.replace bins b l')

let remove_wide wide key = List.filter (fun (k, _) -> k <> key) wide

let enter_x t entry (r : Rect.t) =
  let b0, b1 = bin_range t r.Rect.x0 r.Rect.x1 in
  if b1 - b0 >= max_bins then t.xwide <- entry :: t.xwide
  else
    for b = b0 to b1 do
      bin_add t.xbins b entry
    done

let enter_y t entry (r : Rect.t) =
  let b0, b1 = bin_range t r.Rect.y0 r.Rect.y1 in
  if b1 - b0 >= max_bins then t.ywide <- entry :: t.ywide
  else
    for b = b0 to b1 do
      bin_add t.ybins b entry
    done

let remove t key =
  match Itbl.find_opt t.rects key with
  | None -> ()
  | Some r ->
      Itbl.remove t.rects key;
      let xb0, xb1 = bin_range t r.Rect.x0 r.Rect.x1 in
      if xb1 - xb0 >= max_bins then t.xwide <- remove_wide t.xwide key
      else
        for b = xb0 to xb1 do
          bin_remove t.xbins b key
        done;
      let yb0, yb1 = bin_range t r.Rect.y0 r.Rect.y1 in
      if yb1 - yb0 >= max_bins then t.ywide <- remove_wide t.ywide key
      else
        for b = yb0 to yb1 do
          bin_remove t.ybins b key
        done

let insert t key rect =
  if Itbl.mem t.rects key then remove t key;
  let r = Rect.translate rect ~dx:(-t.ox) ~dy:(-t.oy) in
  Itbl.replace t.rects key r;
  let entry = (key, r) in
  enter_x t entry r;
  enter_y t entry r

let translate_all t ~dx ~dy =
  t.ox <- t.ox + dx;
  t.oy <- t.oy + dy

(* The one scan loop behind every window query.  It gathers candidates
   from whichever axis covers fewer bins of the inflated window and
   reports each matching entry exactly once: an entry sits in every bin
   its span covers, so it is reported only from the first scanned bin it
   covers — bin [b0], or the bin holding its low edge.  That needs no
   division per entry (the low edge is compared against the bin's lower
   boundary), no deduplication pass and no intermediate list. *)
let iter_query t rect ~margin f =
  Amg_robust.Inject.(probe Sindex_query);
  if Itbl.length t.rects > 0 then begin
    (* Window in local coordinates, inflated once up front. *)
    let wx0 = rect.Rect.x0 - t.ox - margin
    and wx1 = rect.Rect.x1 - t.ox + margin
    and wy0 = rect.Rect.y0 - t.oy - margin
    and wy1 = rect.Rect.y1 - t.oy + margin in
    let scanned = ref 0 and hits = ref 0 in
    let inside (r : Rect.t) =
      r.Rect.x0 <= wx1 && wx0 <= r.Rect.x1 && r.Rect.y0 <= wy1
      && wy0 <= r.Rect.y1
    in
    let report key r =
      incr scanned;
      if inside r then begin
        incr hits;
        f key
      end
    in
    let xb0, xb1 = bin_range t wx0 wx1 in
    let yb0, yb1 = bin_range t wy0 wy1 in
    let scan ~on_x bins wide b0 b1 =
      List.iter (fun (key, r) -> report key r) wide;
      for b = b0 to b1 do
        match Itbl.find_opt bins b with
        | Some entries ->
            let edge = b * t.cell in
            List.iter
              (fun (key, r) ->
                let lo = if on_x then r.Rect.x0 else r.Rect.y0 in
                if b = b0 || lo >= edge then report key r else incr scanned)
              entries
        | None -> ()
      done
    in
    (* Scan the axis covering fewer bins; a window much wider than the
       layout on one axis (the compactor's slab queries) then costs only
       the bounded axis's bins. *)
    if xb1 - xb0 <= yb1 - yb0 then scan ~on_x:true t.xbins t.xwide xb0 xb1
    else scan ~on_x:false t.ybins t.ywide yb0 yb1;
    if Amg_obs.Obs.enabled () then begin
      Amg_obs.Obs.count "sindex.queries" 1;
      Amg_obs.Obs.count "sindex.scanned" !scanned;
      Amg_obs.Obs.count "sindex.hits" !hits
    end
  end

let query t rect ~margin =
  let acc = ref [] in
  iter_query t rect ~margin (fun key -> acc := key :: !acc);
  List.sort Int.compare !acc

let iter t f =
  Itbl.iter (fun key r -> f key (Rect.translate r ~dx:t.ox ~dy:t.oy)) t.rects

let bbox t =
  let acc = ref None in
  Itbl.iter
    (fun _ r ->
      acc := Some (match !acc with None -> r | Some h -> Rect.hull h r))
    t.rects;
  Option.map (fun r -> Rect.translate r ~dx:t.ox ~dy:t.oy) !acc
