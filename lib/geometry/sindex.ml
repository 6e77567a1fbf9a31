(* Interval-binned spatial index.  Rectangles are stored in local
   coordinates (world minus a running offset, so translating the whole
   index is an O(1) offset bump) and entered into the bins covered by
   their x-span and by their y-span.  A query gathers candidates from the
   cheaper axis and filters them against the window precisely.

   Each axis is a plain array of bins over its occupied bin range, grown
   by doubling toward the side a new entry falls outside.  Bins hold
   immutable (key, rect) lists: the rectangle rides along so the query's
   precise filter runs without a lookup per candidate, and [copy] is one
   array copy per axis sharing the lists (a bin is updated by storing a
   new list, never by mutating one), which keeps the object copy in the
   optimizer's inner loop cheap.  There is no key table: the caller hands
   [remove] the rectangle it entered. *)

(* Bin [b] of an axis is [arr.(b - lo)]; bins outside the array are
   empty. *)
type axis = { mutable lo : int; mutable arr : (int * Rect.t) list array }

type t = {
  cell : int;
  mutable ox : int; (* world x = local x + ox *)
  mutable oy : int;
  mutable count : int;
  xbins : axis;
  ybins : axis;
  mutable xwide : (int * Rect.t) list; (* entries spanning > max_bins x-bins *)
  mutable ywide : (int * Rect.t) list;
}

(* A rectangle covering more bins than this on an axis goes to the axis's
   overflow list: entering a chip-wide rail into thousands of bins would
   cost more than testing it on every query. *)
let max_bins = 32

let create ?(cell = 4000) () =
  {
    cell = Int.max 1 cell;
    ox = 0;
    oy = 0;
    count = 0;
    xbins = { lo = 0; arr = [||] };
    ybins = { lo = 0; arr = [||] };
    xwide = [];
    ywide = [];
  }

let copy_axis a = { lo = a.lo; arr = Array.copy a.arr }

let copy t = { t with xbins = copy_axis t.xbins; ybins = copy_axis t.ybins }

let cardinal t = t.count

(* Floor division, correct for negative coordinates. *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* Make the axis cover bins [b0, b1].  The array doubles (more than once
   if need be) toward the side the new span falls outside, so a layout
   growing in one direction reallocates O(log n) times. *)
let cover ax b0 b1 =
  let n = Array.length ax.arr in
  if n = 0 then begin
    ax.lo <- b0;
    ax.arr <- Array.make (Int.max 8 (b1 - b0 + 1)) []
  end
  else if b0 < ax.lo || b1 >= ax.lo + n then begin
    let lo = Int.min b0 ax.lo and hi = Int.max b1 (ax.lo + n - 1) in
    let n' = ref (2 * n) in
    while !n' < hi - lo + 1 do
      n' := 2 * !n'
    done;
    let lo' = if b0 < ax.lo then hi + 1 - !n' else ax.lo in
    let arr = Array.make !n' [] in
    Array.blit ax.arr 0 arr (ax.lo - lo') n;
    ax.lo <- lo';
    ax.arr <- arr
  end

let bin_add ax b0 b1 entry =
  cover ax b0 b1;
  let a = ax.arr in
  for i = b0 - ax.lo to b1 - ax.lo do
    a.(i) <- entry :: a.(i)
  done

(* Drop the first entry under [key], keeping the order of the rest and
   sharing the tail behind it. *)
let rec drop (key : int) = function
  | [] -> []
  | ((k, _) as e) :: rest -> if k = key then rest else e :: drop key rest

let bin_remove ax b0 b1 key =
  let a = ax.arr in
  for i = b0 - ax.lo to b1 - ax.lo do
    a.(i) <- drop key a.(i)
  done

let insert t key rect =
  (* An index that was never translated stores the caller's rectangle as
     it is, without a translated copy. *)
  let r =
    if t.ox = 0 && t.oy = 0 then rect else Rect.translate rect ~dx:(-t.ox) ~dy:(-t.oy)
  in
  let entry = (key, r) in
  let xb0 = fdiv r.Rect.x0 t.cell and xb1 = fdiv r.Rect.x1 t.cell in
  if xb1 - xb0 >= max_bins then t.xwide <- entry :: t.xwide
  else bin_add t.xbins xb0 xb1 entry;
  let yb0 = fdiv r.Rect.y0 t.cell and yb1 = fdiv r.Rect.y1 t.cell in
  if yb1 - yb0 >= max_bins then t.ywide <- entry :: t.ywide
  else bin_add t.ybins yb0 yb1 entry;
  t.count <- t.count + 1

let remove t key rect =
  let r = Rect.translate rect ~dx:(-t.ox) ~dy:(-t.oy) in
  let xb0 = fdiv r.Rect.x0 t.cell and xb1 = fdiv r.Rect.x1 t.cell in
  if xb1 - xb0 >= max_bins then t.xwide <- drop key t.xwide
  else bin_remove t.xbins xb0 xb1 key;
  let yb0 = fdiv r.Rect.y0 t.cell and yb1 = fdiv r.Rect.y1 t.cell in
  if yb1 - yb0 >= max_bins then t.ywide <- drop key t.ywide
  else bin_remove t.ybins yb0 yb1 key;
  t.count <- t.count - 1

(* Drop every entry whose key is [gone], keeping the order of the rest and
   sharing the tail behind the last dropped one: the list [drop] would
   leave after removing those keys one by one. *)
let rec strip gone = function
  | [] -> []
  | ((k, _) as e) :: rest as l ->
      let rest' = strip gone rest in
      if gone k then rest' else if rest' == rest then l else e :: rest'

(* Filter each marked bin of the axis once. *)
let strip_marked ax marks gone =
  let a = ax.arr in
  Bytes.iteri (fun i m -> if m <> '\000' then a.(i) <- strip gone a.(i)) marks

let remove_batch t entries ~gone =
  let xmarks = Bytes.make (Array.length t.xbins.arr) '\000'
  and ymarks = Bytes.make (Array.length t.ybins.arr) '\000' in
  let xwide = ref false and ywide = ref false in
  let mark ax marks b0 b1 = Bytes.fill marks (b0 - ax.lo) (b1 - b0 + 1) '\001' in
  List.iter
    (fun (_, rect) ->
      let r = Rect.translate rect ~dx:(-t.ox) ~dy:(-t.oy) in
      let xb0 = fdiv r.Rect.x0 t.cell and xb1 = fdiv r.Rect.x1 t.cell in
      if xb1 - xb0 >= max_bins then xwide := true else mark t.xbins xmarks xb0 xb1;
      let yb0 = fdiv r.Rect.y0 t.cell and yb1 = fdiv r.Rect.y1 t.cell in
      if yb1 - yb0 >= max_bins then ywide := true else mark t.ybins ymarks yb0 yb1)
    entries;
  strip_marked t.xbins xmarks gone;
  strip_marked t.ybins ymarks gone;
  if !xwide then t.xwide <- strip gone t.xwide;
  if !ywide then t.ywide <- strip gone t.ywide;
  t.count <- t.count - List.length entries

let clear t =
  Array.fill t.xbins.arr 0 (Array.length t.xbins.arr) [];
  Array.fill t.ybins.arr 0 (Array.length t.ybins.arr) [];
  t.xwide <- [];
  t.ywide <- [];
  t.count <- 0

let translate_all t ~dx ~dy =
  t.ox <- t.ox + dx;
  t.oy <- t.oy + dy

(* A window query in local coordinates, already inflated, with its scan
   counts: the one block a query allocates. *)
type window = {
  wx0 : int;
  wx1 : int;
  wy0 : int;
  wy1 : int;
  mutable scanned : int;
  mutable hits : int;
}

(* The window of [rect] inflated by [margin], in local coordinates. *)
let window t (rect : Rect.t) ~margin =
  {
    wx0 = rect.Rect.x0 - t.ox - margin;
    wx1 = rect.Rect.x1 - t.ox + margin;
    wy0 = rect.Rect.y0 - t.oy - margin;
    wy1 = rect.Rect.y1 - t.oy + margin;
    scanned = 0;
    hits = 0;
  }

(* Record a finished query's scan counts. *)
let count_scan w =
  if Amg_obs.Obs.enabled () then begin
    Amg_obs.Obs.count "sindex.queries" 1;
    Amg_obs.Obs.count "sindex.scanned" w.scanned;
    Amg_obs.Obs.count "sindex.hits" w.hits
  end

let report w f key (r : Rect.t) =
  w.scanned <- w.scanned + 1;
  if r.Rect.x0 <= w.wx1 && w.wx0 <= r.Rect.x1 && r.Rect.y0 <= w.wy1 && w.wy0 <= r.Rect.y1
  then begin
    w.hits <- w.hits + 1;
    f key
  end

let rec report_all w f = function
  | [] -> ()
  | (key, r) :: rest ->
      report w f key r;
      report_all w f rest

(* The entries of one bin whose low edge on the scanned axis lies in it,
   or all of them in the first bin scanned. *)
let rec report_bin w f ~on_x ~first edge = function
  | [] -> ()
  | (key, (r : Rect.t)) :: rest ->
      let lo = if on_x then r.Rect.x0 else r.Rect.y0 in
      if first || lo >= edge then report w f key r else w.scanned <- w.scanned + 1;
      report_bin w f ~on_x ~first edge rest

let scan_axis t w f ~on_x ax wide b0 b1 =
  report_all w f wide;
  let a = ax.arr in
  let s0 = Int.max b0 ax.lo and s1 = Int.min b1 (ax.lo + Array.length a - 1) in
  for b = s0 to s1 do
    report_bin w f ~on_x ~first:(b = s0) (b * t.cell) a.(b - ax.lo)
  done

(* The one scan loop behind every window query.  It gathers candidates
   from whichever axis covers fewer bins of the inflated window and
   reports each matching entry exactly once: an entry sits in every bin
   its span covers, so it is reported only from the first scanned bin it
   covers — the first bin scanned, or the bin holding its low edge.  That
   needs no division per entry (the low edge is compared against the
   bin's lower boundary), no deduplication pass and no intermediate list;
   the loops are plain functions over one window record, so a query
   allocates that record and nothing per bin or per entry.  The window's
   bins are clamped to the axis's array: bins outside it are empty, and
   every entry in the array's first bin has its low edge there. *)
let iter_query t rect ~margin f =
  Amg_robust.Inject.(probe Sindex_query);
  if t.count > 0 then begin
    (* Window in local coordinates, inflated once up front. *)
    let w = window t rect ~margin in
    let xb0 = fdiv w.wx0 t.cell and xb1 = fdiv w.wx1 t.cell in
    let yb0 = fdiv w.wy0 t.cell and yb1 = fdiv w.wy1 t.cell in
    (* Scan the axis covering fewer bins; a window much wider than the
       layout on one axis (the compactor's slab queries) then costs only
       the bounded axis's bins. *)
    if xb1 - xb0 <= yb1 - yb0 then scan_axis t w f ~on_x:true t.xbins t.xwide xb0 xb1
    else scan_axis t w f ~on_x:false t.ybins t.ywide yb0 yb1;
    count_scan w
  end

(* The entries of one bin whose high edge on the scanned axis lies in it
   (below [next], the next bin's lower boundary), or all of them in the
   first bin scanned: [report_bin] for a walk toward lower bins. *)
let rec report_bin_hi w f ~on_x ~first next = function
  | [] -> ()
  | (key, (r : Rect.t)) :: rest ->
      let hi = if on_x then r.Rect.x1 else r.Rect.y1 in
      if first || hi < next then report w f key r else w.scanned <- w.scanned + 1;
      report_bin_hi w f ~on_x ~first next rest

(* The bound-ordered walk.  It scans the bins of the movement axis only,
   from the side the walk starts on, and reports an entry at the first
   bin walked that holds it: the first bin, or the bin holding its facing
   edge (its high edge walking down, its low edge walking up), which
   needs no per-entry division, as in [iter_query].  So every entry not
   reported before bin [b] has its facing edge inside [b] or beyond it
   along the walk: walking down below [(b + 1) * cell], walking up at or
   above [b * cell] — the bound [go] is asked about, in world
   coordinates, before each bin but the first.  The axis's overflow
   entries sit in no bin and are reported first. *)
let walk t rect ~margin d ~go f =
  Amg_robust.Inject.(probe Sindex_query);
  if t.count = 0 then true
  else begin
    let w = window t rect ~margin in
    let on_x = match Dir.axis d with Dir.Horizontal -> true | Dir.Vertical -> false in
    let ax = if on_x then t.xbins else t.ybins in
    let o = if on_x then t.ox else t.oy in
    report_all w f (if on_x then t.xwide else t.ywide);
    let a = ax.arr in
    let s0 = Int.max (fdiv (if on_x then w.wx0 else w.wy0) t.cell) ax.lo
    and s1 = Int.min (fdiv (if on_x then w.wx1 else w.wy1) t.cell) (ax.lo + Array.length a - 1) in
    let down = Dir.sign d < 0 in
    let first = if down then s1 else s0 in
    let b = ref first and complete = ref true in
    while !complete && if down then !b >= s0 else !b <= s1 do
      let bin = !b in
      if bin <> first && not (go ((if down then ((bin + 1) * t.cell) - 1 else bin * t.cell) + o))
      then complete := false
      else begin
        if down then
          report_bin_hi w f ~on_x ~first:(bin = first) ((bin + 1) * t.cell) a.(bin - ax.lo)
        else report_bin w f ~on_x ~first:(bin = first) (bin * t.cell) a.(bin - ax.lo);
        b := if down then bin - 1 else bin + 1
      end
    done;
    count_scan w;
    !complete
  end

let query t rect ~margin =
  let acc = ref [] in
  iter_query t rect ~margin (fun key -> acc := key :: !acc);
  List.sort Int.compare !acc

(* Every entry once, in local coordinates: the x-overflow list, then each
   x-bin's entries whose low edge lies in that bin. *)
let iter_local t f =
  List.iter (fun (key, r) -> f key r) t.xwide;
  let a = t.xbins.arr in
  for i = 0 to Array.length a - 1 do
    let edge = (t.xbins.lo + i) * t.cell in
    List.iter (fun (key, r) -> if r.Rect.x0 >= edge then f key r) a.(i)
  done

let iter t f = iter_local t (fun key r -> f key (Rect.translate r ~dx:t.ox ~dy:t.oy))

let bbox t =
  let acc = ref None in
  iter_local t (fun _ r ->
      acc := Some (match !acc with None -> r | Some h -> Rect.hull h r));
  Option.map (fun r -> Rect.translate r ~dx:t.ox ~dy:t.oy) !acc

exception Found

(* [iter_query] that leaves off at the first key [p] holds for.  The
   scan is left by an exception caught right here, so the scan loops
   carry no stop test, and the query is still counted, with what it
   scanned and hit up to there.  It stands last in the module so that
   the hot scan and walk loops above keep their place in the code, whose
   alignment moves their speed. *)
let exists_query t rect ~margin p =
  Amg_robust.Inject.(probe Sindex_query);
  t.count > 0
  &&
  let w = window t rect ~margin in
  let xb0 = fdiv w.wx0 t.cell and xb1 = fdiv w.wx1 t.cell in
  let yb0 = fdiv w.wy0 t.cell and yb1 = fdiv w.wy1 t.cell in
  let f key = if p key then raise_notrace Found in
  let found =
    match
      if xb1 - xb0 <= yb1 - yb0 then scan_axis t w f ~on_x:true t.xbins t.xwide xb0 xb1
      else scan_axis t w f ~on_x:false t.ybins t.ywide yb0 yb1
    with
    | () -> false
    | exception Found -> true
  in
  count_scan w;
  found
