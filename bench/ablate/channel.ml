(* Detailed channel router: constrained left-edge (Hashimoto–Stevens).

   A channel has pins along its top and bottom edges (a net name per
   column, or nothing).  Each net gets one horizontal trunk on a metal1
   track; vertical metal2 branches drop from the pins to the trunk through
   vias.  Two constraints govern track assignment:

   - horizontal: nets whose column intervals overlap need different
     tracks (the left-edge packing shares one track between disjoint
     intervals — this is what the global comb router does not do);
   - vertical: where a column has both a top and a bottom pin, the top
     net's trunk must lie above the bottom net's trunk or their branches
     would collide (the vertical constraint graph; cyclic VCGs need
     doglegs and are rejected here).

   The router reports its track count, which is optimal for cycle-free
   channels up to the VCG's chain structure (never below the channel
   density). *)

module Rect = Amg_geometry.Rect
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Diag = Amg_robust.Diag
module Wire = Amg_route.Wire

(* Routing failures are structured diagnostics (subsystem [Route]); the
   message texts are part of the test surface, the codes and hints are the
   machine-readable layer on top. *)
let unroutable ?hint code fmt = Diag.failf ?hint Diag.Route ~code fmt

type spec = {
  top : (int * string) list;     (* x position, net *)
  bottom : (int * string) list;
}

type result = {
  tracks : (string * int) list;  (* net -> track index, 0 = topmost *)
  track_count : int;
  density : int;
  height : int;                  (* channel height in nm *)
}

let nets_of spec =
  List.map snd (spec.top @ spec.bottom) |> List.sort_uniq String.compare

(* Column interval of each net. *)
let intervals spec =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (x, net) ->
      let lo, hi =
        match Hashtbl.find_opt tbl net with
        | Some (lo, hi) -> (Int.min lo x, Int.max hi x)
        | None -> (x, x)
      in
      Hashtbl.replace tbl net (lo, hi))
    (spec.top @ spec.bottom);
  tbl

(* Channel density: max number of net intervals crossing any column. *)
let density spec =
  let iv = intervals spec in
  let xs = List.map fst (spec.top @ spec.bottom) |> List.sort_uniq compare in
  List.fold_left
    (fun acc x ->
      let crossing =
        Hashtbl.fold
          (fun _net (lo, hi) n -> if lo <= x && x <= hi then n + 1 else n)
          iv 0
      in
      Int.max acc crossing)
    0 xs

(* Vertical constraint graph: top pin net -> bottom pin net per column. *)
let vcg spec =
  let edges = ref [] in
  List.iter
    (fun (x, tnet) ->
      List.iter
        (fun (x', bnet) ->
          if x = x' && not (String.equal tnet bnet) then
            edges := (tnet, bnet) :: !edges)
        spec.bottom)
    spec.top;
  List.sort_uniq compare !edges

let has_cycle nets edges =
  (* Kahn: if we cannot consume every node, there is a cycle. *)
  let indeg = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace indeg n 0) nets;
  List.iter
    (fun (_, b) -> Hashtbl.replace indeg b (Hashtbl.find indeg b + 1))
    edges;
  let rec consume remaining =
    match
      List.find_opt (fun n -> Hashtbl.find indeg n = 0) remaining
    with
    | None -> remaining <> []
    | Some n ->
        List.iter
          (fun (a, b) ->
            if String.equal a n then
              Hashtbl.replace indeg b (Hashtbl.find indeg b - 1))
          edges;
        consume (List.filter (fun m -> not (String.equal m n)) remaining)
  in
  consume nets

(* Constrained left-edge: fill tracks top to bottom; a net is eligible for
   the current track when all its VCG predecessors are already placed and
   its interval overlaps no interval already on the track. *)
let validate spec =
  let clash pins side =
    List.iter
      (fun (x, n) ->
        List.iter
          (fun (x', n') ->
            if x = x' && not (String.equal n n') then
              unroutable "route.pin-clash"
                ~hint:"every column may carry at most one pin per side"
                "two %s pins share column x=%d (%s, %s)" side x n n')
          pins)
      pins
  in
  clash spec.top "top";
  clash spec.bottom "bottom"

let assign spec =
  validate spec;
  let nets = nets_of spec in
  let edges = vcg spec in
  if has_cycle nets edges then
    unroutable "route.unroutable-cyclic"
      ~hint:"route_dogleg splits nets into segments to break VCG cycles"
      "cyclic vertical constraints (needs doglegs)";
  let iv = intervals spec in
  let interval n = Hashtbl.find iv n in
  let placed = Hashtbl.create 16 in
  let ancestors_placed n =
    List.for_all
      (fun (a, b) -> (not (String.equal b n)) || Hashtbl.mem placed a)
      edges
  in
  let overlaps (lo, hi) (lo', hi') = not (hi < lo' || hi' < lo) in
  let track = ref 0 in
  let out = ref [] in
  let remaining = ref nets in
  while !remaining <> [] do
    (* Left-edge order within the track. *)
    let candidates =
      List.filter ancestors_placed !remaining
      |> List.sort (fun a b -> compare (fst (interval a)) (fst (interval b)))
    in
    if candidates = [] then
      unroutable "route.unroutable-blocked"
        "vertical constraints block every remaining net";
    let on_track = ref [] in
    List.iter
      (fun n ->
        if
          List.for_all
            (fun m -> not (overlaps (interval n) (interval m)))
            !on_track
        then on_track := n :: !on_track)
      candidates;
    List.iter
      (fun n ->
        Hashtbl.replace placed n !track;
        out := (n, !track) :: !out)
      !on_track;
    remaining :=
      List.filter (fun n -> not (Hashtbl.mem placed n)) !remaining;
    incr track
  done;
  (List.rev !out, !track)

(* Generate the geometry: trunks on metal1 tracks (top track first),
   branches on metal2 from each pin edge to its trunk, vias at the
   junctions. *)
let route env obj ~spec ~y_top ~y_bottom ~x0 =
  ignore x0;
  let rules = Env.rules env in
  let tracks, track_count = assign spec in
  let m1w = Rules.width rules "metal1" in
  let m2w = Rules.width rules "metal2" in
  let pitch =
    (* Track pitch leaves room for a via pad plus spacing on both metal
       levels: adjacent tracks can carry vias in the same column. *)
    Int.max
      (Wire.pad_size rules ~layer:"metal1" ~cut:"via"
      + Rules.space_exn rules "metal1" "metal1")
      (Wire.pad_size rules ~layer:"metal2" ~cut:"via"
      + Rules.space_exn rules "metal2" "metal2")
  in
  let needed = (track_count * pitch) + (2 * pitch) in
  if y_top - y_bottom < needed then
    unroutable "route.channel-too-short"
      ~hint:"widen the channel or reduce the number of competing nets"
      "channel too short: %d nm for %d tracks (need %d)" (y_top - y_bottom)
      track_count needed;
  let iv = intervals spec in
  let track_y t = y_top - ((t + 1) * pitch) in
  List.iter
    (fun (net, t) ->
      let lo, hi = Hashtbl.find iv net in
      let y = track_y t in
      ignore
        (Lobj.add_shape obj ~layer:"metal1"
           ~rect:
             (Rect.make ~x0:(lo - m1w) ~y0:y ~x1:(hi + m1w) ~y1:(y + m1w))
           ~net ()))
    tracks;
  let branch ~x ~from_y ~net =
    let t = List.assoc net tracks in
    let y = track_y t + (m1w / 2) in
    ignore
      (Lobj.add_shape obj ~layer:"metal2"
         ~rect:
           (Rect.make ~x0:(x - (m2w / 2))
              ~y0:(Int.min y from_y)
              ~x1:(x + (m2w / 2))
              ~y1:(Int.max y from_y))
         ~net ());
    ignore (Wire.via env obj ~at:(x, y) ~net ())
  in
  List.iter (fun (x, net) -> branch ~x ~from_y:y_top ~net) spec.top;
  List.iter (fun (x, net) -> branch ~x ~from_y:y_bottom ~net) spec.bottom;
  {
    tracks;
    track_count;
    density = density spec;
    height = needed;
  }

(* --- restricted doglegs (Deutsch) ------------------------------------- *)

(* Split every net at its internal pin columns: segment i covers the span
   between consecutive pins.  Segments of one net meet at a pin column and
   are connected there by the pin's branch, so they may sit on different
   tracks — this breaks vertical-constraint cycles that pass through
   different spans of a multi-pin net, and lets long nets escape dense
   regions. *)

type seg = { s_net : string; s_idx : int; s_lo : int; s_hi : int }

let seg_name s = Printf.sprintf "%s#%d" s.s_net s.s_idx

let segments spec =
  let pins_of net =
    List.filter_map
      (fun (x, n) -> if String.equal n net then Some x else None)
      (spec.top @ spec.bottom)
    |> List.sort_uniq compare
  in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
    | _ -> []
  in
  List.concat_map
    (fun net ->
      match pins_of net with
      | [] -> []
      | [ x ] -> [ { s_net = net; s_idx = 0; s_lo = x; s_hi = x } ]
      | pins ->
          List.mapi
            (fun i (lo, hi) -> { s_net = net; s_idx = i; s_lo = lo; s_hi = hi })
            (consecutive pins))
    (nets_of spec)

let segs_at segs net x =
  List.filter
    (fun s -> String.equal s.s_net net && s.s_lo <= x && x <= s.s_hi)
    segs

(* VCG on segments: at a column with a top pin of [a] and a bottom pin of
   [b], every a-segment incident there must lie above every b-segment. *)
let seg_vcg spec segs =
  let edges = ref [] in
  List.iter
    (fun (x, tnet) ->
      List.iter
        (fun (x', bnet) ->
          if x = x' && not (String.equal tnet bnet) then
            List.iter
              (fun sa ->
                List.iter
                  (fun sb -> edges := (seg_name sa, seg_name sb) :: !edges)
                  (segs_at segs bnet x))
              (segs_at segs tnet x))
        spec.bottom)
    spec.top;
  List.sort_uniq compare !edges

let assign_dogleg spec =
  validate spec;
  let segs = segments spec in
  let names = List.map seg_name segs in
  let edges = seg_vcg spec segs in
  if has_cycle names edges then
    unroutable "route.unroutable-cyclic"
      "cyclic vertical constraints even with doglegs";
  let interval name =
    let s = List.find (fun s -> String.equal (seg_name s) name) segs in
    (s.s_lo, s.s_hi)
  in
  let placed = Hashtbl.create 16 in
  let ancestors_placed n =
    List.for_all
      (fun (a, b) -> (not (String.equal b n)) || Hashtbl.mem placed a)
      edges
  in
  let overlaps (lo, hi) (lo', hi') = not (hi < lo' || hi' < lo) in
  let track = ref 0 in
  let out = ref [] in
  let remaining = ref names in
  while !remaining <> [] do
    let candidates =
      List.filter ancestors_placed !remaining
      |> List.sort (fun a b -> compare (fst (interval a)) (fst (interval b)))
    in
    if candidates = [] then
      unroutable "route.unroutable-blocked"
        "vertical constraints block every remaining segment";
    let on_track = ref [] in
    List.iter
      (fun n ->
        if
          List.for_all
            (fun m -> not (overlaps (interval n) (interval m)))
            !on_track
        then on_track := n :: !on_track)
      candidates;
    List.iter
      (fun n ->
        Hashtbl.replace placed n !track;
        out := (n, !track) :: !out)
      !on_track;
    remaining := List.filter (fun n -> not (Hashtbl.mem placed n)) !remaining;
    incr track
  done;
  (segs, List.rev !out, !track)

(* Geometry with doglegs: one trunk per segment; at each pin column the
   branch spans from the pin's edge to the farthest incident segment track
   and puts a via on every incident trunk. *)
let route_dogleg env obj ~spec ~y_top ~y_bottom ~x0 =
  ignore x0;
  let rules = Env.rules env in
  let segs, tracks, track_count = assign_dogleg spec in
  let m1w = Rules.width rules "metal1" in
  let m2w = Rules.width rules "metal2" in
  let pitch =
    (* Track pitch leaves room for a via pad plus spacing on both metal
       levels: adjacent tracks can carry vias in the same column. *)
    Int.max
      (Wire.pad_size rules ~layer:"metal1" ~cut:"via"
      + Rules.space_exn rules "metal1" "metal1")
      (Wire.pad_size rules ~layer:"metal2" ~cut:"via"
      + Rules.space_exn rules "metal2" "metal2")
  in
  let needed = (track_count * pitch) + (2 * pitch) in
  if y_top - y_bottom < needed then
    unroutable "route.channel-too-short"
      ~hint:"widen the channel or reduce the number of competing nets"
      "channel too short: %d nm for %d tracks (need %d)" (y_top - y_bottom)
      track_count needed;
  let track_y t = y_top - ((t + 1) * pitch) in
  List.iter
    (fun s ->
      let t = List.assoc (seg_name s) tracks in
      let y = track_y t in
      ignore
        (Lobj.add_shape obj ~layer:"metal1"
           ~rect:
             (Rect.make ~x0:(s.s_lo - m1w) ~y0:y ~x1:(s.s_hi + m1w)
                ~y1:(y + m1w))
           ~net:s.s_net ()))
    segs;
  let branch ~x ~from_y ~net =
    let incident = segs_at segs net x in
    let ys =
      List.map
        (fun s -> track_y (List.assoc (seg_name s) tracks) + (m1w / 2))
        incident
    in
    let lo = List.fold_left Int.min from_y ys and hi = List.fold_left Int.max from_y ys in
    ignore
      (Lobj.add_shape obj ~layer:"metal2"
         ~rect:(Rect.make ~x0:(x - (m2w / 2)) ~y0:lo ~x1:(x + (m2w / 2)) ~y1:hi)
         ~net ());
    List.iter (fun y -> ignore (Wire.via env obj ~at:(x, y) ~net ())) ys
  in
  List.iter (fun (x, net) -> branch ~x ~from_y:y_top ~net) spec.top;
  List.iter (fun (x, net) -> branch ~x ~from_y:y_bottom ~net) spec.bottom;
  { tracks; track_count; density = density spec; height = needed }
