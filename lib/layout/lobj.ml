module Rect = Amg_geometry.Rect
module Region = Amg_geometry.Region
module Transform = Amg_geometry.Transform
module Sindex = Amg_geometry.Sindex

type array_spec = Cut_arrays.array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

type cell = Cut_arrays.cell =
  | Free
  | One of Shape.t
  | Block of Cut_arrays.block
  | Cuts of { base : int; recs : Shape.t option array; block : Cut_arrays.block option }

(* One layer of the store: its name, its spatial index, how many of its
   shapes are live and how many keep-clear, and its cached hull.  The
   keep-clear count lets the compactor skip a layer pair that has no
   spacing rule outright — without a keep-clear shape on either side such
   a pair is provably unconstrained.

   The index is built lazily: entering a shape only moves [mark] back to
   its slot if the layer had nothing pending, so every shape of the layer
   at a slot below [mark] is in [ix] and none at or past it is.  The
   first read or mutation that needs the index ([flush]) enters the
   pending shapes in slot order — the order eager insertion would have
   entered them, since every other index mutation flushes first — so the
   bins end up exactly as eager insertion builds them.  A pending block
   of the layer is expanded there, in its slot.  A search never queries
   most contact cuts, nor the last object it places, so most entries are
   never built. *)
type layer = {
  lname : string;
  mutable ix : Sindex.t;
  mutable count : int;
  mutable keep_clear : int;
  mutable hull : Rect.t option option; (* None = dirty *)
  mutable mark : int; (* first unindexed slot; [max_int]: none pending *)
}

(* Indexed shape store.  Cells live in [slots] in insertion order: a
   shape, a cut array's pending block, cut records (a block's, expanded,
   or no longer a block's), or [Free]; [id2slot] maps the id of every
   shape that has a record to its cell (-1 when absent: removed, or a
   pending cut) for O(1) find/replace/remove, and [layer_order] keeps one
   spatial index per layer for the candidate queries of the compactor,
   the DRC and the extractor.  An object has a handful of layers, so a
   layer is found by a scan of [layer_order], comparing names physically
   first (a shape's layer name is usually the very string its layer was
   made from): [copy], which a search runs once per candidate, builds no
   table, and a query hashes no string.  Ids are handed out monotonically
   from 0 (and [absorb] bumps absorbed ids past every existing one), so
   they are dense enough to index an array, and ascending id order IS
   insertion order — layer queries sort by id to restore it.

   Bounding boxes are cached: [bb] is the whole-object hull, each layer's
   [hull] its own.  A cache entry is either valid or dirty; growth (add,
   pure-growth replace, absorb) extends valid entries in place, removal
   and shrinking invalidate, translation shifts.

   [reg] is the cut-array registry ([Cut_arrays]): the registered arrays
   and the slots of the cells holding cuts. *)
type t = {
  mutable name : string;
  mutable slots : cell array;
  mutable n_slots : int; (* used prefix of [slots] *)
  mutable used : int;    (* cells that are not [Free] *)
  mutable live : int;    (* shapes, pending cuts included *)
  mutable id2slot : int array;
  mutable layer_order : layer list; (* first-use order, never reordered *)
  mutable bb : Rect.t option option; (* None = dirty *)
  mutable ports : Port.t list;
  mutable reg : Cut_arrays.t;
  mutable next_id : int;
}

let create name =
  {
    name;
    slots = Array.make 8 Free;
    n_slots = 0;
    used = 0;
    live = 0;
    id2slot = [||];
    layer_order = [];
    bb = Some None;
    ports = [];
    reg = Cut_arrays.empty;
    next_id = 0;
  }

let name t = t.name
let set_name t n = t.name <- n

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let id_bound t = t.next_id

(* --- the id table --- *)

let slot_of t id = if id >= 0 && id < Array.length t.id2slot then t.id2slot.(id) else -1

let set_slot t id slot =
  let n = Array.length t.id2slot in
  if id >= n then begin
    let a = Array.make (Int.max 16 (Int.max (2 * n) (id + 1))) (-1) in
    Array.blit t.id2slot 0 a 0 n;
    t.id2slot <- a
  end;
  t.id2slot.(id) <- slot

(* --- blocks --- *)

(* The pending block at slot [i] becomes its cut records, in its own
   cell, and their ids enter the id table. *)
let expand t i (b : Cut_arrays.block) =
  let recs = Cut_arrays.expand b in
  Amg_obs.Obs.count "lobj.cut_records" (Array.length recs);
  t.slots.(i) <- Cuts { base = b.base; recs; block = Some b };
  for j = Array.length recs - 1 downto 0 do
    set_slot t (b.base + j) i
  done;
  recs

let expand_all t =
  List.iter (fun i -> match t.slots.(i) with Block b -> ignore (expand t i b) | _ -> ()) t.reg.blocks

(* The slot of shape [id], or -1; a pending cut's block is expanded
   first.  Only a miss in the id table looks at the blocks. *)
let locate t id =
  let slot = slot_of t id in
  if slot >= 0 || id < 0 || id >= t.next_id then slot
  else
    let rec pending = function
      | [] -> -1
      | i :: rest -> (
          match t.slots.(i) with
          | Block b when id >= b.base && id < b.base + Cut_arrays.size b ->
              ignore (expand t i b);
              i
          | _ -> pending rest)
    in
    pending t.reg.blocks

(* The record of shape [id] in the cell at [slot]. *)
let record t slot id =
  match t.slots.(slot) with
  | One s -> Some s
  | Cuts { base; recs; _ } -> recs.(id - base)
  | Block _ | Free -> None

(* --- the lazy index --- *)

let named l name = l.lname == name || String.equal l.lname name
let on_layer l (s : Shape.t) = named l s.layer

let insert_records l recs =
  for j = 0 to Array.length recs - 1 do
    match recs.(j) with
    | Some (s : Shape.t) when on_layer l s -> Sindex.insert l.ix s.id s.rect
    | _ -> ()
  done

(* Bring layer [l]'s index up to date: enter its pending shapes in slot
   order, expanding its pending blocks where they stand. *)
let flush t l =
  if l.mark <> max_int then begin
    for i = l.mark to t.n_slots - 1 do
      match t.slots.(i) with
      | One s -> if on_layer l s then Sindex.insert l.ix s.id s.rect
      | Block b -> if named l b.layer then insert_records l (expand t i b)
      | Cuts { recs; _ } -> insert_records l recs
      | Free -> ()
    done;
    l.mark <- max_int
  end

let flush_all t = List.iter (flush t) t.layer_order

(* --- cache maintenance --- *)

let dirty_layer t l =
  l.hull <- None;
  t.bb <- None

(* A valid hull cache grown by [rect]; a dirty one stays dirty. *)
let extended cache rect =
  match cache with
  | Some (Some b) -> Some (Some (Rect.hull b rect))
  | Some None -> Some (Some rect)
  | None -> None

let extend_caches t l rect =
  l.hull <- extended l.hull rect;
  t.bb <- extended t.bb rect

let rec find_layer name = function
  | [] -> None
  | l :: rest -> if named l name then Some l else find_layer name rest

let new_layer name =
  { lname = name; ix = Sindex.create (); count = 0; keep_clear = 0; hull = None; mark = max_int }

let layer_of t name =
  match find_layer name t.layer_order with
  | Some l -> l
  | None ->
      let l = new_layer name in
      t.layer_order <- t.layer_order @ [ l ];
      l

(* A shape joins / leaves layer [l]'s counts; the index is separate. *)
let count_in l (s : Shape.t) =
  l.count <- l.count + 1;
  if s.keep_clear then l.keep_clear <- l.keep_clear + 1

let count_out l (s : Shape.t) =
  l.count <- l.count - 1;
  if s.keep_clear then l.keep_clear <- l.keep_clear - 1

(* Move shape [old] over to [s], which has its id and already sits in its
   slot; both layers are up to date. *)
let reindex t (old : Shape.t) (s : Shape.t) =
  if not (String.equal old.layer s.layer) then begin
    let lo = layer_of t old.layer and ls = layer_of t s.layer in
    Sindex.remove lo.ix old.id old.rect;
    count_out lo old;
    Sindex.insert ls.ix s.id s.rect;
    count_in ls s
  end
  else begin
    let l = layer_of t s.layer in
    if not (Rect.equal old.rect s.rect) then begin
      Sindex.remove l.ix s.id old.rect;
      Sindex.insert l.ix s.id s.rect
    end;
    l.keep_clear <-
      l.keep_clear + Bool.to_int s.keep_clear - Bool.to_int old.keep_clear
  end

(* --- store primitives --- *)

(* Room for [k] more cells. *)
let reserve t k =
  let n = Array.length t.slots in
  if t.n_slots + k > n then begin
    let n' = ref (Int.max 8 (2 * n)) in
    while !n' < t.n_slots + k do
      n' := 2 * !n'
    done;
    let ns = Array.make !n' Free in
    Array.blit t.slots 0 ns 0 t.n_slots;
    t.slots <- ns
  end

(* Put [cell] in the next slot; returns the slot. *)
let push t cell =
  let slot = t.n_slots in
  t.slots.(slot) <- cell;
  t.n_slots <- slot + 1;
  t.used <- t.used + 1;
  slot

let free t slot =
  t.slots.(slot) <- Free;
  t.used <- t.used - 1

(* Shape [s], in the cell at [slot], joins the id table and layer [l]'s
   counts, pending for its index. *)
let join t l slot (s : Shape.t) =
  set_slot t s.id slot;
  t.live <- t.live + 1;
  count_in l s;
  if l.mark = max_int then l.mark <- slot

(* The pending block at [slot] joins layer [l]'s counts. *)
let join_block t l slot (b : Cut_arrays.block) =
  let k = Cut_arrays.size b in
  t.live <- t.live + k;
  l.count <- l.count + k;
  if l.mark = max_int then l.mark <- slot

(* The cell of a lone shape: an array member sits in a cell of cut
   records, where [rederive] finds it. *)
let lone t slot (s : Shape.t) =
  match s.origin with
  | Shape.User -> One s
  | Shape.Array_member _ ->
      t.reg <- { t.reg with blocks = slot :: t.reg.blocks };
      Cuts { base = s.id; recs = [| Some s |]; block = None }

let enter t (s : Shape.t) =
  reserve t 1;
  let l = layer_of t s.layer in
  join t l (push t (lone t t.n_slots s)) s;
  extend_caches t l s.rect

(* Bounds accumulated in ints; empty while [x0 = max_int]. *)
type bounds = { mutable x0 : int; mutable y0 : int; mutable x1 : int; mutable y1 : int }

let no_bounds () = { x0 = max_int; y0 = max_int; x1 = min_int; y1 = min_int }

let grow b (r : Rect.t) ~dx ~dy =
  b.x0 <- Int.min b.x0 (r.x0 + dx);
  b.y0 <- Int.min b.y0 (r.y0 + dy);
  b.x1 <- Int.max b.x1 (r.x1 + dx);
  b.y1 <- Int.max b.y1 (r.y1 + dy)

let rect_of b = Rect.make ~x0:b.x0 ~y0:b.y0 ~x1:b.x1 ~y1:b.y1

(* Cells entered at the end as one mutation ([absorb], [rederive]): one
   layer lookup per run of same-layer shapes, and each run's layer hull
   and the object hull are extended once. *)
type batch = {
  mutable run : layer; (* [no_layer] before the first shape *)
  cur : bounds; (* the current run's hull *)
  before : bounds; (* the hull of the runs before it *)
}

let no_layer = new_layer ""
let batch () = { run = no_layer; cur = no_bounds (); before = no_bounds () }

let close_run b =
  if b.run != no_layer then begin
    let r = rect_of b.cur in
    b.run.hull <- extended b.run.hull r;
    grow b.before r ~dx:0 ~dy:0
  end

(* The layer [name] of a shape or block entered in batch [b]; its hull
   [r], displaced by [(dx, dy)], joins the run's. *)
let run_layer t b name r ~dx ~dy =
  if not (b.run != no_layer && named b.run name) then begin
    close_run b;
    b.run <- layer_of t name;
    b.cur.x0 <- max_int;
    b.cur.y0 <- max_int;
    b.cur.x1 <- min_int;
    b.cur.y1 <- min_int
  end;
  grow b.cur r ~dx ~dy;
  b.run

let run_shape t b (s : Shape.t) = run_layer t b s.layer s.rect ~dx:0 ~dy:0

let run_block t b (blk : Cut_arrays.block) =
  run_layer t b blk.layer blk.memo.hull ~dx:blk.dx ~dy:blk.dy

let close_batch t b =
  close_run b;
  if b.run != no_layer then t.bb <- extended t.bb (rect_of b.before)

(* Each layer [l] in [ls] whose mark is slot [r] moves it to [w]. *)
let rec remark r w = function
  | [] -> ()
  | l :: ls ->
      if l.mark = r then l.mark <- w;
      remark r w ls

(* Squeeze out free cells once more than half the prefix is free, so
   iteration stays proportional to the cells in use.  Cells keep their
   order, and each pending layer's mark moves with the cell it points
   at, so nothing is entered into an index. *)
let maybe_squeeze t =
  if t.n_slots > 16 && 2 * t.used < t.n_slots then begin
    let pending = List.filter (fun l -> l.mark <> max_int) t.layer_order in
    let w = ref 0 and blocks = ref [] in
    for r = 0 to t.n_slots - 1 do
      remark r !w pending;
      match t.slots.(r) with
      | Free -> ()
      | c ->
          t.slots.(!w) <- c;
          (match c with Block _ | Cuts _ -> blocks := !w :: !blocks | One _ | Free -> ());
          Cut_arrays.iter_records (fun s -> t.id2slot.(s.id) <- !w) c;
          incr w
    done;
    Array.fill t.slots !w (t.n_slots - !w) Free;
    t.n_slots <- !w;
    List.iter (fun l -> if l.mark >= !w then l.mark <- max_int) pending;
    t.reg <- { t.reg with blocks = !blocks }
  end

let add_shape t ~layer ~rect ?net ?sides ?keep_clear ?origin () =
  let s = Shape.make ~id:(fresh_id t) ~layer ~rect ?net ?sides ?keep_clear ?origin () in
  enter t s;
  s

let shapes t =
  expand_all t;
  let out = ref [] in
  for i = t.n_slots - 1 downto 0 do
    match t.slots.(i) with
    | One s -> out := s :: !out
    | Cuts { recs; _ } ->
        for j = Array.length recs - 1 downto 0 do
          match recs.(j) with Some s -> out := s :: !out | None -> ()
        done
    | Block _ | Free -> ()
  done;
  !out

(* Every cut of a block is a member, so no block is expanded. *)
let user_shapes t =
  let out = ref [] in
  for i = t.n_slots - 1 downto 0 do
    match t.slots.(i) with
    | One s -> out := s :: !out
    | Cuts { recs; block = None; _ } ->
        for j = Array.length recs - 1 downto 0 do
          match recs.(j) with Some ({ origin = User; _ } as s) -> out := s :: !out | _ -> ()
        done
    | Cuts _ | Block _ | Free -> ()
  done;
  !out

let shape_count t = t.live

let find t id =
  let slot = locate t id in
  if slot < 0 then None else record t slot id

let missing t id = Fmt.invalid_arg "Lobj.find_exn: no shape %d in %s" id t.name

(* No allocation on a hit — this runs once per candidate of every
   query. *)
let find_exn t id =
  let slot = locate t id in
  if slot < 0 then missing t id
  else
    match t.slots.(slot) with
    | One s -> s
    | Cuts { base; recs; _ } -> ( match recs.(id - base) with Some s -> s | None -> missing t id)
    | Block _ | Free -> missing t id

(* The cell at [slot] with record [id] set to [r]: a block's records are
   no longer its cuts, so the cell drops the block. *)
let set_record t slot id r =
  match (t.slots.(slot), r) with
  | One _, Some s -> t.slots.(slot) <- lone t slot s
  | One _, None -> free t slot
  | Cuts { base; recs; _ }, _ ->
      let recs = Array.copy recs in
      recs.(id - base) <- r;
      if Array.exists Option.is_some recs then t.slots.(slot) <- Cuts { base; recs; block = None }
      else begin
        free t slot;
        t.reg <- { t.reg with blocks = List.filter (fun i -> i <> slot) t.reg.blocks }
      end
  | (Block _ | Free), _ -> ()

let replace t (s : Shape.t) =
  let slot = locate t s.Shape.id in
  let old =
    match if slot < 0 then None else record t slot s.id with
    | Some old -> old
    | None -> Fmt.invalid_arg "Lobj.replace: no shape %d in %s" s.Shape.id t.name
  in
  flush t (layer_of t old.layer);
  flush t (layer_of t s.layer);
  set_record t slot s.id (Some s);
  reindex t old s;
  if not (String.equal old.Shape.layer s.layer) then begin
    dirty_layer t (layer_of t old.layer);
    dirty_layer t (layer_of t s.layer)
  end
  else if not (Rect.equal old.Shape.rect s.rect) then begin
    let l = layer_of t s.layer in
    if Rect.contains_rect s.rect old.Shape.rect then
      (* Pure growth keeps every cached hull valid — just extend. *)
      extend_caches t l s.rect
    else dirty_layer t l
  end

let remove t id =
  let slot = locate t id in
  if slot >= 0 then
    match record t slot id with
    | None -> ()
    | Some s ->
        let l = layer_of t s.layer in
        flush t l;
        Sindex.remove l.ix s.id s.rect;
        count_out l s;
        dirty_layer t l;
        set_record t slot id None;
        t.id2slot.(id) <- -1;
        t.live <- t.live - 1;
        maybe_squeeze t

let shapes_on t layer =
  match find_layer layer t.layer_order with
  | None -> []
  | Some l ->
      flush t l;
      let ids = ref [] in
      Sindex.iter l.ix (fun id _ -> ids := id :: !ids);
      List.sort Int.compare !ids |> List.map (find_exn t)

let near t ~layer rect ~margin =
  match find_layer layer t.layer_order with
  | None -> []
  | Some l ->
      flush t l;
      (* Query ids arrive ascending, which is insertion order. *)
      List.map (find_exn t) (Sindex.query l.ix rect ~margin)

let iter_near_layer t l rect ~margin f =
  flush t l;
  Sindex.iter_query l.ix rect ~margin (fun id -> f (find_exn t id))

let iter_near t ~layer rect ~margin f =
  match find_layer layer t.layer_order with
  | None -> ()
  | Some l -> iter_near_layer t l rect ~margin f

let indexed t layer =
  match find_layer layer t.layer_order with
  | None -> 0
  | Some l -> Sindex.cardinal l.ix

let keep_clear_on t layer =
  match find_layer layer t.layer_order with
  | None -> 0
  | Some l -> l.keep_clear

let shapes_on_net t net =
  List.filter
    (fun (s : Shape.t) -> Option.equal String.equal s.net (Some net))
    (shapes t)

let rects t = List.map (fun (s : Shape.t) -> s.rect) (shapes t)

let rects_on t layer = List.map (fun (s : Shape.t) -> s.rect) (shapes_on t layer)

(* A dirty layer hull is recomputed from the index and the pending
   shapes, which stay pending (a pending block adds its cuts' hull,
   unexpanded): a rederive dirties its cut layers' hulls, and entering
   every new cut to recompute them would index cuts that no query may
   ever ask for. *)
let layer_hull t l =
  match l.hull with
  | Some b -> b
  | None ->
      let p = no_bounds () in
      if l.mark <> max_int then
        for i = l.mark to t.n_slots - 1 do
          match t.slots.(i) with
          | Block b | Cuts { block = Some b; _ } ->
              if named l b.layer then grow p b.memo.hull ~dx:b.dx ~dy:b.dy
          | c ->
              Cut_arrays.iter_records
                (fun s -> if on_layer l s then grow p s.rect ~dx:0 ~dy:0)
                c
        done;
      let b =
        match Sindex.bbox l.ix with
        | b when p.x0 = max_int -> b
        | None -> Some (Rect.make ~x0:p.x0 ~y0:p.y0 ~x1:p.x1 ~y1:p.y1)
        | Some h ->
            Some
              (Rect.make ~x0:(Int.min p.x0 h.Rect.x0) ~y0:(Int.min p.y0 h.Rect.y0)
                 ~x1:(Int.max p.x1 h.Rect.x1) ~y1:(Int.max p.y1 h.Rect.y1))
      in
      l.hull <- Some b;
      b

let bbox_on t layer =
  match find_layer layer t.layer_order with
  | None -> None
  | Some l -> layer_hull t l

let bbox t =
  match t.bb with
  | Some b -> b
  | None ->
      let b =
        List.fold_left
          (fun acc l ->
            match (layer_hull t l, acc) with
            | None, acc -> acc
            | Some r, None -> Some r
            | Some r, Some h -> Some (Rect.hull h r))
          None t.layer_order
      in
      t.bb <- Some b;
      b

let bbox_exn t =
  match bbox t with
  | Some r -> r
  | None -> Fmt.invalid_arg "Lobj.bbox_exn: %s is empty" t.name

let bbox_area t = match bbox t with None -> 0 | Some r -> Rect.area r

(* Every index up to date (every block expanded on the way) and every
   hull cache valid: afterwards every read only reads, until a
   mutation. *)
let fill_caches t =
  flush_all t;
  List.iter (fun l -> ignore (layer_hull t l)) t.layer_order;
  ignore (bbox t)

(* Every layer's index emptied and all its shapes pending again; the hull
   caches stay.  A later flush enters them in slot order, into a fresh
   index at offset 0 (the slots hold world coordinates), as [transform]'s
   rebuild does. *)
let release_indexes t =
  List.iter
    (fun l ->
      l.ix <- Sindex.create ();
      l.mark <- (if l.count > 0 then 0 else max_int))
    t.layer_order

let union_area t = Region.area (rects t)

let layers t =
  List.filter_map (fun l -> if l.count > 0 then Some l.lname else None) t.layer_order

let fold_layers t f acc =
  List.fold_left
    (fun acc l ->
      if l.count > 0 then f acc l.lname l (Option.get (layer_hull t l)) l.keep_clear
      else acc)
    acc t.layer_order

(* Each layer of [layers] with its shapes in slot order, in one pass over
   the store: a shape's layer is found by a physical comparison with the
   last one's, or a scan of the few layers. *)
let shapes_by_layer t =
  expand_all t;
  let ls = Array.of_list (List.filter (fun l -> l.count > 0) t.layer_order) in
  let out = Array.map (fun _ -> [||]) ls in
  let fill = Array.make (Array.length ls) 0 in
  let last = ref 0 in
  let add s =
    if not (on_layer ls.(!last) s) then begin
      let j = ref 0 in
      while not (on_layer ls.(!j) s) do
        incr j
      done;
      last := !j
    end;
    let j = !last in
    if fill.(j) = 0 then out.(j) <- Array.make ls.(j).count s;
    out.(j).(fill.(j)) <- s;
    fill.(j) <- fill.(j) + 1
  in
  for i = 0 to t.n_slots - 1 do
    Cut_arrays.iter_records add t.slots.(i)
  done;
  Array.mapi (fun j l -> (l.lname, out.(j))) ls

let nets t =
  List.fold_left
    (fun acc (s : Shape.t) ->
      match s.net with
      | Some n when not (List.mem n acc) -> n :: acc
      | _ -> acc)
    [] (shapes t)
  |> List.rev

let map_records f recs = Array.map (Option.map f) recs

(* Every cell mapped in place: a shape by [shape], a block by [block]
   (an expanded block's records by both, so that they stay its cuts). *)
let map_cells t ~block ~shape =
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Free -> ()
    | One s -> t.slots.(i) <- One (shape s)
    | Block b -> t.slots.(i) <- Block (block b)
    | Cuts c ->
        t.slots.(i) <- Cuts { c with recs = map_records shape c.recs; block = Option.map block c.block }
  done

(* A pending shape moves with its slot, a pending block with its
   displacement: its layer's flush enters it where it then stands, at
   the index's shifted offset, into the bins eager insertion would have
   used. *)
let translate t ~dx ~dy =
  map_cells t ~block:(Cut_arrays.shift ~dx ~dy) ~shape:(fun s -> Shape.translate s ~dx ~dy);
  t.ports <- List.map (fun p -> Port.translate p ~dx ~dy) t.ports;
  let shift = Option.map (Option.map (fun r -> Rect.translate r ~dx ~dy)) in
  List.iter
    (fun l ->
      Sindex.translate_all l.ix ~dx ~dy;
      l.hull <- shift l.hull)
    t.layer_order;
  t.bb <- shift t.bb

(* Arbitrary orientations invalidate the binning wholesale: rebuild every
   index, eagerly.  Every block is expanded, and its transformed records
   drop it: they are no longer its cuts displaced.  Each layer is emptied
   in place and refilled, so the first-use order stands (minus layers
   the rebuild left out, which held no shape). *)
let transform t tr =
  expand_all t;
  let shape s = Shape.transform s tr in
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | One s -> t.slots.(i) <- One (shape s)
    | Cuts c -> t.slots.(i) <- Cuts { c with recs = map_records shape c.recs; block = None }
    | Block _ | Free -> ()
  done;
  t.ports <- List.map (fun p -> Port.transform p tr) t.ports;
  List.iter
    (fun l ->
      l.ix <- Sindex.create ();
      l.count <- 0;
      l.keep_clear <- 0;
      l.hull <- None;
      l.mark <- max_int)
    t.layer_order;
  t.bb <- None;
  let enter_index (s : Shape.t) =
    let l = layer_of t s.layer in
    Sindex.insert l.ix s.id s.rect;
    count_in l s
  in
  for i = 0 to t.n_slots - 1 do
    Cut_arrays.iter_records enter_index t.slots.(i)
  done;
  t.layer_order <- List.filter (fun l -> l.count > 0) t.layer_order

(* Structural copy — the paper's "trans2 = trans1" (§2.5).  Cells, shape,
   port and array values are immutable and may be shared (a block is
   copied as it is, pending or expanded), but every mutable piece of the
   store (cell array, id table, spatial indexes, caches) is duplicated,
   so no mutation of either object can ever reach the other. *)
let copy ?name t =
  let layer_order = List.map (fun l -> { l with ix = Sindex.copy l.ix }) t.layer_order in
  {
    name = Option.value ~default:t.name name;
    slots = Array.copy t.slots;
    n_slots = t.n_slots;
    used = t.used;
    live = t.live;
    id2slot = Array.copy t.id2slot;
    layer_order;
    bb = t.bb;
    ports = t.ports;
    reg = t.reg;
    next_id = t.next_id;
  }

let add_port t ~name ~net ~layer ~rect =
  let p = Port.make ~name ~net ~layer ~rect in
  t.ports <- t.ports @ [ p ];
  p

let ports t = t.ports

let port t name = List.find_opt (fun (p : Port.t) -> String.equal p.name name) t.ports

let port_exn t pname =
  match port t pname with
  | Some p -> p
  | None -> Fmt.invalid_arg "Lobj.port_exn: no port %s in %s" pname t.name

let remove_port t pname =
  t.ports <- List.filter (fun (p : Port.t) -> not (String.equal p.name pname)) t.ports

(* Every net [f] maps: shapes, blocks, ports and arrays. *)
let map_nets t f =
  map_cells t
    ~block:(fun (b : Cut_arrays.block) ->
      let net = f b.net in
      if net == b.net then b else { b with net })
    ~shape:(fun (s : Shape.t) ->
      let net = f s.net in
      if net == s.net then s else Shape.with_net s net);
  t.reg <- Cut_arrays.map_nets t.reg f

let rename_net t ~from_ ~to_ =
  map_nets t (fun n -> if Option.equal String.equal n (Some from_) then Some to_ else n);
  t.ports <-
    List.map
      (fun (p : Port.t) ->
        if String.equal p.net from_ then { p with net = to_ } else p)
      t.ports

(* Prefix every net of the object, giving instance-local net names. *)
let qualify_nets t prefix =
  let q n = prefix ^ "." ^ n in
  map_nets t (Option.map q);
  t.ports <- List.map (fun (p : Port.t) -> { p with net = q p.net }) t.ports

(* --- Derived cut arrays (§2.2 / §2.3) --- *)

let register_array t ~cut_layer ~container_ids ?net () =
  let aid = fresh_id t in
  t.reg <- Cut_arrays.register t.reg ~aid { cut_layer; container_ids; array_net = net };
  aid

let array_specs t = Cut_arrays.specs t.reg

let arrays_of_container t id = Cut_arrays.of_container t.reg id (fun e -> e.aid)

let array_member_count t aid =
  let n = ref 0 in
  let count (s : Shape.t) =
    match s.origin with Shape.Array_member a when a = aid -> incr n | _ -> ()
  in
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Block ({ origin = Shape.Array_member a; _ } as b) when a = aid -> n := !n + Cut_arrays.size b
    | c -> Cut_arrays.iter_records count c
  done;
  !n

(* Is this shape a container of some registered array?  If so the compactor
   must not shrink it below the one-cut minimum. *)
let array_cut_layers_of_container t id =
  Cut_arrays.of_container t.reg id (fun e -> e.spec.cut_layer)

let starved_array t ~container =
  Cut_arrays.starved t.reg ~container ~members:(array_member_count t)

(* A layer a member removal took members from: the name it was found
   under, its store and the index entries of its members. *)
type touched = { tname : string; tl : layer; mutable entries : (int * Rect.t) list }

(* Take every member of a registered array out of the store, from the
   cells the registry lists (no pass over the store): a pending block
   leaves whole, an expanded one record by record, and a cell of records
   that are no longer a block's keeps those that are not members.  Cells,
   id table, live and keep-clear counts go at once, the touched layers'
   hulls are marked dirty, then each touched layer's indexed members
   leave its index in one [Sindex.remove_batch]; a pending member has no
   entry to drop.  Survivors keep their slot and bin order, so the store
   ends up as removing the members one by one leaves it.  Trailing free
   cells are cut off. *)
let remove_members t =
  let reg = t.reg in
  (* The touched layers, the last one first: a block's members sit on
     one layer, so a member almost always finds its layer at the head. *)
  let touched = ref [] in
  let touch name =
    match !touched with
    | tt :: _ when String.equal tt.tname name -> tt
    | tts -> (
        match List.find_opt (fun tt -> String.equal tt.tname name) tts with
        | Some tt -> tt
        | None ->
            let tl = layer_of t name in
            dirty_layer t tl;
            let tt = { tname = name; tl; entries = [] } in
            touched := tt :: tts;
            tt)
  in
  let kept = ref [] in
  List.iter
    (fun i ->
      match t.slots.(i) with
      | Block b ->
          let tt = touch b.layer and k = Cut_arrays.size b in
          tt.tl.count <- tt.tl.count - k;
          t.live <- t.live - k;
          free t i
      | Cuts { base; recs; block } ->
          (* an expanded block's records are all members *)
          let member s = Option.is_some block || Cut_arrays.is_member reg s in
          let recs =
            Array.map
              (function
                | Some (s : Shape.t) when member s ->
                    t.id2slot.(s.id) <- -1;
                    t.live <- t.live - 1;
                    let tt = touch s.layer in
                    count_out tt.tl s;
                    if i < tt.tl.mark then tt.entries <- (s.id, s.rect) :: tt.entries;
                    None
                | r -> r)
              recs
          in
          if Array.exists Option.is_some recs then begin
            t.slots.(i) <- Cuts { base; recs; block = None };
            kept := i :: !kept
          end
          else free t i
      | One _ | Free -> ())
    reg.blocks;
  t.reg <- { reg with blocks = !kept };
  (* Every id the index of a touched layer holds is live, except the
     members just taken out; a layer left with no shape holds none. *)
  let gone id = slot_of t id < 0 in
  List.iter
    (fun { tl; entries; _ } ->
      if tl.count = 0 then Sindex.clear tl.ix else Sindex.remove_batch tl.ix entries ~gone)
    !touched;
  let n = t.n_slots in
  while t.n_slots > 0 && (match t.slots.(t.n_slots - 1) with Free -> true | _ -> false) do
    t.n_slots <- t.n_slots - 1
  done;
  if t.n_slots < n then
    List.iter (fun l -> if l.mark <> max_int && l.mark >= t.n_slots then l.mark <- max_int) t.layer_order;
  maybe_squeeze t

(* Every member leaves; each array's memo is brought up to date, deriving
   only the arrays whose rules or containers changed; then each array
   with a cut enters as one pending block, array after array in
   registration order, its base id taken in that order: the ids, order
   and bin entries an [add_shape] per cut would give them.  A block costs
   one record; its cuts, hull and origin are shared. *)
let rederive t rules =
  Amg_robust.Inject.(probe Contact_rebuild);
  Amg_obs.Obs.count "lobj.contact_array_rebuilds" (List.length t.reg.entries);
  match t.reg.entries with
  | [] -> ()
  | entries ->
      remove_members t;
      let container id =
        let s = find_exn t id in
        (s.Shape.layer, s.Shape.rect)
      in
      let reg = Cut_arrays.derive t.reg rules ~container in
      reserve t (List.length entries);
      let b = batch () and base = ref t.next_id and blocks = ref reg.blocks in
      List.iter
        (fun (e : Cut_arrays.entry) ->
          match e.memo with
          | Some m when Array.length m.cuts > 0 ->
              let blk = Cut_arrays.block_of e m ~base:!base in
              let slot = push t (Block blk) in
              join_block t (run_block t b blk) slot blk;
              blocks := slot :: !blocks;
              base := !base + Array.length m.cuts
          | _ -> ())
        (Cut_arrays.in_order reg);
      close_batch t b;
      t.next_id <- !base;
      t.reg <- { reg with blocks = !blocks }

(* Merge [src] into [t], renumbering ids and displacing by (dx, dy);
   returns the id offset applied.  Each shape is written once, with its
   final id and position, each block (pending or expanded in [src])
   enters as one pending block, and everything enters as one batch.  The
   absorbed arrays keep their memos; the members of one array share its
   renumbered entry's origin (they sit together: the last array seen is
   remembered). *)
let absorb ?(dx = 0) ?(dy = 0) t src =
  let offset = t.next_id in
  let moved = dx <> 0 || dy <> 0 in
  let reg = Cut_arrays.absorb t.reg src.reg ~offset in
  let last = ref (-1) and renumbered = ref Shape.User in
  let origin_of = function
    | Shape.User -> Shape.User
    | Shape.Array_member a ->
        if a <> !last then begin
          last := a;
          renumbered := Cut_arrays.origin_of reg (a + offset)
        end;
        !renumbered
  in
  let bump (s : Shape.t) =
    let rect = if moved then Rect.translate s.rect ~dx ~dy else s.rect in
    { s with id = s.id + offset; rect; origin = origin_of s.origin }
  in
  reserve t src.used;
  let b = batch () and blocks = ref reg.blocks in
  for i = 0 to src.n_slots - 1 do
    match src.slots.(i) with
    | Free -> ()
    | One s ->
        let s = bump s in
        join t (run_shape t b s) (push t (One s)) s
    | Block blk | Cuts { block = Some blk; _ } ->
        let blk =
          { (Cut_arrays.shift blk ~dx ~dy) with base = blk.base + offset; origin = origin_of blk.origin }
        in
        let slot = push t (Block blk) in
        join_block t (run_block t b blk) slot blk;
        blocks := slot :: !blocks
    | Cuts { base; recs; block = None } ->
        let recs = map_records bump recs in
        Amg_obs.Obs.count "lobj.cut_records" (Array.length recs);
        let slot = push t (Cuts { base = base + offset; recs; block = None }) in
        Array.iter (Option.iter (fun s -> join t (run_shape t b s) slot s)) recs;
        blocks := slot :: !blocks
  done;
  close_batch t b;
  t.reg <- { reg with blocks = !blocks };
  t.ports <-
    t.ports
    @ (if moved then List.map (fun p -> Port.translate p ~dx ~dy) src.ports
       else src.ports);
  t.next_id <- t.next_id + src.next_id;
  offset

let pp ppf t =
  Fmt.pf ppf "@[<v>object %s (%d shapes, %d ports)@," t.name t.live
    (List.length t.ports);
  List.iter
    (fun (s : Shape.t) ->
      Fmt.pf ppf "  %3d %-8s %a %a@," s.id s.layer Rect.pp_um s.rect
        Fmt.(option string)
        s.net)
    (shapes t);
  List.iter
    (fun (p : Port.t) ->
      Fmt.pf ppf "  port %s net=%s %s %a@," p.name p.net p.layer Rect.pp_um p.rect)
    t.ports;
  Fmt.pf ppf "@]"

(* --- the store's invariant, for tests --- *)

let check t =
  let fail fmt = Fmt.kstr failwith ("Lobj.check %s: " ^^ fmt) t.name in
  Cut_arrays.check t.reg ~n_slots:t.n_slots ~cell:(fun i -> t.slots.(i)) ~next_id:t.next_id
    ~slot_of:(slot_of t);
  let used = ref 0 and live = ref 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Free -> ()
      | _ when i >= t.n_slots -> fail "slot %d past the end is not free" i
      | Block b ->
          incr used;
          live := !live + Cut_arrays.size b
      | c ->
          incr used;
          Cut_arrays.iter_records (fun _ -> incr live) c)
    t.slots;
  if !used <> t.used || !live <> t.live then fail "cells %d/%d, shapes %d/%d" t.used !used t.live !live;
  List.iter
    (fun l ->
      (* the layer's count, keep-clear count and indexed ids, recounted *)
      let count = ref 0 and keep_clear = ref 0 and ids = ref [] in
      for i = 0 to t.n_slots - 1 do
        match t.slots.(i) with
        | Block b when named l b.layer ->
            if i < l.mark then fail "layer %s: block at slot %d before its mark" l.lname i;
            count := !count + Cut_arrays.size b
        | c ->
            Cut_arrays.iter_records
              (fun s ->
                if on_layer l s then begin
                  incr count;
                  if s.keep_clear then incr keep_clear;
                  if i < l.mark then ids := s.id :: !ids
                end)
              c
      done;
      let indexed = ref [] in
      Sindex.iter l.ix (fun id _ -> indexed := id :: !indexed);
      if l.mark <> max_int && l.mark >= t.n_slots then fail "layer %s: mark past the end" l.lname;
      if !count <> l.count || !keep_clear <> l.keep_clear then fail "layer %s: counts" l.lname;
      if not (List.equal Int.equal (List.sort Int.compare !ids) (List.sort Int.compare !indexed))
      then fail "layer %s: the index does not hold exactly its shapes below the mark" l.lname)
    t.layer_order
