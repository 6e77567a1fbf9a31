module Rect = Amg_geometry.Rect
module Region = Amg_geometry.Region
module Transform = Amg_geometry.Transform
module Sindex = Amg_geometry.Sindex
module Rules = Amg_tech.Rules

type array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

(* An array's last derivation: the rules and the containers' (layer,
   rect)s it was derived from, and the cuts it gave.  [Derive.cut_array]
   is a function of exactly these and the array's cut layer, so while the
   rules are the same value and every container still has its layer and
   rect, the cuts are still [cuts]. *)
type memo = {
  rules : Rules.t;
  containers : (string * Rect.t) list;
  cuts : Rect.t array;
}

(* A registered array.  Entries are immutable: a rederive that derives an
   array afresh replaces its entry, so a copy shares the memos of the
   object it was taken from and copies none.  [origin] is the one
   [Array_member aid] value every member of the array carries. *)
type entry = {
  aid : int;
  origin : Shape.origin;
  spec : array_spec;
  memo : memo option; (* None: not derived by [rederive] yet *)
}

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
   bins end up exactly as eager insertion builds them.  A search never
   queries most contact cuts, nor the last object it places, so most
   entries are never built. *)
type layer = {
  lname : string;
  mutable ix : Sindex.t;
  mutable count : int;
  mutable keep_clear : int;
  mutable hull : Rect.t option option; (* None = dirty *)
  mutable mark : int; (* first unindexed slot; [max_int]: none pending *)
}

(* Indexed shape store.  Shapes live in [slots] in insertion order ([None]
   marks a removed shape); [id2slot] maps a shape id to its slot (-1 when
   absent) for O(1) find/replace/remove, and [layer_order] keeps one
   spatial index per layer for the candidate queries of the compactor, the
   DRC and the extractor.  An object has a handful of layers, so a layer is
   found by a scan of [layer_order], comparing names physically first (a
   shape's layer name is usually the very string its layer was made
   from): [copy], which a search runs once per candidate, builds no table,
   and a query hashes no string.  Ids are handed out monotonically from 0
   (and [absorb] bumps absorbed ids past every existing one), so they are
   dense enough to index an array, and ascending id order IS insertion
   order — layer queries sort by id to restore it.

   Bounding boxes are cached: [bb] is the whole-object hull, each layer's
   [hull] its own.  A cache entry is either valid or dirty; growth (add,
   pure-growth replace, absorb) extends valid entries in place, removal
   and shrinking invalidate, translation shifts.

   [cuts_from, cuts_to) are the slots the last rederive's cuts entered,
   while no slot has moved and no replace has changed an origin since:
   no member of a registered array lies before [cuts_from], every shape
   in the range is one, and past [cuts_to] lie only shapes entered since.
   The next rederive's removal then starts at [cuts_from]. *)
type t = {
  mutable name : string;
  mutable slots : Shape.t option array;
  mutable n_slots : int; (* used prefix of [slots] *)
  mutable live : int;    (* slots holding a shape *)
  mutable id2slot : int array;
  mutable layer_order : layer list; (* first-use order, never reordered *)
  mutable bb : Rect.t option option; (* None = dirty *)
  mutable ports : Port.t list;
  mutable arrays : entry list; (* registration order *)
  mutable next_id : int;
  mutable cuts_from : int; (* -1: unknown *)
  mutable cuts_to : int;
}

let create name =
  {
    name;
    slots = Array.make 8 None;
    n_slots = 0;
    live = 0;
    id2slot = [||];
    layer_order = [];
    bb = Some None;
    ports = [];
    arrays = [];
    next_id = 0;
    cuts_from = -1;
    cuts_to = 0;
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

(* --- the lazy index --- *)

let on_layer l (s : Shape.t) = s.layer == l.lname || String.equal s.layer l.lname

(* Bring layer [l]'s index up to date: enter its pending shapes in slot
   order. *)
let flush t l =
  if l.mark <> max_int then begin
    for i = l.mark to t.n_slots - 1 do
      match t.slots.(i) with
      | Some s when on_layer l s -> Sindex.insert l.ix s.id s.rect
      | _ -> ()
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
  | l :: rest ->
      if l.lname == name || String.equal l.lname name then Some l
      else find_layer name rest

let layer_of t name =
  match find_layer name t.layer_order with
  | Some l -> l
  | None ->
      let l =
        {
          lname = name;
          ix = Sindex.create ();
          count = 0;
          keep_clear = 0;
          hull = None;
          mark = max_int;
        }
      in
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

(* Room for [k] more slots. *)
let reserve t k =
  let n = Array.length t.slots in
  if t.n_slots + k > n then begin
    let n' = ref (Int.max 8 (2 * n)) in
    while !n' < t.n_slots + k do
      n' := 2 * !n'
    done;
    let ns = Array.make !n' None in
    Array.blit t.slots 0 ns 0 t.n_slots;
    t.slots <- ns
  end

(* Append [s] to the slots and enter it into the id table and layer
   [l]'s counts, pending for its index: the per-shape work behind [enter]
   and [enter_batch]. *)
let place t l (s : Shape.t) =
  let slot = t.n_slots in
  t.slots.(slot) <- Some s;
  set_slot t s.id slot;
  t.n_slots <- slot + 1;
  t.live <- t.live + 1;
  count_in l s;
  if l.mark = max_int then l.mark <- slot

let enter t (s : Shape.t) =
  reserve t 1;
  let l = layer_of t s.layer in
  place t l s;
  extend_caches t l s.rect

(* Enter [k] shapes with fresh ids as one mutation; [shape i] yields the
   i-th, and is called once for each i in ascending order.  One layer
   lookup per run of same-layer shapes, and each run's layer hull and the
   object hull are extended once, from bounds accumulated in ints. *)
let enter_batch t k shape =
  if k > 0 then begin
    reserve t k;
    let s0 : Shape.t = shape 0 in
    let layer = ref s0.layer and l = ref (layer_of t s0.layer) in
    (* the current run's hull, and the hull of the runs before it *)
    let x0 = ref s0.rect.Rect.x0 and y0 = ref s0.rect.Rect.y0 in
    let x1 = ref s0.rect.Rect.x1 and y1 = ref s0.rect.Rect.y1 in
    let bx0 = ref max_int and by0 = ref max_int in
    let bx1 = ref min_int and by1 = ref min_int in
    let close_run () =
      !l.hull <- extended !l.hull (Rect.make ~x0:!x0 ~y0:!y0 ~x1:!x1 ~y1:!y1);
      bx0 := Int.min !bx0 !x0;
      by0 := Int.min !by0 !y0;
      bx1 := Int.max !bx1 !x1;
      by1 := Int.max !by1 !y1
    in
    place t !l s0;
    for i = 1 to k - 1 do
      let s : Shape.t = shape i in
      let r = s.rect in
      if String.equal s.layer !layer then begin
        x0 := Int.min !x0 r.Rect.x0;
        y0 := Int.min !y0 r.Rect.y0;
        x1 := Int.max !x1 r.Rect.x1;
        y1 := Int.max !y1 r.Rect.y1
      end
      else begin
        close_run ();
        layer := s.layer;
        l := layer_of t s.layer;
        x0 := r.Rect.x0;
        y0 := r.Rect.y0;
        x1 := r.Rect.x1;
        y1 := r.Rect.y1
      end;
      place t !l s
    done;
    close_run ();
    t.bb <- extended t.bb (Rect.make ~x0:!bx0 ~y0:!by0 ~x1:!bx1 ~y1:!by1)
  end

(* Squeeze out removed slots once more than half the prefix is dead, so
   iteration stays proportional to the live count.  Slots move, so every
   layer is brought up to date first. *)
let maybe_squeeze t =
  if t.n_slots > 16 && 2 * t.live < t.n_slots then begin
    flush_all t;
    let w = ref 0 in
    for r = 0 to t.n_slots - 1 do
      match t.slots.(r) with
      | Some s ->
          t.slots.(!w) <- Some s;
          t.id2slot.(s.id) <- !w;
          incr w
      | None -> ()
    done;
    Array.fill t.slots !w (t.n_slots - !w) None;
    t.n_slots <- !w;
    t.cuts_from <- -1
  end

let add_shape t ~layer ~rect ?net ?sides ?keep_clear ?origin () =
  let s = Shape.make ~id:(fresh_id t) ~layer ~rect ?net ?sides ?keep_clear ?origin () in
  enter t s;
  s

let shapes t =
  let out = ref [] in
  for i = t.n_slots - 1 downto 0 do
    match t.slots.(i) with Some s -> out := s :: !out | None -> ()
  done;
  !out

let shape_count t = t.live

(* The slot already holds an option, so a hit allocates nothing — this
   runs once per candidate pair in the compactor. *)
let find t id =
  let slot = slot_of t id in
  if slot < 0 then None else t.slots.(slot)

let find_exn t id =
  match find t id with
  | Some s -> s
  | None -> Fmt.invalid_arg "Lobj.find_exn: no shape %d in %s" id t.name

let replace t (s : Shape.t) =
  let slot = slot_of t s.Shape.id in
  if slot < 0 then
    Fmt.invalid_arg "Lobj.replace: no shape %d in %s" s.Shape.id t.name;
  let old = Option.get t.slots.(slot) in
  flush t (layer_of t old.layer);
  flush t (layer_of t s.layer);
  t.slots.(slot) <- Some s;
  (match (old.Shape.origin, s.origin) with
  | Shape.User, Shape.User -> ()
  | Shape.Array_member a, Shape.Array_member b when a = b -> ()
  | _ -> t.cuts_from <- -1);
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
  let slot = slot_of t id in
  if slot >= 0 then begin
    (match t.slots.(slot) with
    | Some s ->
        let l = layer_of t s.layer in
        flush t l;
        Sindex.remove l.ix s.id s.rect;
        count_out l s;
        dirty_layer t l
    | None -> ());
    t.slots.(slot) <- None;
    t.id2slot.(id) <- -1;
    t.live <- t.live - 1;
    maybe_squeeze t
  end

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
   shapes, which stay pending: a rederive dirties its cut layers' hulls,
   and entering every new cut to recompute them would index cuts that no
   query may ever ask for. *)
let layer_hull t l =
  match l.hull with
  | Some b -> b
  | None ->
      let x0 = ref max_int and y0 = ref max_int in
      let x1 = ref min_int and y1 = ref min_int in
      if l.mark <> max_int then
        for i = l.mark to t.n_slots - 1 do
          match t.slots.(i) with
          | Some s when on_layer l s ->
              let r = s.rect in
              x0 := Int.min !x0 r.Rect.x0;
              y0 := Int.min !y0 r.Rect.y0;
              x1 := Int.max !x1 r.Rect.x1;
              y1 := Int.max !y1 r.Rect.y1
          | _ -> ()
        done;
      let b =
        match Sindex.bbox l.ix with
        | b when !x0 = max_int -> b
        | None -> Some (Rect.make ~x0:!x0 ~y0:!y0 ~x1:!x1 ~y1:!y1)
        | Some h ->
            Some
              (Rect.make ~x0:(Int.min !x0 h.Rect.x0) ~y0:(Int.min !y0 h.Rect.y0)
                 ~x1:(Int.max !x1 h.Rect.x1) ~y1:(Int.max !y1 h.Rect.y1))
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

(* Every index up to date and every hull cache valid: afterwards every
   read only reads, until a mutation. *)
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
   the store: a slot's layer is found by a physical comparison with the
   last one's, or a scan of the few layers. *)
let shapes_by_layer t =
  let ls = Array.of_list (List.filter (fun l -> l.count > 0) t.layer_order) in
  let out = Array.map (fun _ -> [||]) ls in
  let fill = Array.make (Array.length ls) 0 in
  let last = ref 0 in
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | None -> ()
    | Some s ->
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

let map_shapes_in_place t f =
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some s -> t.slots.(i) <- Some (f s)
    | None -> ()
  done

(* A pending shape moves with its slot: its layer's flush enters it
   where it then stands, at the index's shifted offset, into the bins
   eager insertion would have used. *)
let translate t ~dx ~dy =
  map_shapes_in_place t (fun s -> Shape.translate s ~dx ~dy);
  t.ports <- List.map (fun p -> Port.translate p ~dx ~dy) t.ports;
  let shift = Option.map (Option.map (fun r -> Rect.translate r ~dx ~dy)) in
  List.iter
    (fun l ->
      Sindex.translate_all l.ix ~dx ~dy;
      l.hull <- shift l.hull)
    t.layer_order;
  t.bb <- shift t.bb

(* Arbitrary orientations invalidate the binning wholesale: rebuild every
   index, eagerly.  Each layer is emptied in place and refilled, so the
   first-use order stands (minus layers the rebuild left out, which held
   no shape). *)
let transform t tr =
  map_shapes_in_place t (fun s -> Shape.transform s tr);
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
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some s ->
        let l = layer_of t s.layer in
        Sindex.insert l.ix s.id s.rect;
        count_in l s
    | None -> ()
  done;
  t.layer_order <- List.filter (fun l -> l.count > 0) t.layer_order

(* Structural copy — the paper's "trans2 = trans1" (§2.5).  Shape, port and
   array values are immutable and may be shared, but every mutable piece of
   the store (slot array, id table, spatial indexes, caches) is duplicated,
   so no mutation of either object can ever reach the other. *)
let copy ?name t =
  let layer_order = List.map (fun l -> { l with ix = Sindex.copy l.ix }) t.layer_order in
  {
    name = Option.value ~default:t.name name;
    slots = Array.copy t.slots;
    n_slots = t.n_slots;
    live = t.live;
    id2slot = Array.copy t.id2slot;
    layer_order;
    bb = t.bb;
    ports = t.ports;
    arrays = t.arrays;
    next_id = t.next_id;
    cuts_from = t.cuts_from;
    cuts_to = t.cuts_to;
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

let rename_net t ~from_ ~to_ =
  map_shapes_in_place t (fun (s : Shape.t) ->
      if Option.equal String.equal s.net (Some from_) then
        Shape.with_net s (Some to_)
      else s);
  t.ports <-
    List.map
      (fun (p : Port.t) ->
        if String.equal p.net from_ then { p with net = to_ } else p)
      t.ports;
  t.arrays <-
    List.map
      (fun e ->
        if Option.equal String.equal e.spec.array_net (Some from_) then
          { e with spec = { e.spec with array_net = Some to_ } }
        else e)
      t.arrays

(* Prefix every net of the object, giving instance-local net names. *)
let qualify_nets t prefix =
  let q n = prefix ^ "." ^ n in
  map_shapes_in_place t (fun (s : Shape.t) -> Shape.with_net s (Option.map q s.net));
  t.ports <- List.map (fun (p : Port.t) -> { p with net = q p.net }) t.ports;
  t.arrays <-
    List.map
      (fun e -> { e with spec = { e.spec with array_net = Option.map q e.spec.array_net } })
      t.arrays

(* --- Derived cut arrays (§2.2 / §2.3) --- *)

let register_array t ~cut_layer ~container_ids ?net () =
  let aid = fresh_id t in
  let spec = { cut_layer; container_ids; array_net = net } in
  t.arrays <- t.arrays @ [ { aid; origin = Shape.Array_member aid; spec; memo = None } ];
  aid

let array_specs t = List.map (fun e -> (e.aid, e.spec)) t.arrays

let arrays_of_container t id =
  List.filter_map
    (fun e -> if List.mem id e.spec.container_ids then Some e.aid else None)
    t.arrays

let array_member_count t array_id =
  let n = ref 0 in
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some { Shape.origin = Shape.Array_member a; _ } when a = array_id -> incr n
    | _ -> ()
  done;
  !n

(* Is this shape a container of some registered array?  If so the compactor
   must not shrink it below the one-cut minimum. *)
let array_cut_layers_of_container t id =
  List.filter_map
    (fun e -> if List.mem id e.spec.container_ids then Some e.spec.cut_layer else None)
    t.arrays

let starved_array t ~container =
  List.exists
    (fun e ->
      List.mem container e.spec.container_ids
      &&
      match e.memo with
      | Some m -> Array.length m.cuts = 0
      | None -> array_member_count t e.aid = 0)
    t.arrays

module Ids = Hashtbl.Make (Int)

(* A layer a member removal took members from: the name it was found
   under, its store and the index entries of its members. *)
type touched = { tname : string; tl : layer; mutable entries : (int * Rect.t) list }

(* Take every member of a registered array out of the store in one slot
   pass — slot, id table, live and keep-clear counts, the touched layers'
   hulls marked dirty — then drop each touched layer's indexed members
   from its index in one [Sindex.remove_batch]; a pending member has no
   entry to drop.  Survivors keep their slot and bin order, so the store
   ends up as removing the members one by one leaves it.  The pass starts
   at the last rederive's cuts when their slots are known, takes those
   without asking, and asks of each later member whether its array is
   registered.  When nothing was entered after the cuts, the store is
   cut back to where they began (a layer whose first unindexed slot lay
   among them has nothing pending left). *)
let remove_members t =
  let known = t.cuts_from >= 0 in
  let first = if known then t.cuts_from else 0 and cuts_to = if known then t.cuts_to else 0 in
  let registered =
    lazy
      (let ids = Ids.create 16 in
       List.iter (fun e -> Ids.replace ids e.aid ()) t.arrays;
       ids)
  in
  (* An array's members sit together: remember the last array seen. *)
  let last = ref min_int in
  let is_member i a =
    i < cuts_to || a = !last || (Ids.mem (Lazy.force registered) a && (last := a; true))
  in
  (* The touched layers, the last one first: an array's members sit
     together on one layer, so a member almost always finds its layer at
     the head. *)
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
  for i = first to t.n_slots - 1 do
    match t.slots.(i) with
    | Some ({ Shape.origin = Shape.Array_member a; _ } as s) when is_member i a ->
        t.slots.(i) <- None;
        t.id2slot.(s.id) <- -1;
        t.live <- t.live - 1;
        let tt = touch s.layer in
        count_out tt.tl s;
        if i < tt.tl.mark then tt.entries <- (s.id, s.rect) :: tt.entries
    | _ -> ()
  done;
  (* Every id the index of a touched layer holds is live, except the
     members just taken out; a layer left with no shape holds none. *)
  let gone id = slot_of t id < 0 in
  List.iter
    (fun { tl; entries; _ } ->
      if tl.count = 0 then Sindex.clear tl.ix else Sindex.remove_batch tl.ix entries ~gone)
    !touched;
  if known && cuts_to = t.n_slots then begin
    t.n_slots <- first;
    List.iter (fun l -> if l.mark <> max_int && l.mark >= first then l.mark <- max_int) t.layer_order
  end
  else maybe_squeeze t

(* Does every container of the array still have the layer and rect the
   memo derived from? *)
let rec same_containers t ids (containers : (string * Rect.t) list) =
  match (ids, containers) with
  | [], [] -> true
  | id :: ids, (layer, rect) :: containers ->
      let s = find_exn t id in
      (s.Shape.layer == layer || String.equal s.Shape.layer layer)
      && Rect.equal s.Shape.rect rect
      && same_containers t ids containers
  | _ -> false

(* The entry with a memo of the current derivation: itself when its memo
   still holds, else a new entry whose cuts [Derive.cut_array] derived. *)
let derived t rules e =
  match e.memo with
  | Some m when m.rules == rules && same_containers t e.spec.container_ids m.containers -> e
  | _ ->
      Amg_obs.Obs.count "lobj.cut_array_derivations" 1;
      let containers =
        List.map
          (fun id ->
            let s = find_exn t id in
            (s.Shape.layer, s.Shape.rect))
          e.spec.container_ids
      in
      let cuts =
        Array.of_list (Derive.cut_array rules ~containers ~cut_layer:e.spec.cut_layer)
      in
      { e with memo = Some { rules; containers; cuts } }

(* [derived] over the entries; the list itself when no entry changed. *)
let rec derive_all t rules = function
  | [] -> []
  | e :: rest as l ->
      let e' = derived t rules e in
      let rest' = derive_all t rules rest in
      if e' == e && rest' == rest then l else e' :: rest'

let memo_cuts e = match e.memo with Some m -> m.cuts | None -> [||]

(* Every member leaves; each array's memo is brought up to date, deriving
   only the arrays whose rules or containers changed; then the cuts
   re-enter straight from the memos as one batch, array after array in
   registration order, with fresh ids taken in that order: the ids, slots
   and bin entries an [add_shape] per cut would give them.  A cut costs
   its shape record and slot box; its rect and origin are shared. *)
let rederive t rules =
  Amg_robust.Inject.(probe Contact_rebuild);
  Amg_obs.Obs.count "lobj.contact_array_rebuilds" (List.length t.arrays);
  match t.arrays with
  | [] -> ()
  | arrays ->
      remove_members t;
      let arrays = derive_all t rules arrays in
      t.arrays <- arrays;
      let k = List.fold_left (fun k e -> k + Array.length (memo_cuts e)) 0 arrays in
      let base = t.next_id in
      t.next_id <- base + k;
      t.cuts_from <- t.n_slots;
      (* [enter_batch] asks for the cuts in order: [rest] holds the
         arrays after the current one, whose cuts are [cuts], the next
         at [j]. *)
      let rest = ref arrays and cur = ref (List.hd arrays) in
      let cuts = ref [||] and j = ref 0 in
      let cut i =
        while !j >= Array.length !cuts do
          (match !rest with
          | e :: es ->
              cur := e;
              cuts := memo_cuts e;
              rest := es
          | [] -> assert false);
          j := 0
        done;
        let e = !cur in
        let rect = !cuts.(!j) in
        incr j;
        {
          Shape.id = base + i;
          layer = e.spec.cut_layer;
          rect;
          net = e.spec.array_net;
          sides = Edge.all_fixed;
          keep_clear = false;
          origin = e.origin;
        }
      in
      enter_batch t k cut;
      t.cuts_to <- t.n_slots

(* The origin of array [aid]'s members: its entry's, when registered. *)
let rec origin_of aid = function
  | [] -> Shape.Array_member aid
  | e :: es -> if e.aid = aid then e.origin else origin_of aid es

(* Merge [src] into [t], renumbering ids and displacing by (dx, dy);
   returns the id offset applied.  Each shape is written once, with its
   final id and position, and the shapes are entered as one batch.  The
   absorbed arrays keep their memos; the members of one array share its
   renumbered entry's origin (they sit together: the last array seen is
   remembered). *)
let absorb ?(dx = 0) ?(dy = 0) t src =
  let offset = t.next_id in
  let moved = dx <> 0 || dy <> 0 in
  let absorbed =
    List.map
      (fun e ->
        let aid = e.aid + offset in
        {
          e with
          aid;
          origin = Shape.Array_member aid;
          spec =
            { e.spec with container_ids = List.map (fun i -> i + offset) e.spec.container_ids };
        })
      src.arrays
  in
  let last = ref (-1) and renumbered = ref Shape.User in
  let bump (s : Shape.t) =
    let origin =
      match s.origin with
      | Shape.User -> Shape.User
      | Shape.Array_member a ->
          if a <> !last then begin
            last := a;
            renumbered := origin_of (a + offset) absorbed
          end;
          !renumbered
    in
    let rect = if moved then Rect.translate s.rect ~dx ~dy else s.rect in
    { s with id = s.id + offset; rect; origin }
  in
  (* [enter_batch] asks for the shapes in order: the live ones in slot
     order. *)
  let next = ref 0 in
  let rec next_live (_ : int) =
    let i = !next in
    incr next;
    match src.slots.(i) with Some s -> bump s | None -> next_live 0
  in
  enter_batch t src.live next_live;
  t.ports <-
    t.ports
    @ (if moved then List.map (fun p -> Port.translate p ~dx ~dy) src.ports
       else src.ports);
  t.arrays <- t.arrays @ absorbed;
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
