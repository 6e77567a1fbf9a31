module Rect = Amg_geometry.Rect
module Region = Amg_geometry.Region
module Transform = Amg_geometry.Transform
module Sindex = Amg_geometry.Sindex
module Itbl = Amg_geometry.Itbl
module Rules = Amg_tech.Rules

type array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

(* Delta-log journal behind [snapshot]/[restore].  While at least one
   snapshot is live every store mutation pushes its inverse; [restore]
   pops the log back to the snapshot's length and re-installs the scalar
   fields (ports, arrays, name, next_id, layer order) captured in the
   snapshot record — those are immutable lists, so capturing them is O(1)
   and sharing them is safe.  Chosen over a copy-on-write generation on
   the store: a snapshot costs nothing and a restore costs O(changes
   since), while a COW generation taxes every read with a generation
   check (see DESIGN.md §10 for the measured comparison). *)
type undo =
  | U_enter of Shape.t                    (* drop the newest slot *)
  | U_remove of int * Shape.t             (* slot: re-install the shape *)
  | U_replace of int * Shape.t * Shape.t  (* slot, old, new *)
  | U_translate of int * int              (* dx, dy: shift back *)
  | U_new_layer of string                 (* drop the fresh layer index *)

(* One layer of the store: its spatial index and how many of its shapes
   are keep-clear.  The count lets the compactor skip a layer pair that
   has no spacing rule outright — without a keep-clear shape on either
   side such a pair is provably unconstrained. *)
type layer = { ix : Sindex.t; mutable keep_clear : int }

(* Indexed shape store.  Shapes live in [slots] in insertion order ([None]
   marks a removed shape); [id2slot] gives O(1) find/replace/remove, and
   [by_layer] keeps one spatial index per layer for the candidate queries
   of the compactor, the DRC and the extractor.  Because ids are handed
   out monotonically (and [absorb] bumps absorbed ids past every existing
   one), ascending id order IS insertion order — layer queries sort by id
   to restore it.

   Bounding boxes are cached: [bb] is the whole-object hull, [layer_bb]
   the per-layer hulls.  A cache entry is either valid or absent (dirty);
   growth (add, pure-growth replace, absorb) extends valid entries in
   place, removal and shrinking invalidate, translation shifts. *)
type t = {
  mutable name : string;
  mutable slots : Shape.t option array;
  mutable n_slots : int; (* used prefix of [slots] *)
  mutable live : int;    (* slots holding a shape *)
  mutable id2slot : int Itbl.t;
  mutable by_layer : (string, layer) Hashtbl.t;
  mutable layer_order : string list; (* first-use order, never reordered *)
  mutable bb : Rect.t option option; (* None = dirty *)
  mutable layer_bb : (string, Rect.t option) Hashtbl.t; (* absent = dirty *)
  mutable ports : Port.t list;
  mutable arrays : (int * array_spec) list;
  mutable next_id : int;
  mutable journal : undo list; (* most recent first; only while snaps > 0 *)
  mutable j_len : int;
  mutable snaps : int;         (* live snapshots *)
}

type snapshot = {
  s_owner : t;
  s_len : int;
  s_name : string;
  s_ports : Port.t list;
  s_arrays : (int * array_spec) list;
  s_next_id : int;
  s_layer_order : string list;
  mutable s_live : bool;
}

let journaling t = t.snaps > 0

let push t u =
  if journaling t then begin
    t.journal <- u :: t.journal;
    t.j_len <- t.j_len + 1
  end

let create name =
  {
    name;
    slots = Array.make 8 None;
    n_slots = 0;
    live = 0;
    id2slot = Itbl.create 16;
    by_layer = Hashtbl.create 8;
    layer_order = [];
    bb = Some None;
    layer_bb = Hashtbl.create 8;
    ports = [];
    arrays = [];
    next_id = 0;
    journal = [];
    j_len = 0;
    snaps = 0;
  }

let name t = t.name
let set_name t n = t.name <- n

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* --- cache maintenance --- *)

let dirty_layer t layer =
  Hashtbl.remove t.layer_bb layer;
  t.bb <- None

let extend_caches t layer rect =
  (match Hashtbl.find_opt t.layer_bb layer with
  | Some (Some b) -> Hashtbl.replace t.layer_bb layer (Some (Rect.hull b rect))
  | Some None -> Hashtbl.replace t.layer_bb layer (Some rect)
  | None -> ());
  match t.bb with
  | Some (Some b) -> t.bb <- Some (Some (Rect.hull b rect))
  | Some None -> t.bb <- Some (Some rect)
  | None -> ()

let layer_of t name =
  match Hashtbl.find_opt t.by_layer name with
  | Some l -> l
  | None ->
      let l = { ix = Sindex.create (); keep_clear = 0 } in
      Hashtbl.replace t.by_layer name l;
      t.layer_order <- t.layer_order @ [ name ];
      push t (U_new_layer name);
      l

(* Enter / withdraw a shape's index entry and keep-clear count. *)
let index t (s : Shape.t) =
  let l = layer_of t s.layer in
  Sindex.insert l.ix s.id s.rect;
  if s.keep_clear then l.keep_clear <- l.keep_clear + 1

let unindex t (s : Shape.t) =
  let l = layer_of t s.layer in
  Sindex.remove l.ix s.id;
  if s.keep_clear then l.keep_clear <- l.keep_clear - 1

(* Move the index entry of shape [old] over to [s], which has its id. *)
let reindex t (old : Shape.t) (s : Shape.t) =
  if not (String.equal old.layer s.layer) then begin
    unindex t old;
    index t s
  end
  else begin
    let l = layer_of t s.layer in
    if not (Rect.equal old.rect s.rect) then Sindex.insert l.ix s.id s.rect;
    l.keep_clear <-
      l.keep_clear + Bool.to_int s.keep_clear - Bool.to_int old.keep_clear
  end

(* --- store primitives --- *)

let ensure_capacity t =
  if t.n_slots = Array.length t.slots then begin
    let ns = Array.make (max 8 (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 ns 0 t.n_slots;
    t.slots <- ns
  end

let enter t (s : Shape.t) =
  ensure_capacity t;
  t.slots.(t.n_slots) <- Some s;
  Itbl.replace t.id2slot s.id t.n_slots;
  t.n_slots <- t.n_slots + 1;
  t.live <- t.live + 1;
  index t s;
  extend_caches t s.layer s.rect;
  push t (U_enter s)

(* Squeeze out removed slots once more than half the prefix is dead, so
   iteration stays proportional to the live count.  Suppressed while a
   snapshot is live: the journal records slot indices, and the append-only
   discipline is what lets [restore] unwind enters by truncation. *)
let maybe_squeeze t =
  if (not (journaling t)) && t.n_slots > 16 && 2 * t.live < t.n_slots then begin
    let w = ref 0 in
    for r = 0 to t.n_slots - 1 do
      match t.slots.(r) with
      | Some s ->
          t.slots.(!w) <- Some s;
          Itbl.replace t.id2slot s.id !w;
          incr w
      | None -> ()
    done;
    Array.fill t.slots !w (t.n_slots - !w) None;
    t.n_slots <- !w
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

(* [Itbl.find] rather than [find_opt]: the slot already holds an option,
   so a hit allocates nothing — this runs once per candidate pair in the
   compactor. *)
let find t id =
  match Itbl.find t.id2slot id with
  | slot -> t.slots.(slot)
  | exception Not_found -> None

let find_exn t id =
  match find t id with
  | Some s -> s
  | None -> Fmt.invalid_arg "Lobj.find_exn: no shape %d in %s" id t.name

let replace t (s : Shape.t) =
  match Itbl.find_opt t.id2slot s.Shape.id with
  | None -> Fmt.invalid_arg "Lobj.replace: no shape %d in %s" s.Shape.id t.name
  | Some slot ->
      let old = Option.get t.slots.(slot) in
      push t (U_replace (slot, old, s));
      t.slots.(slot) <- Some s;
      reindex t old s;
      if not (String.equal old.Shape.layer s.layer) then begin
        dirty_layer t old.layer;
        dirty_layer t s.layer;
        extend_caches t s.layer s.rect
      end
      else if not (Rect.equal old.Shape.rect s.rect) then begin
        if Rect.contains_rect s.rect old.Shape.rect then
          (* Pure growth keeps every cached hull valid — just extend. *)
          extend_caches t s.layer s.rect
        else dirty_layer t s.layer
      end

let remove t id =
  match Itbl.find_opt t.id2slot id with
  | None -> ()
  | Some slot ->
      (match t.slots.(slot) with
      | Some s ->
          unindex t s;
          dirty_layer t s.layer;
          push t (U_remove (slot, s))
      | None -> ());
      t.slots.(slot) <- None;
      Itbl.remove t.id2slot id;
      t.live <- t.live - 1;
      maybe_squeeze t

let shapes_on t layer =
  match Hashtbl.find_opt t.by_layer layer with
  | None -> []
  | Some l ->
      let ids = ref [] in
      Sindex.iter l.ix (fun id _ -> ids := id :: !ids);
      List.sort compare !ids |> List.map (find_exn t)

let near t ~layer rect ~margin =
  match Hashtbl.find_opt t.by_layer layer with
  | None -> []
  | Some l ->
      (* Query ids arrive ascending, which is insertion order. *)
      List.map (find_exn t) (Sindex.query l.ix rect ~margin)

let iter_near t ~layer rect ~margin f =
  match Hashtbl.find_opt t.by_layer layer with
  | None -> ()
  | Some l -> Sindex.iter_query l.ix rect ~margin (fun id -> f (find_exn t id))

let keep_clear_on t layer =
  match Hashtbl.find_opt t.by_layer layer with
  | None -> 0
  | Some l -> l.keep_clear

let shapes_on_net t net =
  List.filter (fun (s : Shape.t) -> s.net = Some net) (shapes t)

let rects t = List.map (fun (s : Shape.t) -> s.rect) (shapes t)

let rects_on t layer = List.map (fun (s : Shape.t) -> s.rect) (shapes_on t layer)

let bbox_on t layer =
  match Hashtbl.find_opt t.layer_bb layer with
  | Some b -> b
  | None ->
      let b =
        match Hashtbl.find_opt t.by_layer layer with
        | None -> None
        | Some l -> Sindex.bbox l.ix
      in
      Hashtbl.replace t.layer_bb layer b;
      b

let bbox t =
  match t.bb with
  | Some b -> b
  | None ->
      let b =
        Hashtbl.fold
          (fun layer l acc ->
            if Sindex.cardinal l.ix = 0 then acc
            else
              match (bbox_on t layer, acc) with
              | None, acc -> acc
              | Some r, None -> Some r
              | Some r, Some h -> Some (Rect.hull h r))
          t.by_layer None
      in
      t.bb <- Some b;
      b

let bbox_exn t =
  match bbox t with
  | Some r -> r
  | None -> Fmt.invalid_arg "Lobj.bbox_exn: %s is empty" t.name

let bbox_area t = match bbox t with None -> 0 | Some r -> Rect.area r

let union_area t = Region.area (rects t)

let layers t =
  List.filter
    (fun layer ->
      match Hashtbl.find_opt t.by_layer layer with
      | Some l -> Sindex.cardinal l.ix > 0
      | None -> false)
    t.layer_order

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

let translate t ~dx ~dy =
  push t (U_translate (dx, dy));
  map_shapes_in_place t (fun s -> Shape.translate s ~dx ~dy);
  t.ports <- List.map (fun p -> Port.translate p ~dx ~dy) t.ports;
  Hashtbl.iter (fun _ l -> Sindex.translate_all l.ix ~dx ~dy) t.by_layer;
  t.bb <- Option.map (Option.map (fun r -> Rect.translate r ~dx ~dy)) t.bb;
  Hashtbl.filter_map_inplace
    (fun _ b -> Some (Option.map (fun r -> Rect.translate r ~dx ~dy) b))
    t.layer_bb

let no_snapshots t op =
  if journaling t then
    Fmt.invalid_arg "Lobj.%s: %s has a live snapshot (not journalable)" op t.name

(* Arbitrary orientations invalidate the binning wholesale: rebuild. *)
let transform t tr =
  no_snapshots t "transform";
  map_shapes_in_place t (fun s -> Shape.transform s tr);
  t.ports <- List.map (fun p -> Port.transform p tr) t.ports;
  Hashtbl.reset t.by_layer;
  Hashtbl.reset t.layer_bb;
  t.bb <- None;
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some s -> index t s
    | None -> ()
  done

(* Structural copy — the paper's "trans2 = trans1" (§2.5).  Shape, port and
   array values are immutable and may be shared, but every mutable piece of
   the store (slot array, id table, spatial indexes, caches) is duplicated,
   so no mutation of either object can ever reach the other. *)
let copy ?name t =
  let by_layer = Hashtbl.create (Hashtbl.length t.by_layer) in
  Hashtbl.iter
    (fun name l ->
      Hashtbl.replace by_layer name { l with ix = Sindex.copy l.ix })
    t.by_layer;
  {
    name = Option.value ~default:t.name name;
    slots = Array.copy t.slots;
    n_slots = t.n_slots;
    live = t.live;
    id2slot = Itbl.copy t.id2slot;
    by_layer;
    layer_order = t.layer_order;
    bb = t.bb;
    layer_bb = Hashtbl.copy t.layer_bb;
    ports = t.ports;
    arrays = t.arrays;
    next_id = t.next_id;
    (* Snapshots name a specific store; the copy starts a fresh history. *)
    journal = [];
    j_len = 0;
    snaps = 0;
  }

(* --- snapshot / restore --- *)

let snapshot t =
  t.snaps <- t.snaps + 1;
  {
    s_owner = t;
    s_len = t.j_len;
    s_name = t.name;
    s_ports = t.ports;
    s_arrays = t.arrays;
    s_next_id = t.next_id;
    s_layer_order = t.layer_order;
    s_live = true;
  }

let undo t = function
  | U_enter s ->
      (* Enters append and squeezing is suppressed, so in reverse journal
         order the enter being undone always owns the last used slot. *)
      unindex t s;
      Itbl.remove t.id2slot s.id;
      t.n_slots <- t.n_slots - 1;
      t.slots.(t.n_slots) <- None;
      t.live <- t.live - 1
  | U_remove (slot, s) ->
      t.slots.(slot) <- Some s;
      Itbl.replace t.id2slot s.id slot;
      t.live <- t.live + 1;
      index t s
  | U_replace (slot, old, s) ->
      t.slots.(slot) <- Some old;
      reindex t s old
  | U_translate (dx, dy) ->
      map_shapes_in_place t (fun s -> Shape.translate s ~dx:(-dx) ~dy:(-dy));
      Hashtbl.iter (fun _ l -> Sindex.translate_all l.ix ~dx:(-dx) ~dy:(-dy)) t.by_layer
  | U_new_layer layer ->
      (* Every insert into the fresh index came after its creation, so it
         has already been unwound; the index is empty. *)
      Hashtbl.remove t.by_layer layer;
      Hashtbl.remove t.layer_bb layer

let restore t snap =
  if snap.s_owner != t then
    Fmt.invalid_arg "Lobj.restore: snapshot belongs to another object";
  if (not snap.s_live) || snap.s_len > t.j_len then
    Fmt.invalid_arg "Lobj.restore: snapshot of %s is no longer valid" t.name;
  while t.j_len > snap.s_len do
    (match t.journal with
    | u :: rest ->
        t.journal <- rest;
        undo t u
    | [] -> assert false);
    t.j_len <- t.j_len - 1
  done;
  t.name <- snap.s_name;
  t.ports <- snap.s_ports;
  t.arrays <- snap.s_arrays;
  t.next_id <- snap.s_next_id;
  t.layer_order <- snap.s_layer_order;
  (* The unwind retraces geometry exactly but not the incremental cache
     extensions: drop the hull caches and let the next read re-derive them
     from the (restored) indexes. *)
  t.bb <- None;
  Hashtbl.reset t.layer_bb

let release t snap =
  if snap.s_owner != t then
    Fmt.invalid_arg "Lobj.release: snapshot belongs to another object";
  if snap.s_live then begin
    snap.s_live <- false;
    t.snaps <- t.snaps - 1;
    if t.snaps = 0 then begin
      t.journal <- [];
      t.j_len <- 0
    end
  end

let with_snapshot t f =
  let snap = snapshot t in
  Fun.protect ~finally:(fun () -> release t snap)
    (fun () ->
      try f ()
      with e ->
        restore t snap;
        raise e)

(* --- journal deltas ---

   The journal records inverses; read forward (oldest first) each inverse
   names exactly the store mutation that produced it, so a journal window
   doubles as a redo log.  A [delta] is such a window plus the scalar
   fields at its end — applying it to an object in the window's start
   state reproduces the end state.  This is what the prefix cache stores
   per trie node: the steps between a parent prefix and its child, instead
   of a full copy of the child layout. *)

type delta_op =
  | D_enter of Shape.t
  | D_remove of int
  | D_replace of Shape.t
  | D_translate of int * int
  | D_new_layer of string

type delta = {
  d_ops : delta_op array; (* oldest first *)
  d_name : string;
  d_ports : Port.t list;
  d_arrays : (int * array_spec) list;
  d_next_id : int;
  d_layer_order : string list;
}

type mark = int

let mark t =
  if not (journaling t) then
    Fmt.invalid_arg "Lobj.mark: %s has no live snapshot (not journaling)"
      t.name;
  t.j_len

let forward_op = function
  | U_enter s -> D_enter s
  | U_remove (_, s) -> D_remove s.Shape.id
  | U_replace (_, _, s) -> D_replace s
  | U_translate (dx, dy) -> D_translate (dx, dy)
  | U_new_layer layer -> D_new_layer layer

let delta_since t m =
  if m > t.j_len then
    Fmt.invalid_arg "Lobj.delta_since: stale mark on %s" t.name;
  let n = t.j_len - m in
  let ops = Array.make n (D_translate (0, 0)) in
  (* The journal is newest-first; fill the array back to front. *)
  let rec fill src k =
    if k >= 0 then
      match src with
      | u :: rest ->
          ops.(k) <- forward_op u;
          fill rest (k - 1)
      | [] -> assert false
  in
  fill t.journal (n - 1);
  {
    d_ops = ops;
    d_name = t.name;
    d_ports = t.ports;
    d_arrays = t.arrays;
    d_next_id = t.next_id;
    d_layer_order = t.layer_order;
  }

(* Replaying an enter re-enters the recorded shape verbatim (recorded ids,
   not fresh ones), so the replayed store is observably identical to the
   original build: same shapes, same ids, same insertion order, same
   spatial-index answers.  Slot packing may differ (squeezing was
   suppressed during the journaled build) but slot indexes are not
   observable.  The scalar fields are installed afterwards, overwriting
   whatever the ops touched in passing. *)
let replay t d =
  Array.iter
    (function
      | D_enter s -> enter t s
      | D_remove id -> remove t id
      | D_replace s -> replace t s
      | D_translate (dx, dy) -> translate t ~dx ~dy
      | D_new_layer layer -> ignore (layer_of t layer))
    d.d_ops;
  t.name <- d.d_name;
  t.ports <- d.d_ports;
  t.arrays <- d.d_arrays;
  t.next_id <- d.d_next_id;
  t.layer_order <- d.d_layer_order

(* Rough heap footprint of a delta for cache byte budgets: the op array
   spine plus the shapes retained by enter/replace ops; the scalar lists
   are shared immutable values, count their spines only. *)
let delta_bytes d =
  let shape_bytes =
    Array.fold_left
      (fun acc -> function
        | D_enter _ | D_replace _ -> acc + 200
        | D_remove _ | D_translate _ | D_new_layer _ -> acc)
      0 d.d_ops
  in
  256
  + (48 * Array.length d.d_ops)
  + shape_bytes
  + (16 * List.length d.d_ports)
  + (16 * List.length d.d_arrays)

let delta_length d = Array.length d.d_ops

(* Rough heap footprint of the store, for the prefix cache's byte budget.
   Per live shape: the record (~9 fields + a rect), one id-table entry and
   a handful of spatial-index bin slots; per dead slot one word; plus the
   fixed tables.  An estimate — eviction needs proportionality, not
   exactness. *)
let approx_bytes t =
  2048 + (320 * t.live) + (16 * (t.n_slots - t.live))
  + (160 * List.length t.ports)
  + (96 * List.length t.arrays)
  + (512 * Hashtbl.length t.by_layer)

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
  no_snapshots t "rename_net";
  map_shapes_in_place t (fun (s : Shape.t) ->
      if s.net = Some from_ then Shape.with_net s (Some to_) else s);
  t.ports <-
    List.map
      (fun (p : Port.t) ->
        if String.equal p.net from_ then { p with net = to_ } else p)
      t.ports;
  t.arrays <-
    List.map
      (fun (id, spec) ->
        if spec.array_net = Some from_ then (id, { spec with array_net = Some to_ })
        else (id, spec))
      t.arrays

(* Prefix every net of the object, giving instance-local net names. *)
let qualify_nets t prefix =
  no_snapshots t "qualify_nets";
  let q n = prefix ^ "." ^ n in
  map_shapes_in_place t (fun (s : Shape.t) -> Shape.with_net s (Option.map q s.net));
  t.ports <- List.map (fun (p : Port.t) -> { p with net = q p.net }) t.ports;
  t.arrays <-
    List.map
      (fun (id, spec) -> (id, { spec with array_net = Option.map q spec.array_net }))
      t.arrays

(* --- Derived cut arrays (§2.2 / §2.3) --- *)

let register_array t ~cut_layer ~container_ids ?net () =
  let id = fresh_id t in
  t.arrays <- t.arrays @ [ (id, { cut_layer; container_ids; array_net = net }) ];
  id

let array_specs t = t.arrays

let arrays_of_container t id =
  List.filter_map
    (fun (aid, spec) -> if List.mem id spec.container_ids then Some aid else None)
    t.arrays

let array_member_count t array_id =
  let n = ref 0 in
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some s when s.Shape.origin = Shape.Array_member array_id -> incr n
    | _ -> ()
  done;
  !n

(* Is this shape a container of some registered array?  If so the compactor
   must not shrink it below the one-cut minimum. *)
let array_cut_layers_of_container t id =
  List.filter_map
    (fun (_, spec) ->
      if List.mem id spec.container_ids then Some spec.cut_layer else None)
    t.arrays

let rederive t rules =
  Amg_robust.Inject.(probe Contact_rebuild);
  Amg_obs.Obs.count "lobj.contact_array_rebuilds" (List.length t.arrays);
  List.iter
    (fun (array_id, spec) ->
      let members = ref [] in
      for i = 0 to t.n_slots - 1 do
        match t.slots.(i) with
        | Some s when s.Shape.origin = Shape.Array_member array_id ->
            members := s.Shape.id :: !members
        | _ -> ()
      done;
      List.iter (remove t) !members;
      let containers =
        List.map
          (fun id ->
            let s = find_exn t id in
            (s.Shape.layer, s.Shape.rect))
          spec.container_ids
      in
      let cuts = Derive.cut_array rules ~containers ~cut_layer:spec.cut_layer in
      List.iter
        (fun rect ->
          ignore
            (add_shape t ~layer:spec.cut_layer ~rect ?net:spec.array_net
               ~origin:(Shape.Array_member array_id) ()))
        cuts)
    t.arrays

(* Merge [src] into [t], renumbering ids; returns the id offset applied. *)
let absorb t src =
  let offset = t.next_id in
  let bump (s : Shape.t) =
    let origin =
      match s.origin with
      | Shape.User -> Shape.User
      | Shape.Array_member a -> Shape.Array_member (a + offset)
    in
    { s with id = s.id + offset; origin }
  in
  for i = 0 to src.n_slots - 1 do
    match src.slots.(i) with
    | Some s -> enter t (bump s)
    | None -> ()
  done;
  t.ports <- t.ports @ src.ports;
  t.arrays <-
    t.arrays
    @ List.map
        (fun (id, spec) ->
          ( id + offset,
            { spec with container_ids = List.map (fun i -> i + offset) spec.container_ids } ))
        src.arrays;
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
