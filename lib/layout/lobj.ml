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
  | U_absorb of Shape.t array             (* drop the newest k slots *)
  | U_remove of int * Shape.t             (* slot: re-install the shape *)
  | U_replace of int * Shape.t * Shape.t  (* slot, old, new *)
  | U_translate of int * int              (* dx, dy: shift back *)
  | U_new_layer of string                 (* drop the fresh layer index *)

(* One layer of the store: its spatial index, how many of its shapes are
   keep-clear, and its cached hull.  The count lets the compactor skip a
   layer pair that has no spacing rule outright — without a keep-clear
   shape on either side such a pair is provably unconstrained. *)
type layer = {
  ix : Sindex.t;
  mutable keep_clear : int;
  mutable hull : Rect.t option option; (* None = dirty *)
}

(* Indexed shape store.  Shapes live in [slots] in insertion order ([None]
   marks a removed shape); [id2slot] maps a shape id to its slot (-1 when
   absent) for O(1) find/replace/remove, and [by_layer] keeps one spatial
   index per layer for the candidate queries of the compactor, the DRC and
   the extractor.  Ids are handed out monotonically from 0 (and [absorb]
   bumps absorbed ids past every existing one), so they are dense enough
   to index an array, and ascending id order IS insertion order — layer
   queries sort by id to restore it.

   Bounding boxes are cached: [bb] is the whole-object hull, each layer's
   [hull] its own.  A cache entry is either valid or dirty; growth (add,
   pure-growth replace, absorb) extends valid entries in place, removal
   and shrinking invalidate, translation shifts. *)
type t = {
  mutable name : string;
  mutable slots : Shape.t option array;
  mutable n_slots : int; (* used prefix of [slots] *)
  mutable live : int;    (* slots holding a shape *)
  mutable id2slot : int array;
  mutable by_layer : (string, layer) Hashtbl.t;
  mutable layer_order : string list; (* first-use order, never reordered *)
  mutable bb : Rect.t option option; (* None = dirty *)
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
    id2slot = [||];
    by_layer = Hashtbl.create 8;
    layer_order = [];
    bb = Some None;
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

let id_bound t = t.next_id

(* --- the id table --- *)

let slot_of t id = if id >= 0 && id < Array.length t.id2slot then t.id2slot.(id) else -1

let set_slot t id slot =
  let n = Array.length t.id2slot in
  if id >= n then begin
    let a = Array.make (max 16 (max (2 * n) (id + 1))) (-1) in
    Array.blit t.id2slot 0 a 0 n;
    t.id2slot <- a
  end;
  t.id2slot.(id) <- slot

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

let layer_of t name =
  match Hashtbl.find_opt t.by_layer name with
  | Some l -> l
  | None ->
      let l = { ix = Sindex.create (); keep_clear = 0; hull = None } in
      Hashtbl.replace t.by_layer name l;
      t.layer_order <- t.layer_order @ [ name ];
      push t (U_new_layer name);
      l

(* Enter / withdraw a shape's index entry and keep-clear count. *)
let index l (s : Shape.t) =
  Sindex.insert l.ix s.id s.rect;
  if s.keep_clear then l.keep_clear <- l.keep_clear + 1

let unindex l (s : Shape.t) =
  Sindex.remove l.ix s.id s.rect;
  if s.keep_clear then l.keep_clear <- l.keep_clear - 1

(* Move the index entry of shape [old] over to [s], which has its id. *)
let reindex t (old : Shape.t) (s : Shape.t) =
  if not (String.equal old.layer s.layer) then begin
    unindex (layer_of t old.layer) old;
    index (layer_of t s.layer) s
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
    let n' = ref (max 8 (2 * n)) in
    while !n' < t.n_slots + k do
      n' := 2 * !n'
    done;
    let ns = Array.make !n' None in
    Array.blit t.slots 0 ns 0 t.n_slots;
    t.slots <- ns
  end

(* Append [s] to the slots and enter it into the id table and layer [l]'s
   index: the per-shape work behind [enter] and [enter_batch]. *)
let place t l (s : Shape.t) =
  t.slots.(t.n_slots) <- Some s;
  set_slot t s.id t.n_slots;
  t.n_slots <- t.n_slots + 1;
  t.live <- t.live + 1;
  index l s

(* Undo [place] for a shape in one of the last slots; [drop_last] then
   frees those slots. *)
let unplace t l (s : Shape.t) =
  unindex l s;
  t.id2slot.(s.id) <- -1

let drop_last t k =
  t.n_slots <- t.n_slots - k;
  Array.fill t.slots t.n_slots k None;
  t.live <- t.live - k

let enter t (s : Shape.t) =
  reserve t 1;
  let l = layer_of t s.layer in
  place t l s;
  extend_caches t l s.rect;
  push t (U_enter s)

(* [f l i j] for each maximal run [batch.(i .. j-1)] of shapes on one
   layer, [l] that layer: one layer lookup per run, not per shape. *)
let iter_runs t (batch : Shape.t array) f =
  let k = Array.length batch in
  let i = ref 0 in
  while !i < k do
    let layer = batch.(!i).layer in
    let j = ref (!i + 1) in
    while !j < k && String.equal batch.(!j).layer layer do
      incr j
    done;
    f (layer_of t layer) !i !j;
    i := !j
  done

(* Enter a batch of shapes with fresh ids as one mutation: each run's
   layer hull and the object hull are extended once, and the journal gets
   one record, which [undo] unwinds by dropping the last k slots. *)
let enter_batch t (batch : Shape.t array) =
  let k = Array.length batch in
  if k > 0 then begin
    reserve t k;
    let hull = ref batch.(0).rect in
    iter_runs t batch (fun l i j ->
        let h = ref batch.(i).rect in
        for n = i to j - 1 do
          place t l batch.(n);
          h := Rect.hull !h batch.(n).rect
        done;
        l.hull <- extended l.hull !h;
        hull := Rect.hull !hull !h);
    t.bb <- extended t.bb !hull;
    push t (U_absorb batch)
  end

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
          t.id2slot.(s.id) <- !w;
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
  push t (U_replace (slot, old, s));
  t.slots.(slot) <- Some s;
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
        unindex l s;
        dirty_layer t l;
        push t (U_remove (slot, s))
    | None -> ());
    t.slots.(slot) <- None;
    t.id2slot.(id) <- -1;
    t.live <- t.live - 1;
    maybe_squeeze t
  end

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

let layer_hull l =
  match l.hull with
  | Some b -> b
  | None ->
      let b = Sindex.bbox l.ix in
      l.hull <- Some b;
      b

let bbox_on t layer =
  match Hashtbl.find_opt t.by_layer layer with
  | None -> None
  | Some l -> layer_hull l

let bbox t =
  match t.bb with
  | Some b -> b
  | None ->
      let b =
        Hashtbl.fold
          (fun _ l acc ->
            match (layer_hull l, acc) with
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
  let shift = Option.map (Option.map (fun r -> Rect.translate r ~dx ~dy)) in
  Hashtbl.iter
    (fun _ l ->
      Sindex.translate_all l.ix ~dx ~dy;
      l.hull <- shift l.hull)
    t.by_layer;
  t.bb <- shift t.bb

let no_snapshots t op =
  if journaling t then
    Fmt.invalid_arg "Lobj.%s: %s has a live snapshot (not journalable)" op t.name

(* Arbitrary orientations invalidate the binning wholesale: rebuild.  The
   rebuild re-enters every layer, so the first-use order is saved and
   restored over it (minus layers the rebuild left out, which held no
   shape). *)
let transform t tr =
  no_snapshots t "transform";
  map_shapes_in_place t (fun s -> Shape.transform s tr);
  t.ports <- List.map (fun p -> Port.transform p tr) t.ports;
  let order = t.layer_order in
  Hashtbl.reset t.by_layer;
  t.bb <- None;
  t.layer_order <- [];
  for i = 0 to t.n_slots - 1 do
    match t.slots.(i) with
    | Some s -> index (layer_of t s.layer) s
    | None -> ()
  done;
  t.layer_order <- List.filter (Hashtbl.mem t.by_layer) order

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
    id2slot = Array.copy t.id2slot;
    by_layer;
    layer_order = t.layer_order;
    bb = t.bb;
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
      unplace t (layer_of t s.layer) s;
      drop_last t 1
  | U_absorb batch ->
      (* Likewise the batch owns the last k slots. *)
      iter_runs t batch (fun l i j ->
          for n = i to j - 1 do
            unplace t l batch.(n)
          done);
      drop_last t (Array.length batch)
  | U_remove (slot, s) ->
      t.slots.(slot) <- Some s;
      t.id2slot.(s.id) <- slot;
      t.live <- t.live + 1;
      index (layer_of t s.layer) s
  | U_replace (slot, old, s) ->
      t.slots.(slot) <- Some old;
      reindex t s old
  | U_translate (dx, dy) ->
      map_shapes_in_place t (fun s -> Shape.translate s ~dx:(-dx) ~dy:(-dy));
      Hashtbl.iter (fun _ l -> Sindex.translate_all l.ix ~dx:(-dx) ~dy:(-dy)) t.by_layer
  | U_new_layer layer ->
      (* Every insert into the fresh index came after its creation, so it
         has already been unwound; the index is empty. *)
      Hashtbl.remove t.by_layer layer

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
  Hashtbl.iter (fun _ l -> l.hull <- None) t.by_layer

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

(* Merge [src] into [t], renumbering ids; returns the id offset applied.
   The renumbered shapes are entered as one batch. *)
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
  (* [Array.init] fills in index order: the live shapes in slot order. *)
  let next = ref 0 in
  let rec next_live () =
    let i = !next in
    incr next;
    match src.slots.(i) with Some s -> bump s | None -> next_live ()
  in
  enter_batch t (Array.init src.live (fun _ -> next_live ()));
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
