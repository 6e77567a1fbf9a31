module Rect = Amg_geometry.Rect
module Rules = Amg_tech.Rules

type array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

type memo = {
  rules : Rules.t;
  containers : (string * Rect.t) list;
  cuts : Rect.t array;
  hull : Rect.t;
}

type entry = {
  aid : int;
  origin : Shape.origin;
  spec : array_spec;
  memo : memo option;
}

type block = {
  memo : memo;
  dx : int;
  dy : int;
  base : int;
  layer : string;
  net : string option;
  origin : Shape.origin;
}

type cell =
  | Free
  | One of Shape.t
  | Block of block
  | Cuts of { base : int; recs : Shape.t option array; block : block option }

type t = { entries : entry list; blocks : int list }

let empty = { entries = []; blocks = [] }

(* --- blocks --- *)

let size b = Array.length b.memo.cuts

let cut b j =
  let r = b.memo.cuts.(j) in
  {
    Shape.id = b.base + j;
    layer = b.layer;
    rect = (if b.dx = 0 && b.dy = 0 then r else Rect.translate r ~dx:b.dx ~dy:b.dy);
    net = b.net;
    sides = Edge.all_fixed;
    keep_clear = false;
    origin = b.origin;
  }

let expand b = Array.init (size b) (fun j -> Some (cut b j))
let shift b ~dx ~dy = { b with dx = b.dx + dx; dy = b.dy + dy }

let iter_records f = function
  | Free | Block _ -> ()
  | One s -> f s
  | Cuts { recs; _ } -> Array.iter (Option.iter f) recs

let block_of e m ~base =
  {
    memo = m;
    dx = 0;
    dy = 0;
    base;
    layer = e.spec.cut_layer;
    net = e.spec.array_net;
    origin = e.origin;
  }

(* --- the registry --- *)

let in_order reg = List.rev reg.entries

let register reg ~aid spec =
  { reg with entries = { aid; origin = Shape.Array_member aid; spec; memo = None } :: reg.entries }

let specs reg = List.rev_map (fun e -> (e.aid, e.spec)) reg.entries

(* [f] of every entry with shape [id] among its containers, in
   registration order. *)
let of_container reg id f =
  List.fold_left
    (fun acc e -> if List.mem id e.spec.container_ids then f e :: acc else acc)
    [] reg.entries

let starved reg ~container ~members =
  List.exists
    (fun e ->
      List.mem container e.spec.container_ids
      &&
      match (e : entry).memo with
      | Some m -> Array.length m.cuts = 0
      | None -> members e.aid = 0)
    reg.entries

let rec find_entry aid = function
  | [] -> None
  | e :: es -> if e.aid = aid then Some e else find_entry aid es

let origin_of reg aid =
  match find_entry aid reg.entries with Some e -> e.origin | None -> Shape.Array_member aid

let is_member reg (s : Shape.t) =
  match s.origin with
  | Shape.User -> false
  | Shape.Array_member a -> Option.is_some (find_entry a reg.entries)

let map_nets reg f =
  {
    reg with
    entries =
      List.map
        (fun e ->
          let net = f e.spec.array_net in
          if net == e.spec.array_net then e else { e with spec = { e.spec with array_net = net } })
        reg.entries;
  }

let absorb reg src ~offset =
  let renumber e =
    let aid = e.aid + offset in
    {
      e with
      aid;
      origin = Shape.Array_member aid;
      spec = { e.spec with container_ids = List.map (fun i -> i + offset) e.spec.container_ids };
    }
  in
  let rec go = function [] -> reg.entries | e :: es -> renumber e :: go es in
  { reg with entries = go src.entries }

(* Does every container of the array still have the layer and rect the
   memo derived from? *)
let rec same_containers container ids (containers : (string * Rect.t) list) =
  match (ids, containers) with
  | [], [] -> true
  | id :: ids, (layer, rect) :: containers ->
      let l, r = container id in
      (l == layer || String.equal l layer)
      && Rect.equal r rect
      && same_containers container ids containers
  | _ -> false

(* The entry with a memo of the current derivation: itself when its memo
   still holds, else a new entry whose cuts [Derive.cut_array] derived. *)
let derived rules container (e : entry) =
  match e.memo with
  | Some m when m.rules == rules && same_containers container e.spec.container_ids m.containers -> e
  | _ ->
      Amg_obs.Obs.count "lobj.cut_array_derivations" 1;
      let containers = List.map container e.spec.container_ids in
      let cuts = Array.of_list (Derive.cut_array rules ~containers ~cut_layer:e.spec.cut_layer) in
      let hull = if Array.length cuts = 0 then Rect.make ~x0:0 ~y0:0 ~x1:0 ~y1:0 else cuts.(0) in
      let hull = Array.fold_left Rect.hull hull cuts in
      { e with memo = Some { rules; containers; cuts; hull } }

(* [derived] over the entries; the list itself when no entry changed. *)
let rec derive_all rules container = function
  | [] -> []
  | e :: rest as l ->
      let e' = derived rules container e in
      let rest' = derive_all rules container rest in
      if e' == e && rest' == rest then l else e' :: rest'

let derive reg rules ~container = { reg with entries = derive_all rules container reg.entries }

(* --- the invariant --- *)

let check reg ~n_slots ~cell ~next_id ~slot_of =
  let fail fmt = Fmt.kstr failwith ("Cut_arrays.check: " ^^ fmt) in
  List.iter
    (fun (e : entry) ->
      (match e.origin with
      | Shape.Array_member a when a = e.aid -> ()
      | _ -> fail "array %d: origin is not its own" e.aid);
      if List.length (List.filter (fun (e' : entry) -> e'.aid = e.aid) reg.entries) <> 1 then
        fail "array %d registered twice" e.aid)
    reg.entries;
  let multi = ref [] and owners = ref [] and ranges = ref [] in
  let owned slot b =
    match
      List.find_opt
        (fun (e : entry) ->
          e.origin == b.origin && match e.memo with Some m -> m == b.memo | None -> false)
        reg.entries
    with
    | None -> fail "slot %d: a block of no registered array, or not of its memo" slot
    | Some e ->
        if List.memq e !owners then fail "array %d has two blocks" e.aid;
        owners := e :: !owners;
        if
          not
            (String.equal b.layer e.spec.cut_layer
            && Option.equal String.equal b.net e.spec.array_net)
        then fail "slot %d: block layer or net differs from array %d" slot e.aid
  in
  for i = 0 to n_slots - 1 do
    match cell i with
    | Free -> ()
    | One s ->
        if slot_of s.Shape.id <> i then fail "id %d: not found at slot %d" s.id i;
        if is_member reg s then fail "member %d outside a block" s.id
    | Block b ->
        multi := i :: !multi;
        owned i b;
        ranges := (b.base, size b) :: !ranges;
        for j = 0 to size b - 1 do
          if slot_of (b.base + j) >= 0 then fail "pending cut %d has a slot" (b.base + j)
        done
    | Cuts { base; recs; block } ->
        multi := i :: !multi;
        ranges := (base, Array.length recs) :: !ranges;
        if Array.for_all Option.is_none recs then fail "slot %d: no record left" i;
        Array.iteri
          (fun j r ->
            let found = slot_of (base + j) in
            match r with
            | None -> if found >= 0 then fail "removed id %d is found" (base + j)
            | Some (s : Shape.t) ->
                if s.id <> base + j || found <> i then fail "id %d: not at slot %d" (base + j) i)
          recs;
        Option.iter
          (fun b ->
            owned i b;
            if not (b.base = base && Array.for_all2 (Option.equal Shape.equal) recs (expand b))
            then fail "slot %d: records differ from the block's cuts" i)
          block
  done;
  if not (List.equal Int.equal (List.sort Int.compare !multi) (List.sort Int.compare reg.blocks))
  then fail "the block list is not the slots of the blocks";
  ignore
    (List.fold_left
       (fun hi (base, k) ->
         if base < hi || base + k > next_id then
           fail "cut ids %d..%d overlap or pass the bound" base (base + k - 1);
         base + k)
       0
       (List.sort (fun (a, _) (b, _) -> Int.compare a b) !ranges))
