(* Optimal slicing floorplans by dynamic programming over block subsets.

   The paper's amplifier was floorplanned by hand; this is the automated
   option: every way of packing a set of blocks that can be expressed as
   recursive horizontal/vertical cuts (a slicing tree) is explored by
   combining, for every subset of blocks, the Pareto-optimal (w, h)
   shapes of its two-part splits.  For the block counts a module
   generator sees (≤ ~10) the exact optimum is cheap.

   Shapes are Pareto-pruned: a candidate (w, h) survives only if no other
   candidate is at most as wide AND at most as tall. *)

module Rect = Amg_geometry.Rect
module Env = Amg_core.Env

type block = { fp_name : string; fp_w : int; fp_h : int }

let block ~name ~w ~h =
  if w <= 0 || h <= 0 then Env.reject "Floorplan.block: non-positive size";
  { fp_name = name; fp_w = w; fp_h = h }

type tree =
  | Leaf of int            (* block index *)
  | Beside of tree * tree  (* vertical cut: left | right *)
  | Above of tree * tree   (* horizontal cut: upper / lower *)

type shape = { sh_w : int; sh_h : int; sh_tree : tree }

(* Keep only Pareto-optimal shapes (no other shape dominates). *)
let pareto shapes =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.sh_w b.sh_w with 0 -> compare a.sh_h b.sh_h | c -> c)
      shapes
  in
  (* After sorting by width, a shape survives iff its height beats every
     earlier (narrower-or-equal) shape. *)
  let _, front =
    List.fold_left
      (fun (best_h, acc) s ->
        if s.sh_h < best_h then (s.sh_h, s :: acc) else (best_h, acc))
      (max_int, []) sorted
  in
  List.rev front

(* All Pareto shapes of every subset, bottom-up over the subset lattice. *)
let shapes_by_subset ?(spacing = 0) blocks =
  let n = Array.length blocks in
  if n > 14 then Env.reject "Floorplan: too many blocks (max 14)";
  let table = Array.make (1 lsl n) [] in
  for i = 0 to n - 1 do
    table.(1 lsl i) <-
      [ { sh_w = blocks.(i).fp_w; sh_h = blocks.(i).fp_h; sh_tree = Leaf i } ]
  done;
  for set = 1 to (1 lsl n) - 1 do
    if table.(set) = [] && set land (set - 1) <> 0 then begin
      (* Enumerate proper sub-splits; visiting each unordered pair once. *)
      let acc = ref [] in
      let sub = ref ((set - 1) land set) in
      while !sub > 0 do
        let rest = set lxor !sub in
        if !sub < rest then begin
          let combine a b =
            [
              { sh_w = a.sh_w + b.sh_w + spacing;
                sh_h = Int.max a.sh_h b.sh_h;
                sh_tree = Beside (a.sh_tree, b.sh_tree) };
              { sh_w = Int.max a.sh_w b.sh_w;
                sh_h = a.sh_h + b.sh_h + spacing;
                sh_tree = Above (a.sh_tree, b.sh_tree) };
            ]
          in
          List.iter
            (fun a ->
              List.iter (fun b -> acc := combine a b @ !acc) table.(rest))
            table.(!sub)
        end;
        sub := (!sub - 1) land set
      done;
      table.(set) <- pareto !acc
    end
  done;
  table

type result = {
  width : int;
  height : int;
  area : int;
  positions : (string * Rect.t) list;  (* block name -> placed rectangle *)
}

(* Recover placements by walking the tree. *)
let positions ~spacing blocks tree =
  let rec dims = function
    | Leaf i -> (blocks.(i).fp_w, blocks.(i).fp_h)
    | Beside (a, b) ->
        let wa, ha = dims a and wb, hb = dims b in
        (wa + wb + spacing, Int.max ha hb)
    | Above (a, b) ->
        let wa, ha = dims a and wb, hb = dims b in
        (Int.max wa wb, ha + hb + spacing)
  in
  let out = ref [] in
  let rec place t ~x ~y =
    match t with
    | Leaf i ->
        out :=
          ( blocks.(i).fp_name,
            Rect.of_size ~x ~y ~w:blocks.(i).fp_w ~h:blocks.(i).fp_h )
          :: !out
    | Beside (a, b) ->
        let wa, _ = dims a in
        place a ~x ~y;
        place b ~x:(x + wa + spacing) ~y
    | Above (a, b) ->
        let _, hb = dims b in
        place b ~x ~y;
        place a ~x ~y:(y + hb + spacing)
  in
  place tree ~x:0 ~y:0;
  (dims tree, List.rev !out)

let optimize ?(spacing = 0) ?aspect blocks =
  if blocks = [] then Env.reject "Floorplan: no blocks";
  let arr = Array.of_list blocks in
  let table = shapes_by_subset ~spacing arr in
  let full = table.((1 lsl Array.length arr) - 1) in
  let cost s =
    let area = float_of_int s.sh_w *. float_of_int s.sh_h in
    match aspect with
    | None -> area
    | Some target ->
        let r = float_of_int s.sh_w /. float_of_int s.sh_h in
        let p = if r > target then r /. target else target /. r in
        area *. p
  in
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when cost b <= cost s -> acc
        | _ -> Some s)
      None full
  in
  match best with
  | None -> Env.reject "Floorplan: no feasible shape"
  | Some s ->
      let (w, h), pos = positions ~spacing arr s.sh_tree in
      { width = w; height = h; area = w * h; positions = pos }

(* The baseline the amplifier uses: one row of blocks per group, rows
   stacked — for the ablation comparison. *)
let rows_area ?(spacing = 0) rows =
  let row_dims blocks =
    List.fold_left
      (fun (w, h) b -> (w + b.fp_w + (if w = 0 then 0 else spacing), Int.max h b.fp_h))
      (0, 0) blocks
  in
  let w, h =
    List.fold_left
      (fun (w, h) row ->
        let rw, rh = row_dims row in
        (Int.max w rw, h + rh + (if h = 0 then 0 else spacing)))
      (0, 0) rows
  in
  w * h
