(* Compaction-order optimization (§2.4).

   "The result of the … compaction method depends on the compaction order,
   because one object could have a different minimum distance to a
   structure if another object was compacted previously.  To find the
   optimal solution, the compactor can be used in an optimization mode.  In
   this mode all different variations are generated by altering the order
   of the compacted objects."

   Every search below fans its candidate evaluations (full independent
   layout rebuilds) out over a domain pool.  Determinism contract: results
   are collected in canonical candidate order and reduced with strict
   comparisons, so the chosen winner — rating, order and the layout bytes —
   is identical for every domain count, including 1.  Workers only mutate
   fresh [Lobj.copy]s; shared step objects are read-only (see Pool's
   concurrency contract). *)

module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Port = Amg_layout.Port
module Successive = Amg_compact.Successive
module Pool = Amg_parallel.Pool
module Obs = Amg_obs.Obs
module Budget = Amg_robust.Budget

type step = {
  uid : int;
  obj : Lobj.t;
  dir : Dir.t;
  ignore_layers : string list;
  align : Successive.align;
  variable_edges : bool;
}

(* Step identity: two [step] values never share a uid, so a search that
   holds the steps in another order can still look each one up (the
   symmetry classes are keyed by it). *)
let uid_counter = Atomic.make 0

let step ?(ignore_layers = []) ?(align = (`Keep : Successive.align))
    ?(variable_edges = true) obj dir =
  let uid = Atomic.fetch_and_add uid_counter 1 in
  { uid; obj; dir; ignore_layers; align; variable_edges }

let apply_step env main s =
  Successive.compact ~rules:(Env.rules env) ~into:main
    ~ignore_layers:s.ignore_layers ~align:s.align
    ~variable_edges:s.variable_edges (Lobj.copy s.obj) s.dir

(* Execute one order: fresh main object (or a copy of [base], for replaying
   orders recorded from a language build whose entity placed shapes before
   its first compact), each step compacts a fresh copy of its object
   (generation stays repeatable across orders). *)
let apply ?base env ~name steps =
  let main =
    match base with None -> Lobj.create name | Some b -> Lobj.copy ~name b
  in
  List.iter (apply_step env main) steps;
  main

(* Lazy permutations, so capping the searched orders costs nothing. *)
let rec permutations : 'a list -> 'a list Seq.t = function
  | [] -> Seq.return []
  | xs ->
      List.to_seq xs
      |> Seq.concat_map (fun x ->
             let rest = List.filter (fun y -> y != x) xs in
             Seq.map (fun p -> x :: p) (permutations rest))

(* --- mover symmetry classes ---------------------------------------------

   Two steps are equivalent when one is the other with its private nets
   renamed (the rule is in the interface).  The key also holds the layer
   order and the id bound, which [absorb] carries into later ids; the
   object name only labels diagnostics.  Because the renamed nets occur
   nowhere else and are not rated, and the compactor and the rating read
   nets only through equality, swapping two equivalent steps anywhere in
   an order yields the same geometry under a net bijection: the same
   rating, or the same rejection (DESIGN §7).  Under the permissive policy
   a placement may report a diagnostic naming its object, so every step
   keeps its own class and every candidate is still built and reported. *)

let step_classes ?base ?(rating = Rating.default) steps =
  let arr = Array.of_list steps in
  let n = Array.length arr in
  if Amg_robust.Policy.permissive () then Array.init n Fun.id
  else begin
    let obj_nets o =
      List.filter_map (fun (sh : Shape.t) -> sh.net) (Lobj.shapes o)
      @ List.map (fun (p : Port.t) -> p.net) (Lobj.ports o)
      @ List.filter_map (fun (_, a) -> a.Lobj.array_net) (Lobj.array_specs o)
    in
    let nets = Array.map (fun s -> obj_nets s.obj) arr in
    (* net -> [Some i] while only step i carries it, [None] once shared *)
    let owner = Hashtbl.create 16 in
    Option.iter
      (fun b -> List.iter (fun net -> Hashtbl.replace owner net None) (obj_nets b))
      base;
    Array.iteri
      (fun i ns ->
        List.iter
          (fun net ->
            match Hashtbl.find_opt owner net with
            | None -> Hashtbl.replace owner net (Some i)
            | Some (Some j) when j = i -> ()
            | Some _ -> Hashtbl.replace owner net None)
          ns)
      nets;
    let is_private i =
      List.for_all
        (fun net ->
          Hashtbl.find owner net = Some i
          && not (List.mem net rating.Rating.sensitive_nets))
        nets.(i)
    in
    let key s =
      let names = Hashtbl.create 8 in
      let rename net =
        match Hashtbl.find_opt names net with
        | Some k -> k
        | None ->
            let k = string_of_int (Hashtbl.length names) in
            Hashtbl.add names net k;
            k
      in
      let o = s.obj in
      (* [List.map] applies in list order, so indices follow first use. *)
      let shapes =
        List.map (fun (sh : Shape.t) -> Shape.with_net sh (Option.map rename sh.net))
          (Lobj.shapes o)
      in
      let ports = List.map (fun (p : Port.t) -> { p with net = rename p.net }) (Lobj.ports o) in
      let arrays =
        List.map
          (fun (id, a) -> (id, { a with Lobj.array_net = Option.map rename a.Lobj.array_net }))
          (Lobj.array_specs o)
      in
      ( (s.dir, s.align, s.ignore_layers, s.variable_edges),
        (Lobj.layers o, Lobj.id_bound o),
        (shapes, ports, arrays) )
    in
    let keys = Array.mapi (fun i s -> if is_private i then Some (key s) else None) arr in
    Array.init n (fun i ->
        match keys.(i) with
        | None -> i
        | Some _ as k ->
            let rec first j = if j = i || keys.(j) = k then j else first (j + 1) in
            first 0)
  end

(* [step_classes] keyed by uid, for searches that hold the steps in some
   other order than the given one. *)
let class_lookup ?base ~rating steps =
  let classes = step_classes ?base ~rating steps in
  let by_uid = Hashtbl.create (Array.length classes) in
  List.iteri (fun i s -> Hashtbl.replace by_uid s.uid classes.(i)) steps;
  fun s -> Hashtbl.find by_uid s.uid

(* --- the incumbent: the one layout a search keeps ----------------------

   A search returns one layout, so it keeps one.  Each candidate is offered
   to a shared cell the moment it is rated; the cell holds the least
   (rating, canonical index) offered so far, and a candidate that does not
   displace it is dropped there, so its layout dies young instead of being
   promoted and traced by the major GC.  The least pair is the first
   minimum in canonical order, which is exactly what a strict-[<] fold over
   the collected candidates picks; it does not depend on which domain
   offered first, so the determinism contract holds. *)
type 'a best = { rating : float; index : int; value : 'a }

let offer cell ~rating ~index value =
  let rec go () =
    let cur = Atomic.get cell in
    let better =
      match cur with
      | None -> true
      | Some b -> rating < b.rating || (rating = b.rating && index < b.index)
    in
    if
      better
      && not (Atomic.compare_and_set cell cur (Some { rating; index; value }))
    then go ()
  in
  go ()

(* Budgeted evaluation batch size.  A constant (never derived from the pool
   size) so the batch boundaries — the only places the budget can stop a
   deterministic run — are identical for every domain count. *)
let batch_size = 16

(* Build and rate every order (up to [max_orders]) on the pool, handing
   each result to [keep index order main rating]; orders whose generation
   is rejected are skipped.  Returns what [keep] kept, in exploration
   (canonical permutation) order regardless of scheduling.  The walk is
   shared by [evaluate_orders], which keeps every result, and [optimize],
   which keeps only the incumbent. *)
let rate_orders env ~name ?base ~rating ~max_orders ?domains ?budget steps
    keep =
  Obs.span "optimize.evaluate_orders" @@ fun () ->
  let orders =
    permutations steps |> Seq.take max_orders |> Array.of_seq
    |> Array.mapi (fun i order -> (i, order))
  in
  let eval (i, order) =
    match apply ?base env ~name order with
    | main ->
        Obs.count "optimize.orders_ok" 1;
        keep i order main (Rating.rate env rating main)
    | exception Env.Rejected _ ->
        Obs.count "optimize.orders_rejected" 1;
        None
  in
  Pool.with_pool ?domains (fun pool ->
      match budget with
      | None -> Pool.map_array pool eval orders |> Array.to_list
      | Some b ->
          (* Batches walk the canonical permutation order; batch 0 is the
             canonical order alone and runs unconditionally (and without the
             cancellation flag), so a best-so-far candidate always exists.
             The budget is only consulted at batch boundaries; with an
             injected clock nothing can stop a batch midway, which makes the
             degraded result a pure function of the budget parameters —
             identical for every domain count.  Under a real wall-clock
             deadline tasks also poll the deadline themselves, so a batch can
             be cut short; completed slots are still in canonical order. *)
          let total = Array.length orders in
          let out = ref [] in
          let pos = ref 0 in
          let stop = ref false in
          while (not !stop) && !pos < total do
            let want = if !pos = 0 then 1 else min batch_size (total - !pos) in
            let want =
              (* Trim the last batch to the eval cap instead of refusing it:
                 [--max-evals 10] means 10 evaluations, not 1. *)
              match Budget.remaining_evals b with
              | Some r when !pos > 0 -> min want r
              | _ -> want
            in
            Budget.poll b;
            if !pos > 0 && (want = 0 || Budget.stopped b) then begin
              Budget.mark_degraded b;
              stop := true
            end
            else begin
              let batch = Array.sub orders !pos want in
              let task order =
                Budget.spend b 1;
                eval order
              in
              let results =
                if !pos = 0 then
                  Array.map Option.some (Pool.map_array pool task batch)
                else
                  Pool.map_array_cancel pool ~cancel:(Budget.task_cancel b)
                    task batch
              in
              Array.iter
                (function
                  | Some r -> out := r :: !out
                  | None ->
                      (* Skipped by a mid-batch wall-clock cancellation. *)
                      Budget.mark_degraded b)
                results;
              pos := !pos + want
            end
          done;
          if !pos < total then Budget.mark_degraded b;
          List.rev !out)
  |> List.filter_map Fun.id

let evaluate_orders env ~name ?base ?(rating = Rating.default)
    ?(max_orders = 720) ?domains ?budget steps =
  rate_orders env ~name ?base ~rating ~max_orders ?domains ?budget steps
    (fun _ order main r -> Some (main, r, order))

(* --- durable store seeding (ROADMAP item 4) ----------------------------

   A [?store] handle is [(store, key)]: the key identifies the module
   instance (tech fingerprint + entity + canonical params, see
   [Amg_store.Store.signature]); the search strategy and every parameter
   that can change its result (max_orders, restarts, seed) are appended
   here, so a stored order always replays to the exact bytes the same
   search would have produced.  Two further guards protect byte-identity
   with a store-less run: the store is consulted only for unbudgeted
   searches with the default rating (a budgeted or custom-rated run may
   legitimately settle for a different order), and written back only when
   the search was not degraded.  A hit replays the stored permutation
   with [apply] — one rebuild instead of a search — and re-rates it, so
   even the returned rating is computed, never trusted from disk.
   A stored record whose permutation no longer matches the step count
   (the module definition changed under the same key) is diagnosed as
   [store.stale_record] and ignored. *)

module Store = Amg_store.Store

let store_mode_key key mode = key ^ "|m=" ^ mode

(* A stored permutation is usable only if it is a bijection on exactly
   the current step list — anything else means the module definition
   changed under the same key. *)
let perm_is_bijection perm n =
  Array.length perm = n
  &&
  let seen = Array.make (max n 1) false in
  Array.for_all
    (fun i ->
      i >= 0 && i < n && (not seen.(i))
      &&
      (seen.(i) <- true;
       true))
    perm

let store_lookup env ~name ~base ~rating ~mode store steps =
  let st, key = store in
  if rating != Rating.default then None
  else
    match Store.find st (store_mode_key key mode) with
    | None -> None
    | Some e -> (
        let n = List.length steps in
        let arr = Array.of_list steps in
        let valid = perm_is_bijection e.Store.perm n in
        if not valid then begin
          Amg_robust.Policy.report
            (Amg_robust.Diag.v ~severity:Amg_robust.Diag.Warning
               Amg_robust.Diag.Store ~code:"store.stale_record"
               ~payload:
                 [
                   ("mode", mode);
                   ("stored", string_of_int (Array.length e.Store.perm));
                   ("steps", string_of_int n);
                 ]
               ~hint:"the module definition changed; the record will be replaced by the next search"
               "stored order does not match the step list; ignoring it");
          None
        end
        else
          let order = Array.to_list (Array.map (fun i -> arr.(i)) e.Store.perm) in
          match apply ?base env ~name order with
          | main ->
              Obs.count "optimize.store_hits" 1;
              Some (main, Rating.rate env rating main, order)
          | exception Env.Rejected _ -> None)

let store_record ~budget ~rating ~mode store steps r order =
  match store with
  | None -> ()
  | Some (st, key) ->
      let degraded =
        match budget with Some b -> Budget.degraded b | None -> false
      in
      if (not degraded) && rating == Rating.default then begin
        let arr = Array.of_list steps in
        let index s =
          let rec go i =
            if i >= Array.length arr then -1
            else if arr.(i) == s then i
            else go (i + 1)
          in
          go 0
        in
        let perm = Array.of_list (List.map index order) in
        if Array.for_all (fun i -> i >= 0) perm then
          (* Keep the incumbent only when it is still valid for this
             step list *and* rates no worse: a racing search that landed
             a strictly-better record first must not be clobbered, while
             a stale record (the module definition changed) is replaced
             even by a worse-rated valid one.  The test-and-write is
             atomic under the store's handle lock. *)
          let n = Array.length arr in
          ignore
            (Store.record_if st (store_mode_key key mode)
               ~keep:(fun old ->
                 perm_is_bijection old.Store.perm n && old.Store.rating <= r)
               {
                 Store.rating = r;
                 perm;
                 meta = [ ("mode", mode); ("n", string_of_int n) ];
               })
      end

let store_hit env ~name ~base ~rating ~budget ~mode store steps =
  match (store, budget) with
  | Some store, None -> store_lookup env ~name ~base ~rating ~mode store steps
  | _ -> None

let optimize env ~name ?base ?(rating = Rating.default) ?(max_orders = 720)
    ?domains ?budget ?store steps =
  let mode = Printf.sprintf "orders:%d" max_orders in
  match store_hit env ~name ~base ~rating ~budget ~mode store steps with
  | Some hit -> hit
  | None -> (
      (* Ratings only: every order but the incumbent drops its layout as
         soon as it is rated, so at most one layout per participant is
         alive beside the incumbent instead of all [max_orders]. *)
      let cell = Atomic.make None in
      rate_orders env ~name ?base ~rating ~max_orders ?domains ?budget steps
        (fun index order main r ->
          offer cell ~rating:r ~index (main, order);
          None)
      |> ignore;
      match Atomic.get cell with
      | None -> Env.reject "Optimize.optimize: every order was rejected"
      | Some { rating = br; value = main, border; _ } ->
          store_record ~budget ~rating ~mode store steps br border;
          (main, br, border))

(* Branch-and-bound over orders: placing an object never shrinks the
   bounding box and every rating term is non-negative, so
   [area_weight * partial_bbox_area] is a sound lower bound on any
   completion of a partial order — and it can be strengthened: a [`Keep]
   step's object is only ever translated, shrunk and stretched along its
   movement axis, so its cross-axis span at its original coordinates must
   appear in any completed layout.  Hulling those spans into the partial
   bounding box bounds completions of the *remaining* work before placing
   it, pruning whole subtrees at node entry.  Prunes most of the n! tree
   while returning the same optimum as the exhaustive search.

   Only class-canonical orders are visited (see [step_classes]): the
   lexicographically first optimum this search returns never places a
   step after an equivalent step with a higher index.

   Parallel decomposition: one independent sub-search per class-canonical
   first step, each seeded with the rating of the canonical (given) order
   as its initial incumbent.  Sub-searches never exchange incumbents, so
   each explores a deterministic node set; the merge folds [seed; subtree 0; subtree 1; …]
   with strict [<], which picks the same winner the incumbent-sharing
   sequential search picks (a tied optimum found later never displaces an
   earlier one either way).  Node counts are the sum over sub-searches —
   deterministic and identical for every domain count.

   Each child extends its parent's layout: a copy of the parent plus one
   placement, so a node costs one placement whatever its depth. *)
let optimize_bb env ~name ?base ?(rating = Rating.default) ?domains ?budget
    ?store steps =
  Obs.span "optimize.bb" @@ fun () ->
  match store_hit env ~name ~base ~rating ~budget ~mode:"bb" store steps with
  | Some (main, r, order) -> (main, r, order, 0)
  | None ->
  (* Sampled once, so every node of this search agrees on the bound. *)
  let strengthen = not (Amg_robust.Policy.permissive ()) in
  (* The children worth expanding: the first unplaced step of each
     symmetry class.  [remaining] is in canonical order, so a step with an
     unplaced class-mate before it is skipped — its subtree holds the same
     layouts under renamed nets, and the lexicographically first optimum
     bb returns is always class-canonical. *)
  let class_of = class_lookup ?base ~rating steps in
  let movers remaining =
    let rec go seen = function
      | [] -> []
      | s :: tl ->
          let c = class_of s in
          if List.mem c seen then go seen tl else s :: go (c :: seen) tl
    in
    go [] remaining
  in
  (* Admissible completion bound for a partial layout with [remaining]
     steps still to place (see the header comment; only sound under the
     strict policy — permissive mode may skip an object entirely). *)
  let completion_bound bbox remaining =
    match (bbox : Rect.t option) with
    | None -> 0.
    | Some b ->
        let x0 = ref b.Rect.x0
        and x1 = ref b.Rect.x1
        and y0 = ref b.Rect.y0
        and y1 = ref b.Rect.y1 in
        if strengthen then
          List.iter
            (fun s ->
              if s.align = `Keep then
                match Lobj.bbox s.obj with
                | Some ob -> (
                    match Dir.axis s.dir with
                    | Dir.Vertical ->
                        (* Moves along y; its x extent survives. *)
                        x0 := min !x0 ob.Rect.x0;
                        x1 := max !x1 ob.Rect.x1
                    | Dir.Horizontal ->
                        y0 := min !y0 ob.Rect.y0;
                        y1 := max !y1 ob.Rect.y1)
                | None -> ())
            remaining;
        rating.Rating.area_weight
        *. (float_of_int ((!x1 - !x0) * (!y1 - !y0)) /. 1.0e6)
  in
  let fresh_main () =
    match base with None -> Lobj.create name | Some b -> Lobj.copy ~name b
  in
  (* A child: its parent's layout (a fresh main at the root) plus [s]. *)
  let extend parent s =
    let m = match parent with None -> fresh_main () | Some p -> Lobj.copy p in
    apply_step env m s;
    m
  in
  let cancel =
    match budget with None -> fun () -> false | Some b -> Budget.task_cancel b
  in
  (* Sequential sub-search below a fixed prefix.  [incumbent] is a rating
     value only; the candidate it belongs to is merged by the caller.
     [quota] caps the nodes this sub-search may visit: the cut point is a
     pure function of the node budget, so a quota-truncated sub-search
     explores the same deterministic DFS prefix for every domain count, and
     its best-within-prefix is deterministic too.  [cancel] additionally
     stops mid-search on a real wall-clock deadline (best-effort). *)
  let subtree ~incumbent ~quota main placed remaining =
    let best = ref None in
    let nodes = ref 0 in
    let complete = ref true in
    let br () =
      match (!best, incumbent) with
      | Some (_, r, _), Some r0 -> Some (min r r0)
      | Some (_, r, _), None -> Some r
      | None, inc -> inc
    in
    let over_quota () =
      match quota with Some q -> !nodes >= q | None -> false
    in
    let rec go main placed remaining =
      if !complete then
        if over_quota () || cancel () then complete := false
        else begin
          incr nodes;
          match remaining with
          | [] -> (
              let r = Rating.rate env rating main in
              match br () with
              | Some b when b <= r -> ()
              | _ -> best := Some (main, r, List.rev placed))
          | _ ->
              (* Node-entry prune: the completion bound already covers the
                 remaining movers' spans, so when it cannot beat the
                 incumbent the whole subtree goes without a placement. *)
              let prune_all =
                match br () with
                | Some b -> completion_bound (Lobj.bbox main) remaining >= b
                | None -> false
              in
              if prune_all then Obs.count "optimize.bb_pruned_by_bound" 1
              else
                List.iter
                  (fun s ->
                    if !complete then begin
                      let rest = List.filter (fun s' -> s' != s) remaining in
                      match extend (Some main) s with
                      | main' ->
                          let prune =
                            match br () with
                            | Some b ->
                                completion_bound (Lobj.bbox main') rest >= b
                            | None -> false
                          in
                          if prune then Obs.count "optimize.bb_pruned" 1
                          else go main' (s :: placed) rest
                      | exception Env.Rejected _ -> ()
                    end)
                  (movers remaining)
        end
    in
    go main placed remaining;
    (!best, !nodes, !complete)
  in
  match steps with
  | [] ->
      let main = fresh_main () in
      (main, Rating.rate env rating main, [], 1)
  | _ ->
      (* Seed incumbent: the canonical order, rated once up front.  It both
         bounds every sub-search and resolves rating ties in its favour (it
         is the first leaf of the canonical depth-first traversal) — and
         under a budget it is the guaranteed best-so-far fallback. *)
      let seed =
        match apply ?base env ~name steps with
        | main -> Some (main, Rating.rate env rating main, steps)
        | exception Env.Rejected _ -> None
      in
      let incumbent = Option.map (fun (_, r, _) -> r) seed in
      let firsts = Array.of_list (movers steps) in
      let n_firsts = Array.length firsts in
      (* Node quota per sub-search under an eval cap: a pure function of the
         cap and the class-canonical first steps, so the explored node set
         is identical for every domain count. *)
      let quota =
        match budget with
        | Some b -> (
            match Budget.remaining_evals b with
            | Some m -> Some (max 0 ((m - 1) / n_firsts))
            | None -> None)
        | None -> None
      in
      (match budget with Some b -> Budget.poll b | None -> ());
      let task s =
        let rest = List.filter (fun s' -> s' != s) steps in
        match extend None s with
        | main ->
            let prune =
              match incumbent with
              | Some b -> completion_bound (Lobj.bbox main) rest >= b
              | None -> false
            in
            if prune then begin
              Obs.count "optimize.bb_pruned" 1;
              (None, 1, true)
            end
            else
              let best, nodes, complete =
                subtree ~incumbent ~quota main [ s ] rest
              in
              (best, nodes + 1, complete)
        | exception Env.Rejected _ -> (None, 1, true)
      in
      let results =
        Pool.with_pool ?domains (fun pool ->
            match budget with
            | None -> Array.map Option.some (Pool.map_array pool task firsts)
            | Some b ->
                if Budget.stopped b || quota = Some 0 then
                  (* Nothing left for the sub-searches; fall back to the
                     seed without spinning up the job. *)
                  Array.map (fun _ -> None) firsts
                else
                  Pool.map_array_cancel pool ~cancel:(Budget.task_cancel b)
                    task firsts)
      in
      let incomplete_subtrees =
        Array.exists
          (function None -> true | Some (_, _, complete) -> not complete)
          results
      in
      let nodes =
        Array.fold_left
          (fun acc -> function Some (_, n, _) -> acc + n | None -> acc)
          1 results
      in
      Obs.count "optimize.bb_nodes" nodes;
      (match budget with
      | Some b ->
          Budget.spend b nodes;
          if incomplete_subtrees then Budget.mark_degraded b
      | None -> ());
      let best =
        Array.fold_left
          (fun acc cand ->
            match (acc, cand) with
            | acc, (None | Some (None, _, _)) -> acc
            | None, Some (c, _, _) -> c
            | Some (_, br, _), Some ((Some (_, r, _) as c), _, _) when r < br ->
                c
            | acc, _ -> acc)
          seed results
      in
      (match best with
      | Some (main, r, order) ->
          store_record ~budget ~rating ~mode:"bb" store steps r order;
          (main, r, order, nodes)
      | None -> Env.reject "Optimize.optimize_bb: every order was rejected")

(* Heuristic search for orders beyond exhaustive reach (n! explodes past
   ~8 objects): steepest-descent hill climbing over pairwise swaps, with
   deterministically shuffled restarts.  Each round evaluates the swap
   neighbourhood, less the swaps inside a symmetry class (fanned out over
   the pool), and takes the best improving candidate, ties broken by canonical (i, j) order — so the
   trajectory, and with it the result, is independent of the domain
   count.  Not guaranteed optimal, but every accepted move is a full
   rebuild-and-rate, so the result is always a real, valid layout. *)
let optimize_local env ~name ?base ?(rating = Rating.default) ?(restarts = 3)
    ?(seed = 1) ?domains ?budget ?store steps =
  Obs.span "optimize.local" @@ fun () ->
  let mode = Printf.sprintf "local:r%d:s%d" restarts seed in
  match store_hit env ~name ~base ~rating ~budget ~mode store steps with
  | Some (main, r, order) -> (main, r, order, 0)
  | None ->
  let evals = Atomic.make 0 in
  let spend () =
    ignore (Atomic.fetch_and_add evals 1);
    match budget with Some b -> Budget.spend b 1 | None -> ()
  in
  (* Budget check at a round/restart boundary, [cost] evaluations ahead.
     Eval caps refuse a round they cannot fully afford — rounds are all-or-
     nothing under a cap, so the trajectory stays a pure function of the
     budget parameters, independent of the domain count. *)
  let out_of_budget ~cost =
    match budget with
    | None -> false
    | Some b ->
        Budget.poll b;
        if Budget.stopped b || Budget.would_exceed b cost then begin
          Budget.stop b;
          Budget.mark_degraded b;
          true
        end
        else false
  in
  (* Every evaluation is a full rebuild of its order; it costs one [spend]
     whether it is accepted or not. *)
  let rate_order order =
    spend ();
    match apply ?base env ~name order with
    | main -> Some (main, Rating.rate env rating main)
    | exception Env.Rejected _ -> None
  in
  (* Deterministic LCG (Numerical Recipes constants) so results are
     reproducible; no global Random state touched. *)
  let state = ref (seed land 0x3FFFFFFF) in
  let next_int bound =
    state := ((!state * 1664525) + 1013904223) land 0x3FFFFFFF;
    !state mod bound
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = next_int (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let n = List.length steps in
  let swap order i j =
    let a = Array.of_list order in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    Array.to_list a
  in
  (* Swap (i, j) paired with its canonical index, the tie-break key. *)
  let swaps =
    Array.of_list
      (List.concat
         (List.init (max 0 (n - 1)) (fun i ->
              List.init (n - 1 - i) (fun k -> (i, i + 1 + k)))))
    |> Array.mapi (fun k ij -> (k, ij))
  in
  (* A swap inside a symmetry class rebuilds the current layout under
     renamed nets: it rates exactly the current rating and can never be
     accepted, so it is not rated.  Class sizes do not depend on the order,
     so every round rates the same number of swaps — the cost a capped
     round is charged. *)
  let class_of = class_lookup ?base ~rating steps in
  let rated_swaps order =
    let cls = Array.of_list (List.map class_of order) in
    Array.to_seq swaps
    |> Seq.filter (fun (_, (i, j)) -> cls.(i) <> cls.(j))
    |> Array.of_seq
  in
  let round_cost = Array.length (rated_swaps steps) in
  let climb pool start =
    match rate_order start with
    | None -> None
    | Some (main0, r0) ->
        let best = ref (main0, r0, start) in
        let improved = ref true in
        while !improved && not (out_of_budget ~cost:round_cost) do
          improved := false;
          let bmain, br, border = !best in
          let rated = rated_swaps border in
          (* Steepest descent, ties to the lowest (i, j): the round's cell
             starts at the current order under index -1, so only a
             candidate rated strictly below [br] can displace it, and the
             least (rating, swap index) among those wins — the candidate a
             strict-[<] fold over the canonical order would accept.  A
             candidate that cannot improve keeps nothing past its rating. *)
          let cell =
            Atomic.make
              (Some { rating = br; index = -1; value = (bmain, border) })
          in
          let candidate (k, (i, j)) =
            let cand = swap border i j in
            match rate_order cand with
            | Some (m, r) -> offer cell ~rating:r ~index:k (m, cand)
            | None -> ()
          in
          (match budget with
          | None -> ignore (Pool.map_array pool candidate rated)
          | Some b ->
              (* A real wall-clock deadline may cut the round short; the
                 skipped slots only shrink the neighbourhood, the cell still
                 holds the least of what completed. *)
              if
                Array.exists Option.is_none
                  (Pool.map_array_cancel pool ~cancel:(Budget.task_cancel b)
                     candidate rated)
              then Budget.mark_degraded b);
          match Atomic.get cell with
          | Some { rating = r; index; value = m, o } when index >= 0 ->
              best := (m, r, o);
              improved := true
          | _ -> ()
        done;
        Some !best
  in
  let starts =
    steps :: List.init (max 0 (restarts - 1)) (fun _ -> shuffle steps)
  in
  let best =
    Pool.with_pool ?domains (fun pool ->
        List.fold_left
          (fun (k, acc) start ->
            (* The first start always gets its initial evaluation, so a
               best-so-far exists even under a zero budget; later starts are
               refused once the budget is out. *)
            if k > 0 && out_of_budget ~cost:1 then (k + 1, acc)
            else
              let acc =
                match (acc, climb pool start) with
                | None, r -> r
                | r, None -> r
                | Some (_, br, _), Some ((_, r, _) as cand) when r < br ->
                    Some cand
                | acc, _ -> acc
              in
              (k + 1, acc))
          (0, None) starts
        |> snd)
  in
  Obs.count "optimize.local_evals" (Atomic.get evals);
  match best with
  | Some (main, r, order) ->
      store_record ~budget ~rating ~mode store steps r order;
      (main, r, order, Atomic.get evals)
  | None -> Env.reject "Optimize.optimize_local: every order was rejected"
