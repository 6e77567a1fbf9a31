(* Backtracking over topology variants (§2.1, §2.4).

   "Due to design-rule constraints, the designer has to specify different
   topology alternatives for parameterizable modules.  For this purpose
   backtracking is supported … because no complex if-then-structures with
   deep hierarchies have to be programmed."

   A computation is a tree of alternatives; a branch that raises
   [Env.Rejected] is abandoned and the next alternative is tried.  The
   rating function of §2.4 selects among the surviving results. *)

module Pool = Amg_parallel.Pool
module Obs = Amg_obs.Obs
module Budget = Amg_robust.Budget

let budget_exhausted = "variants: budget exhausted before this alternative"

(* Refuse the next leaf when the budget is out; refusing marks the run
   degraded (there was work left to do). *)
let exhausted = function
  | None -> false
  | Some b ->
      if Budget.stopped b || Budget.would_exceed b 1 then begin
        Budget.stop b;
        Budget.mark_degraded b;
        true
      end
      else false

let spend = function None -> () | Some b -> Budget.spend b 1

type 'a t =
  | Return : 'a -> 'a t
  | Delay : (unit -> 'a) -> 'a t
  | Alt : 'a t list -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t

let return x = Return x

let delay f = Delay f

let alt ts = Alt ts

let of_list xs = Alt (List.map (fun x -> Return x) xs)

let fail msg = Delay (fun () -> Env.reject "%s" msg)

let bind m f = Bind (m, f)

let map f m = Bind (m, fun x -> Return (f x))

let ( let* ) = bind
let ( let+ ) m f = map f m

(* Depth-first enumeration; every [Env.Rejected] turns into an [Error].
   [b] is an optional budget: once it stops, remaining alternatives are not
   evaluated and appear as [Error budget_exhausted] entries, so the result
   list always has one entry per leaf and positional consumers stay
   aligned.  The budget is consulted at alternative boundaries only. *)
let rec run_seq : type a. Budget.t option -> a t -> (a, string) result list =
 fun b -> function
  | Return x -> [ Ok x ]
  | Delay f ->
      if exhausted b then [ Error budget_exhausted ]
      else begin
        spend b;
        try [ Ok (f ()) ] with Env.Rejected m -> [ Error m ]
      end
  | Alt ts ->
      List.concat_map
        (fun t ->
          (match b with Some bu -> Budget.poll bu | None -> ());
          run_seq b t)
        ts
  | Bind (m, f) ->
      run_seq b m
      |> List.concat_map (function
           | Error m -> [ Error m ]
           | Ok v -> (
               try run_seq b (f v) with Env.Rejected m -> [ Error m ]))

(* With a pool, sibling alternatives reachable from the caller's domain are
   evaluated concurrently (each branch sequentially within itself — a
   branch body must not touch the pool again).  Branch results are
   concatenated in branch order, so the enumeration is the same list
   [run_seq] produces.  Branches build independent layouts; the generator
   code inside them must follow the per-worker copy rule (own [Lobj]s
   only). *)
let rec run_par : type a. Budget.t option -> Pool.t -> a t -> (a, string) result list =
 fun b pool -> function
  | Alt ts -> (
      match b with
      | None -> List.concat (Pool.map_list pool (run_seq None) ts)
      | Some bu ->
          (* Branches the cancellation flag skipped appear as single
             [Error budget_exhausted] entries in branch order. *)
          let branches =
            Pool.map_array_cancel pool ~cancel:(Budget.task_cancel bu)
              (run_seq b) (Array.of_list ts)
          in
          Array.to_list branches
          |> List.concat_map (function
               | Some rs -> rs
               | None ->
                   Budget.mark_degraded bu;
                   [ Error budget_exhausted ]))
  | Bind (m, f) ->
      run_par b pool m
      |> List.concat_map (function
           | Error m -> [ Error m ]
           | Ok v -> (
               try run_par b pool (f v) with Env.Rejected m -> [ Error m ]))
  | t -> run_seq b t

let run ?pool ?budget m =
  Obs.span "variants.run" @@ fun () ->
  let results =
    match pool with
    | Some pool when Pool.size pool > 1 -> run_par budget pool m
    | _ -> run_seq budget m
  in
  if Obs.enabled () then begin
    let ok =
      List.length (List.filter (function Ok _ -> true | Error _ -> false) results)
    in
    Obs.count "variants.successes" ok;
    Obs.count "variants.failures" (List.length results - ok)
  end;
  results

let successes ?pool ?budget m =
  List.filter_map (function Ok x -> Some x | Error _ -> None) (run ?pool ?budget m)

let failures ?pool ?budget m =
  List.filter_map (function Error e -> Some e | Ok _ -> None) (run ?pool ?budget m)

(* First success, depth first — plain backtracking.  [k] is the success
   continuation: each leaf's value goes straight to the rest of the
   computation, and the walk stops at the first leaf whose continuation
   succeeds, so no later alternative runs (not even under [bind]). *)
let first m =
  Obs.span "variants.first" @@ fun () ->
  let rec go : type a b. a t -> (a -> b option) -> b option =
   fun m k ->
    match m with
    | Return x -> k x
    | Delay f -> ( match f () with x -> k x | exception Env.Rejected _ -> None)
    | Alt ts -> List.find_map (fun t -> go t k) ts
    | Bind (m, f) ->
        go m (fun v ->
            match f v with n -> go n k | exception Env.Rejected _ -> None)
  in
  let r = go m Option.some in
  (match r with
  | Some _ -> Obs.count "variants.successes" 1
  | None -> Obs.count "variants.failures" 1);
  r

let first_exn m =
  match first m with
  | Some x -> x
  | None -> Env.reject "Variants.first_exn: all alternatives rejected"

(* Rate every surviving variant and keep the best (lowest rating) —
   "the rating function is also applied to select the best variant"
   (§2.4).  The fold runs over the enumeration order with a strict
   comparison, so the pick is the same with and without a pool. *)
let best ?pool ?budget ~rate m =
  let rated = List.map (fun x -> (x, rate x)) (successes ?pool ?budget m) in
  List.fold_left
    (fun acc (x, r) ->
      match acc with
      | Some (_, br) when br <= r -> acc
      | _ -> Some (x, r))
    None rated

let best_exn ?pool ?budget ~rate m =
  match best ?pool ?budget ~rate m with
  | Some xr -> xr
  | None -> Env.reject "Variants.best_exn: all alternatives rejected"
