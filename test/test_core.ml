(* The generator environment: automatic margins, primitives, backtracking
   variants, rating and compaction-order optimization. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Margins = Amg_core.Margins
module Variants = Amg_core.Variants
module Rating = Amg_core.Rating
module Optimize = Amg_core.Optimize

let um = Units.of_um
let env () = Env.bicmos ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_margins () =
  let rules = Env.rules (env ()) in
  (* Explicit enclosure rule. *)
  check "explicit" (um 0.5) (Margins.inside rules ~outer:"metal1" ~inner:"contact");
  (* Derived through the shared contact: poly (0.5) and metal1 (0.5). *)
  check "derived equal" 0 (Margins.inside rules ~outer:"poly" ~inner:"metal1");
  (* pdiff encloses contact by 0.75, metal1 by 0.5: pdiff over metal1 is
     0.25. *)
  check "derived" (um 0.25) (Margins.inside rules ~outer:"pdiff" ~inner:"metal1");
  (* Unrelated layers: zero. *)
  check "unrelated" 0 (Margins.inside rules ~outer:"metal2" ~inner:"poly");
  check_bool "cuts of poly" true
    (Margins.cuts_enclosed_by rules "poly" = [ ("contact", um 0.5); ("poly2", um 1.) ])

let test_inbox_first_defaults () =
  let e = env () in
  let o = Lobj.create "t" in
  let s = Prim.inbox e o ~layer:"metal2" () in
  (* First rectangle defaults to the minimum width in both directions. *)
  check "w" (um 2.) (Rect.height s.Shape.rect);
  check "l" (um 2.) (Rect.width s.Shape.rect)

let test_inbox_rejects_small () =
  let e = env () in
  let o = Lobj.create "t" in
  check_bool "rejected" true
    (match Prim.inbox e o ~layer:"metal1" ~w:(um 1.) () with
    | exception Env.Rejected _ -> true
    | _ -> false)

let test_inbox_expands () =
  let e = env () in
  let o = Lobj.create "t" in
  let outer = Prim.inbox e o ~layer:"poly" ~w:(um 1.) ~l:(um 1.) () in
  (* metal1's minimum width is 1.5: the poly outer must grow. *)
  let _ = Prim.inbox e o ~layer:"metal1" () in
  let outer' = Lobj.find_exn o outer.Shape.id in
  check_bool "outer expanded" true (Rect.height outer'.Shape.rect >= um 1.5)

let test_array_expands_for_one_cut () =
  let e = env () in
  let o = Lobj.create "t" in
  let land_ = Prim.inbox e o ~layer:"pdiff" () in  (* 2 x 2 um *)
  let _ = Prim.inbox e o ~layer:"metal1" () in
  let _ = Prim.array e o ~layer:"contact" () in
  (* One contact needs 2.5 um of pdiff: the landing expanded. *)
  let land' = Lobj.find_exn o land_.Shape.id in
  check "expanded landing" (um 2.5) (Rect.height land'.Shape.rect);
  check "one cut" 1 (List.length (Lobj.shapes_on o "contact"))

let test_array_needs_containers () =
  let e = env () in
  let o = Lobj.create "t" in
  check_bool "rejected" true
    (match Prim.array e o ~layer:"contact" () with
    | exception Env.Rejected _ -> true
    | _ -> false)

let test_tworects () =
  let e = env () in
  let o = Lobj.create "t" in
  let gate, diff = Prim.tworects e o ~layer_a:"poly" ~layer_b:"pdiff" ~w:(um 10.) ~l:(um 2.) () in
  (* End-cap 1 um, S/D extension 1.5 um from the rules. *)
  check "gate height" (um 12.) (Rect.height gate.Shape.rect);
  check "gate width" (um 2.) (Rect.width gate.Shape.rect);
  check "diff width" (um 5.) (Rect.width diff.Shape.rect);
  check "diff height" (um 10.) (Rect.height diff.Shape.rect);
  (* Horizontal variant swaps the roles. *)
  let o2 = Lobj.create "t2" in
  let gate2, _ = Prim.tworects e o2 ~layer_a:"poly" ~layer_b:"pdiff" ~w:(um 10.) ~l:(um 2.) ~orient:`Horizontal () in
  check "horizontal gate width" (um 12.) (Rect.width gate2.Shape.rect)

let test_around () =
  let e = env () in
  let o = Lobj.create "t" in
  let _ = Prim.inbox e o ~layer:"pdiff" ~w:(um 4.) ~l:(um 4.) () in
  let well = Prim.around e o ~layer:"nwell" () in
  (* Default margin is the nwell-over-pdiff enclosure (2 um). *)
  check "well size" (um 8.) (Rect.width well.Shape.rect);
  check_bool "contains" true
    (Rect.contains_rect well.Shape.rect (Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.)))

let test_ring () =
  let e = env () in
  let o = Lobj.create "t" in
  let _ = Prim.inbox e o ~layer:"pdiff" ~w:(um 4.) ~l:(um 4.) () in
  let legs = Prim.ring e o ~layer:"ndiff" ~width:(um 2.) () in
  check "four legs" 4 (List.length legs);
  (* The ring clears the structure by the pdiff/ndiff spacing (3 um). *)
  let inner_edges =
    List.map (fun (s : Shape.t) -> s.Shape.rect) legs |> Rect.hull_list
  in
  (match inner_edges with
  | Some hull ->
      check "hull" (um 14.) (Rect.width hull);
      check_bool "around structure" true
        (Rect.contains_rect hull (Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.)))
  | None -> Alcotest.fail "no hull");
  (* Legs form a closed frame: each corner is covered. *)
  let covered x y = List.exists (fun (s : Shape.t) -> Rect.contains_point s.Shape.rect ~x ~y) legs in
  check_bool "corner nw" true (covered (- um 5.) (um 9.));
  check_bool "corner se" true (covered (um 9.) (- um 5.))

let test_angle () =
  let e = env () in
  let o = Lobj.create "t" in
  let a, b =
    Prim.angle e o ~layer:"metal1" ~width:(um 2.) ~corner:(0, 0)
      ~leg1:(Dir.North, um 5.) ~leg2:(Dir.East, um 7.) ()
  in
  check_bool "legs overlap at corner" true (Rect.overlaps a.Shape.rect b.Shape.rect);
  check "leg1 extent" (um 7.) (Rect.height a.Shape.rect);
  check "leg2 extent" (um 9.) (Rect.width b.Shape.rect);
  check_bool "parallel legs rejected" true
    (match
       Prim.angle e o ~layer:"metal1" ~width:(um 2.) ~corner:(0, 0)
         ~leg1:(Dir.North, um 5.) ~leg2:(Dir.South, um 5.) ()
     with
    | exception Env.Rejected _ -> true
    | _ -> false)

(* --- variants --- *)

let test_variants_enumeration () =
  let v = Variants.alt [ Variants.return 1; Variants.return 2; Variants.return 3 ] in
  check_bool "successes" true (Variants.successes v = [ 1; 2; 3 ]);
  check_bool "first" true (Variants.first v = Some 1)

let test_variants_backtracking () =
  let tried = ref [] in
  let attempt name ok =
    Variants.delay (fun () ->
        tried := name :: !tried;
        if ok then name else Env.reject "variant %s impossible" name)
  in
  let v = Variants.alt [ attempt "a" false; attempt "b" true; attempt "c" true ] in
  check_bool "first success" true (Variants.first v = Some "b");
  check_bool "a was tried" true (List.mem "a" !tried);
  check_bool "failures recorded" true
    (Variants.failures v = [ "variant a impossible" ])

let test_variants_bind () =
  let open Variants in
  let v =
    let* x = of_list [ 1; 2 ] in
    let* y = of_list [ 10; 20 ] in
    if x = 2 && y = 10 then fail "skip" else return ((x * 100) + y)
  in
  check_bool "cartesian minus rejected" true
    (successes v = [ 110; 120; 220 ])

let test_variants_best () =
  let v = Variants.of_list [ 5.; 1.; 3. ] in
  (match Variants.best ~rate:(fun x -> x) v with
  | Some (x, r) ->
      check_bool "best value" true (x = 1.);
      check_bool "best rating" true (r = 1.)
  | None -> Alcotest.fail "expected a best");
  check_bool "all rejected" true
    (Variants.best ~rate:(fun _ -> 0.) (Variants.fail "no" : int Variants.t) = None)

(* Branch bodies mutating a shared main under ?rollback: a rejected branch
   must leave the main exactly as it was before the branch ran, while a
   successful branch keeps its mutations. *)
let test_variants_rollback () =
  let fingerprint o = String.concat ";" (List.map Shape.show (Lobj.shapes o)) in
  let main = Lobj.create "m" in
  ignore
    (Lobj.add_shape main ~layer:"metal1"
       ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.)) ());
  let before = fingerprint main in
  let branch ok dx =
    Variants.delay (fun () ->
        ignore
          (Lobj.add_shape main ~layer:"metal1"
             ~rect:(Rect.of_size ~x:dx ~y:(um 10.) ~w:(um 2.) ~h:(um 2.)) ());
        Lobj.translate main ~dx ~dy:0;
        if ok then Lobj.shape_count main else Env.reject "branch rejected")
  in
  (* Every branch rejected: the shared main is untouched. *)
  let v = Variants.alt [ branch false (um 1.); branch false (um 2.) ] in
  check_bool "all rejected" true
    (Variants.successes ~rollback:[ main ] v = []);
  Alcotest.(check string) "main restored after rejections" before
    (fingerprint main);
  (* Without rollback the same branches leave their partial placements. *)
  let s = Lobj.snapshot main in
  ignore (Variants.run (branch false (um 3.)));
  check_bool "no rollback leaves mutations" true (fingerprint main <> before);
  Lobj.restore main s;
  Lobj.release main s;
  Alcotest.(check string) "unwound for the next part" before (fingerprint main);
  (* A mixed tree: the rejected first branch is rolled back, the surviving
     second branch commits. *)
  let v = Variants.alt [ branch false (um 1.); branch true (um 2.) ] in
  (match Variants.first ~rollback:[ main ] v with
  | Some n -> check "survivor sees only its own mutation" 2 n
  | None -> Alcotest.fail "expected a survivor");
  check "committed branch kept" 2 (Lobj.shape_count main)

(* --- rating and optimization --- *)

let test_rating () =
  let e = env () in
  let small = Lobj.create "small" in
  let _ = Lobj.add_shape small ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 2.) ~h:(um 2.)) () in
  let big = Lobj.create "big" in
  let _ = Lobj.add_shape big ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 20.) ~h:(um 20.)) () in
  check_bool "smaller rates better" true
    (Rating.rate e Rating.area_only small < Rating.rate e Rating.area_only big);
  (* Capacitance-aware rating penalises metal on a sensitive net. *)
  let weights = Rating.with_sensitive_nets Rating.area_only [ "in" ] in
  let noisy = Lobj.copy ~name:"noisy" small in
  let _ =
    Lobj.add_shape noisy ~layer:"metal1"
      ~rect:(Rect.of_size ~x:(um 4.) ~y:0 ~w:(um 2.) ~h:(um 2.))
      ~net:"in" ()
  in
  check_bool "cap cost counts" true
    (Rating.rate e weights noisy > Rating.rate e weights small)

let test_optimize_orders () =
  let e = env () in
  (* Three bars of decreasing width: packing order changes the bbox. *)
  let mk name w h net =
    let o = Lobj.create name in
    let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w ~h) ~net () in
    o
  in
  let steps =
    [
      Optimize.step (mk "wide" (um 10.) (um 2.) "a") Dir.South;
      Optimize.step (mk "tall" (um 2.) (um 6.) "b") Dir.West;
      Optimize.step (mk "small" (um 4.) (um 2.) "c") Dir.South;
    ]
  in
  let results = Optimize.evaluate_orders e ~name:"opt" steps in
  check "3! orders" 6 (List.length results);
  let ratings = List.map (fun (_, r, _) -> r) results in
  let best = List.fold_left min infinity ratings in
  let worst = List.fold_left max 0. ratings in
  check_bool "order matters" true (worst > best);
  let _, r, _ = Optimize.optimize e ~name:"opt" steps in
  check_bool "optimize returns best" true (r = best)

let test_optimize_bb_matches_exhaustive () =
  let e = env () in
  let mk name w h net =
    let o = Lobj.create name in
    let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w ~h) ~net () in
    o
  in
  let steps =
    [
      Optimize.step (mk "a" (um 10.) (um 2.) "a") Dir.South;
      Optimize.step (mk "b" (um 2.) (um 6.) "b") Dir.West;
      Optimize.step (mk "c" (um 4.) (um 2.) "c") Dir.South;
      Optimize.step (mk "d" (um 2.) (um 2.) "d") Dir.West;
      Optimize.step (mk "e" (um 6.) (um 2.) "e") Dir.South;
    ]
  in
  let _, exhaustive_best, _ = Optimize.optimize e ~name:"x" steps in
  let _, bb_best, order, nodes = Optimize.optimize_bb e ~name:"x" steps in
  Alcotest.(check (float 1e-6)) "same optimum" exhaustive_best bb_best;
  check "full order returned" 5 (List.length order);
  (* The full tree has sum_{k=1..5} 5!/k! = 206 internal+leaf nodes plus the
     root; pruning must beat it. *)
  check_bool "pruned" true (nodes < 326)

let test_permutations () =
  check "3!" 6 (List.length (List.of_seq (Optimize.permutations [ 1; 2; 3 ])));
  check "0!" 1 (List.length (List.of_seq (Optimize.permutations ([] : int list))))


let test_optimize_local () =
  let e = env () in
  let mk name w h net =
    let o = Lobj.create name in
    let _ = Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w ~h) ~net () in
    o
  in
  let steps =
    [
      Optimize.step (mk "a" (um 10.) (um 2.) "a") Dir.South;
      Optimize.step (mk "b" (um 2.) (um 6.) "b") Dir.West;
      Optimize.step (mk "c" (um 4.) (um 2.) "c") Dir.South;
      Optimize.step (mk "d" (um 2.) (um 2.) "d") Dir.West;
      Optimize.step (mk "e" (um 6.) (um 2.) "e") Dir.South;
    ]
  in
  let _, exhaustive_best, _ = Optimize.optimize e ~name:"x" steps in
  let _, local_best, order, evals = Optimize.optimize_local e ~name:"x" steps in
  (* Never better than the true optimum, never worse than the start. *)
  check_bool "sound" true (local_best >= exhaustive_best -. 1e-9);
  let start = Optimize.apply e ~name:"x" steps in
  let start_rating = Amg_core.Rating.rate e Amg_core.Rating.default start in
  check_bool "no worse than given order" true (local_best <= start_rating +. 1e-9);
  check "full order returned" 5 (List.length order);
  check_bool "fewer evals than 5!" true (evals < 120);
  (* Deterministic under a fixed seed. *)
  let _, again, _, _ = Optimize.optimize_local e ~name:"x" ~seed:1 steps in
  Alcotest.(check (float 1e-9)) "reproducible" local_best again;
  (* On this small instance the swap neighbourhood reaches the optimum. *)
  Alcotest.(check (float 1e-6)) "finds optimum here" exhaustive_best local_best

(* --- search oracles on random step sets --- *)

(* A random step set: one metal1 bar per step, each on its own net,
   compacted in a random direction. *)
let bar_gen =
  QCheck2.Gen.(
    triple (int_range 1 12) (int_range 1 12)
      (oneofl [ Dir.South; Dir.West; Dir.North; Dir.East ]))

let step_set_gen lo hi = QCheck2.Gen.(list_size (int_range lo hi) bar_gen)

(* A step set that repeats movers: n draws from a pool of fewer than n
   bars, so some bar always occurs at least twice and symmetry classes of
   size 2–3 are common. *)
let dup_step_set_gen lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    let* pool = list_size (int_range (max 1 (n / 2)) (max 1 (n - 1))) bar_gen in
    list_repeat n (oneofl pool))

let show_step_set dims =
  String.concat "; "
    (List.map
       (fun (w, h, d) -> Printf.sprintf "%dx%d %s" w h (Dir.to_string d))
       dims)

let bar_steps dims =
  List.mapi
    (fun i (w, h, d) ->
      let name = Printf.sprintf "s%d" i in
      let o = Lobj.create name in
      let _ =
        Lobj.add_shape o ~layer:"metal1"
          ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int w)) ~h:(um (float_of_int h)))
          ~net:name ()
      in
      Optimize.step o d)
    dims

let uids order = List.map (fun s -> s.Optimize.uid) order
let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Each bar step named by its generator triple: two steps with the same
   (w, h, dir) are the same mover on different private nets.  Derived from
   the generator alone, independently of [Optimize.step_classes]. *)
let bar_key dims steps =
  let keys = List.combine (uids steps) dims in
  fun (s : Optimize.step) -> List.assoc s.Optimize.uid keys

let exhaustive e steps =
  Optimize.optimize e ~name:"x" ~max_orders:(factorial (List.length steps)) steps

type reference = {
  best : (Lobj.t * float * Optimize.step list) option;
  evals : int;  (** every rebuild, rejected ones and same-mover swaps included *)
  moves : int;  (** accepted moves *)
  same_swaps : int;  (** swaps between two steps with equal [key] *)
  same_rate_current : bool;  (** every such swap rated exactly the current order *)
}

(* Reference steepest descent: every candidate is a plain [Optimize.apply]
   rated with [Rating.rate] — no pool, no symmetry classes.  Same
   restarts (the LCG shuffles, drawn up front), same
   neighbourhood (all pairwise swaps, same-mover ones too), ties to the
   lowest swap, and every evaluation counted. *)
let reference_local e ~key ~restarts ~seed steps =
  let evals = ref 0 and moves = ref 0 in
  let same_swaps = ref 0 and same_rate_current = ref true in
  let rate order =
    incr evals;
    match Optimize.apply e ~name:"x" order with
    | m -> Some (m, Rating.rate e Rating.default m)
    | exception Env.Rejected _ -> None
  in
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
  let rec descend ((_, r, order) as cur) =
    let best = ref None in
    let at = Array.of_list order in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let cand = swap order i j in
        let bar = match !best with Some (_, b, _) -> b | None -> r in
        let rated = rate cand in
        if key at.(i) = key at.(j) then begin
          incr same_swaps;
          match rated with
          | Some (_, rc) when Float.equal rc r -> ()
          | _ -> same_rate_current := false
        end;
        match rated with
        | Some (m, rc) when rc < bar -> best := Some (m, rc, cand)
        | _ -> ()
      done
    done;
    match !best with
    | Some next ->
        incr moves;
        descend next
    | None -> cur
  in
  let climb start =
    Option.map (fun (m, r) -> descend (m, r, start)) (rate start)
  in
  let shuffled = ref [] in
  for _ = 2 to restarts do
    shuffled := shuffle steps :: !shuffled
  done;
  let best =
    List.fold_left
      (fun acc start ->
        match (acc, climb start) with
        | None, c | c, None -> c
        | Some (_, ra, _), Some ((_, r, _) as c) when r < ra -> Some c
        | acc, _ -> acc)
      None
      (steps :: List.rev !shuffled)
  in
  {
    best;
    evals = !evals;
    moves = !moves;
    same_swaps = !same_swaps;
    same_rate_current = !same_rate_current;
  }

let local_case_gen =
  QCheck2.Gen.(
    triple
      (oneof [ step_set_gen 3 7; dup_step_set_gen 3 7 ])
      (int_range 0 10_000) (int_range 1 3))

(* [optimize_local] (pool, incumbent cell, symmetry classes)
   agrees with the reference on rating, order and CIF bytes for every
   domain count.  Every same-mover swap the reference rates equals the
   current rating — the soundness of skipping them — and [optimize_local]
   rates exactly the others. *)
let prop_local_matches_reference =
  QCheck2.Test.make ~name:"local search matches reference descent" ~count:100
    ~print:(fun (dims, seed, restarts) ->
      Printf.sprintf "seed=%d restarts=%d [%s]" seed restarts
        (show_step_set dims))
    local_case_gen
    (fun (dims, seed, restarts) ->
      let e = env () in
      let steps = bar_steps dims in
      let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
      let ref_ = reference_local e ~key:(bar_key dims steps) ~restarts ~seed steps in
      match ref_.best with
      | None -> QCheck2.assume_fail ()
      | Some (rm, rr, rorder) ->
          ref_.same_rate_current
          && List.for_all
               (fun d ->
                 let m, r, order, evals =
                   Optimize.optimize_local e ~name:"x" ~restarts ~seed ~domains:d
                     steps
                 in
                 Float.equal r rr && uids order = uids rorder
                 && evals = ref_.evals - ref_.same_swaps
                 && String.equal (cif m) (cif rm))
               Test_util.domain_counts)

(* The property above only covers the path where a candidate keeps its
   layout if some round accepts a move, and the skip only matters when a
   same-mover swap exists; pin that the generator reaches both. *)
let test_local_reference_accepts_moves () =
  let e = env () in
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:20 local_case_gen
  in
  let runs =
    List.map
      (fun (dims, seed, restarts) ->
        let steps = bar_steps dims in
        reference_local e ~key:(bar_key dims steps) ~restarts ~seed steps)
      cases
  in
  check_bool "some generated case accepts a move" true
    (List.exists (fun r -> r.moves > 0) runs);
  check_bool "some generated case swaps equal movers" true
    (List.exists (fun r -> r.same_swaps > 0) runs)

(* ROADMAP oracles: branch-and-bound reaches the exhaustive optimum, and
   local search never beats it.  On step sets that repeat movers bb visits
   only class-canonical orders; the exhaustive search rates all n! orders
   and returns the first optimum, which is class-canonical, so the two
   agree on rating, order and every byte. *)
let prop_bb_matches_exhaustive =
  QCheck2.Test.make ~name:"bb rating equals exhaustive" ~count:40
    ~print:show_step_set
    (QCheck2.Gen.oneof [ step_set_gen 2 7; dup_step_set_gen 2 7 ])
    (fun dims ->
      let e = env () in
      let steps = bar_steps dims in
      let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
      let xm, xr, xorder = exhaustive e steps in
      let bm, br, border, _ = Optimize.optimize_bb e ~name:"x" steps in
      Float.equal xr br && uids xorder = uids border
      && String.equal (cif xm) (cif bm))

let prop_local_never_beats_exhaustive =
  QCheck2.Test.make ~name:"local never beats exhaustive" ~count:30
    ~print:show_step_set (step_set_gen 2 7) (fun dims ->
      let e = env () in
      let steps = bar_steps dims in
      let _, exhaustive_best, _ = exhaustive e steps in
      let _, local_best, _, _ = Optimize.optimize_local e ~name:"x" steps in
      local_best >= exhaustive_best)

(* --- mover symmetry classes --- *)

module Policy = Amg_robust.Policy
module Budget = Amg_robust.Budget

let check_classes = Alcotest.(check (array int))

let bar ?(layers = [ "metal1" ]) name net =
  let o = Lobj.create name in
  List.iteri
    (fun i layer ->
      ignore
        (Lobj.add_shape o ~layer
           ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int (4 + i))) ~h:(um 2.))
           ~net ()))
    layers;
  o

let with_permissive f =
  Policy.set_mode Policy.Permissive;
  Fun.protect ~finally:(fun () -> Policy.set_mode Policy.Strict) f

let test_step_classes_singletons () =
  let twins ?(align = `Keep) ?(ignore_layers = []) ?layers () =
    [
      Optimize.step (bar ?layers "p" "a") Dir.South;
      Optimize.step ~align ~ignore_layers (bar ?layers "q" "b") Dir.South;
    ]
  in
  check_classes "private twins share a class" [| 0; 0 |]
    (Optimize.step_classes (twins ()));
  check_classes "net in base" [| 0; 1 |]
    (Optimize.step_classes ~base:(bar "base" "a") (twins ()));
  check_classes "net in another step" [| 0; 1; 2 |]
    (Optimize.step_classes
       (twins () @ [ Optimize.step (bar ~layers:[ "poly" ] "r" "a") Dir.West ]));
  check_classes "one net on both" [| 0; 1 |]
    (Optimize.step_classes
       [ Optimize.step (bar "p" "a") Dir.South; Optimize.step (bar "q" "a") Dir.South ]);
  check_classes "sensitive net" [| 0; 1 |]
    (Optimize.step_classes
       ~rating:(Rating.with_sensitive_nets Rating.default [ "a" ])
       (twins ()));
  check_classes "different align" [| 0; 1 |]
    (Optimize.step_classes (twins ~align:`Min ()));
  check_classes "different ignore_layers" [| 0; 1 |]
    (Optimize.step_classes (twins ~ignore_layers:[ "poly" ] ()));
  check_classes "same two-layer objects" [| 0; 0 |]
    (Optimize.step_classes (twins ~layers:[ "metal1"; "poly" ] ()));
  check_classes "different shape order" [| 0; 1 |]
    (Optimize.step_classes
       [
         Optimize.step (bar ~layers:[ "metal1"; "poly" ] "p" "a") Dir.South;
         Optimize.step (bar ~layers:[ "poly"; "metal1" ] "q" "b") Dir.South;
       ]);
  check_classes "permissive policy" [| 0; 1 |]
    (with_permissive (fun () -> Optimize.step_classes (twins ())))

(* The benchmark's 10-row pack: widths cycle W, W+12, W+24, W+36 and
   directions alternate, so rows i and i+4 differ only in their net. *)
let test_pack10_classes () =
  let n = 10 in
  let b = Buffer.create 1024 in
  Buffer.add_string b "ENT Pack10(<W>, <L>)\n";
  for i = 0 to n - 1 do
    Printf.bprintf b
      "  x%d = ContactRow(layer = \"metal1\", W = W + %d, L = L, net = \"n%d\")\n\
      \  compact(x%d, %s, align = \"MIN\")\n"
      i (i mod 4 * 12) i i
      (if i mod 2 = 0 then "SOUTH" else "WEST")
  done;
  let program =
    Amg_lang.Parser.parse_program ~file:"pack.amg"
      (Buffer.contents b ^ Amg_lang.Stdlib.all)
  in
  let e = env () in
  match
    Amg_lang.Interp.build_recorded e program "Pack10"
      [ ("W", Amg_lang.Value.Num 12.); ("L", Amg_lang.Value.Num 3.5) ]
  with
  | _, Error why -> Alcotest.fail why
  | _, Ok { Amg_lang.Interp.base; steps } ->
      check_classes "{0,4,8} {1,5,9} {2,6} {3,7}"
        [| 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 |]
        (Optimize.step_classes ~base steps)

(* Five bars, two of them the same mover: 10 swaps, 9 rated per round. *)
let twin_dims =
  [ (10, 2, Dir.South); (2, 6, Dir.West); (4, 2, Dir.South); (2, 6, Dir.West); (6, 2, Dir.South) ]

(* An eval-capped round is charged the swaps it rates, not all of them:
   a cap of one start plus one round admits that round. *)
let test_local_round_charges_rated_swaps () =
  let e = env () in
  let steps = bar_steps twin_dims in
  let _, _, _, evals = Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:1 steps in
  check "rounds rate 9 swaps" 0 ((evals - 1) mod 9);
  let budget = Budget.create ~max_evals:10 () in
  let _, _, _, evals =
    Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:1 ~budget steps
  in
  check "start plus one round" 10 evals

(* bb's node quota divides the cap among the class-canonical first steps:
   four copies of one mover have one, whose sub-search (four nodes down a
   single path) fits a cap of five. *)
let test_bb_quota_counts_canonical_firsts () =
  let e = env () in
  let steps = bar_steps (List.init 4 (fun _ -> (4, 2, Dir.South))) in
  let _, r, order, _ = Optimize.optimize_bb e ~name:"x" ~domains:1 steps in
  let budget = Budget.create ~max_evals:5 () in
  let _, r', order', _ = Optimize.optimize_bb e ~name:"x" ~domains:1 ~budget steps in
  check_bool "not degraded" false (Budget.degraded budget);
  Alcotest.(check (float 0.)) "same rating" r r';
  Alcotest.(check (list int)) "same order" (uids order) (uids order')

(* Under the permissive policy every candidate is built (and may report
   its own diagnostics): local search rates every swap. *)
let test_permissive_rates_every_swap () =
  with_permissive @@ fun () ->
  let e = env () in
  let steps = bar_steps twin_dims in
  let ref_ =
    reference_local e ~key:(bar_key twin_dims steps) ~restarts:1 ~seed:1 steps
  in
  let _, _, _, evals = Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:1 steps in
  check_bool "the case has same-mover swaps" true (ref_.same_swaps > 0);
  check "every swap rated" ref_.evals evals

(* --- slicing floorplanner --- *)

module F = Amg_core.Floorplan

let test_floorplan_basics () =
  let r =
    F.optimize
      [ F.block ~name:"a" ~w:(um 2.) ~h:(um 1.);
        F.block ~name:"b" ~w:(um 2.) ~h:(um 1.) ]
  in
  check "two blocks area" (um 2. * um 2.) r.F.area;
  (* Four blocks that tile perfectly: the DP finds the zero-waste packing. *)
  let blocks =
    [ F.block ~name:"big" ~w:(um 10.) ~h:(um 10.);
      F.block ~name:"wide" ~w:(um 10.) ~h:(um 5.);
      F.block ~name:"s1" ~w:(um 5.) ~h:(um 5.);
      F.block ~name:"s2" ~w:(um 5.) ~h:(um 5.) ]
  in
  let r = F.optimize blocks in
  let sum =
    List.fold_left (fun a b -> a + (b.F.fp_w * b.F.fp_h)) 0 blocks
  in
  check "zero waste" sum r.F.area;
  (* Placements: every block present, pairwise disjoint, inside the box. *)
  check "all placed" 4 (List.length r.F.positions);
  let rects = List.map snd r.F.positions in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then check_bool "disjoint" false (Rect.overlaps a b))
        rects)
    rects;
  let bbox = Rect.make ~x0:0 ~y0:0 ~x1:r.F.width ~y1:r.F.height in
  List.iter (fun rc -> check_bool "inside" true (Rect.contains_rect bbox rc)) rects;
  (* The aspect target steers the choice between transposed optima. *)
  let flat = F.optimize ~aspect:3.0 blocks in
  check_bool "flat wider than tall" true (flat.F.width > flat.F.height);
  (* Spacing at cuts. *)
  let sp =
    F.optimize ~spacing:(um 1.)
      [ F.block ~name:"a" ~w:(um 2.) ~h:(um 2.);
        F.block ~name:"b" ~w:(um 2.) ~h:(um 2.) ]
  in
  check "spacing added" (um 2. * um 5.) sp.F.area;
  Alcotest.check_raises "empty" (Amg_core.Env.Rejected "Floorplan: no blocks")
    (fun () -> ignore (F.optimize []))

(* Optimal slicing never loses to the row-stack baseline, placements are
   always disjoint, and the area is at least the blocks' total. *)
let prop_floorplan_optimal =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6) (tup2 (int_range 1 12) (int_range 1 12)))
  in
  QCheck2.Test.make ~name:"floorplan beats row baseline" ~count:200 gen
    (fun dims ->
      let blocks =
        List.mapi
          (fun i (w, h) ->
            F.block ~name:(string_of_int i) ~w:(um (float_of_int w))
              ~h:(um (float_of_int h)))
          dims
      in
      let r = F.optimize blocks in
      let sum = List.fold_left (fun a b -> a + (b.F.fp_w * b.F.fp_h)) 0 blocks in
      let rows = F.rows_area [ blocks ] in
      let rects = List.map snd r.F.positions in
      let disjoint =
        List.for_all
          (fun a ->
            List.for_all (fun b -> a == b || not (Rect.overlaps a b)) rects)
          rects
      in
      r.F.area >= sum && r.F.area <= rows && disjoint
      && List.length r.F.positions = List.length blocks)

let suite =
  [
    Alcotest.test_case "automatic margins" `Quick test_margins;
    Alcotest.test_case "inbox first defaults" `Quick test_inbox_first_defaults;
    Alcotest.test_case "inbox rejects sub-minimum" `Quick test_inbox_rejects_small;
    Alcotest.test_case "inbox expands outers" `Quick test_inbox_expands;
    Alcotest.test_case "array expands for one cut" `Quick test_array_expands_for_one_cut;
    Alcotest.test_case "array needs containers" `Quick test_array_needs_containers;
    Alcotest.test_case "tworects transistor" `Quick test_tworects;
    Alcotest.test_case "around" `Quick test_around;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "angle adaptor" `Quick test_angle;
    Alcotest.test_case "variants enumeration" `Quick test_variants_enumeration;
    Alcotest.test_case "variants backtracking" `Quick test_variants_backtracking;
    Alcotest.test_case "variants bind" `Quick test_variants_bind;
    Alcotest.test_case "variants best" `Quick test_variants_best;
    Alcotest.test_case "variants rollback" `Quick test_variants_rollback;
    Alcotest.test_case "rating" `Quick test_rating;
    Alcotest.test_case "optimize orders" `Quick test_optimize_orders;
    Alcotest.test_case "branch and bound matches exhaustive" `Quick test_optimize_bb_matches_exhaustive;
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "local search optimizer" `Quick test_optimize_local;
    QCheck_alcotest.to_alcotest prop_local_matches_reference;
    Alcotest.test_case "local reference accepts moves" `Quick
      test_local_reference_accepts_moves;
    QCheck_alcotest.to_alcotest prop_bb_matches_exhaustive;
    QCheck_alcotest.to_alcotest prop_local_never_beats_exhaustive;
    Alcotest.test_case "step classes: singletons" `Quick test_step_classes_singletons;
    Alcotest.test_case "step classes: pack10" `Quick test_pack10_classes;
    Alcotest.test_case "local round charges rated swaps" `Quick
      test_local_round_charges_rated_swaps;
    Alcotest.test_case "bb quota counts canonical firsts" `Quick
      test_bb_quota_counts_canonical_firsts;
    Alcotest.test_case "permissive local rates every swap" `Quick
      test_permissive_rates_every_swap;
    Alcotest.test_case "slicing floorplanner" `Quick test_floorplan_basics;
    QCheck_alcotest.to_alcotest prop_floorplan_optimal;
  ]
