(* The generator environment: automatic margins, primitives, topology
   variants, rating and compaction-order optimization. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Margins = Amg_core.Margins
module Rating = Amg_core.Rating
module Optimize = Amg_core.Optimize
module Wire = Amg_robust.Wire

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

(* Topology variants are CHOOSE branches: a design-rule rejection raised by
   a primitive ends a branch, and the search moves on to the next one. *)
let build_variants src entity =
  Amg_lang.Interp.parse_and_build (env ()) src entity []

(* A rejection deep inside a called entity still backtracks the caller's
   CHOOSE: the first two variants fail a width rule, the third survives
   alone. *)
let test_variants_backtracking () =
  let src = {|
ENT Row()
  CHOOSE
    a = Narrow()
    compact(a, NORTH)
  ORELSE
    INBOX("metal1", 2, 2, net = "b")
    INBOX("metal1", 0.5, 0.5, net = "b")
  ORELSE
    INBOX("metal2", 2, 2, net = "c")
  END

ENT Narrow()
  INBOX("metal1", 2, 2, net = "a")
  INBOX("metal1", 0.5, 0.5, net = "a")
|} in
  let o = build_variants src "Row" in
  check "third variant only" 1 (Lobj.shape_count o);
  check_bool "third variant's layer" true (Lobj.layers o = [ "metal2" ]);
  check_bool "third variant's net" true (Lobj.nets o = [ "c" ])

(* The search stops at the first surviving variant: the later branches
   would raise a non-rule diagnostic, which CHOOSE does not catch, if they
   ran.  The same holds for a CHOOSE nested inside the winning branch. *)
let test_variants_first_lazy () =
  let flat = {|
ENT Row()
  CHOOSE
    INBOX("metal1", 2, 2, net = "a")
  ORELSE
    x = 1 / 0
  ORELSE
    y = Missing()
  END
|} in
  let nested = {|
ENT Row()
  CHOOSE
    CHOOSE
      INBOX("metal1", 2, 2, net = "a")
    ORELSE
      x = 1 / 0
    END
    INBOX("metal2", 2, 2, net = "a")
  ORELSE
    y = 1 / 0
  END
|} in
  let o = build_variants flat "Row" in
  check "flat: first variant" 1 (Lobj.shape_count o);
  check_bool "flat: first variant's net" true (Lobj.nets o = [ "a" ]);
  let o = build_variants nested "Row" in
  check "nested: first variants" 2 (Lobj.shape_count o);
  check_bool "nested: both layers" true
    (List.sort compare (Lobj.layers o) = [ "metal1"; "metal2" ])

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

(* The first minimum over all n! orders, each replayed whole. *)
let exhaustive e steps =
  match Test_util.first_minimum e ~orders:max_int steps with
  | Some best, _ -> best
  | None, _ -> Alcotest.fail "every order was rejected"

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
  let ratings =
    List.of_seq (Test_util.permutations steps)
    |> List.map (fun order ->
           Rating.rate e Rating.default (Optimize.apply e ~name:"opt" order))
  in
  check "3! orders" 6 (List.length ratings);
  let best = List.fold_left min infinity ratings in
  let worst = List.fold_left max 0. ratings in
  check_bool "order matters" true (worst > best);
  let _, r, _, _ = Optimize.search e ~name:"opt" Wire.Orders steps in
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
  let _, exhaustive_best, _ = exhaustive e steps in
  let _, bb_best, order, nodes = Optimize.search e ~name:"x" Wire.Bb steps in
  Alcotest.(check (float 1e-6)) "same optimum" exhaustive_best bb_best;
  check "full order returned" 5 (List.length order);
  (* The full tree has sum_{k=1..5} 5!/k! = 206 internal+leaf nodes plus the
     root; pruning must beat it. *)
  check_bool "pruned" true (nodes < 326)

let test_permutations () =
  check "3!" 6 (List.length (List.of_seq (Test_util.permutations [ 1; 2; 3 ])));
  check "0!" 1 (List.length (List.of_seq (Test_util.permutations ([] : int list))))


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
  let _, exhaustive_best, _ = exhaustive e steps in
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
   [elt]s, so some mover always occurs at least twice and symmetry classes
   of size 2–3 are common. *)
let dup_set_gen elt lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    let* pool = list_size (int_range (max 1 (n / 2)) (max 1 (n - 1))) elt in
    list_repeat n (oneofl pool))

let dup_step_set_gen lo hi = dup_set_gen bar_gen lo hi

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

(* Movers that carry more state than a bar: a contact row has a landing,
   its metal and a registered contact array, and the listed edges are
   variable, so a placement may shrink the row and rederive its cuts. *)
type mover = Bar of int * int | Row of string * int * Dir.t list

let mover_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun w h -> Bar (w, h)) (int_range 1 12) (int_range 1 12);
        map3
          (fun layer w var_edges -> Row (layer, w, var_edges))
          (oneofl [ "metal1"; "poly" ])
          (int_range 3 14)
          (oneofl [ []; [ Dir.North; Dir.South ]; [ Dir.East; Dir.West ] ]);
      ])

let show_mover = function
  | Bar (w, h) -> Printf.sprintf "bar %dx%d" w h
  | Row (layer, w, var_edges) ->
      Printf.sprintf "row %s w=%d var=%s" layer w
        (String.concat "" (List.map Dir.to_string var_edges))

let mover_obj e ~name = function
  | Bar (w, h) ->
      let o = Lobj.create name in
      ignore
        (Lobj.add_shape o ~layer:"metal1"
           ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int w)) ~h:(um (float_of_int h)))
           ~net:name ());
      o
  | Row (layer, w, var_edges) ->
      Amg_modules.Contact_row.make e ~name ~layer ~w:(um (float_of_int w)) ~net:name
        ~var_edges ()

let mover_steps e dims =
  List.mapi
    (fun i (m, d) -> Optimize.step (mover_obj e ~name:(Printf.sprintf "s%d" i) m) d)
    dims

let uids order = List.map (fun s -> s.Optimize.uid) order
let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Each step named by the generator value it was built from: two steps
   built from equal values are the same mover on different private nets.
   Derived from the generator alone, independently of
   [Optimize.step_classes]. *)
let mover_key dims steps =
  let keys = List.combine (uids steps) dims in
  fun (s : Optimize.step) -> List.assoc s.Optimize.uid keys

type reference = {
  best : (Lobj.t * float * Optimize.step list) option;
  evals : int;  (** every rebuild, rejected ones and same-mover swaps included *)
  moves : int;  (** accepted moves *)
  resumed : int;  (** accepted swaps (i, j) with i > 0: resumed past a prefix *)
  same_swaps : int;  (** swaps between two steps with equal [key] *)
  same_rate_current : bool;  (** every such swap rated exactly the current order *)
  rounds : Optimize.step list list;
      (** the incumbent every round started from, in order *)
  mate_wins : int;  (** accepted swaps brought in by a later class-mate *)
  lazy_final : bool;
      (** the returned layout is a later class-mate's: its climb's last
          accepted swap (i, j) has a mover equal to the one at j between
          i and j *)
}

(* Swap (i, j) of [order] brings in a mover that an earlier position past
   i also holds: the swap is a later member of its spine group. *)
let later_mate key order (i, j) =
  let at = Array.of_list order in
  let rec go k = k < j && (key at.(k) = key at.(j) || go (k + 1)) in
  go (i + 1)

(* Reference steepest descent: every candidate is a plain [Optimize.apply]
   rated with [Rating.rate] — no pool, no symmetry classes.  Same
   restarts (the LCG shuffles, drawn up front), same
   neighbourhood (all pairwise swaps, same-mover ones too), ties to the
   lowest swap, and every evaluation counted. *)
let reference_local ?base e ~key ~restarts ~seed steps =
  let evals = ref 0 and moves = ref 0 and resumed = ref 0 in
  let rounds = ref [] and mate_wins = ref 0 in
  let same_swaps = ref 0 and same_rate_current = ref true in
  let rate order =
    incr evals;
    match Optimize.apply ?base e ~name:"x" order with
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
  let rec descend last ((_, r, order) as cur) =
    let best = ref None in
    let at = Array.of_list order in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let cand = swap order i j in
        let bar = match !best with Some (_, b, _, _) -> b | None -> r in
        let rated = rate cand in
        if key at.(i) = key at.(j) then begin
          incr same_swaps;
          match rated with
          | Some (_, rc) when Float.equal rc r -> ()
          | _ -> same_rate_current := false
        end;
        match rated with
        | Some (m, rc) when rc < bar -> best := Some (m, rc, cand, (i, j))
        | _ -> ()
      done
    done;
    match !best with
    | Some (m, rc, cand, ((i, _) as ij)) ->
        incr moves;
        if i > 0 then incr resumed;
        rounds := order :: !rounds;
        let mate = later_mate key order ij in
        if mate then incr mate_wins;
        descend mate (m, rc, cand)
    | None ->
        rounds := order :: !rounds;
        (cur, last)
  in
  let climb start =
    Option.map (fun (m, r) -> descend false (m, r, start)) (rate start)
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
        | Some ((_, ra, _), _), Some (((_, r, _), _) as c) when r < ra -> Some c
        | acc, _ -> acc)
      None
      (steps :: List.rev !shuffled)
  in
  {
    best = Option.map fst best;
    rounds = List.rev !rounds;
    mate_wins = !mate_wins;
    lazy_final = (match best with Some (_, l) -> l | None -> false);
    evals = !evals;
    moves = !moves;
    resumed = !resumed;
    same_swaps = !same_swaps;
    same_rate_current = !same_rate_current;
  }

(* Five to seven draws from two contact rows with variable north and
   south edges, a wide metal1 row compacted north and a narrow poly row
   compacted west: classes of mates spread across the order, so about one
   case in five has a round won by a later class-mate and one in ten
   returns its lazily rebuilt layout (the other two shapes of case: about
   one in 150). *)
let mates_gen =
  QCheck2.Gen.(
    let row layer widths dir =
      map (fun w -> (Row (layer, w, [ Dir.North; Dir.South ]), dir)) widths
    in
    let* a = row "metal1" (int_range 6 12) Dir.North
    and* b = row "poly" (int_range 2 5) Dir.West
    and* n = int_range 5 7 in
    list_repeat n (oneofl [ a; b ]))

(* Bars and contact rows, all distinct, with repeats or as two-row mates
   (half of the cases), descending into an empty main or onto a [?base]
   object (a mover on net "base"). *)
let local_case_gen =
  QCheck2.Gen.(
    let movers = pair mover_gen (oneofl [ Dir.South; Dir.West; Dir.North; Dir.East ]) in
    quad
      (frequency
         [ (1, list_size (int_range 3 7) movers); (1, dup_set_gen movers 3 7); (2, mates_gen) ])
      (int_range 0 10_000) (int_range 1 3) (opt ~ratio:0.5 mover_gen))

let show_local_case (dims, seed, restarts, base) =
  Printf.sprintf "seed=%d restarts=%d base=%s [%s]" seed restarts
    (Option.fold ~none:"-" ~some:show_mover base)
    (String.concat "; "
       (List.map (fun (m, d) -> show_mover m ^ " " ^ Dir.to_string d) dims))

let local_case e (dims, _, _, base) =
  let steps = mover_steps e dims in
  (steps, Option.map (mover_obj e ~name:"base") base, mover_key dims steps)

(* [optimize_local] (pool, incumbent cell, symmetry classes, prefix
   ladder) agrees with the reference on rating, order, evaluation count,
   CIF bytes and shapes with their nets in store order (CIF carries no
   net, so only the shapes show a later class-mate's layout returned
   without its rebuild) for every domain count.  Every same-mover swap the
   reference rates equals the current rating — the soundness of skipping
   them — and [optimize_local] rates exactly the others. *)
let prop_local_matches_reference =
  QCheck2.Test.make ~name:"local search matches reference descent" ~count:100
    ~print:show_local_case local_case_gen
    (fun ((_, seed, restarts, _) as case) ->
      let e = env () in
      let steps, base, key = local_case e case in
      let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
      let ref_ = reference_local ?base e ~key ~restarts ~seed steps in
      match ref_.best with
      | None -> QCheck2.assume_fail ()
      | Some (rm, rr, rorder) ->
          ref_.same_rate_current
          && List.for_all
               (fun d ->
                 let m, r, order, evals =
                   Optimize.optimize_local e ~name:"x" ?base ~restarts ~seed
                     ~domains:d steps
                 in
                 Float.equal r rr && uids order = uids rorder
                 && evals = ref_.evals - ref_.same_swaps
                 && String.equal (cif m) (cif rm)
                 && List.equal Shape.equal (Lobj.shapes m) (Lobj.shapes rm))
               Test_util.domain_counts)

(* The property above only covers the path where a candidate keeps its
   layout if some round accepts a move, the ladder only if an accepted
   swap resumes past a prefix, and the skip only when a same-mover swap
   exists; pin that the generator reaches all three, the resumed move
   with contact rows on a base object. *)
let test_local_reference_accepts_moves () =
  let e = env () in
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:150 local_case_gen
  in
  let runs =
    List.map
      (fun ((dims, seed, restarts, base) as case) ->
        let steps, base_obj, key = local_case e case in
        let has_row = List.exists (function Row _, _ -> true | _ -> false) dims in
        ( has_row && base <> None,
          reference_local ?base:base_obj e ~key ~restarts ~seed steps ))
      cases
  in
  check_bool "some generated case accepts a move" true
    (List.exists (fun (_, r) -> r.moves > 0) runs);
  check_bool "some generated case swaps equal movers" true
    (List.exists (fun (_, r) -> r.same_swaps > 0) runs);
  check_bool "some case with rows on a base resumes an accepted swap" true
    (List.exists (fun (rows_on_base, r) -> rows_on_base && r.resumed > 0) runs);
  check_bool "some round is won by a later class-mate" true
    (List.exists (fun (_, r) -> r.mate_wins > 0) runs);
  check_bool "some case returns a later class-mate's layout" true
    (List.exists (fun (_, r) -> r.lazy_final) runs)

(* A case whose descent accepts a swap brought in by a later class-mate
   and returns that layout (the first case of the generator above to do
   so): the search keeps the swapped order with a lazy rebuild of its
   layout, and the forced rebuild matches the reference, bytes and nets,
   on every domain count. *)
let later_mate_case =
  let row layer w dir = (Row (layer, w, [ Dir.North; Dir.South ]), dir) in
  ( [
      row "metal1" 10 Dir.North;
      row "poly" 3 Dir.West;
      row "poly" 3 Dir.West;
      row "metal1" 10 Dir.North;
      row "poly" 3 Dir.West;
    ],
    3765,
    1,
    None )

let test_local_later_mate_rebuild () =
  let e = env () in
  let ((_, seed, restarts, _) as case) = later_mate_case in
  let steps, base, key = local_case e case in
  let ref_ = reference_local ?base e ~key ~restarts ~seed steps in
  check_bool "a later class-mate wins a round" true (ref_.mate_wins > 0);
  check_bool "the returned layout is a later class-mate's" true ref_.lazy_final;
  let rm, rr, rorder =
    match ref_.best with Some b -> b | None -> Alcotest.fail "reference rejected"
  in
  let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
  List.iter
    (fun d ->
      let m, r, order, evals =
        Optimize.optimize_local e ~name:"x" ?base ~restarts ~seed ~domains:d steps
      in
      Alcotest.(check (float 0.)) "rating" rr r;
      Alcotest.(check (list int)) "order" (uids rorder) (uids order);
      check "evaluations" (ref_.evals - ref_.same_swaps) evals;
      Alcotest.(check string) "CIF" (cif rm) (cif m);
      (* CIF carries no net: the mates' nets must sit where the real
         order puts them too. *)
      check_bool "shapes, nets included" true
        (List.equal Shape.equal (Lobj.shapes rm) (Lobj.shapes m)))
    Test_util.domain_counts

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
      let bm, br, border, _ = Optimize.search e ~name:"x" Wire.Bb steps in
      Float.equal xr br && uids xorder = uids border
      && String.equal (cif xm) (cif bm))

(* Orders mode is the walk restricted to the first 720 orders (the last
   six steps permuted).  Under every eval cap it agrees with the
   apply-based reference — the first minimum over the first
   max(1, min(cap, 720)) orders — on rating, order and CIF bytes, charges
   the budget the orders the reference walked, and is degraded exactly
   when those are fewer than the window.  n = 7 and 8 exercise the fixed
   prefix; repeated movers exercise the class skip. *)
let orders_caps = [ None; Some 0; Some 1; Some 5; Some 40; Some 721 ]

let orders_match_reference dims =
  let e = env () in
  let steps = mover_steps e dims in
  let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
  let window = Int.min 720 (factorial (List.length steps)) in
  List.for_all
    (fun cap ->
      match Test_util.reference_orders ?cap e steps with
      | None, _ -> false
      | Some (xm, xr, xorder), walked ->
          List.for_all
            (fun domains ->
              let budget = Amg_robust.Budget.create ?max_evals:cap () in
              let m, r, order, _ =
                Optimize.search e ~name:"x" ~domains ~budget Wire.Orders steps
              in
              Float.equal xr r && uids xorder = uids order
              && String.equal (cif xm) (cif m)
              && Amg_robust.Budget.spent budget = walked
              && Amg_robust.Budget.degraded budget = (walked < window))
            Test_util.domain_counts)
    orders_caps

let prop_orders_matches_reference =
  let movers =
    QCheck2.Gen.(pair mover_gen (oneofl [ Dir.South; Dir.West; Dir.North; Dir.East ]))
  in
  QCheck2.Test.make ~name:"orders mode matches the reference" ~count:30
    ~print:(fun dims ->
      String.concat "; "
        (List.map (fun (m, d) -> show_mover m ^ " " ^ Dir.to_string d) dims))
    QCheck2.Gen.(oneof [ list_size (int_range 2 8) movers; dup_set_gen movers 2 8 ])
    orders_match_reference

(* Two counterexamples the property above once shrank to.  Placing a
   relaxing step may shrink a variable edge of a row already in the main
   and pull the bounding box in, so a partial bounding box is no lower
   bound there: the walk pruned the subtree holding the reference's first
   optimum and returned an equally rated later order.  Branch-and-bound
   shares the bound, so it is held to the exhaustive search too. *)
let test_orders_bound_variable_targets () =
  let row layer w var dir = (Row (layer, w, var), dir) in
  let ns = [ Dir.North; Dir.South ] in
  List.iter
    (fun (what, dims) ->
      check_bool (what ^ ": orders") true (orders_match_reference dims);
      let e = env () in
      let steps = mover_steps e dims in
      let cif m = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) m in
      let xm, xr, xorder = exhaustive e steps in
      let bm, br, border, _ = Optimize.search e ~name:"x" Wire.Bb steps in
      Alcotest.(check (float 0.)) (what ^ ": bb rating") xr br;
      Alcotest.(check (list int)) (what ^ ": bb order") (uids xorder) (uids border);
      Alcotest.(check string) (what ^ ": bb CIF") (cif xm) (cif bm))
    [
      ( "two bars, two shrinkable rows",
        [
          (Bar (1, 4), Dir.West);
          (Bar (1, 4), Dir.West);
          row "metal1" 6 ns Dir.South;
          row "metal1" 6 ns Dir.South;
        ] );
      ( "rows on two layers",
        [
          row "metal1" 7 ns Dir.South;
          (Bar (1, 1), Dir.East);
          row "poly" 7 ns Dir.South;
          row "poly" 3 [] Dir.East;
        ] );
    ]

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
module Obs = Amg_obs.Obs

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
  let _, r, order, _ = Optimize.search e ~name:"x" ~domains:1 Wire.Bb steps in
  let budget = Budget.create ~max_evals:5 () in
  let _, r', order', _ = Optimize.search e ~name:"x" ~domains:1 ~budget Wire.Bb steps in
  check_bool "not degraded" false (Budget.degraded budget);
  Alcotest.(check (float 0.)) "same rating" r r';
  Alcotest.(check (list int)) "same order" (uids order) (uids order')

(* A permissive orders search where one placement falls back: [x]'s south
   edge is variable and contains a cut array on a layer without a cut
   size, so shrinking it while a spacing binds fails, and [x] is placed
   from the north instead ([compact.direction-fallback]).  The rating and
   CIF equal the apply-based reference under the same policy; the
   reports come one per placement of [x] onto rows the walk made (a
   first object is copied in, not placed), which is far fewer than the
   reference's one per order. *)
let test_permissive_orders_fallback () =
  with_permissive @@ fun () ->
  let e = env () in
  let x = Lobj.create "x" in
  let sh =
    Lobj.add_shape x ~layer:"metal1"
      ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 6.) ~h:(um 2.))
      ~net:"x"
      ~sides:Amg_layout.Edge.(set all_fixed Dir.South Variable)
      ()
  in
  ignore (Lobj.register_array x ~cut_layer:"metal2" ~container_ids:[ sh.Shape.id ] ());
  let steps =
    bar_steps [ (10, 2, Dir.South); (2, 6, Dir.West); (4, 2, Dir.South); (2, 2, Dir.West) ]
    @ [ Optimize.step x Dir.South ]
  in
  let fallbacks ds =
    List.length
      (List.filter
         (fun (d : Amg_robust.Diag.t) -> d.Amg_robust.Diag.code = "compact.direction-fallback")
         ds)
  in
  let (reference, _), ref_diags =
    Policy.capture (fun () -> Test_util.reference_orders e steps)
  in
  let xm, xr, xorder =
    match reference with Some best -> best | None -> Alcotest.fail "reference rejected"
  in
  Obs.enable ();
  let (m, r, order, _), diags =
    Fun.protect ~finally:Obs.disable (fun () ->
        Policy.capture (fun () ->
            Optimize.search e ~name:"x" ~domains:1 Wire.Orders steps))
  in
  let x_placements =
    List.length
      (List.filter
         (fun (name, args) ->
           name = "compact.place"
           && List.assoc_opt "obj" args = Some "x"
           && List.assoc_opt "bound_by" args <> Some "first-object")
         (Obs.marks ()))
  in
  Obs.reset ();
  let cif o = Amg_layout.Cif.of_lobj ~tech:(Env.tech e) o in
  Alcotest.(check (float 0.)) "rating equals the reference" xr r;
  Alcotest.(check (list int)) "order equals the reference" (uids xorder) (uids order);
  Alcotest.(check string) "CIF equals the reference" (cif xm) (cif m);
  check "the reference falls back once per order placing x onto rows" 96
    (fallbacks ref_diags);
  check_bool "the walk falls back" true (fallbacks diags > 0);
  check "one fallback per placement of x" x_placements (fallbacks diags);
  check_bool "fewer than one per order" true (fallbacks diags < 96)

(* Under the permissive policy every candidate is built (and may report
   its own diagnostics): local search rates every swap. *)
let test_permissive_rates_every_swap () =
  with_permissive @@ fun () ->
  let e = env () in
  let steps = bar_steps twin_dims in
  let ref_ =
    reference_local e ~key:(mover_key twin_dims steps) ~restarts:1 ~seed:1 steps
  in
  let _, _, _, evals = Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:1 steps in
  check_bool "the case has same-mover swaps" true (ref_.same_swaps > 0);
  check "every swap rated" ref_.evals evals

(* The prefix ladder fixes how many placements a search makes (the first
   step into an empty main is copied in, not placed): a start places
   n - 1 objects; a round replays the incumbent's first n - 2 steps once
   (n - 3 placements) and swap (i, j) places steps i … n-1 onto a copy of
   the incumbent's layout after i steps.  Under the permissive policy the
   ladder stops at depth 0, so every candidate replays whole — exactly
   the reference's plain rebuilds. *)
let placements f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.enable ();
      ignore (f ());
      Obs.counter "compact.placements")

let test_local_placements_follow_ladder () =
  let e = env () in
  (* Five distinct bars: no swap is skipped as same-mover. *)
  let dims =
    [ (10, 2, Dir.South); (2, 6, Dir.West); (4, 2, Dir.South); (2, 2, Dir.West); (6, 2, Dir.South) ]
  in
  let steps = bar_steps dims in
  let n = List.length steps in
  let local d () = Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:d steps in
  let ref_ = reference_local e ~key:(mover_key dims steps) ~restarts:1 ~seed:1 steps in
  check_bool "the descent resumes an accepted swap" true (ref_.resumed > 0);
  let round =
    (n - 3)
    + List.fold_left ( + ) 0
        (List.init (n - 1) (fun i -> (n - 1 - i) * (n - max i 1)))
  in
  let ladder_total = (n - 1) + ((ref_.moves + 1) * round) in
  check_bool "fewer than whole replays" true (ladder_total < ref_.evals * (n - 1));
  List.iter
    (fun d -> check "strict: suffixes from the ladder" ladder_total (placements (local d)))
    Test_util.domain_counts;
  with_permissive @@ fun () ->
  let whole =
    placements (fun () ->
        reference_local e ~key:(mover_key dims steps) ~restarts:1 ~seed:1 steps)
  in
  List.iter
    (fun d -> check "permissive: whole replays" whole (placements (local d)))
    Test_util.domain_counts

(* Spines fix the placements of a search with repeated movers.  A round
   still replays the incumbent's first n - 2 steps once (n - 3
   placements).  Its rated swaps form groups: depth i and the class of
   the incoming mover, with members j1 < … < jm (every position past i
   holding that class).  A group lays one spine, b[j1] at i and then
   positions i+1 … jm-1 (jm - i placements, one fewer at i = 0, where
   b[j1] is copied into the empty main), and each member jk places b[i]
   and steps jk+1 … n-1 (n - jk).  A search that returns a later
   member's layout rebuilds it once (n - 1).  That is strictly fewer than
   resuming every swap from the ladder (n - max i 1 each), for every
   domain count; under the permissive policy every class is a singleton
   and every candidate replays whole, as in the reference. *)
(* [key] as the position of the first step with an equal key. *)
let first_equal key steps s =
  let rec go i = function
    | [] -> assert false
    | s' :: rest -> if key s' = key s then i else go (i + 1) rest
  in
  go 0 steps

let test_local_placements_follow_spines () =
  let e = env () in
  let bars = twin_dims @ [ (2, 6, Dir.West) ] in
  let steps_bars = bar_steps bars in
  let rows_steps, _, rows_key = local_case e later_mate_case in
  List.iter
    (fun (what, steps, key, fewer) ->
      let n = List.length steps in
      let local d () = Optimize.optimize_local e ~name:"x" ~restarts:1 ~domains:d steps in
      let ref_ = reference_local e ~key ~restarts:1 ~seed:1 steps in
      let positions lo = List.init (Int.max 0 (n - lo)) (fun k -> lo + k) in
      let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
      let round order =
        let at = Array.of_list (List.map key order) in
        (* (i, members): j1 is the first position past i of its class *)
        let first_past i j1 =
          at.(j1) <> at.(i)
          && not (List.exists (fun k -> k < j1 && at.(k) = at.(j1)) (positions (i + 1)))
        in
        let groups =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j1 ->
                  if first_past i j1 then
                    Some (i, List.filter (fun j -> at.(j) = at.(j1)) (positions j1))
                  else None)
                (positions (i + 1)))
            (List.init (n - 1) Fun.id)
        in
        let spines =
          sum
            (fun (i, js) ->
              let jm = List.nth js (List.length js - 1) in
              jm - i - (if i = 0 then 1 else 0) + sum (fun j -> n - j) js)
            groups
        in
        let ladder =
          sum (fun (i, js) -> List.length js * (n - Int.max i 1)) groups
        in
        (spines, ladder)
      in
      check_bool (what ^ ": the descent accepts a move") true (ref_.moves > 0);
      let rounds = List.map round ref_.rounds in
      check_bool (what ^ ": some class has several members") true
        (List.length (List.sort_uniq Int.compare (List.map key steps)) < n);
      let spine_total =
        (n - 1)
        + sum (fun (spines, _) -> (n - 3) + spines) rounds
        + if ref_.lazy_final then n - 1 else 0
      in
      let ladder_total = (n - 1) + sum (fun (_, ladder) -> (n - 3) + ladder) rounds in
      if fewer then
        check_bool (what ^ ": fewer than resuming each swap") true (spine_total < ladder_total);
      List.iter
        (fun d -> check (what ^ ": strict: spines") spine_total (placements (local d)))
        Test_util.domain_counts;
      with_permissive @@ fun () ->
      let whole =
        placements (fun () -> reference_local e ~key ~restarts:1 ~seed:1 steps)
      in
      List.iter
        (fun d -> check (what ^ ": permissive: whole replays") whole (placements (local d)))
        Test_util.domain_counts)
    [
      ("three bar mates", steps_bars, first_equal (mover_key bars steps_bars) steps_bars, true);
      ("later-mate rows", rows_steps, first_equal rows_key rows_steps, false);
    ]

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
    Alcotest.test_case "variants backtracking" `Quick test_variants_backtracking;
    Alcotest.test_case "variants first is lazy" `Quick test_variants_first_lazy;
    Alcotest.test_case "rating" `Quick test_rating;
    Alcotest.test_case "optimize orders" `Quick test_optimize_orders;
    Alcotest.test_case "branch and bound matches exhaustive" `Quick test_optimize_bb_matches_exhaustive;
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "local search optimizer" `Quick test_optimize_local;
    QCheck_alcotest.to_alcotest prop_local_matches_reference;
    Alcotest.test_case "local reference accepts moves" `Quick
      test_local_reference_accepts_moves;
    Alcotest.test_case "local later class-mate rebuilds" `Quick
      test_local_later_mate_rebuild;
    QCheck_alcotest.to_alcotest prop_bb_matches_exhaustive;
    QCheck_alcotest.to_alcotest prop_orders_matches_reference;
    Alcotest.test_case "orders bound with shrinkable targets" `Quick
      test_orders_bound_variable_targets;
    QCheck_alcotest.to_alcotest prop_local_never_beats_exhaustive;
    Alcotest.test_case "step classes: singletons" `Quick test_step_classes_singletons;
    Alcotest.test_case "step classes: pack10" `Quick test_pack10_classes;
    Alcotest.test_case "local round charges rated swaps" `Quick
      test_local_round_charges_rated_swaps;
    Alcotest.test_case "bb quota counts canonical firsts" `Quick
      test_bb_quota_counts_canonical_firsts;
    Alcotest.test_case "permissive local rates every swap" `Quick
      test_permissive_rates_every_swap;
    Alcotest.test_case "permissive orders fall back once per node" `Quick
      test_permissive_orders_fallback;
  ]

(* The prefix ladder's replay-depth pin, run as its own suite. *)
let ladder_suite =
  [
    Alcotest.test_case "local placements follow the ladder" `Quick
      test_local_placements_follow_ladder;
    Alcotest.test_case "local placements follow the spines" `Quick
      test_local_placements_follow_spines;
  ]
