(* The domain pool and the determinism contract of the parallel
   optimization mode: for any domain count (1 = sequential, the pool spawns
   nothing), every search returns the identical rating, the identical
   chosen order and a byte-identical layout. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Svg = Amg_layout.Svg
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Wire = Amg_robust.Wire
module Rating = Amg_core.Rating
module Pool = Amg_parallel.Pool
module Budget = Amg_robust.Budget
module M = Amg_modules

let um = Units.of_um
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let env () = Env.bicmos ()

let domain_counts = Test_util.domain_counts

(* --- the pool itself --- *)

let test_pool_map () =
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun p ->
          check "size" (max 1 d) (Pool.size p);
          let arr = Array.init 100 Fun.id in
          let out = Pool.map_array p (fun i -> i * i) arr in
          Array.iteri (fun i v -> check "square in order" (i * i) v) out;
          (* Uneven task sizes: early indices are the heavy ones, so a
             participant that claims one lags while the others take the
             rest of the indices from the shared cursor. *)
          let heavy i =
            let n = if i < 10 then 200_000 else 10 in
            let acc = ref 0 in
            for k = 1 to n do
              acc := !acc + (k mod 7)
            done;
            (i, !acc)
          in
          let out = Pool.map_array p heavy (Array.init 64 Fun.id) in
          Array.iteri (fun i (j, _) -> check "input order kept" i j) out))
    domain_counts

let test_pool_empty_and_single () =
  Pool.with_pool ~domains:4 (fun p ->
      check "empty" 0 (Array.length (Pool.map_array p Fun.id [||]));
      Alcotest.(check (array int)) "single" [| 7 |] (Pool.map_array p Fun.id [| 7 |]))

exception Boom of int

let test_pool_error_lowest_index () =
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun p ->
          let got =
            try
              ignore
                (Pool.map_array p
                   (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
                   (Array.init 30 Fun.id));
              None
            with Boom i -> Some i
          in
          (* Every failing index may run on any domain, but the caller
             must always see the lowest one. *)
          Alcotest.(check (option int)) "lowest failing index" (Some 1) got;
          (* The pool survives a failed job. *)
          Alcotest.(check (array int)) "pool still works" [| 0; 2; 4 |]
            (Pool.map_array p (fun i -> 2 * i) [| 0; 1; 2 |])))
    domain_counts

(* A busy loop of [c] units, so tasks of one job cost unevenly. *)
let spin c =
  let acc = ref 0 in
  for k = 1 to c * 1000 do
    acc := !acc + (k mod 7)
  done;
  Sys.opaque_identity !acc |> ignore

(* Task [i] of the pool properties: it counts its runs in [runs.(i)] and
   costs [costs.(i)] units. *)
let counted_task runs costs i =
  Atomic.incr runs.(i);
  spin costs.(i);
  (3 * i) + 1

(* Mostly cheap tasks with a few heavy ones among them. *)
let gen_costs =
  QCheck2.Gen.(
    array_size (int_range 0 300)
      (frequency [ (9, int_range 0 2); (1, int_range 20 60) ]))

let prop_each_task_once =
  QCheck2.Test.make ~count:60 ~name:"pool: each task runs exactly once"
    ~print:(fun (d, costs) ->
      Printf.sprintf "domains=%d tasks=%d" d (Array.length costs))
    QCheck2.Gen.(pair (oneofl [ 1; 2; 4 ]) gen_costs)
    (fun (d, costs) ->
      let n = Array.length costs in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        Pool.with_pool ~domains:d (fun p ->
            Pool.map_array p (counted_task runs costs) (Array.init n Fun.id))
      in
      Array.for_all (fun r -> Atomic.get r = 1) runs
      && out = Array.init n (fun i -> (3 * i) + 1))

(* [cancel] is polled once per claim, so a cancel that fires after [k]
   polls lets exactly the first [k] claims run, whichever domains make
   them; every slot is [Some (f i)] exactly when its task ran. *)
let prop_cancel_after_k =
  QCheck2.Test.make ~count:60
    ~name:"pool: cancel after k claims runs k tasks once each"
    ~print:(fun (d, costs, k) ->
      Printf.sprintf "domains=%d tasks=%d k=%d" d (Array.length costs) k)
    QCheck2.Gen.(triple (oneofl [ 2; 4 ]) gen_costs (int_range 0 320))
    (fun (d, costs, k) ->
      let n = Array.length costs in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let polls = Atomic.make 0 in
      let out =
        Pool.with_pool ~domains:d (fun p ->
            Pool.map_array_cancel p
              ~cancel:(fun () -> Atomic.fetch_and_add polls 1 >= k)
              (counted_task runs costs) (Array.init n Fun.id))
      in
      let ran = Array.map Atomic.get runs in
      Array.for_all (fun r -> r <= 1) ran
      && Array.fold_left ( + ) 0 ran = Int.min k n
      && Array.for_all Fun.id
           (Array.mapi
              (fun i slot ->
                match (ran.(i), slot) with
                | 1, Some v -> v = (3 * i) + 1
                | 0, None -> true
                | _ -> false)
              out))

let test_pool_clamps () =
  Pool.with_pool ~domains:0 (fun p -> check "clamped to 1" 1 (Pool.size p));
  check_bool "recommended >= 1" true (Pool.recommended () >= 1)

(* --- workloads --- *)

(* The paper's diff-pair: transistor, poly contact row, diffusion contact
   row (the test_sindex regression workload). *)
let diffpair_steps e =
  let trans =
    M.Mosfet.make e ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.)
      ~sd_contacts:`None ~well:false ()
  in
  Lobj.set_name trans "trans";
  let polycon = M.Contact_row.make e ~layer:"poly" ~l:(um 5.) ~net:"g" () in
  Lobj.set_name polycon "polycon";
  let diffcon =
    M.Contact_row.make e ~layer:"pdiff" ~w:(um 10.) ~net:"sd" ()
  in
  Lobj.set_name diffcon "diffcon";
  [
    Optimize.step trans Dir.South;
    Optimize.step polycon ~ignore_layers:[ "poly" ] Dir.South;
    Optimize.step diffcon ~ignore_layers:[ "pdiff" ] Dir.South;
  ]

(* The bench workload: n contact rows of cycling widths, alternating
   compaction directions. *)
let contact_row_steps e n =
  List.init n (fun i ->
      let w = um (float_of_int (20 + (i mod 4) * 12)) in
      let row =
        M.Contact_row.make e ~layer:"metal1"
          ~net:(Printf.sprintf "n%d" i) ~w ()
      in
      Lobj.set_name row (Printf.sprintf "row%d" i);
      Optimize.step row (if i mod 2 = 0 then Dir.South else Dir.West))

let order_names order = List.map (fun s -> Lobj.name s.Optimize.obj) order

(* Identical ratings means bit-identical floats — the parallel path must
   pick the very same layout, not one that rates equal to a tolerance. *)
let check_float_identical what a b =
  check_bool (what ^ " bit-identical") true (Float.equal a b)

let check_svg_identical e what a b =
  let svg o = Svg.of_lobj ~tech:(Env.tech e) o in
  check_bool (what ^ ": byte-identical SVG") true (String.equal (svg a) (svg b))

(* --- optimize_local: domains 1/2/4 identical --- *)

let local_determinism e steps =
  let runs =
    List.map
      (fun d -> (d, Optimize.optimize_local e ~name:"det" ~domains:d steps))
      domain_counts
  in
  match runs with
  | [] -> assert false
  | (_, (m1, r1, o1, evals1)) :: rest ->
      List.iter
        (fun (d, (m, r, o, evals)) ->
          let tag = Printf.sprintf "local domains=%d" d in
          check_float_identical (tag ^ " rating") r1 r;
          Alcotest.(check (list string))
            (tag ^ " chosen order") (order_names o1) (order_names o);
          check (tag ^ " evals") evals1 evals;
          check_svg_identical e tag m1 m)
        rest

let test_local_determinism_diffpair () =
  let e = env () in
  local_determinism e (diffpair_steps e)

let test_local_determinism_contact8 () =
  let e = env () in
  local_determinism e (contact_row_steps e 8)

(* --- branch-and-bound: domains 1/2/4 identical --- *)

let bb_determinism e steps =
  let runs =
    List.map
      (fun d -> (d, Optimize.search e ~name:"det" ~domains:d Wire.Bb steps))
      domain_counts
  in
  match runs with
  | [] -> assert false
  | (_, (m1, r1, o1, nodes1)) :: rest ->
      List.iter
        (fun (d, (m, r, o, nodes)) ->
          let tag = Printf.sprintf "bb domains=%d" d in
          check_float_identical (tag ^ " rating") r1 r;
          Alcotest.(check (list string))
            (tag ^ " chosen order") (order_names o1) (order_names o);
          check (tag ^ " nodes") nodes1 nodes;
          check_svg_identical e tag m1 m)
        rest

let test_bb_determinism_diffpair () =
  let e = env () in
  bb_determinism e (diffpair_steps e)

(* n = 6 is the exhaustive-reach cap the bench uses for branch-and-bound
   (n = 8 explores ~70k nodes, tens of seconds per run). *)
let test_bb_determinism_contact6 () =
  let e = env () in
  bb_determinism e (contact_row_steps e 6)

(* --- orders mode: domains 1/2/4 identical --- *)

let test_orders_determinism () =
  let e = env () in
  let steps = contact_row_steps e 5 in
  let runs =
    List.map
      (fun d -> (d, Optimize.search e ~name:"det" ~domains:d Wire.Orders steps))
      domain_counts
  in
  match runs with
  | [] -> assert false
  | (_, (m1, r1, o1, nodes1)) :: rest ->
      check_bool "walked some nodes" true (nodes1 > 0);
      List.iter
        (fun (d, (m, r, o, nodes)) ->
          let tag = Printf.sprintf "orders domains=%d" d in
          check_float_identical (tag ^ " rating") r1 r;
          Alcotest.(check (list string))
            (tag ^ " chosen order") (order_names o1) (order_names o);
          check (tag ^ " nodes") nodes1 nodes;
          check_svg_identical e tag m1 m)
        rest

(* Orders mode keeps only its incumbent layout; it must return exactly the
   first minimum of the apply-based reference — rating, order and bytes —
   for every domain count, with and without an eval cap. *)
let test_orders_is_first_minimum () =
  let e = env () in
  let steps = contact_row_steps e 5 in
  let uids order = List.map (fun s -> s.Optimize.uid) order in
  List.iter
    (fun cap ->
      let fm, fr, forder =
        match Test_util.reference_orders ?cap e steps with
        | Some best, _ -> best
        | None, _ -> Alcotest.fail "reference: every order rejected"
      in
      List.iter
        (fun d ->
          let tag =
            Printf.sprintf "orders domains=%d cap=%s" d
              (match cap with Some m -> string_of_int m | None -> "none")
          in
          let budget = Option.map (fun m -> Budget.create ~max_evals:m ()) cap in
          let m, r, order, _ =
            Optimize.search e ~name:"x" ~domains:d ?budget Wire.Orders steps
          in
          check_float_identical (tag ^ " rating") fr r;
          Alcotest.(check (list int)) (tag ^ " order uids") (uids forder)
            (uids order);
          check_svg_identical e tag fm m)
        domain_counts)
    [ None; Some 40 ]

(* --- the reference's enumerator: qcheck properties + laziness --- *)

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

let prop_permutations =
  QCheck2.Test.make ~count:60 ~name:"permutations: n! distinct permutations"
    QCheck2.Gen.(int_range 0 6)
    (fun n ->
      let l = List.init n Fun.id in
      let perms = List.of_seq (Test_util.permutations l) in
      let sorted_l = List.sort compare l in
      (* lexicographic: the orders orders mode's window is a prefix of *)
      List.length perms = fact n
      && List.sort_uniq compare perms = perms
      && List.for_all (fun p -> List.sort compare p = sorted_l) perms)

let test_permutations_lazy () =
  (* 20! ~ 2.4e18: forcing the head must not materialize the tail.  If the
     sequence were strict this would never return. *)
  let l = List.init 20 Fun.id in
  (match (Test_util.permutations l) () with
  | Seq.Cons (first, _) -> Alcotest.(check (list int)) "head is identity" l first
  | Seq.Nil -> Alcotest.fail "no permutations");
  (* Taking a few of 10! = 3.6M orders is instant, and they are distinct. *)
  let some =
    List.of_seq (Seq.take 5 (Test_util.permutations (List.init 10 Fun.id)))
  in
  check "took 5" 5 (List.length some);
  check "distinct" 5 (List.length (List.sort_uniq compare some))

let suite =
  [
    Alcotest.test_case "pool map" `Quick test_pool_map;
    Alcotest.test_case "pool empty/single" `Quick test_pool_empty_and_single;
    Alcotest.test_case "pool error lowest index" `Quick
      test_pool_error_lowest_index;
    Alcotest.test_case "pool clamps" `Quick test_pool_clamps;
    Alcotest.test_case "local determinism (diff pair)" `Quick
      test_local_determinism_diffpair;
    Alcotest.test_case "local determinism (8 contact rows)" `Quick
      test_local_determinism_contact8;
    Alcotest.test_case "bb determinism (diff pair)" `Quick
      test_bb_determinism_diffpair;
    Alcotest.test_case "bb determinism (6 contact rows)" `Quick
      test_bb_determinism_contact6;
    Alcotest.test_case "orders determinism" `Quick test_orders_determinism;
    Alcotest.test_case "orders is the reference's first minimum" `Quick
      test_orders_is_first_minimum;
    QCheck_alcotest.to_alcotest prop_permutations;
    Alcotest.test_case "permutations lazy" `Quick test_permutations_lazy;
    QCheck_alcotest.to_alcotest prop_each_task_once;
    QCheck_alcotest.to_alcotest prop_cancel_after_k;
  ]
