(* The incremental-search machinery of DESIGN.md §10: Lobj snapshot /
   restore (rewinding must be indistinguishable from never having mutated,
   down to the spatial-index query results) and the prefix cache shared by
   the order optimizers (sharing may change wall time, never results). *)

module Units = Amg_geometry.Units
module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Cif = Amg_layout.Cif
module Successive = Amg_compact.Successive
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Pcache = Amg_core.Prefix_cache

let um = Units.of_um
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Everything observable about a layout object: the CIF bytes, the shape
   store verbatim, the ports, and what the per-layer spatial indexes answer
   (near is served by the index, so stale index state shows up here even
   when the shape list looks right). *)
let fingerprint env o =
  let near_sig () =
    match Lobj.bbox o with
    | None -> []
    | Some b ->
        List.concat_map
          (fun layer ->
            List.map Shape.show
              (Lobj.near o ~layer b ~margin:(um 2.))
            @ List.map Shape.show
                (Lobj.near o ~layer
                   (Rect.of_size ~x:0 ~y:0 ~w:(um 3.) ~h:(um 3.))
                   ~margin:0))
          (Lobj.layers o)
  in
  String.concat "\n"
    (Cif.of_lobj ~tech:(Env.tech env) o
     :: Lobj.name o
     :: string_of_int (Lobj.shape_count o)
     :: List.map Shape.show (Lobj.shapes o)
    @ List.map Amg_layout.Port.show (Lobj.ports o)
    @ near_sig ())

(* [keep_clear] adds a keep-clear poly strip beside the metal1 block, so
   the layer-pair skip has a keep-clear count to consult. *)
let compact_into ?(keep_clear = false) env main i (w_um, h_um, vert) =
  let o = Lobj.create (Printf.sprintf "o%d" i) in
  ignore
    (Lobj.add_shape o ~layer:"metal1"
       ~rect:
         (Rect.of_size ~x:0 ~y:0 ~w:(um (float_of_int w_um))
            ~h:(um (float_of_int h_um)))
       ~net:(Printf.sprintf "n%d" i) ());
  if keep_clear then
    ignore
      (Lobj.add_shape o ~layer:"poly"
         ~rect:
           (Rect.of_size ~x:(um (float_of_int w_um)) ~y:0 ~w:(um 1.)
              ~h:(um (float_of_int h_um)))
         ~net:(Printf.sprintf "k%d" i) ~keep_clear:true ());
  Successive.compact ~rules:(Env.rules env) ~into:main o
    (if vert then Dir.South else Dir.West)

let build ?(keep_clear = fun _ -> false) env specs =
  let main = Lobj.create "m" in
  List.iteri
    (fun i sp -> compact_into ~keep_clear:(keep_clear i) env main i sp)
    specs;
  main

(* Does every layer's maintained keep-clear count equal a fresh recount
   of its shapes? *)
let keep_clear_counts_exact o =
  List.for_all
    (fun layer ->
      Lobj.keep_clear_on o layer
      = List.length
          (List.filter (fun (s : Shape.t) -> s.Shape.keep_clear)
             (Lobj.shapes_on o layer)))
    ("metal1" :: "poly" :: Lobj.layers o)

(* --- snapshot / restore --- *)

(* Real compactions (placements, auto-connect, variable-edge relaxation)
   after a snapshot, then restore: the object must be byte-identical both
   to its own pre-snapshot state and to a fresh rebuild of the prefix.
   Every per-layer keep-clear count must match a recount throughout:
   after the journaled compactions, a replace that flips a shape's
   keep-clear and a removal, the restore, a replay of their delta, a copy
   and an absorb. *)
let prop_restore_is_rebuild =
  let placement = QCheck2.Gen.(tup3 (int_range 2 8) (int_range 2 8) bool) in
  let gen =
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 4) placement)
        (list_size (int_range 1 4) placement)
        (int_range 0 15) (* bit i: placement i brings a keep-clear strip *))
  in
  QCheck2.Test.make ~name:"restore rewinds to a byte-identical layout"
    ~count:25 gen (fun (base, extra, kc_bits) ->
      let env = Env.bicmos () in
      let keep_clear i = (kc_bits lsr (i mod 4)) land 1 = 1 in
      let main = build ~keep_clear env base in
      let before = fingerprint env main in
      let pristine = Lobj.copy main in
      let s = Lobj.snapshot main in
      let m = Lobj.mark main in
      List.iteri
        (fun i sp ->
          compact_into ~keep_clear:(keep_clear (i + 1)) env main (1000 + i) sp)
        extra;
      (match Lobj.shapes main with
      | sh :: _ ->
          Lobj.replace main { sh with Shape.keep_clear = not sh.Shape.keep_clear }
      | [] -> ());
      (match List.rev (Lobj.shapes main) with
      | sh :: _ when sh.Shape.keep_clear -> Lobj.remove main sh.Shape.id
      | _ -> ());
      let mutated_counts = keep_clear_counts_exact main in
      let delta = Lobj.delta_since main m in
      let mutated = fingerprint env main in
      Lobj.restore main s;
      Lobj.release main s;
      let after = fingerprint env main in
      let rebuilt = fingerprint env (build ~keep_clear env base) in
      Lobj.replay pristine delta;
      let copied = Lobj.copy pristine in
      let absorbed = Lobj.create "a" in
      ignore (Lobj.absorb absorbed pristine);
      after = before && after = rebuilt
      && (extra = [] || mutated <> before)
      && fingerprint env pristine = mutated
      && List.for_all keep_clear_counts_exact
           [ main; pristine; copied; absorbed ]
      && mutated_counts)

let test_restore_repeatable () =
  let env = Env.bicmos () in
  let main = build env [ (4, 2, true); (2, 6, false) ] in
  let before = fingerprint env main in
  let s = Lobj.snapshot main in
  (* The same snapshot serves several rewinds — the optimizer restores to
     one depth once per sibling. *)
  List.iter
    (fun i ->
      compact_into env main (100 + i) ((i mod 5) + 2, 3, i mod 2 = 0);
      Lobj.restore main s;
      check_bool
        (Printf.sprintf "rewind %d identical" i)
        true
        (fingerprint env main = before))
    [ 0; 1; 2 ];
  Lobj.release main s;
  check_bool "still identical after release" true
    (fingerprint env main = before)

(* --- the one-record absorb --- *)

(* Plain shapes, without ports or arrays (so an absorb and per-shape adds
   leave the same scalar fields): runs on metal1, a keep-clear poly shape,
   a layer [build] never creates, and a removed slot. *)
let absorb_source () =
  let src = Lobj.create "src" in
  let add ?keep_clear layer (x, y, w, h) =
    Lobj.add_shape src ~layer ?keep_clear ~net:"s"
      ~rect:(Rect.of_size ~x:(um x) ~y:(um y) ~w:(um w) ~h:(um h))
      ()
  in
  ignore (add "metal1" (0., 0., 4., 2.));
  let gone = add "metal1" (5., 0., 4., 2.) in
  ignore (add "metal1" (10., 0., 4., 2.));
  ignore (add ~keep_clear:true "poly" (0., 3., 9., 1.));
  ignore (add "pdiff" (0., 5., 3., 3.));
  ignore (add "metal1" (0., 9., 9., 2.));
  Lobj.remove src gone.Shape.id;
  src

(* An absorb is one journal record: restoring over it rewinds to a
   byte-identical object, its delta replays to one, and the delta counts
   the record as the k shape enters it batches — the same length and
   bytes as entering the k shapes one by one, so the prefix cache's
   budget sees what it saw before. *)
let test_absorb_record () =
  let env = Env.bicmos () in
  let main = build ~keep_clear:(fun i -> i = 1) env [ (4, 2, true); (2, 6, false) ] in
  let src = absorb_source () in
  let k = Lobj.shape_count src in
  let before = fingerprint env main in
  let start = Lobj.copy main in
  let s = Lobj.snapshot main in
  let m = Lobj.mark main in
  let offset = Lobj.absorb main src in
  (* The second absorb finds every layer present: its delta is the
     absorb record alone. *)
  let m2 = Lobj.mark main in
  ignore (Lobj.absorb main src);
  let d_absorb = Lobj.delta_since main m2 in
  let delta = Lobj.delta_since main m in
  let absorbed = fingerprint env main in
  let absorbed_counts = keep_clear_counts_exact main in
  Lobj.restore main s;
  Lobj.release main s;
  check_bool "restore rewinds to a byte-identical object" true
    (fingerprint env main = before);
  check_bool "absorbed ids are gone" true
    (List.for_all
       (fun (sh : Shape.t) -> Lobj.find main (sh.Shape.id + offset) = None)
       (Lobj.shapes src));
  (* New shapes reuse the freed ids and slots; no id may find another's
     shape. *)
  let probe = Lobj.copy main in
  for i = 0 to 1 do
    ignore
      (Lobj.add_shape probe ~layer:"metal1"
         ~rect:(Rect.of_size ~x:(um (float_of_int (20 * i))) ~y:(um 50.) ~w:(um 2.) ~h:(um 2.))
         ())
  done;
  check_bool "every id finds its own shape" true
    (List.for_all
       (fun id ->
         match Lobj.find probe id with None -> true | Some sh -> sh.Shape.id = id)
       (List.init (offset + 20) Fun.id));
  let replayed = Lobj.copy start in
  Lobj.replay replayed delta;
  check_bool "the delta replays to a byte-identical object" true
    (fingerprint env replayed = absorbed);
  check_int "one-absorb delta length" k (Lobj.delta_length d_absorb);
  let one_by_one = Lobj.copy start in
  ignore (Lobj.absorb one_by_one src);
  let s1 = Lobj.snapshot one_by_one in
  let m1 = Lobj.mark one_by_one in
  List.iter
    (fun (sh : Shape.t) ->
      ignore
        (Lobj.add_shape one_by_one ~layer:sh.Shape.layer ~rect:sh.Shape.rect
           ?net:sh.Shape.net ~keep_clear:sh.Shape.keep_clear ()))
    (Lobj.shapes src);
  let d_enters = Lobj.delta_since one_by_one m1 in
  Lobj.release one_by_one s1;
  check_int "per-shape delta length" k (Lobj.delta_length d_enters);
  check_int "absorb bytes = k per-shape enters" (Lobj.delta_bytes d_enters)
    (Lobj.delta_bytes d_absorb);
  check_bool "keep-clear counts exact" true
    (absorbed_counts
    && List.for_all keep_clear_counts_exact [ main; replayed; one_by_one ])

(* --- the prefix cache and the optimizer searches --- *)

let mk_steps n =
  List.init n (fun i ->
      let name = Printf.sprintf "s%d" i in
      let o = Lobj.create name in
      ignore
        (Lobj.add_shape o ~layer:"metal1"
           ~rect:
             (Rect.of_size ~x:0 ~y:0
                ~w:(um (float_of_int ((i mod 4) + 2)))
                ~h:(um (float_of_int (((i * 3) mod 5) + 2))))
           ~net:name ());
      Optimize.step o (if i mod 2 = 0 then Dir.South else Dir.West))

let uids = List.map (fun s -> s.Optimize.uid)

let domain_counts = Test_util.domain_counts

(* Entry accounting is conservative by construction: every admitted entry
   is either still live or was evicted exactly once. *)
let check_conservation what cache =
  let st = Pcache.stats cache in
  check_int
    (what ^ ": admitted = entries + evictions")
    st.Pcache.admitted
    (st.Pcache.entries + st.Pcache.evictions);
  let sum f = List.fold_left (fun a d -> a + f d) 0 st.Pcache.per_depth in
  check_int (what ^ ": per-depth hits sum") st.Pcache.hits
    (sum (fun d -> d.Pcache.d_hits));
  check_int (what ^ ": per-depth misses sum") st.Pcache.misses
    (sum (fun d -> d.Pcache.d_misses));
  check_int (what ^ ": per-depth evictions sum") st.Pcache.evictions
    (sum (fun d -> d.Pcache.d_evictions));
  check_int (what ^ ": per-depth entries sum") st.Pcache.entries
    (sum (fun d -> d.Pcache.d_entries));
  check_int (what ^ ": per-depth bytes sum") st.Pcache.bytes
    (sum (fun d -> d.Pcache.d_bytes))

(* Identical ratings, chosen orders, eval/node counts and layout bytes
   with the cache enabled and disabled, for every domain count — the
   cache may only change time. *)
let test_cache_independent_results () =
  let env = Env.bicmos () in
  let steps = mk_steps 5 in
  let fp o = Cif.of_lobj ~tech:(Env.tech env) o in
  let cache = Pcache.create () in
  let run_local cache d =
    Optimize.optimize_local env ~name:"p" ~domains:d ~restarts:2 ~cache steps
  in
  let run_bb cache d =
    Optimize.optimize_bb env ~name:"p" ~domains:d ~cache steps
  in
  let lo, lr, lord, le = run_local Pcache.disabled 1 in
  let bo, br, bord, bn = run_bb Pcache.disabled 1 in
  List.iter
    (fun d ->
      let o, r, ord, e = run_local cache d in
      check_bool (Printf.sprintf "local rating, %d domains" d) true (r = lr);
      Alcotest.(check (list int))
        (Printf.sprintf "local order, %d domains" d)
        (uids lord) (uids ord);
      check_int (Printf.sprintf "local evals, %d domains" d) le e;
      Alcotest.(check string)
        (Printf.sprintf "local layout bytes, %d domains" d)
        (fp lo) (fp o);
      let o, r, ord, n = run_bb cache d in
      check_bool (Printf.sprintf "bb rating, %d domains" d) true (r = br);
      Alcotest.(check (list int))
        (Printf.sprintf "bb order, %d domains" d)
        (uids bord) (uids ord);
      check_int (Printf.sprintf "bb nodes, %d domains" d) bn n;
      Alcotest.(check string)
        (Printf.sprintf "bb layout bytes, %d domains" d)
        (fp bo) (fp o))
    domain_counts;
  check_bool "the shared cache was actually used" true
    ((Pcache.stats cache).Pcache.hits > 0)

(* A search shares prefixes within itself, and a second identical search
   resumes from the first one's entries. *)
let test_warm_cache_hits_and_identity () =
  let env = Env.bicmos () in
  let steps = mk_steps 5 in
  let cache = Pcache.create () in
  let run () =
    Optimize.optimize_local env ~name:"p" ~domains:1 ~restarts:2 ~cache steps
  in
  let _, r1, ord1, e1 = run () in
  let cold = (Pcache.stats cache).Pcache.hits in
  check_bool "intra-search sharing hits" true (cold > 0);
  let _, r2, ord2, e2 = run () in
  check_bool "warm run hits more" true
    ((Pcache.stats cache).Pcache.hits > cold);
  check_bool "warm rating identical" true (r1 = r2);
  Alcotest.(check (list int)) "warm order identical" (uids ord1) (uids ord2);
  check_int "warm evals identical" e1 e2;
  check_conservation "warm" cache

(* Delta-chain materialization is a faithful rebuild: every prefix entry
   the searches left behind must materialize byte-identically (CIF bytes,
   shapes, ports, spatial-index answers) to a plain uncached rebuild of
   that prefix. *)
let prop_materialize_is_rebuild =
  let gen = QCheck2.Gen.(tup2 (int_range 3 6) (int_range 0 1000)) in
  QCheck2.Test.make ~name:"delta-chain materialization == full rebuild"
    ~count:15 gen (fun (n, salt) ->
      let env = Env.bicmos () in
      (* [salt] varies the shape sizes so runs exercise different
         geometries; uids are fresh per call by construction. *)
      let steps =
        List.init n (fun i ->
            let name = Printf.sprintf "q%d" i in
            let o = Lobj.create name in
            ignore
              (Lobj.add_shape o ~layer:"metal1"
                 ~rect:
                   (Rect.of_size ~x:0 ~y:0
                      ~w:(um (float_of_int (((i + salt) mod 5) + 2)))
                      ~h:(um (float_of_int (((i * 3) + salt) mod 6 + 2))))
                 ~net:name ());
            Optimize.step o
              (if (i + salt) mod 2 = 0 then Dir.South else Dir.West))
      in
      let cache = Pcache.create ~admit_depth:16 () in
      let scope = 2 * Env.stamp env in
      ignore (Optimize.optimize_local env ~name:"p" ~restarts:2 ~cache steps);
      ignore (Optimize.optimize_bb env ~name:"p" ~cache steps);
      (* Probe every prefix of a few concrete orders: the canonical one
         and its reversal (both explored by the searches above or plainly
         absent — absent prefixes must simply miss, not fail). *)
      let found = ref 0 in
      let probe order =
        List.iteri
          (fun k _ ->
            let prefix = List.filteri (fun i _ -> i <= k) order in
            match
              Pcache.find cache ~scope ~name:"probe" (uids prefix)
            with
            | None -> ()
            | Some m ->
                incr found;
                let fresh = Optimize.apply env ~name:"probe" prefix in
                if fingerprint env m <> fingerprint env fresh then
                  QCheck2.Test.fail_reportf
                    "prefix of depth %d materialized differently" (k + 1))
          order
      in
      probe steps;
      probe (List.rev steps);
      if !found = 0 then
        QCheck2.Test.fail_report "no prefix was ever found in the cache";
      check_conservation "property" cache;
      true)

(* The admission policy may change which entries exist — never results.
   A deliberately tight policy (only depth-1 anchors unconditional, deep
   entries needing repeat visits) must leave ratings, orders and eval
   counts identical to the uncached reference, for every domain count. *)
let test_admission_policy_determinism () =
  let env = Env.bicmos () in
  let steps = mk_steps 5 in
  let _, r_ref, ord_ref, e_ref =
    Optimize.optimize_local env ~name:"p" ~domains:1 ~restarts:2
      ~cache:Pcache.disabled steps
  in
  List.iter
    (fun d ->
      let cache = Pcache.create ~admit_depth:1 ~admit_visits:2 () in
      let _, r, ord, e =
        Optimize.optimize_local env ~name:"p" ~domains:d ~restarts:2 ~cache
          steps
      in
      check_bool (Printf.sprintf "rating, %d domains" d) true (r = r_ref);
      Alcotest.(check (list int))
        (Printf.sprintf "order, %d domains" d)
        (uids ord_ref) (uids ord);
      check_int (Printf.sprintf "evals, %d domains" d) e_ref e;
      let st = Pcache.stats cache in
      check_bool
        (Printf.sprintf "tight policy rejected deep stores, %d domains" d)
        true
        (st.Pcache.rejected > 0);
      check_conservation (Printf.sprintf "admission (%d domains)" d) cache)
    domain_counts

(* A budget far below the working set forces LRU evictions; results must
   still match the uncached search exactly. *)
let test_eviction_under_tiny_budget () =
  let env = Env.bicmos () in
  let steps = mk_steps 5 in
  let cache = Pcache.create ~budget_bytes:50_000 () in
  let _, r_ref, ord_ref, e_ref =
    Optimize.optimize_local env ~name:"p" ~domains:1 ~restarts:2
      ~cache:Pcache.disabled steps
  in
  let _, r, ord, e =
    Optimize.optimize_local env ~name:"p" ~domains:1 ~restarts:2 ~cache steps
  in
  let st = Pcache.stats cache in
  check_bool "evictions happened" true (st.Pcache.evictions > 0);
  check_bool "budget respected" true (st.Pcache.bytes <= 50_000);
  check_bool "rating unchanged" true (r = r_ref);
  Alcotest.(check (list int)) "order unchanged" (uids ord_ref) (uids ord);
  check_int "evals unchanged" e_ref e;
  check_conservation "tiny budget" cache

let suite =
  [
    QCheck_alcotest.to_alcotest prop_restore_is_rebuild;
    Alcotest.test_case "absorb is one journal record" `Quick test_absorb_record;
    Alcotest.test_case "snapshot restores repeatedly" `Quick
      test_restore_repeatable;
    Alcotest.test_case "results identical with cache on/off, 1/2/4 domains"
      `Quick test_cache_independent_results;
    Alcotest.test_case "warm cache hits and returns identical results" `Quick
      test_warm_cache_hits_and_identity;
    QCheck_alcotest.to_alcotest prop_materialize_is_rebuild;
    Alcotest.test_case "admission policy never changes results" `Quick
      test_admission_policy_determinism;
    Alcotest.test_case "tiny budget evicts without changing results" `Quick
      test_eviction_under_tiny_budget;
  ]
