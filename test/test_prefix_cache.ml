(* The incremental-search machinery of DESIGN.md §10: Lobj snapshot /
   restore (rewinding must be indistinguishable from never having mutated,
   down to the spatial-index query results), and the order searches'
   results across domain counts, base objects and repeated runs.  The
   suite keeps the name of the prefix cache it used to test, so its test
   ids stay stable. *)

module Units = Amg_geometry.Units
module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Cif = Amg_layout.Cif
module Successive = Amg_compact.Successive
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize

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
   keep-clear and a removal, the restore, a copy and an absorb. *)
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
      let s = Lobj.snapshot main in
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
      let mutated = fingerprint env main in
      let copied = Lobj.copy main in
      let absorbed = Lobj.create "a" in
      ignore (Lobj.absorb absorbed main);
      Lobj.restore main s;
      Lobj.release main s;
      let after = fingerprint env main in
      let rebuilt = fingerprint env (build ~keep_clear env base) in
      after = before && after = rebuilt
      && (extra = [] || mutated <> before)
      && fingerprint env copied = mutated
      && List.for_all keep_clear_counts_exact [ main; copied; absorbed ]
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
   byte-identical object, and the ids it took are free again. *)
let test_absorb_record () =
  let env = Env.bicmos () in
  let main = build ~keep_clear:(fun i -> i = 1) env [ (4, 2, true); (2, 6, false) ] in
  let src = absorb_source () in
  let k = Lobj.shape_count src in
  let n0 = Lobj.shape_count main in
  let before = fingerprint env main in
  let s = Lobj.snapshot main in
  let offset = Lobj.absorb main src in
  (* The second absorb finds every layer present. *)
  ignore (Lobj.absorb main src);
  check_int "two absorbs enter 2k shapes" (n0 + (2 * k)) (Lobj.shape_count main);
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
  check_bool "keep-clear counts exact" true
    (absorbed_counts && keep_clear_counts_exact main)

(* --- the order searches --- *)

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

(* Orders, bb and local search, without and with a [?base] object, return
   the identical rating, order, eval/node count and layout bytes for every
   domain count and across two back-to-back runs in one process. *)
let test_searches_identical () =
  let env = Env.bicmos () in
  let steps = mk_steps 5 in
  let base = Lobj.create "base" in
  ignore
    (Lobj.add_shape base ~layer:"metal1"
       ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 3.) ~h:(um 3.))
       ~net:"b" ());
  let fp o = Cif.of_lobj ~tech:(Env.tech env) o in
  let runs ?base d =
    let o, r, ord = Optimize.optimize env ~name:"p" ?base ~domains:d steps in
    let bo, br, bord, bn =
      Optimize.optimize_bb env ~name:"p" ?base ~domains:d steps
    in
    let lo, lr, lord, le =
      Optimize.optimize_local env ~name:"p" ?base ~domains:d ~restarts:2 steps
    in
    [
      ("orders", (fp o, r, uids ord, 0));
      ("bb", (fp bo, br, uids bord, bn));
      ("local", (fp lo, lr, uids lord, le));
    ]
  in
  List.iter
    (fun (what, base) ->
      let reference = runs ?base 1 in
      List.iter
        (fun (run, d) ->
          List.iter2
            (fun (mode, (cif0, r0, ord0, n0)) (_, (cif, r, ord, n)) ->
              let label s =
                Printf.sprintf "%s %s %s, %d domains, run %d" mode what s d run
              in
              check_bool (label "rating") true (r = r0);
              Alcotest.(check (list int)) (label "order") ord0 ord;
              check_int (label "evals/nodes") n0 n;
              Alcotest.(check string) (label "layout bytes") cif0 cif)
            reference (runs ?base d))
        (List.concat_map (fun d -> [ (1, d); (2, d) ]) domain_counts))
    [ ("without base", None); ("with base", Some base) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_restore_is_rebuild;
    Alcotest.test_case "absorb is one journal record" `Quick test_absorb_record;
    Alcotest.test_case "snapshot restores repeatedly" `Quick
      test_restore_repeatable;
    Alcotest.test_case "searches agree across domains/runs"
      `Quick test_searches_identical;
  ]
