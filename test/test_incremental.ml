(* The incremental-search machinery of DESIGN.md §10: Lobj copy and
   absorb (a copy must be indistinguishable from a fresh rebuild, down to
   the spatial-index query results, and every store mutation must keep
   the keep-clear counts exact), and the order searches' results across
   domain counts, base objects and repeated runs. *)

module Units = Amg_geometry.Units
module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Cif = Amg_layout.Cif
module Successive = Amg_compact.Successive
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Wire = Amg_robust.Wire
module Rules = Amg_tech.Rules

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

(* --- copy --- *)

(* A copy of a built prefix, taken before more real compactions
   (placements, auto-connect, variable-edge relaxation) go into the
   original, must stay byte-identical to a fresh rebuild of the prefix.
   Every per-layer keep-clear count must match a recount: after the
   compactions, a replace that flips a shape's keep-clear and a removal,
   and in a copy and an absorb of the result. *)
let prop_copy_is_rebuild =
  let placement = QCheck2.Gen.(tup3 (int_range 2 8) (int_range 2 8) bool) in
  let gen =
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 4) placement)
        (list_size (int_range 1 4) placement)
        (int_range 0 15) (* bit i: placement i brings a keep-clear strip *))
  in
  QCheck2.Test.make ~name:"copy equals a prefix rebuild"
    ~count:25 gen (fun (base, extra, kc_bits) ->
      let env = Env.bicmos () in
      let keep_clear i = (kc_bits lsr (i mod 4)) land 1 = 1 in
      let main = build ~keep_clear env base in
      let before = fingerprint env main in
      let prefix = Lobj.copy main in
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
      let mutated = fingerprint env main in
      let copied = Lobj.copy main in
      let absorbed = Lobj.create "a" in
      ignore (Lobj.absorb absorbed main);
      let kept = fingerprint env prefix in
      let rebuilt = fingerprint env (build ~keep_clear env base) in
      kept = before && kept = rebuilt
      && (extra = [] || mutated <> before)
      && fingerprint env copied = mutated
      && List.for_all keep_clear_counts_exact [ main; prefix; copied; absorbed ])

(* --- absorb --- *)

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

(* Two absorbs enter every live source shape at its offset id; on a copy
   that keeps adding shapes, no id may find another's shape, and every
   keep-clear count matches a recount. *)
let test_absorb_batch () =
  let env = Env.bicmos () in
  let main = build ~keep_clear:(fun i -> i = 1) env [ (4, 2, true); (2, 6, false) ] in
  let src = absorb_source () in
  let k = Lobj.shape_count src in
  let n0 = Lobj.shape_count main in
  let offset = Lobj.absorb main src in
  (* The second absorb finds every layer present. *)
  ignore (Lobj.absorb main src);
  check_int "two absorbs enter 2k shapes" (n0 + (2 * k)) (Lobj.shape_count main);
  check_bool "absorbed shapes sit at their offset ids" true
    (List.for_all
       (fun (sh : Shape.t) ->
         match Lobj.find main (sh.Shape.id + offset) with
         | Some a -> Rect.equal a.Shape.rect sh.Shape.rect
         | None -> false)
       (Lobj.shapes src));
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
       (List.init (Lobj.id_bound probe + 20) Fun.id));
  check_bool "keep-clear counts exact" true
    (List.for_all keep_clear_counts_exact [ main; probe ])

(* --- rederive --- *)

(* Random objects with derived cut arrays, built step by step: a user
   shape (layer, position and size in 0.5 um steps, net, keep-clear), or
   a cut array over one or two of the user shapes drawn so far — two
   arrays picking the same shape share a container — rebuilt right away
   by the reference, as the ARRAY primitive rebuilds on registering. *)
type rd_step =
  | Draw of string * (int * int * int * int) * string option * bool
  | Register of string * (int * int) * string option

let gen_rd_step =
  QCheck2.Gen.(
    let net = oneofl [ Some "a"; Some "b"; None ] in
    frequency
      [
        ( 3,
          let* layer =
            oneofl [ "metal1"; "metal1"; "poly"; "pdiff"; "metal2"; "contact" ]
          in
          let* x, y = tup2 (int_range 0 60) (int_range 0 60) in
          let* w, h = tup2 (int_range 2 40) (int_range 2 40) in
          let* net = net in
          let* keep_clear = frequency [ (6, return false); (1, return true) ] in
          return (Draw (layer, (x, y, w, h), net, keep_clear)) );
        ( 2,
          let* cut = oneofl [ "contact"; "via" ] in
          let* picks = tup2 (int_range 0 99) (int_range 0 99) in
          let* net = net in
          return (Register (cut, picks, net)) );
      ])

let rd_build rules name steps =
  let o = Lobj.create name in
  let users = ref [] in
  List.iter
    (function
      | Draw (layer, (x, y, w, h), net, keep_clear) ->
          let s =
            Lobj.add_shape o ~layer ?net ~keep_clear
              ~rect:(Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
              ()
          in
          users := !users @ [ s.Shape.id ]
      | Register (cut_layer, (i, j), net) -> (
          match !users with
          | [] -> ()
          | us ->
              let n = List.length us in
              let a = List.nth us (i mod n) and b = List.nth us (j mod n) in
              let container_ids = if a = b then [ a ] else [ a; b ] in
              ignore (Lobj.register_array o ~cut_layer ~container_ids ?net ());
              Test_util.reference_rederive o rules))
    steps;
  o

(* Everything a rederive can change, as the store answers it: the shapes
   with ids, origins and keep-clear flags in order, the id bound, the
   hulls, each layer's keep-clear count, what each layer's index answers
   for the windows (as a list, and in the visiting order of [iter_near],
   which follows the bins' entry order) and every array's member count. *)
let rd_observe o windows =
  let windows = match Lobj.bbox o with Some b -> b :: windows | None -> windows in
  ( Fmt.str "%a" Lobj.pp o,
    List.map Shape.show (Lobj.shapes o),
    Lobj.id_bound o,
    Lobj.bbox o,
    List.map
      (fun layer ->
        ( layer,
          Lobj.bbox_on o layer,
          Lobj.keep_clear_on o layer,
          List.map
            (fun (w, margin) ->
              let id (s : Shape.t) = s.Shape.id in
              let visited = ref [] in
              Lobj.iter_near o ~layer w ~margin (fun s -> visited := id s :: !visited);
              (List.map id (Lobj.near o ~layer w ~margin), !visited))
            (List.map (fun w -> (w, 0)) windows @ List.map (fun w -> (w, 1500)) windows) ))
      ("metal1" :: "contact" :: "via" :: Lobj.layers o),
    List.map (fun (a, _) -> Lobj.array_member_count o a) (Lobj.array_specs o) )

(* [Lobj.rederive] against the member-by-member reference, both applied
   to equal objects after an absorb, a translation, a member turned
   keep-clear and a user keep-clear cut; then after a container shrink
   that leaves one array without a cut; then once more unchanged.  The
   two must agree on everything [rd_observe] sees after every call, and
   a copy taken before the first call must not see any of it. *)
let prop_rederive_matches_reference =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 14) gen_rd_step)
        (list_size (int_range 0 8) gen_rd_step)
        (tup2 (int_range (-9_000) 9_000) (int_range (-9_000) 9_000))
        (list_size (int_range 0 3)
           (map
              (fun (x, y, w, h) ->
                Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
              (tup4 (int_range (-10) 70) (int_range (-10) 70) (int_range 1 30)
                 (int_range 1 30)))))
  in
  QCheck2.Test.make ~name:"rederive = member-by-member reference" ~count:300 gen
    (fun (steps, src_steps, (dx, dy), windows) ->
      let env = Env.bicmos () in
      let rules = Env.rules env in
      let real = rd_build rules "rd" steps in
      ignore (Lobj.absorb real (rd_build rules "src" src_steps));
      Lobj.translate real ~dx ~dy;
      (match
         List.find_opt
           (fun (s : Shape.t) -> s.Shape.origin <> Shape.User)
           (Lobj.shapes real)
       with
      | Some m -> Lobj.replace real { m with Shape.keep_clear = true }
      | None -> ());
      ignore
        (Lobj.add_shape real ~layer:"contact" ~keep_clear:true
           ~rect:(Rect.of_size ~x:dx ~y:dy ~w:(um 1.) ~h:(um 1.))
           ());
      let reference = Lobj.copy real in
      let before = rd_observe real windows in
      let snapshot = Lobj.copy real in
      let agree () =
        Lobj.rederive real rules;
        Test_util.reference_rederive reference rules;
        rd_observe real windows = rd_observe reference windows
      in
      let first = agree () in
      (* Shrink a container of the first array holding a cut until its
         cut window is half a cut wide. *)
      let emptied =
        List.find_opt
          (fun (a, _) -> Lobj.array_member_count real a > 0)
          (Lobj.array_specs real)
      in
      (match emptied with
      | Some (_, { Lobj.container_ids = c :: _; cut_layer; _ }) ->
          List.iter
            (fun o ->
              let s = Lobj.find_exn o c in
              let side =
                (2 * Rules.enclosure_or_zero rules ~outer:s.Shape.layer ~inner:cut_layer)
                + (Rules.cut_size rules cut_layer / 2)
              in
              Lobj.replace o
                (Shape.with_rect s
                   (Rect.of_size ~x:s.Shape.rect.Rect.x0 ~y:s.Shape.rect.Rect.y0
                      ~w:side ~h:side)))
            [ real; reference ]
      | _ -> ());
      let second = agree () in
      let third = agree () in
      first && second && third
      && (match emptied with
         | Some (a, _) -> Lobj.array_member_count real a = 0
         | None -> true)
      && rd_observe snapshot windows = before)

(* --- the rederive memo ---

   Random edit sequences applied in lockstep to pairs of objects: the
   real one rebuilt by [Lobj.rederive], which re-derives only the arrays
   whose rules or containers changed since their memo, and its twin
   rebuilt by [Test_util.reference_rederive], which derives every array
   afresh, member by member.  The edits are the ones a memo must see
   through: container and non-container shapes grown and shrunk, members
   resized, removed or turned into user shapes, arrays registered,
   objects that carry arrays (and memos) absorbed at a displacement,
   translations and orientations, copies mutated on either side, array
   nets renamed and qualified, and rederives of one object under both
   decks' rules.  After a rederive the pair must agree on everything
   [rd_observe] sees: ids, id bound, shape order, [near] and [iter_near]
   answers, hulls and member counts.  Observing queries every layer, so
   it brings every index up to date; some rederives go unobserved, so
   that the next one starts from cuts still waiting for their index. *)
type memo_op =
  | M_step of rd_step * bool (* a shape drawn, or an array registered and rederived under a deck *)
  | M_resize of int * (int * int * int * int)
  | M_remove of int
  | M_adopt of int
  | M_absorb of rd_step list * (int * int)
  | M_translate of int * int
  | M_transform of Amg_geometry.Transform.orientation * (int * int)
  | M_copy
  | M_switch of int
  | M_rename of string * string
  | M_qualify
  | M_rederive of bool * bool (* deck, observe *)

let gen_memo_op =
  QCheck2.Gen.(
    let deck = bool in
    let delta = int_range (-6) 6 in
    frequency
      [
        (6, map2 (fun step deck -> M_step (step, deck)) gen_rd_step deck);
        (6, map2 (fun i d -> M_resize (i, d)) (int_range 0 999) (tup4 delta delta delta delta));
        (1, map (fun i -> M_remove i) (int_range 0 999));
        (1, map (fun i -> M_adopt i) (int_range 0 999));
        ( 1,
          map2
            (fun steps d -> M_absorb (steps, d))
            (list_size (int_range 1 6) gen_rd_step)
            (tup2 (int_range (-40) 40) (int_range (-40) 40)) );
        (1, map2 (fun dx dy -> M_translate (dx, dy)) (int_range (-20) 20) (int_range (-20) 20));
        ( 1,
          map2
            (fun o d -> M_transform (o, d))
            (oneofl Amg_geometry.Transform.[ R0; R90; R180; R270; MX; MY; MXR90; MYR90 ])
            (tup2 (int_range (-20) 20) (int_range (-20) 20)) );
        (1, return M_copy);
        (1, map (fun i -> M_switch i) (int_range 0 9));
        ( 1,
          map2
            (fun a b -> M_rename (a, b))
            (oneofl [ "a"; "b"; "q.a" ])
            (oneofl [ "a"; "b"; "c" ]) );
        (1, return M_qualify);
        (5, map2 (fun deck observe -> M_rederive (deck, observe)) deck bool);
      ])

(* The [i]-th (mod count) live shape satisfying [ok], the same in both
   objects of a pair since their ids agree. *)
let pick_shape o ok i =
  match List.filter ok (Lobj.shapes o) with
  | [] -> None
  | l -> Some (List.nth l (i mod List.length l))

let is_user (s : Shape.t) = s.Shape.origin = Shape.User
let is_member (s : Shape.t) = not (is_user s)

(* Run [ops] from an empty pair; [false] at the first observation on
   which a real object and its twin disagree. *)
let memo_run ops windows =
  let bicmos = Env.rules (Env.bicmos ()) in
  let cmos08 = Env.rules (Env.create (Amg_tech.Cmos08.get ())) in
  let rules deck = if deck then bicmos else cmos08 in
  let rederive ?(observe = true) (real, twin) deck =
    Lobj.rederive real (rules deck);
    Test_util.reference_rederive twin (rules deck);
    Lobj.check real;
    Lobj.check twin;
    (not observe) || rd_observe real windows = rd_observe twin windows
  in
  (* One step of [rd_build] on both objects of a pair. *)
  let apply ?observe ((real, twin) as pair) deck = function
    | Draw (layer, (x, y, w, h), net, keep_clear) ->
        let rect = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
        List.iter (fun o -> ignore (Lobj.add_shape o ~layer ?net ~keep_clear ~rect ())) [ real; twin ];
        true
    | Register (cut_layer, (i, j), net) -> (
        match (pick_shape real is_user i, pick_shape real is_user j) with
        | Some a, Some b ->
            let container_ids = if a.Shape.id = b.Shape.id then [ a.id ] else [ a.id; b.id ] in
            List.iter
              (fun o -> ignore (Lobj.register_array o ~cut_layer ~container_ids ?net ()))
              [ real; twin ];
            rederive ?observe pair deck
        | _ -> true)
  in
  let pairs = ref [| (Lobj.create "m", Lobj.create "m") |] and cur = ref 0 in
  let both f =
    let real, twin = !pairs.(!cur) in
    f real;
    f twin
  in
  let step ok op =
    ok
    &&
    let real, twin = !pairs.(!cur) in
    match op with
    | M_step (step, deck) -> apply (real, twin) deck step
    | M_resize (i, (a, b, c, d)) ->
        (match pick_shape real (fun _ -> true) i with
        | Some s ->
            let r = s.Shape.rect in
            let r' =
              Rect.make ~x0:(r.Rect.x0 + (a * 500)) ~y0:(r.Rect.y0 + (b * 500))
                ~x1:(r.Rect.x1 + (c * 500)) ~y1:(r.Rect.y1 + (d * 500))
            in
            if not (Rect.is_degenerate r') then
              both (fun o -> Lobj.replace o (Shape.with_rect (Lobj.find_exn o s.id) r'))
        | None -> ());
        true
    | M_remove i ->
        (match
           pick_shape real
             (fun s -> is_member s || Lobj.arrays_of_container real s.Shape.id = [])
             i
         with
        | Some s -> both (fun o -> Lobj.remove o s.Shape.id)
        | None -> ());
        true
    | M_adopt i ->
        (match pick_shape real is_member i with
        | Some s ->
            both (fun o -> Lobj.replace o { (Lobj.find_exn o s.Shape.id) with Shape.origin = User })
        | None -> ());
        true
    | M_absorb (steps, (dx, dy)) ->
        let src = (Lobj.create "src", Lobj.create "src") in
        List.iter (fun step -> ignore (apply ~observe:false src true step)) steps;
        ignore (Lobj.absorb ~dx:(dx * 500) ~dy:(dy * 500) real (fst src));
        ignore (Lobj.absorb ~dx:(dx * 500) ~dy:(dy * 500) twin (snd src));
        true
    | M_translate (dx, dy) ->
        both (fun o -> Lobj.translate o ~dx:(dx * 500) ~dy:(dy * 500));
        true
    | M_transform (orient, (dx, dy)) ->
        both (fun o ->
            Lobj.transform o { Amg_geometry.Transform.orient; dx = dx * 500; dy = dy * 500 });
        true
    | M_copy ->
        if Array.length !pairs < 4 then
          pairs := Array.append !pairs [| (Lobj.copy real, Lobj.copy twin) |];
        true
    | M_switch i ->
        cur := i mod Array.length !pairs;
        true
    | M_rename (from_, to_) ->
        both (fun o -> Lobj.rename_net o ~from_ ~to_);
        true
    | M_qualify ->
        both (fun o -> Lobj.qualify_nets o "q");
        true
    | M_rederive (deck, observe) -> rederive ~observe (real, twin) deck
  in
  let ok = List.fold_left step true ops in
  (* Every pair, last edits included, once more under each deck. *)
  Array.fold_left
    (fun ok pair -> ok && rederive pair true && rederive pair false && rederive pair false)
    ok !pairs

let gen_memo_case =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 40) gen_memo_op)
      (list_size (int_range 0 3)
         (map
            (fun (x, y, w, h) ->
              Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
            (tup4 (int_range (-10) 70) (int_range (-10) 70) (int_range 1 30)
               (int_range 1 30)))))

let prop_rederive_memo_identity =
  QCheck2.Test.make ~name:"memoised rederive = reference over random edits" ~count:300
    gen_memo_case (fun (ops, windows) -> memo_run ops windows)

(* The memo's cost claim, pinned by its counter: a rederive after a
   shrink of a shape that contains no array derives nothing; after a
   shrink of a container it derives exactly the arrays that use it; and
   with nothing changed, or under the same rules again, nothing. *)
let test_rederive_derives_changed_only () =
  let rules = Env.rules (Env.bicmos ()) in
  let o = Lobj.create "o" in
  let shape layer x w =
    Lobj.add_shape o ~layer ~rect:(Rect.of_size ~x:(um x) ~y:0 ~w:(um w) ~h:(um 6.)) ()
  in
  let d1 = shape "pdiff" 0. 8. and d2 = shape "pdiff" 20. 8. and free = shape "metal1" 40. 8. in
  let m1 = shape "metal1" 0. 8. in
  List.iter
    (fun ids -> ignore (Lobj.register_array o ~cut_layer:"contact" ~container_ids:ids ()))
    [ [ d1.Shape.id; m1.Shape.id ]; [ d2.Shape.id ]; [ d1.Shape.id ] ];
  Lobj.rederive o rules;
  (* The derivations of one rederive of [obj] under [rules], after [f]. *)
  let derivations ?(obj = o) ?(rules = rules) f =
    f ();
    Amg_obs.Obs.reset ();
    Amg_obs.Obs.enable ();
    Fun.protect ~finally:Amg_obs.Obs.disable (fun () -> Lobj.rederive obj rules);
    let n = Amg_obs.Obs.counter "lobj.cut_array_derivations" in
    Amg_obs.Obs.reset ();
    n
  in
  let shrink (s : Shape.t) () =
    let s = Lobj.find_exn o s.Shape.id in
    Lobj.replace o (Shape.with_rect s (Rect.grow_side s.Shape.rect Dir.East (-um 1.)))
  in
  check_int "nothing changed" 0 (derivations ignore);
  check_int "a non-container shrunk" 0 (derivations (shrink free));
  check_int "a container of one array shrunk" 1 (derivations (shrink d2));
  check_int "a container of two arrays shrunk" 2 (derivations (shrink d1));
  check_int "a copy shares the memos" 0 (derivations ~obj:(Lobj.copy o) ignore);
  check_int "every array under the other deck's rules" 3
    (derivations ~rules:(Env.rules (Env.create (Amg_tech.Cmos08.get ()))) ignore)

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
    let o, r, ord, on =
      Optimize.search env ~name:"p" ?base ~domains:d Wire.Orders steps
    in
    let bo, br, bord, bn =
      Optimize.search env ~name:"p" ?base ~domains:d Wire.Bb steps
    in
    let lo, lr, lord, le =
      Optimize.optimize_local env ~name:"p" ?base ~domains:d ~restarts:2 steps
    in
    [
      ("orders", (fp o, r, uids ord, on));
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

(* Every search places the step objects it was given without copying
   them, on every domain: afterwards each step object must print exactly
   as before.  The steps share nets and have variable edges, so some
   placements copy their mover (to shrink it, or to auto-connect to it):
   both counters must move, or the test would not reach those paths. *)
let test_searches_leave_steps_untouched () =
  let env = Env.bicmos () in
  let bar name ~w ~h ~net ~sides =
    let o = Lobj.create name in
    ignore
      (Lobj.add_shape o ~layer:"metal1"
         ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um w) ~h:(um h))
         ~net ~sides ());
    o
  in
  let row name net =
    let o = Amg_modules.Contact_row.make env ~layer:"pdiff" ~w:(um 8.) ~net () in
    Lobj.set_name o name;
    o
  in
  let objs =
    [
      (bar "a" ~w:10. ~h:3. ~net:"n" ~sides:Amg_layout.Edge.all_variable, Dir.South);
      (bar "b" ~w:3. ~h:8. ~net:"m" ~sides:Amg_layout.Edge.all_variable, Dir.West);
      (row "c" "n", Dir.South);
      (bar "d" ~w:6. ~h:2. ~net:"n" ~sides:Amg_layout.Edge.all_fixed, Dir.South);
      (row "e" "m", Dir.West);
    ]
  in
  let steps = List.map (fun (o, d) -> Optimize.step o d) objs in
  let prints () = List.map (fun s -> Fmt.str "%a" Lobj.pp s.Optimize.obj) steps in
  let before = prints () in
  Amg_obs.Obs.reset ();
  Amg_obs.Obs.enable ();
  Fun.protect ~finally:Amg_obs.Obs.disable (fun () ->
      List.iter
        (fun domains ->
          List.iter
            (fun mode -> ignore (Optimize.search env ~name:"s" ~domains mode steps))
            Wire.[ Orders; Bb; Local ];
          ignore (Optimize.apply env ~name:"s" steps))
        [ 1; 2 ]);
  let copies why = Amg_obs.Obs.counter ("compact.mover_copies_" ^ why) in
  check_bool "some placement shrinks its mover" true (copies "shrink" > 0);
  check_bool "some placement auto-connects" true (copies "connect" > 0);
  Amg_obs.Obs.reset ();
  List.iter2
    (fun (o, _) (b, a) -> Alcotest.(check string) (Lobj.name o) b a)
    objs
    (List.combine before (prints ()));
  (* Every placement read the step's digest; it still describes the
     step's object.  No placement queried the shared object itself: its
     released indexes are still empty. *)
  List.iter
    (fun s ->
      let o = s.Optimize.obj in
      Alcotest.(check bool)
        (Lobj.name o ^ " digest")
        true
        (Successive.equal_digest s.Optimize.digest (Successive.digest o s.Optimize.dir));
      List.iter
        (fun layer ->
          Alcotest.(check int) (Lobj.name o ^ " " ^ layer ^ " index") 0 (Lobj.indexed o layer))
        (Lobj.layers o))
    steps;
  (* A step's blocks were expanded once, in its own store, by
     [Optimize.step], and no search expanded anything more in it: a copy
     shares those records, so querying one builds no cut record. *)
  let records () = Amg_obs.Obs.counter "lobj.cut_records" in
  Amg_obs.Obs.reset ();
  Amg_obs.Obs.enable ();
  Fun.protect ~finally:Amg_obs.Obs.disable (fun () ->
      List.iter
        (fun s ->
          let c = Lobj.copy s.Optimize.obj in
          ignore (Lobj.near c ~layer:"contact" (Lobj.bbox_exn c) ~margin:0))
        steps;
      check_int "step copies build no cut record" 0 (records ()));
  Amg_obs.Obs.reset ()

(* --- cut blocks ---

   Each registered array's cuts are one block of the store, expanded into
   shape records only where an operation needs them (DESIGN §6).  The
   lockstep property runs random edit sequences on triples: the real
   object, whose blocks stay pending until a read or an edit needs them;
   its twin, the same operations with every block expanded (by a whole
   read) after each step; and the reference, the same again but rebuilt
   by the member-by-member [Test_util.reference_rederive], so that it
   never holds a block of its own (absorbed ones are expanded at once).
   After every step the real object must pass [Lobj.check] and answer
   every cheap observable — ids bound, counts, layers, hulls, keep-clear
   counts, member counts, starved arrays — as both; its index holds what
   the twin's holds (the reference indexes on every member removal, so
   its index is not compared).  The whole store (the printout, the shapes
   and every layer's [near] and [iter_near] answers) is compared through
   copies, which never expand their source; queries and finds on the
   real object expand only what they need. *)
type blk_op =
  | B_step of rd_step * bool (* a shape drawn, or an array registered and rederived under a deck *)
  | B_resize of int * (int * int * int * int)
  | B_remove of int
  | B_adopt of int
  | B_absorb of rd_step list * (int * int) * int (* source: 0 pending, 1 read, 2 a cut resized *)
  | B_rederive of bool
  | B_translate of int * int
  | B_transform of Amg_geometry.Transform.orientation * (int * int)
  | B_copy of bool (* keep working on the copy *)
  | B_switch of int
  | B_rename of string * string
  | B_qualify
  | B_query of string * (int * int) * int
  | B_find of int
  | B_whole

let gen_blk_op =
  QCheck2.Gen.(
    let deck = bool in
    let delta = int_range (-6) 6 in
    frequency
      [
        (6, map2 (fun step deck -> B_step (step, deck)) gen_rd_step deck);
        (4, map2 (fun i d -> B_resize (i, d)) (int_range 0 999) (tup4 delta delta delta delta));
        (1, map (fun i -> B_remove i) (int_range 0 999));
        (1, map (fun i -> B_adopt i) (int_range 0 999));
        ( 3,
          map3
            (fun steps d state -> B_absorb (steps, d, state))
            (list_size (int_range 1 6) gen_rd_step)
            (tup2 (int_range (-40) 40) (int_range (-40) 40))
            (int_range 0 2) );
        (3, map (fun deck -> B_rederive deck) deck);
        (1, map2 (fun dx dy -> B_translate (dx, dy)) (int_range (-20) 20) (int_range (-20) 20));
        ( 1,
          map2
            (fun o d -> B_transform (o, d))
            (oneofl Amg_geometry.Transform.[ R0; R90; R180; R270; MX; MY; MXR90; MYR90 ])
            (tup2 (int_range (-20) 20) (int_range (-20) 20)) );
        (1, map (fun keep -> B_copy keep) bool);
        (1, map (fun i -> B_switch i) (int_range 0 9));
        ( 1,
          map2
            (fun a b -> B_rename (a, b))
            (oneofl [ "a"; "b"; "q.a" ])
            (oneofl [ "a"; "b"; "c" ]) );
        (1, return B_qualify);
        ( 3,
          map3
            (fun l at m -> B_query (l, at, m))
            (oneofl [ "contact"; "via"; "metal1"; "poly"; "metal2" ])
            (tup2 (int_range (-20) 80) (int_range (-20) 80))
            (int_range 0 4) );
        (2, map (fun i -> B_find i) (int_range 0 999));
        (1, return B_whole);
      ])

(* What an object answers without reading its shapes: no block of it is
   expanded by these.  [starved_array] reads the memos of the object's
   last [Lobj.rederive], which the reference never runs. *)
let blk_cheap ?(starved = true) o =
  let layers = "contact" :: "via" :: Lobj.layers o in
  ( (Lobj.id_bound o, Lobj.shape_count o, Lobj.layers o, Lobj.bbox o),
    List.map (fun l -> (Lobj.bbox_on o l, Lobj.keep_clear_on o l)) layers,
    List.map
      (fun (a, (spec : Lobj.array_spec)) ->
        ( a,
          spec,
          Lobj.array_member_count o a,
          (if starved then List.map (fun c -> Lobj.starved_array o ~container:c) spec.container_ids
           else []),
          List.map (Lobj.arrays_of_container o) spec.container_ids ))
      (Lobj.array_specs o) )

let blk_indexed o = List.map (Lobj.indexed o) ("contact" :: "via" :: Lobj.layers o)

(* Everything the store answers, read from a copy: its shapes, and what
   each layer's index answers for a window over all of them. *)
let blk_whole o =
  let c = Lobj.copy o in
  let id (s : Shape.t) = s.Shape.id in
  let window = Rect.of_size ~x:(-30_000) ~y:(-30_000) ~w:120_000 ~h:120_000 in
  ( Lobj.shapes c,
    List.map
      (fun layer ->
        let visited = ref [] in
        Lobj.iter_near c ~layer window ~margin:0 (fun s -> visited := id s :: !visited);
        ( List.map id (Lobj.near c ~layer window ~margin:500),
          !visited,
          List.map id (Lobj.shapes_on c layer) ))
      ("contact" :: "via" :: Lobj.layers c),
    Lobj.nets c )

let blk_run ops =
  let bicmos = Env.rules (Env.bicmos ()) in
  let cmos08 = Env.rules (Env.create (Amg_tech.Cmos08.get ())) in
  let rules deck = if deck then bicmos else cmos08 in
  let fresh () = (Lobj.create "m", Lobj.create "m", Lobj.create "m") in
  let triples = ref [| fresh () |] and cur = ref 0 in
  let all f =
    let real, twin, reference = !triples.(!cur) in
    f real;
    f twin;
    f reference
  in
  let rederive deck =
    let real, twin, reference = !triples.(!cur) in
    Lobj.rederive real (rules deck);
    Lobj.rederive twin (rules deck);
    Test_util.reference_rederive reference (rules deck)
  in
  (* The [i]-th (mod count) shape of the reference satisfying [ok]: ids
     agree across the triple. *)
  let pick ok i =
    let _, _, reference = !triples.(!cur) in
    pick_shape reference ok i
  in
  let source steps state =
    let src = Lobj.create "src" and users = ref [] in
    List.iter
      (function
        | Draw (layer, (x, y, w, h), net, keep_clear) ->
            let rect = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
            users := !users @ [ (Lobj.add_shape src ~layer ?net ~keep_clear ~rect ()).Shape.id ]
        | Register (cut_layer, (i, j), net) -> (
            match !users with
            | [] -> ()
            | us ->
                let n = List.length us in
                let a = List.nth us (i mod n) and b = List.nth us (j mod n) in
                let container_ids = if a = b then [ a ] else [ a; b ] in
                ignore (Lobj.register_array src ~cut_layer ~container_ids ?net ());
                Lobj.rederive src bicmos))
      steps;
    (match state with
    | 1 -> ignore (Lobj.shapes src)
    | 2 -> (
        match List.find_opt is_member (Lobj.shapes src) with
        | Some s ->
            Lobj.replace src
              (Shape.with_rect s (Rect.grow_side s.Shape.rect Dir.North 500))
        | None -> ())
    | _ -> ());
    src
  in
  let step op =
    match op with
    | B_step (Draw (layer, (x, y, w, h), net, keep_clear), _) ->
        let rect = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
        all (fun o -> ignore (Lobj.add_shape o ~layer ?net ~keep_clear ~rect ()))
    | B_step (Register (cut_layer, (i, j), net), deck) -> (
        match (pick is_user i, pick is_user j) with
        | Some a, Some b ->
            let container_ids = if a.Shape.id = b.Shape.id then [ a.id ] else [ a.id; b.id ] in
            all (fun o -> ignore (Lobj.register_array o ~cut_layer ~container_ids ?net ()));
            rederive deck
        | _ -> ())
    | B_resize (i, (a, b, c, d)) -> (
        match pick (fun _ -> true) i with
        | Some s ->
            let r = s.Shape.rect in
            let r' =
              Rect.make ~x0:(r.Rect.x0 + (a * 500)) ~y0:(r.Rect.y0 + (b * 500))
                ~x1:(r.Rect.x1 + (c * 500)) ~y1:(r.Rect.y1 + (d * 500))
            in
            if not (Rect.is_degenerate r') then
              all (fun o -> Lobj.replace o (Shape.with_rect (Lobj.find_exn o s.id) r'))
        | None -> ())
    | B_remove i -> (
        let _, _, reference = !triples.(!cur) in
        match
          pick (fun s -> is_member s || Lobj.arrays_of_container reference s.Shape.id = []) i
        with
        | Some s -> all (fun o -> Lobj.remove o s.Shape.id)
        | None -> ())
    | B_adopt i -> (
        match pick is_member i with
        | Some s ->
            all (fun o ->
                Lobj.replace o { (Lobj.find_exn o s.Shape.id) with Shape.origin = User })
        | None -> ())
    | B_absorb (steps, (dx, dy), state) ->
        let src = source steps state in
        all (fun o -> ignore (Lobj.absorb ~dx:(dx * 500) ~dy:(dy * 500) o src))
    | B_rederive deck -> rederive deck
    | B_translate (dx, dy) -> all (fun o -> Lobj.translate o ~dx:(dx * 500) ~dy:(dy * 500))
    | B_transform (orient, (dx, dy)) ->
        all (fun o ->
            Lobj.transform o { Amg_geometry.Transform.orient; dx = dx * 500; dy = dy * 500 })
    | B_copy keep ->
        if Array.length !triples < 4 then begin
          let real, twin, reference = !triples.(!cur) in
          triples :=
            Array.append !triples [| (Lobj.copy real, Lobj.copy twin, Lobj.copy reference) |];
          if keep then cur := Array.length !triples - 1
        end
    | B_switch i -> cur := i mod Array.length !triples
    | B_rename (from_, to_) -> all (fun o -> Lobj.rename_net o ~from_ ~to_)
    | B_qualify -> all (fun o -> Lobj.qualify_nets o "q")
    | B_query (layer, (x, y), m) ->
        let window = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:12_000 ~h:8_000 in
        all (fun o ->
            ignore (Lobj.near o ~layer window ~margin:(m * 500));
            ignore (Lobj.bbox_on o layer))
    | B_find i ->
        let real, _, _ = !triples.(!cur) in
        all (fun o -> ignore (Lobj.find o (i mod (Lobj.id_bound real + 2))))
    | B_whole -> all (fun o -> ignore (Lobj.shapes o))
  in
  let agree ?(printed = false) () =
    let real, twin, reference = !triples.(!cur) in
    ignore (Lobj.shapes twin);
    ignore (Lobj.shapes reference);
    List.iter Lobj.check [ real; twin; reference ];
    let whole = blk_whole real in
    let pp o = if printed then Fmt.str "%a" Lobj.pp (Lobj.copy o) else "" in
    blk_cheap real = blk_cheap twin
    && blk_cheap ~starved:false real = blk_cheap ~starved:false reference
    && blk_indexed real = blk_indexed twin
    && whole = blk_whole twin
    && whole = blk_whole reference
    && String.equal (pp real) (pp twin)
    && String.equal (pp real) (pp reference)
  in
  List.for_all
    (fun op ->
      step op;
      agree ())
    ops
  && Array.for_all
       (fun triple ->
         triples := [| triple |];
         cur := 0;
         rederive true;
         agree ~printed:true ())
       (Array.copy !triples)

let show_rd_step = function
  | Draw (layer, (x, y, w, h), net, kc) ->
      Printf.sprintf "draw %s (%d,%d,%d,%d) %s%s" layer x y w h
        (Option.value ~default:"-" net)
        (if kc then " keep-clear" else "")
  | Register (cut, (i, j), net) ->
      Printf.sprintf "register %s (%d,%d) %s" cut i j (Option.value ~default:"-" net)

let show_blk_op = function
  | B_step (st, deck) -> Printf.sprintf "%s [%b]" (show_rd_step st) deck
  | B_resize (i, (a, b, c, d)) -> Printf.sprintf "resize %d (%d,%d,%d,%d)" i a b c d
  | B_remove i -> Printf.sprintf "remove %d" i
  | B_adopt i -> Printf.sprintf "adopt %d" i
  | B_absorb (steps, (dx, dy), state) ->
      Printf.sprintf "absorb [%s] (%d,%d) state %d"
        (String.concat "; " (List.map show_rd_step steps))
        dx dy state
  | B_rederive deck -> Printf.sprintf "rederive %b" deck
  | B_translate (dx, dy) -> Printf.sprintf "translate (%d,%d)" dx dy
  | B_transform (_, (dx, dy)) -> Printf.sprintf "transform (%d,%d)" dx dy
  | B_copy keep -> Printf.sprintf "copy %b" keep
  | B_switch i -> Printf.sprintf "switch %d" i
  | B_rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | B_qualify -> "qualify"
  | B_query (l, (x, y), m) -> Printf.sprintf "query %s (%d,%d) %d" l x y m
  | B_find i -> Printf.sprintf "find %d" i
  | B_whole -> "whole"

let prop_blocks_match_expanded =
  QCheck2.Test.make ~name:"cut blocks = expanded twin and reference" ~count:300
    ~print:(fun ops -> String.concat "\n" (List.map show_blk_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) gen_blk_op)
    blk_run

(* Absorbing a step places its arrays as blocks: no cut record is built
   until a read needs one.  Querying another layer builds none; the first
   query of the cut layer builds exactly the step's cuts, once. *)
let test_absorb_builds_no_cut () =
  let env = Env.bicmos () in
  let main = Lobj.create "main" in
  ignore
    (Lobj.add_shape main ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:(um 12.) ~h:(um 2.)) ());
  let row =
    Optimize.step (Amg_modules.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net:"a" ()) Dir.South
  in
  let cuts = List.length (Lobj.shapes_on (Lobj.copy row.Optimize.obj) "contact") in
  check_bool "the row has cuts" true (cuts > 0);
  let records () = Amg_obs.Obs.counter "lobj.cut_records" in
  Amg_obs.Obs.reset ();
  Amg_obs.Obs.enable ();
  Fun.protect ~finally:Amg_obs.Obs.disable (fun () ->
      ignore (Lobj.absorb ~dy:(um 4.) main row.Optimize.obj);
      check_int "absorb builds no cut record" 0 (records ());
      ignore (Lobj.near main ~layer:"metal1" (Lobj.bbox_exn main) ~margin:0);
      check_int "a metal1 query builds none" 0 (records ());
      check_int "the contact query answers every cut" cuts
        (List.length (Lobj.near main ~layer:"contact" (Lobj.bbox_exn main) ~margin:0));
      check_int "the contact query builds the row's cuts" cuts (records ());
      ignore (Lobj.near main ~layer:"contact" (Lobj.bbox_exn main) ~margin:0);
      check_int "once" cuts (records ()));
  Amg_obs.Obs.reset ();
  Lobj.check main

(* A copy shares its source's blocks as they are: copying builds no
   record, a query of a copy expands that copy alone, and the source
   stays pending — a later copy expands its own again. *)
let test_copy_never_expands_source () =
  let env = Env.bicmos () in
  let main = Lobj.create "main" in
  List.iter
    (fun (dy, net) ->
      ignore
        (Lobj.absorb ~dy:(um dy) main
           (Amg_modules.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net ())))
    [ (0., "a"); (6., "b"); (12., "c") ];
  let cuts = List.length (Lobj.shapes_on (Lobj.copy main) "contact") in
  let records () = Amg_obs.Obs.counter "lobj.cut_records" in
  let query o = List.length (Lobj.near o ~layer:"contact" (Lobj.bbox_exn o) ~margin:0) in
  Amg_obs.Obs.reset ();
  Amg_obs.Obs.enable ();
  Fun.protect ~finally:Amg_obs.Obs.disable (fun () ->
      let copies = List.init 3 (fun _ -> Lobj.copy main) in
      let copies = Lobj.copy (List.hd copies) :: copies in
      check_int "copies build no record" 0 (records ());
      check_int "a copy answers every cut" cuts (query (List.hd copies));
      check_int "and builds them in its own store" cuts (records ());
      check_int "the source's contact index is empty" 0 (Lobj.indexed main "contact");
      check_int "another copy builds its own" cuts (query (List.nth copies 2));
      check_int "so the source was still pending" (2 * cuts) (records ()));
  Amg_obs.Obs.reset ();
  List.iter Lobj.check [ main ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_copy_is_rebuild;
    QCheck_alcotest.to_alcotest prop_rederive_matches_reference;
    QCheck_alcotest.to_alcotest prop_rederive_memo_identity;
    Alcotest.test_case "rederive derives only changed arrays" `Quick
      test_rederive_derives_changed_only;
    Alcotest.test_case "absorb enters every shape" `Quick test_absorb_batch;
    Alcotest.test_case "searches agree across domains/runs"
      `Quick test_searches_identical;
    Alcotest.test_case "searches leave step objects untouched" `Quick
      test_searches_leave_steps_untouched;
    QCheck_alcotest.to_alcotest prop_blocks_match_expanded;
    Alcotest.test_case "absorb builds no cut record" `Quick test_absorb_builds_no_cut;
    Alcotest.test_case "a copy never expands its source" `Quick
      test_copy_never_expands_source;
  ]
