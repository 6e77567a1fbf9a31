(* Shared knobs for the determinism suites.

   AMG_TEST_DOMAINS overrides the pool sizes the suites sweep, e.g.
   AMG_TEST_DOMAINS=2 forces every determinism test onto 2-domain pools
   (the CI 2-domain job uses it).  A comma-separated list is accepted;
   unparsable values fall back to the default sweep. *)
let domain_counts =
  match Sys.getenv_opt "AMG_TEST_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s -> (
      let parsed =
        String.split_on_char ',' s
        |> List.filter_map int_of_string_opt
        |> List.filter (fun d -> d >= 1)
      in
      match parsed with [] -> [ 1; 2; 4 ] | l -> l)

(* --- temp paths -------------------------------------------------------

   Every test that writes files goes through [with_tmp_dir]: a fresh
   directory under the system temp dir, removed (recursively) on the way
   out, so `dune runtest` never litters the build or source tree.  The
   names stay short on purpose — Unix-domain socket paths have a ~100
   byte limit. *)

let tmp_counter = ref 0

let fresh_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec attempt n =
    incr tmp_counter;
    let path =
      Filename.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
    in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when n < 100 ->
        attempt (n + 1)
  in
  attempt 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_tmp_dir prefix f =
  let dir = fresh_dir prefix in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* --- daemon spawn/teardown --------------------------------------------

   [with_server f] starts an in-process generator daemon on a fresh
   Unix-domain socket in a fresh temp dir and passes the handle and the
   socket path to [f]; the daemon is stopped (gracefully: in-flight
   requests drain) and the temp dir removed afterwards, also on
   exception. *)

let with_server ?tcp ?source ?default_jobs ?queue_limit ?max_frame ?memo_limit
    ?trace_dir ?trace_sample ?slow_ms ?access_log ?store f =
  with_tmp_dir "amgt" @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    Amg_serve.Server.config ?tcp ?source ?default_jobs ?queue_limit ?max_frame
      ?memo_limit ?trace_dir ?trace_sample ?slow_ms ?access_log ?store socket
  in
  let t = Amg_serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Amg_serve.Server.stop t)
    (fun () -> f t socket)

(* --- built executables ---------------------------------------------------

   A test binary runs from _build/default/test/; the executables it runs
   are declared as its dune deps, so [built_exe ~dir name] finds [name]
   built in the source directory [dir] ("bin", or "test" for the test
   binaries' own helpers) wherever dune put us. *)

let built_exe ~dir name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat dir name))

let amgend_exe = built_exe ~dir:"bin" "amgend.exe"

(* [spawn_amgend ?store ~socket ~lib ()] starts the amgend binary serving
   the module source [lib] on [socket] (with the result store [store] when
   given), its output dropped, and returns its pid; the caller stops and
   reaps it. *)
let spawn_amgend ?store ~socket ~lib () =
  let store = match store with None -> [] | Some s -> [ "--store"; s ] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
      Unix.create_process amgend_exe
        (Array.of_list
           ([ amgend_exe; "--socket"; socket; "--file"; lib ] @ store))
        Unix.stdin null null)

(* --- the orders-mode reference ----------------------------------------

   Rates orders independently of the search walker: every order is a
   whole [Optimize.apply] replay, rated with [Rating.rate]. *)

(* All permutations in lexicographic order of positions, lazily. *)
let rec permutations : 'a list -> 'a list Seq.t = function
  | [] -> Seq.return []
  | xs ->
      List.to_seq xs
      |> Seq.concat_map (fun x ->
             let rest = List.filter (fun y -> y != x) xs in
             Seq.map (fun p -> x :: p) (permutations rest))

(* The first strict-[<] minimum over the first [orders] permutations of
   [steps] (rejected orders skipped, [None] when all are), and how many
   orders that walked. *)
let first_minimum ?base ?(rating = Amg_core.Rating.default) env ~orders steps
    =
  let module Optimize = Amg_core.Optimize in
  Seq.take orders (permutations steps)
  |> Seq.fold_left
       (fun (best, walked) order ->
         let best =
           match Optimize.apply ?base env ~name:"x" order with
           | m -> (
               let r = Amg_core.Rating.rate env rating m in
               match best with
               | Some (_, br, _) when br <= r -> best
               | _ -> Some (m, r, order))
           | exception Amg_core.Env.Rejected _ -> best
         in
         (best, walked + 1))
       (None, 0)

(* Orders mode's reference under an eval cap: the first
   [max 1 (min cap 720)] orders. *)
let reference_orders ?base ?rating ?cap env steps =
  let orders = match cap with Some m -> Int.max 1 (Int.min m 720) | None -> 720 in
  first_minimum ?base ?rating env ~orders steps

(* --- the rederive reference ---------------------------------------------

   [Lobj.rederive] member by member: for each registered array in
   registration order, remove its members one at a time (last slot
   first), then add each derived cut with [add_shape]. *)
let reference_rederive obj rules =
  let module Lobj = Amg_layout.Lobj in
  let module Shape = Amg_layout.Shape in
  List.iter
    (fun (array_id, (spec : Lobj.array_spec)) ->
      let members =
        List.filter_map
          (fun (s : Shape.t) ->
            match s.origin with
            | Shape.Array_member a when a = array_id -> Some s.id
            | _ -> None)
          (Lobj.shapes obj)
      in
      List.iter (Lobj.remove obj) (List.rev members);
      let containers =
        List.map
          (fun id ->
            let s = Lobj.find_exn obj id in
            (s.Shape.layer, s.Shape.rect))
          spec.container_ids
      in
      List.iter
        (fun rect ->
          ignore
            (Lobj.add_shape obj ~layer:spec.cut_layer ~rect ?net:spec.array_net
               ~origin:(Shape.Array_member array_id) ()))
        (Amg_layout.Derive.cut_array rules ~containers ~cut_layer:spec.cut_layer))
    (Lobj.array_specs obj)

(* --- the extractor's and the router's scans --------------------------

   The store-wide scans that [Connectivity.node_at] and [Global.drop]
   replaced with layer-index queries, kept as the references of the
   lockstep properties in test_extract and test_route. *)

(* The lockstep generators draw coordinates in half micrometres. *)
let half_um v = Amg_geometry.Units.of_um (float_of_int v /. 2.)

let half_rect (x, y, w, h) =
  Amg_geometry.Rect.of_size ~x:(half_um x) ~y:(half_um y) ~w:(half_um w) ~h:(half_um h)

(* [Connectivity.node_at] as a scan of every piece in index order: the
   first conducting piece on [layer] covering the point. *)
let reference_node_at conn ~layer ~x ~y =
  let module C = Amg_extract.Connectivity in
  let found = ref None in
  Array.iteri
    (fun i (p : C.piece) ->
      if
        Option.is_none !found && p.C.p_conducting
        && String.equal p.C.p_layer layer
        && Amg_geometry.Rect.contains_point p.C.p_rect ~x ~y
      then found := Some (C.find conn i))
    (C.pieces conn);
  !found

(* [Connectivity.build]'s cut pass as it was, one cut at a time: each
   cut layer's cut, in [Lobj.shapes] order, gathers the conducting
   pieces of its landing layers (the outer layers of its enclosure
   rules) that overlap it, by a scan of every piece, in descending index
   order; then its metals and the pieces of its topmost non-metal
   landing layer (the first of the greatest draw index) go to [union],
   the first with each of the rest. *)
let reference_cut_pass ~tech obj (pieces : Amg_extract.Connectivity.piece array) ~union =
  let module C = Amg_extract.Connectivity in
  let module Technology = Amg_tech.Technology in
  let module Layer = Amg_tech.Layer in
  let module Shape = Amg_layout.Shape in
  let rules = Technology.rules tech in
  let metal i =
    match Technology.layer tech pieces.(i).C.p_layer with
    | Some l -> Layer.is_metal l
    | None -> false
  in
  let draw i = Technology.draw_index tech pieces.(i).C.p_layer in
  List.iter
    (fun (c : Shape.t) ->
      match Technology.layer tech c.Shape.layer with
      | Some l when Layer.is_cut l ->
          let outer =
            List.map fst (Amg_tech.Rules.enclosing_layers rules ~inner:c.Shape.layer)
          in
          let hits = ref [] in
          Array.iteri
            (fun i (p : C.piece) ->
              if
                p.C.p_conducting
                && List.exists (String.equal p.C.p_layer) outer
                && Amg_geometry.Rect.overlaps p.C.p_rect c.Shape.rect
              then hits := i :: !hits)
            pieces;
          let metals, landings = List.partition metal !hits in
          let top =
            List.fold_left
              (fun acc i ->
                match acc with Some cur when draw i <= draw cur -> acc | _ -> Some i)
              None landings
          in
          let landings =
            match top with
            | None -> []
            | Some top ->
                List.filter
                  (fun i -> String.equal pieces.(i).C.p_layer pieces.(top).C.p_layer)
                  landings
          in
          (match metals @ landings with
          | first :: rest -> List.iter (fun i -> union first i) rest
          | [] -> ())
      | _ -> ())
    (Amg_layout.Lobj.shapes obj)

(* [Global.drop] with its anchor search and every clearance check a scan
   of the whole store: the anchors filtered from [Lobj.shapes], the
   corridor and the via pads checked against every shape. *)
let reference_drop env obj ?(avoid = []) ~net ~track_y (p : Amg_layout.Port.t) =
  let module Rect = Amg_geometry.Rect in
  let module Rules = Amg_tech.Rules in
  let module Lobj = Amg_layout.Lobj in
  let module Shape = Amg_layout.Shape in
  let module Port = Amg_layout.Port in
  let module Wire = Amg_route.Wire in
  let um = Amg_geometry.Units.of_um in
  let rules = Amg_core.Env.rules env in
  let own (s : Shape.t) = Option.equal String.equal s.Shape.net (Some net) in
  let m1_pad ~x ~y =
    let side = Wire.pad_size rules ~layer:"metal1" ~cut:"via" in
    Rect.inflate
      (Rect.of_center ~cx:x ~cy:y ~w:side ~h:side)
      (Option.value ~default:0 (Rules.space rules "metal1" "metal1"))
  in
  let corridor_clear ~x ~y_from ~y_to ~via_y =
    let half =
      (Wire.pad_size rules ~layer:"metal2" ~cut:"via" / 2)
      + Rules.space_exn rules "metal2" "metal2"
    in
    let corridor =
      Rect.inflate
        (Rect.make ~x0:x ~y0:(Int.min y_from y_to) ~x1:x ~y1:(Int.max y_from y_to))
        half
    in
    let pad = m1_pad ~x ~y:via_y in
    List.for_all
      (fun (s : Shape.t) ->
        own s
        ||
        if Shape.on_layer s "metal2" then not (Rect.overlaps s.Shape.rect corridor)
        else if Shape.on_layer s "metal1" then not (Rect.overlaps s.Shape.rect pad)
        else true)
      (Lobj.shapes obj)
  in
  let candidates (a : Rect.t) =
    let slack = Wire.pad_size rules ~layer:p.Port.layer ~cut:"via" / 2 in
    let cx = Rect.center_x a in
    let step = um 1. in
    let reach = 2 + ((Rect.width a + (2 * slack)) / step) in
    let inside =
      List.filter
        (fun x -> x >= a.Rect.x0 - slack && x <= a.Rect.x1 + slack)
        (List.init ((2 * reach) + 1) (fun i ->
             let k = ((i + 1) / 2) * if i mod 2 = 0 then 1 else -1 in
             cx + (k * step)))
    in
    match inside with [] -> [ cx ] | _ -> inside
  in
  let on_m1 = String.equal p.Port.layer "metal1" in
  let anchors =
    List.filter
      (fun (s : Shape.t) ->
        Shape.on_layer s p.Port.layer && own s && Rect.overlaps s.Shape.rect p.Port.rect)
      (Lobj.shapes obj)
    |> List.stable_sort (fun (a : Shape.t) (b : Shape.t) ->
           Int.compare
             (abs (Rect.center_y a.Shape.rect - track_y))
             (abs (Rect.center_y b.Shape.rect - track_y)))
  in
  let pin_pad_clear ~x ~py =
    (not on_m1)
    || List.for_all
         (fun (s : Shape.t) ->
           own s
           || (not (Shape.on_layer s "metal1"))
           || not (Rect.overlaps s.Shape.rect (m1_pad ~x ~y:py)))
         (Lobj.shapes obj)
  in
  let try_anchor (a : Shape.t) =
    let py = Rect.center_y a.Shape.rect in
    let try_x x =
      pin_pad_clear ~x ~py
      && corridor_clear ~x ~y_from:py ~y_to:track_y ~via_y:track_y
    in
    let penalty x =
      if List.exists (fun ax -> abs (x - ax) < um 5.) avoid then 1 else 0
    in
    List.stable_sort (fun a b -> Int.compare (penalty a) (penalty b)) (candidates a.Shape.rect)
    |> List.find_opt try_x
    |> Option.map (fun x -> (x, py))
  in
  match List.find_map try_anchor anchors with
  | None ->
      Error
        (Printf.sprintf "no clear corridor for pin %s at [%d,%d-%d,%d]"
           p.Port.name p.Port.rect.Rect.x0 p.Port.rect.Rect.y0
           p.Port.rect.Rect.x1 p.Port.rect.Rect.y1)
  | Some (x, py) ->
      if on_m1 then ignore (Wire.via env obj ~at:(x, py) ~net ());
      ignore
        (Amg_route.Path.draw obj ~layer:"metal2" ~width:(Rules.width rules "metal2")
           ~net [ (x, py); (x, track_y) ]);
      ignore (Wire.via env obj ~at:(x, track_y) ~net ());
      Ok x

(* --- the auto-connection extension check ----------------------------------

   [Successive.extension_safe] as it was, for one stretch: for each layer
   of [main], then of [obj], it classifies the pair, skips a layer that
   cannot constrain [s], lists every index candidate around [r'] with
   [Lobj.near] and checks them all. *)
let reference_extension_safe rules ?ignore_layers ~main ~obj (s : Amg_layout.Shape.t) r' =
  let module Lobj = Amg_layout.Lobj in
  let module Shape = Amg_layout.Shape in
  let module Rect = Amg_geometry.Rect in
  let module Dir = Amg_geometry.Dir in
  let module Constraints = Amg_compact.Constraints in
  let ok cls (other : Shape.t) =
    other == s
    ||
    match Constraints.relation_cls cls s other with
    | Constraints.Unconstrained | Constraints.Mergeable -> true
    | Constraints.Separation sep ->
        let dx = Rect.gap Dir.Horizontal r' other.Shape.rect in
        let dy = Rect.gap Dir.Vertical r' other.Shape.rect in
        Int.max dx dy >= sep
  in
  let clear owner =
    List.for_all
      (fun layer ->
        let cls = Constraints.classify rules ?ignore_layers s.Shape.layer layer in
        let may_constrain =
          cls.Constraints.same_layer
          || Option.is_some cls.Constraints.space
          || s.Shape.keep_clear
          || Lobj.keep_clear_on owner layer > 0
        in
        (not may_constrain)
        ||
        let margin = Constraints.margin_cls cls in
        List.for_all (ok cls) (Lobj.near owner ~layer r' ~margin))
      (Lobj.layers owner)
  in
  clear main && clear obj

(* --- long daemon loads --------------------------------------------------

   The compact_scaling workload as a language entity: [n] metal1 contact
   rows whose widths cycle W, W+12, W+24, W+36 um, compacted alternately
   SOUTH and WEST (the language has no modulo, so the cycle is unrolled).
   A cold local search of [row_pack 28] lasts tens of milliseconds (70-90
   ms on a two-vCPU host), long enough to act on a daemon while it is in
   flight; one of [row_pack 60] most of a second (0.75 s there). *)
let row_pack n =
  let b = Buffer.create 1024 in
  Printf.bprintf b "ENT Rows%d(<W>)\n" n;
  for i = 0 to n - 1 do
    let w =
      match i mod 4 with 0 -> "W" | k -> Printf.sprintf "W + %d" (k * 12)
    in
    Printf.bprintf b
      "  x%d = ContactRow(layer = \"metal1\", W = %s, L = 6, net = \"n%d\")\n"
      i w i;
    Printf.bprintf b "  compact(x%d, %s, align = \"MIN\")\n" i
      (if i mod 2 = 0 then "SOUTH" else "WEST")
  done;
  Buffer.contents b

(* Poll the daemon's health until it reports a request in flight.  Fails
   when [finished ()] turns true first — the load ended before anything
   could act on it mid-flight — or after [timeout] seconds. *)
let await_in_flight ?(timeout = 30.) socket ~finished =
  let module Client = Amg_serve.Client in
  let module Json = Amg_robust.Diag.Json in
  let c = Client.connect_retry ~attempts:40 ~delay:0.05 socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. timeout in
  let in_flight () =
    match Client.roundtrip c (Amg_robust.Wire.health ()) with
    | Ok h ->
        Option.bind h.Amg_robust.Wire.payload (fun p ->
            match Json.of_string p with
            | Ok j -> Option.bind (Json.member "in_flight" j) Json.num
            | Error _ -> None)
    | Error e -> Alcotest.failf "health: %s" e
  in
  let rec go () =
    match in_flight () with
    | Some n when n >= 1. -> ()
    | _ when finished () -> Alcotest.fail "the load finished before it was seen in flight"
    | _ when Unix.gettimeofday () > deadline -> Alcotest.fail "the load never started"
    | _ ->
        Thread.delay 0.001;
        go ()
  in
  go ()
