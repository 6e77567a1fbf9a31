(* Electrical connectivity extraction.

   Conducting shapes are reduced to "pieces": diffusion rectangles are
   split by the gate poly crossing them (the channel interrupts the
   diffusion), and anything under a [resmark] is a resistor body and does
   not conduct.  Pieces merge when they touch on the same layer; contact
   and via cuts merge their overlapped landing/metal pieces across layers.
   Every resulting node carries the set of user net labels found on its
   pieces — more than one distinct label on a node is an extracted short. *)

module Rect = Amg_geometry.Rect
module Sindex = Amg_geometry.Sindex
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape

type piece = {
  p_layer : string;
  p_rect : Rect.t;
  p_net : string option;
  p_src : int;          (* id of the originating shape *)
  p_conducting : bool;  (* false for resistor bodies *)
}

type t = {
  pieces : piece array;
  parent : int array;
  index : (string, Sindex.t) Hashtbl.t; (* layer -> its pieces' indices *)
  labels : (int, string list) Hashtbl.t; (* root -> sorted distinct labels *)
}

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let r = find t p in
    t.parent.(i) <- r;
    r
  end

let pieces t = t.pieces

let union t i j =
  let ri = find t i and rj = find t j in
  if ri <> rj then t.parent.(ri) <- rj

(* Split the diffusion shapes by every overlapping poly rectangle.  Only
   polys meeting the diffusion can split it, so its margin-0 candidates
   are the only ones examined; they are applied in id (= insertion) order
   like the full scan, so the resulting decomposition is identical. *)
let split_diffusion poly_layers obj (s : Shape.t) =
  let gates =
    List.concat_map
      (fun l ->
        List.filter
          (fun (p : Shape.t) -> Rect.overlaps p.Shape.rect s.Shape.rect)
          (Lobj.near obj ~layer:l s.Shape.rect ~margin:0))
      poly_layers
    |> List.sort (fun (a : Shape.t) (b : Shape.t) ->
           Int.compare a.Shape.id b.Shape.id)
    |> List.map (fun (p : Shape.t) -> p.Shape.rect)
  in
  List.fold_left
    (fun acc g -> List.concat_map (fun r -> Rect.subtract r g) acc)
    [ s.Shape.rect ] gates

let build ~tech obj =
  let shapes = Lobj.shapes obj in
  let poly_layers =
    List.filter
      (fun l ->
        match Technology.layer tech l with
        | Some tl -> ( match tl.Layer.kind with Layer.Poly -> true | _ -> false)
        | None -> false)
      (Lobj.layers obj)
  in
  let in_resmark r =
    Lobj.exists_near obj ~layer:"resmark" r ~margin:0 (fun (m : Shape.t) ->
        Rect.contains_rect m.Shape.rect r)
  in
  let pieces = ref [] in
  let add (s : Shape.t) rect =
    pieces :=
      { p_layer = s.Shape.layer; p_rect = rect; p_net = s.Shape.net;
        p_src = s.Shape.id; p_conducting = not (in_resmark s.Shape.rect) }
      :: !pieces
  in
  List.iter
    (fun (s : Shape.t) ->
      match Technology.layer tech s.Shape.layer with
      (* Only routing layers conduct laterally; wells and implants are
         junction-isolated and never short the circuit. *)
      | Some l when l.Layer.conducting && Layer.is_routing l ->
          if Layer.is_active l then
            List.iter (add s) (split_diffusion poly_layers obj s)
          else add s s.Shape.rect
      | _ -> ())
    shapes;
  let pieces = Array.of_list (List.rev !pieces) in
  let n = Array.length pieces in
  (* Per-layer spatial index over piece indices: piece merging is all
     touch/overlap tests, so each piece only ever interacts with its
     margin-0 candidates.  [t] keeps it for [node_at]. *)
  let index = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      let ix =
        match Hashtbl.find_opt index p.p_layer with
        | Some ix -> ix
        | None ->
            let ix = Sindex.create () in
            Hashtbl.replace index p.p_layer ix;
            ix
      in
      Sindex.insert ix i p.p_rect)
    pieces;
  let t = { pieces; parent = Array.init n Fun.id; index; labels = Hashtbl.create 32 } in
  (* Same-layer touching pieces conduct into one node.  Candidates arrive
     in ascending index order, so the union sequence — and with it every
     root index and synthetic node name — matches the all-pairs scan. *)
  for i = 0 to n - 1 do
    let a = pieces.(i) in
    if a.p_conducting then
      List.iter
        (fun j ->
          if j > i then begin
            let b = pieces.(j) in
            if b.p_conducting && Rect.touches a.p_rect b.p_rect then union t i j
          end)
        (Sindex.query (Hashtbl.find index a.p_layer) a.p_rect ~margin:0)
  done;
  (* Each piece's metal flag and draw index, looked up once per layer. *)
  let metal = Array.make n false and draw = Array.make n 0 in
  Hashtbl.iter
    (fun layer ix ->
      let m =
        match Technology.layer tech layer with
        | Some l -> Layer.is_metal l
        | None -> false
      in
      let d = Technology.draw_index tech layer in
      Sindex.iter ix (fun i _ ->
          metal.(i) <- m;
          draw.(i) <- d))
    index;
  (* Cuts merge across layers, but only between the layers the rules say
     the cut lands on (its enclosure rules) — a contact inside a big well
     rectangle does not make the well a wire.  Each cut layer's landing
     indexes are resolved once per build. *)
  let rules = Technology.rules tech in
  let landing = Hashtbl.create 4 in
  List.iter
    (fun layer ->
      match Technology.layer tech layer with
      | Some l when Layer.is_cut l ->
          Hashtbl.replace landing layer
            (List.filter_map
               (fun (o, _) -> Hashtbl.find_opt index o)
               (Amg_tech.Rules.enclosing_layers rules ~inner:layer))
      | _ -> ())
    (Lobj.layers obj);
  (* The unions of one cut's hits.  A cut reaches the metal(s) above and
     only the TOPMOST of the overlapped non-metal landing layers: a
     contact on a poly2 top plate does not also reach the poly bottom
     plate under it.  The first landing piece of the greatest draw index
     names that layer. *)
  let connect hits =
    let metals, landings = List.partition (fun i -> metal.(i)) hits in
    let top =
      List.fold_left
        (fun acc i ->
          match acc with
          | Some cur when draw.(i) <= draw.(cur) -> acc
          | _ -> Some i)
        None landings
    in
    let landings =
      match top with
      | None -> []
      | Some top ->
          let l = pieces.(top).p_layer in
          List.filter (fun i -> String.equal pieces.(i).p_layer l) landings
    in
    match metals @ landings with
    | first :: rest -> List.iter (fun i -> union t first i) rest
    | [] -> ()
  in
  (* A run is a stretch of consecutive cuts of one array and one layer
     (a cut outside any array is a run of its own).  Its conducting
     landing candidates are gathered once, over the run's hull, and
     sorted descending, the order of the seed scan's accumulator (built
     by consing ascending indices): the union order — and with it every
     root — depends on it.  Each cut keeps the candidates it overlaps, in
     that order, which are exactly the hits a query of its own would
     find.  A cut whose hits equal the previous cut's needs no union:
     those pieces are one node already. *)
  let run_pass ixs = function
    | [] -> ()
    | (first : Shape.t) :: _ as run ->
        let hull =
          List.fold_left
            (fun h (c : Shape.t) -> Rect.hull h c.Shape.rect)
            first.Shape.rect run
        in
        let cands = ref [] in
        List.iter
          (fun ix ->
            Sindex.iter_query ix hull ~margin:0 (fun i ->
                if pieces.(i).p_conducting then cands := i :: !cands))
          ixs;
        let cands = List.sort (fun i j -> Int.compare j i) !cands in
        ignore
          (List.fold_left
             (fun prev (c : Shape.t) ->
               let hits =
                 List.filter (fun i -> Rect.overlaps pieces.(i).p_rect c.Shape.rect) cands
               in
               if not (List.equal Int.equal hits prev) then connect hits;
               hits)
             [] run)
  in
  let same_run (a : Shape.t) (b : Shape.t) =
    String.equal a.Shape.layer b.Shape.layer
    &&
    match (a.Shape.origin, b.Shape.origin) with
    | Shape.Array_member x, Shape.Array_member y -> Int.equal x y
    | _ -> false
  in
  (* [run] is the current run, newest cut first, and [ixs] its landing
     indexes; a shape that does not extend it ends it. *)
  let rec cut_pass ixs run = function
    | [] -> run_pass ixs (List.rev run)
    | (c : Shape.t) :: rest -> (
        match run with
        | last :: _ when same_run last c -> cut_pass ixs (c :: run) rest
        | _ -> (
            run_pass ixs (List.rev run);
            match Hashtbl.find_opt landing c.Shape.layer with
            | None -> cut_pass [] [] rest
            | Some ixs -> cut_pass ixs [ c ] rest))
  in
  cut_pass [] [] shapes;
  (* Collect labels. *)
  Array.iteri
    (fun i p ->
      if p.p_conducting then
        match p.p_net with
        | None -> ()
        | Some net ->
            let r = find t i in
            let cur = Option.value ~default:[] (Hashtbl.find_opt t.labels r) in
            if not (List.exists (String.equal net) cur) then
              Hashtbl.replace t.labels r (List.sort String.compare (net :: cur)))
    pieces;
  t

(* The node (union-find root) of the conducting piece at a point on a
   layer, if any: the layer's index lists the pieces covering the point
   in ascending index order, and the first conducting one answers. *)
let node_at t ~layer ~x ~y =
  match Hashtbl.find_opt t.index layer with
  | None -> None
  | Some ix ->
      Sindex.query ix (Rect.make ~x0:x ~y0:y ~x1:x ~y1:y) ~margin:0
      |> List.find_opt (fun i -> t.pieces.(i).p_conducting)
      |> Option.map (find t)

(* Preferred net name of a node: its single label, a "name1+name2" short
   marker for conflicting labels, or a synthetic node name. *)
let net_name t node =
  match Hashtbl.find_opt t.labels node with
  | Some [ l ] -> l
  | Some ls -> String.concat "+" ls
  | None -> Printf.sprintf "n%d" node

(* Every user net label present anywhere in the layout; synthetic "n%d"
   names are never in this list, so it distinguishes internal nodes from
   user nets even when a user net happens to be called "n5". *)
let labeled_nets t =
  Hashtbl.fold (fun _root labels acc -> labels @ acc) t.labels []
  |> List.sort_uniq String.compare

(* Nodes carrying more than one distinct user label: extracted shorts. *)
let shorts t =
  Hashtbl.fold
    (fun _root labels acc ->
      match labels with _ :: _ :: _ -> labels :: acc | _ -> acc)
    t.labels []

(* Does piece [p] carry the user label [label]?  Compared at its type,
   without building an option per piece. *)
let labelled p label =
  match p.p_net with Some net -> String.equal net label | None -> false

(* Number of distinct nodes carrying the given user label: 1 means the net
   is physically one piece; more means it relies on labels only. *)
let label_node_count t label =
  let roots = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      if p.p_conducting && labelled p label then
        Hashtbl.replace roots (find t i) ())
    t.pieces;
  Hashtbl.length roots

(* The connected components carrying the given label, each as its pieces'
   (layer, rect) list — used by repair passes to find and wire up
   disconnected islands of a net. *)
let label_components t label =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      if p.p_conducting && labelled p label then begin
        let r = find t i in
        let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
        Hashtbl.replace tbl r ((p.p_layer, p.p_rect) :: cur)
      end)
    t.pieces;
  Hashtbl.fold (fun _ pieces acc -> pieces :: acc) tbl []

(* Half-perimeter wirelength of a user net, in micrometres: for every
   node carrying the label, the hull of *all* conducting pieces unioned
   into that node (labelled or not — the wire is the whole node, not
   just its labelled shapes) contributes width + height.  A multi-node
   (label-only) net sums its islands, so repairs that physically join
   them change the number instead of hiding behind it. *)
let net_wirelength_um t label =
  let hulls = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      if p.p_conducting && labelled p label then
        Hashtbl.replace hulls (find t i) None)
    t.pieces;
  Array.iteri
    (fun i p ->
      if p.p_conducting then
        let r = find t i in
        match Hashtbl.find_opt hulls r with
        | None -> ()
        | Some cur ->
            let h =
              match cur with
              | None -> p.p_rect
              | Some h -> Rect.hull h p.p_rect
            in
            Hashtbl.replace hulls r (Some h))
    t.pieces;
  Hashtbl.fold
    (fun _root hull acc ->
      match hull with
      | None -> acc
      | Some h -> acc +. (float (Rect.width h + Rect.height h) /. 1000.))
    hulls 0.

(* Distinct conducting nodes. *)
let node_count t =
  let roots = Hashtbl.create 32 in
  Array.iteri
    (fun i p -> if p.p_conducting then Hashtbl.replace roots (find t i) ())
    t.pieces;
  Hashtbl.length roots
