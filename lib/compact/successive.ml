module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Interval = Amg_geometry.Interval
module Rules = Amg_tech.Rules
module Shape = Amg_layout.Shape
module Edge = Amg_layout.Edge
module Lobj = Amg_layout.Lobj
module Derive = Amg_layout.Derive

let src = Logs.Src.create "amg.compact" ~doc:"successive compactor"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Amg_obs.Obs

type side = Mover | Target

type limit = { bound : int; mover : Shape.t; target : Shape.t; rel : Constraints.relation }

type align = [ `Keep | `Center | `Min | `Max ]

(* One layer of a mover as every scan reads it: its shapes in store
   order, the leading side of their hull along the digest's direction
   (before any displacement), and whether any of them has a net or is
   keep-clear. *)
type mover_layer = {
  layer : string;
  shapes : Shape.t array;
  lead : int;
  netted : bool;
  keep_clear : bool;
}

(* What the candidate pass reads of a mover moving in [dir], worked out
   once: a step's mover is the same object in every placement of it. *)
type digest = { obj : Lobj.t; dir : Dir.t; layers : mover_layer array }

let digest obj d =
  let sign = Dir.sign d in
  let mover_layer (layer, shapes) =
    let lead = ref (if sign < 0 then max_int else min_int) in
    let netted = ref false and keep_clear = ref false in
    for i = 0 to Array.length shapes - 1 do
      let s : Shape.t = shapes.(i) in
      let side = Rect.side s.Shape.rect d in
      lead := if sign < 0 then Int.min !lead side else Int.max !lead side;
      if Option.is_some s.Shape.net then netted := true;
      if s.Shape.keep_clear then keep_clear := true
    done;
    { layer; shapes; lead = !lead; netted = !netted; keep_clear = !keep_clear }
  in
  { obj; dir = d; layers = Array.map mover_layer (Lobj.shapes_by_layer obj) }

let equal_digest (g : digest) (g' : digest) =
  g.obj == g'.obj && Dir.equal g.dir g'.dir
  && Array.length g.layers = Array.length g'.layers
  && Array.for_all2
       (fun a b ->
         String.equal a.layer b.layer
         && Array.length a.shapes = Array.length b.shapes
         && Array.for_all2 Shape.equal a.shapes b.shapes
         && Int.equal a.lead b.lead && Bool.equal a.netted b.netted
         && Bool.equal a.keep_clear b.keep_clear)
       g.layers g'.layers

(* The layer-level classification of every (mover layer, main layer) pair
   a search can meet, worked out before the search fans out and only read
   by its scans: [table.(i * n + j)] classifies [names.(i)] moving against
   [names.(j)] with no layer ignored, and [cut.(i)] says whether
   [names.(i)] is a cut layer (never stretched). *)
type classes = {
  names : string array;
  cut : bool array;
  table : Constraints.pair_class array;
}

let classes rules layers =
  let names =
    Array.of_list
      (List.rev
         (List.fold_left
            (fun acc l -> if List.exists (String.equal l) acc then acc else l :: acc)
            [] layers))
  in
  let n = Array.length names in
  {
    names;
    cut = Array.map (fun l -> Rules.cut_size_opt rules l <> None) names;
    table =
      Array.init (n * n) (fun k -> Constraints.classify rules names.(k / n) names.(k mod n));
  }

(* The table's index of a layer, or -1 when it does not cover it. *)
let class_index c name =
  let n = Array.length c.names in
  let rec go i = if i = n then -1 else if String.equal c.names.(i) name then i else go (i + 1) in
  go 0

(* The mover of a placement: an object read through an integer
   displacement.  Its shapes stand at their rectangles translated by
   (dx, dy); staging and travel only add to the displacement, and the
   candidate pass reads through it with integer adds, from the mover's
   digest.  [obj] is mutated only when [owned]: the compactor
   materialises a private copy of a read-only mover ([own]) only when the
   placement must shrink one of its shapes or auto-connect to it, and
   [Lobj.absorb ~dx ~dy] writes its shapes into the main structure once,
   at their final position.  [own] moves the object, so it drops the
   digest, which the next scan rebuilds. *)
type mover = {
  mutable obj : Lobj.t;
  dir : Dir.t;
  mutable owned : bool;
  mutable dx : int;
  mutable dy : int;
  mutable digest : digest option;
}

(* The displacement along [d]'s axis. *)
let shift d ~dx ~dy = match Dir.axis d with Dir.Horizontal -> dx | Dir.Vertical -> dy

(* Bring an owned mover's object to where the mover stands. *)
let settle mv =
  if mv.dx <> 0 || mv.dy <> 0 then begin
    Lobj.translate mv.obj ~dx:mv.dx ~dy:mv.dy;
    mv.dx <- 0;
    mv.dy <- 0
  end;
  mv.obj

(* The mover's object at its position, ready to mutate: a read-only
   mover is copied first, once, counted under [why]. *)
let own ~why mv =
  if not mv.owned then begin
    Obs.count why 1;
    mv.obj <- Lobj.copy mv.obj;
    mv.owned <- true
  end;
  mv.digest <- None;
  settle mv

let mover_digest mv =
  match mv.digest with
  | Some g -> g
  | None ->
      let g = digest mv.obj mv.dir in
      mv.digest <- Some g;
      g

(* A movement-axis slab: the mover's rectangle, displaced by (dx, dy),
   stretched along the axis to cover the main structure's whole extent.
   Along the movement axis any distance still constrains the travel, so
   only the cross-axis shadow can cull; the slab makes the index query
   unbounded (within main) on the axis and tight on the cross axis. *)
let slab ~axis ~dx ~dy (a : Shape.t) (mb : Rect.t) =
  let r = a.Shape.rect in
  match axis with
  | Dir.Horizontal ->
      Rect.make
        ~x0:(Int.min (r.Rect.x0 + dx) mb.Rect.x0)
        ~x1:(Int.max (r.Rect.x1 + dx) mb.Rect.x1)
        ~y0:(r.Rect.y0 + dy) ~y1:(r.Rect.y1 + dy)
  | Dir.Vertical ->
      Rect.make ~x0:(r.Rect.x0 + dx) ~x1:(r.Rect.x1 + dx)
        ~y0:(Int.min (r.Rect.y0 + dy) mb.Rect.y0)
        ~y1:(Int.max (r.Rect.y1 + dy) mb.Rect.y1)

(* Can a (mover shape, main layer) pair constrain anything?  Shapes on
   different layers without a spacing rule may overlap freely unless one
   of them is keep-clear, so such a layer pair is skipped outright — no
   index query — when neither the mover shape nor any shape of the layer
   is keep-clear. *)
let may_constrain (cls : Constraints.pair_class) (a : Shape.t) owner layer =
  cls.same_layer || cls.space <> None || a.Shape.keep_clear
  || Lobj.keep_clear_on owner layer > 0

(* Strict cross-axis overlap of two rectangles moving along [axis], [ra]
   displaced by (dx, dy). *)
let cross_overlap ~axis ~dx ~dy (ra : Rect.t) (rb : Rect.t) =
  match axis with
  | Dir.Horizontal -> ra.Rect.y0 + dy < rb.Rect.y1 && rb.Rect.y0 < ra.Rect.y1 + dy
  | Dir.Vertical -> ra.Rect.x0 + dx < rb.Rect.x1 && rb.Rect.x0 < ra.Rect.x1 + dx

(* Whether mover shape [a] looks for auto-connection partners: whether it
   has a net the main can carry too.  Without a list that is any net; a
   search hands the nets its base and at least two of its steps carry,
   and a net outside them is on no shape of any main the search builds. *)
let seeks shared (a : Shape.t) =
  match (a.Shape.net, shared) with
  | None, _ -> false
  | Some _, None -> true
  | Some n, Some nets -> List.exists (String.equal n) nets

type pass = {
  tightest : int option;
  tied : limit list;
  runner_up : int option Lazy.t;
  connect : (int * int) list;
}

let no_pass =
  { tightest = None; tied = []; runner_up = Lazy.from_val None; connect = [] }

let make_limit bound mover target code =
  { bound; mover; target; rel = Constraints.relation_of_code code }

(* One (mover layer, main layer) pair of the candidate pass, classified
   once per pass.

   Its optimistic bound is admissible: moving South, a separated pair
   bounds the travel at [b.y1 + sep - a.y0] and a mergeable one at
   [b.y1 - a.y1]; [sep] is the pair's spacing rule or 0 (keep-clear),
   never more than the margin floored at 0, and [a.y1 >= a.y0], so no
   pair of the layer pair bounds tighter than
   [main_hull.y1 + max margin 0 - a.y0] — [reach - Rect.side a d] — nor,
   over the mover layer's hull, than [optimistic].  The other directions
   mirror it. *)
type layer_pair = {
  movers : Shape.t array; (* the mover's shapes on the mover layer, by id *)
  handle : Lobj.layer; (* the main layer *)
  cls : Constraints.pair_class;
  margin : int;
  keep_clear_only : bool;
      (* different layers, no spacing rule, no keep-clear target: only a
         keep-clear mover shape can constrain (see [may_constrain]) *)
  connecting : bool;
      (* the same stretchable layer, where auto-connection's partners are;
         cut shapes are never stretched *)
  netted : bool; (* some mover shape looks for partners ([seeks]) *)
  reach : int;
  optimistic : int;
}

(* The layer pairs of a scan, from the mover's digest and one pass over
   the main's layers.  With a class table, a pair's class is read from it
   (a layer it does not cover is classified on the spot); without one,
   each pair is classified once per scan. *)
let layer_pairs rules ?(ignore_layers = []) ?classes ?shared ~main ~dx ~dy (g : digest) =
  let d = g.dir in
  let sign = Dir.sign d in
  let shift = shift d ~dx ~dy in
  let tighter (x : int) (y : int) = if sign < 0 then x > y else x < y in
  let index name = match classes with Some c -> class_index c name | None -> -1 in
  let mains =
    List.rev
      (Lobj.fold_layers main
         (fun acc lb handle hull keep_clear ->
           (lb, index lb, handle, hull, keep_clear > 0) :: acc)
         [])
  in
  let pairs = ref [] in
  Array.iter
    (fun ml ->
      let la = ml.layer in
      let row = index la in
      let ignored = List.exists (String.equal la) ignore_layers in
      let stretchable =
        match classes with
        | Some c when row >= 0 -> not c.cut.(row)
        | _ -> Rules.cut_size_opt rules la = None
      in
      let lead = ml.lead + shift in
      let netted =
        ml.netted && (Option.is_none shared || Array.exists (seeks shared) ml.shapes)
      in
      List.iter
        (fun (lb, col, handle, main_hull, keep_clear_targets) ->
          let cls =
            match classes with
            | Some c when row >= 0 && col >= 0 ->
                let cls = c.table.((row * Array.length c.names) + col) in
                if ignored then { cls with ignored = true } else cls
            | _ -> Constraints.classify rules ~ignore_layers la lb
          in
          let keep_clear_only =
            not (cls.same_layer || cls.space <> None || keep_clear_targets)
          in
          if not (keep_clear_only && not ml.keep_clear) then begin
            let margin = Constraints.margin_cls cls in
            let reach =
              Rect.side main_hull (Dir.opposite d) - (sign * Int.max margin 0)
            in
            pairs :=
              {
                movers = ml.shapes;
                handle;
                cls;
                margin;
                keep_clear_only;
                connecting = cls.same_layer && stretchable;
                netted;
                reach;
                optimistic = reach - lead;
              }
              :: !pairs
          end)
        mains)
    g.layers;
  (* Tightest optimistic bound first; the sort is stable, so ties keep
     (mover layer, main layer) first-use order. *)
  List.stable_sort
    (fun p q ->
      if tighter p.optimistic q.optimistic then -1
      else if tighter q.optimistic p.optimistic then 1
      else 0)
    (List.rev !pairs)

(* The mover shape a visit is querying the main's index for, with what
   its candidates need. *)
type probe = {
  mutable a : Shape.t;
  mutable cls : Constraints.pair_class;
  mutable partners : bool;
  mutable considered : int;
  mutable lead : int; (* the mover shape's leading side, displaced *)
  mutable slack : int; (* sign * max margin 0: the pair's widest reach *)
}

let no_shape = Shape.make ~id:(-1) ~layer:"" ~rect:(Rect.make ~x0:0 ~y0:0 ~x1:0 ~y1:0) ()
let no_class = { Constraints.same_layer = false; ignored = false; space = None }

let by_mover_target (m1, t1) (m2, t2) =
  let c = Int.compare m1 m2 in
  if c <> 0 then c else Int.compare t1 t2

(* Visit the layer pairs in order.  With [prune], a layer pair — and
   inside a visited one, a mover shape — whose optimistic bound is
   strictly looser than the tightest bound found so far is skipped: it
   can neither set nor tie the tightest bound, which only ever tightens.
   A mover shape that looks for partners ([seeks]) on a connecting pair
   is still visited for them.  Candidates come from the per-layer index,
   restricted to the mover shape's movement slab inflated by the pair's
   spacing rule.  A pruned visit of a mover shape that looks for no
   partners walks the index from the mover's side
   ([Lobj.walk_layer]) and stops before a bin once the bound any target
   left could give — its facing edge at the walk's bound, plus the
   pair's widest reach — is strictly looser than the tightest bound:
   [cannot_bind] as for the layer pair's optimistic bound, so no target
   that could tie is left out.  Partner seekers and the unpruned visit
   read the whole slab.  Candidates thus arrive in no fixed order; only
   the tied limits and the partners are sorted, back into the (mover id,
   target id) order of the all-pairs scan, which keeps every tie-break
   unchanged.  A bound produces a limit record only while it is tied at
   the tightest value seen so far.  Returns the summary and whether
   anything was skipped (a stopped walk included); the runner-up is
   exact only when nothing was. *)
let visit ~prune ?shared d ~main ~mb ~dx ~dy pairs =
  let axis = Dir.axis d in
  let sign = Dir.sign d in
  let shift = shift d ~dx ~dy in
  let tighter (x : int) (y : int) = if sign < 0 then x > y else x < y in
  let obs = Obs.enabled () in
  (* The tightest bound and the runner-up, each valid once its flag is
     set; unboxed so that offering a bound allocates nothing unless it
     ties the tightest. *)
  let has_best = ref false and best = ref 0 and tied = ref [] in
  let has_second = ref false and second = ref 0 in
  let offer bound a b code =
    if !has_best && bound = !best then tied := make_limit bound a b code :: !tied
    else if !has_best && not (tighter bound !best) then begin
      if (not !has_second) || tighter bound !second then begin
        has_second := true;
        second := bound
      end
    end
    else begin
      if !has_best then begin
        has_second := true;
        second := !best
      end;
      has_best := true;
      best := bound;
      tied := [ make_limit bound a b code ]
    end
  in
  let cannot_bind optimistic = prune && !has_best && tighter !best optimistic in
  let connect = ref [] and skipped = ref false in
  (* One candidate callback for the whole visit, reading the mover shape
     being queried from [q]. *)
  let q =
    { a = no_shape; cls = no_class; partners = false; considered = 0; lead = 0; slack = 0 }
  in
  let candidate (b : Shape.t) =
    let a = q.a in
    q.considered <- q.considered + 1;
    let code = Constraints.code_cls q.cls ~dx ~dy a b in
    let bound = Constraints.bound_code d code ~dx ~dy a b in
    if bound <> Constraints.no_bound then begin
      if obs then begin
        Obs.count "compact.limits" 1;
        if Constraints.is_mergeable code then Obs.count "compact.merge_limits" 1
      end;
      offer bound a b code
    end;
    if
      q.partners && Shape.same_net a b
      && cross_overlap ~axis ~dx ~dy a.Shape.rect b.Shape.rect
    then connect := (a.Shape.id, b.Shape.id) :: !connect
  in
  (* The walk's stop rule: no target whose facing edge is at most [edge]
     along the walk can bind. *)
  let go edge = not (cannot_bind (edge - q.slack - q.lead)) in
  List.iter
    (fun p ->
      if cannot_bind p.optimistic && not (p.connecting && p.netted) then
        skipped := true
      else
        for i = 0 to Array.length p.movers - 1 do
          let a = p.movers.(i) in
          let partners = p.connecting && seeks shared a in
          let lead = Rect.side a.Shape.rect d + shift in
          if p.keep_clear_only && not a.Shape.keep_clear then ()
          else if cannot_bind (p.reach - lead) && not partners then skipped := true
          else begin
            q.a <- a;
            q.cls <- p.cls;
            q.partners <- partners;
            q.considered <- 0;
            let window = slab ~axis ~dx ~dy a mb in
            if prune && not partners then begin
              q.lead <- lead;
              q.slack <- sign * Int.max p.margin 0;
              if not (Lobj.walk_layer main p.handle window ~margin:p.margin d ~go candidate)
              then skipped := true
            end
            else Lobj.iter_near_layer main p.handle window ~margin:p.margin candidate;
            if obs then Obs.count "compact.pairs_considered" q.considered
          end
        done)
    pairs;
  ( {
      tightest = (if !has_best then Some !best else None);
      tied =
        List.sort
          (fun l1 l2 ->
            by_mover_target
              (l1.mover.Shape.id, l1.target.Shape.id)
              (l2.mover.Shape.id, l2.target.Shape.id))
          !tied;
      runner_up = Lazy.from_val (if !has_second then Some !second else None);
      connect = List.sort by_mover_target !connect;
    },
    !skipped )

(* The candidate pass: one bound-ordered visit of the (mover layer, main
   layer) pairs that can constrain the move, keeping only what a
   placement uses — the tightest bound, the limits tied at it, the
   runner-up bound for the variable-edge relaxation, and the same-layer
   same-net pairs auto-connection will examine.  When the pruned visit
   skipped something, the runner-up is left to a second, unpruned visit
   of the same pairs, run only if it is forced.  The mover is read from
   its digest, displaced by (dx, dy); the limits hold its shapes as they
   are stored. *)
let scan_at rules ?ignore_layers ?classes ?shared ~main ~dx ~dy (g : digest) =
  match Lobj.bbox main with
  | None -> no_pass
  | Some mb ->
      let d = g.dir in
      let pairs = layer_pairs rules ?ignore_layers ?classes ?shared ~main ~dx ~dy g in
      let pass, skipped = visit ~prune:true ?shared d ~main ~mb ~dx ~dy pairs in
      if not skipped then pass
      else
        {
          pass with
          runner_up =
            lazy
              (Lazy.force (fst (visit ~prune:false ?shared d ~main ~mb ~dx ~dy pairs))
                 .runner_up);
        }

let scan_digest rules ?ignore_layers ?classes ?shared ~main g =
  scan_at rules ?ignore_layers ?classes ?shared ~main ~dx:0 ~dy:0 g

let scan rules ?ignore_layers d ~main obj =
  scan_digest rules ?ignore_layers ~main (digest obj d)

(* Minimum extent a shape may be shrunk to along [axis]: its layer's minimum
   width, raised to the one-cut minimum when it is a container of a
   registered cut array. *)
let min_extent rules owner (s : Shape.t) =
  let cut_layers = Lobj.array_cut_layers_of_container owner s.id in
  List.fold_left
    (fun acc cut_layer ->
      Int.max acc (Derive.min_container_extent rules ~container_layer:s.layer ~cut_layer))
    (Rules.width rules s.layer) cut_layers

(* How far the [facing] edge of shape [s] (owned by [owner]) may move
   inward: [amount], clamped to the minimum extent.  [amount] is forced
   only when the shape has slack to give.  Pure query: it runs before any
   mutation, and decides whether a read-only mover must be copied. *)
let shrink_step rules owner (s : Shape.t) facing amount =
  let axis = Dir.axis facing in
  let extent = Interval.length (Rect.span axis s.rect) in
  let slack = extent - min_extent rules owner s in
  if slack <= 0 then 0 else Int.min (Lazy.force amount) slack

(* Shrink the [facing] edge of shape [s] (owned by [owner]) inward by
   [step] > 0; rebuilds derived arrays.  A shrink that would slide the
   shape away from its array's other containers (leaving the array
   without a single cut, i.e. disconnecting the structure) is rolled
   back.  Returns how much was actually shrunk. *)
let shrink_edge rules owner (s : Shape.t) facing step =
  let r = Rect.grow_side s.rect facing (-step) in
  Lobj.replace owner (Shape.with_rect s r);
  Lobj.rederive owner rules;
  if Lobj.starved_array owner ~container:s.Shape.id then begin
    Lobj.replace owner s;
    Lobj.rederive owner rules;
    0
  end
  else begin
    Obs.count "compact.var_edge_shrinks" 1;
    step
  end

(* Whether a tied limit is a separation with a variable facing edge on
   either side, read from the limit's own shape records: the records the
   pass found, current until something shrinks. *)
let variable_facing d l =
  match l.rel with
  | Constraints.Separation _ ->
      Edge.is_variable l.target.Shape.sides (Dir.opposite d)
      || Edge.is_variable l.mover.Shape.sides d
  | Constraints.Mergeable | Constraints.Unconstrained -> false

(* One round of the variable-edge optimization of §2.3: while the binding
   constraint pair has a variable facing edge, move that edge inward until
   the pair "is no longer relevant", i.e. until another (eventually fixed)
   constraint defines the minimum distance.  Returns the pass of the final
   round — the geometry has not changed since (the round made no
   progress), so the caller can reuse it instead of scanning again.  A
   round whose tied separations all have fixed facing edges on both sides
   returns its pass at once: nothing has shrunk in it yet, so the limits'
   records are the shapes' current ones, and no edge could move. *)
let relax_variable_edges rules ?ignore_layers ?classes ?shared ~main mv =
  let d = mv.dir in
  let max_rounds = 64 in
  let rounds = ref 0 in
  let rec loop round =
    rounds := round;
    let pass =
      scan_at rules ?ignore_layers ?classes ?shared ~main ~dx:mv.dx ~dy:mv.dy
        (mover_digest mv)
    in
    if round >= max_rounds then pass
    else
      match pass.tightest with
      | None -> pass
      | Some _ when not (List.exists (variable_facing d) pass.tied) -> pass
      | Some best ->
          let binding =
            List.filter
              (fun l ->
                match l.rel with Constraints.Separation _ -> true | _ -> false)
              pass.tied
          in
          (* How much slack until the next constraint binds; unlimited when
             this pair is the only constraint.  Forcing the runner-up may
             take a second, unpruned visit, so it waits until an edge is
             about to shrink — while the geometry is still the pass's. *)
          let want =
            lazy
              (match Lazy.force pass.runner_up with
              | Some s -> abs (best - s)
              | None -> max_int / 2)
          in
          let progressed = ref false in
          List.iter
            (fun l ->
              if not !progressed then begin
                (* The target's facing edge looks back at the mover
                   (opposite d); the mover's facing edge looks ahead (d).
                   The mover is shrunk in its own object, at its
                   position. *)
                let try_side role =
                  let owner, shape, facing =
                    match role with
                    | Target -> (main, l.target, Dir.opposite d)
                    | Mover -> (mv.obj, l.mover, d)
                  in
                  (* Re-fetch: a previous shrink may have replaced it. *)
                  match Lobj.find owner shape.Shape.id with
                  | Some s when Edge.is_variable s.Shape.sides facing ->
                      let step = shrink_step rules owner s facing want in
                      step > 0
                      &&
                      let owner =
                        match role with
                        | Target -> main
                        | Mover -> own ~why:"compact.mover_copies_shrink" mv
                      in
                      shrink_edge rules owner (Lobj.find_exn owner s.Shape.id) facing
                        step
                      > 0
                  | _ -> false
                in
                if try_side Target || try_side Mover then progressed := true
              end)
            binding;
          if !progressed then loop (round + 1) else pass
  in
  let pass = loop 0 in
  if Obs.enabled () then Obs.sample "compact.var_edge_rounds" (float_of_int !rounds);
  pass

(* Fallback when no pair constrains the move: abut bounding boxes, [obj]
   read displaced by (dx, dy). *)
let bbox_abut_delta d ~main ~dx ~dy obj =
  match (Lobj.bbox main, Lobj.bbox obj) with
  | Some mb, Some ob ->
      let axis = Dir.axis d in
      let mi = Rect.span axis mb and oi = Rect.span axis ob in
      let shift = shift d ~dx ~dy in
      if Dir.sign d < 0 then mi.Interval.hi - (oi.Interval.lo + shift)
      else mi.Interval.lo - (oi.Interval.hi + shift)
  | _ -> 0

(* The travel: the mover's displacement grows along the movement axis. *)
let travel d mv delta =
  match Dir.axis d with
  | Dir.Horizontal -> mv.dx <- mv.dx + delta
  | Dir.Vertical -> mv.dy <- mv.dy + delta

(* One auto-connection call's extension check: would growing shape [s]
   of [owner] to [r'] violate a separation against any other shape of
   [main] or [obj]?  Shapes beyond the pair's spacing rule on either axis
   cannot be violated, so only index candidates around [r'] are examined,
   and only on layers that can constrain [s].  Each (target layer, layer)
   pair is classified once per call, at its first use; the candidates of
   a layer are visited without a list, and the visit stops at the first
   violation ([Lobj.exists_near], still one counted query).  The layers,
   their order and the short cut from [main] to [obj] are those of a
   check that lists every candidate, so every check makes the same
   queries. *)
let extension_safe rules ?ignore_layers () =
  let memo = ref [] in
  let classify la lb =
    let rec find = function
      | [] ->
          let cls = Constraints.classify rules ?ignore_layers la lb in
          memo := (la, lb, cls) :: !memo;
          cls
      | (a, b, cls) :: rest ->
          if String.equal a la && String.equal b lb then cls else find rest
    in
    find !memo
  in
  fun ~main ~obj (s : Shape.t) r' ->
    let violates cls (other : Shape.t) =
      other != s
      &&
      match Constraints.relation_cls cls s other with
      | Constraints.Unconstrained | Constraints.Mergeable -> false
      | Constraints.Separation sep ->
          let dx = Rect.gap Dir.Horizontal r' other.Shape.rect in
          let dy = Rect.gap Dir.Vertical r' other.Shape.rect in
          Int.max dx dy < sep
    in
    let clear owner =
      List.for_all
        (fun layer ->
          let cls = classify s.Shape.layer layer in
          (not (may_constrain cls s owner layer))
          || not
               (Lobj.exists_near owner ~layer r' ~margin:(Constraints.margin_cls cls)
                  (violates cls)))
        (Lobj.layers owner)
    in
    clear main && clear obj

(* Auto-connection (§2.3, Fig. 5a): after placement, same-layer same-net
   shape pairs whose cross-axis spans overlap but which still have a gap
   along the movement axis are connected by stretching the target shape's
   facing edge up to the mover.  The candidate pairs come from a pass
   taken before the mover travelled: travel along the movement axis
   changes neither cross-axis spans nor slab membership, and extensions
   grow along it only, so the pairs still hold; both shapes are
   re-fetched for their current rectangles. *)
let auto_connect rules ?ignore_layers d ~main ~pass obj =
  let axis = Dir.axis d in
  (* Cut layers (fixed-size openings) must never be stretched. *)
  let stretchable (s : Shape.t) = Rules.cut_size_opt rules s.Shape.layer = None in
  let extension_safe = extension_safe rules ?ignore_layers () in
  List.iter
    (fun (a_id, b_id) ->
      match (Lobj.find obj a_id, Lobj.find main b_id) with
      | Some a, Some b when stretchable b ->
          let sa = Rect.span axis a.rect and sb = Rect.span axis b.rect in
          let gap = Int.max (sa.Interval.lo - sb.Interval.hi) (sb.Interval.lo - sa.Interval.hi) in
          if gap > 0 then begin
            (* Extend b toward a. *)
            let facing =
              if sb.Interval.hi <= sa.Interval.lo then
                (* b is on the low side: grow its high edge *)
                match axis with Dir.Horizontal -> Dir.East | Vertical -> Dir.North
              else match axis with Dir.Horizontal -> Dir.West | Vertical -> Dir.South
            in
            let r' = Rect.grow_side b.Shape.rect facing gap in
            if extension_safe ~main ~obj b r' then begin
              Obs.count "compact.same_potential_merges" 1;
              Lobj.replace main (Shape.with_rect b r')
            end
          end
      | _ -> ())
    pass.connect

let delta rules ?ignore_layers d ~main obj =
  match (scan rules ?ignore_layers d ~main obj).tightest with
  | Some bound -> bound
  | None -> bbox_abut_delta d ~main ~dx:0 ~dy:0 obj

(* Where the mover starts: pre-aligned across the movement axis relative
   to the main structure's bounding box, and outside the structure beyond
   its far edge in the opposite direction, so that it genuinely
   "approaches" — otherwise a mover generated at the origin may begin
   inside the structure and position-dependent relations (containment)
   misfire.  The two shifts are on different axes, so both come from the
   bounding boxes as they stand; they set the mover's displacement, and
   nothing is translated. *)
let stage ~align ~grid d ~main mv =
  match (Lobj.bbox main, Lobj.bbox mv.obj) with
  | Some mb, Some ob ->
      let mc = Rect.span (Dir.cross_axis d) mb
      and oc = Rect.span (Dir.cross_axis d) ob in
      let across =
        match align with
        | `Keep -> 0
        | `Center ->
            ((mc.Interval.lo + mc.Interval.hi) - (oc.Interval.lo + oc.Interval.hi)) / 2
        | `Min -> mc.Interval.lo - oc.Interval.lo
        | `Max -> mc.Interval.hi - oc.Interval.hi
      in
      let mi = Rect.span (Dir.axis d) mb and oi = Rect.span (Dir.axis d) ob in
      let along =
        if Dir.sign d < 0 then
          (* moving low-ward: start above/right of main *)
          Int.max 0 (mi.Interval.hi + grid - oi.Interval.lo)
        else Int.min 0 (mi.Interval.lo - grid - oi.Interval.hi)
      in
      (match Dir.axis d with
      | Dir.Horizontal ->
          mv.dx <- along;
          mv.dy <- across
      | Dir.Vertical ->
          mv.dx <- across;
          mv.dy <- along)
  | _ -> ()

(* The per-placement audit record behind `amgen build --explain`: which
   limit pair actually set the final position.  [binding] is the tied
   tightest subset of the final limits in (mover id, target id) order. *)
let place_mark ~main ~obj ~d ~dl ~(binding : limit list) =
  let base bound_by =
    [
      ("obj", Lobj.name obj);
      ("into", Lobj.name main);
      ("dir", Dir.to_string d);
      ("delta", string_of_int dl);
      ("bound_by", bound_by);
    ]
  in
  match binding with
  | [] -> base "bbox-abut"
  | l :: _ ->
      let rule =
        match l.rel with
        | Constraints.Separation sep -> Printf.sprintf "separation %d" sep
        | Constraints.Mergeable -> "merge"
        | Constraints.Unconstrained -> "unconstrained"
      in
      (* The mover's leading edge meets the target's facing edge; a
         mergeable pair binds trailing edge against trailing edge. *)
      let mover_edge, target_edge =
        match l.rel with
        | Constraints.Mergeable -> (Dir.opposite d, Dir.opposite d)
        | _ -> (d, Dir.opposite d)
      in
      let side owner (s : Shape.t) facing =
        let var =
          match Lobj.find owner s.Shape.id with
          | Some cur -> Edge.is_variable cur.Shape.sides facing
          | None -> Edge.is_variable s.Shape.sides facing
        in
        Printf.sprintf "%s#%d %s%s" s.Shape.layer s.Shape.id
          (Dir.to_string facing)
          (if var then " (variable)" else "")
      in
      base "pair"
      @ [
          ("rule", rule);
          ("mover", side obj l.mover mover_edge);
          ("target", side main l.target target_edge);
        ]

(* The paper's compact(obj, DIR, layers): place the mover against [main]
   moving in its direction; the caller then absorbs it into [main]. *)
let place rules ~main ?ignore_layers ?classes ?shared ~align ~variable_edges mv =
  let d = mv.dir in
  stage ~align ~grid:(Rules.grid rules) d ~main mv;
  (* The relaxation hands back the pass of its final (quiescent) round,
     so neither the placement delta nor auto-connection scans again. *)
  let pass =
    if variable_edges then relax_variable_edges rules ?ignore_layers ?classes ?shared ~main mv
    else
      scan_at rules ?ignore_layers ?classes ?shared ~main ~dx:mv.dx ~dy:mv.dy
        (mover_digest mv)
  in
  let dl =
    match pass.tightest with
    | Some bound -> bound
    | None -> bbox_abut_delta d ~main ~dx:mv.dx ~dy:mv.dy mv.obj
  in
  if Obs.enabled () then begin
    Obs.count "compact.placements" 1;
    Obs.count "compact.binding_limits" (List.length pass.tied);
    Obs.mark "compact.place" (place_mark ~main ~obj:mv.obj ~d ~dl ~binding:pass.tied)
  end;
  Log.debug (fun m ->
      m "compact %s into %s %s: delta=%d" (Lobj.name mv.obj) (Lobj.name main)
        (Dir.to_string d) dl);
  travel d mv dl;
  (* Auto-connection re-reads the mover at its travelled position. *)
  match pass.connect with
  | [] -> ()
  | _ ->
      auto_connect rules ?ignore_layers d ~main ~pass
        (own ~why:"compact.mover_copies_connect" mv)

(* Exceptions the permissive fallback may absorb; resource exhaustion and
   assertion failures always escape. *)
let recoverable = function
  | Stack_overflow | Out_of_memory | Assert_failure _ -> false
  | _ -> true

let skip_diag ~obj ~main ~d exn =
  Amg_robust.Diag.v Amg_robust.Diag.Compact ~code:"compact.placement-skipped"
    ~payload:
      [
        ("obj", Lobj.name obj);
        ("into", Lobj.name main);
        ("dir", Dir.to_string d);
        ("error", Printexc.to_string exn);
      ]
    ~hint:
      "placement failed in both directions under --permissive; the object \
       was left out of the layout — check connectivity and rerun with \
       --strict to see the original failure"
    (Fmt.str "skipped placement of %s into %s (%s, then %s): %s"
       (Lobj.name obj) (Lobj.name main) (Dir.to_string d)
       (Dir.to_string (Dir.opposite d))
       (Printexc.to_string exn))

(* The one placement pipeline behind both entries.  [owned]: [obj] is the
   caller's to mutate, and is left at its final position; otherwise it is
   only read.  [digest], when given, is [obj]'s along [d]: the placement
   reads it instead of building its own. *)
let run ~owned ~rules ~into:main ?ignore_layers ?(align = (`Keep : align))
    ?(variable_edges = true) ?classes ?shared ?digest obj d =
  Obs.span "compact" @@ fun () ->
  match Lobj.bbox main with
  | None ->
      Obs.markf "compact.place" (fun () ->
          [
            ("obj", Lobj.name obj);
            ("into", Lobj.name main);
            ("dir", Dir.to_string d);
            ("delta", "0");
            ("bound_by", "first-object");
          ]);
      ignore (Lobj.absorb main obj)
  | Some _ ->
      let attempt obj d =
        let digest =
          match digest with
          | Some (g : digest) when g.obj == obj && Dir.equal g.dir d -> Some g
          | _ -> None
        in
        let mv = { obj; dir = d; owned; dx = 0; dy = 0; digest } in
        place rules ~main ?ignore_layers ?classes ?shared ~align ~variable_edges mv;
        mv
      in
      let absorb mv =
        if owned then ignore (settle mv);
        ignore (Lobj.absorb ~dx:mv.dx ~dy:mv.dy main mv.obj)
      in
      if not (Amg_robust.Policy.permissive ()) then absorb (attempt obj d)
      else begin
        (* Per-placement degradation: retry the opposite direction from
           the object as it was (the first attempt may have moved or
           shrunk an owned mover), then skip the object and report, so one
           bad placement cannot sink the whole run.  A read-only mover is
           never mutated, so only an owned one needs a pristine copy, taken
           up front and only in permissive mode. *)
        let pristine = if owned then Lobj.copy obj else obj in
        match attempt obj d with
        | mv -> absorb mv
        | exception e when recoverable e -> (
            let d' = Dir.opposite d in
            match attempt pristine d' with
            | mv ->
                Amg_robust.Policy.report
                  (Amg_robust.Diag.v ~severity:Amg_robust.Diag.Warning
                     Amg_robust.Diag.Compact ~code:"compact.direction-fallback"
                     ~payload:
                       [
                         ("obj", Lobj.name pristine);
                         ("into", Lobj.name main);
                         ("dir", Dir.to_string d);
                         ("fallback_dir", Dir.to_string d');
                         ("error", Printexc.to_string e);
                       ]
                     (Fmt.str "placed %s into %s along %s after %s failed"
                        (Lobj.name pristine) (Lobj.name main) (Dir.to_string d')
                        (Dir.to_string d)));
                absorb mv
            | exception e2 when recoverable e2 ->
                Amg_robust.Policy.report (skip_diag ~obj:pristine ~main ~d e2))
      end

let compact ~rules ~into ?ignore_layers ?align ?variable_edges obj d =
  run ~owned:true ~rules ~into ?ignore_layers ?align ?variable_edges obj d

let compact_readonly ~rules ~into ?ignore_layers ?align ?variable_edges ?classes ?shared
    (g : digest) =
  run ~owned:false ~rules ~into ?ignore_layers ?align ?variable_edges ?classes ?shared
    ~digest:g g.obj g.dir

(* Render every recorded [compact.place] mark as the "successive
   abutment" audit table of `amgen build --explain`. *)
let pp_explain ppf () =
  let places =
    List.filter (fun (n, _) -> String.equal n "compact.place") (Obs.marks ())
  in
  if places = [] then
    Fmt.pf ppf "no placements recorded (was instrumentation enabled?)@."
  else begin
    let get k args = Option.value ~default:"" (List.assoc_opt k args) in
    Fmt.pf ppf "@.placements (binding constraint per compacted object)@.";
    Fmt.pf ppf "  %3s %-22s %-5s %8s  %s@." "#" "obj -> into" "dir" "delta"
      "bound by";
    List.iteri
      (fun i (_, args) ->
        let bound =
          match get "bound_by" args with
          | "pair" ->
              Printf.sprintf "%s: mover %s vs target %s" (get "rule" args)
                (get "mover" args) (get "target" args)
          | other -> other
        in
        Fmt.pf ppf "  %3d %-22s %-5s %8s  %s@." i
          (get "obj" args ^ " -> " ^ get "into" args)
          (get "dir" args) (get "delta" args) bound)
      places
  end
