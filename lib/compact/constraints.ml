module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Interval = Amg_geometry.Interval
module Rules = Amg_tech.Rules
module Shape = Amg_layout.Shape

(* Relation between two shapes as seen by the compactor. *)
type relation =
  | Unconstrained          (* may overlap freely *)
  | Mergeable              (* same potential, same layer: may overlap but not
                              pass through each other *)
  | Separation of int      (* minimum L-inf distance *)
[@@deriving show { with_path = false }, eq]

(* The layer-level part of a pair's classification.  Computing it involves
   rule-table lookups (allocating tuple keys and hashing string pairs), so
   the compactor's scans hoist it out of their inner loops: one [classify]
   per (mover shape, candidate layer), reused across every candidate on
   that layer. *)
type pair_class = { same_layer : bool; ignored : bool; space : int option }

let classify rules ?(ignore_layers = []) la lb =
  {
    same_layer = String.equal la lb;
    ignored = List.mem la ignore_layers;
    space = Rules.space rules la lb;
  }

(* Classify a pair given its layers' [pair_class], as an int so the
   compactor's inner loop allocates nothing: [unconstrained] and
   [mergeable] are the two smallest ints, any other value is a separation
   distance (a deck may even carry a negative one).
   [ignore_layers] (folded into [cls.ignored]) is the compaction call's
   "layers which are not relevant during this compaction step" (§2.5):
   their same-layer spacing is waived because the geometries will be
   merged/connected.  Cross-layer rules always hold (they are what stops
   the mover). *)
type code = int

let unconstrained = min_int
let mergeable = min_int + 1

(* Written against the record fields directly: the compactor's inner loop
   calls this once per candidate pair. *)
let code_cls cls (a : Shape.t) (b : Shape.t) =
  let same_net =
    match (a.net, b.net) with
    | Some na, Some nb -> String.equal na nb
    | _ -> false
  in
  if cls.same_layer then
    if same_net || cls.ignored then mergeable
    else match cls.space with Some d -> d | None -> 0
  else
    let ra = a.rect and rb = b.rect in
    if
      (* One rectangle fully inside the other on a different layer is an
         intended enclosure (a cut inside its landing shape), not a
         spacing situation. *)
      (ra.x0 <= rb.x0 && ra.y0 <= rb.y0 && rb.x1 <= ra.x1 && rb.y1 <= ra.y1)
      || (rb.x0 <= ra.x0 && rb.y0 <= ra.y0 && ra.x1 <= rb.x1 && ra.y1 <= rb.y1)
    then unconstrained
    else
      (* Cross-layer spacing rules hold regardless of potential: a gate
         poly stripe must not touch even its own net's diffusion row. *)
      match cls.space with
      | Some d -> d
      | None ->
          (* No spacing rule: different layers may overlap (e.g. metal
             over poly) unless one of them asked to be kept clear of
             overlaps ("a special property ... can avoid undesired
             overlaps", §2.3) — the keep-clear does not apply between
             same-potential shapes, whose overlap is a connection. *)
          if (a.keep_clear || b.keep_clear) && not same_net then 0
          else unconstrained

let is_mergeable code = code = mergeable

let relation_of_code code =
  if code = unconstrained then Unconstrained
  else if code = mergeable then Mergeable
  else Separation code

let relation_cls cls a b = relation_of_code (code_cls cls a b)

let relation rules ?ignore_layers (a : Shape.t) (b : Shape.t) =
  relation_cls (classify rules ?ignore_layers a.Shape.layer b.Shape.layer) a b

(* Does the pair constrain movement along [axis]?  With the L-inf distance
   model, a separation [sep] matters only when the cross-axis projections,
   each inflated by [sep], overlap. *)
let shadows ~axis ~sep (ra : Rect.t) (rb : Rect.t) =
  let cross : Dir.axis = match axis with Dir.Horizontal -> Vertical | Vertical -> Horizontal in
  let ia = Rect.span cross ra and ib = Rect.span cross rb in
  Interval.overlaps (Interval.inflate ia sep) ib

(* Minimal translation (signed, along [Dir.axis d]) that the moving
   rectangle [a] must respect against stationary [b] under the pair's
   [code], or [no_bound] when the pair does not constrain this movement.
   The mover travels in direction [d]; the constraint keeps it from
   travelling too far.  Arithmetic on the rectangles' sides only, so
   nothing is allocated. *)
let no_bound = min_int

let bound_code (d : Dir.t) code (a : Shape.t) (b : Shape.t) =
  if code = unconstrained then no_bound
  else begin
    (* A mergeable pair acts at distance 0: the mover's trailing edge must
       not pass b's trailing edge, so full overlap is reachable but not
       pass-through.  A separated pair keeps [sep] between the mover's
       leading edge and b's facing edge.  Either way the pair binds only
       when the cross-axis spans, the mover's inflated by [sep], overlap
       (shadowing). *)
    let merge = code = mergeable in
    let sep = if merge then 0 else code in
    let ra = a.rect and rb = b.rect in
    let cross_x = ra.x0 - sep < rb.x1 && rb.x0 < ra.x1 + sep in
    let cross_y = ra.y0 - sep < rb.y1 && rb.y0 < ra.y1 + sep in
    match d with
    | South when cross_x -> if merge then rb.y1 - ra.y1 else rb.y1 + sep - ra.y0
    | North when cross_x -> if merge then rb.y0 - ra.y0 else rb.y0 - sep - ra.y1
    | West when cross_y -> if merge then rb.x1 - ra.x1 else rb.x1 + sep - ra.x0
    | East when cross_y -> if merge then rb.x0 - ra.x0 else rb.x0 - sep - ra.x1
    | South | North | West | East -> no_bound
  end

(* Candidate margin for spatial-index queries on a layer pair: [relation]
   only ever produces [Separation (space a b)], [Separation 0] (keep-clear)
   or [Mergeable] (acts at distance 0), so every pair either of the
   compactor's scans can constrain lies within the pair's spacing rule —
   shapes farther than this on both axes are provably Unconstrained or out
   of shadow and need not be examined. *)
let margin_cls cls = match cls.space with Some d -> d | None -> 0
