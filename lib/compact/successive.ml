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

(* Cross-axis pre-alignment of the moving object relative to the target's
   bounding box. *)
let apply_align ~align ~(d : Dir.t) ~main obj =
  match (align, Lobj.bbox main, Lobj.bbox obj) with
  | `Keep, _, _ | _, None, _ | _, _, None -> ()
  | (`Center | `Min | `Max), Some mb, Some ob ->
      let cross = Dir.cross_axis d in
      let mi = Rect.span cross mb and oi = Rect.span cross ob in
      let shift =
        match align with
        | `Center ->
            ((mi.Interval.lo + mi.Interval.hi) - (oi.Interval.lo + oi.Interval.hi)) / 2
        | `Min -> mi.Interval.lo - oi.Interval.lo
        | `Max -> mi.Interval.hi - oi.Interval.hi
        | `Keep -> 0
      in
      (match cross with
      | Dir.Horizontal -> Lobj.translate obj ~dx:shift ~dy:0
      | Dir.Vertical -> Lobj.translate obj ~dx:0 ~dy:shift)

(* A movement-axis slab: the mover's rectangle stretched along the axis to
   cover the main structure's whole extent.  Along the movement axis any
   distance still constrains the travel, so only the cross-axis shadow can
   cull; the slab makes the index query unbounded (within main) on the
   axis and tight on the cross axis. *)
let slab ~axis (a : Shape.t) (mb : Rect.t) =
  let sa = Rect.span axis a.Shape.rect and sm = Rect.span axis mb in
  let h = Interval.hull sa sm in
  match axis with
  | Dir.Horizontal ->
      Rect.make ~x0:h.Interval.lo ~x1:h.Interval.hi ~y0:a.rect.Rect.y0
        ~y1:a.rect.Rect.y1
  | Dir.Vertical ->
      Rect.make ~x0:a.rect.Rect.x0 ~x1:a.rect.Rect.x1 ~y0:h.Interval.lo
        ~y1:h.Interval.hi

(* Can a (mover shape, main layer) pair constrain anything?  Shapes on
   different layers without a spacing rule may overlap freely unless one
   of them is keep-clear, so such a layer pair is skipped outright — no
   index query — when neither the mover shape nor any shape of the layer
   is keep-clear. *)
let may_constrain (cls : Constraints.pair_class) (a : Shape.t) owner layer =
  cls.same_layer || cls.space <> None || a.Shape.keep_clear
  || Lobj.keep_clear_on owner layer > 0

(* Strict cross-axis overlap of two rectangles moving along [axis]. *)
let cross_overlap ~axis (ra : Rect.t) (rb : Rect.t) =
  match axis with
  | Dir.Horizontal -> ra.Rect.y0 < rb.Rect.y1 && rb.Rect.y0 < ra.Rect.y1
  | Dir.Vertical -> ra.Rect.x0 < rb.Rect.x1 && rb.Rect.x0 < ra.Rect.x1

type pass = {
  tightest : int option;
  tied : limit list;
  runner_up : int option;
  connect : (int * int) list;
}

let no_pass = { tightest = None; tied = []; runner_up = None; connect = [] }

let make_limit bound mover target code =
  { bound; mover; target; rel = Constraints.relation_of_code code }

(* The candidate pass: one visit of every (mover shape, target) pair that
   can constrain the move, keeping only what a placement uses — the
   tightest bound, the limits tied at it, the runner-up bound for the
   variable-edge relaxation, and the same-layer same-net pairs
   auto-connection will examine.  Candidates come from the per-layer
   index, restricted to each mover shape's movement slab inflated by the
   layer pair's spacing rule, in no particular order; only the tied
   limits are sorted, back into the (mover id, target id) order of the
   all-pairs scan, which keeps every tie-break unchanged.  A bound
   produces a limit record only while it is tied at the tightest value
   seen so far. *)
let scan rules ?ignore_layers d ~main obj =
  match Lobj.bbox main with
  | None -> no_pass
  | Some mb ->
      let axis = Dir.axis d in
      let sign = Dir.sign d in
      let tighter x y = if sign < 0 then x > y else x < y in
      let layers = Lobj.layers main in
      let obs = Obs.enabled () in
      (* The tightest bound and the runner-up, each valid once its flag is
         set; unboxed so that offering a bound allocates nothing unless it
         ties the tightest. *)
      let has_best = ref false and best = ref 0 and tied = ref [] in
      let has_second = ref false and second = ref 0 in
      let offer bound a b code =
        if !has_best && bound = !best then
          tied := make_limit bound a b code :: !tied
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
      let connect = ref [] in
      List.iter
        (fun (a : Shape.t) ->
          let window = slab ~axis a mb in
          let partners = ref [] and own_layer_seen = ref false in
          List.iter
            (fun layer ->
              (* One rule-table consultation per (mover, layer); the inner
                 loop then runs without spacing lookups. *)
              let cls = Constraints.classify rules ?ignore_layers a.Shape.layer layer in
              if may_constrain cls a main layer then begin
                let margin = Constraints.margin_cls cls in
                (* [Lobj.layers] repeats a layer after [Lobj.transform];
                   auto-connection examines each partner once. *)
                let connecting = cls.same_layer && not !own_layer_seen in
                if cls.same_layer then own_layer_seen := true;
                let considered = ref 0 in
                Lobj.iter_near main ~layer window ~margin (fun (b : Shape.t) ->
                    incr considered;
                    let code = Constraints.code_cls cls a b in
                    let bound = Constraints.bound_code d code a b in
                    if bound <> Constraints.no_bound then begin
                      if obs then begin
                        Obs.count "compact.limits" 1;
                        if Constraints.is_mergeable code then
                          Obs.count "compact.merge_limits" 1
                      end;
                      offer bound a b code
                    end;
                    if
                      connecting && Shape.same_net a b
                      && cross_overlap ~axis a.rect b.rect
                    then partners := b.Shape.id :: !partners);
                if obs then Obs.count "compact.pairs_considered" !considered
              end)
            layers;
          List.iter
            (fun id -> connect := (a.Shape.id, id) :: !connect)
            (List.sort Int.compare !partners))
        (Lobj.shapes obj);
      {
        tightest = (if !has_best then Some !best else None);
        tied =
          List.sort
            (fun l1 l2 ->
              let c = Int.compare l1.mover.Shape.id l2.mover.Shape.id in
              if c <> 0 then c
              else Int.compare l1.target.Shape.id l2.target.Shape.id)
            !tied;
        runner_up = (if !has_second then Some !second else None);
        connect = List.rev !connect;
      }

(* Minimum extent a shape may be shrunk to along [axis]: its layer's minimum
   width, raised to the one-cut minimum when it is a container of a
   registered cut array. *)
let min_extent rules owner (s : Shape.t) =
  let cut_layers = Lobj.array_cut_layers_of_container owner s.id in
  List.fold_left
    (fun acc cut_layer ->
      max acc (Derive.min_container_extent rules ~container_layer:s.layer ~cut_layer))
    (Rules.width rules s.layer) cut_layers

(* Shrink the [facing] edge of shape [s] (owned by [owner]) inward by
   [amount], clamped to the minimum extent; rebuilds derived arrays.
   A shrink that would slide the shape away from its array's other
   containers (leaving the array without a single cut, i.e. disconnecting
   the structure) is rolled back.  Returns how much was actually shrunk. *)
let shrink_edge rules owner (s : Shape.t) facing amount =
  let axis = Dir.axis facing in
  let extent = Interval.length (Rect.span axis s.rect) in
  let slack = extent - min_extent rules owner s in
  let step = min amount slack in
  if step <= 0 then 0
  else begin
    let r = Rect.grow_side s.rect facing (-step) in
    Lobj.replace owner (Shape.with_rect s r);
    Lobj.rederive owner rules;
    let arrays = Lobj.arrays_of_container owner s.Shape.id in
    if List.exists (fun a -> Lobj.array_member_count owner a = 0) arrays then begin
      Lobj.replace owner s;
      Lobj.rederive owner rules;
      0
    end
    else begin
      Obs.count "compact.var_edge_shrinks" 1;
      step
    end
  end

(* One round of the variable-edge optimization of §2.3: while the binding
   constraint pair has a variable facing edge, move that edge inward until
   the pair "is no longer relevant", i.e. until another (eventually fixed)
   constraint defines the minimum distance.  Returns the pass of the final
   round — the geometry has not changed since (the round made no
   progress), so the caller can reuse it instead of scanning again. *)
let relax_variable_edges rules ?ignore_layers d ~main obj =
  let max_rounds = 64 in
  let rounds = ref 0 in
  let rec loop round =
    rounds := round;
    let pass = scan rules ?ignore_layers d ~main obj in
    if round >= max_rounds then pass
    else
      match pass.tightest with
      | None -> pass
      | Some best ->
          let binding =
            List.filter
              (fun l ->
                match l.rel with Constraints.Separation _ -> true | _ -> false)
              pass.tied
          in
          (* How much slack until the next constraint binds; unlimited when
             this pair is the only constraint. *)
          let want =
            match pass.runner_up with
            | Some s -> abs (best - s)
            | None -> max_int / 2
          in
          let progressed = ref false in
          List.iter
            (fun l ->
              if not !progressed then begin
                (* The target's facing edge looks back at the mover
                   (opposite d); the mover's facing edge looks ahead (d). *)
                let try_side role =
                  let owner, shape, facing =
                    match role with
                    | Target -> (main, l.target, Dir.opposite d)
                    | Mover -> (obj, l.mover, d)
                  in
                  (* Re-fetch: a previous shrink may have replaced it. *)
                  match Lobj.find owner shape.Shape.id with
                  | Some s when Edge.is_variable s.Shape.sides facing ->
                      shrink_edge rules owner s facing want > 0
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

(* Fallback when no pair constrains the move: abut bounding boxes. *)
let bbox_abut_delta d ~main obj =
  match (Lobj.bbox main, Lobj.bbox obj) with
  | Some mb, Some ob ->
      let axis = Dir.axis d in
      let mi = Rect.span axis mb and oi = Rect.span axis ob in
      if Dir.sign d < 0 then mi.Interval.hi - oi.Interval.lo
      else mi.Interval.lo - oi.Interval.hi
  | _ -> 0

let translate_along d obj delta =
  match Dir.axis d with
  | Dir.Horizontal -> Lobj.translate obj ~dx:delta ~dy:0
  | Dir.Vertical -> Lobj.translate obj ~dx:0 ~dy:delta

(* Would growing shape [s] of [owner] to [r'] violate a separation against
   any other shape of [main] or [obj]?  Shapes beyond the pair's spacing
   rule on either axis cannot be violated, so only index candidates around
   [r'] are examined, and only on layers that can constrain [s]. *)
let extension_safe rules ?ignore_layers ~main ~obj (s : Shape.t) r' =
  let ok cls (other : Shape.t) =
    other == s
    ||
    match Constraints.relation_cls cls s other with
    | Constraints.Unconstrained | Constraints.Mergeable -> true
    | Constraints.Separation sep ->
        let dx = Rect.gap Dir.Horizontal r' other.Shape.rect in
        let dy = Rect.gap Dir.Vertical r' other.Shape.rect in
        max dx dy >= sep
  in
  let clear owner =
    List.for_all
      (fun layer ->
        let cls = Constraints.classify rules ?ignore_layers s.Shape.layer layer in
        (not (may_constrain cls s owner layer))
        ||
        let margin = Constraints.margin_cls cls in
        List.for_all (ok cls) (Lobj.near owner ~layer r' ~margin))
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
  List.iter
    (fun (a_id, b_id) ->
      match (Lobj.find obj a_id, Lobj.find main b_id) with
      | Some a, Some b when stretchable b ->
          let sa = Rect.span axis a.rect and sb = Rect.span axis b.rect in
          let gap = max (sa.Interval.lo - sb.Interval.hi) (sb.Interval.lo - sa.Interval.hi) in
          if gap > 0 then begin
            (* Extend b toward a. *)
            let facing =
              if sb.Interval.hi <= sa.Interval.lo then
                (* b is on the low side: grow its high edge *)
                match axis with Dir.Horizontal -> Dir.East | Vertical -> Dir.North
              else match axis with Dir.Horizontal -> Dir.West | Vertical -> Dir.South
            in
            let r' = Rect.grow_side b.Shape.rect facing gap in
            if extension_safe rules ?ignore_layers ~main ~obj b r' then begin
              Obs.count "compact.same_potential_merges" 1;
              Lobj.replace main (Shape.with_rect b r')
            end
          end
      | _ -> ())
    pass.connect

let delta rules ?ignore_layers d ~main obj =
  match (scan rules ?ignore_layers d ~main obj).tightest with
  | Some bound -> bound
  | None -> bbox_abut_delta d ~main obj

(* Start the mover outside the main structure, beyond its far edge in the
   opposite direction, so that it genuinely "approaches" — otherwise a
   mover generated at the origin may begin inside the structure and
   position-dependent relations (containment) misfire. *)
let stage_outside ~grid d ~main obj =
  match (Lobj.bbox main, Lobj.bbox obj) with
  | Some mb, Some ob ->
      let axis = Dir.axis d in
      let mi = Rect.span axis mb and oi = Rect.span axis ob in
      let shift =
        if Dir.sign d < 0 then
          (* moving low-ward: start above/right of main *)
          max 0 (mi.Interval.hi + grid - oi.Interval.lo)
        else min 0 (mi.Interval.lo - grid - oi.Interval.hi)
      in
      if shift <> 0 then translate_along d obj shift
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

(* The paper's compact(obj, DIR, layers): place [obj] against [main] moving
   in direction [d], then absorb it into [main].  [main] empty means the
   first compaction command simply copies the object in (§2.5). *)
let place rules ~main ?ignore_layers ~align ~variable_edges obj d =
  apply_align ~align ~d ~main obj;
  stage_outside ~grid:(Rules.grid rules) d ~main obj;
  (* The relaxation hands back the pass of its final (quiescent) round,
     so neither the placement delta nor auto-connection scans again. *)
  let pass =
    if variable_edges then relax_variable_edges rules ?ignore_layers d ~main obj
    else scan rules ?ignore_layers d ~main obj
  in
  let dl =
    match pass.tightest with
    | Some bound -> bound
    | None -> bbox_abut_delta d ~main obj
  in
  if Obs.enabled () then begin
    Obs.count "compact.placements" 1;
    Obs.count "compact.binding_limits" (List.length pass.tied);
    Obs.mark "compact.place" (place_mark ~main ~obj ~d ~dl ~binding:pass.tied)
  end;
  Log.debug (fun m ->
      m "compact %s into %s %s: delta=%d" (Lobj.name obj) (Lobj.name main)
        (Dir.to_string d) dl);
  translate_along d obj dl;
  auto_connect rules ?ignore_layers d ~main ~pass obj

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

let compact ~rules ~into:main ?ignore_layers ?(align = (`Keep : align))
    ?(variable_edges = true) obj d =
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
      if not (Amg_robust.Policy.permissive ()) then begin
        place rules ~main ?ignore_layers ~align ~variable_edges obj d;
        ignore (Lobj.absorb main obj)
      end
      else begin
        (* Per-placement degradation: retry the opposite direction on a
           fresh copy (the first attempt may have moved [obj]), then skip
           the object and report, so one bad placement cannot sink the whole
           run.  The pristine copy is taken up front — only in permissive
           mode, so the strict path stays allocation-identical. *)
        let pristine = Lobj.copy obj in
        match place rules ~main ?ignore_layers ~align ~variable_edges obj d with
        | () -> ignore (Lobj.absorb main obj)
        | exception e when recoverable e -> (
            let retry = Lobj.copy pristine in
            let d' = Dir.opposite d in
            match
              place rules ~main ?ignore_layers ~align ~variable_edges retry d'
            with
            | () ->
                Amg_robust.Policy.report
                  (Amg_robust.Diag.v ~severity:Amg_robust.Diag.Warning
                     Amg_robust.Diag.Compact ~code:"compact.direction-fallback"
                     ~payload:
                       [
                         ("obj", Lobj.name retry);
                         ("into", Lobj.name main);
                         ("dir", Dir.to_string d);
                         ("fallback_dir", Dir.to_string d');
                         ("error", Printexc.to_string e);
                       ]
                     (Fmt.str "placed %s into %s along %s after %s failed"
                        (Lobj.name retry) (Lobj.name main) (Dir.to_string d')
                        (Dir.to_string d)));
                ignore (Lobj.absorb main retry)
            | exception e2 when recoverable e2 ->
                Amg_robust.Policy.report (skip_diag ~obj:retry ~main ~d e2))
      end

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
