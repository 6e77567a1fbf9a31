(* Baseline: classical one-dimensional constraint-graph ("edge graph")
   compaction, the general approach the paper contrasts with [17, 18].

   All shapes of a finished object are compacted simultaneously: every
   constrained pair contributes an arc, positions are solved by longest
   path.  Pairs that are currently electrically connected (same net, same
   layer, touching) are kept rigid so connectivity survives.  This is the
   comparison point for the paper's claim that successive compaction "speeds
   up the compaction time" by never creating the full edge graph. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Interval = Amg_geometry.Interval
module Rules = Amg_tech.Rules
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Constraints = Amg_compact.Constraints

type arc = { src : int; dst : int; weight : int }

type graph = { node_count : int; arcs : arc list }

let span_of axis (s : Shape.t) = Rect.span axis s.rect

(* Build the full constraint graph for compaction along [axis].  Node ids
   are indices into the shapes array; node positions are the lo coordinates
   of each shape's extent along the axis. *)
let build_graph rules axis shapes =
  let n = Array.length shapes in
  let arcs = ref [] in
  let add src dst weight = arcs := { src; dst; weight } :: !arcs in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = shapes.(i) and b = shapes.(j) in
        let ia = span_of axis a and ib = span_of axis b in
        (* Only emit each unordered pair once, oriented low -> high. *)
        let lower_first =
          ia.Interval.lo < ib.Interval.lo
          || (ia.Interval.lo = ib.Interval.lo && i < j)
        in
        if lower_first then
          match Constraints.relation rules a b with
          | Constraints.Separation sep
            when Constraints.shadows ~axis ~sep a.Shape.rect b.Shape.rect ->
              add i j (Interval.length ia + sep)
          | Constraints.Separation _ | Constraints.Unconstrained -> ()
          | Constraints.Mergeable ->
              if Rect.touches a.Shape.rect b.Shape.rect then begin
                (* Rigid: preserve the current offset in both directions. *)
                let d = ib.Interval.lo - ia.Interval.lo in
                add i j d;
                add j i (-d)
              end
      end
    done
  done;
  { node_count = n; arcs = !arcs }

(* Longest path from an implicit source (position 0 lower bound for every
   node).  Rigid opposite arcs may form zero-gain cycles, so we iterate to a
   fixpoint, Bellman-Ford style, and fail on positive cycles. *)
let solve g =
  let pos = Array.make g.node_count 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= g.node_count + 1 do
    changed := false;
    incr rounds;
    List.iter
      (fun { src; dst; weight } ->
        if pos.(src) + weight > pos.(dst) then begin
          pos.(dst) <- pos.(src) + weight;
          changed := true
        end)
      g.arcs
  done;
  if !changed then failwith "Edge_graph.solve: positive cycle in constraints";
  pos

(* Compact the whole object along one axis; mutates shape positions. *)
let compact_axis ~rules obj axis =
  let shapes = Array.of_list (Lobj.shapes obj) in
  let g = build_graph rules axis shapes in
  let pos = solve g in
  Array.iteri
    (fun i (s : Shape.t) ->
      let cur = (span_of axis s).Interval.lo in
      let d = pos.(i) - cur in
      if d <> 0 then
        let rect =
          match axis with
          | Dir.Horizontal -> Rect.translate s.rect ~dx:d ~dy:0
          | Dir.Vertical -> Rect.translate s.rect ~dx:0 ~dy:d
        in
        match Lobj.find obj s.Shape.id with
        | Some cur_s -> Lobj.replace obj (Shape.with_rect cur_s rect)
        | None -> ())
    shapes;
  List.length g.arcs

let compact_xy ~rules obj =
  let ax = compact_axis ~rules obj Dir.Horizontal in
  let ay = compact_axis ~rules obj Dir.Vertical in
  ax + ay
