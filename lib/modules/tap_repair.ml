(* Automatic latch-up repair: insert substrate taps until the Fig. 1 cover
   check passes.

   The paper's flow relies on the module writers placing taps; this is the
   corrective extension — given a placed structure whose cover check
   fails, add minimum substrate taps near the uncovered active area.  For
   each residual rectangle the repair searches a ring of candidate
   positions around it (any tap within the latch-up distance covers it)
   and takes the first position where the tap causes no spacing violation
   against the existing geometry. *)

module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Env = Amg_core.Env
module Constraints = Amg_compact.Constraints

(* Would placing [tap] at its current position violate any pairwise rule
   against [main]?  Reuses the compactor's constraint classification so
   repair and compaction agree exactly. *)
let placement_legal rules main tap =
  List.for_all
    (fun (t : Shape.t) ->
      List.for_all
        (fun (m : Shape.t) ->
          match Constraints.relation rules m t with
          | Constraints.Separation d ->
              Rect.gap Dir.Horizontal m.Shape.rect t.Shape.rect >= d
              || Rect.gap Dir.Vertical m.Shape.rect t.Shape.rect >= d
          | Constraints.Mergeable | Constraints.Unconstrained -> true)
        (Lobj.shapes main))
    (Lobj.shapes tap)

(* Candidate tap centres around a residue: the residue centre first (it may
   be in open space), then rings of 8 positions at growing radius. *)
let candidates ~dist residue =
  let cx = Rect.center_x residue and cy = Rect.center_y residue in
  let ring r =
    [ (cx + r, cy); (cx - r, cy); (cx, cy + r); (cx, cy - r);
      (cx + r, cy + r); (cx - r, cy + r); (cx + r, cy - r); (cx - r, cy - r) ]
  in
  let step = Int.max (Units.of_um 5.) (dist / 8) in
  (cx, cy)
  :: List.concat_map (fun k -> ring (k * step)) [ 1; 2; 3; 4; 5; 6 ]

(* The tap covers the residue iff the inflated tap contains it. *)
let covers ~dist tap_rect residue =
  Rect.contains_rect (Rect.inflate tap_rect dist) residue

let repair env ?(net = "vss") ?(max_taps = 32) obj =
  let tech = Env.tech env in
  let rules = Env.rules env in
  let dist = Rules.latchup_dist rules in
  let added = ref 0 in
  let progress = ref true in
  while !progress && Amg_drc.Latchup.uncovered ~tech obj <> [] && !added < max_taps do
    progress := false;
    match Amg_drc.Latchup.uncovered ~tech obj with
    | [] -> ()
    | residue :: _ ->
        let placed =
          List.exists
            (fun (x, y) ->
              let tap = Contact_row.substrate_tap env ~name:"repair_tap" ~net () in
              let tb = Lobj.bbox_exn tap in
              Lobj.translate tap
                ~dx:(x - Rect.center_x tb)
                ~dy:(y - Rect.center_y tb);
              let tap_mark =
                match Lobj.bbox_on tap Amg_drc.Latchup.tap_layer with
                | Some r -> r
                | None -> Lobj.bbox_exn tap
              in
              if covers ~dist tap_mark residue && placement_legal rules obj tap
              then begin
                ignore (Lobj.absorb obj tap);
                incr added;
                true
              end
              else false)
            (candidates ~dist residue)
        in
        if placed then progress := true
  done;
  !added

let repair_is_clean env ?net ?max_taps obj =
  ignore (repair env ?net ?max_taps obj);
  Amg_drc.Latchup.uncovered ~tech:(Env.tech env) obj = []
