(* Coordinate-level baseline generators, in the style the paper compares
   against (ref. [11]: every rectangle written with its exact coordinates,
   every design-rule value fetched and applied by hand).

   "Former methods for equivalent generation by describing each rectangle
   with its exact coordinates needed a multiple of this source code and
   were much more difficult to construct and to maintain."  These
   implementations are the honest comparison point for the CLAIM-CODE
   benchmark: same resulting structure, hand-computed placement.

   BEGIN baseline_contact_row *)

module Rect = Amg_geometry.Rect
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env

let contact_row env ?(name = "contact_row_baseline") ~layer ?w ?l ?net () =
  let rules = Env.rules env in
  let cut = Rules.cut_size rules "contact" in
  let cut_space = Rules.cut_space rules "contact" in
  let encl_land = Rules.enclosure_or_zero rules ~outer:layer ~inner:"contact" in
  let encl_metal = Rules.enclosure_or_zero rules ~outer:"metal1" ~inner:"contact" in
  let metal_min = Rules.width rules "metal1" in
  let land_min = Rules.width rules layer in
  (* Landing size: the caller's size, raised so one contact always fits in
     both the landing layer and the metal. *)
  let need_land = cut + (2 * encl_land) in
  let need_via_metal = cut + (2 * encl_metal) in
  let h0 = Int.max (Option.value ~default:land_min w) land_min in
  let h = Int.max h0 (Int.max need_land need_via_metal) in
  let l0 = Int.max (Option.value ~default:land_min l) land_min in
  let len = Int.max l0 (Int.max need_land need_via_metal) in
  let obj = Lobj.create name in
  (* Landing rectangle at the origin. *)
  let _ =
    Lobj.add_shape obj ~layer ~rect:(Rect.make ~x0:0 ~y0:0 ~x1:len ~y1:h) ?net ()
  in
  (* Metal inside it: the tighter of the two enclosure constraints decides
     the inset on each side. *)
  let inset = Int.max 0 (encl_land - encl_metal) in
  let mx0 = inset and my0 = inset in
  let mx1 = len - inset and my1 = h - inset in
  let mx1 = if mx1 - mx0 < metal_min then mx0 + metal_min else mx1 in
  let my1 = if my1 - my0 < metal_min then my0 + metal_min else my1 in
  let _ =
    Lobj.add_shape obj ~layer:"metal1"
      ~rect:(Rect.make ~x0:mx0 ~y0:my0 ~x1:mx1 ~y1:my1)
      ?net ()
  in
  (* Contact array: window is the landing shrunk by its enclosure,
     intersected with the metal shrunk by its enclosure. *)
  let wx0 = Int.max encl_land (mx0 + encl_metal) in
  let wy0 = Int.max encl_land (my0 + encl_metal) in
  let wx1 = Int.min (len - encl_land) (mx1 - encl_metal) in
  let wy1 = Int.min (h - encl_land) (my1 - encl_metal) in
  let fit extent = if extent < cut then 0 else 1 + ((extent - cut) / (cut + cut_space)) in
  let nx = fit (wx1 - wx0) and ny = fit (wy1 - wy0) in
  let place lo hi n =
    let extent = hi - lo in
    let total_gap = extent - (n * cut) in
    let equal_gap = total_gap / (n + 1) in
    if equal_gap >= cut_space || n = 1 then
      let rem = total_gap mod (n + 1) in
      List.init n (fun i ->
          let extra = Int.min i rem in
          lo + ((i + 1) * equal_gap) + extra + (i * cut))
    else
      let margin = (total_gap - ((n - 1) * cut_space)) / 2 in
      List.init n (fun i -> lo + margin + (i * (cut + cut_space)))
  in
  List.iter
    (fun y ->
      List.iter
        (fun x ->
          ignore
            (Lobj.add_shape obj ~layer:"contact"
               ~rect:(Rect.make ~x0:x ~y0:y ~x1:(x + cut) ~y1:(y + cut))
               ?net ()))
        (place wx0 wx1 nx))
    (place wy0 wy1 ny);
  obj

(* END baseline_contact_row *)

(* BEGIN baseline_diff_pair *)

(* The Fig. 6 differential pair with every coordinate computed by hand:
   three vertical diffusion contact rows, two vertical gates between them,
   two poly contact rows on top. *)
let diff_pair env ?(name = "diff_pair_baseline") ~w ~l () =
  let rules = Env.rules env in
  let diff = "pdiff" in
  let cut = Rules.cut_size rules "contact" in
  let cut_space = Rules.cut_space rules "contact" in
  let encl_diff = Rules.enclosure_or_zero rules ~outer:diff ~inner:"contact" in
  let encl_poly = Rules.enclosure_or_zero rules ~outer:"poly" ~inner:"contact" in
  let encl_metal = Rules.enclosure_or_zero rules ~outer:"metal1" ~inner:"contact" in
  let endcap =
    Option.value ~default:0 (Rules.extension rules ~of_:"poly" ~past:diff)
  in
  let sd_ext =
    Option.value ~default:0 (Rules.extension rules ~of_:diff ~past:"poly")
  in
  let poly_diff_space =
    Option.value ~default:0 (Rules.space rules "poly" diff)
  in
  let obj = Lobj.create name in
  (* Horizontal pitch: a diffusion row is as wide as one contact plus its
     enclosures; the gate sits one contact-to-gate distance away, which is
     the poly-to-diffusion spacing plus the diffusion row overhang. *)
  let row_w = cut + (2 * encl_diff) in
  let gate_gap = encl_diff + poly_diff_space in
  let pitch = row_w + gate_gap + l + gate_gap in
  let rows_x = [ 0; pitch; 2 * pitch ] in
  let row_nets = [ "d1"; "s"; "d2" ] in
  (* Diffusion rows with their metal and contacts. *)
  List.iter2
    (fun x net ->
      let _ =
        Lobj.add_shape obj ~layer:diff
          ~rect:(Rect.make ~x0:x ~y0:0 ~x1:(x + row_w) ~y1:w)
          ~net ()
      in
      let _ =
        Lobj.add_shape obj ~layer:"metal1"
          ~rect:
            (Rect.make
               ~x0:(x + encl_diff - encl_metal)
               ~y0:(encl_diff - encl_metal)
               ~x1:(x + row_w - encl_diff + encl_metal)
               ~y1:(w - encl_diff + encl_metal))
          ~net ()
      in
      let n_cuts =
        let extent = w - (2 * encl_diff) in
        if extent < cut then 0 else 1 + ((extent - cut) / (cut + cut_space))
      in
      let extent = w - (2 * encl_diff) in
      let total_gap = extent - (n_cuts * cut) in
      let equal_gap = total_gap / (n_cuts + 1) in
      for i = 0 to n_cuts - 1 do
        let gap = Int.max equal_gap cut_space in
        let margin =
          if equal_gap >= cut_space then equal_gap
          else (total_gap - ((n_cuts - 1) * cut_space)) / 2
        in
        let y = encl_diff + margin + (i * (cut + gap)) in
        ignore
          (Lobj.add_shape obj ~layer:"contact"
             ~rect:(Rect.make ~x0:(x + encl_diff) ~y0:y ~x1:(x + encl_diff + cut) ~y1:(y + cut))
             ~net ())
      done)
    rows_x row_nets;
  (* Gates between the rows, with the bridging diffusion. *)
  let gates_x = [ row_w + gate_gap; row_w + gate_gap + pitch ] in
  let gate_nets = [ "g1"; "g2" ] in
  List.iter2
    (fun x net ->
      let _ =
        Lobj.add_shape obj ~layer:"poly"
          ~rect:(Rect.make ~x0:x ~y0:(-endcap) ~x1:(x + l) ~y1:(w + endcap))
          ~net ()
      in
      ignore
        (Lobj.add_shape obj ~layer:diff
           ~rect:(Rect.make ~x0:(x - sd_ext) ~y0:0 ~x1:(x + l + sd_ext) ~y1:w)
           ())
    )
    gates_x gate_nets;
  (* Poly contact rows above the gates: landing poly sized to the gate
     length, connected by overlapping the gate end-cap. *)
  let pc_h = cut + (2 * encl_poly) in
  List.iter2
    (fun x net ->
      let y0 = w + poly_diff_space in
      let _ =
        Lobj.add_shape obj ~layer:"poly"
          ~rect:(Rect.make ~x0:x ~y0 ~x1:(x + l) ~y1:(y0 + pc_h))
          ~net ()
      in
      let _ =
        Lobj.add_shape obj ~layer:"metal1"
          ~rect:
            (Rect.make
               ~x0:(x + encl_poly - encl_metal)
               ~y0:(y0 + encl_poly - encl_metal)
               ~x1:(x + l - encl_poly + encl_metal)
               ~y1:(y0 + pc_h - encl_poly + encl_metal))
          ~net ()
      in
      let extent = l - (2 * encl_poly) in
      let n_cuts = if extent < cut then 0 else 1 + ((extent - cut) / (cut + cut_space)) in
      let total_gap = extent - (n_cuts * cut) in
      let equal_gap = total_gap / (n_cuts + 1) in
      for i = 0 to n_cuts - 1 do
        let gap = Int.max equal_gap cut_space in
        let margin =
          if equal_gap >= cut_space then equal_gap
          else (total_gap - ((n_cuts - 1) * cut_space)) / 2
        in
        let cx = x + encl_poly + margin + (i * (cut + gap)) in
        ignore
          (Lobj.add_shape obj ~layer:"contact"
             ~rect:(Rect.make ~x0:cx ~y0:(y0 + encl_poly) ~x1:(cx + cut) ~y1:(y0 + encl_poly + cut))
             ~net ())
      done;
      (* Bridge from the gate end-cap up to the contact-row poly, only when
         a gap remains (with a short end-cap the row overlaps the gate). *)
      if y0 > w + endcap then
        ignore
          (Lobj.add_shape obj ~layer:"poly"
             ~rect:(Rect.make ~x0:x ~y0:(w + endcap) ~x1:(x + l) ~y1:y0)
             ~net ()))
    gates_x gate_nets;
  obj

(* END baseline_diff_pair *)

(* Non-blank lines between each BEGIN/END marker pair above, for the
   CLAIM-CODE benchmark.  test_ablate.ml recounts the regions in this file
   and fails when a constant drifts. *)
let contact_row_loc = 69

let diff_pair_loc = 129

(* Non-blank lines of lib/modules/common_centroid.ml, module E's
   generator, which FIG10 sets against the paper's ~180 lines.
   test_ablate.ml recounts that file and fails when this drifts. *)
let common_centroid_loc = 308
