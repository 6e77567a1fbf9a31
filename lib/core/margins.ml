(* "The necessary overlap between all involved layers is considered
   automatically" (§2.2).

   The margin by which an outer-layer rectangle must extend past an
   inner-layer rectangle placed inside it is:
   - the explicit enclosure rule when one exists (e.g. metal1 over contact);
   - otherwise, derived through a shared cut layer: if both layers must
     enclose the same cut (poly and metal1 both enclose contact), the outer
     one needs enclosure(outer, cut) - enclosure(inner, cut) so that a cut
     legal in the inner rectangle is automatically legal in the outer one;
   - zero when the layers are unrelated (they may coincide). *)

module Rules = Amg_tech.Rules

(* Cut layers that [layer] must enclose, with margins. *)
let cuts_enclosed_by rules layer =
  let acc = ref [] in
  Rules.iter_enclosures rules (fun ~outer ~inner d ->
      if String.equal outer layer then acc := (inner, d) :: !acc);
  List.sort compare !acc

let inside rules ~outer ~inner =
  match Rules.enclosure rules ~outer ~inner with
  | Some d -> d
  | None ->
      (* Derive through a common cut. *)
      let outer_cuts = cuts_enclosed_by rules outer in
      let derived =
        List.filter_map
          (fun (cut, d_outer) ->
            match List.assoc_opt cut (cuts_enclosed_by rules inner) with
            | Some d_inner -> Some (d_outer - d_inner)
            | None -> None)
          outer_cuts
      in
      List.fold_left Int.max 0 derived
