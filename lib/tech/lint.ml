(* Technology-deck lint: structural consistency checks on a loaded deck.

   A rule table that references undeclared layers, leaves a cut without a
   size, or declares a landing pad thinner than the layer's own minimum
   width produces confusing downstream failures (primitives that refuse to
   expand, DRC noise, extraction opens).  Linting the deck once at load
   time converts those into direct messages naming the offending rule. *)

type severity = Error | Warning
type issue = { severity : severity; code : string; message : string }

let issue severity code fmt = Fmt.kstr (fun message -> { severity; code; message }) fmt

let errors issues = List.filter (fun i -> i.severity = Error) issues

let pp_issue ppf i =
  Fmt.pf ppf "%s %s: %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    i.code i.message

let pp ppf issues = Fmt.(list ~sep:(any "@,") pp_issue) ppf issues

(* --- individual passes ------------------------------------------------ *)

let check_rule_layers tech =
  let rules = Technology.rules tech in
  let out = ref [] in
  let known where layer =
    if not (Technology.mem_layer tech layer) then
      out :=
        issue Error "unknown-layer" "%s rule references undeclared layer %S"
          where layer
        :: !out
  in
  Rules.iter_widths rules (fun l _ -> known "width" l);
  Rules.iter_spaces rules (fun a b _ ->
      known "space" a;
      known "space" b);
  Rules.iter_enclosures rules (fun ~outer ~inner _ ->
      known "enclose" outer;
      known "enclose" inner);
  Rules.iter_extensions rules (fun ~of_ ~past _ ->
      known "extend" of_;
      known "extend" past);
  Rules.iter_cut_sizes rules (fun l _ -> known "cutsize" l);
  Rules.iter_cut_spaces rules (fun l _ -> known "cutspace" l);
  Rules.iter_min_areas rules (fun l _ -> known "minarea" l);
  List.rev !out

let check_positive tech =
  let rules = Technology.rules tech in
  let out = ref [] in
  let pos where v =
    if v <= 0 then
      out := issue Error "non-positive" "%s rule has value %d <= 0" where v :: !out
  in
  Rules.iter_widths rules (fun l v -> pos (Printf.sprintf "width %s" l) v);
  Rules.iter_spaces rules (fun a b v ->
      pos (Printf.sprintf "space %s %s" a b) v);
  Rules.iter_enclosures rules (fun ~outer ~inner v ->
      pos (Printf.sprintf "enclose %s %s" outer inner) v);
  Rules.iter_extensions rules (fun ~of_ ~past v ->
      pos (Printf.sprintf "extend %s %s" of_ past) v);
  Rules.iter_cut_sizes rules (fun l v -> pos (Printf.sprintf "cutsize %s" l) v);
  Rules.iter_cut_spaces rules (fun l v -> pos (Printf.sprintf "cutspace %s" l) v);
  Rules.iter_min_areas rules (fun l v -> pos (Printf.sprintf "minarea %s" l) v);
  List.rev !out

let check_grid tech =
  let rules = Technology.rules tech in
  let g = Rules.grid rules in
  let out = ref [] in
  let on_grid where v =
    if g > 0 && v mod g <> 0 then
      out :=
        issue Warning "off-grid" "%s = %d nm is not a multiple of the %d nm grid"
          where v g
        :: !out
  in
  Rules.iter_widths rules (fun l v -> on_grid (Printf.sprintf "width %s" l) v);
  Rules.iter_spaces rules (fun a b v ->
      on_grid (Printf.sprintf "space %s %s" a b) v);
  Rules.iter_enclosures rules (fun ~outer ~inner v ->
      on_grid (Printf.sprintf "enclose %s %s" outer inner) v);
  Rules.iter_cut_sizes rules (fun l v -> on_grid (Printf.sprintf "cutsize %s" l) v);
  List.rev !out

let check_cuts tech =
  let rules = Technology.rules tech in
  let out = ref [] in
  (* Every declared cut layer needs size, pitch and landing pads on at least
     one metal and one non-metal conducting layer — the structure the derive
     machinery, the DRC enclosure policy and extraction all assume. *)
  List.iter
    (fun (l : Layer.t) ->
      let name = l.Layer.name in
      (match Rules.cut_size_opt rules name with
      | None ->
          out :=
            issue Error "cut-without-size" "cut layer %s has no cutsize rule"
              name
            :: !out
      | Some _ -> ());
      let landings = Rules.enclosing_layers rules ~inner:name in
      let metal, non_metal =
        List.partition
          (fun (outer, _) ->
            match Technology.layer tech outer with
            | Some ol -> Layer.is_metal ol
            | None -> false)
          landings
      in
      if metal = [] then
        out :=
          issue Error "cut-no-metal-landing"
            "cut layer %s has no enclosure rule from any metal layer" name
          :: !out;
      if non_metal = [] && String.equal name "contact" then
        out :=
          issue Warning "cut-no-lower-landing"
            "cut layer %s lands on no non-metal layer (no enclose rule)" name
          :: !out)
    (Technology.cut_layers tech);
  (* cutsize rules must target cut-kind layers. *)
  Rules.iter_cut_sizes rules (fun lname _ ->
      match Technology.layer tech lname with
      | Some l when not (Layer.is_cut l) ->
          out :=
            issue Error "cutsize-on-non-cut"
              "cutsize rule on %s, which is not a cut layer" lname
            :: !out
      | _ -> ());
  List.rev !out

let check_landing_pads tech =
  (* A minimal landing pad (cut + 2 * enclosure) must satisfy the outer
     layer's own width rule, or every minimal pad the primitives emit is a
     width violation. *)
  let rules = Technology.rules tech in
  let out = ref [] in
  List.iter
    (fun (l : Layer.t) ->
      let cut = l.Layer.name in
      match Rules.cut_size_opt rules cut with
      | None -> ()
      | Some size ->
          List.iter
            (fun (outer, margin) ->
              match Rules.width_opt rules outer with
              | Some w when size + (2 * margin) < w ->
                  out :=
                    issue Error "pad-below-width"
                      "minimal %s pad on %s is %d nm but width %s = %d nm" cut
                      outer
                      (size + (2 * margin))
                      outer w
                    :: !out
              | _ -> ())
            (Rules.enclosing_layers rules ~inner:cut))
    (Technology.cut_layers tech);
  List.rev !out

let check_routing_layers tech =
  let rules = Technology.rules tech in
  let out = ref [] in
  List.iter
    (fun (l : Layer.t) ->
      let name = l.Layer.name in
      if Layer.is_routing l then begin
        if Rules.width_opt rules name = None then
          out :=
            issue Warning "no-width"
              "routing layer %s has no width rule (falls back to grid)" name
            :: !out;
        if Rules.space rules name name = None then
          out :=
            issue Warning "no-self-space"
              "routing layer %s has no same-layer spacing rule" name
            :: !out
      end)
    (Technology.layers tech);
  List.rev !out

let check_gds_numbers tech =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (l : Layer.t) ->
      let g = l.Layer.gds in
      match Hashtbl.find_opt seen g with
      | Some other ->
          Some
            (issue Error "duplicate-gds" "layers %s and %s share GDS number %d"
               other l.Layer.name g)
      | None ->
          Hashtbl.replace seen g l.Layer.name;
          None)
    (Technology.layers tech)

let check_min_areas tech =
  (* A minimum area at or below width^2 can never fire: any width-clean
     rectangle already satisfies it. *)
  let rules = Technology.rules tech in
  let out = ref [] in
  Rules.iter_min_areas rules (fun l a ->
      match Rules.width_opt rules l with
      | Some w when a < w * w ->
          out :=
            issue Warning "vacuous-minarea"
              "minarea %s = %.2f um2 is below width^2 = %.2f um2 and can \
               never fire"
              l
              (float_of_int a /. 1.0e6)
              (float_of_int (w * w) /. 1.0e6)
            :: !out
      | _ -> ());
  List.rev !out

let check_latchup tech =
  let rules = Technology.rules tech in
  if
    Rules.latchup_dist rules <= 0
    && List.exists (fun (l : Layer.t) -> Layer.is_active l) (Technology.layers tech)
  then
    [
      issue Warning "no-latchup"
        "deck has diffusion layers but no latchup distance; the Fig. 1 cover \
         check will be vacuous";
    ]
  else []

let check_conducting_cuts tech =
  List.filter_map
    (fun (l : Layer.t) ->
      if Layer.is_cut l && not l.Layer.conducting then
        Some
          (issue Error "non-conducting-cut"
             "cut layer %s is marked non-conducting; extraction would open \
              every via"
             l.Layer.name)
      else None)
    (Technology.layers tech)

let check tech =
  List.concat
    [
      check_rule_layers tech;
      check_positive tech;
      check_grid tech;
      check_cuts tech;
      check_landing_pads tech;
      check_min_areas tech;
      check_routing_layers tech;
      check_gds_numbers tech;
      check_latchup tech;
      check_conducting_cuts tech;
    ]

let is_clean tech = errors (check tech) = []

(* Bridge into the structured diagnostics layer: lint codes become
   ["tech.lint."]-prefixed Diag codes so 'amgen tech' can report deck
   problems through the same channel as every other failure. *)
let to_diags ?file issues =
  let module Diag = Amg_robust.Diag in
  List.map
    (fun i ->
      let severity =
        match i.severity with Error -> Diag.Error | Warning -> Diag.Warning
      in
      let payload = match file with None -> [] | Some f -> [ ("file", f) ] in
      Diag.v ~severity ~payload Diag.Tech ~code:("tech.lint." ^ i.code)
        i.message)
    issues
