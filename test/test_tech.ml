(* Technology deck, rule tables and the technology-file parser. *)

module Rules = Amg_tech.Rules
module Layer = Amg_tech.Layer
module Technology = Amg_tech.Technology
module Tech_file = Amg_tech.Tech_file
module Bicmos1u = Amg_tech.Bicmos1u

let um = Amg_geometry.Units.of_um

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_builtin_deck () =
  let t = Bicmos1u.get () in
  Alcotest.(check string) "name" "generic-bicmos-1u" (Technology.name t);
  check "layer count" 12 (List.length (Technology.layers t));
  check_bool "has poly" true (Technology.mem_layer t "poly");
  check_bool "no such layer" false (Technology.mem_layer t "metal7");
  let rules = Technology.rules t in
  check "poly width" (um 1.) (Rules.width rules "poly");
  check "latchup" (um 50.) (Rules.latchup_dist rules);
  check "contact size" (um 1.) (Rules.cut_size rules "contact");
  check_bool "minarea metal1" true
    (Rules.min_area rules "metal1" = Some 4_000_000);
  check_bool "no minarea for cuts" true (Rules.min_area rules "contact" = None);
  check_bool "active layers" true
    (List.map (fun (l : Layer.t) -> l.Layer.name) (Technology.active_layers t)
    = [ "pdiff"; "ndiff" ]);
  check_bool "cut layers" true
    (List.map (fun (l : Layer.t) -> l.Layer.name) (Technology.cut_layers t)
    = [ "contact"; "via" ])

let test_rule_lookups () =
  let rules = Technology.rules (Bicmos1u.get ()) in
  (* Spacing is symmetric. *)
  check_bool "space symmetric" true
    (Rules.space rules "pdiff" "ndiff" = Rules.space rules "ndiff" "pdiff");
  check_bool "no rule" true (Rules.space rules "metal1" "poly" = None);
  check "enclosure" (um 0.5) (Rules.enclosure_or_zero rules ~outer:"metal1" ~inner:"contact");
  check "no enclosure" 0 (Rules.enclosure_or_zero rules ~outer:"poly" ~inner:"via");
  check_bool "extension" true
    (Rules.extension rules ~of_:"poly" ~past:"pdiff" = Some (um 1.));
  check_bool "extension directed" true
    (Rules.extension rules ~of_:"pdiff" ~past:"poly" = Some (um 1.5));
  (* Enclosing layers of contact include both metal and landing layers. *)
  let outers = List.map fst (Rules.enclosing_layers rules ~inner:"contact") in
  check_bool "contact outers" true
    (List.mem "metal1" outers && List.mem "poly" outers && List.mem "pdiff" outers);
  Alcotest.check_raises "cut_size on non-cut"
    (Invalid_argument "Rules.cut_size: poly is not a cut layer") (fun () ->
      ignore (Rules.cut_size rules "poly"))

let test_roundtrip () =
  let t = Bicmos1u.get () in
  let s = Tech_file.to_string t in
  let t2 = Tech_file.parse_string s in
  Alcotest.(check string) "canonical form stable" s (Tech_file.to_string t2);
  Alcotest.(check string) "name survives" (Technology.name t) (Technology.name t2);
  check "rules survive" (Rules.width (Technology.rules t) "metal2")
    (Rules.width (Technology.rules t2) "metal2")

let expect_parse_error ~line src =
  match Tech_file.parse_string src with
  | exception Amg_robust.Diag.Fail d ->
      check "error line" line (Amg_robust.Diag.line_of d)
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error ~line:2 "grid 0.05\nwidth poly 1\n";
  (* first directive must be technology *)
  expect_parse_error ~line:2 "technology t\nnonsense foo\n";
  expect_parse_error ~line:3 "technology t\nlayer m metal1 gds=1\nwidth nosuch 1\n";
  expect_parse_error ~line:2 "technology t\nlayer m badkind gds=1\n";
  expect_parse_error ~line:2 "technology t\nwidth poly abc\n" |> fun () ->
  (* comments and blank lines are fine *)
  let t =
    Tech_file.parse_string
      "# header\ntechnology mini\n\nlayer poly poly gds=1 # trailing\nwidth poly 1.5\n"
  in
  check "parsed width" (um 1.5) (Rules.width (Technology.rules t) "poly")

let test_colors_and_flags () =
  (* Regression: '#' inside a colour value must not start a comment. *)
  let t = Bicmos1u.get () in
  let l name = Technology.layer_exn t name in
  Alcotest.(check string) "poly color" "#cc2222"
    (l "poly").Layer.fill.Amg_tech.Patterns.color;
  check_bool "resmark nonconducting" false (l "resmark").Layer.conducting;
  check_bool "subtap nonconducting" false (l "subtap").Layer.conducting;
  check_bool "metal conducting" true (l "metal1").Layer.conducting

let test_layer_predicates () =
  let t = Bicmos1u.get () in
  let l name = Technology.layer_exn t name in
  check_bool "cut" true (Layer.is_cut (l "via"));
  check_bool "active" true (Layer.is_active (l "ndiff"));
  check_bool "metal" true (Layer.is_metal (l "metal2"));
  check_bool "marker not routing" false (Layer.is_routing (l "subtap"));
  check_bool "poly routing" true (Layer.is_routing (l "poly"));
  check_bool "draw order" true
    (Technology.draw_index t "nwell" < Technology.draw_index t "metal2");
  Alcotest.check_raises "unknown layer"
    (Invalid_argument "Technology generic-bicmos-1u: unknown layer bogus")
    (fun () -> ignore (Technology.layer_exn t "bogus"))

let test_duplicate_layer () =
  let rules = Rules.create () in
  let t = Technology.create ~name:"x" ~rules () in
  let layer =
    Layer.make ~name:"m" ~kind:(Layer.Metal 1) ~gds:1
      ~fill:(Amg_tech.Patterns.make "#fff") ()
  in
  Technology.add_layer t layer;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Technology.add_layer: duplicate layer m") (fun () ->
      Technology.add_layer t layer)


(* --- deck lint --- *)

module Lint = Amg_tech.Lint

let codes issues = List.map (fun (i : Lint.issue) -> i.Lint.code) issues

let test_lint_builtin_clean () =
  check_bool "bicmos clean" true (Lint.check (Bicmos1u.get ()) = []);
  check_bool "cmos08 clean" true (Lint.check (Amg_tech.Cmos08.get ()) = [])

(* A deliberately broken deck hitting one finding per lint pass. *)
let broken_deck () =
  let rules = Rules.create ~grid:50 () in
  let t = Technology.create ~name:"broken" ~rules () in
  let fill = Amg_tech.Patterns.make "#000" in
  Technology.add_layer t
    (Layer.make ~name:"pdiff" ~kind:Layer.Diffusion ~gds:3 ~fill ());
  Technology.add_layer t
    (Layer.make ~name:"metal1" ~kind:(Layer.Metal 1) ~gds:30 ~fill ());
  (* duplicate GDS number with metal1 *)
  Technology.add_layer t
    (Layer.make ~name:"metal2" ~kind:(Layer.Metal 2) ~gds:30 ~fill ());
  (* non-conducting cut, and no cutsize rule for it *)
  Technology.add_layer t
    (Layer.make ~name:"via" ~kind:Layer.Cut ~gds:40 ~conducting:false ~fill ());
  (* rule on a layer that is not declared *)
  Rules.set_width rules "poly" (um 1.);
  (* off-grid value *)
  Rules.set_width rules "metal1" 1025;
  (* non-positive value *)
  Rules.set_space rules "metal1" "metal1" 0;
  t

let test_lint_broken_deck () =
  let issues = Lint.check (broken_deck ()) in
  let cs = codes issues in
  let has c = check_bool c true (List.mem c cs) in
  has "unknown-layer";
  has "off-grid";
  has "non-positive";
  has "cut-without-size";
  has "cut-no-metal-landing";
  has "duplicate-gds";
  has "no-latchup";
  has "non-conducting-cut";
  has "no-width";          (* metal2 has no width rule *)
  has "no-self-space";     (* metal2 has no spacing rule *)
  check_bool "has errors" false (Lint.is_clean (broken_deck ()))

let test_lint_landing_pad () =
  (* Minimal pad (cut 1.0 + 2 * 0.5 enclosure = 2.0 um) narrower than the
     declared 3.0 um metal width rule. *)
  let rules = Rules.create ~grid:50 () in
  let t = Technology.create ~name:"pad" ~rules () in
  let fill = Amg_tech.Patterns.make "#000" in
  Technology.add_layer t
    (Layer.make ~name:"metal1" ~kind:(Layer.Metal 1) ~gds:30 ~fill ());
  Technology.add_layer t
    (Layer.make ~name:"via" ~kind:Layer.Cut ~gds:40 ~fill ());
  Rules.set_width rules "metal1" (um 3.);
  Rules.set_space rules "metal1" "metal1" (um 1.);
  Rules.set_cut_size rules "via" (um 1.);
  Rules.set_cut_space rules "via" (um 1.);
  Rules.set_enclosure rules ~outer:"metal1" ~inner:"via" (um 0.5);
  let cs = codes (Lint.check t) in
  check_bool "pad-below-width" true (List.mem "pad-below-width" cs);
  (* widening the enclosure to 1.0 um fixes it *)
  Rules.set_enclosure rules ~outer:"metal1" ~inner:"via" (um 1.);
  let cs2 = codes (Lint.check t) in
  check_bool "fixed" false (List.mem "pad-below-width" cs2)

let test_lint_vacuous_minarea () =
  let rules = Rules.create ~grid:50 () in
  let t = Technology.create ~name:"x" ~rules () in
  let fill = Amg_tech.Patterns.make "#000" in
  Technology.add_layer t
    (Layer.make ~name:"metal1" ~kind:(Layer.Metal 1) ~gds:30 ~fill ());
  Rules.set_width rules "metal1" (um 2.);
  Rules.set_space rules "metal1" "metal1" (um 2.);
  Rules.set_min_area rules "metal1" 3_000_000 (* 3 um2 < 2^2 = 4 um2 *);
  check_bool "vacuous flagged" true
    (List.mem "vacuous-minarea" (codes (Lint.check t)));
  Rules.set_min_area rules "metal1" 5_000_000;
  check_bool "meaningful ok" false
    (List.mem "vacuous-minarea" (codes (Lint.check t)))

let test_lint_cutsize_on_non_cut () =
  let rules = Rules.create ~grid:50 () in
  let t = Technology.create ~name:"x" ~rules () in
  let fill = Amg_tech.Patterns.make "#000" in
  Technology.add_layer t
    (Layer.make ~name:"poly" ~kind:Layer.Poly ~gds:10 ~fill ());
  Rules.set_cut_size rules "poly" (um 1.);
  let cs = codes (Lint.check t) in
  check_bool "cutsize-on-non-cut" true (List.mem "cutsize-on-non-cut" cs)


(* Random decks survive writer -> parser with identical rule tables. *)
let prop_tech_file_roundtrip =
  let gen =
    QCheck2.Gen.(
      tup4
        (* layer count, width values, space values, one enclosure margin *)
        (int_range 2 5)
        (list_size (int_range 1 5) (int_range 1 80))
        (list_size (int_range 1 8) (tup3 (int_range 0 4) (int_range 0 4) (int_range 1 60)))
        (int_range 1 20))
  in
  QCheck2.Test.make ~name:"tech file roundtrip" ~count:200 gen
    (fun (nlayers, widths, spaces, margin) ->
      let rules = Rules.create ~grid:50 () in
      let t = Technology.create ~name:"prop" ~rules () in
      let fill = Amg_tech.Patterns.make "#123456" in
      for i = 0 to nlayers - 1 do
        Technology.add_layer t
          (Layer.make
             ~name:(Printf.sprintf "l%d" i)
             ~kind:(if i = 0 then Layer.Poly else Layer.Metal ((i mod 3) + 1))
             ~gds:(10 + i) ~fill ())
      done;
      let lname i = Printf.sprintf "l%d" (i mod nlayers) in
      List.iteri
        (fun i w -> Rules.set_width rules (lname i) (w * 50))
        widths;
      List.iter
        (fun (a, b, d) -> Rules.set_space rules (lname a) (lname b) (d * 50))
        spaces;
      Rules.set_enclosure rules ~outer:(lname 1) ~inner:(lname 0) (margin * 50);
      Rules.set_min_area rules (lname 0) 2_250_000;
      Rules.set_latchup_dist rules 50_000;
      let back = Tech_file.parse_string (Tech_file.to_string t) in
      let br = Technology.rules back in
      let widths_ok =
        List.for_all
          (fun (l : Layer.t) ->
            Rules.width_opt rules l.Layer.name
            = Rules.width_opt br l.Layer.name)
          (Technology.layers t)
      in
      let spaces_ok =
        List.for_all
          (fun (a, b, _) ->
            Rules.space rules (lname a) (lname b)
            = Rules.space br (lname a) (lname b))
          spaces
      in
      Technology.layer_names back = Technology.layer_names t
      && widths_ok && spaces_ok
      && Rules.enclosure rules ~outer:(lname 1) ~inner:(lname 0)
         = Rules.enclosure br ~outer:(lname 1) ~inner:(lname 0)
      && Rules.min_area br (lname 0) = Some 2_250_000
      && Rules.latchup_dist br = 50_000)

(* The deck's words survive any run of spaces and tabs between them,
   leading or trailing blanks and a CR line ending: each parses to the
   same technology as the built-in source. *)
let prop_parse_separators =
  let lines = String.split_on_char '\n' Bicmos1u.source in
  let blanks = QCheck2.Gen.(string_size ~gen:(oneofl [ ' '; '\t' ]) (int_range 1 3)) in
  let gen =
    QCheck2.Gen.(
      flatten_l
        (List.map
           (fun line ->
             let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
             let* seps = list_repeat (List.length words) blanks in
             let* lead = oneofl [ ""; " "; "\t" ] in
             let* cr = bool in
             return
               (lead
               ^ String.concat "" (List.map2 (fun w s -> w ^ s) words seps)
               ^ if cr then "\r" else ""))
           lines))
  in
  QCheck2.Test.make ~name:"tech file: any blanks between words" ~count:50 gen
    (fun lines ->
      Tech_file.to_string (Tech_file.parse_string (String.concat "\n" lines))
      = Tech_file.to_string (Bicmos1u.get ()))

let suite =
  [
    Alcotest.test_case "builtin deck" `Quick test_builtin_deck;
    Alcotest.test_case "rule lookups" `Quick test_rule_lookups;
    Alcotest.test_case "file roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "colors and flags" `Quick test_colors_and_flags;
    Alcotest.test_case "layer predicates" `Quick test_layer_predicates;
    Alcotest.test_case "duplicate layer" `Quick test_duplicate_layer;
    Alcotest.test_case "lint: builtin decks clean" `Quick test_lint_builtin_clean;
    Alcotest.test_case "lint: broken deck findings" `Quick test_lint_broken_deck;
    Alcotest.test_case "lint: landing pad vs width" `Quick test_lint_landing_pad;
    Alcotest.test_case "lint: cutsize on non-cut" `Quick test_lint_cutsize_on_non_cut;
    Alcotest.test_case "lint: vacuous minarea" `Quick test_lint_vacuous_minarea;
    QCheck_alcotest.to_alcotest prop_tech_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_parse_separators;
  ]
