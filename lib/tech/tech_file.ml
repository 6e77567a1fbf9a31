(* Concrete syntax for the technology description file.

   Line-oriented; '#' starts a comment.  Distances are micrometres.

     technology generic-bicmos-1u
     grid 0.05
     latchup 50.0
     layer poly poly gds=10 res=25 acap=88 fcap=54 fill=hatch color=#cc2222
     width poly 1.0
     space poly poly 1.5
     enclose metal1 contact 0.5
     extend poly pdiff 1.0
     cutsize contact 1.0
     cutspace contact 1.5
*)

module Units = Amg_geometry.Units
module Diag = Amg_robust.Diag

(* Every parse failure is a structured diagnostic carrying the file (when
   known) and 1-based line of the offending directive. *)
let fail ?file ~code line fmt =
  Diag.failf
    ~span:(Diag.span ?file line)
    ~hint:"see the technology file format reference in README.md"
    Diag.Tech ~code fmt

let nm_of_string ?file line s =
  match float_of_string_opt s with
  | Some f -> Units.of_um f
  | None -> fail ?file ~code:"tech.parse.bad-number" line "expected a number, got %S" s

(* Tolerate tabs and CRLF line endings: '\r' left by splitting a CRLF file
   on '\n' is just another separator.  One scan, right to left so that the
   words come out in order; [stop] is one past the end of the word being
   scanned. *)
let split_words s =
  let sep c = c = ' ' || c = '\t' || c = '\r' in
  let rec scan acc stop i =
    if i < 0 then if stop > 0 then String.sub s 0 stop :: acc else acc
    else if sep s.[i] then
      let acc = if stop > i + 1 then String.sub s (i + 1) (stop - i - 1) :: acc else acc in
      scan acc i (i - 1)
    else scan acc stop (i - 1)
  in
  scan [] (String.length s) (String.length s - 1)

(* A comment starts at a '#' that begins the line or follows whitespace —
   a '#' inside a token (a colour value like [color=#cc2222]) is data. *)
let strip_comment s =
  let n = String.length s in
  let rec find i =
    if i >= n then None
    else if s.[i] = '#' && (i = 0 || s.[i - 1] = ' ' || s.[i - 1] = '\t') then
      Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub s 0 i | None -> s

let parse_layer_line ?file lineno = function
  | name :: kind_s :: opts ->
      let kind =
        match Layer.kind_of_string kind_s with
        | Some k -> k
        | None ->
            fail ?file ~code:"tech.parse.unknown-layer-kind" lineno
              "unknown layer kind %S" kind_s
      in
      let gds = ref 0
      and res = ref 0.
      and acap = ref 0.
      and fcap = ref 0.
      and style = ref Patterns.Solid
      and color = ref "#888888"
      and conducting = ref true in
      let float_opt v =
        match float_of_string_opt v with
        | Some f -> f
        | None ->
            fail ?file ~code:"tech.parse.bad-number" lineno
              "bad numeric option value %S" v
      in
      List.iter
        (fun opt ->
          match String.index_opt opt '=' with
          | None ->
              if opt = "nonconducting" then conducting := false
              else
                fail ?file ~code:"tech.parse.unknown-option" lineno
                  "unknown layer option %S" opt
          | Some i -> (
              let k = String.sub opt 0 i
              and v = String.sub opt (i + 1) (String.length opt - i - 1) in
              match k with
              | "gds" -> gds := int_of_float (float_opt v)
              | "res" -> res := float_opt v
              | "acap" -> acap := float_opt v
              | "fcap" -> fcap := float_opt v
              | "color" -> color := v
              | "fill" -> (
                  match Patterns.style_of_string v with
                  | Some s -> style := s
                  | None ->
                      fail ?file ~code:"tech.parse.unknown-option" lineno
                        "unknown fill style %S" v)
              | _ ->
                  fail ?file ~code:"tech.parse.unknown-option" lineno
                    "unknown layer option %S" k))
        opts;
      Layer.make ~name ~kind ~gds:!gds ~conducting:!conducting ~sheet_res:!res
        ~area_cap:!acap ~fringe_cap:!fcap
        ~fill:(Patterns.make ~style:!style !color)
        ()
  | _ ->
      fail ?file ~code:"tech.parse.layer-line" lineno
        "layer line needs at least a name and a kind"

let parse_string ?file src =
  (* Each line's words, split once for both passes. *)
  let lines =
    List.map (fun line -> split_words (strip_comment line)) (String.split_on_char '\n' src)
  in
  (* First pass: pick up the grid so the rule table starts correct. *)
  let grid = ref 50 in
  List.iteri
    (fun i words ->
      match words with
      | [ "grid"; v ] -> grid := nm_of_string ?file (i + 1) v
      | _ -> ())
    lines;
  let rules = Rules.create ~grid:!grid () in
  let tech = ref None in
  let get_tech lineno =
    match !tech with
    | Some t -> t
    | None ->
        fail ?file ~code:"tech.parse.missing-technology" lineno
          "the first directive must be 'technology <name>'"
  in
  let check_layer lineno t l =
    if not (Technology.mem_layer t l) then
      fail ?file ~code:"tech.parse.unknown-layer" lineno "unknown layer %S" l
  in
  List.iteri
    (fun i words ->
      let lineno = i + 1 in
      match words with
      | [] -> ()
      | [ "technology"; name ] ->
          if !tech <> None then
            fail ?file ~code:"tech.parse.duplicate-technology" lineno
              "duplicate 'technology' directive";
          tech := Some (Technology.create ~name ~rules ())
      | [ "grid"; _ ] -> ()
      | [ "latchup"; v ] ->
          ignore (get_tech lineno);
          Rules.set_latchup_dist rules (nm_of_string ?file lineno v)
      | "layer" :: rest ->
          Technology.add_layer (get_tech lineno)
            (parse_layer_line ?file lineno rest)
      | [ "width"; l; v ] ->
          check_layer lineno (get_tech lineno) l;
          Rules.set_width rules l (nm_of_string ?file lineno v)
      | [ "space"; a; b; v ] ->
          let t = get_tech lineno in
          check_layer lineno t a;
          check_layer lineno t b;
          Rules.set_space rules a b (nm_of_string ?file lineno v)
      | [ "enclose"; outer; inner; v ] ->
          let t = get_tech lineno in
          check_layer lineno t outer;
          check_layer lineno t inner;
          Rules.set_enclosure rules ~outer ~inner (nm_of_string ?file lineno v)
      | [ "extend"; of_; past; v ] ->
          let t = get_tech lineno in
          check_layer lineno t of_;
          check_layer lineno t past;
          Rules.set_extension rules ~of_ ~past (nm_of_string ?file lineno v)
      | [ "cutsize"; l; v ] ->
          check_layer lineno (get_tech lineno) l;
          Rules.set_cut_size rules l (nm_of_string ?file lineno v)
      | [ "cutspace"; l; v ] ->
          check_layer lineno (get_tech lineno) l;
          Rules.set_cut_space rules l (nm_of_string ?file lineno v)
      | [ "minarea"; l; v ] ->
          (* Value in um^2. *)
          check_layer lineno (get_tech lineno) l;
          let a =
            match float_of_string_opt v with
            | Some f when f >= 0. -> int_of_float (f *. 1.0e6)
            | _ -> fail ?file ~code:"tech.parse.bad-number" lineno "bad area %S" v
          in
          Rules.set_min_area rules l a
      | w :: _ ->
          fail ?file ~code:"tech.parse.unknown-directive" lineno
            "unknown directive %S" w)
    lines;
  match !tech with
  | Some t -> t
  | None -> fail ?file ~code:"tech.parse.empty" 1 "empty technology file"

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string ~file:path src

let um_str nm =
  let f = Units.to_um nm in
  if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f

let to_string tech =
  let b = Buffer.create 4096 in
  let rules = Technology.rules tech in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "technology %s" (Technology.name tech);
  line "grid %s" (um_str (Rules.grid rules));
  if Rules.latchup_dist rules > 0 then line "latchup %s" (um_str (Rules.latchup_dist rules));
  List.iter
    (fun (l : Layer.t) ->
      line "layer %s %s gds=%d res=%g acap=%g fcap=%g fill=%s color=%s%s" l.name
        (Layer.kind_to_string l.kind) l.gds l.sheet_res l.area_cap l.fringe_cap
        (Patterns.style_to_string l.fill.Patterns.style)
        l.fill.Patterns.color
        (if l.conducting then "" else " nonconducting"))
    (Technology.layers tech);
  let collect iter =
    let acc = ref [] in
    iter (fun entry -> acc := entry :: !acc);
    List.sort compare !acc
  in
  collect (fun f -> Rules.iter_widths rules (fun l d -> f (l, d)))
  |> List.iter (fun (l, d) -> line "width %s %s" l (um_str d));
  collect (fun f -> Rules.iter_spaces rules (fun a bb d -> f (a, bb, d)))
  |> List.iter (fun (a, bb, d) -> line "space %s %s %s" a bb (um_str d));
  collect (fun f -> Rules.iter_enclosures rules (fun ~outer ~inner d -> f (outer, inner, d)))
  |> List.iter (fun (o, i, d) -> line "enclose %s %s %s" o i (um_str d));
  collect (fun f -> Rules.iter_extensions rules (fun ~of_ ~past d -> f (of_, past, d)))
  |> List.iter (fun (o, p, d) -> line "extend %s %s %s" o p (um_str d));
  collect (fun f -> Rules.iter_cut_sizes rules (fun l d -> f (l, d)))
  |> List.iter (fun (l, d) -> line "cutsize %s %s" l (um_str d));
  collect (fun f -> Rules.iter_cut_spaces rules (fun l d -> f (l, d)))
  |> List.iter (fun (l, d) -> line "cutspace %s %s" l (um_str d));
  collect (fun f -> Rules.iter_min_areas rules (fun l a -> f (l, a)))
  |> List.iter (fun (l, a) ->
         let f = float_of_int a /. 1.0e6 in
         line "minarea %s %s" l
           (if Float.is_integer f then Printf.sprintf "%.0f" f
            else Printf.sprintf "%g" f));
  Buffer.contents b

let save tech path =
  let oc = open_out path in
  output_string oc (to_string tech);
  close_out oc
