(* The procedural layout description language: lexer, parser, interpreter. *)

module Lexer = Amg_lang.Lexer
module Parser = Amg_lang.Parser
module Ast = Amg_lang.Ast
module Interp = Amg_lang.Interp
module Value = Amg_lang.Value
module Lobj = Amg_layout.Lobj
module Rect = Amg_geometry.Rect
module Env = Amg_core.Env
module Diag = Amg_robust.Diag

let um = Amg_geometry.Units.of_um
let env () = Env.bicmos ()

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- lexer --- *)

let toks src = List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  check_bool "assignment" true
    (toks "x = 1.5"
    = [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.NUMBER 1.5; Lexer.NEWLINE; Lexer.EOF ]);
  check_bool "call" true
    (toks "INBOX(\"poly\", W)"
    = [ Lexer.IDENT "INBOX"; Lexer.LPAREN; Lexer.STRING "poly"; Lexer.COMMA;
        Lexer.IDENT "W"; Lexer.RPAREN; Lexer.NEWLINE; Lexer.EOF ]);
  check_bool "keywords" true
    (toks "ENT IF ELSE END FOR TO CHOOSE ORELSE TRUE FALSE"
    = [ Lexer.KW_ENT; Lexer.KW_IF; Lexer.KW_ELSE; Lexer.KW_END; Lexer.KW_FOR;
        Lexer.KW_TO; Lexer.KW_CHOOSE; Lexer.KW_ORELSE; Lexer.KW_TRUE;
        Lexer.KW_FALSE; Lexer.NEWLINE; Lexer.EOF ]);
  check_bool "comments stripped" true (toks "// nothing here\n" = [ Lexer.EOF ]);
  check_bool "two-char ops" true
    (toks "a <= b" = [ Lexer.IDENT "a"; Lexer.OP "<="; Lexer.IDENT "b"; Lexer.NEWLINE; Lexer.EOF ]);
  check_bool "blank lines collapsed" true
    (toks "a\n\n\nb" = [ Lexer.IDENT "a"; Lexer.NEWLINE; Lexer.IDENT "b"; Lexer.NEWLINE; Lexer.EOF ])

let test_lexer_errors () =
  check_bool "unterminated string" true
    (match Lexer.tokenize "x = \"abc" with
    | exception Diag.Fail d -> Diag.line_of d = 1
    | _ -> false);
  check_bool "bad char" true
    (match Lexer.tokenize "x = §" with
    | exception Diag.Fail d -> Diag.line_of d = 1
    | _ -> false);
  check_bool "line numbers" true
    (match Lexer.tokenize "a\nb\nx = \"oops" with
    | exception Diag.Fail d -> Diag.line_of d = 3
    | _ -> false)

(* --- parser --- *)

let test_parser_entity () =
  let p = Parser.parse_program "ENT Foo(a, <b>)\n  INBOX(a)\n" in
  check "one entity" 1 (List.length p.Ast.entities);
  let e = List.hd p.Ast.entities in
  Alcotest.(check string) "name" "Foo" e.Ast.ent_name;
  check_bool "params" true
    (e.Ast.params
    = [ { Ast.pname = "a"; optional = false }; { Ast.pname = "b"; optional = true } ]);
  check "body" 1 (List.length e.Ast.body)

let test_parser_precedence () =
  let p = Parser.parse_program "x = 1 + 2 * 3\n" in
  match p.Ast.top with
  | [ Ast.Assign ("x", Ast.Binop (Ast.Add, Ast.Num 1., Ast.Binop (Ast.Mul, Ast.Num 2., Ast.Num 3.))) ] -> ()
  | _ -> Alcotest.fail "wrong parse tree"

let test_parser_keyword_args () =
  let p = Parser.parse_program "f(1, b = 2, \"s\")\n" in
  match p.Ast.top with
  | [ Ast.Expr (Ast.Call ("f", args)) ] ->
      check "arity" 3 (List.length args);
      check_bool "keyword marked" true
        (List.map (fun a -> a.Ast.arg_name) args = [ None; Some "b"; None ])
  | _ -> Alcotest.fail "wrong parse"

let test_parser_blocks () =
  let src = "IF x > 1\n  f()\nELSE\n  g()\nEND\nFOR i = 1 TO 3\n  h(i)\nEND\nCHOOSE\n  a()\nORELSE\n  b()\nEND\n" in
  let p = Parser.parse_program src in
  check "three statements" 3 (List.length p.Ast.top);
  (match p.Ast.top with
  | [ Ast.If (_, [ _ ], [ _ ]); Ast.For ("i", _, _, [ _ ]); Ast.Choose [ [ _ ]; [ _ ] ] ] -> ()
  | _ -> Alcotest.fail "wrong structure")

let test_parser_errors () =
  check_bool "missing paren" true
    (match Parser.parse_program "f(1\n" with
    | exception Diag.Fail _ -> true
    | _ -> false);
  check_bool "bad optional param" true
    (match Parser.parse_program "ENT F(<a)\n  f()\n" with
    | exception Diag.Fail d -> Diag.line_of d = 1
    | _ -> false)

(* Input that ends mid-statement: the parser reaches the end of the token
   stream and must report where, not run past it. *)
let test_parser_truncated () =
  List.iter
    (fun (src, code, line, col) ->
      match Parser.parse_program src with
      | exception Diag.Fail d ->
          Alcotest.(check (triple string int int))
            src (code, line, col)
            (d.Diag.code, Diag.line_of d, Diag.col_of d)
      | _ -> Alcotest.failf "%S parsed" src)
    [
      ("ENT X(W", "lang.parse.expected-token", 1, 8);
      ("x = f(a,", "lang.parse.unexpected-token", 1, 9);
      ("IF", "lang.parse.unexpected-token", 1, 3);
      ("ENT X(W\n", "lang.parse.expected-token", 2, 1);
      ("f(k =", "lang.parse.unexpected-token", 1, 6);
    ]

(* --- interpreter --- *)

let build src entity args = Interp.parse_and_build (env ()) src entity args

let test_interp_arithmetic_and_print () =
  let ctx, _ =
    Interp.run (env ())
      (Parser.parse_program "PRINT(1 + 2 * 3, \"a\" + \"b\", 7 > 2 && !FALSE)\n")
  in
  Alcotest.(check string) "print output" "7 \"ab\" true \n" (Interp.output ctx)

let test_interp_division_by_zero () =
  check_bool "raises" true
    (match Interp.run (env ()) (Parser.parse_program "x = 1 / 0\n") with
    | exception Diag.Fail _ -> true
    | _ -> false)

let test_interp_unbound () =
  check_bool "unbound" true
    (match Interp.run (env ()) (Parser.parse_program "x = nosuch\n") with
    | exception Diag.Fail _ -> true
    | _ -> false)

let test_interp_contact_row () =
  let o =
    build Amg_lang.Stdlib.contact_row "ContactRow"
      [ ("layer", Value.Str "poly"); ("W", Value.Num 2.); ("L", Value.Num 10.) ]
  in
  check "shapes" 6 (Lobj.shape_count o);
  check "contacts" 4 (List.length (Lobj.shapes_on o "contact"));
  check_bool "bbox" true (Lobj.bbox o = Some (Rect.of_size ~x:0 ~y:0 ~w:(um 10.) ~h:(um 2.)))

let test_interp_optional_params () =
  (* Omitted optional parameters become Unit and primitives use their
     defaults (Fig. 3). *)
  let o = build Amg_lang.Stdlib.contact_row "ContactRow" [ ("layer", Value.Str "poly") ] in
  check "one contact" 1 (List.length (Lobj.shapes_on o "contact"));
  check_bool "missing required" true
    (match build Amg_lang.Stdlib.contact_row "ContactRow" [] with
    | exception Diag.Fail _ -> true
    | _ -> false)

let test_interp_copy_semantics () =
  (* trans2 = trans1 copies the data structure (§2.5): compacting the copy
     must not corrupt the original. *)
  let src = {|
ENT Two()
  INBOX("metal1", 2, 2, net = "a")
  other = Two2()
  other2 = other
  RENAME_NET(other2, "b", "c")
  compact(other, SOUTH)
  compact(other2, SOUTH)

ENT Two2()
  INBOX("metal1", 2, 2, net = "b")
|} in
  let o = build src "Two" [] in
  (* Three bars stacked with metal spacing. *)
  check "three shapes" 3 (Lobj.shape_count o);
  let ys =
    List.map (fun (s : Amg_layout.Shape.t) -> s.Amg_layout.Shape.rect.Rect.y0) (Lobj.shapes o)
    |> List.sort compare
  in
  check_bool "stacked" true (ys = [ 0; um 3.5; um 7. ])

let test_interp_for_loop () =
  let src = {|
ENT Stack(N)
  FOR i = 1 TO N
    row = Bar()
    compact(row, NORTH)
  END

ENT Bar()
  INBOX("metal1", 1.5, 4, net = "x")
|} in
  let o = build src "Stack" [ ("N", Value.Num 4.) ] in
  check "four bars" 4 (Lobj.shape_count o)

let test_interp_choose_rollback () =
  (* The failing branch adds geometry before rejecting; the frame must be
     rolled back so only the fallback branch's geometry remains. *)
  let src = {|
ENT F()
  CHOOSE
    INBOX("metal1", 2, 2, net = "keepme")
    INBOX("metal1", 0.5, 0.5, net = "toosmall")
  ORELSE
    INBOX("metal2", 2, 2, net = "fallback")
  END
|} in
  let o = build src "F" [] in
  check "only fallback" 1 (Lobj.shape_count o);
  check_bool "fallback layer" true (Lobj.layers o = [ "metal2" ]);
  check_bool "all rejected" true
    (match
       build "ENT G()\n  CHOOSE\n    INBOX(\"metal1\", 0.1, 1)\n  ORELSE\n    INBOX(\"metal1\", 0.2, 1)\n  END\n" "G" []
     with
    | exception Diag.Fail _ -> true
    | _ -> false)

(* Plain backtracking: the first branch that survives wins and later
   branches never run.  The third branch would raise a non-rule diagnostic
   (division by zero), which CHOOSE does not catch, if it were tried. *)
let test_interp_choose_first_success () =
  let src = {|
ENT F()
  CHOOSE
    INBOX("metal1", 2, 2, net = "first")
    REJECT("first branch refused")
  ORELSE
    INBOX("metal2", 2, 2, net = "second")
  ORELSE
    x = 1 / 0
    INBOX("metal1", 2, 2, net = "third")
  END
|} in
  match build src "F" [] with
  | exception Diag.Fail d -> Alcotest.failf "unexpected diagnostic: %s" d.Diag.message
  | o ->
      check "one shape" 1 (Lobj.shape_count o);
      check_bool "second branch's layer" true (Lobj.layers o = [ "metal2" ]);
      check_bool "second branch's net" true (Lobj.nets o = [ "second" ])

(* A rejected branch may mutate an object bound before CHOOSE in place;
   the rollback must undo that too, not only the frame's own object. *)
let test_interp_choose_rollback_objects () =
  let chosen mutation =
    build
      (Printf.sprintf
         {|
ENT Part()
  INBOX("metal1", 2, 2, net = "a")

ENT Top()
  p = Part()
  CHOOSE
    %s
    REJECT("no")
  ORELSE
    compact(p, "SOUTH")
  END
|}
         mutation)
      "Top" []
  in
  let o = chosen {|RENAME_NET(p, "a", "leaked")|} in
  check_bool "renamed net rolled back" true (Lobj.nets o = [ "a" ]);
  let y_span o = Option.map (fun r -> (r.Rect.y0, r.Rect.y1)) (Lobj.bbox o) in
  check_bool "mirror rolled back" true
    (y_span (chosen {|MIRROR(p, "X")|}) = Some (0, um 2.));
  (* Each parameter is bound to its own copy of the argument: the mirror
     through [q] leaves what [r] compacts where it was, after a restore
     too. *)
  let o =
    build
      {|
ENT Part()
  INBOX("metal1", 2, 2, net = "a")

ENT Pair(q, r)
  CHOOSE
    REJECT("no")
  ORELSE
    MIRROR(q, "X")
    compact(r, "SOUTH")
  END

ENT Top()
  p = Part()
  compact(Pair(p, p), "SOUTH")
|}
      "Top" []
  in
  check_bool "parameters are copies" true (y_span o = Some (0, um 2.))

(* A callee's mutation of an object parameter never reaches the caller's
   object, whether the branch that made it was rejected or kept. *)
let test_interp_params_are_copies () =
  let caller body =
    build
      (Printf.sprintf
         {|
ENT Part()
  INBOX("metal1", 2, 2, net = "a")

ENT Callee(q)
%s

ENT Top()
  p = Part()
  x = Callee(p)
  compact(p, "SOUTH")
|}
         body)
      "Top" []
  in
  check_bool "rejected branch's rename stays in the callee" true
    (Lobj.nets
       (caller
          {|  CHOOSE
    RENAME_NET(q, "a", "leaked")
    REJECT("no")
  ORELSE
    compact(q, "SOUTH")
  END|})
    = [ "a" ]);
  check_bool "kept rename stays in the callee" true
    (Lobj.nets (caller {|  RENAME_NET(q, "a", "callee")
  compact(q, "SOUTH")|}) = [ "a" ]);
  let y_span o = Option.map (fun r -> (r.Rect.y0, r.Rect.y1)) (Lobj.bbox o) in
  check_bool "kept mirror stays in the callee" true
    (y_span (caller {|  MIRROR(q, "X")
  compact(q, "SOUTH")|}) = Some (0, um 2.))

let test_interp_diff_pair () =
  let o =
    build Amg_lang.Stdlib.all "DiffPair" [ ("W", Value.Num 10.); ("L", Value.Num 5.) ]
  in
  check "ports" 5 (List.length (Lobj.ports o));
  check "drc clean" 0
    (List.length
       (Amg_drc.Checker.run
          ~checks:[ Widths; Spacings; Enclosures; Extensions ]
          ~tech:(Env.tech (env ())) o))

let test_interp_geometry_queries () =
  let src = {|
ENT Q()
  INBOX("metal1", 2, 10, net = "x")
  PRINT(WIDTH_OF(), HEIGHT_OF(), AREA_OF())

q = Q()
|} in
  let ctx, _ = Interp.run (env ()) (Parser.parse_program src) in
  Alcotest.(check string) "measured" "10 2 20 \n" (Interp.output ctx)

let test_interp_fit_row_variants () =
  (* Wide budget: a single 16 um row.  Tight budget: the branch rejects
     itself via WIDTH_OF/REJECT and the folded two-row variant is used. *)
  let wide =
    build Amg_lang.Stdlib.all "FitRow" [ ("L", Value.Num 16.); ("MaxW", Value.Num 20.) ]
  in
  let tight =
    build Amg_lang.Stdlib.all "FitRow" [ ("L", Value.Num 16.); ("MaxW", Value.Num 10.) ]
  in
  let dims o =
    let b = Lobj.bbox o in
    match b with
    | Some r -> (Amg_geometry.Rect.width r, Amg_geometry.Rect.height r)
    | None -> (0, 0)
  in
  let ww, wh = dims wide and tw, th = dims tight in
  check_bool "wide is a single row" true (ww = um 16. && wh = um 2.5);
  check_bool "tight is folded" true (tw <= um 10. && th > um 2.);
  check "folded is two rows" 2 (List.length (Lobj.shapes_on tight "pdiff"))

let test_interp_mirror () =
  let src = {|
ENT M()
  sub = Bar()
  MIRROR(sub, "Y")
  compact(sub, SOUTH)

ENT Bar()
  INBOX("metal1", 2, 6, net = "x")
|} in
  let o = build src "M" [] in
  check "one shape" 1 (Lobj.shape_count o)

(* Mirroring rebuilds the object's per-layer indexes; its layer list
   must come back without repeats, still in first-use order. *)
let test_interp_mirror_layers () =
  let src = {|
ENT Row()
  INBOX("pdiff", 4, 10, net = "x")
  INBOX("metal1", net = "x")
  ARRAY("contact", net = "x")

r = Row()
MIRROR(r, "X")
MIRROR(r, "Y")
|} in
  let _, globals = Interp.run (env ()) (Parser.parse_program src) in
  match Hashtbl.find_opt globals "r" with
  | Some (Value.Obj o) ->
      Alcotest.(check (list string)) "layers" [ "pdiff"; "metal1"; "contact" ]
        (Lobj.layers o)
  | _ -> Alcotest.fail "r is not an object"

(* --- routing builtins --- *)

let test_interp_wire () =
  let src = {|
ENT W()
  WIRE("metal1", 2, 0, 0, 10, 0, 10, 8, net = "sig")
|} in
  let o = build src "W" [] in
  (* Two segments, both on metal1, carrying the net. *)
  check "two segments" 2 (List.length (Lobj.shapes_on o "metal1"));
  List.iter
    (fun (sh : Amg_layout.Shape.t) ->
      Alcotest.(check (option string)) "net" (Some "sig") sh.Amg_layout.Shape.net)
    (Lobj.shapes_on o "metal1");
  (* Bounding box covers the L with the 2 um width centred on the line. *)
  let bb = Lobj.bbox_exn o in
  check "x0" (um (-1.)) bb.Amg_geometry.Rect.x0;
  check "x1" (um 11.) bb.Amg_geometry.Rect.x1;
  check "y1" (um 9.) bb.Amg_geometry.Rect.y1;
  (* Diagonal segments are rejected. *)
  check_bool "diagonal" true
    (match
       build {|
ENT W()
  WIRE("metal1", 2, 0, 0, 3, 4)
|} "W" []
     with
    | exception Diag.Fail d ->
        String.equal d.Diag.message "WIRE: segment (0,0)-(3,4) is diagonal"
    | _ -> false)

let test_interp_via_contact () =
  let src = {|
ENT V()
  VIA(5, 5, net = "a")
  CONTACT_AT(20, 5, "poly", net = "b")
|} in
  let o = build src "V" [] in
  check "one via cut" 1 (List.length (Lobj.shapes_on o "via"));
  check "one contact cut" 1 (List.length (Lobj.shapes_on o "contact"));
  check "m1 pads" 2 (List.length (Lobj.shapes_on o "metal1"));
  check "m2 pad" 1 (List.length (Lobj.shapes_on o "metal2"));
  check "poly landing" 1 (List.length (Lobj.shapes_on o "poly"));
  (* Via stack is centred at (5, 5). *)
  let cut = List.hd (Lobj.shapes_on o "via") in
  check "cut cx" (um 5.) (Amg_geometry.Rect.center_x cut.Amg_layout.Shape.rect);
  check "cut cy" (um 5.) (Amg_geometry.Rect.center_y cut.Amg_layout.Shape.rect)

let test_interp_connect () =
  let src = {|
ENT C()
  INBOX("metal1", 2, 2, net = "n")
  b = B()
  compact(b, EAST)
  PORT("pa", "n", "metal1")
  PORT("pb", "m", "metal1")
  CONNECT("pa", "pb", width = 1)

ENT B()
  INBOX("metal1", 2, 2, net = "m")
|} in
  let o = build src "C" [] in
  (* The two landing boxes plus at least one connecting segment. *)
  check_bool "wire added" true (List.length (Lobj.shapes_on o "metal1") >= 3);
  (* Unknown port is a runtime error. *)
  check_bool "missing port" true
    (match
       build {|
ENT C()
  INBOX("metal1", 2, 2, net = "n")
  PORT("pa", "n", "metal1")
  CONNECT("zz", "pa")
|} "C" []
     with
    | exception Diag.Fail d ->
        String.equal d.Diag.message "CONNECT: first port \"zz\" not found"
    | _ -> false)

let test_interp_numeric_builtins () =
  let src = {|
ENT N()
  w = MAX(2, 4)
  l = MIN(3, 5)
  INBOX("metal1", w + ABS(0 - 2), FLOOR(3.7) + CEIL(0.2), net = "x")
|} in
  (* INBOX's W is the row height, L the length (Fig. 3 convention):
     W = MAX(2,4)+ABS(-2) = 6 um tall, L = FLOOR(3.7)+CEIL(0.2) = 4 um long. *)
  let o = build src "N" [] in
  let bb = Lobj.bbox_exn o in
  check "height" (um 6.) (Amg_geometry.Rect.height bb);
  check "width" (um 4.) (Amg_geometry.Rect.width bb)

let test_interp_ladder_nets () =
  (* FOR + string concatenation derives the per-segment net names. *)
  let o =
    Amg_lang.Interp.parse_and_build (env ()) Amg_lang.Stdlib.all "Ladder"
      [ ("N", Amg_lang.Value.Num 3.); ("W", Amg_lang.Value.Num 2.) ]
  in
  List.iter
    (fun net ->
      check_bool ("has " ^ net) true (List.mem net (Lobj.nets o)))
    [ "tap1"; "tap2"; "tap3" ];
  check "three diff rows" 3 (List.length (Lobj.shapes_on o "pdiff"));
  check "drc clean" 0
    (List.length
       (Amg_drc.Checker.run
          ~checks:[ Amg_drc.Checker.Widths; Spacings; Enclosures; Extensions ]
          ~tech:(Env.tech (env ())) o))

let test_interp_recursion_guard () =
  let src = {|
ENT Loop()
  x = Loop()
|} in
  check_bool "runaway recursion caught" true
    (match build src "Loop" [] with
    | exception Diag.Fail d ->
        (* Mentions the depth limit rather than blowing the stack. *)
        String.equal d.Diag.code "lang.run.recursion-limit"
    | _ -> false)

(* --- printer round trip --- *)

let test_printer_roundtrip_fixed () =
  (* The shipped module sources survive parse -> print -> parse. *)
  List.iter
    (fun src ->
      let p1 = Parser.parse_program src in
      let printed = Amg_lang.Printer.program_str p1 in
      let p2 = Parser.parse_program printed in
      check_bool "roundtrip" true (Ast.equal_program p1 p2))
    [ Amg_lang.Stdlib.contact_row; Amg_lang.Stdlib.diff_pair;
      Amg_lang.Stdlib.fit_row; Amg_lang.Stdlib.all ]

(* Random programs: a small AST generator (well-formed by construction). *)
let gen_program =
  let open QCheck2.Gen in
  let ident = oneofl [ "x"; "y"; "w"; "len"; "row" ] in
  let rec gen_expr depth =
    if depth = 0 then
      oneof
        [ map (fun n -> Ast.Num (float_of_int n)) (int_range 0 99);
          map (fun s -> Ast.Str s) (oneofl [ "poly"; "metal1"; "a" ]);
          map (fun x -> Ast.Ident x) ident ]
    else
      oneof
        [ gen_expr 0;
          map3
            (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Add; Ast.Mul; Ast.Lt; Ast.And ])
            (gen_expr (depth - 1)) (gen_expr (depth - 1));
          map (fun e -> Ast.Unop (Ast.Not, e)) (gen_expr (depth - 1));
          map2
            (fun name args ->
              Ast.Call (name, List.map (fun v -> { Ast.arg_name = None; arg_value = v }) args))
            (oneofl [ "f"; "g" ])
            (list_size (int_range 0 2) (gen_expr (depth - 1))) ]
  in
  let rec gen_stmt depth =
    if depth = 0 then
      oneof
        [ map2 (fun x e -> Ast.Assign (x, e)) ident (gen_expr 1);
          map (fun e -> Ast.Expr e) (gen_expr 1) ]
    else
      oneof
        [ gen_stmt 0;
          map3
            (fun c t e -> Ast.If (c, t, e))
            (gen_expr 1)
            (list_size (int_range 1 2) (gen_stmt (depth - 1)))
            (list_size (int_range 0 2) (gen_stmt (depth - 1)));
          map3
            (fun v (lo, hi) body -> Ast.For (v, lo, hi, body))
            ident
            (tup2 (gen_expr 0) (gen_expr 0))
            (list_size (int_range 1 2) (gen_stmt (depth - 1)));
          map
            (fun bs -> Ast.Choose bs)
            (list_size (int_range 1 3)
               (list_size (int_range 1 2) (gen_stmt (depth - 1)))) ]
  in
  let gen_entity =
    map3
      (fun name params body -> { Ast.ent_name = name; params; body })
      (oneofl [ "Foo"; "Bar" ])
      (list_size (int_range 0 3)
         (map2 (fun n o -> { Ast.pname = n; optional = o }) ident bool))
      (list_size (int_range 1 3) (gen_stmt 2))
  in
  map2
    (fun top entities -> { Ast.top; entities })
    (list_size (int_range 0 3) (gen_stmt 2))
    (list_size (int_range 0 2) gen_entity)

let prop_printer_roundtrip =
  QCheck2.Test.make ~name:"printer/parser roundtrip" ~count:300 gen_program
    (fun p ->
      let printed = Amg_lang.Printer.program_str p in
      match Parser.parse_program printed with
      | p2 -> Ast.equal_program p p2
      | exception _ -> false)


(* Fuzz: arbitrary input never crashes the front end — it parses or raises
   one of the two declared positioned errors. *)
let prop_parser_total =
  QCheck2.Test.make ~name:"parser total on arbitrary input" ~count:500
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 80))
    (fun src ->
      match Parser.parse_program src with
      | _ -> true
      | exception Diag.Fail d -> Diag.line_of d >= 1)

(* Keyword-shaped fuzz: random token soup from the language's own
   vocabulary exercises the parser's error paths much harder than raw
   bytes. *)
let prop_parser_total_tokens =
  let word =
    QCheck2.Gen.oneofl
      [ "ENT"; "IF"; "ELSE"; "END"; "FOR"; "TO"; "CHOOSE"; "ORELSE"; "=";
        "("; ")"; ","; "<"; ">"; "+"; "-"; "*"; "/"; "=="; "x"; "Foo"; "1";
        "2.5"; "\"s\""; "INBOX"; "compact"; "\n"; "\n  "; "TRUE" ]
  in
  QCheck2.Test.make ~name:"parser total on token soup" ~count:500
    QCheck2.Gen.(list_size (int_range 0 40) word)
    (fun words ->
      let src = String.concat " " words in
      match Parser.parse_program src with
      | _ -> true
      | exception Diag.Fail _ -> true)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser entity" `Quick test_parser_entity;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser keyword args" `Quick test_parser_keyword_args;
    Alcotest.test_case "parser blocks" `Quick test_parser_blocks;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser truncated input" `Quick test_parser_truncated;
    Alcotest.test_case "arithmetic and print" `Quick test_interp_arithmetic_and_print;
    Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
    Alcotest.test_case "unbound identifier" `Quick test_interp_unbound;
    Alcotest.test_case "contact row (fig 2)" `Quick test_interp_contact_row;
    Alcotest.test_case "optional parameters (fig 3)" `Quick test_interp_optional_params;
    Alcotest.test_case "object copy semantics" `Quick test_interp_copy_semantics;
    Alcotest.test_case "for loop" `Quick test_interp_for_loop;
    Alcotest.test_case "choose rollback" `Quick test_interp_choose_rollback;
    Alcotest.test_case "choose first success wins" `Quick
      test_interp_choose_first_success;
    Alcotest.test_case "choose rollback of objects" `Quick
      test_interp_choose_rollback_objects;
    Alcotest.test_case "object parameters are copies" `Quick
      test_interp_params_are_copies;
    Alcotest.test_case "diff pair (fig 7)" `Quick test_interp_diff_pair;
    Alcotest.test_case "geometry queries" `Quick test_interp_geometry_queries;
    Alcotest.test_case "fit-row topology variants" `Quick test_interp_fit_row_variants;
    Alcotest.test_case "mirror" `Quick test_interp_mirror;
    Alcotest.test_case "mirror keeps layer order" `Quick test_interp_mirror_layers;
    Alcotest.test_case "WIRE builtin" `Quick test_interp_wire;
    Alcotest.test_case "VIA and CONTACT_AT builtins" `Quick test_interp_via_contact;
    Alcotest.test_case "CONNECT builtin" `Quick test_interp_connect;
    Alcotest.test_case "numeric builtins" `Quick test_interp_numeric_builtins;
    Alcotest.test_case "ladder: FOR + net concat" `Quick test_interp_ladder_nets;
    Alcotest.test_case "recursion guard" `Quick test_interp_recursion_guard;
    Alcotest.test_case "printer roundtrip (shipped sources)" `Quick test_printer_roundtrip_fixed;
    QCheck_alcotest.to_alcotest prop_printer_roundtrip;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_parser_total_tokens;
  ]
