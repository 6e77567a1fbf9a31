(* Recursive-descent parser for the layout language.  Statements are
   newline-terminated; entity bodies run until the matching END-less next
   ENT or end of file, block bodies (IF/FOR/CHOOSE) until their END. *)

module Diag = Amg_robust.Diag

(* The parser walks the lexer's token list in place: it ends in EOF, and
   the cursor never moves past it. *)
type state = { mutable toks : Lexer.t list; file : string option }

let peek st = match st.toks with t :: _ -> t | [] -> assert false

(* The token after the current one (EOF at the end). *)
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> peek st

let line st = (peek st).Lexer.line

(* Diagnostics carry the 1-based file:line:col of the offending token
   (token records keep their historical 0-based [col]). *)
let fail_tok st (t : Lexer.t) ~code fmt =
  Diag.failf
    ~span:(Diag.span ?file:st.file ~col:(t.Lexer.col + 1) t.Lexer.line)
    ~hint:"see the language reference in README.md for the statement grammar"
    Diag.Lang ~code fmt

let fail st ~code fmt = fail_tok st (peek st) ~code fmt

let advance st =
  match st.toks with _ :: (_ :: _ as rest) -> st.toks <- rest | _ -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  let t = next st in
  if not (Lexer.equal_token t.Lexer.tok tok) then
    fail_tok st t ~code:"lang.parse.expected-token" "expected %s, got %s" what
      (Lexer.show_token t.Lexer.tok)

let skip_newlines st =
  while (peek st).Lexer.tok = Lexer.NEWLINE do advance st done

let end_of_stmt st =
  match (peek st).Lexer.tok with
  | Lexer.NEWLINE -> advance st
  | Lexer.EOF -> ()
  | t ->
      fail st ~code:"lang.parse.expected-token" "expected end of line, got %s"
        (Lexer.show_token t)

(* --- expressions (precedence climbing) --- *)

let binop_of_string = function
  | "+" -> Ast.Add | "-" -> Ast.Sub | "*" -> Ast.Mul | "/" -> Ast.Div
  | "==" -> Ast.Eq | "!=" -> Ast.Ne
  | "<" -> Ast.Lt | "<=" -> Ast.Le | ">" -> Ast.Gt | ">=" -> Ast.Ge
  | "&&" -> Ast.And | "||" -> Ast.Or
  | op -> invalid_arg ("binop_of_string: " ^ op)

let precedence = function
  | Ast.Or -> 1
  | Ast.And -> 2
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 3
  | Ast.Add | Ast.Sub -> 4
  | Ast.Mul | Ast.Div -> 5

let rec parse_expr st = parse_binary st 0

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match (peek st).Lexer.tok with
    | Lexer.OP op when op <> "!" ->
        let b = binop_of_string op in
        let p = precedence b in
        if p < min_prec then lhs
        else begin
          advance st;
          let rhs = parse_binary st (p + 1) in
          loop (Ast.Binop (b, lhs, rhs))
        end
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  match (peek st).Lexer.tok with
  | Lexer.OP "-" ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | Lexer.OP "!" ->
      advance st;
      Ast.Unop (Ast.Not, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  let t = next st in
  match t.Lexer.tok with
  | Lexer.NUMBER f -> Ast.Num f
  | Lexer.STRING s -> Ast.Str s
  | Lexer.KW_TRUE -> Ast.Bool true
  | Lexer.KW_FALSE -> Ast.Bool false
  | Lexer.LPAREN ->
      let e = parse_expr st in
      expect st Lexer.RPAREN ")";
      e
  | Lexer.IDENT name -> (
      match (peek st).Lexer.tok with
      | Lexer.LPAREN ->
          advance st;
          let args = parse_args st in
          Ast.Call (name, args)
      | _ -> Ast.Ident name)
  | tok ->
      fail_tok st t ~code:"lang.parse.unexpected-token"
        "unexpected %s in expression" (Lexer.show_token tok)

and parse_args st =
  if (peek st).Lexer.tok = Lexer.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let arg =
        (* keyword argument: IDENT '=' expr *)
        match ((peek st).Lexer.tok, (peek2 st).Lexer.tok) with
        | Lexer.IDENT name, Lexer.ASSIGN ->
            advance st;
            advance st;
            { Ast.arg_name = Some name; arg_value = parse_expr st }
        | _ -> { Ast.arg_name = None; arg_value = parse_expr st }
      in
      match (next st).Lexer.tok with
      | Lexer.COMMA -> loop (arg :: acc)
      | Lexer.RPAREN -> List.rev (arg :: acc)
      | tok ->
          fail st ~code:"lang.parse.expected-token"
            "expected , or ) in arguments, got %s" (Lexer.show_token tok)
    in
    loop []
  end

(* --- statements --- *)

type stop = Stop_end | Stop_else | Stop_orelse | Stop_ent | Stop_eof | Stop_margin

(* [stop_at_margin] ends an entity body when a statement starts back at
   column 0 — the paper's layout: bodies are indented, top-level calls sit
   at the margin. *)
let rec parse_stmts ?(stop_at_margin = false) st =
  let stmts = ref [] in
  let rec loop () =
    skip_newlines st;
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.EOF -> Stop_eof
    | Lexer.KW_END ->
        advance st;
        Stop_end
    | Lexer.KW_ELSE ->
        advance st;
        Stop_else
    | Lexer.KW_ORELSE ->
        advance st;
        Stop_orelse
    | Lexer.KW_ENT -> Stop_ent
    | _ when stop_at_margin && t.Lexer.col = 0 && !stmts <> [] -> Stop_margin
    | _ ->
        stmts := parse_stmt st :: !stmts;
        loop ()
  in
  let stop = loop () in
  (List.rev !stmts, stop)

and parse_stmt st =
  match (peek st).Lexer.tok with
  | Lexer.KW_IF ->
      advance st;
      let cond = parse_expr st in
      end_of_stmt st;
      let then_branch, stop = parse_stmts st in
      let else_branch =
        match stop with
        | Stop_else ->
            end_of_stmt st;
            let b, stop2 = parse_stmts st in
            if stop2 <> Stop_end then
              fail st ~code:"lang.parse.expected-token" "IF: expected END";
            b
        | Stop_end -> []
        | _ -> fail st ~code:"lang.parse.expected-token" "IF: expected ELSE or END"
      in
      end_of_stmt st;
      Ast.If (cond, then_branch, else_branch)
  | Lexer.KW_FOR ->
      advance st;
      let var =
        match (next st).Lexer.tok with
        | Lexer.IDENT v -> v
        | tok ->
            fail st ~code:"lang.parse.expected-token"
              "FOR: expected variable, got %s" (Lexer.show_token tok)
      in
      expect st Lexer.ASSIGN "=";
      let lo = parse_expr st in
      expect st Lexer.KW_TO "TO";
      let hi = parse_expr st in
      end_of_stmt st;
      let body, stop = parse_stmts st in
      if stop <> Stop_end then
        fail st ~code:"lang.parse.expected-token" "FOR: expected END";
      end_of_stmt st;
      Ast.For (var, lo, hi, body)
  | Lexer.KW_CHOOSE ->
      advance st;
      end_of_stmt st;
      let rec branches acc =
        let body, stop = parse_stmts st in
        match stop with
        | Stop_orelse ->
            end_of_stmt st;
            branches (body :: acc)
        | Stop_end -> List.rev (body :: acc)
        | _ -> fail st ~code:"lang.parse.expected-token" "CHOOSE: expected ORELSE or END"
      in
      let bs = branches [] in
      end_of_stmt st;
      Ast.Choose bs
  | Lexer.IDENT name when (peek2 st).Lexer.tok = Lexer.ASSIGN ->
      advance st;
      advance st;
      let e = parse_expr st in
      end_of_stmt st;
      Ast.Assign (name, e)
  | _ ->
      let e = parse_expr st in
      end_of_stmt st;
      Ast.Expr e

(* --- entities and program --- *)

let parse_params st =
  expect st Lexer.LPAREN "(";
  if (peek st).Lexer.tok = Lexer.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let param =
        match (next st).Lexer.tok with
        | Lexer.IDENT p -> { Ast.pname = p; optional = false }
        | Lexer.OP "<" -> (
            match (next st).Lexer.tok with
            | Lexer.IDENT p -> (
                match (next st).Lexer.tok with
                | Lexer.OP ">" -> { Ast.pname = p; optional = true }
                | tok ->
                    fail st ~code:"lang.parse.expected-token"
                      "expected > after optional parameter, got %s"
                      (Lexer.show_token tok))
            | tok ->
                fail st ~code:"lang.parse.expected-token"
                  "expected parameter name, got %s" (Lexer.show_token tok))
        | tok ->
            fail st ~code:"lang.parse.expected-token"
              "expected parameter, got %s" (Lexer.show_token tok)
      in
      match (next st).Lexer.tok with
      | Lexer.COMMA -> loop (param :: acc)
      | Lexer.RPAREN -> List.rev (param :: acc)
      | tok ->
          fail st ~code:"lang.parse.expected-token"
            "expected , or ) in parameters, got %s" (Lexer.show_token tok)
    in
    loop []
  end

let parse_program ?file src =
  let st = { toks = Lexer.tokenize ?file src; file } in
  let entities = ref [] in
  let top = ref [] in
  let rec loop () =
    skip_newlines st;
    match (peek st).Lexer.tok with
    | Lexer.EOF -> ()
    | Lexer.KW_ENT ->
        advance st;
        let name =
          match (next st).Lexer.tok with
          | Lexer.IDENT n -> n
          | tok ->
              fail st ~code:"lang.parse.expected-token"
                "ENT: expected name, got %s" (Lexer.show_token tok)
        in
        let params = parse_params st in
        end_of_stmt st;
        let body, stop = parse_stmts ~stop_at_margin:true st in
        (match stop with
        | Stop_ent | Stop_eof | Stop_margin -> ()
        | Stop_end -> end_of_stmt st
        | _ ->
            fail st ~code:"lang.parse.unexpected-token"
              "unexpected ELSE/ORELSE in entity body");
        entities := { Ast.ent_name = name; params; body } :: !entities;
        loop ()
    | _ ->
        top := parse_stmt st :: !top;
        loop ()
  in
  loop ();
  { Ast.entities = List.rev !entities; top = List.rev !top }
