type severity = Error | Warning | Info

type subsystem =
  | Lang
  | Tech
  | Geometry
  | Layout
  | Compact
  | Route
  | Optimize
  | Parallel
  | Drc
  | Extract
  | Synth
  | Cli
  | Store
  | Internal

type span = { file : string option; line : int; col : int }

type t = {
  code : string;
  severity : severity;
  subsystem : subsystem;
  message : string;
  span : span option;
  hint : string option;
  payload : (string * string) list;
}

exception Fail of t

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let subsystems =
  [
    (Lang, "lang");
    (Tech, "tech");
    (Geometry, "geometry");
    (Layout, "layout");
    (Compact, "compact");
    (Route, "route");
    (Optimize, "optimize");
    (Parallel, "parallel");
    (Drc, "drc");
    (Extract, "extract");
    (Synth, "synth");
    (Cli, "cli");
    (Store, "store");
    (Internal, "internal");
  ]

let subsystem_to_string s = List.assoc s subsystems

let subsystem_of_string name =
  List.find_map (fun (s, n) -> if String.equal n name then Some s else None) subsystems

let span ?file ?(col = 0) line = { file; line; col }

let v ?(severity = Error) ?span ?hint ?(payload = []) subsystem ~code message =
  { code; severity; subsystem; message; span; hint; payload }

let fail ?span ?hint ?payload subsystem ~code message =
  raise (Fail (v ?span ?hint ?payload subsystem ~code message))

let failf ?span ?hint ?payload subsystem ~code fmt =
  Fmt.kstr (fun message -> fail ?span ?hint ?payload subsystem ~code message) fmt

let line_of d = match d.span with Some s -> s.line | None -> 0
let col_of d = match d.span with Some s -> s.col | None -> 0

let span_equal a b =
  Option.equal String.equal a.file b.file && a.line = b.line && a.col = b.col

let equal a b =
  String.equal a.code b.code
  && a.severity = b.severity
  && a.subsystem = b.subsystem
  && String.equal a.message b.message
  && Option.equal span_equal a.span b.span
  && Option.equal String.equal a.hint b.hint
  && List.equal
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.payload b.payload

let pp_span ppf s =
  (match s.file with Some f -> Fmt.pf ppf "%s:" f | None -> ());
  Fmt.pf ppf "%d" s.line;
  if s.col > 0 then Fmt.pf ppf ":%d" s.col

let pp ppf d =
  Fmt.pf ppf "%s[%s:%s]" (severity_to_string d.severity)
    (subsystem_to_string d.subsystem)
    d.code;
  (match d.span with Some s -> Fmt.pf ppf " %a" pp_span s | None -> ());
  Fmt.pf ppf ": %s" d.message;
  (match d.hint with Some h -> Fmt.pf ppf "@ (hint: %s)" h | None -> ());
  match d.payload with
  | [] -> ()
  | kvs ->
      Fmt.pf ppf "@ {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        kvs

let to_string d = Fmt.str "%a" pp d

let fatal_exn = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let guard ?convert f =
  match f () with
  | x -> Stdlib.Ok x
  | exception Fail d -> Stdlib.Error d
  | exception e when not (fatal_exn e) -> (
      let bt = Printexc.get_raw_backtrace () in
      match Option.bind convert (fun c -> c e) with
      | Some d -> Stdlib.Error d
      | None -> Printexc.raise_with_backtrace e bt)

(* --- JSON ------------------------------------------------------------- *)

module Json = struct
  type t =
    | Jnull
    | Jbool of bool
    | Jnum of float
    | Jstr of string
    | Jarr of t list
    | Jobj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let err msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> err (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then (
        pos := !pos + l;
        v)
      else err (Printf.sprintf "expected %s" lit)
    in
    (* Exactly four hex digits: one UTF-16 code unit. *)
    let hex4 () =
      if !pos + 4 > n then err "bad \\u escape";
      let digit i =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> err "bad \\u escape"
      in
      let u = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
      pos := !pos + 4;
      u
    in
    (* A high surrogate must be followed by an escaped low one; the pair
       names one code point outside the BMP.  Lone surrogates have no
       UTF-8 encoding and are rejected. *)
    let code_point () =
      let u = hex4 () in
      if u >= 0xDC00 && u <= 0xDFFF then err "lone low surrogate"
      else if u < 0xD800 || u > 0xDBFF then u
      else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then err "lone high surrogate"
        else 0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else err "lone high surrogate"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then err "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents b
          | '\\' ->
              if !pos >= n then err "unterminated escape";
              let e = s.[!pos] in
              advance ();
              (match e with
              | '"' | '\\' | '/' -> Buffer.add_char b e
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
              | _ -> err "bad escape");
              go ()
          | c ->
              Buffer.add_char b c;
              go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then err "expected number"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> f
        | None -> err "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Jstr (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Jobj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> err "expected ',' or '}'"
            in
            Jobj (members [])
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Jarr [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> err "expected ',' or ']'"
            in
            Jarr (elems [])
      | Some 't' -> literal "true" (Jbool true)
      | Some 'f' -> literal "false" (Jbool false)
      | Some 'n' -> literal "null" Jnull
      | Some _ -> Jnum (parse_number ())
      | None -> err "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing garbage";
    v

  let of_string s =
    match parse s with
    | v -> Stdlib.Ok v
    | exception Bad msg -> Stdlib.Error msg

  (* Shortest image that parses back to the same float.  The serving
     protocol requires byte-deterministic responses, so the image must
     depend only on the value.  JSON has no non-finite numbers, so nan
     and the infinities encode as [null] — never as the unparsable
     nan/inf images printf would produce. *)
  let float_to_string f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let add_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec to_buffer b = function
    | Jnull -> Buffer.add_string b "null"
    | Jbool true -> Buffer.add_string b "true"
    | Jbool false -> Buffer.add_string b "false"
    | Jnum f -> Buffer.add_string b (float_to_string f)
    | Jstr s -> add_string b s
    | Jarr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            to_buffer b v)
          items;
        Buffer.add_char b ']'
    | Jobj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_string b k;
            Buffer.add_char b ':';
            to_buffer b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    to_buffer b v;
    Buffer.contents b

  let member name = function
    | Jobj kvs -> List.assoc_opt name kvs
    | _ -> None

  let str = function Jstr s -> Some s | _ -> None
  let num = function Jnum f -> Some f | _ -> None
  let int = function Jnum f -> Some (int_of_float f) | _ -> None
  let bool = function Jbool b -> Some b | _ -> None
end

(* --- diagnostics as JSON ---------------------------------------------- *)

let to_value d =
  let open Json in
  let opt_str = function None -> Jnull | Some s -> Jstr s in
  Jobj
    [
      ("code", Jstr d.code);
      ("severity", Jstr (severity_to_string d.severity));
      ("subsystem", Jstr (subsystem_to_string d.subsystem));
      ("message", Jstr d.message);
      ( "span",
        match d.span with
        | None -> Jnull
        | Some s ->
            Jobj
              [
                ("file", opt_str s.file);
                ("line", Jnum (float_of_int s.line));
                ("col", Jnum (float_of_int s.col));
              ] );
      ("hint", opt_str d.hint);
      ("payload", Jobj (List.map (fun (k, v) -> (k, Jstr v)) d.payload));
    ]

let to_json d = Json.to_string (to_value d)

let list_to_json ?(degraded = false) ds =
  Json.(
    to_string
      (Jobj
         [
           ("version", Jnum 1.);
           ("degraded", Jbool degraded);
           ("diagnostics", Jarr (List.map to_value ds));
         ]))

let of_value v =
  let open Json in
  let ( let* ) o f =
    match o with Some x -> f x | None -> Stdlib.Error "malformed diagnostic"
  in
  let field k = Option.bind (member k v) str in
  let* code = field "code" in
  let* severity = Option.bind (field "severity") severity_of_string in
  let* subsystem = Option.bind (field "subsystem") subsystem_of_string in
  let* message = field "message" in
  let span =
    match member "span" v with
    | Some (Jobj _ as sp) ->
        let at k = Option.value ~default:0 (Option.bind (member k sp) int) in
        Some
          { file = Option.bind (member "file" sp) str; line = at "line"; col = at "col" }
    | _ -> None
  in
  let payload =
    match member "payload" v with
    | Some (Jobj kvs) ->
        List.filter_map (fun (k, pv) -> Option.map (fun s -> (k, s)) (str pv)) kvs
    | _ -> []
  in
  Stdlib.Ok { code; severity; subsystem; message; span; hint = field "hint"; payload }

let of_json s = Result.bind (Json.of_string s) of_value

let list_of_json s =
  Result.bind (Json.of_string s) (fun v ->
      let degraded =
        Option.value ~default:false (Option.bind (Json.member "degraded" v) Json.bool)
      in
      match Json.member "diagnostics" v with
      | Some (Json.Jarr items) ->
          let rec go acc = function
            | [] -> Stdlib.Ok (degraded, List.rev acc)
            | item :: rest -> Result.bind (of_value item) (fun d -> go (d :: acc) rest)
          in
          go [] items
      | _ -> Stdlib.Error "missing diagnostics array")
