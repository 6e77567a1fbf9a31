(* Interpreter for the layout language.

   "The source code is automatically translated into C++" in the paper; here
   the interpreter drives the same primitive layer (Amg_core.Prim and the
   successive compactor) that the OCaml eDSL uses. *)

module Lobj = Amg_layout.Lobj
module Rect = Amg_geometry.Rect
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Env = Amg_core.Env
module Prim = Amg_core.Prim
module Optimize = Amg_core.Optimize
module Diag = Amg_robust.Diag

(* Runtime failures carry a structured diagnostic (no source span: the AST
   keeps no positions; the code pinpoints the failing construct instead). *)
let error_code ?hint code fmt = Diag.failf ?hint Diag.Lang ~code fmt

let error fmt = error_code "lang.run.error" fmt

type recorded = { base : Lobj.t; steps : Optimize.step list }

type recorder = {
  mutable rec_base : Lobj.t option;  (* depth-1 object before the first compact *)
  mutable rec_steps : Optimize.step list;  (* reversed *)
  mutable rec_shapes : int;  (* shape count after the last recorded compact *)
  mutable rec_invalid : string option;
}

type frame = {
  ctx : ctx;
  vars : (string, Value.t) Hashtbl.t;
  mutable obj : Lobj.t;
}

and ctx = {
  env : Env.t;
  program : Ast.program;
  out : Buffer.t;
  mutable depth : int;  (* entity call depth, to catch runaway recursion *)
  mutable recorder : recorder option;
}

let max_depth = 200

let create_ctx env program =
  { env; program; out = Buffer.create 256; depth = 0; recorder = None }

let output ctx = Buffer.contents ctx.out

let new_frame ctx name =
  let vars = Hashtbl.create 16 in
  List.iter
    (fun d -> Hashtbl.replace vars (Dir.to_string d) (Value.Str (Dir.to_string d)))
    Dir.all;
  { ctx; vars; obj = Lobj.create name }

let lookup frame name =
  match Hashtbl.find_opt frame.vars name with
  | Some v -> v
  | None ->
      error_code "lang.run.unbound-identifier"
        ~hint:"assign the variable before use, or check its spelling"
        "unbound identifier %s" name

(* --- argument plumbing for builtins and entities --- *)

type args = { positional : Value.t list; keyword : (string * Value.t) list }

let split_args frame (raw : Ast.arg list) eval =
  let positional, keyword =
    List.fold_left
      (fun (pos, kw) (a : Ast.arg) ->
        let v = eval frame a.Ast.arg_value in
        match a.Ast.arg_name with
        | None -> (v :: pos, kw)
        | Some n -> (pos, (n, v) :: kw))
      ([], []) raw
  in
  { positional = List.rev positional; keyword = List.rev keyword }

let kw args name = List.assoc_opt name args.keyword

let pos args i = List.nth_opt args.positional i

(* An argument that may come positionally (index i) or by keyword. *)
let arg args i name =
  match kw args name with Some v -> Some v | None -> pos args i

let as_num what = function
  | Some (Value.Num f) -> Some f
  | Some Value.Unit | None -> None
  | Some v ->
      error_code "lang.run.type-error" "%s: expected a number, got %s" what
        (Value.type_name v)

let as_str what = function
  | Some (Value.Str s) -> Some s
  | Some Value.Unit | None -> None
  | Some v ->
      error_code "lang.run.type-error" "%s: expected a string, got %s" what
        (Value.type_name v)

let as_obj what = function
  | Some (Value.Obj o) -> Some o
  | Some Value.Unit | None -> None
  | Some v ->
      error_code "lang.run.type-error" "%s: expected an object, got %s" what
        (Value.type_name v)

let req what = function
  | Some v -> v
  | None ->
      error_code "lang.run.missing-argument" "%s: missing required argument"
        what

let nm f = Units.of_um f

let nm_opt = Option.map nm

(* --- builtins --- *)

let builtin_inbox frame args =
  let layer = req "INBOX layer" (as_str "INBOX layer" (arg args 0 "layer")) in
  let w = nm_opt (as_num "INBOX W" (arg args 1 "W")) in
  let l = nm_opt (as_num "INBOX L" (arg args 2 "L")) in
  let net = as_str "INBOX net" (kw args "net") in
  let _ = Prim.inbox frame.ctx.env frame.obj ~layer ?w ?l ?net () in
  Value.Unit

let builtin_array frame args =
  let layer = req "ARRAY layer" (as_str "ARRAY layer" (arg args 0 "layer")) in
  let net = as_str "ARRAY net" (kw args "net") in
  let _ = Prim.array frame.ctx.env frame.obj ~layer ?net () in
  Value.Unit

let builtin_tworects frame args =
  let la = req "TWORECTS layer a" (as_str "TWORECTS" (arg args 0 "a")) in
  let lb = req "TWORECTS layer b" (as_str "TWORECTS" (arg args 1 "b")) in
  let w = nm (req "TWORECTS W" (as_num "TWORECTS W" (arg args 2 "W"))) in
  let l = nm (req "TWORECTS L" (as_num "TWORECTS L" (arg args 3 "L"))) in
  let net_a = as_str "TWORECTS neta" (kw args "neta") in
  let net_b = as_str "TWORECTS netb" (kw args "netb") in
  let orient =
    match as_str "TWORECTS orient" (kw args "orient") with
    | Some "H" -> `Horizontal
    | Some "V" | None -> `Vertical
    | Some o -> error "TWORECTS: bad orient %S (want \"V\" or \"H\")" o
  in
  let _ = Prim.tworects frame.ctx.env frame.obj ~layer_a:la ~layer_b:lb ~w ~l ?net_a ?net_b ~orient () in
  Value.Unit

let builtin_around frame args =
  let layer = req "AROUND layer" (as_str "AROUND layer" (arg args 0 "layer")) in
  let margin = nm_opt (as_num "AROUND margin" (kw args "margin")) in
  let net = as_str "AROUND net" (kw args "net") in
  let _ = Prim.around frame.ctx.env frame.obj ~layer ?margin ?net () in
  Value.Unit

let builtin_ring frame args =
  let layer = req "RING layer" (as_str "RING layer" (arg args 0 "layer")) in
  let width = nm_opt (as_num "RING width" (kw args "width")) in
  let margin = nm_opt (as_num "RING margin" (kw args "margin")) in
  let net = as_str "RING net" (kw args "net") in
  let _ = Prim.ring frame.ctx.env frame.obj ~layer ?width ?margin ?net () in
  Value.Unit

let parse_dir what s =
  match Dir.of_string s with
  | Some d -> d
  | None -> error "%s: bad direction %S" what s

(* --- compact-order recording (for amgen --optimize) ---

   When a recorder is armed, every compact executed at entity call depth 1
   (the entity amgen instantiates) is captured as an {!Optimize.step} so the
   same sequence can be replayed in permuted orders.  A replay is only
   faithful when the depth-1 geometry comes exclusively from compacts, so
   shapes drawn between or after compacts invalidate the recording (with a
   reason) instead of risking a divergent layout; a backtracking CHOOSE
   rolls the recorder back together with the frame. *)

let invalidate r why = if r.rec_invalid = None then r.rec_invalid <- Some why

let active_recorder frame =
  match frame.ctx.recorder with
  | Some r when frame.ctx.depth = 1 && r.rec_invalid = None -> Some r
  | _ -> None

let record_compact frame ~obj ~dir ~ignore_layers ~align ~variable_edges =
  match active_recorder frame with
  | None -> ()
  | Some r ->
      let count = Lobj.shape_count frame.obj in
      (match r.rec_base with
      | None ->
          r.rec_base <- Some (Lobj.copy frame.obj);
          r.rec_shapes <- count
      | Some _ ->
          if count <> r.rec_shapes then
            invalidate r "shapes were drawn between compact calls");
      if r.rec_invalid = None then
        r.rec_steps <-
          Optimize.step ~ignore_layers ~align ~variable_edges (Lobj.copy obj)
            dir
          :: r.rec_steps

let record_compact_done frame =
  match active_recorder frame with
  | None -> ()
  | Some r -> r.rec_shapes <- Lobj.shape_count frame.obj

let builtin_compact frame args =
  let obj = req "compact object" (as_obj "compact object" (pos args 0)) in
  let dir =
    parse_dir "compact"
      (req "compact direction" (as_str "compact direction" (pos args 1)))
  in
  (* Remaining positional strings are the not-relevant layers. *)
  let ignore_layers =
    List.filteri (fun i _ -> i >= 2) args.positional
    |> List.map (function
         | Value.Str s -> s
         | v -> error "compact: ignore layers must be strings, got %s" (Value.type_name v))
  in
  let align =
    match as_str "compact align" (kw args "align") with
    | Some "CENTER" -> `Center
    | Some "MIN" -> `Min
    | Some "MAX" -> `Max
    | Some "KEEP" | None -> `Keep
    | Some a -> error "compact: bad align %S" a
  in
  let variable_edges =
    match kw args "varedges" with
    | Some (Value.Bool b) -> b
    | Some v -> error "compact: varedges must be TRUE or FALSE, got %s" (Value.type_name v)
    | None -> true
  in
  record_compact frame ~obj ~dir ~ignore_layers ~align ~variable_edges;
  Amg_compact.Successive.compact ~rules:(Env.rules frame.ctx.env) ~into:frame.obj
    ~ignore_layers ~align ~variable_edges obj dir;
  record_compact_done frame;
  Value.Unit

let builtin_port frame args =
  let name = req "PORT name" (as_str "PORT name" (arg args 0 "name")) in
  let net = req "PORT net" (as_str "PORT net" (arg args 1 "net")) in
  let layer = req "PORT layer" (as_str "PORT layer" (arg args 2 "layer")) in
  let shapes =
    List.filter
      (fun (s : Amg_layout.Shape.t) -> Amg_layout.Shape.on_layer s layer)
      (Lobj.shapes_on_net frame.obj net)
  in
  (match Rect.hull_list (List.map (fun (s : Amg_layout.Shape.t) -> s.rect) shapes) with
  | Some rect -> ignore (Lobj.add_port frame.obj ~name ~net ~layer ~rect)
  | None -> error "PORT %s: no shapes of net %s on layer %s" name net layer);
  Value.Unit

(* RENAME_NET(obj, "from", "to"): connect a sub-object's formal net to the
   parent's actual net before compacting it in. *)
let builtin_rename_net _frame args =
  let obj = req "RENAME_NET object" (as_obj "RENAME_NET object" (pos args 0)) in
  let from_ = req "RENAME_NET from" (as_str "RENAME_NET" (pos args 1)) in
  let to_ = req "RENAME_NET to" (as_str "RENAME_NET" (pos args 2)) in
  Lobj.rename_net obj ~from_ ~to_;
  Value.Unit

let builtin_mirror _frame args =
  let obj = req "MIRROR object" (as_obj "MIRROR object" (pos args 0)) in
  let axis = req "MIRROR axis" (as_str "MIRROR axis" (pos args 1)) in
  (match axis with
  | "X" -> Lobj.transform obj (Amg_geometry.Transform.of_orientation Amg_geometry.Transform.MX)
  | "Y" -> Lobj.transform obj (Amg_geometry.Transform.of_orientation Amg_geometry.Transform.MY)
  | a -> error "MIRROR: bad axis %S (want \"X\" or \"Y\")" a);
  Value.Unit

let builtin_print frame args =
  List.iter
    (fun v -> Buffer.add_string frame.ctx.out (Fmt.str "%a " Value.pp v))
    args.positional;
  Buffer.add_char frame.ctx.out '\n';
  Value.Unit

(* Geometry queries: measure an object (or the current one) so that module
   code can choose topology variants conditionally — "due to design-rule
   constraints, the designer has to specify different topology
   alternatives" (§2.1).  All results are micrometres / um^2. *)
let measured frame args =
  match as_obj "measure" (pos args 0) with Some o -> o | None -> frame.obj

let builtin_width_of frame args =
  match Lobj.bbox (measured frame args) with
  | Some r -> Value.Num (Units.to_um (Rect.width r))
  | None -> Value.Num 0.

let builtin_height_of frame args =
  match Lobj.bbox (measured frame args) with
  | Some r -> Value.Num (Units.to_um (Rect.height r))
  | None -> Value.Num 0.

let builtin_area_of frame args =
  Value.Num (float_of_int (Lobj.bbox_area (measured frame args)) /. 1.0e6)

(* REJECT("message"): explicit design-rule style rejection, for use inside
   CHOOSE branches. *)
let builtin_reject _frame args =
  let msg =
    Option.value ~default:"rejected" (as_str "REJECT message" (pos args 0))
  in
  Env.reject "%s" msg

(* Numeric helper builtins: module code sizes legs and counts fingers. *)
let numeric_args what args =
  List.map
    (function
      | Value.Num f -> f
      | v -> error "%s: expected numbers, got %s" what (Value.type_name v))
    args.positional

let builtin_min _frame args =
  match numeric_args "MIN" args with
  | [] -> error "MIN: needs at least one argument"
  | x :: xs -> Value.Num (List.fold_left Float.min x xs)

let builtin_max _frame args =
  match numeric_args "MAX" args with
  | [] -> error "MAX: needs at least one argument"
  | x :: xs -> Value.Num (List.fold_left Float.max x xs)

let builtin_abs _frame args =
  match numeric_args "ABS" args with
  | [ x ] -> Value.Num (Float.abs x)
  | _ -> error "ABS: needs exactly one argument"

let builtin_floor _frame args =
  match numeric_args "FLOOR" args with
  | [ x ] -> Value.Num (Float.of_int (int_of_float (Float.floor x)))
  | _ -> error "FLOOR: needs exactly one argument"

let builtin_ceil _frame args =
  match numeric_args "CEIL" args with
  | [ x ] -> Value.Num (Float.of_int (int_of_float (Float.ceil x)))
  | _ -> error "CEIL: needs exactly one argument"

(* --- routing builtins (§2.4's "several routing routines") --- *)

(* WIRE(layer, width, x0,y0, x1,y1, ... , net=): an orthogonal centre-line
   path rendered as overlapping rectangles; coordinates in micrometres
   relative to the current object's origin. *)
let builtin_wire frame args =
  let layer = req "WIRE layer" (as_str "WIRE layer" (pos args 0)) in
  let width = nm (req "WIRE width" (as_num "WIRE width" (pos args 1))) in
  let net = as_str "WIRE net" (kw args "net") in
  let coords =
    List.filteri (fun i _ -> i >= 2) args.positional
    |> List.map (function
         | Value.Num f -> nm f
         | v -> error "WIRE: coordinates must be numbers, got %s" (Value.type_name v))
  in
  let rec pair = function
    | [] -> []
    | x :: y :: rest -> (x, y) :: pair rest
    | [ _ ] -> error "WIRE: odd number of coordinates"
  in
  let points = pair coords in
  if List.length points < 2 then error "WIRE: need at least two points";
  List.iter2
    (fun (x0, y0) (x1, y1) ->
      if x0 <> x1 && y0 <> y1 then
        error "WIRE: segment (%g,%g)-(%g,%g) is diagonal" (Units.to_um x0)
          (Units.to_um y0) (Units.to_um x1) (Units.to_um y1))
    (List.filteri (fun i _ -> i < List.length points - 1) points)
    (List.tl points);
  let _ = Amg_route.Path.draw frame.obj ~layer ~width ?net points in
  Value.Unit

(* VIA(x, y, net=): metal1-metal2 via stack centred at the point. *)
let builtin_via frame args =
  let x = nm (req "VIA x" (as_num "VIA x" (arg args 0 "x"))) in
  let y = nm (req "VIA y" (as_num "VIA y" (arg args 1 "y"))) in
  let net = as_str "VIA net" (kw args "net") in
  let _ = Amg_route.Wire.via frame.ctx.env frame.obj ~at:(x, y) ?net () in
  Value.Unit

(* CONTACT_AT(x, y, landing, net=): single contact landing on the layer. *)
let builtin_contact_at frame args =
  let x = nm (req "CONTACT_AT x" (as_num "CONTACT_AT x" (arg args 0 "x"))) in
  let y = nm (req "CONTACT_AT y" (as_num "CONTACT_AT y" (arg args 1 "y"))) in
  let landing =
    req "CONTACT_AT landing" (as_str "CONTACT_AT landing" (arg args 2 "landing"))
  in
  let net = as_str "CONTACT_AT net" (kw args "net") in
  let _ =
    Amg_route.Wire.contact_at frame.ctx.env frame.obj ~at:(x, y) ~landing ?net ()
  in
  Value.Unit

(* CONNECT("porta", "portb", width=): L-shaped same-layer connection between
   two named ports of the current object. *)
let builtin_connect frame args =
  let pa = req "CONNECT port a" (as_str "CONNECT port a" (pos args 0)) in
  let pb = req "CONNECT port b" (as_str "CONNECT port b" (pos args 1)) in
  let width = nm_opt (as_num "CONNECT width" (kw args "width")) in
  let port what name =
    match Lobj.port frame.obj name with
    | Some p -> p
    | None -> error "CONNECT: %s port %S not found" what name
  in
  let _ =
    Amg_route.Wire.connect_ports frame.ctx.env frame.obj ?width
      (port "first" pa) (port "second" pb)
  in
  Value.Unit

(* --- evaluation --- *)

let rec eval_expr frame (e : Ast.expr) : Value.t =
  match e with
  | Ast.Num f -> Value.Num f
  | Ast.Str s -> Value.Str s
  | Ast.Bool b -> Value.Bool b
  | Ast.Ident name -> lookup frame name
  | Ast.Unop (op, e) -> (
      let v = eval_expr frame e in
      match (op, v) with
      | Ast.Neg, Value.Num f -> Value.Num (-.f)
      | Ast.Not, v -> Value.Bool (not (Value.truthy v))
      | Ast.Neg, v -> error "cannot negate a %s" (Value.type_name v))
  | Ast.Binop (op, a, b) -> eval_binop frame op a b
  | Ast.Call (name, raw_args) -> eval_call frame name raw_args

and eval_binop frame op a b =
  let va = eval_expr frame a in
  match op with
  | Ast.And -> if Value.truthy va then Value.Bool (Value.truthy (eval_expr frame b)) else Value.Bool false
  | Ast.Or -> if Value.truthy va then Value.Bool true else Value.Bool (Value.truthy (eval_expr frame b))
  | _ -> (
      let vb = eval_expr frame b in
      match (op, va, vb) with
      | Ast.Add, Value.Num x, Value.Num y -> Value.Num (x +. y)
      | Ast.Sub, Value.Num x, Value.Num y -> Value.Num (x -. y)
      | Ast.Mul, Value.Num x, Value.Num y -> Value.Num (x *. y)
      | Ast.Div, Value.Num x, Value.Num y ->
          if y = 0. then error_code "lang.run.division-by-zero" "division by zero"
          else Value.Num (x /. y)
      | Ast.Add, Value.Str x, Value.Str y -> Value.Str (x ^ y)
      (* String + number builds derived net names ("seg" + i) in loops. *)
      | Ast.Add, Value.Str x, Value.Num y ->
          Value.Str
            (x
            ^
            if Float.is_integer y then string_of_int (int_of_float y)
            else string_of_float y)
      | Ast.Eq, Value.Num x, Value.Num y -> Value.Bool (x = y)
      | Ast.Eq, Value.Str x, Value.Str y -> Value.Bool (String.equal x y)
      | Ast.Eq, Value.Bool x, Value.Bool y -> Value.Bool (x = y)
      | Ast.Ne, Value.Num x, Value.Num y -> Value.Bool (x <> y)
      | Ast.Ne, Value.Str x, Value.Str y -> Value.Bool (not (String.equal x y))
      | Ast.Lt, Value.Num x, Value.Num y -> Value.Bool (x < y)
      | Ast.Le, Value.Num x, Value.Num y -> Value.Bool (x <= y)
      | Ast.Gt, Value.Num x, Value.Num y -> Value.Bool (x > y)
      | Ast.Ge, Value.Num x, Value.Num y -> Value.Bool (x >= y)
      | _, va, vb ->
          error "bad operands for %s: %s and %s" (Ast.show_binop op)
            (Value.type_name va) (Value.type_name vb))

and eval_call frame name raw_args =
  let args () = split_args frame raw_args eval_expr in
  match name with
  | "INBOX" -> builtin_inbox frame (args ())
  | "ARRAY" -> builtin_array frame (args ())
  | "TWORECTS" -> builtin_tworects frame (args ())
  | "AROUND" -> builtin_around frame (args ())
  | "RING" -> builtin_ring frame (args ())
  | "compact" | "COMPACT" -> builtin_compact frame (args ())
  | "PORT" -> builtin_port frame (args ())
  | "RENAME_NET" -> builtin_rename_net frame (args ())
  | "MIRROR" -> builtin_mirror frame (args ())
  | "PRINT" -> builtin_print frame (args ())
  | "WIDTH_OF" -> builtin_width_of frame (args ())
  | "HEIGHT_OF" -> builtin_height_of frame (args ())
  | "AREA_OF" -> builtin_area_of frame (args ())
  | "REJECT" -> builtin_reject frame (args ())
  | "WIRE" -> builtin_wire frame (args ())
  | "VIA" -> builtin_via frame (args ())
  | "CONTACT_AT" -> builtin_contact_at frame (args ())
  | "CONNECT" -> builtin_connect frame (args ())
  | "MIN" -> builtin_min frame (args ())
  | "MAX" -> builtin_max frame (args ())
  | "ABS" -> builtin_abs frame (args ())
  | "FLOOR" -> builtin_floor frame (args ())
  | "CEIL" -> builtin_ceil frame (args ())
  | _ -> (
      match Ast.find_entity frame.ctx.program name with
      | Some entity -> call_entity frame.ctx name entity raw_args frame
      | None ->
          error_code "lang.run.unknown-name"
            ~hint:"builtins are upper-case (INBOX, WIRE, …); entities must \
                   be declared with ENT before use"
            "unknown function or entity %s" name)

and call_entity ctx name (entity : Ast.entity) raw_args caller =
  let args = split_args caller raw_args eval_expr in
  if ctx.depth >= max_depth then
    error_code "lang.run.recursion-limit"
      "entity call depth exceeds %d (runaway recursion via %s?)" max_depth name;
  ctx.depth <- ctx.depth + 1;
  Fun.protect ~finally:(fun () -> ctx.depth <- ctx.depth - 1) @@ fun () ->
  let callee = new_frame ctx name in
  (* Bind parameters: positional in declaration order, then keywords;
     omitted optional parameters become Unit.  An object argument is
     bound as a copy, as an assignment binds one (§2.5): whatever the
     callee does to its parameter never reaches the caller's object. *)
  List.iteri
    (fun i (p : Ast.param) ->
      let v =
        match kw args p.Ast.pname with
        | Some v -> Some v
        | None -> pos args i
      in
      match v with
      | Some (Value.Obj o) -> Hashtbl.replace callee.vars p.Ast.pname (Value.Obj (Lobj.copy o))
      | Some v -> Hashtbl.replace callee.vars p.Ast.pname v
      | None ->
          if p.Ast.optional then Hashtbl.replace callee.vars p.Ast.pname Value.Unit
          else
            error_code "lang.run.missing-argument"
              "entity %s: missing required parameter %s" name p.Ast.pname)
    entity.Ast.params;
  exec_block callee entity.Ast.body;
  Value.Obj callee.obj

and exec_block frame stmts = List.iter (exec_stmt frame) stmts

and exec_stmt frame (s : Ast.stmt) =
  match s with
  | Ast.Assign (x, e) -> (
      match eval_expr frame e with
      | Value.Obj o ->
          (* Binding an object copies its data structure (§2.5:
             "trans2 = trans1 // copy of trans1"). *)
          Hashtbl.replace frame.vars x (Value.Obj (Lobj.copy ~name:x o))
      | v -> Hashtbl.replace frame.vars x v)
  | Ast.Expr e -> ignore (eval_expr frame e)
  | Ast.If (cond, then_b, else_b) ->
      if Value.truthy (eval_expr frame cond) then exec_block frame then_b
      else exec_block frame else_b
  | Ast.For (var, lo, hi, body) -> (
      match (eval_expr frame lo, eval_expr frame hi) with
      | Value.Num l, Value.Num h ->
          let l = int_of_float l and h = int_of_float h in
          for i = l to h do
            Hashtbl.replace frame.vars var (Value.Num (float_of_int i));
            exec_block frame body
          done
      | _ -> error "FOR: bounds must be numbers")
  | Ast.Choose branches ->
      (* Backtracking (§2.1): try each branch; on a design-rule rejection
         roll the frame back and try the next one.  Objects mutate in place
         (RENAME_NET, MIRROR, a compact mover), so the rollback copies the
         frame's object and every object bound in its variables, and each
         restore installs fresh copies of those.  Assignment and parameter
         binding both copy, so no two of them are one object and a plain
         copy of each is exact.  An armed recorder is rolled back with the
         frame: recorded step objects are frozen copies, so restoring the
         lists restores the recording exactly. *)
      let copy_value = function Value.Obj o -> Value.Obj (Lobj.copy o) | v -> v in
      let snapshot_obj = Lobj.copy frame.obj in
      let snapshot_vars = Hashtbl.copy frame.vars in
      Hashtbl.filter_map_inplace (fun _ v -> Some (copy_value v)) snapshot_vars;
      let rec_snapshot =
        match frame.ctx.recorder with
        | Some r when frame.ctx.depth = 1 ->
            Some (r, r.rec_base, r.rec_steps, r.rec_shapes, r.rec_invalid)
        | _ -> None
      in
      let restore () =
        frame.obj <- Lobj.copy snapshot_obj;
        Hashtbl.reset frame.vars;
        Hashtbl.iter (fun k v -> Hashtbl.replace frame.vars k (copy_value v)) snapshot_vars;
        match rec_snapshot with
        | Some (r, base, steps, shapes, invalid) ->
            r.rec_base <- base;
            r.rec_steps <- steps;
            r.rec_shapes <- shapes;
            r.rec_invalid <- invalid
        | None -> ()
      in
      let rec try_branches = function
        | [] ->
            error_code "lang.run.choose-exhausted"
              ~hint:"every ORELSE alternative ended in REJECT or a \
                     design-rule rejection; relax the constraints or add a \
                     fallback branch"
              "CHOOSE: every alternative was rejected"
        | b :: rest -> (
            try exec_block frame b
            with Env.Rejected _ ->
              restore ();
              try_branches rest)
      in
      try_branches branches

(* --- entry points --- *)

let run env program =
  let ctx = create_ctx env program in
  let top = new_frame ctx "top" in
  exec_block top program.Ast.top;
  (ctx, top.vars)

let build_ctx ctx entity_name raw_args =
  match Ast.find_entity ctx.program entity_name with
  | None ->
      error_code "lang.run.unknown-name"
        ~hint:"entity names are case-sensitive; list them with 'amgen list'"
        "unknown entity %s" entity_name
  | Some entity -> (
      let caller = new_frame ctx "caller" in
      let args =
        List.map
          (fun (name, v) ->
            { Ast.arg_name = Some name;
              arg_value =
                (match v with
                | Value.Num f -> Ast.Num f
                | Value.Str s -> Ast.Str s
                | Value.Bool b -> Ast.Bool b
                | Value.Unit | Value.Obj _ ->
                    error "build: only scalar arguments supported") })
          raw_args
      in
      match call_entity ctx entity_name entity args caller with
      | Value.Obj o -> o
      | _ -> assert false)

let build env program entity_name raw_args =
  build_ctx (create_ctx env program) entity_name raw_args

let finish_recording ctx o =
  match ctx.recorder with
  | None -> Error "recorder was not armed"
  | Some r -> (
      match r.rec_invalid with
      | Some why -> Error why
      | None -> (
          match r.rec_base with
          | None -> Error "entity performed no compacts"
          | Some base ->
              if Lobj.shape_count o <> r.rec_shapes then
                Error "shapes were drawn after the last compact"
              else (
                match List.rev r.rec_steps with
                | [] | [ _ ] ->
                    Error "fewer than two compacts, nothing to reorder"
                | steps -> Ok { base; steps })))

let build_recorded env program entity_name raw_args =
  let ctx = create_ctx env program in
  ctx.recorder <-
    Some { rec_base = None; rec_steps = []; rec_shapes = 0; rec_invalid = None };
  let o = build_ctx ctx entity_name raw_args in
  (o, finish_recording ctx o)

let parse_and_build ?file env src entity_name args =
  build env (Parser.parse_program ?file src) entity_name args
