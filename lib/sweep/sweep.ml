(* Batch parameter-grid sweeps: Gray-code walk as the canonical row
   order, one pool task per instance, incremental columnar output.

   The result file is a pure function of the spec — scheduling (domain
   count, shuffled ablation) and the result store can only move wall
   time, never bytes.  Instances share no search state: each
   one's canonical build allocates fresh steps, so neighbours on the walk
   are not cheaper to build together.  See DESIGN.md §15. *)

module Env = Amg_core.Env
module Rating = Amg_core.Rating
module Generate = Amg_lang.Generate
module Value = Amg_lang.Value
module Stats = Amg_layout.Stats
module Connectivity = Amg_extract.Connectivity
module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Wire = Amg_robust.Wire
module Pool = Amg_parallel.Pool
module Store = Amg_store.Store
module Counters = Amg_obs.Counters
module Metrics = Amg_obs.Metrics

type axis = { a_name : string; a_values : Value.t list }
type spec = { s_entity : string; s_axes : axis list; s_mode : Wire.opt_mode }

let max_grid = 1_000_000
let bad_spec fmt = Diag.failf Diag.Cli ~code:"sweep.bad-spec" fmt

(* CSV cells are split on ',' and compared byte-wise, so string values
   must not need quoting. *)
let csv_safe s =
  String.for_all (fun c -> c <> ',' && c <> '"' && Char.code c >= 0x20) s

let json_num f = Diag.Json.to_string (Diag.Json.Jnum f)

let value_cell = function
  | Value.Num f -> json_num f
  | Value.Str s -> s
  | Value.Bool b -> string_of_bool b
  | Value.Obj _ | Value.Unit -> ""

(* --- spec parsing ------------------------------------------------------ *)

let range_values ~name from_ to_ step =
  if step <= 0. then bad_spec "axis %s: step must be > 0" name
  else if to_ < from_ then bad_spec "axis %s: to < from" name
  else
    let n = int_of_float (((to_ -. from_) /. step) +. 1e-9) + 1 in
    if n > max_grid then bad_spec "axis %s: range expands to %d values" name n
    else List.init n (fun i -> Value.Num (from_ +. (float_of_int i *. step)))

let axis_values name j =
  let module J = Diag.Json in
  match j with
  | J.Jarr [] -> bad_spec "axis %s: empty value list" name
  | J.Jarr vs ->
      List.map
        (function
          | J.Jnum f -> Value.Num f
          | J.Jstr s ->
              if csv_safe s then Value.Str s
              else bad_spec "axis %s: value %S is not CSV-safe" name s
          | _ -> bad_spec "axis %s: values must be numbers or strings" name)
        vs
  | J.Jobj _ -> (
      let num field =
        match J.member field j with
        | None -> None
        | Some v -> (
            match J.num v with
            | Some f -> Some f
            | None ->
                bad_spec "axis %s: \"%s\" must be a number" name field)
      in
      match (num "from", num "to", num "step") with
      | Some f, Some t, Some s -> range_values ~name f t s
      | Some f, Some t, None -> range_values ~name f t 1.
      | _ -> bad_spec "axis %s: a range needs numeric \"from\" and \"to\"" name)
  | _ -> bad_spec "axis %s: expected a value array or a from/to/step range" name

let homogeneous name values =
  let nums = List.for_all (function Value.Num _ -> true | _ -> false) values
  and strs = List.for_all (function Value.Str _ -> true | _ -> false) values in
  if not (nums || strs) then
    bad_spec "axis %s: cannot mix numeric and string values" name

let parse_spec ?file src =
  let module J = Diag.Json in
  let j =
    match J.of_string src with
    | Ok j -> j
    | Error e ->
        bad_spec "%s: %s"
          (match file with Some f -> f | None -> "sweep spec")
          e
  in
  let entity =
    match Option.bind (J.member "entity" j) J.str with
    | Some e when e <> "" -> e
    | _ -> bad_spec "spec needs an \"entity\" string"
  in
  let mode =
    match J.member "optimize" j with
    | None -> Wire.Local
    | Some m -> (
        match Option.bind (J.str m) Wire.opt_of_string with
        | Some m -> m
        | None -> bad_spec "\"optimize\" must be \"orders\", \"bb\" or \"local\"")
  in
  let axes =
    match J.member "params" j with
    | Some (J.Jobj fields) when fields <> [] ->
        List.map
          (fun (name, jv) ->
            if name = "" || not (csv_safe name) then
              bad_spec "bad axis name %S" name;
            let values = axis_values name jv in
            homogeneous name values;
            { a_name = name; a_values = values })
          fields
    | _ -> bad_spec "spec needs a non-empty \"params\" object"
  in
  let axes =
    List.sort (fun a b -> String.compare a.a_name b.a_name) axes
  in
  (match
     List.fold_left
       (fun prev a ->
         if prev = a.a_name then bad_spec "duplicate axis %s" a.a_name;
         a.a_name)
       "" axes
   with
  | _ -> ());
  let size =
    List.fold_left
      (fun acc a ->
        let n = acc * List.length a.a_values in
        if n > max_grid || n < acc then
          bad_spec "grid larger than %d instances" max_grid
        else n)
      1 axes
  in
  ignore size;
  { s_entity = entity; s_axes = axes; s_mode = mode }

let grid_size spec =
  List.fold_left (fun acc a -> acc * List.length a.a_values) 1 spec.s_axes

(* --- canonical instance list ------------------------------------------- *)

(* Mixed-radix reflected Gray-code walk: the sub-walk direction flips
   with the parity of the digit above it, so consecutive index vectors
   differ in exactly one digit, by exactly one — a Hamiltonian
   nearest-neighbour path over the grid. *)
let rec gray_walk = function
  | [] -> [ [] ]
  | radix :: rest ->
      let sub = gray_walk rest in
      let rsub = List.rev sub in
      List.concat
        (List.init radix (fun i ->
             List.map
               (fun tl -> i :: tl)
               (if i mod 2 = 0 then sub else rsub)))

let instances spec =
  let axes = Array.of_list spec.s_axes in
  let values = Array.map (fun a -> Array.of_list a.a_values) axes in
  let walk = gray_walk (Array.to_list (Array.map Array.length values)) in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun digits ->
      let inst =
        List.mapi (fun ax i -> (axes.(ax).a_name, values.(ax).(i))) digits
      in
      let key = Generate.store_key ~tech:"" spec.s_entity inst in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some inst
      end)
    walk

(* --- columnar format --------------------------------------------------- *)

let metric_columns =
  [
    ("status", "str");
    ("rating", "num");
    ("area_um2", "num");
    ("w_um", "num");
    ("h_um", "num");
    ("shapes", "int");
    ("density", "num");
    ("net_wl_um", "num");
    ("sym_um", "num");
    ("diags", "str");
  ]

let axis_type a =
  if List.for_all (function Value.Num _ -> true | _ -> false) a.a_values then
    "num"
  else "str"

let columns spec =
  (("entity", "str") :: List.map (fun a -> (a.a_name, axis_type a)) spec.s_axes)
  @ metric_columns

let header_line spec ~rows =
  let module J = Diag.Json in
  let value_json = function
    | Value.Num f -> J.Jnum f
    | v -> J.Jstr (value_cell v)
  in
  J.to_string
    (J.Jobj
       [
         ("sweep", J.Jnum 1.);
         ("entity", J.Jstr spec.s_entity);
         ("mode", J.Jstr (Wire.opt_to_string spec.s_mode));
         ( "axes",
           J.Jarr
             (List.map
                (fun a ->
                  J.Jobj
                    [
                      ("name", J.Jstr a.a_name);
                      ("values", J.Jarr (List.map value_json a.a_values));
                    ])
                spec.s_axes) );
         ( "columns",
           J.Jarr
             (List.map
                (fun (n, t) ->
                  J.Jobj [ ("name", J.Jstr n); ("type", J.Jstr t) ])
                (columns spec)) );
         ("rows", J.Jnum (float_of_int rows));
       ])

let column_line spec = String.concat "," (List.map fst (columns spec))

(* --- per-instance execution -------------------------------------------- *)

type metrics_row = {
  m_rating : float;
  m_area : float;
  m_w : float;
  m_h : float;
  m_shapes : int;
  m_density : float;
  m_net_wl : float;
  m_sym : float;
}

let measure env rating obj =
  let st = Stats.of_lobj obj in
  let w, h =
    match st.Stats.bbox with
    | None -> (0., 0.)
    | Some r -> (Units.to_um (Rect.width r), Units.to_um (Rect.height r))
  in
  let conn = Connectivity.build ~tech:(Env.tech env) obj in
  let net_wl =
    List.fold_left
      (fun acc n -> acc +. Connectivity.net_wirelength_um conn n)
      0.
      (Connectivity.labeled_nets conn)
  in
  {
    m_rating = rating;
    m_area = st.Stats.bbox_area_um2;
    m_w = w;
    m_h = h;
    m_shapes = st.Stats.shape_count;
    m_density = st.Stats.density;
    m_net_wl = net_wl;
    m_sym = Stats.symmetry_error_um obj;
  }

(* Build and optimize one instance: its metrics and its search's report.
   The inner search always runs on one domain — the sweep parallelizes
   across instances, and §7 makes the result independent of the split —
   and under a per-row diagnostic capture, so a parallel sweep can
   attribute reports to their row. *)
let run_instance env program request =
  Policy.capture @@ fun () ->
  Diag.guard ~convert:Generate.convert_exn @@ fun () ->
  let o = Generate.run env program request in
  let rating =
    match o.Generate.searched with
    | Some s -> s.Generate.rating
    | None -> Rating.rate env Rating.default o.Generate.layout
  in
  (measure env rating o.Generate.layout, o.Generate.searched)

(* --- rendering --------------------------------------------------------- *)

let diag_codes diags =
  String.concat ";" (List.map (fun (d : Diag.t) -> d.Diag.code) diags)

let render_row ~entity params outcome diags =
  let cells =
    match outcome with
    | Ok (m, _) ->
        [
          "ok";
          json_num m.m_rating;
          json_num m.m_area;
          json_num m.m_w;
          json_num m.m_h;
          string_of_int m.m_shapes;
          json_num m.m_density;
          json_num m.m_net_wl;
          json_num m.m_sym;
          diag_codes diags;
        ]
    | Error (d : Diag.t) ->
        [ d.Diag.code; ""; ""; ""; ""; ""; ""; ""; ""; diag_codes diags ]
  in
  String.concat ","
    ((entity :: List.map (fun (_, v) -> value_cell v) params) @ cells)

(* --- ordered incremental writer ---------------------------------------- *)

(* Rows complete in scheduling order but leave in canonical order: each
   finished row parks until the prefix before it is complete, then the
   whole ready run flushes.  A killed sweep therefore keeps exactly the
   canonical prefix that was finished.  A row's store records leave with
   it ([stored], right after its line), so the store's log follows the
   same order. *)
type writer = {
  w_lock : Mutex.t;
  w_pending : (int, string * (unit -> unit)) Hashtbl.t;
  mutable w_next : int;
  w_emit : string -> unit;
}

let writer_push w i line ~stored =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () ->
      Hashtbl.replace w.w_pending i (line, stored);
      while Hashtbl.mem w.w_pending w.w_next do
        let line, stored = Hashtbl.find w.w_pending w.w_next in
        w.w_emit line;
        stored ();
        Hashtbl.remove w.w_pending w.w_next;
        w.w_next <- w.w_next + 1
      done)

(* --- the engine -------------------------------------------------------- *)

(* The share of the current sweep's rows that are finished. *)
let progress = Metrics.fgauge "sweep_progress"

type result = {
  rows : int;
  failures : int;
  duplicates : int;
  store_hits : int;
  cost : int;
  elapsed_s : float;
}

let run ?(domains = 1) ?(shuffle = false) ?store ?source_file ~on_line ~env
    ~source spec =
  if domains < 1 then invalid_arg "Sweep.run: domains < 1";
  let t0 = Unix.gettimeofday () in
  Counters.incr Counters.sweep_runs;
  let program = Amg_lang.Parser.parse_program ?file:source_file source in
  let insts = Array.of_list (instances spec) in
  let n = Array.length insts in
  let duplicates = grid_size spec - n in
  (* The fingerprint is taken before the pool starts: tasks only read it. *)
  let store = Option.map (fun st -> (st, Generate.tech_fingerprint env)) store in
  let request params =
    Generate.request ~search:spec.s_mode ~domains:1
      ?store:
        (Option.map
           (fun (st, tech) -> (st, Generate.store_key ~tech spec.s_entity params))
           store)
      spec.s_entity params
  in
  let w =
    {
      w_lock = Mutex.create ();
      w_pending = Hashtbl.create 64;
      w_next = 0;
      w_emit = on_line;
    }
  in
  on_line (header_line spec ~rows:n);
  on_line (column_line spec);
  let failures = Atomic.make 0 in
  let store_hits = Atomic.make 0 in
  let cost = Atomic.make 0 in
  let completed = Atomic.make 0 in
  (* Failed rows also surface through the policy sink — in canonical row
     order, reported after the pool joins, so boundaries that drain the
     sink (CLI stderr, the daemon's response diagnostics) stay
     byte-deterministic for every schedule. *)
  let errs = Array.make (Int.max n 1) None in
  let run_one i =
    let params = insts.(i) in
    let (outcome, diags), stored =
      match store with
      | Some (st, _) -> Store.deferred st (fun () -> run_instance env program (request params))
      | None -> (run_instance env program (request params), ignore)
    in
    let status =
      match outcome with
      | Ok (_, Some (s : Generate.searched)) ->
          ignore (Atomic.fetch_and_add cost s.cost);
          if s.from_store then Atomic.incr store_hits;
          "ok"
      | Ok (_, None) -> "ok"
      | Error d ->
          errs.(i) <- Some d;
          Atomic.incr failures;
          "error"
    in
    Counters.incr Counters.sweep_instances ~labels:[ status ];
    writer_push w i (render_row ~entity:spec.s_entity params outcome diags) ~stored;
    let done_ = Atomic.fetch_and_add completed 1 + 1 in
    Metrics.set_f progress (if n = 0 then 1. else float_of_int done_ /. float_of_int n)
  in
  (* Scheduling order: the walk itself, or a deterministically shuffled
     ablation of it.  Rows still leave in walk order either way. *)
  let sched = Array.init n Fun.id in
  if shuffle then begin
    let st = Random.State.make [| 0x535745; n |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = sched.(i) in
      sched.(i) <- sched.(j);
      sched.(j) <- tmp
    done
  end;
  if n > 0 then
    Pool.with_pool ~domains (fun pool -> ignore (Pool.map_array pool run_one sched));
  Array.iteri
    (fun i d ->
      Option.iter
        (fun (d : Diag.t) ->
          Policy.report
            { d with Diag.payload = ("row", string_of_int i) :: d.Diag.payload })
        d)
    errs;
  {
    rows = n;
    failures = Atomic.get failures;
    duplicates;
    store_hits = Atomic.get store_hits;
    cost = Atomic.get cost;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

(* --- result-file validation -------------------------------------------- *)

let split_csv line = String.split_on_char ',' line

let check_file path =
  let module J = Diag.Json in
  let ( let* ) = Result.bind in
  let read_lines () =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  match read_lines () with
  | exception Sys_error e -> Error e
  | [] -> Error "empty file: no schema header"
  | header :: rest ->
      let* j =
        Result.map_error (fun e -> "bad schema header: " ^ e)
          (J.of_string header)
      in
      let* () =
        match Option.bind (J.member "sweep" j) J.int with
        | Some 1 -> Ok ()
        | _ -> Error "bad schema header: missing \"sweep\":1"
      in
      let* cols =
        match J.member "columns" j with
        | Some (J.Jarr cols) ->
            List.fold_left
              (fun acc c ->
                let* acc = acc in
                match
                  ( Option.bind (J.member "name" c) J.str,
                    Option.bind (J.member "type" c) J.str )
                with
                | Some name, Some ty when List.mem ty [ "str"; "num"; "int" ]
                  ->
                    Ok ((name, ty) :: acc)
                | _ -> Error "bad schema header: malformed column entry")
              (Ok []) cols
            |> Result.map List.rev
        | _ -> Error "bad schema header: missing \"columns\""
      in
      let* announced =
        match Option.bind (J.member "rows" j) J.int with
        | Some r when r >= 0 -> Ok r
        | _ -> Error "bad schema header: missing \"rows\""
      in
      let* rows =
        match rest with
        | [] -> Error "missing column line"
        | col_line :: rows ->
            if col_line <> String.concat "," (List.map fst cols) then
              Error "column line does not match the schema header"
            else Ok rows
      in
      let ncols = List.length cols in
      let check_cell (name, ty) cell =
        let ok =
          match ty with
          | "str" -> csv_safe cell
          | "num" -> cell = "" || Option.is_some (float_of_string_opt cell)
          | "int" -> cell = "" || Option.is_some (int_of_string_opt cell)
          | _ -> false
        in
        if ok then Ok () else Error (Fmt.str "bad %s cell %S" name cell)
      in
      let* count =
        List.fold_left
          (fun acc row ->
            let* i = acc in
            let cells = split_csv row in
            if List.length cells <> ncols then
              Error (Fmt.str "row %d: %d cells, expected %d" i
                       (List.length cells) ncols)
            else
              let* () =
                List.fold_left2
                  (fun acc col cell ->
                    let* () = acc in
                    Result.map_error (Fmt.str "row %d: %s" i) (check_cell col cell))
                  (Ok ()) cols cells
              in
              Ok (i + 1))
          (Ok 0) rows
      in
      if count > announced then
        Error
          (Fmt.str "%d rows but the header announced %d" count announced)
      else Ok count
