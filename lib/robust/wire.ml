(* Wire protocol of the generator service: newline-delimited JSON over the
   generic value layer in Diag.Json.  Encoders emit optional fields only
   when present and keep a fixed field order so equal values encode to
   equal bytes (the serving determinism contract). *)

module J = Diag.Json

type param = Pnum of float | Pstr of string
type opt_mode = Orders | Bb | Local
type payload_format = Cif | Svg | No_payload
type op = Build | Sweep | Ping | Stop | Metrics | Health

type request = {
  id : string option;
  op : op;
  entity : string;
  params : (string * param) list;
  optimize : opt_mode option;
  max_evals : int option;
  max_time : float option;
  jobs : int option;
  tenant : string option;
  format : payload_format;
  permissive : bool;
  stats : bool;
  json : bool;
  inject : string option;
  spec : string option;
}

let build ?id ?(params = []) ?optimize ?max_evals ?max_time ?jobs ?tenant
    ?(format = Cif) ?(permissive = false) ?(stats = false) ?inject entity =
  {
    id;
    op = Build;
    entity;
    params;
    optimize;
    max_evals;
    max_time;
    jobs;
    tenant;
    format;
    permissive;
    stats;
    json = false;
    inject;
    spec = None;
  }

let sweep ?id ?jobs ?tenant ?(stats = false) spec =
  {
    id;
    op = Sweep;
    entity = "";
    params = [];
    optimize = None;
    max_evals = None;
    max_time = None;
    jobs;
    tenant;
    format = No_payload;
    permissive = false;
    stats;
    json = false;
    inject = None;
    spec = Some spec;
  }

let control op ?id ?(json = false) () =
  {
    id;
    op;
    entity = "";
    params = [];
    optimize = None;
    max_evals = None;
    max_time = None;
    jobs = None;
    tenant = None;
    format = No_payload;
    permissive = false;
    stats = false;
    json;
    inject = None;
    spec = None;
  }

let ping ?id () = control Ping ?id ()
let stop ?id () = control Stop ?id ()
let metrics ?id ?json () = control Metrics ?id ?json ()
let health ?id () = control Health ?id ()

type server_stats = { elapsed_ms : float; queue_depth : int }

type response = {
  id : string option;
  status : int;
  rating : float option;
  format : payload_format;
  payload : string option;
  diagnostics : Diag.t list;
  stats : server_stats option;
}

let status_ok = 0
let status_diag = 1
let status_reject = 2
let status_degraded = 3

let response ?id ?rating ?(format = No_payload) ?payload ?(diagnostics = [])
    ?stats status =
  { id; status; rating; format; payload; diagnostics; stats }

(* --- names ------------------------------------------------------------ *)

let op_to_string = function
  | Build -> "build"
  | Sweep -> "sweep"
  | Ping -> "ping"
  | Stop -> "stop"
  | Metrics -> "metrics"
  | Health -> "health"

let op_of_string = function
  | "build" -> Some Build
  | "sweep" -> Some Sweep
  | "ping" -> Some Ping
  | "stop" -> Some Stop
  | "metrics" -> Some Metrics
  | "health" -> Some Health
  | _ -> None

let opt_modes = [ ("orders", Orders); ("bb", Bb); ("local", Local) ]
let opt_to_string m = fst (List.find (fun (_, m') -> m' = m) opt_modes)
let opt_of_string s = List.assoc_opt s opt_modes

let format_to_string = function
  | Cif -> "cif"
  | Svg -> "svg"
  | No_payload -> "none"

let format_of_string = function
  | "cif" -> Some Cif
  | "svg" -> Some Svg
  | "none" -> Some No_payload
  | _ -> None

(* The format a decoder assumes when the field is absent; the encoder
   omits the field exactly in that case. *)
let default_format = function
  | Build -> Cif
  | Sweep | Ping | Stop | Metrics | Health -> No_payload

(* --- encoding --------------------------------------------------------- *)

let encode_request (r : request) =
  let open J in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun s -> ("id", Jstr s)) r.id;
        Some ("op", Jstr (op_to_string r.op));
        (if r.entity <> "" then Some ("entity", Jstr r.entity) else None);
        (if r.params <> [] then
           Some
             ( "params",
               Jobj
                 (List.map
                    (fun (k, p) ->
                      (k, match p with Pnum f -> Jnum f | Pstr s -> Jstr s))
                    r.params) )
         else None);
        Option.map (fun m -> ("optimize", Jstr (opt_to_string m))) r.optimize;
        Option.map (fun n -> ("max_evals", Jnum (float_of_int n))) r.max_evals;
        Option.map (fun f -> ("max_time", Jnum f)) r.max_time;
        Option.map (fun n -> ("jobs", Jnum (float_of_int n))) r.jobs;
        Option.map (fun s -> ("tenant", Jstr s)) r.tenant;
        (if r.format <> default_format r.op then
           Some ("format", Jstr (format_to_string r.format))
         else None);
        (if r.permissive then Some ("permissive", Jbool true) else None);
        (if r.stats then Some ("stats", Jbool true) else None);
        (if r.json then Some ("json", Jbool true) else None);
        Option.map (fun s -> ("inject", Jstr s)) r.inject;
        Option.map (fun s -> ("spec", Jstr s)) r.spec;
      ]
  in
  J.to_string (Jobj fields)

let encode_response (r : response) =
  let open J in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun s -> ("id", Jstr s)) r.id;
        Some ("status", Jnum (float_of_int r.status));
        Option.map (fun f -> ("rating", Jnum f)) r.rating;
        (if r.format <> No_payload then
           Some ("format", Jstr (format_to_string r.format))
         else None);
        Option.map (fun s -> ("payload", Jstr s)) r.payload;
        Some ("diagnostics", Jarr (List.map Diag.to_value r.diagnostics));
        Option.map
          (fun s ->
            ( "stats",
              Jobj
                [
                  ("elapsed_ms", Jnum s.elapsed_ms);
                  ("queue_depth", Jnum (float_of_int s.queue_depth));
                ] ))
          r.stats;
      ]
  in
  J.to_string (Jobj fields)

(* --- decoding --------------------------------------------------------- *)

let ( let* ) = Result.bind

let opt_str name v =
  match J.member name v with
  | None | Some J.Jnull -> Ok None
  | Some (J.Jstr s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

(* [int_of_float] is unspecified for nan and for doubles outside
   [min_int, max_int], so integer fields reject anything that is not a
   finite integral double in a sane range instead of decoding to an
   arbitrary value. *)
let int_bound = 1e9

let as_int name f =
  if Float.is_integer f && Float.abs f <= int_bound then Ok (int_of_float f)
  else
    Error
      (Printf.sprintf "field %S must be an integer with magnitude at most %.0f"
         name int_bound)

let opt_int name v =
  match J.member name v with
  | None | Some J.Jnull -> Ok None
  | Some (J.Jnum f) ->
      let* n = as_int name f in
      Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let opt_num name v =
  match J.member name v with
  | None | Some J.Jnull -> Ok None
  | Some (J.Jnum f) ->
      if Float.is_finite f then Ok (Some f)
      else Error (Printf.sprintf "field %S must be a finite number" name)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let opt_flag name v =
  match J.member name v with
  | None | Some J.Jnull -> Ok false
  | Some (J.Jbool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let opt_enum name of_string ~default v =
  match J.member name v with
  | None | Some J.Jnull -> Ok default
  | Some (J.Jstr s) -> (
      match of_string s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: unknown value %S" name s))
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let decode_request line =
  let* v = J.of_string line in
  match v with
  | J.Jobj _ ->
      let* id = opt_str "id" v in
      let* op =
        match J.member "op" v with
        | Some (J.Jstr s) -> (
            match op_of_string s with
            | Some op -> Ok op
            | None -> Error (Printf.sprintf "field \"op\": unknown value %S" s))
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing field \"op\""
      in
      let* entity =
        match J.member "entity" v with
        | None | Some J.Jnull -> Ok ""
        | Some (J.Jstr s) -> Ok s
        | Some _ -> Error "field \"entity\" must be a string"
      in
      let* params =
        match J.member "params" v with
        | None | Some J.Jnull -> Ok []
        | Some (J.Jobj kvs) ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | (k, J.Jnum f) :: rest -> go ((k, Pnum f) :: acc) rest
              | (k, J.Jstr s) :: rest -> go ((k, Pstr s) :: acc) rest
              | (k, _) :: _ ->
                  Error
                    (Printf.sprintf "parameter %S must be a number or a string"
                       k)
            in
            go [] kvs
        | Some _ -> Error "field \"params\" must be an object"
      in
      let* optimize =
        match J.member "optimize" v with
        | None | Some J.Jnull -> Ok None
        | Some (J.Jstr s) -> (
            match opt_of_string s with
            | Some m -> Ok (Some m)
            | None ->
                Error
                  (Printf.sprintf "field \"optimize\": unknown value %S" s))
        | Some _ -> Error "field \"optimize\" must be a string"
      in
      let* max_evals = opt_int "max_evals" v in
      let* max_time = opt_num "max_time" v in
      let* jobs = opt_int "jobs" v in
      let* tenant = opt_str "tenant" v in
      let* format =
        opt_enum "format" format_of_string ~default:(default_format op) v
      in
      let* permissive = opt_flag "permissive" v in
      let* stats = opt_flag "stats" v in
      let* json = opt_flag "json" v in
      let* inject = opt_str "inject" v in
      let* spec = opt_str "spec" v in
      Ok
        {
          id;
          op;
          entity;
          params;
          optimize;
          max_evals;
          max_time;
          jobs;
          tenant;
          format;
          permissive;
          stats;
          json;
          inject;
          spec;
        }
  | _ -> Error "request must be a JSON object"

let decode_response line =
  let* v = J.of_string line in
  match v with
  | J.Jobj _ ->
      let* id = opt_str "id" v in
      let* status =
        match J.member "status" v with
        | Some (J.Jnum f) -> as_int "status" f
        | Some _ -> Error "field \"status\" must be a number"
        | None -> Error "missing field \"status\""
      in
      let* rating = opt_num "rating" v in
      let* format = opt_enum "format" format_of_string ~default:No_payload v in
      let* payload = opt_str "payload" v in
      let* diagnostics =
        match J.member "diagnostics" v with
        | None | Some J.Jnull -> Ok []
        | Some (J.Jarr items) ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | item :: rest ->
                  let* d = Diag.of_value item in
                  go (d :: acc) rest
            in
            go [] items
        | Some _ -> Error "field \"diagnostics\" must be an array"
      in
      let* stats =
        match J.member "stats" v with
        | None | Some J.Jnull -> Ok None
        | Some (J.Jobj _ as s) ->
            let need name =
              match J.member name s with
              | Some (J.Jnum f) -> Ok f
              | _ ->
                  Error (Printf.sprintf "stats field %S must be a number" name)
            in
            let need_int name =
              let* f = need name in
              as_int name f
            in
            let* elapsed_ms = need "elapsed_ms" in
            let* queue_depth = need_int "queue_depth" in
            Ok (Some { elapsed_ms; queue_depth })
        | Some _ -> Error "field \"stats\" must be an object"
      in
      Ok { id; status; rating; format; payload; diagnostics; stats }
  | _ -> Error "response must be a JSON object"

(* --- sweep row events --------------------------------------------------

   While a sweep runs, the daemon interleaves one row event per output
   line before the final response.  Clients tell the two apart by the
   ["row"] member: responses never carry one. *)

let encode_sweep_row ~index line =
  J.to_string
    (J.Jobj [ ("row", J.Jnum (float_of_int index)); ("line", J.Jstr line) ])

let decode_sweep_row s =
  match J.of_string s with
  | Error _ -> None
  | Ok v -> (
      match (J.member "row" v, J.member "line" v) with
      | Some (J.Jnum f), Some (J.Jstr line)
        when Float.is_integer f && Float.abs f <= int_bound ->
          Some (int_of_float f, line)
      | _ -> None)
