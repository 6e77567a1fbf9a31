(* Chrome trace-event export and validation.

   [write] serialises the recorded event stream into the JSON object
   format of the Trace Event specification — loadable in about://tracing
   and Perfetto.  Spans become duration pairs ("ph":"B"/"E"), marks
   become instant events ("ph":"i"), and counter totals are appended as
   one "C" event each so they show up as counter tracks.  The layout is
   fixed (one event per line, microsecond timestamps to 0.001) and every
   string goes through the shared JSON escaper, [Diag.Json].

   [validate] is the schema check the CI job (and `amgen trace-lint`)
   runs over an emitted file: well-formed JSON, the required keys on
   every event, per-(pid, tid) monotonic timestamps, and strictly
   matched, properly nested B/E pairs.  It reads through the same
   [Diag.Json] parser as the wire protocol and the diagnostics reports. *)

module Json = Amg_robust.Diag.Json

(* A string-valued object in the shared writer's bytes. *)
let add_strings b kvs =
  Json.to_buffer b (Json.Jobj (List.map (fun (k, v) -> (k, Json.Jstr v)) kvs))

let us ts = ts *. 1.0e6

let events_to_string ?(metadata = []) ?(counters = []) evs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  "
  in
  let common ~name ~ph ~tid ~ts =
    Buffer.add_string b "{\"name\":";
    Json.to_buffer b (Json.Jstr name);
    Buffer.add_string b (Printf.sprintf ",\"cat\":\"amg\",\"ph\":\"%s\"" ph);
    Buffer.add_string b (Printf.sprintf ",\"ts\":%.3f,\"pid\":0,\"tid\":%d" (us ts) tid)
  in
  let last_ts = ref 0. in
  List.iter
    (fun ev ->
      sep ();
      (match ev with
      | Obs.Begin { name; tid; ts } ->
          last_ts := Float.max !last_ts ts;
          common ~name ~ph:"B" ~tid ~ts;
          Buffer.add_char b '}'
      | Obs.End { name; tid; ts } ->
          last_ts := Float.max !last_ts ts;
          common ~name ~ph:"E" ~tid ~ts;
          Buffer.add_char b '}'
      | Obs.Mark { name; tid; ts; args } ->
          last_ts := Float.max !last_ts ts;
          common ~name ~ph:"i" ~tid ~ts;
          Buffer.add_string b ",\"s\":\"t\",\"args\":";
          add_strings b args;
          Buffer.add_char b '}'))
    evs;
  (* Counter totals as one "C" sample each, on the root thread at the
     final timestamp, so Perfetto shows them as counter tracks. *)
  List.iter
    (fun (name, v) ->
      sep ();
      common ~name ~ph:"C" ~tid:0 ~ts:!last_ts;
      Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%d}}" v))
    counters;
  Buffer.add_string b "\n]";
  if metadata <> [] then begin
    Buffer.add_string b ",\"metadata\":";
    add_strings b metadata
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

let to_string () =
  events_to_string ~counters:(Obs.counters ()) (Obs.events ())

let write_string path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write path = write_string path (to_string ())

let write_events ?metadata ?counters path evs =
  write_string path (events_to_string ?metadata ?counters evs)

(* --- validator --- *)

type summary = {
  v_events : int;
  v_threads : int;
  v_spans : int;
  v_marks : int;
  v_request_id : string option;
}

(* Per-request traces exported by the serve daemon carry a top-level
   "metadata" object; when present it must identify the request.  Whole-
   run traces have no metadata object and stay valid unchanged. *)
let check_metadata (j : Json.t) : (string option, string) result =
  match j with
  | Jobj _ -> (
      match Json.member "metadata" j with
      | None -> Ok None
      | Some (Jobj _ as m) -> (
          match Json.member "request_id" m with
          | Some (Jstr s) when s <> "" -> Ok (Some s)
          | Some (Jstr _) -> Error "metadata.request_id is empty"
          | Some _ -> Error "metadata.request_id is not a string"
          | None -> Error "metadata object lacks \"request_id\"")
      | Some _ -> Error "\"metadata\" is not an object")
  | _ -> Ok None

let validate (j : Json.t) : (summary, string) result =
  let events =
    match j with
    | Jobj _ -> (
        match Json.member "traceEvents" j with
        | Some (Jarr evs) -> Ok evs
        | Some _ -> Error "\"traceEvents\" is not an array"
        | None -> Error "missing \"traceEvents\" key")
    | Jarr evs -> Ok evs (* the spec's bare array format *)
    | _ -> Error "top level is neither an object nor an array"
  in
  match (events, check_metadata j) with
  | (Error _ as e), _ -> e
  | _, Error e -> Error e
  | Ok evs, Ok request_id -> (
      (* Per-(pid, tid) state: last ts and the open B stack. *)
      let threads : (int * int, float ref * string list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let spans = ref 0 and marks = ref 0 in
      let check i ev =
        let str k =
          match Option.bind (Json.member k ev) Json.str with
          | Some s -> Ok s
          | _ -> Error (Printf.sprintf "event %d: missing string %S" i k)
        in
        let num k =
          match Option.bind (Json.member k ev) Json.num with
          | Some f -> Ok f
          | _ -> Error (Printf.sprintf "event %d: missing number %S" i k)
        in
        let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
        let* name = str "name" in
        let* ph = str "ph" in
        let* ts = num "ts" in
        let* pid = num "pid" in
        let* tid = num "tid" in
        let key = (int_of_float pid, int_of_float tid) in
        let last, stack =
          match Hashtbl.find_opt threads key with
          | Some st -> st
          | None ->
              let st = (ref neg_infinity, ref []) in
              Hashtbl.replace threads key st;
              st
        in
        if ts < !last then
          Error
            (Printf.sprintf
               "event %d (%s): ts %.3f goes backwards on pid %d tid %d (last %.3f)"
               i name ts (fst key) (snd key) !last)
        else begin
          last := ts;
          match ph with
          | "B" ->
              stack := name :: !stack;
              Ok ()
          | "E" -> (
              match !stack with
              | [] ->
                  Error
                    (Printf.sprintf "event %d: E %S without matching B on tid %d"
                       i name (snd key))
              | top :: rest ->
                  if String.equal top name then begin
                    stack := rest;
                    incr spans;
                    Ok ()
                  end
                  else
                    Error
                      (Printf.sprintf
                         "event %d: E %S does not match open B %S on tid %d" i
                         name top (snd key)))
          | "i" | "I" ->
              incr marks;
              Ok ()
          | "C" | "M" | "X" -> Ok ()
          | ph -> Error (Printf.sprintf "event %d: unknown phase %S" i ph)
        end
      in
      let rec go i = function
        | [] -> Ok ()
        | ev :: rest -> (
            match check i ev with Ok () -> go (i + 1) rest | Error _ as e -> e)
      in
      match go 0 evs with
      | Error _ as e -> e
      | Ok () ->
          let unmatched =
            Hashtbl.fold
              (fun (_, tid) (_, stack) acc ->
                match !stack with
                | [] -> acc
                | name :: _ -> Printf.sprintf "tid %d: B %S left open" tid name :: acc)
              threads []
          in
          if unmatched <> [] then Error (String.concat "; " (List.sort compare unmatched))
          else
            Ok
              {
                v_events = List.length evs;
                v_threads = Hashtbl.length threads;
                v_spans = !spans;
                v_marks = !marks;
                v_request_id = request_id;
              })

let validate_string s =
  match Json.of_string s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok j -> validate j

let validate_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  validate_string s
