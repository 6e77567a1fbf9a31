(* The generator service: wire protocol round-trips, malformed frames,
   response-byte determinism, tenant isolation, concurrent clients,
   per-request budgets and graceful shutdown.  Every daemon here runs
   in-process on a fresh temp socket (Test_util.with_server), so the tests
   need no subprocess plumbing and teardown is exception-safe. *)

open Alcotest
module Diag = Amg_robust.Diag
module Wire = Amg_robust.Wire
module Server = Amg_serve.Server
module Client = Amg_serve.Client

(* A parameterized stack of four contact rows: the same shape as the
   robustness suite's Stack, but taking W so different requests produce
   different layouts (and different memo signatures). *)
let pack_source =
  {|
ENT Pack(<W>)
  a = ContactRow(layer = "pdiff", W = W, L = 6, net = "a")
  b = ContactRow(layer = "pdiff", W = W + 2, L = 4, net = "b")
  c = ContactRow(layer = "poly", W = W - 1, L = 8, net = "c")
  d = ContactRow(layer = "pdiff", W = W + 1, L = 5, net = "d")
  compact(a, NORTH, align = "MIN")
  compact(b, NORTH, align = "MIN")
  compact(c, NORTH, align = "MIN")
  compact(d, NORTH, align = "MIN")
|}
  ^ Amg_lang.Stdlib.all

let with_server ?default_jobs ?queue_limit ?max_frame ?memo_limit ?tenant_limit
    f =
  Test_util.with_server ~source:pack_source ?default_jobs ?queue_limit
    ?max_frame ?memo_limit ?tenant_limit f

let get sock req =
  match Client.oneshot sock req with
  | Ok resp -> resp
  | Error e -> failf "request failed: %s" e

let pack ?id ?optimize ?max_evals ?max_time ?tenant ?(format = Wire.No_payload)
    ?stats ?inject ?(jobs = 1) ?(w = 4.) () =
  Wire.build ?id ?optimize ?max_evals ?max_time ~jobs ?tenant ~format ?stats
    ?inject
    ~params:[ ("W", Wire.Pnum w) ]
    "Pack"

let has_code code resp =
  List.exists (fun (d : Diag.t) -> d.Diag.code = code) resp.Wire.diagnostics

(* --- wire round-trip properties --------------------------------------- *)

let gen_name =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

(* Printable includes '\n', '"' and '\\': the property exercises JSON
   escaping, not just the happy path. *)
let gen_text = QCheck2.Gen.(string_size ~gen:printable (int_range 0 12))

(* Dyadic rationals round-trip exactly and avoid nan/inf, which would
   break structural equality (nan <> nan). *)
let gen_num =
  QCheck2.Gen.(
    map (fun i -> float_of_int i /. 16.) (int_range (-1_000_000) 1_000_000))

let gen_request =
  let open QCheck2.Gen in
  let gparam =
    oneof [ map (fun f -> Wire.Pnum f) gen_num; map (fun s -> Wire.Pstr s) gen_text ]
  in
  let* op =
    frequencyl
      [
        (6, Wire.Build);
        (2, Wire.Sweep);
        (1, Wire.Ping);
        (1, Wire.Stop);
        (1, Wire.Metrics);
        (1, Wire.Health);
      ]
  in
  let* id = option gen_text in
  let* entity = gen_name in
  let* params = list_size (int_range 0 4) (pair gen_name gparam) in
  let* optimize = option (oneofl [ Wire.Orders; Wire.Bb; Wire.Local ]) in
  let* max_evals = option (int_range 0 100_000) in
  let* max_time = option (map Float.abs gen_num) in
  let* jobs = option (int_range 1 8) in
  let* tenant = option gen_text in
  let* format = oneofl [ Wire.Cif; Wire.Svg; Wire.No_payload ] in
  let* permissive = bool in
  let* stats = bool in
  let* json = bool in
  let* inject = option gen_text in
  let* spec = option gen_text in
  pure
    {
      Wire.id;
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

let gen_diag =
  let open QCheck2.Gen in
  let* severity = oneofl [ Diag.Error; Diag.Warning; Diag.Info ] in
  let* subsystem =
    oneofl [ Diag.Lang; Diag.Layout; Diag.Optimize; Diag.Cli; Diag.Internal ]
  in
  let* code = gen_name in
  let* message = gen_text in
  let* hint = option gen_text in
  let* payload = list_size (int_range 0 2) (pair gen_name gen_text) in
  let* span =
    option
      (let* file = option gen_name in
       let* line = int_range 1 500 in
       let* col = int_range 0 80 in
       pure { Diag.file; line; col })
  in
  pure { Diag.code; severity; subsystem; message; span; hint; payload }

let gen_response =
  let open QCheck2.Gen in
  let* id = option gen_text in
  let* status = int_range 0 3 in
  let* rating = option gen_num in
  let* format = oneofl [ Wire.Cif; Wire.Svg; Wire.No_payload ] in
  let* payload = option gen_text in
  let* diagnostics = list_size (int_range 0 3) gen_diag in
  let* stats =
    option
      (let* elapsed_ms = map Float.abs gen_num in
       let* queue_depth = int_range 0 64 in
       pure { Wire.elapsed_ms; queue_depth })
  in
  pure { Wire.id; status; rating; format; payload; diagnostics; stats }

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request: decode (encode r) = r" ~count:500
    ~print:Wire.encode_request gen_request (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response: decode (encode r) = r" ~count:500
    ~print:Wire.encode_response gen_response (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* Integer fields must be finite integral doubles in a sane range —
   int_of_float on 1e300 or nan is unspecified and would smuggle an
   arbitrary budget into the daemon — and number fields must be finite. *)
let test_decode_validation () =
  let bad name line =
    match Wire.decode_request line with
    | Ok _ -> failf "%s: decoded instead of rejecting" name
    | Error _ -> ()
  in
  bad "huge max_evals" {|{"op":"build","entity":"e","max_evals":1e300}|};
  bad "fractional max_evals" {|{"op":"build","entity":"e","max_evals":2.5}|};
  bad "infinite jobs" {|{"op":"build","entity":"e","jobs":1e999}|};
  bad "infinite max_time" {|{"op":"build","entity":"e","max_time":1e999}|};
  (match
     Wire.decode_request {|{"op":"build","entity":"e","max_evals":42}|}
   with
  | Ok r ->
      check (option int) "integral max_evals decodes" (Some 42)
        r.Wire.max_evals
  | Error e -> failf "integral max_evals rejected: %s" e);
  match Wire.decode_response {|{"status":1e300,"diagnostics":[]}|} with
  | Ok _ -> fail "huge status decoded instead of rejecting"
  | Error _ -> ()

(* JSON has no nan/inf: non-finite numbers must encode as null, never as
   the nan/inf images printf would produce — those break the protocol's
   own decoder. *)
let test_nonfinite_encode () =
  let enc f = Diag.Json.to_string (Diag.Json.Jnum f) in
  check string "nan encodes as null" "null" (enc Float.nan);
  check string "inf encodes as null" "null" (enc Float.infinity);
  check string "-inf encodes as null" "null" (enc Float.neg_infinity);
  (* end to end: a non-finite rating degrades to an absent rating, not an
     unparsable frame *)
  let resp = Wire.response ~rating:Float.nan Wire.status_ok in
  match Wire.decode_response (Wire.encode_response resp) with
  | Ok r ->
      check bool "non-finite rating decodes as absent" true (r.Wire.rating = None)
  | Error e -> failf "non-finite rating broke the frame: %s" e

(* --- malformed, oversized and truncated frames ------------------------ *)

let test_bad_frames () =
  with_server ~max_frame:2048 @@ fun _t sock ->
  let c = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* not JSON at all *)
  Client.send_line c "this is { not json";
  (match Client.recv c with
  | Ok resp ->
      check int "malformed: status" Wire.status_reject resp.Wire.status;
      check bool "malformed: serve.bad-request" true
        (has_code "serve.bad-request" resp)
  | Error e -> failf "malformed frame: %s" e);
  (* valid JSON, wrong shape *)
  Client.send_line c "[1,2,3]";
  (match Client.recv c with
  | Ok resp -> check int "non-object: status" Wire.status_reject resp.Wire.status
  | Error e -> failf "non-object frame: %s" e);
  (* valid JSON object, bad field type *)
  Client.send_line c {|{"op":"build","entity":7}|};
  (match Client.recv c with
  | Ok resp -> check int "bad field: status" Wire.status_reject resp.Wire.status
  | Error e -> failf "bad-field frame: %s" e);
  (* oversized frame: the reader must discard it and keep the framing *)
  Client.send_line c (String.make 4096 'a');
  (match Client.recv c with
  | Ok resp ->
      check int "oversized: status" Wire.status_reject resp.Wire.status;
      check bool "oversized: serve.frame-too-large" true
        (has_code "serve.frame-too-large" resp)
  | Error e -> failf "oversized frame: %s" e);
  (* the same connection still serves real requests after all that *)
  match Client.roundtrip c (Wire.ping ~id:"alive" ()) with
  | Ok resp ->
      check int "after garbage: ping ok" Wire.status_ok resp.Wire.status;
      check (option string) "after garbage: id echoed" (Some "alive")
        resp.Wire.id
  | Error e -> failf "ping after garbage: %s" e

let test_truncated_frame () =
  with_server @@ fun _t sock ->
  (* a client that dies mid-frame must not hurt the daemon *)
  let c = Client.connect sock in
  Client.send_raw c {|{"op":"build","entity":"Pa|};
  Client.close c;
  let resp = get sock (Wire.ping ()) in
  check int "daemon survives truncated frame" Wire.status_ok resp.Wire.status

(* A peer that sends a request and vanishes before reading the response
   must cost only that connection: the response write surfaces as EPIPE
   on the connection thread, not as a process-killing SIGPIPE. *)
let test_disconnect_before_response () =
  with_server @@ fun _t sock ->
  for i = 1 to 3 do
    let c = Client.connect sock in
    (* a cold search on a fresh tenant: the daemon is still computing
       when the peer disappears *)
    Client.send c
      (pack ~optimize:Wire.Local ~tenant:(Printf.sprintf "gone%d" i) ());
    Client.close c
  done;
  let r = get sock (pack ~format:Wire.Cif ()) in
  check int "daemon alive after dead peers" Wire.status_ok r.Wire.status

(* --- status mapping ---------------------------------------------------- *)

let test_statuses () =
  with_server @@ fun _t sock ->
  (* ok + payloads *)
  let r = get sock (pack ~format:Wire.Cif ()) in
  check int "build: status ok" Wire.status_ok r.Wire.status;
  check bool "build: rating present" true (r.Wire.rating <> None);
  (match r.Wire.payload with
  | Some p -> check bool "cif payload" true (String.length p > 0)
  | None -> fail "build: no CIF payload");
  let r = get sock (pack ~format:Wire.Svg ()) in
  (match r.Wire.payload with
  | Some p ->
      check bool "svg payload" true
        (String.length p > 4 && String.sub p 0 4 = "<svg")
  | None -> fail "build: no SVG payload");
  (* unknown entity: structured diagnostics, status 1 *)
  let r = get sock (Wire.build ~format:Wire.No_payload "Nope") in
  check int "unknown entity: status" Wire.status_diag r.Wire.status;
  check bool "unknown entity: diagnostics" true (r.Wire.diagnostics <> []);
  (* bad inject spec: rejected up front *)
  let r = get sock (pack ~inject:"bogus spec" ()) in
  check int "bad inject: status" Wire.status_reject r.Wire.status;
  check bool "bad inject: serve.bad-inject" true
    (has_code "serve.bad-inject" r)

(* --- response-byte determinism ----------------------------------------- *)

(* Same request, cold then warm, at jobs=1 and jobs=2: every response line
   must be byte-identical (stats omitted — it is the one deliberately
   nondeterministic field). *)
let test_determinism () =
  let lines_for jobs =
    with_server @@ fun _t sock ->
    let c = Client.connect sock in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.init 3 (fun _ ->
        Client.send c (pack ~id:"det" ~optimize:Wire.Local ~format:Wire.Cif ~jobs ());
        match Client.recv_line c with
        | Some line -> line
        | None -> fail "connection closed mid-test")
  in
  let l1 = lines_for 1 in
  let l2 = lines_for 2 in
  let reference = List.hd l1 in
  check bool "response is non-trivial" true (String.length reference > 100);
  List.iteri
    (fun i line -> check string (Printf.sprintf "jobs=1 run %d" i) reference line)
    l1;
  List.iteri
    (fun i line -> check string (Printf.sprintf "jobs=2 run %d" i) reference line)
    l2

(* --- tenant isolation ---------------------------------------------------- *)

(* The daemon's counters, read in-process: a request's cache-outcome label
   ([serve.requests] by [cache]) and the canonical-build memo layer. *)
let counter ?(labels = []) name =
  Amg_obs.Metrics.counter_value (Amg_obs.Metrics.counter ~labels name)

let outcomes () =
  List.map
    (fun o ->
      counter "serve.requests"
        ~labels:[ ("cache", o); ("op", "build"); ("status", "0") ])
    [ "cold"; "memo-hit" ]

let memo () = (counter "serve.memo.hits", counter "serve.memo.misses")

(* Run [f] and return what it did to the outcome labels and memo counters:
   ([cold; memo-hit] deltas, (memo hits, memo misses) deltas). *)
let counted f =
  let o0 = outcomes () and h0, m0 = memo () in
  f ();
  let h1, m1 = memo () in
  (List.map2 ( - ) (outcomes ()) o0, (h1 - h0, m1 - m0))

let test_tenant_isolation () =
  with_server @@ fun _t sock ->
  let run ?max_evals tenant () =
    let r = get sock (pack ~optimize:Wire.Local ?max_evals ~tenant ()) in
    check int "status ok" Wire.status_ok r.Wire.status
  in
  let a1 = counted (run "tenant-a") in
  check (pair (list int) (pair int int)) "tenant-a first request is cold"
    ([ 1; 0 ], (0, 1)) a1;
  (* an identical unbudgeted repeat is answered by the memo *)
  check (pair (list int) (pair int int)) "tenant-a repeat is a memo hit"
    ([ 0; 1 ], (0, 0))
    (counted (run "tenant-a"));
  (* same module, same params: tenant-b's first request must look exactly
     as cold as tenant-a's did — nothing leaked across tenants *)
  check (pair (list int) (pair int int)) "tenant-b first request is cold" a1
    (counted (run "tenant-b"));
  (* a budgeted repeat bypasses the whole-result memo and searches, but
     inside its own tenant it reuses the memoized canonical build *)
  check (pair (list int) (pair int int))
    "tenant-a budgeted repeat reuses its canonical build"
    ([ 1; 0 ], (1, 0))
    (counted (run ~max_evals:100_000 "tenant-a"))

(* The tenant table is LRU-bounded: a stream of fresh tenant names cannot
   grow the daemon without limit.  An evicted tenant that returns gets a
   fresh environment — observably cold again — while residents stay
   warm.  Budgeted requests bypass the whole-result memo, so warmth shows
   up in the canonical-build memo counters. *)
let test_tenant_eviction () =
  with_server ~tenant_limit:2 @@ fun _t sock ->
  let budgeted tenant () =
    ignore (get sock (pack ~optimize:Wire.Local ~max_evals:100_000 ~tenant ()))
  in
  let memo_delta tenant = snd (counted (budgeted tenant)) in
  check (pair int int) "first request is a memo miss" (0, 1) (memo_delta "ta");
  check (pair int int) "resident tenant runs warm" (1, 0) (memo_delta "ta");
  (* fill the table past the limit: inserting "tc" evicts "ta" (LRU) *)
  budgeted "tb" ();
  budgeted "tc" ();
  check (pair int int) "evicted tenant is cold again" (0, 1) (memo_delta "ta")

(* --- concurrent clients ------------------------------------------------ *)

let test_concurrent_clients () =
  with_server @@ fun _t sock ->
  let nclients = 6 and per_client = 5 in
  let results = Array.make nclients [||] in
  let worker i =
    let c = Client.connect sock in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    results.(i) <-
      Array.init per_client (fun k ->
          let id = Printf.sprintf "c%d-%d" i k in
          let req =
            match k mod 3 with
            | 0 -> Wire.ping ~id ()
            | 1 -> pack ~id ~optimize:Wire.Local ~format:Wire.Cif ()
            | _ ->
                Wire.build ~id ~jobs:1 ~format:Wire.Cif
                  ~params:[ ("W", Wire.Pnum 10.); ("L", Wire.Pnum 5.) ]
                  "DiffPair"
          in
          match Client.roundtrip c req with
          | Ok resp -> (id, resp)
          | Error e -> failf "client %d: %s" i e)
  in
  let threads = List.init nclients (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  (* every request answered, on the right connection, in order *)
  Array.iteri
    (fun i arr ->
      check int (Printf.sprintf "client %d: all answered" i) per_client
        (Array.length arr);
      Array.iter
        (fun (id, resp) ->
          check (option string)
            (Printf.sprintf "client %d: id echoed" i)
            (Some id) resp.Wire.id;
          check int (Printf.sprintf "%s: status ok" id) Wire.status_ok
            resp.Wire.status)
        arr)
    results;
  (* identical build requests got identical layouts, whatever the
     interleaving: compare payloads across clients *)
  let payloads k =
    Array.to_list results
    |> List.filter_map (fun arr ->
           if Array.length arr = 0 then None
           else (snd arr.(k)).Wire.payload)
  in
  List.iter
    (fun k ->
      match payloads k with
      | [] -> fail "no payloads collected"
      | p :: rest ->
          List.iter (check string "same payload across clients" p) rest)
    [ 1; 2; 4 ]

(* --- budgets degrade, the daemon survives ------------------------------ *)

let test_deadline_degrades () =
  with_server @@ fun _t sock ->
  (* eval cap: 4 steps = 24 orders, far over a 1-eval budget *)
  let r =
    get sock (pack ~optimize:Wire.Orders ~max_evals:1 ~format:Wire.Cif ())
  in
  check int "eval budget: degraded" Wire.status_degraded r.Wire.status;
  check bool "eval budget: best-so-far payload" true (r.Wire.payload <> None);
  check bool "eval budget: rating present" true (r.Wire.rating <> None);
  check bool "eval budget: optimize.degraded diag" true
    (has_code "optimize.degraded" r);
  (* wall-clock deadline that has already passed when the search starts *)
  let r =
    get sock
      (pack ~optimize:Wire.Orders ~max_time:1e-9 ~tenant:"cold" ~format:Wire.Cif ())
  in
  check int "deadline: degraded" Wire.status_degraded r.Wire.status;
  check bool "deadline: best-so-far payload" true (r.Wire.payload <> None);
  (* a degraded search must not wedge the daemon *)
  let r = get sock (pack ~format:Wire.Cif ()) in
  check int "daemon serves after degradation" Wire.status_ok r.Wire.status

(* --- graceful shutdown -------------------------------------------------- *)

let test_graceful_shutdown () =
  Test_util.with_tmp_dir "amgs" @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let t = Server.start (Server.config ~source:pack_source socket) in
  (* park a slow request in flight (cold order search on a fresh scope) *)
  let slow_result = ref (Error "never ran") in
  let slow =
    Thread.create
      (fun () ->
        slow_result :=
          Client.oneshot socket
            (pack ~id:"slow" ~optimize:Wire.Orders ~tenant:"shutdown" ()))
      ()
  in
  Thread.delay 0.05;
  (* ask the daemon to stop over the wire *)
  (match Client.oneshot socket (Wire.stop ~id:"bye" ()) with
  | Ok resp -> check int "stop acknowledged" Wire.status_ok resp.Wire.status
  | Error e -> failf "stop request: %s" e);
  Server.stop t;
  Thread.join slow;
  (* the in-flight request drained with a real answer, not a dropped
     connection *)
  (match !slow_result with
  | Ok resp -> check int "in-flight request drained" Wire.status_ok resp.Wire.status
  | Error e -> failf "in-flight request dropped: %s" e);
  check bool "stop was requested" true (Server.stop_requested t);
  (* new connections are refused once the daemon is gone *)
  match Client.connect socket with
  | c ->
      Client.close c;
      fail "connect after stop should fail"
  | exception Unix.Unix_error _ -> ()

(* --- telemetry: scrape ops, access log, per-request traces ------------- *)

module Json = Diag.Json
module Metrics = Amg_obs.Metrics

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* metrics and health answer over the wire with scrapeable payloads:
   health is a small JSON object, metrics comes as Prometheus text or as
   the JSON form behind `amgen metrics --json` and the bench cross-check. *)
let test_scrape_ops () =
  with_server @@ fun _t sock ->
  ignore (get sock (pack ~format:Wire.Cif ()));
  let payload r =
    match r.Wire.payload with Some p -> p | None -> fail "scrape: no payload"
  in
  let h = get sock (Wire.health ()) in
  check int "health: status ok" Wire.status_ok h.Wire.status;
  (match Json.of_string (payload h) with
  | Ok j ->
      check (option string) "health: status field" (Some "ok")
        (Option.bind (Json.member "status" j) Json.str);
      List.iter
        (fun k ->
          check bool (Printf.sprintf "health: %s is a number" k) true
            (Option.bind (Json.member k j) Json.num <> None))
        [
          "uptime_s";
          "served";
          "in_flight";
          "queue_depth";
          "tenants";
          "memo_entries";
          "pool_size";
        ]
  | Error e -> failf "health payload: %s" e);
  let m = get sock (Wire.metrics ()) in
  check int "metrics: status ok" Wire.status_ok m.Wire.status;
  let text = payload m in
  List.iter
    (fun needle ->
      check bool (Printf.sprintf "exposition has %S" needle) true
        (contains_sub text needle))
    [
      "# TYPE serve_requests_total counter";
      "op=\"build\"";
      "serve_latency_bucket{";
      "serve_uptime_seconds";
    ];
  let mj = get sock (Wire.metrics ~json:true ()) in
  match Json.of_string (payload mj) with
  | Ok j -> (
      match Json.member "metrics" j with
      | Some (Json.Jarr samples) ->
          let has name =
            List.exists
              (fun s -> Option.bind (Json.member "name" s) Json.str = Some name)
              samples
          in
          check bool "json metrics: serve.requests present" true
            (has "serve.requests");
          check bool "json metrics: serve.latency present" true
            (has "serve.latency")
      | _ -> fail "json metrics: no metrics array")
  | Error e -> failf "metrics json payload: %s" e

(* Every request appends one ndjson line; the line parses back and
   carries the schema the log readers rely on. *)
let test_access_log () =
  Test_util.with_tmp_dir "amgl" @@ fun dir ->
  let log = Filename.concat dir "access.ndjson" in
  Test_util.with_server ~source:pack_source ~access_log:log (fun _t sock ->
      ignore (get sock (Wire.ping ()));
      ignore (get sock (pack ~id:"one" ~format:Wire.Cif ()));
      ignore (get sock (pack ~id:"two" ~format:Wire.Cif ()));
      ignore (get sock (Wire.build ~format:Wire.No_payload "Nope")));
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check int "one line per request" 4 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error e -> failf "unparsable access line %S: %s" line e)
      lines
  in
  let str k j = Option.bind (Json.member k j) Json.str in
  List.iter
    (fun j ->
      List.iter
        (fun k ->
          check bool (Printf.sprintf "access: %s present" k) true
            (str k j <> None))
        [ "request_id"; "op"; "outcome" ];
      List.iter
        (fun k ->
          check bool (Printf.sprintf "access: %s is a number" k) true
            (Option.bind (Json.member k j) Json.num <> None))
        [ "ts"; "status"; "latency_ms"; "evals" ])
    parsed;
  let rids = List.filter_map (str "request_id") parsed in
  check int "request ids are distinct" 4
    (List.length (List.sort_uniq compare rids));
  let by_id id =
    match List.find_opt (fun j -> str "id" j = Some id) parsed with
    | Some j -> j
    | None -> failf "no access line for request id %S" id
  in
  check (option string) "repeat build logged as memo-hit" (Some "memo-hit")
    (str "outcome" (by_id "two"));
  let ping = List.hd parsed in
  check (option string) "ping logged with op" (Some "ping") (str "op" ping);
  check (option string) "ping outcome is none" (Some "none")
    (str "outcome" ping);
  let last = List.nth parsed 3 in
  check (option string) "failed build logged as error" (Some "error")
    (str "outcome" last);
  check (option int) "failed build logged with diag status"
    (Some Wire.status_diag)
    (Option.bind (Json.member "status" last) Json.int)

(* With --trace-sample 1 every compute request exports a Chrome trace
   named after its request id; scrape and ping requests record no events
   and must not litter the directory.  The file has to satisfy the same
   validator `amgen trace-lint` runs, request-id metadata included. *)
let test_request_traces () =
  Test_util.with_tmp_dir "amgtr" @@ fun dir ->
  let traces = Filename.concat dir "traces" in
  Test_util.with_server ~source:pack_source ~trace_dir:traces ~trace_sample:1
    (fun _t sock ->
      ignore (get sock (Wire.ping ()));
      ignore (get sock (pack ~format:Wire.Cif ()));
      ignore (get sock (Wire.metrics ())));
  let files = Sys.readdir traces |> Array.to_list |> List.sort compare in
  check int "exactly the build request left a trace" 1 (List.length files);
  let f = List.hd files in
  let rid = Filename.remove_extension f in
  match Amg_obs.Trace.validate_file (Filename.concat traces f) with
  | Ok s ->
      check (option string) "trace metadata carries the request id" (Some rid)
        s.Amg_obs.Trace.v_request_id;
      check bool "trace has spans" true (s.Amg_obs.Trace.v_spans > 0)
  | Error e -> failf "trace %s fails validation: %s" f e

(* The determinism discipline extended to the registry: a fixed request
   sequence must leave byte-identical request-labelled counters at jobs=1
   and jobs=2 — outcome classification (cold / memo-hit / error) may not
   depend on the parallel schedule. *)
let request_counter_signature jobs =
  with_server @@ fun _t sock ->
  Metrics.reset ();
  let send req = ignore (get sock req) in
  send (Wire.ping ());
  send (pack ~jobs ~w:7. ());
  send (pack ~jobs ~w:7. ());
  send (pack ~jobs ~w:7. ~optimize:Wire.Local ());
  send (pack ~jobs ~w:7. ~optimize:Wire.Local ());
  send (Wire.build ~jobs ~format:Wire.No_payload "Nope");
  Metrics.snapshot ()
  |> List.filter_map (fun (s : Metrics.sample) ->
         match s.Metrics.m_value with
         | Metrics.Counter n when s.Metrics.m_name = "serve.requests" && n > 0
           ->
             Some
               (Printf.sprintf "%s{%s} %d" s.Metrics.m_name
                  (String.concat ","
                     (List.map
                        (fun (k, v) -> k ^ "=" ^ v)
                        s.Metrics.m_labels))
                  n)
         | _ -> None)
  |> String.concat "\n"

let test_counter_determinism () =
  let s1 = request_counter_signature 1 in
  let s2 = request_counter_signature 2 in
  check bool "sequence exercised a cold build" true
    (contains_sub s1 "cache=cold");
  check bool "sequence exercised memo hits" true
    (contains_sub s1 "cache=memo-hit");
  check bool "sequence exercised the error path" true
    (contains_sub s1 "cache=error");
  check string "request counters byte-identical at jobs 1 and 2" s1 s2

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    test_case "decoder rejects non-integral and non-finite numbers" `Quick
      test_decode_validation;
    test_case "non-finite floats encode as null" `Quick test_nonfinite_encode;
    test_case "malformed and oversized frames keep the connection" `Quick
      test_bad_frames;
    test_case "truncated frame drops only that client" `Quick
      test_truncated_frame;
    test_case "peer disconnect before response leaves the daemon alive" `Quick
      test_disconnect_before_response;
    test_case "status mapping and payload formats" `Quick test_statuses;
    test_case "response bytes deterministic (cold/warm, jobs 1 and 2)" `Quick
      test_determinism;
    test_case "tenant cache scopes are isolated" `Quick test_tenant_isolation;
    test_case "tenant table is LRU-bounded" `Quick test_tenant_eviction;
    test_case "concurrent clients all answered in order" `Quick
      test_concurrent_clients;
    test_case "budgets degrade to status 3, daemon keeps serving" `Quick
      test_deadline_degrades;
    test_case "graceful shutdown drains in-flight requests" `Quick
      test_graceful_shutdown;
    test_case "metrics and health scrape over the wire" `Quick test_scrape_ops;
    test_case "access log lines parse and carry the schema" `Quick
      test_access_log;
    test_case "sampled requests export valid per-request traces" `Quick
      test_request_traces;
    test_case "request counters deterministic across jobs" `Quick
      test_counter_determinism;
  ]
