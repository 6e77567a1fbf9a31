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

let with_server ?tcp ?default_jobs ?queue_limit ?max_frame ?memo_limit f =
  Test_util.with_server ~source:pack_source ?tcp ?default_jobs ?queue_limit
    ?max_frame ?memo_limit f

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

(* The optional TCP listener speaks the same protocol: a ping answers, and
   a CIF build answers byte for byte as it does over the Unix socket.  The
   port is one the kernel picked for a probe socket, closed before the
   daemon binds it. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> fail "probe socket has no port"

let test_tcp_listener () =
  let port = free_port () in
  with_server ~tcp:("127.0.0.1", port) @@ fun _t sock ->
  let exchange c req =
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    Client.send c req;
    match Client.recv_line c with
    | Some line -> line
    | None -> fail "connection closed before the response"
  in
  let tcp req = exchange (Client.connect_tcp "127.0.0.1" port) req in
  (match Wire.decode_response (tcp (Wire.ping ~id:"p" ())) with
  | Ok r -> check int "ping over TCP: status ok" Wire.status_ok r.Wire.status
  | Error e -> failf "ping over TCP: %s" e);
  let build = pack ~id:"cif" ~format:Wire.Cif () in
  let via_tcp = tcp build in
  let via_unix = exchange (Client.connect sock) build in
  (match Wire.decode_response via_tcp with
  | Ok r ->
      check int "build over TCP: status ok" Wire.status_ok r.Wire.status;
      check bool "build over TCP: CIF payload" true
        (match r.Wire.payload with
        | Some cif -> String.length cif > 100
        | None -> false)
  | Error e -> failf "build over TCP: %s" e);
  check string "TCP and Unix-socket responses are byte-identical" via_unix
    via_tcp

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

(* The empty tenant name is a tenant like any other: it shares no memo
   entry with requests that name no tenant. *)
let test_empty_tenant () =
  with_server @@ fun _t sock ->
  let run ?tenant () =
    let r = get sock (pack ~optimize:Wire.Local ?tenant ()) in
    check int "status ok" Wire.status_ok r.Wire.status
  in
  let cold = ([ 1; 0 ], (0, 1)) in
  check (pair (list int) (pair int int)) "no tenant: cold" cold (counted run);
  check (pair (list int) (pair int int)) "empty tenant: cold" cold
    (counted (run ~tenant:""));
  check (pair (list int) (pair int int)) "empty tenant repeat: memo hit"
    ([ 0; 1 ], (0, 0))
    (counted (run ~tenant:""))

(* A tenant is a component of the memo key and owns nothing else, so the
   memo LRU bounds a stream of fresh tenant names: a tenant whose entry
   was evicted is observably cold again, while residents stay warm.
   Budgeted requests bypass the whole-result memo, so warmth shows up in
   the canonical-build memo counters. *)
let test_tenant_eviction () =
  with_server ~memo_limit:2 @@ fun _t sock ->
  let budgeted tenant () =
    ignore (get sock (pack ~optimize:Wire.Local ~max_evals:100_000 ~tenant ()))
  in
  let memo_delta tenant = snd (counted (budgeted tenant)) in
  check (pair int int) "first request is a memo miss" (0, 1) (memo_delta "ta");
  check (pair int int) "resident tenant runs warm" (1, 0) (memo_delta "ta");
  (* fill the memo past the limit: inserting "tc" evicts "ta" (LRU) *)
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
  let t =
    Server.start
      (Server.config ~source:(Test_util.row_pack 28 ^ pack_source) socket)
  in
  (* park a slow request in flight: a cold local search of 28 rows lasts
     tens of milliseconds *)
  let slow_result = ref (Error "never ran") in
  let finished = Atomic.make false in
  let slow =
    Thread.create
      (fun () ->
        slow_result :=
          Client.oneshot socket
            (Wire.build ~id:"slow" ~jobs:1 ~optimize:Wire.Local
               ~tenant:"shutdown"
               ~params:[ ("W", Wire.Pnum 20.) ]
               "Rows28");
        Atomic.set finished true)
      ()
  in
  Test_util.await_in_flight socket ~finished:(fun () -> Atomic.get finished);
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

(* Run [f sock] against a daemon with an access log (and [?store]) and
   return the log's lines as (outcome, evals) pairs, in request order. *)
let logged ?store f =
  Test_util.with_tmp_dir "amgl" @@ fun dir ->
  let log = Filename.concat dir "access.ndjson" in
  Test_util.with_server ~source:pack_source ~access_log:log ?store (fun _t sock ->
      f sock);
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev_map
    (fun line ->
      match Json.of_string line with
      | Ok j -> (
          match
            ( Option.bind (Json.member "outcome" j) Json.str,
              Option.bind (Json.member "evals" j) Json.int )
          with
          | Some o, Some n -> (o, n)
          | _ -> failf "access line without outcome or integral evals: %s" line)
      | Error e -> failf "unparsable access line %S: %s" line e)
    !lines

(* The cost of the daemon's search for [pack], run directly through the
   pipeline the daemon runs. *)
let direct_cost ?(w = 4.) strategy =
  let env = Amg_core.Env.bicmos () in
  let program = Amg_lang.Parser.parse_program pack_source in
  let o =
    Amg_lang.Generate.run env program
      (Amg_lang.Generate.request ~search:strategy ~domains:1 "Pack"
         [ ("W", Amg_lang.Value.Num w) ])
  in
  match o.Amg_lang.Generate.searched with
  | Some s -> s.Amg_lang.Generate.cost
  | None -> failf "%s: no search ran" (Wire.opt_to_string strategy)

(* A build's access-log [evals] is its search's cost — the walk's node
   count for orders and bb, local search's evaluations — equal to the
   cost of the same search run directly, and the same at jobs 1 and 2
   (the count is domain-count-independent). *)
let test_orders_access_evals () =
  List.iter
    (fun strategy ->
      let what = Wire.opt_to_string strategy in
      let logged_evals jobs =
        match
          logged (fun sock ->
              let r = get sock (pack ~jobs ~optimize:strategy ()) in
              check int (what ^ " build ok") Wire.status_ok r.Wire.status)
        with
        | [ ("cold", n) ] -> n
        | _ -> failf "%s: expected one cold access line" what
      in
      let e1 = logged_evals 1 in
      check bool (what ^ " build logs evals > 0") true (e1 > 0);
      check int (what ^ ": evals = the direct search's cost") (direct_cost strategy) e1;
      check int (what ^ ": same evals at jobs 1 and 2") e1 (logged_evals 2))
    [ Wire.Orders; Wire.Bb; Wire.Local ]

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

(* --- scrape under load, server/client latency agreement --------------- *)

let json_num key payload =
  match Json.of_string payload with
  | Ok j -> Option.bind (Json.member key j) Json.num
  | Error _ -> None

(* While a cold optimized build occupies the serialized compute section,
   health and metrics answer straight from their connection thread: one
   health plus one JSON metrics roundtrip takes at most half the build's
   own latency (and never has to beat 50 ms).  The scrape still waits for
   the build's thread to hand over the runtime lock at each of its ticks
   (50 ms apart), up to four of them on a loaded host, so the build is a
   cold local search of 60 rows, which lasts most of a second; a scrape
   that queued behind it would take the whole build. *)
let test_scrape_mid_load () =
  Test_util.with_server ~source:(Test_util.row_pack 60 ^ pack_source) @@ fun _t sock ->
  let answered = Atomic.make false in
  let build_result = ref (Error "never ran") and build_ms = ref 0. in
  let builder =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        build_result :=
          Client.oneshot sock
            (Wire.build ~id:"load" ~jobs:1 ~optimize:Wire.Local
               ~tenant:"scrape-cold"
               ~params:[ ("W", Wire.Pnum 20.) ]
               "Rows60");
        build_ms := (Unix.gettimeofday () -. t0) *. 1000.;
        Atomic.set answered true)
      ()
  in
  let c = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let roundtrip req =
    match Client.roundtrip c req with
    | Ok r -> r
    | Error e -> failf "scrape: %s" e
  in
  Test_util.await_in_flight sock ~finished:(fun () -> Atomic.get answered);
  let t0 = Unix.gettimeofday () in
  let h = roundtrip (Wire.health ()) in
  let m = roundtrip (Wire.metrics ~json:true ()) in
  let scrape_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let overtook = not (Atomic.get answered) in
  Thread.join builder;
  check int "health status ok" Wire.status_ok h.Wire.status;
  check int "metrics status ok" Wire.status_ok m.Wire.status;
  (match !build_result with
  | Ok r -> check int "build status ok" Wire.status_ok r.Wire.status
  | Error e -> failf "build: %s" e);
  check bool "the scrape answered before the build did" true overtook;
  let bound = Float.max 50. (!build_ms /. 2.) in
  if scrape_ms > bound then
    failf "mid-load scrape took %.2f ms, bound %.0f ms (build %.0f ms)"
      scrape_ms bound !build_ms

(* The merged [serve.latency] op="build" histogram (one label set per
   status and cache outcome) from the in-process registry. *)
let server_build_hist () =
  let parts =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.Metrics.m_value with
        | Metrics.Histogram h
          when s.Metrics.m_name = "serve.latency"
               && List.assoc_opt "op" s.Metrics.m_labels = Some "build" ->
            Some h
        | _ -> None)
      (Metrics.snapshot ())
  in
  match parts with
  | [] -> fail "no serve.latency build histogram"
  | h0 :: rest ->
      List.fold_left
        (fun (acc : Metrics.hsnap) (h : Metrics.hsnap) ->
          {
            acc with
            Metrics.h_counts =
              Array.map2 ( + ) acc.Metrics.h_counts h.Metrics.h_counts;
            h_count = acc.Metrics.h_count + h.Metrics.h_count;
            h_sum = acc.Metrics.h_sum +. h.Metrics.h_sum;
          })
        h0 rest

(* The nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(max 0 (int_of_float (ceil (p *. float_of_int (Array.length a))) - 1))

(* The daemon's own latency histogram tells the same story as a client's
   stopwatch.  Registry quantiles are bucket upper bounds (factor-2
   buckets) and the client adds wire time, so agreement is a factor:
   4x at p50, 8x at p99. *)
let test_latency_cross_check () =
  with_server @@ fun _t sock ->
  Metrics.reset ();
  let c = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 30 in
  let client_ms =
    List.init n (fun i ->
        (* distinct widths: every request is a real build, not a memo hit *)
        let req =
          pack ~id:(string_of_int i) ~optimize:Wire.Local ~format:Wire.Cif
            ~w:(4. +. float_of_int i) ()
        in
        let t0 = Unix.gettimeofday () in
        match Client.roundtrip c req with
        | Ok r when r.Wire.status = Wire.status_ok ->
            (Unix.gettimeofday () -. t0) *. 1000.
        | Ok r -> failf "build %d: status %d" i r.Wire.status
        | Error e -> failf "build %d: %s" i e)
  in
  let h = server_build_hist () in
  check int "every build observed once" n h.Metrics.h_count;
  let agree what factor server client =
    if not (server <= client *. factor && client <= server *. factor) then
      failf "%s: server %.3f ms vs client %.3f ms, beyond %.0fx" what server
        client factor
  in
  agree "p50" 4. (Metrics.quantile h 0.5 *. 1000.) (percentile 0.5 client_ms);
  agree "p99" 8. (Metrics.quantile h 0.99 *. 1000.) (percentile 0.99 client_ms)

(* --- accounting read from each request's own result -------------------- *)

(* The access log reads each request's own result, so a daemon with only
   an access log leaves Obs recording off. *)
let test_access_log_leaves_obs_off () =
  check bool "Obs off before the daemon starts" false (Amg_obs.Obs.enabled ());
  let lines =
    logged (fun sock ->
        ignore (get sock (pack ~optimize:Wire.Local ()));
        check bool "Obs still off while serving" false (Amg_obs.Obs.enabled ()))
  in
  check bool "the local build still logs its cost" true
    (match lines with [ ("cold", n) ] -> n > 0 | _ -> false)

(* A repeated build the durable store answers logs store-hit with no
   search cost and answers the cold build's bytes.  The repeat comes from
   another tenant, so no memo layer answers it. *)
let test_store_hit_logs_no_evals () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let store = Filename.concat dir "s.store" in
  List.iter
    (fun strategy ->
      let what = Wire.opt_to_string strategy in
      let payloads = ref [] in
      let lines =
        logged ~store (fun sock ->
            List.iter
              (fun tenant ->
                let r =
                  get sock (pack ~tenant ~optimize:strategy ~format:Wire.Cif ())
                in
                check int (what ^ " build ok") Wire.status_ok r.Wire.status;
                payloads := r.Wire.payload :: !payloads)
              [ "first"; "second" ])
      in
      (match lines with
      | [ ("cold", n); ("store-hit", 0) ] ->
          check bool (what ^ ": the cold build searched") true (n > 0)
      | _ -> failf "%s: expected a cold line, then a store-hit with evals 0" what);
      match !payloads with
      | [ warm; cold ] ->
          check (option string) (what ^ ": store-hit bytes = cold bytes") cold warm
      | _ -> failf "%s: expected two responses" what)
    [ Wire.Orders; Wire.Bb; Wire.Local ]

(* A daemon sweep's summary counts the rows the store answered: none
   cold, every row warm, all but the new one when the grid grows by a
   row.  Its access line carries the rows' summed search cost cold, and
   store-hit with no cost warm; the grown sweep is cold again, at the new
   row's cost alone. *)
let test_warm_sweep_store_hits () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let store = Filename.concat dir "s.store" in
  let spec ws =
    Printf.sprintf {|{ "entity": "Pack", "params": { "W": [%s] }, "optimize": "local" }|}
      (String.concat ", " (List.map string_of_int ws))
  in
  let summaries = ref [] in
  let lines =
    logged ~store (fun sock ->
        let c = Client.connect sock in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.iter
              (fun ws ->
                match
                  Client.sweep c ~on_row:(fun ~index:_ _ -> ()) (Wire.sweep (spec ws))
                with
                | Ok r -> summaries := r.Wire.payload :: !summaries
                | Error e -> failf "sweep request failed: %s" e)
              [ [ 4; 5; 6 ]; [ 4; 5; 6 ]; [ 4; 5; 6; 7 ] ]))
  in
  let field k = function
    | Some payload -> (
        match Json.of_string payload with
        | Ok j -> Option.bind (Json.member k j) Json.int
        | Error e -> failf "sweep summary %S: %s" payload e)
    | None -> fail "sweep response without a summary"
  in
  (match List.rev !summaries with
  | [ cold; warm; mixed ] ->
      check (option int) "three rows" (Some 3) (field "rows" warm);
      check (option int) "cold sweep: no store hit" (Some 0) (field "store_hits" cold);
      check (option int) "warm sweep: every row from the store" (field "rows" warm)
        (field "store_hits" warm);
      check (option int) "mixed sweep: four rows" (Some 4) (field "rows" mixed);
      check (option int) "mixed sweep: three rows from the store" (Some 3)
        (field "store_hits" mixed)
  | _ -> fail "expected three sweep summaries");
  let cost = List.fold_left (fun acc w -> acc + direct_cost ~w Wire.Local) 0 [ 4.; 5.; 6. ] in
  (* One searched row makes the sweep cold, whatever the store answered. *)
  check (list (pair string int))
    "access lines: cold rows' cost, store-hit, then cold with the new row's cost"
    [ ("cold", cost); ("store-hit", 0); ("cold", direct_cost ~w:7. Wire.Local) ]
    lines

(* --- the line codec ------------------------------------------------------

   The daemon and the client read and write lines with one codec,
   [Frame]; these cases run it over a socketpair. *)

module Frame = Amg_serve.Frame

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) (fun () -> f a b)

(* Every event the reader returns until EOF, while a thread of its own
   writes [pieces] (yielding between them, so that lines arrive split)
   and then closes its side. *)
let read_all ?max pieces =
  with_socketpair @@ fun w r ->
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun p ->
            Frame.write w p;
            Thread.yield ())
          pieces;
        Unix.shutdown w Unix.SHUTDOWN_SEND)
      ()
  in
  let reader = Frame.reader ?max r in
  let rec go acc =
    match Frame.read reader with `Eof -> List.rev acc | ev -> go (ev :: acc)
  in
  let events = go [] in
  Thread.join writer;
  events

(* Lines of [line_len] printable bytes, then maybe a fragment with no
   newline, cut at random points into the pieces written. *)
let gen_stream line_len =
  let open QCheck2.Gen in
  let line = string_size ~gen:(char_range ' ' '~') line_len in
  let* lines = list_size (int_range 0 20) line in
  let* tail = opt (string_size ~gen:(char_range ' ' '~') (int_range 1 100)) in
  let stream =
    String.concat "" (List.map (fun l -> l ^ "\n") lines)
    ^ Option.value tail ~default:""
  in
  let+ cuts = list_size (int_range 0 8) (int_range 0 (String.length stream)) in
  let cuts = List.sort_uniq Int.compare (0 :: String.length stream :: cuts) in
  let rec pieces = function
    | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: pieces rest
    | _ -> []
  in
  (lines, pieces cuts)

let show_event = function
  | `Line l -> Printf.sprintf "Line %d" (String.length l)
  | `Oversized -> "Oversized"
  | `Eof -> "Eof"

let print_events evs = String.concat "; " (List.map show_event evs)

let prop_frame_capped =
  let gen =
    let open QCheck2.Gen in
    let* cap = int_range 1 64 in
    let+ lines, pieces =
      gen_stream (oneof [ int_range 0 cap; int_range (cap + 1) (3 * cap) ])
    in
    (cap, lines, pieces)
  in
  QCheck2.Test.make ~count:300
    ~name:"codec: lines within the cap come back, one Oversized per longer"
    ~print:(fun (cap, lines, pieces) ->
      Printf.sprintf "cap %d, line lengths [%s], %d pieces" cap
        (String.concat "; "
           (List.map (fun l -> string_of_int (String.length l)) lines))
        (List.length pieces))
    gen
    (fun (cap, lines, pieces) ->
      let expected =
        List.map
          (fun l -> if String.length l <= cap then `Line l else `Oversized)
          lines
      in
      let got = read_all ~max:cap pieces in
      got = expected
      || QCheck2.Test.fail_reportf "got %s, expected %s" (print_events got)
           (print_events expected))

(* Uncapped, lines may span the reader's 8 KiB reads. *)
let prop_frame_uncapped =
  QCheck2.Test.make ~count:100
    ~name:"codec: with no cap every line comes back"
    QCheck2.Gen.(
      gen_stream (frequency [ (9, int_range 0 64); (1, int_range 8000 20000) ]))
    (fun (lines, pieces) ->
      let got = read_all pieces in
      got = List.map (fun l -> `Line l) lines
      || QCheck2.Test.fail_reportf "got %s for %d lines" (print_events got)
           (List.length lines))

(* The exit code of [args] run to completion, with its output dropped
   but for [stderr] when given. *)
let exit_code ?stderr args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process args.(0) args Unix.stdin null
          (Option.value stderr ~default:null))
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> failf "%s did not exit" (String.concat " " (Array.to_list args))

(* frame_signal.exe: a signal reaching the thread blocked in a read does
   not end the read (see that file). *)
let test_frame_signal () =
  Test_util.with_tmp_dir "amgs" @@ fun dir ->
  let err = Filename.concat dir "err" in
  let exe = Test_util.built_exe ~dir:"test" "frame_signal.exe" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let code =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        exit_code ~stderr:fd [| exe |])
  in
  if code <> 0 then
    failf "frame_signal.exe: %s" (In_channel.with_open_bin err In_channel.input_all)

(* --- amgen build and amgen request agree --------------------------------

   The four requests of CI's agreement step, run through the amgen binary
   both ways: as a build, and as a request to an amgend serving the same
   module source.  The exit code is the status, and the CIF bytes are
   those of [Cif.of_lobj] on both sides. *)

let read_bytes path =
  if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let test_build_request_agree () =
  Test_util.with_tmp_dir "amga" @@ fun dir ->
  let amgen = Test_util.built_exe ~dir:"bin" "amgen.exe" in
  let lib = Filename.concat dir "lib.amg" in
  Out_channel.with_open_bin lib (fun oc ->
      output_string oc (Amg_lang.Stdlib.contact_row ^ Amg_lang.Stdlib.diff_pair));
  let socket = Filename.concat dir "d.sock" in
  let daemon = Test_util.spawn_amgend ~socket ~lib () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] daemon))
  @@ fun () ->
  Client.close (Client.connect_retry ~attempts:10 ~delay:0.05 socket);
  let requests =
    [
      [];
      [ "--optimize"; "local" ];
      [ "--max-evals"; "2" ];
      [ "--permissive"; "--inject"; "sindex-query@2,sindex-query@3";
        "--optimize"; "orders"; "--max-evals"; "1" ];
    ]
  in
  List.iteri
    (fun i flags ->
      let name = String.concat " " flags in
      let cif side = Filename.concat dir (Printf.sprintf "%s%d.cif" side i) in
      let entity = [ "DiffPair"; "-p"; "W=10"; "-p"; "L=5" ] in
      let built =
        exit_code
          (Array.of_list
             ((amgen :: "build" :: lib :: entity) @ flags @ [ "--cif"; cif "b" ]))
      in
      let served =
        exit_code
          (Array.of_list
             ((amgen :: "request" :: "--socket" :: socket :: entity)
             @ flags @ [ "-o"; cif "r" ]))
      in
      check int (Printf.sprintf "[%s] exit codes" name) built served;
      match (read_bytes (cif "b"), read_bytes (cif "r")) with
      | Some b, Some r -> check string (Printf.sprintf "[%s] CIF bytes" name) b r
      | _ -> failf "[%s] a CIF file is missing" name)
    requests

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
    test_case "TCP listener answers as the socket" `Quick test_tcp_listener;
    test_case "tenant cache scopes are isolated" `Quick test_tenant_isolation;
    test_case "empty tenant is its own memo scope" `Quick test_empty_tenant;
    test_case "memo LRU bounds fresh tenants" `Quick test_tenant_eviction;
    test_case "concurrent clients all answered in order" `Quick
      test_concurrent_clients;
    test_case "budgets degrade to status 3, daemon keeps serving" `Quick
      test_deadline_degrades;
    test_case "graceful shutdown drains in-flight requests" `Quick
      test_graceful_shutdown;
    test_case "metrics and health scrape over the wire" `Quick test_scrape_ops;
    test_case "access log lines parse and carry the schema" `Quick
      test_access_log;
    test_case "access log counts an orders build's nodes and a bb or local \
               build's cost" `Quick
      test_orders_access_evals;
    test_case "sampled requests export valid per-request traces" `Quick
      test_request_traces;
    test_case "request counters deterministic across jobs" `Quick
      test_counter_determinism;
    test_case "metrics and health answer while a cold build runs" `Quick
      test_scrape_mid_load;
    test_case "server and client build latencies agree" `Quick
      test_latency_cross_check;
    test_case "an access log alone leaves Obs off" `Quick
      test_access_log_leaves_obs_off;
    test_case "a store-answered build logs store-hit, evals 0" `Quick
      test_store_hit_logs_no_evals;
    test_case "a warm daemon sweep counts every row a store hit" `Quick
      test_warm_sweep_store_hits;
    QCheck_alcotest.to_alcotest prop_frame_capped;
    QCheck_alcotest.to_alcotest prop_frame_uncapped;
    test_case "codec: a signal does not end a blocked read" `Quick
      test_frame_signal;
    test_case "amgen build and amgen request agree" `Quick
      test_build_request_agree;
  ]
