(* The durable result store: on-disk format round-trips, torn-tail and
   corrupt-record recovery, checkpoint compaction, the Optimize ?store
   seeding contract, and the serve-layer integration — warm restart
   (in-process and across a real SIGKILLed daemon) and client retry.

   The centrepiece is the fault-schedule property: under ANY injected
   schedule over the four store I/O sites, the store keeps serving
   byte-identical results, reopens cleanly afterwards, and everything it
   has to say arrives as structured store.* diagnostics. *)

open Alcotest
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Store = Amg_store.Store
module Diag = Amg_robust.Diag
module Inject = Amg_robust.Inject
module Policy = Amg_robust.Policy
module Wire = Amg_robust.Wire
module Server = Amg_serve.Server
module Client = Amg_serve.Client
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Interp = Amg_lang.Interp

(* Same Stack as the robustness suite: four top-level compacts, fully
   replayable, 24 orders — small enough to search exhaustively in every
   property case. *)
let source =
  {|
ENT ContactRow(layer, <W>, <L>, <net>)
  INBOX(layer, W, L, net = net)
  INBOX("metal1", net = net)
  ARRAY("contact", net = net)

ENT Stack()
  a = ContactRow(layer = "pdiff", W = 4, L = 6, net = "a")
  b = ContactRow(layer = "pdiff", W = 6, L = 4, net = "b")
  c = ContactRow(layer = "poly", W = 3, L = 8, net = "c")
  d = ContactRow(layer = "pdiff", W = 5, L = 5, net = "d")
  compact(a, NORTH, align = "MIN")
  compact(b, NORTH, align = "MIN")
  compact(c, NORTH, align = "MIN")
  compact(d, NORTH, align = "MIN")
|}

let program = Amg_lang.Parser.parse_program ~file:"inline.amg" source

let recorded () =
  let e = Env.bicmos () in
  match Interp.build_recorded e program "Stack" [] with
  | _, Ok r -> (e, r)
  | _, Error why -> failwith ("Stack should be replayable: " ^ why)

let fingerprint obj =
  String.concat ";" (List.map Shape.show (Lobj.shapes obj))

let order_indices (steps : Optimize.step list) order =
  List.map
    (fun s ->
      let rec idx i = function
        | [] -> -1
        | x :: tl -> if x == s then i else idx (i + 1) tl
      in
      idx 0 steps)
    order

let key_of e =
  Store.signature
    ~tech:(Store.tech_fingerprint (Amg_tech.Tech_file.to_string (Env.tech e)))
    ~entity:"Stack" ~params:[]

let file_size path = (Unix.stat path).Unix.st_size

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let entry ?(perm = [| 1; 0; 2 |]) ?(meta = []) rating =
  { Store.rating; perm; meta }

(* The [keep] test of a minimizing write: the incumbent stays unless
   rating [r] is strictly lower. *)
let lower r old = old.Store.rating <= r

let no_warnings what diags =
  check bool what true
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) diags)

(* --- persistence round-trip -------------------------------------------- *)

let test_roundtrip () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "r.store" in
  let st, diags = Store.open_ path in
  check (list string) "fresh store opens silently" []
    (List.map (fun d -> d.Diag.code) diags);
  check bool "miss on a fresh store" true (Store.find st "k" = None);
  (* strictly-better semantics: ratings are minimized *)
  check bool "first record lands" true
    (Store.record_if st "k" ~keep:(lower 5.0) (entry 5.0));
  check bool "worse rating rejected" false
    (Store.record_if st "k" ~keep:(lower 7.0) (entry 7.0));
  check bool "better rating replaces" true
    (Store.record_if st "k" ~keep:(lower 3.0) (entry 3.0));
  (* meta strings are binary-safe (no JSON/quoting on this path) *)
  Store.record st "k2"
    (entry ~perm:[| 3; 1; 2; 0 |]
       ~meta:[ ("mode", "local:r4:s1"); ("note", "a\nb\"c") ]
       1.25);
  Store.close st;
  let st, diags = Store.open_ path in
  no_warnings "replay is clean" diags;
  let s = Store.stats st in
  (* k was appended twice (5.0 then 3.0): last record for a key wins *)
  check int "all appended records replayed" 3 s.Store.recovered_records;
  check int "live entries deduplicate" 2 s.Store.entries;
  (match Store.find st "k" with
  | Some e ->
      check (float 0.) "rating survives" 3.0 e.Store.rating;
      check (array int) "perm survives" [| 1; 0; 2 |] e.Store.perm
  | None -> fail "k lost across reopen");
  (match Store.find st "k2" with
  | Some e ->
      check (array int) "perm survives" [| 3; 1; 2; 0 |] e.Store.perm;
      check
        (list (pair string string))
        "meta survives byte-exactly"
        [ ("mode", "local:r4:s1"); ("note", "a\nb\"c") ]
        e.Store.meta
  | None -> fail "k2 lost across reopen");
  Store.close st

(* --- torn tail: the shape of a crash mid-append ------------------------ *)

let test_torn_tail () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "t.store" in
  let st, _ = Store.open_ path in
  Store.record st "k1" (entry 1.0);
  Store.close st;
  let s1 = file_size path in
  let st, _ = Store.open_ path in
  Store.record st "k2" (entry 2.0);
  Store.close st;
  let s2 = file_size path in
  let full = read_bytes path in
  (* every way of tearing the second record: mid frame header, bare frame
     header, mid payload *)
  List.iter
    (fun cut ->
      write_bytes path (String.sub full 0 cut);
      let st, diags = Store.open_ path in
      no_warnings "torn tail recovers silently" diags;
      let s = Store.stats st in
      check int "tail truncation counted" 1 s.Store.torn_tail_truncations;
      check int "no corruption" 0 s.Store.corrupt_records;
      check bool "k1 survives" true (Store.find st "k1" <> None);
      check bool "torn k2 dropped" true (Store.find st "k2" = None);
      (* the repair leaves a clean boundary: appending works again *)
      Store.record st "k2" (entry 2.0);
      Store.close st;
      check int "repair truncated to the last good record" s2 (file_size path);
      let st, _ = Store.open_ path in
      check int "both live after re-append" 2 (Store.length st);
      Store.close st)
    [ s1 + 1; s1 + 4; s1 + 8; s2 - 1 ]

let test_torn_header () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "h.store" in
  write_bytes path "AMGST";
  (* shorter than a header: a crash during store creation *)
  let st, diags = Store.open_ path in
  no_warnings "torn header recovers silently" diags;
  check int "counted as a truncation" 1
    (Store.stats st).Store.torn_tail_truncations;
  Store.record st "k" (entry 1.0);
  Store.close st;
  let st, _ = Store.open_ path in
  check int "store usable after header repair" 1 (Store.length st);
  Store.close st

(* --- corrupt interior record: surfaced, skipped, never served ---------- *)

let test_corrupt_record () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "c.store" in
  let st, _ = Store.open_ path in
  Store.record st "k1" (entry 1.0);
  Store.close st;
  let s1 = file_size path in
  let st, _ = Store.open_ path in
  Store.record st "k2" (entry 2.0);
  Store.record st "k3" (entry 3.0);
  Store.close st;
  let full = read_bytes path in
  (* flip one payload byte of the middle record: CRC must catch it *)
  let b = Bytes.of_string full in
  let off = s1 + 8 + 4 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  write_bytes path (Bytes.to_string b);
  let st, diags = Store.open_ path in
  check bool "store.corrupt_record diagnostic surfaced" true
    (List.exists
       (fun d ->
         d.Diag.code = "store.corrupt_record" && d.Diag.severity = Diag.Warning)
       diags);
  let s = Store.stats st in
  check int "one corrupt record counted" 1 s.Store.corrupt_records;
  check int "no tail truncation" 0 s.Store.torn_tail_truncations;
  check bool "record before the corruption survives" true
    (Store.find st "k1" <> None);
  check bool "corrupt record never served" true (Store.find st "k2" = None);
  check bool "record after the corruption survives" true
    (Store.find st "k3" <> None);
  Store.close st;
  (* verify agrees, read-only *)
  let vs, vdiags = Store.verify path in
  check int "verify sees the corruption" 1 vs.Store.corrupt_records;
  check bool "verify reports it" true
    (List.exists (fun d -> d.Diag.code = "store.corrupt_record") vdiags)

let test_bad_header () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "b.store" in
  write_bytes path "this is definitely not an AMGSTORE file, 32+ bytes long";
  (match Store.open_ path with
  | _ -> fail "foreign bytes must not open"
  | exception Diag.Fail d -> check string "code" "store.bad_header" d.Diag.code);
  (* same for a future version: never guess at an unknown format *)
  write_bytes path "AMGSTORE\x63\x00\x00\x00";
  match Store.open_ path with
  | _ -> fail "unknown version must not open"
  | exception Diag.Fail d -> check string "code" "store.bad_header" d.Diag.code

(* --- checkpoint: compaction via write-to-temp + atomic rename ---------- *)

let test_checkpoint () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "ck.store" in
  let st, _ = Store.open_ path in
  for i = 1 to 10 do
    for k = 0 to 4 do
      Store.record st (Printf.sprintf "key%d" k) (entry (float_of_int (100 - i)))
    done
  done;
  Store.close st;
  let big = file_size path in
  let st, _ = Store.open_ path in
  check int "all 50 appends replayed" 50 (Store.stats st).Store.recovered_records;
  Store.checkpoint st;
  let s = Store.stats st in
  check int "one record per live key" 5 s.Store.log_records;
  check bool "log shrank" true (s.Store.log_bytes < big);
  check int "checkpoint counted" 1 s.Store.checkpoints;
  check bool "temp file gone" false (Sys.file_exists (path ^ ".tmp"));
  (* the swung log fd still appends to the right file *)
  Store.record st "key9" (entry 7.0);
  Store.close st;
  let st, _ = Store.open_ path in
  check int "compacted + appended entries all live" 6 (Store.length st);
  (match Store.find st "key3" with
  | Some e -> check (float 0.) "last write won the compaction" 90. e.Store.rating
  | None -> fail "key3 lost by checkpoint");
  Store.close st

(* --- the canonical key ------------------------------------------------- *)

let test_signature () =
  let sg ps = Store.signature ~tech:"T" ~entity:"E" ~params:ps in
  check string "parameter order is canonicalized"
    (sg [ ("a", Store.Num 1.); ("b", Store.Str "x") ])
    (sg [ ("b", Store.Str "x"); ("a", Store.Num 1.) ]);
  check bool "values distinguish" true
    (sg [ ("a", Store.Num 1.) ] <> sg [ ("a", Store.Num 2.) ]);
  check bool "numbers and strings distinguish" true
    (sg [ ("a", Store.Num 1.) ] <> sg [ ("a", Store.Str "1.") ]);
  check bool "entities distinguish" true
    (Store.signature ~tech:"T" ~entity:"E2" ~params:[] <> sg []);
  check bool "tech fingerprints distinguish" true
    (Store.tech_fingerprint "deck A" <> Store.tech_fingerprint "deck B")

(* --- Optimize ?store: exact hits skip the search, bytes stay equal ----- *)

let test_optimize_seeding () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "o.store" in
  let e, { Interp.base; steps } = recorded () in
  let key = key_of e in
  let baseline =
    let o, r, ord, evals = Optimize.optimize_local e ~name:"stack" ~base steps in
    check bool "store-less search evaluates" true (evals > 0);
    (fingerprint o, r, order_indices steps ord)
  in
  let run st =
    let o, r, ord, evals =
      Optimize.optimize_local e ~name:"stack" ~base ~store:(st, key) steps
    in
    ((fingerprint o, r, order_indices steps ord), evals)
  in
  let st, _ = Store.open_ path in
  let r1, evals1 = run st in
  check bool "miss searched" true (evals1 > 0);
  check int "search recorded its best order" 1 (Store.length st);
  let r2, evals2 = run st in
  check int "hit replays without evaluating" 0 evals2;
  check bool "hit counted" true ((Store.stats st).Store.hits >= 1);
  Store.close st;
  (* cold process restart: the hit comes off the disk *)
  let st, _ = Store.open_ path in
  let r3, evals3 = run st in
  check int "reopened hit replays without evaluating" 0 evals3;
  Store.close st;
  let eq = triple string (float 0.) (list int) in
  check eq "miss == store-less" baseline r1;
  check eq "hit == store-less" baseline r2;
  check eq "reopened hit == store-less" baseline r3;
  (* a different search mode never reuses this entry *)
  let st, _ = Store.open_ path in
  let _, _, _, bb_nodes = Optimize.search e ~name:"stack" ~base ~store:(st, key) Wire.Bb steps in
  check bool "bb keyed separately from local" true (bb_nodes > 0);
  Store.close st

(* --- record_if: racing writers never clobber a strictly-better record -- *)

let test_record_race () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "race.store" in
  let st, _ = Store.open_ path in
  let key = "contended" in
  (* The sequential contract first: only a strict improvement writes. *)
  let record r = Store.record_if st key ~keep:(lower r) (entry r) in
  check bool "first write lands" true (record 7.);
  check bool "worse write refused" false (record 9.);
  check bool "equal write refused" false (record 7.);
  check bool "better write lands" true (record 3.);
  (* Then the race: many domains interleave record_if on one key.
     Whatever the schedule, the surviving record is the minimum rating —
     the test-and-set runs under the handle lock, so a slow writer can
     never clobber a better record that landed after its read. *)
  let ratings = Array.init 64 (fun i -> float_of_int (1 + ((i * 37) mod 64))) in
  Amg_parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Amg_parallel.Pool.map_array pool
           (fun r -> ignore (record r))
           ratings));
  let best st =
    match Store.find st key with Some e -> e.Store.rating | None -> nan
  in
  check (float 0.) "minimum rating survives the race" 1. (best st);
  Store.close st;
  (* The append-only log replays in write order, so the reopened handle
     converges to the same minimum. *)
  let st, diags = Store.open_ path in
  no_warnings "clean reopen after the race" diags;
  check (float 0.) "reopen replays to the minimum" 1. (best st);
  Store.close st

(* --- stale records are replaced, not just ignored ---------------------- *)

let test_stale_record_replaced () =
  Test_util.with_tmp_dir "amgst" @@ fun dir ->
  let path = Filename.concat dir "stale.store" in
  let e, { Interp.base; steps } = recorded () in
  let key = key_of e in
  let st, _ = Store.open_ path in
  (* A stale record: impossibly good rating, but its permutation no
     longer maps the step list (wrong arity — the module definition
     changed under the same key).  The lookup must reject it, and the
     finished search must replace it even though its honest rating is
     worse — otherwise every later run under this key re-pays the full
     search forever, while the diagnostic keeps promising replacement. *)
  ignore
    (Store.record st (key ^ "|m=local:r3:s1")
       { Store.rating = 0.; perm = [| 0 |]; meta = [] });
  Policy.reset ();
  let _, r1, _, evals1 =
    Optimize.optimize_local e ~name:"stack" ~base ~store:(st, key) steps
  in
  check bool "stale record forced a real search" true (evals1 > 0);
  check bool "stale record diagnosed" true
    (List.exists (fun d -> d.Diag.code = "store.stale_record") (Policy.drain ()));
  let _, r2, _, evals2 =
    Optimize.optimize_local e ~name:"stack" ~base ~store:(st, key) steps
  in
  check int "replacement record hits without searching" 0 evals2;
  check (float 0.) "replayed rating matches the search" r1 r2;
  Store.close st

(* --- the fault-schedule property --------------------------------------- *)

let store_sites = [ Inject.Store_read; Inject.Store_write; Inject.Store_fsync; Inject.Store_rename ]

let gen_store_schedule =
  let open QCheck2.Gen in
  list_size (int_range 1 5) (pair (oneofl store_sites) (int_range 1 12))

let print_schedule s =
  String.concat ","
    (List.map
       (fun (site, hit) ->
         Printf.sprintf "%s@%d" (Inject.site_to_string site) hit)
       s)

let is_store_diag d =
  String.length d.Diag.code > 6 && String.sub d.Diag.code 0 6 = "store."

let prop_store_fault_schedule =
  QCheck2.Test.make
    ~name:"any store fault schedule: byte-identical results, store.* diags"
    ~print:print_schedule ~count:30 gen_store_schedule (fun schedule ->
      Test_util.with_tmp_dir "amgsf" @@ fun dir ->
      let path = Filename.concat dir "f.store" in
      let e, { Interp.base; steps } = recorded () in
      let key = key_of e in
      let reference =
        let o, r, ord, _ = Optimize.search e ~name:"stack" ~base Wire.Orders steps in
        (fingerprint o, r, order_indices steps ord)
      in
      let run st =
        let o, r, ord, _ =
          Optimize.search e ~name:"stack" ~base ~store:(st, key) Wire.Orders
            steps
        in
        (fingerprint o, r, order_indices steps ord)
      in
      Policy.reset ();
      Inject.arm schedule;
      let odiags, r1, r2 =
        Fun.protect ~finally:Inject.disarm @@ fun () ->
        let st, odiags = Store.open_ path in
        Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
        let r1 = run st in
        let r2 = run st in
        Store.checkpoint st;
        (odiags, r1, r2)
      in
      let reported = Policy.drain () in
      Policy.reset ();
      (* whatever the faults did to the file, it must reopen and serve the
         same bytes *)
      let st, rdiags = Store.open_ path in
      let r3 =
        Fun.protect ~finally:(fun () -> Store.close st) (fun () -> run st)
      in
      r1 = reference && r2 = reference && r3 = reference
      && List.for_all is_store_diag (odiags @ rdiags @ reported))

(* --- serve: warm restart ----------------------------------------------- *)

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

let pack ?id ?tenant ?(optimize = Wire.Local) () =
  Wire.build ?id ?tenant ~jobs:1 ~optimize ~format:Wire.Cif
    ~params:[ ("W", Wire.Pnum 4.) ]
    "Pack"

let get sock req =
  match Client.oneshot sock req with
  | Ok resp -> resp
  | Error e -> failf "request failed: %s" e

let payload (r : Wire.response) =
  match r.Wire.payload with Some p -> p | None -> fail "response: no payload"

let scrape_has sock needle =
  let r = get sock (Wire.metrics ()) in
  let hay = payload r in
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_warm_restart () =
  Test_util.with_tmp_dir "amgwr" @@ fun dir ->
  let store = Filename.concat dir "r.store" in
  let cold =
    Test_util.with_server ~source:pack_source ~store @@ fun _t sock ->
    get sock (pack ~id:"cold" ~tenant:"wr" ())
  in
  check int "cold request ok" Wire.status_ok cold.Wire.status;
  check bool "store persisted on drain" true (Sys.file_exists store);
  (* a fresh daemon: empty memo — only the store is warm, and it must
     answer byte-identically *)
  Test_util.with_server ~source:pack_source ~store @@ fun _t sock ->
  let warm = get sock (pack ~id:"warm" ~tenant:"wr" ()) in
  check int "warm request ok" Wire.status_ok warm.Wire.status;
  check string "byte-identical across restart" (payload cold) (payload warm);
  check bool "outcome labelled store-hit" true (scrape_has sock "store-hit");
  check bool "store metrics exported" true (scrape_has sock "store_records")

(* --- serve: surviving kill -9 ------------------------------------------ *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_sigkill_restart () =
  Test_util.with_tmp_dir "amgk" @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let store = Filename.concat dir "r.store" in
  let lib = Filename.concat dir "lib.amg" in
  write_file lib (Test_util.row_pack 28 ^ pack_source);
  let pid = Test_util.spawn_amgend ~store ~socket ~lib () in
  let killed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !killed then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  (* ride through the daemon's startup with the client's bounded retry *)
  let c = Client.connect_retry ~attempts:40 ~delay:0.05 socket in
  Client.close c;
  let before = get socket (pack ~id:"populate" ~tenant:"e2e" ()) in
  check int "populate ok" Wire.status_ok before.Wire.status;
  (* kill -9 mid-load: a second cold search — 28 rows, tens of milliseconds of
     local search — is in flight when the daemon dies, so the log's tail
     may be torn; recovery must not care *)
  let finished = Atomic.make false in
  let victim = ref (Error "never ran") in
  let inflight =
    Thread.create
      (fun () ->
        victim :=
          Client.oneshot socket
            (Wire.build ~id:"victim" ~tenant:"victim" ~jobs:1
               ~optimize:Wire.Local
               ~params:[ ("W", Wire.Pnum 20.) ]
               "Rows28");
        Atomic.set finished true)
      ()
  in
  Test_util.await_in_flight socket ~finished:(fun () -> Atomic.get finished);
  Unix.kill pid Sys.sigkill;
  killed := true;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, _ -> fail "daemon did not die of SIGKILL");
  Thread.join inflight;
  check bool "the kill cut the victim's search short" true
    (Result.is_error !victim);
  (* the store survived the kill: it opens, and anything it recovered is
     intact (a torn tail from the in-flight append is expected and fine) *)
  let vs, _ = Store.verify store in
  check int "no corrupt records after kill -9" 0 vs.Store.corrupt_records;
  check bool "populated record survived" true (vs.Store.log_records >= 1);
  (* restart on the same socket and store: warm, byte-identical *)
  let t =
    Server.start (Server.config ~source:pack_source ~store socket)
  in
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  let after = get socket (pack ~id:"survivor" ~tenant:"e2e" ()) in
  check int "post-restart request ok" Wire.status_ok after.Wire.status;
  check string "byte-identical across kill -9" (payload before) (payload after);
  check bool "post-restart outcome is store-hit (not cold)" true
    (scrape_has socket "store-hit")

(* --- client retry across a daemon restart ------------------------------ *)

let test_client_retry () =
  Test_util.with_tmp_dir "amgcr" @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let srv = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.25;
        srv := Some (Server.start (Server.config ~source:pack_source socket)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join starter;
      Option.iter Server.stop !srv)
  @@ fun () ->
  (* nothing is listening yet: the retry loop must absorb ENOENT /
     ECONNREFUSED until the daemon comes up *)
  let retries = ref 0 in
  let c =
    Client.connect_retry ~attempts:60 ~delay:0.02 ~seed:7
      ~on_retry:(fun _ -> incr retries)
      socket
  in
  let resp =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.roundtrip c (Wire.ping ~id:"retry" ()))
  in
  check bool "client retried at least once" true (!retries > 0);
  match resp with
  | Ok r -> check int "ping answered after retries" Wire.status_ok r.Wire.status
  | Error e -> failf "ping failed: %s" e

let suite =
  [
    test_case "record/find round-trips across reopen" `Quick test_roundtrip;
    test_case "torn tail truncated silently, store repaired" `Quick
      test_torn_tail;
    test_case "torn header recovered" `Quick test_torn_header;
    test_case "corrupt interior record surfaced and skipped" `Quick
      test_corrupt_record;
    test_case "foreign or future files refuse to open" `Quick test_bad_header;
    test_case "checkpoint compacts to one record per key" `Quick
      test_checkpoint;
    test_case "signature canonicalizes parameters" `Quick test_signature;
    test_case "optimize ?store: hit skips search, bytes identical" `Quick
      test_optimize_seeding;
    test_case "record_if race keeps the strictly-better record" `Quick
      test_record_race;
    test_case "stale store record is replaced by the next search" `Quick
      test_stale_record_replaced;
    QCheck_alcotest.to_alcotest prop_store_fault_schedule;
    test_case "daemon warm restart answers from the store" `Quick
      test_warm_restart;
    test_case "kill -9 mid-load, restart warm and byte-identical" `Slow
      test_sigkill_restart;
    test_case "client rides through a daemon restart" `Quick test_client_retry;
  ]
