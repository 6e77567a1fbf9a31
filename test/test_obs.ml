(* The observability layer: span nesting, counter accumulation, the
   fork/enter/join merge determinism under domain pools, the Chrome
   trace exporter/validator, and the zero-perturbation guarantee —
   enabling the probes must not change any generated layout or rating. *)

module Obs = Amg_obs.Obs
module Trace = Amg_obs.Trace
module Units = Amg_geometry.Units
module Dir = Amg_geometry.Dir
module Rect = Amg_geometry.Rect
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Rating = Amg_core.Rating
module Pool = Amg_parallel.Pool
module M = Amg_modules

let um = Units.of_um
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_list = Alcotest.(check (list string))

let domain_counts = Test_util.domain_counts

(* Timestamp-free signature of the event stream: everything the
   determinism contract promises to keep identical across domain counts. *)
let signature () =
  List.map
    (function
      | Obs.Begin { name; tid; _ } -> Printf.sprintf "B %s %d" name tid
      | Obs.End { name; tid; _ } -> Printf.sprintf "E %s %d" name tid
      | Obs.Mark { name; tid; args; _ } ->
          Printf.sprintf "M %s %d %s" name tid
            (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) args)))
    (Obs.events ())

let finally_reset f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* --- spans and counters on a single strand --- *)

let test_span_nesting () =
  finally_reset @@ fun () ->
  Obs.enable ();
  Obs.span "outer" (fun () ->
      Obs.count "work" 2;
      Obs.span "inner" (fun () -> Obs.count "work" 3);
      Obs.mark "note" [ ("k", "v") ]);
  check_str_list "nested B/E order"
    [ "B outer 0"; "B inner 0"; "E inner 0"; "M note 0 k=v"; "E outer 0" ]
    (signature ());
  check_int "counter accumulated" 5 (Obs.counter "work");
  check_int "absent counter is 0" 0 (Obs.counter "no-such");
  let sp = Obs.spans () in
  check_int "two span names" 2 (List.length sp);
  List.iter
    (fun (_, { Obs.calls; total_s }) ->
      check_int "calls" 1 calls;
      check_bool "non-negative duration" true (total_s >= 0.))
    sp

let test_span_exception_safe () =
  finally_reset @@ fun () ->
  Obs.enable ();
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  check_str_list "End emitted on raise" [ "B boom 0"; "E boom 0" ] (signature ())

let test_samples () =
  finally_reset @@ fun () ->
  Obs.enable ();
  List.iter (Obs.sample "rounds") [ 3.; 1.; 2. ];
  match Obs.samples () with
  | [ (name, st) ] ->
      Alcotest.(check string) "name" "rounds" name;
      check_int "count" 3 st.Obs.s_count;
      check_bool "min" true (st.Obs.s_min = 1.);
      check_bool "max" true (st.Obs.s_max = 3.);
      check_bool "sum" true (st.Obs.s_sum = 6.)
  | other -> Alcotest.failf "expected one sample, got %d" (List.length other)

let test_disabled_probes_are_noops () =
  finally_reset @@ fun () ->
  (* Never enabled: every probe must drop its data and cost nothing. *)
  Obs.count "c" 1;
  Obs.sample "s" 1.;
  Obs.mark "m" [];
  check_int "span still runs f" 7 (Obs.span "sp" (fun () -> 7));
  check_bool "no events" true (Obs.events () = []);
  check_bool "no counters" true (Obs.counters () = []);
  check_int "counter reads 0" 0 (Obs.counter "c")

(* --- fork/enter/join --- *)

let test_fork_join_slot_order () =
  finally_reset @@ fun () ->
  Obs.enable ();
  let strands = Obs.fork 3 in
  (* Enter the slots out of order: the join must still merge them in
     slot order, not completion order. *)
  List.iter
    (fun i ->
      Obs.enter strands i (fun () ->
          Obs.span "task" (fun () -> Obs.count "items" (i + 1))))
    [ 2; 0; 1 ];
  Obs.join strands;
  check_str_list "slots merged in slot order"
    [ "B task 1"; "E task 1"; "B task 2"; "E task 2"; "B task 3"; "E task 3" ]
    (signature ());
  check_int "counters folded" 6 (Obs.counter "items")

(* --- event retention and request windows --- *)

(* A serving process caps per-strand event retention: the event list
   stays bounded, End events whose Begin fell off are dropped so the
   stream still validates, and the aggregate tables stay exact. *)
let test_retention_cap () =
  finally_reset @@ fun () ->
  Obs.set_max_events (Some 8);
  Fun.protect ~finally:(fun () -> Obs.set_max_events None) @@ fun () ->
  Obs.enable ();
  for i = 1 to 100 do
    Obs.span "tick" (fun () -> Obs.count "k" i)
  done;
  let evs = Obs.events () in
  check_bool "retained events bounded near the cap" true
    (List.length evs > 0 && List.length evs <= 16);
  check_bool "truncation was counted" true (Obs.dropped_events () > 0);
  check_int "counters stay exact through truncation" 5050 (Obs.counter "k");
  Obs.disable ();
  match Trace.validate_string (Trace.to_string ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "truncated stream fails validation: %s" e

let window_names w =
  List.map
    (function
      | Obs.Begin { name; _ } -> "B " ^ name
      | Obs.End { name; _ } -> "E " ^ name
      | Obs.Mark { name; _ } -> "M " ^ name)
    (Obs.window_events w)

let test_window_slices () =
  finally_reset @@ fun () ->
  (* capture while disabled: the window stays empty even after enabling *)
  let off = Obs.window () in
  Obs.enable ();
  Obs.span "before" (fun () -> ());
  let w = Obs.window () in
  Obs.span "during" (fun () -> Obs.mark "m" []);
  check_str_list "window sees only events after capture"
    [ "B during"; "M m"; "E during" ]
    (window_names w);
  check_bool "disabled-capture window is empty" true (window_names off = []);
  check_int "the full stream keeps everything" 5
    (List.length (Obs.events ()))

(* --- determinism across domain counts --- *)

let pool_run d =
  finally_reset @@ fun () ->
  Obs.enable ();
  Pool.with_pool ~domains:d (fun p ->
      ignore
        (Pool.map_array p
           (fun i ->
             Obs.span "work" (fun () ->
                 Obs.count "items" 1;
                 Obs.mark "done" [ ("i", string_of_int i) ];
                 i * i))
           (Array.init 16 Fun.id)));
  (signature (), Obs.counters ())

let test_pool_determinism () =
  let ref_sig, ref_counters = pool_run 1 in
  check_bool "16 tasks recorded" true
    (List.length ref_sig > 0 && List.assoc "pool.tasks" ref_counters = 16);
  List.iter
    (fun d ->
      let s, c = pool_run d in
      check_str_list (Printf.sprintf "events identical, %d domains" d) ref_sig s;
      check_bool
        (Printf.sprintf "counters identical, %d domains" d)
        true (c = ref_counters))
    domain_counts

(* The real pipeline: an order search records identical counters (work
   done, not time spent) for every domain count. *)
let search_counters env d =
  finally_reset @@ fun () ->
  Obs.enable ();
  let mk name w h net =
    let o = Lobj.create name in
    ignore
      (Lobj.add_shape o ~layer:"metal1" ~rect:(Rect.of_size ~x:0 ~y:0 ~w ~h)
         ~net ());
    o
  in
  let steps =
    [
      Optimize.step (mk "a" (um 8.) (um 2.) "a") Dir.South;
      Optimize.step (mk "b" (um 2.) (um 6.) "b") Dir.West;
      Optimize.step (mk "c" (um 4.) (um 2.) "c") Dir.South;
      Optimize.step (mk "d" (um 2.) (um 2.) "d") Dir.West;
    ]
  in
  ignore (Optimize.optimize_bb env ~name:"p" ~domains:d steps);
  Obs.counters ()

let test_search_counters_deterministic () =
  let env = Env.bicmos () in
  let reference = search_counters env 1 in
  check_bool "bb nodes counted" true
    (List.mem_assoc "optimize.bb_nodes" reference);
  check_bool "placements counted" true
    (List.assoc "compact.placements" reference > 0);
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "identical counters, %d domains" d)
        true
        (search_counters env d = reference))
    domain_counts

(* --- the zero-perturbation property --- *)

(* Build the same module with probes off and on: the layout bytes (CIF)
   and the rating must be bit-identical.  The instrumentation may only
   observe, never steer. *)
let prop_enabled_build_identical =
  let gen = QCheck2.Gen.(tup2 (int_range 4 16) (int_range 2 6)) in
  QCheck2.Test.make ~name:"enabled probes never perturb layout or rating"
    ~count:20 gen (fun (w_um, l_um) ->
      let env = Env.bicmos () in
      let build () =
        M.Diff_pair.make env ~polarity:M.Mosfet.Pmos
          ~w:(um (float_of_int w_um))
          ~l:(um (float_of_int l_um))
          ~well:false ()
      in
      let fingerprint obj =
        ( Amg_layout.Cif.of_lobj ~tech:(Env.tech env) obj,
          Rating.rate env Rating.default obj )
      in
      Obs.disable ();
      Obs.reset ();
      let off = fingerprint (build ()) in
      Obs.enable ();
      let on = fingerprint (build ()) in
      Obs.disable ();
      Obs.reset ();
      off = on)

(* --- trace export and validation --- *)

let test_trace_roundtrip () =
  finally_reset @@ fun () ->
  Obs.enable ();
  Obs.span "top" (fun () ->
      Obs.count "k" 2;
      Obs.mark "note" [ ("a", "1"); ("quote", "say \"hi\"\n") ];
      Obs.span "sub" (fun () -> ()));
  Obs.disable ();
  match Trace.validate_string (Trace.to_string ()) with
  | Ok s ->
      check_int "spans" 2 s.Trace.v_spans;
      check_int "marks" 1 s.Trace.v_marks;
      check_int "threads" 1 s.Trace.v_threads;
      (* 2 B + 2 E + 1 mark + 1 counter sample *)
      check_int "events" 6 s.Trace.v_events
  | Error e -> Alcotest.failf "valid trace rejected: %s" e

let test_trace_validator_rejects () =
  let bad =
    [
      ("not json", "{");
      ("no traceEvents", "{\"foo\":1}");
      ( "missing key",
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":0}]}"
      );
      ( "unmatched B",
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0}]}"
      );
      ( "mismatched E name",
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0},{\"name\":\"y\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":0}]}"
      );
      ( "ts goes backwards",
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":5,\"pid\":0,\"tid\":0},{\"name\":\"x\",\"ph\":\"E\",\"ts\":1,\"pid\":0,\"tid\":0}]}"
      );
    ]
  in
  List.iter
    (fun (label, s) ->
      match Trace.validate_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validator accepted %s" label)
    bad;
  (* The spec's bare-array form is accepted. *)
  match
    Trace.validate_string
      "[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0},{\"name\":\"x\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":0}]"
  with
  | Ok s -> check_int "bare array spans" 1 s.Trace.v_spans
  | Error e -> Alcotest.failf "bare array rejected: %s" e

(* Per-request exports: a window slice serialised with request-id
   metadata must satisfy the validator, and the metadata discipline is
   enforced — a metadata object without a usable request_id, or spans
   that overlap, are rejected even when everything else is well formed. *)
let test_trace_metadata () =
  finally_reset @@ fun () ->
  Obs.enable ();
  let w = Obs.window () in
  Obs.span "req" (fun () -> Obs.mark "step" []);
  let evs = Obs.window_events w in
  Obs.disable ();
  let good =
    Trace.events_to_string
      ~metadata:[ ("request_id", "r000042"); ("op", "build") ]
      ~counters:[ ("k", 3) ]
      evs
  in
  (match Trace.validate_string good with
  | Ok s ->
      Alcotest.(check (option string))
        "request id surfaced by the validator" (Some "r000042")
        s.Trace.v_request_id;
      check_int "one span" 1 s.Trace.v_spans
  | Error e -> Alcotest.failf "per-request trace rejected: %s" e);
  let bad =
    [
      ( "metadata without request_id",
        Trace.events_to_string ~metadata:[ ("op", "build") ] evs );
      ( "empty request_id",
        Trace.events_to_string ~metadata:[ ("request_id", "") ] evs );
      ( "non-string request_id",
        "{\"traceEvents\":[],\"metadata\":{\"request_id\":7}}" );
      ( "overlapping spans",
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0},{\"name\":\"b\",\"ph\":\"B\",\"ts\":2,\"pid\":0,\"tid\":0},{\"name\":\"a\",\"ph\":\"E\",\"ts\":3,\"pid\":0,\"tid\":0},{\"name\":\"b\",\"ph\":\"E\",\"ts\":4,\"pid\":0,\"tid\":0}],\"metadata\":{\"request_id\":\"r1\"}}"
      );
    ]
  in
  List.iter
    (fun (label, s) ->
      match Trace.validate_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validator accepted %s" label)
    bad

let suite =
  [
    Alcotest.test_case "span nesting and counters" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "sample statistics" `Quick test_samples;
    Alcotest.test_case "disabled probes are no-ops" `Quick
      test_disabled_probes_are_noops;
    Alcotest.test_case "fork/join merges in slot order" `Quick
      test_fork_join_slot_order;
    Alcotest.test_case "pool events identical for 1/2/4 domains" `Quick
      test_pool_determinism;
    Alcotest.test_case "search counters identical for 1/2/4 domains" `Quick
      test_search_counters_deterministic;
    QCheck_alcotest.to_alcotest prop_enabled_build_identical;
    Alcotest.test_case "trace export validates" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace validator rejects malformed input" `Quick
      test_trace_validator_rejects;
    Alcotest.test_case "event retention stays bounded and exact" `Quick
      test_retention_cap;
    Alcotest.test_case "windows slice the stream per request" `Quick
      test_window_slices;
    Alcotest.test_case "per-request trace metadata validates" `Quick
      test_trace_metadata;
  ]
