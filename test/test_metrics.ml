(* The serving metrics registry: instrument interning and kind checks,
   counter/gauge semantics, histogram bucket edges and bucketed
   percentile math, callback instruments, the deterministic Prometheus
   exposition, and the probes-never-perturb guarantee extended to the
   registry (arming it must not change any layout or rating).

   The registry is process-global and never unregisters, so every test
   uses its own name prefix and resets values on the way out. *)

module Metrics = Amg_obs.Metrics
module Env = Amg_core.Env
module Rating = Amg_core.Rating
module Units = Amg_geometry.Units
module M = Amg_modules

let um = Units.of_um
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let reset_after f = Fun.protect ~finally:Metrics.reset f

let find_value name =
  List.find_map
    (fun (s : Metrics.sample) ->
      if s.Metrics.m_name = name then Some s.Metrics.m_value else None)
    (Metrics.snapshot ())

let find_hist name =
  match find_value name with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.failf "histogram %s missing from snapshot" name

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- counters and gauges --- *)

let test_counters () =
  reset_after @@ fun () ->
  let c = Metrics.counter "tm.requests" in
  Metrics.add c 1;
  Metrics.add c 4;
  Metrics.add c (-3);
  check_int "adds accumulate; negative add ignored" 5
    (Metrics.counter_value c);
  let c' = Metrics.counter "tm.requests" in
  Metrics.add c' 1;
  check_int "same name+labels interns to one instrument" 6
    (Metrics.counter_value c);
  let l1 = Metrics.counter ~labels:[ ("op", "a"); ("cache", "x") ] "tm.requests" in
  let l2 = Metrics.counter ~labels:[ ("cache", "x"); ("op", "a") ] "tm.requests" in
  Metrics.add l1 1;
  check_int "label order is canonicalised" 1 (Metrics.counter_value l2);
  (match Metrics.fgauge "tm.requests" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Metrics.reset ();
  check_int "reset zeroes but keeps the registration" 0
    (Metrics.counter_value c);
  let g = Metrics.fgauge "tm.depth" in
  Metrics.set_f g 7.;
  Metrics.set_f g 3.;
  check_bool "gauges are settable both ways" true
    (match find_value "tm.depth" with Some (Metrics.Gauge v) -> v = 3. | _ -> false)

(* --- histogram bucket edges --- *)

let test_bucket_edges () =
  reset_after @@ fun () ->
  let h = Metrics.histogram ~bounds:[| 1.; 2.; 4. |] "tm.edges" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.0001; 2.0; 4.0; 5.0 ];
  let s = find_hist "tm.edges" in
  Alcotest.(check (array int))
    "a bound is inclusive; past the last bound lands in overflow"
    [| 2; 2; 1; 1 |] s.Metrics.h_counts;
  check_int "total observations" 6 s.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sum is exact" 13.5001 s.Metrics.h_sum;
  (match Metrics.histogram ~bounds:[| 2.; 1. |] "tm.bad" with
  | _ -> Alcotest.fail "non-increasing bounds accepted"
  | exception Invalid_argument _ -> ());
  check_int "default bounds span 0.25 ms .. ~524 s" 22
    (Array.length Metrics.default_latency_bounds)

(* --- bucketed percentiles --- *)

let test_quantiles () =
  reset_after @@ fun () ->
  let h = Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8. |] "tm.q" in
  (* 10 observations: 5 in (0,1], 4 in (1,2], 1 in (4,8] *)
  for _ = 1 to 5 do
    Metrics.observe h 0.5
  done;
  for _ = 1 to 4 do
    Metrics.observe h 1.5
  done;
  Metrics.observe h 6.0;
  let s = find_hist "tm.q" in
  let q p = Metrics.quantile s p in
  Alcotest.(check (float 0.)) "p50 is the 5th observation's bucket bound" 1.
    (q 0.5);
  Alcotest.(check (float 0.)) "p90 is the 9th observation's bucket bound" 2.
    (q 0.9);
  Alcotest.(check (float 0.)) "p99 rounds up to the last observation" 8.
    (q 0.99);
  let empty = Metrics.histogram ~bounds:[| 1. |] "tm.q.empty" in
  ignore empty;
  Alcotest.(check (float 0.)) "empty histogram quantile is 0" 0.
    (Metrics.quantile (find_hist "tm.q.empty") 0.5);
  let over = Metrics.histogram ~bounds:[| 1. |] "tm.q.over" in
  Metrics.observe over 100.;
  check_bool "overflow-bucket quantile is +Inf" true
    (Metrics.quantile (find_hist "tm.q.over") 1.0 = infinity)

(* --- callback instruments --- *)

let test_callbacks () =
  reset_after @@ fun () ->
  let v = ref 1 in
  Metrics.gauge_fn "tm.cb" (fun () -> float_of_int !v);
  (match find_value "tm.cb" with
  | Some (Metrics.Gauge g) ->
      Alcotest.(check (float 0.)) "callback sampled at snapshot time" 1. g
  | _ -> Alcotest.fail "callback gauge missing");
  v := 7;
  (match find_value "tm.cb" with
  | Some (Metrics.Gauge g) ->
      Alcotest.(check (float 0.)) "callback reads live state" 7. g
  | _ -> Alcotest.fail "callback gauge missing");
  (* re-registration replaces the callback (restarted-server contract) *)
  Metrics.gauge_fn "tm.cb" (fun () -> 42.);
  (match find_value "tm.cb" with
  | Some (Metrics.Gauge g) ->
      Alcotest.(check (float 0.)) "re-registration re-points the callback" 42. g
  | _ -> Alcotest.fail "callback gauge missing");
  Metrics.counter_fn "tm.cb.boom" (fun () -> failwith "boom");
  match find_value "tm.cb.boom" with
  | Some (Metrics.Counter n) ->
      check_int "a raising callback reads as 0, scrape survives" 0 n
  | _ -> Alcotest.fail "callback counter missing"

(* --- Prometheus exposition --- *)

let test_prometheus () =
  reset_after @@ fun () ->
  let c = Metrics.counter ~labels:[ ("op", "build") ] "tm.exp.requests" in
  Metrics.add c 1;
  let h = Metrics.histogram ~bounds:[| 0.1; 1. |] "tm.exp.lat" in
  Metrics.observe h 0.05;
  Metrics.observe h 0.5;
  let text = Metrics.to_prometheus () in
  List.iter
    (fun line -> check_bool (Printf.sprintf "exposition has %S" line) true
        (contains text line))
    [
      "# TYPE tm_exp_requests_total counter";
      "tm_exp_requests_total{op=\"build\"} 1";
      "# TYPE tm_exp_lat histogram";
      "tm_exp_lat_bucket{le=\"0.1\"} 1";
      "tm_exp_lat_bucket{le=\"1\"} 2";
      "tm_exp_lat_bucket{le=\"+Inf\"} 2";
      "tm_exp_lat_sum 0.55";
      "tm_exp_lat_count 2";
    ];
  check_bool "equal snapshots give byte-equal expositions" true
    (String.equal text (Metrics.to_prometheus ()));
  (* every line is a comment or "name[{labels}] value" *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && not (String.length line >= 1 && line.[0] = '#') then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "unparsable exposition line %S" line
           | Some i ->
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               if
                 (not (List.mem v [ "+Inf"; "-Inf"; "NaN" ]))
                 && float_of_string_opt v = None
               then Alcotest.failf "bad sample value in line %S" line)

(* --- probes never perturb, extended to the registry --- *)

let test_registry_never_perturbs () =
  reset_after @@ fun () ->
  let env = Env.bicmos () in
  let build () =
    M.Diff_pair.make env ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 2.)
      ~well:false ()
  in
  let fingerprint obj =
    ( Amg_layout.Cif.of_lobj ~tech:(Env.tech env) obj,
      Rating.rate env Rating.default obj )
  in
  let clean = fingerprint (build ()) in
  Metrics.add (Metrics.counter "tm.perturb.c") 1;
  Metrics.gauge_fn "tm.perturb.g" (fun () -> 1.);
  Metrics.observe (Metrics.histogram "tm.perturb.h") 0.001;
  let armed = fingerprint (build ()) in
  ignore (Metrics.to_prometheus ());
  let after_scrape = fingerprint (build ()) in
  check_bool "layout and rating identical with the registry armed" true
    (clean = armed);
  check_bool "identical after a scrape too" true (clean = after_scrape)

let suite =
  [
    Alcotest.test_case "counters and gauges intern and accumulate" `Quick
      test_counters;
    Alcotest.test_case "histogram bucket edges are inclusive" `Quick
      test_bucket_edges;
    Alcotest.test_case "bucketed percentiles are exact on bucket ranks" `Quick
      test_quantiles;
    Alcotest.test_case "callback instruments sample live state" `Quick
      test_callbacks;
    Alcotest.test_case "prometheus exposition is deterministic and parses"
      `Quick test_prometheus;
    Alcotest.test_case "registry probes never perturb results" `Quick
      test_registry_never_perturbs;
  ]
