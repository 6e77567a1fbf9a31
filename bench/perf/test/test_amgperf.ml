(* amgperf smoke test: every workload at toy sizes, each in a fresh
   process as the benchmark runs them, checked against BENCHMARK.json —
   every declared metric prints with its declared unit and every oracle
   passes — plus unit tests of the statistics and of the rule
   [amgperf compare] applies. *)

open Amgperf_lib
module J = Amg_robust.Diag.Json

let amgperf = "../amgperf.exe"
let amgend = "../../../bin/amgend.exe"
let benchmark = "../../../BENCHMARK.json"
let workdir = "smoke"
let check_bool = Alcotest.(check bool)
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* --- statistics ---------------------------------------------------------- *)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  check_float "small q1" 1. q1;
  check_float "small q2" 2. q2;
  check_float "small q3" 3. q3

let test_tail () =
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  let p, v, _ = Stats.tail (ramp 40) in
  check_float "40 samples: p75, ten beyond" 75. p;
  check_float "40 samples: value" 30. v;
  let p, v, _ = Stats.tail (ramp 8000) in
  check_float "many samples: ten beyond" 99.875 p;
  check_float "many samples: value" 7990. v;
  let p, v, _ = Stats.tail (ramp 5) in
  check_float "few samples: never below the median" 60. p;
  check_float "few samples: value" 3. v

(* --- self time --------------------------------------------------------- *)

let test_self_time () =
  let tr = Tracer.create true in
  let b name ts = Amg_obs.Obs.Begin { name; tid = 0; ts }
  and e name ts = Amg_obs.Obs.End { name; tid = 0; ts } in
  (* op [0, 10] > optimize.local [1, 9] > optimize.local [2, 8] > compact [3, 5] *)
  Tracer.add_events tr ~op:1 ~cls:"test"
    [ b "op" 0.; b "optimize.local" 1.; b "optimize.local" 2.; b "compact" 3.; e "compact" 5.;
      e "optimize.local" 8.; e "optimize.local" 9.; e "op" 10. ];
  let l name = Tracer.layer tr name in
  check_float "op self time" 2. (l "op").Tracer.self_s;
  check_float "a span inside one of its name counts once" 8. (l "optimize.local").Tracer.total_s;
  check_float "both spans' self time" 6. (l "optimize.local").Tracer.self_s;
  check_float "innermost" 2. (l "compact").Tracer.self_s;
  check_float "coverage" 0.8 (Tracer.coverage tr);
  check_bool "the trace validates" true
    (Result.is_ok (Amg_obs.Trace.validate_string (Tracer.to_chrome tr ~run_id:"test")))

(* --- the compare rule --------------------------------------------------- *)

let verdict ?(bound = 0.10) ?(higher = false) base next =
  (Verdict.judge ~bound ~higher_is_better:higher base next).Verdict.verdict

let around c = List.init 10 (fun i -> c *. (1. +. (0.01 *. float_of_int (i - 5))))

let test_compare () =
  let is v expected msg = check_bool msg true (v = expected) in
  is (verdict (around 100.) (around 80.)) Verdict.Better "20% faster in every pair";
  is (verdict (around 100.) (around 130.)) Verdict.Regression "30% slower";
  is (verdict (around 100.) (around 105.)) Verdict.Unchanged "5% slower, within the bound";
  is (verdict ~higher:true (around 100.) (around 130.)) Verdict.Better "higher is better";
  is
    (verdict (List.filteri (fun i _ -> i < 9) (around 100.)) (List.filteri (fun i _ -> i < 9) (around 80.)))
    Verdict.Unchanged "nine pairs are too few to claim a gain";
  (* base quartiles spread far wider than the bound *)
  let noisy = [ 50.; 150.; 60.; 140.; 70.; 130.; 80.; 120.; 90.; 110. ] in
  is (verdict noisy (around 100.)) Verdict.Unresolved "spread wider than the bound";
  is (verdict noisy (List.init 10 (fun _ -> 40.))) Verdict.Better
    "wide spread, but every new run beats every base run";
  is (verdict ~bound:0. (List.init 10 (fun _ -> 3.)) (List.init 10 (fun _ -> 3.)))
    Verdict.Unchanged "exact metric unchanged";
  is (verdict ~bound:0. (List.init 10 (fun _ -> 3.)) (List.init 10 (fun _ -> 4.)))
    Verdict.Regression "exact metric worse"

(* --- BENCHMARK.json against the code's catalog ---------------------------- *)

let declared () = Report.read_benchmark benchmark

let test_catalog () =
  let e2e, layers = declared () in
  let same (d : Report.declared list) (c : Catalog.metric list) =
    List.map (fun (d : Report.declared) -> (d.Report.d_name, d.Report.d_unit, d.Report.d_higher)) d
    = List.map (fun (m : Catalog.metric) -> (m.Catalog.name, m.Catalog.unit, m.Catalog.higher_is_better)) c
  in
  check_bool "end_to_end matches the catalog" true (same e2e Catalog.end_to_end);
  check_bool "per_layer matches the catalog" true (same layers Catalog.per_layer)

(* --- smoke runs ------------------------------------------------------------ *)

let run_amgperf args =
  let argv = Array.of_list (amgperf :: "run" :: "--smoke" :: "--amgend" :: amgend :: "--workdir" :: workdir :: args) in
  let ic = Unix.open_process_args_in amgperf argv in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status, String.split_on_char '\n' (String.trim out))

let result_metrics lines =
  let last = List.nth lines (List.length lines - 1) in
  match J.of_string last with
  | Error e -> Alcotest.failf "last line is not JSON (%s): %s" e last
  | Ok j ->
      check_bool "correct" true (J.member "correct" j = Some (J.Jbool true));
      check_bool "no failed operation" true (J.member "failed" j = Some (J.Jnum 0.));
      (match Option.bind (J.member "attempted" j) J.num with
      | Some n -> check_bool "attempted at least one" true (n >= 1.)
      | None -> Alcotest.fail "no attempted count");
      (match J.member "metrics" j with
      | Some (J.Jobj kvs) -> kvs
      | _ -> Alcotest.fail "no metrics object")

(* Exactly the declared metrics, each a number with its declared unit. *)
let check_metrics what (declared : Report.declared list) kvs =
  check_bool (what ^ ": declared metric names") true
    (List.map fst kvs = List.map (fun (d : Report.declared) -> d.Report.d_name) declared);
  List.iter
    (fun (d : Report.declared) ->
      let v = List.assoc d.Report.d_name kvs in
      check_bool (what ^ ": unit of " ^ d.Report.d_name) true
        (J.member "unit" v = Some (J.Jstr d.Report.d_unit));
      check_bool (what ^ ": value of " ^ d.Report.d_name) true
        (match J.member "value" v with Some (J.Jnum f) -> Float.is_finite f | _ -> false))
    declared

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let smoke workload () =
  let e2e, layers = declared () in
  let status, lines = run_amgperf [ "--workload"; workload; "--trace"; "1" ] in
  check_bool "exit 0" true (status = Unix.WEXITED 0);
  let kvs = result_metrics lines in
  check_metrics (workload ^ " traced") layers kvs;
  (* the human-readable table prints every end-to-end metric with its unit *)
  List.iter
    (fun (d : Report.declared) ->
      check_bool ("prints " ^ d.Report.d_name) true
        (List.exists
           (fun l ->
             match words l with
             | [ n; _; u ] -> n = d.Report.d_name && u = d.Report.d_unit
             | _ -> false)
           lines))
    e2e;
  let trace = Filename.concat workdir (Printf.sprintf "trace-%s-seed1.json" workload) in
  check_bool "trace validates" true (Result.is_ok (Amg_obs.Trace.validate_file trace));
  if workload = "signoff_library" || workload = "search_cold" then
    match J.member "value" (List.assoc "trace.coverage" kvs) with
    | Some (J.Jnum c) -> check_bool "layer spans cover the operations" true (c >= 0.95)
    | _ -> Alcotest.fail "no trace.coverage"

let smoke_untraced () =
  let e2e, _ = declared () in
  let status, lines = run_amgperf [ "--workload"; "signoff_library"; "--trace"; "0" ] in
  check_bool "exit 0" true (status = Unix.WEXITED 0);
  check_metrics "signoff_library" e2e (result_metrics lines)

let () =
  Alcotest.run "amgperf"
    [
      ( "statistics",
        [
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "compare rule" `Quick test_compare;
        ] );
      ("declarations", [ Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_catalog ]);
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case (w ^ " traced") `Quick (smoke w))
          [ "signoff_library"; "search_cold"; "serve_mix"; "sweep_store" ]
        @ [ Alcotest.test_case "signoff_library untraced" `Quick smoke_untraced ] );
    ]
