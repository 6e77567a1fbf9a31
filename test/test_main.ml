(* The determinism suites exercise pools larger than this host's core
   count; lift the pool's oversubscription clamp so they get real worker
   domains (results are identical either way — that is what the suites
   assert). *)
let () = Amg_parallel.Pool.set_oversubscribe true

(* Alcotest sizes the suite column by the longest suite id and cuts each
   test name to fit the rest of an 80-column line, so that id's length
   fixes every shortened test id in the report.  The longest id is 12
   characters ("local-ladder"); a longer or shorter longest id renames
   every test whose name is cut. *)
let () =
  Alcotest.run "amg"
    [
      ("geometry", Test_geometry.suite);
      ("tech", Test_tech.suite);
      ("layout", Test_layout.suite);
      ("sindex", Test_sindex.suite);
      ("compact", Test_compact.suite);
      ("drc", Test_drc.suite);
      ("latchup", Test_latchup.suite);
      ("core", Test_core.suite);
      ("local-ladder", Test_core.ladder_suite);
      ("incremental", Test_incremental.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("lang", Test_lang.suite);
      ("route", Test_route.suite);
      ("modules", Test_modules.suite);
      ("circuit", Test_circuit.suite);
      ("amplifier", Test_amplifier.suite);
      ("extract", Test_extract.suite);
      ("tech-indep", Test_tech_indep.suite);
      ("robust", Test_robust.suite);
      ("store", Test_store.suite);
      ("sweep", Test_sweep.suite);
      ("serve", Test_serve.suite);
    ]
