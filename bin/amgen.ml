(* amgen — command-line front end of the module generator environment.

     amgen build  FILE.amg ENTITY [-p k=v]... [--svg out.svg] [--cif out.cif]
     amgen check  FILE.amg ENTITY [-p k=v]...      run the DRC
     amgen tech   [--out FILE]                     dump the built-in deck
     amgen amp    [--svg out.svg]                  build the BiCMOS amplifier
     amgen trace-lint FILE.json                    validate a --trace file
     amgen serve  [--socket PATH]                  run the generator daemon
     amgen request ENTITY [-p k=v]...              query a running daemon
     amgen metrics [--json]                        scrape a daemon's registry
     amgen health                                  probe a daemon's liveness
     amgen store  stat|verify|compact FILE         inspect a result store
     amgen sweep  SPEC.json [-o out.csv]           batch parameter-grid sweep

   `build --optimize MODE --store FILE` reuses (and feeds) a durable
   result store: a crash-safe log of best compaction orders, shared with
   `amgen serve --store`.

   Every pipeline subcommand takes --stats (instrumentation summary) and
   --trace FILE (Chrome trace-event JSON); `build` additionally takes
   --explain (per-placement binding-constraint audit), --optimize
   (compaction-order search) and the --max-time/--max-evals budgets.

   Exit codes: 0 success, 1 diagnostics (errors reported), 2 usage,
   3 budget exhausted — a valid best-so-far layout was emitted. *)

module Env = Amg_core.Env
module Lobj = Amg_layout.Lobj
module Obs = Amg_obs.Obs
module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Wire = Amg_robust.Wire
module Generate = Amg_lang.Generate
module Store = Amg_store.Store

open Cmdliner

let read_file = Amg_serve.Cli.read_file
let int_at_least = Amg_serve.Cli.int_at_least
let with_obs = Amg_serve.Cli.with_obs

let exit_ok = 0
let exit_diag = 1
let exit_usage = 2
let exit_degraded = 3

(* --- the diagnostics boundary --- *)

(* Run a command body under the failure policy and the fault-injection
   harness; print the reported and escaping diagnostics to stderr,
   optionally write the JSON report, and compute the exit code. *)
let run_guarded ?mode ?inject ?diag_json f =
  match Generate.guarded ?mode ?inject f with
  | Error msg ->
      Fmt.epr "amgen: bad --inject spec: %s@." msg;
      exit_usage
  | Ok (result, reported) ->
      let diags, code =
        match result with
        | Ok code -> (reported, code)
        | Error d -> (reported @ [ d ], exit_diag)
      in
      (* A permissive run that skipped placements emitted a valid but
         incomplete layout: error diagnostics force a non-zero exit even
         when the body itself succeeded. *)
      let code =
        if
          code = exit_ok
          && List.exists (fun d -> d.Diag.severity = Diag.Error) diags
        then exit_diag
        else code
      in
      List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) diags;
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc
            (Diag.list_to_json ~degraded:(code = exit_degraded) diags);
          output_char oc '\n';
          close_out oc;
          Fmt.pr "wrote %s@." path)
        diag_json;
      code

(* --- common arguments --- *)

let tech_arg =
  let doc = "Technology description file (default: built-in generic 1um BiCMOS)." in
  Arg.(value & opt (some file) None & info [ "t"; "tech" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Number of OCaml domains the optimization-mode searches (order \
     permutations, branch-and-bound, local search, topology variants) may \
     use.  Defaults to the machine's recommended domain count; results are \
     identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let set_jobs jobs = Option.iter Amg_parallel.Pool.set_default_domains jobs

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the instrumentation summary (span timings, counters, \
                 histograms) after the run.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the run as a Chrome trace-event JSON file (load in \
                 about://tracing or Perfetto; validate with trace-lint).")

let mode_arg =
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Fail on the first placement error (the default).")
  in
  let permissive =
    Arg.(value & flag
         & info [ "permissive" ]
             ~doc:"Degrade instead of failing: a placement error retries the \
                   opposite direction, then skips the object and reports a \
                   diagnostic.")
  in
  let combine strict permissive =
    if strict && permissive then
      `Error (true, "--strict and --permissive are mutually exclusive")
    else `Ok (if permissive then Policy.Permissive else Policy.Strict)
  in
  Term.(ret (const combine $ strict $ permissive))

let inject_arg =
  Arg.(value & opt (some string) None
       & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Deterministic fault injection: $(b,seed:N) (optionally \
                 $(b,seed:N:FAULTS)) or a comma list of SITE@HIT pairs like \
                 $(b,rule-lookup@3,pool-task@1).  Sites: rule-lookup, \
                 contact-rebuild, sindex-query, pool-task, drc-check.")

let diag_json_arg =
  Arg.(value & opt (some string) None
       & info [ "diag-json" ] ~docv:"FILE"
           ~doc:"Write all diagnostics of the run as a JSON report \
                 ($(b,version)/$(b,degraded)/$(b,diagnostics)).")

let max_time_arg =
  Arg.(value & opt (some float) None
       & info [ "max-time" ] ~docv:"SEC"
           ~doc:"Wall-clock budget for the optimization search; on overrun \
                 the best layout found so far is emitted and amgen exits 3.  \
                 Implies --optimize orders unless --optimize is given.")

let max_evals_arg =
  Arg.(value & opt (some int) None
       & info [ "max-evals" ] ~docv:"N"
           ~doc:"Evaluation budget (candidate layout rebuilds) for the \
                 optimization search; deterministic for every --jobs value.  \
                 Implies --optimize orders unless --optimize is given.")

let env_of_tech = function
  | None -> Env.bicmos ()
  | Some path -> Env.create (Amg_tech.Tech_file.load path)

let params_arg =
  let doc = "Entity parameter, e.g. -p W=10 or -p layer=poly (numbers in um)." in
  Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"K=V" ~doc)

let parse_params params =
  List.map
    (fun kv ->
      match String.index_opt kv '=' with
      | None ->
          Diag.failf Diag.Cli ~code:"cli.bad-param"
            ~hint:"parameters are written -p key=value, e.g. -p W=10"
            "bad parameter %s (expected k=v)" kv
      | Some i ->
          let k = String.sub kv 0 i
          and v = String.sub kv (i + 1) (String.length kv - i - 1) in
          let value =
            match float_of_string_opt v with
            | Some f -> Amg_lang.Value.Num f
            | None -> Amg_lang.Value.Str v
          in
          (k, value))
    params

let svg_arg =
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG rendering.")

let cif_arg =
  Arg.(value & opt (some string) None & info [ "cif" ] ~docv:"FILE" ~doc:"Write a CIF file.")

let gds_arg =
  Arg.(value & opt (some string) None & info [ "gds" ] ~docv:"FILE" ~doc:"Write a GDSII file.")

let ascii_arg =
  Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII-art preview.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.amg" ~doc:"Module source file.")

let entity_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"ENTITY" ~doc:"Entity to build.")

let build_obj tech_file file entity params =
  let env = env_of_tech tech_file in
  let obj =
    Amg_lang.Interp.parse_and_build ~file env (read_file file) entity
      (parse_params params)
  in
  (env, obj)

let emit env obj svg cif gds ascii =
  Fmt.pr "%a@." Amg_layout.Stats.pp (Amg_layout.Stats.of_lobj obj);
  if ascii then begin
    print_string (Amg_layout.Ascii.render ~tech:(Env.tech env) obj);
    List.iter
      (fun (g, l) -> Fmt.pr "  %c = %s@." g l)
      (Amg_layout.Ascii.legend ~tech:(Env.tech env) obj)
  end;
  Option.iter
    (fun path ->
      Amg_layout.Svg.save ~tech:(Env.tech env) obj path;
      Fmt.pr "wrote %s@." path)
    svg;
  Option.iter
    (fun path ->
      Amg_layout.Cif.save ~tech:(Env.tech env) obj path;
      Fmt.pr "wrote %s@." path)
    cif;
  Option.iter
    (fun path ->
      Amg_layout.Gds.save ~tech:(Env.tech env) obj path;
      Fmt.pr "wrote %s@." path)
    gds

(* --- build (with optional compaction-order optimization) --- *)

let optimize_arg =
  Arg.(value & opt (some (enum Wire.opt_modes)) None
       & info [ "optimize" ] ~docv:"MODE"
           ~doc:"Search over compaction orders of the entity's top-level \
                 compacts and emit the best-rated layout: $(b,orders) \
                 (exhaustive), $(b,bb) (branch-and-bound), $(b,local) \
                 (hill climbing).")

(* Durable result store: only strict, fault-free runs may consult or feed
   it (a permissive or injected run can rate orders against degraded
   layouts), so under --permissive/--inject the flag downgrades to a
   warning. *)
let with_store ~mode ~inject store_path f =
  match store_path with
  | None -> f None
  | Some path when mode <> Policy.Strict || inject <> None ->
      Policy.report
        (Diag.v ~severity:Diag.Warning Diag.Store ~code:"store.disabled"
           ~hint:"drop --permissive/--inject to reuse and feed the store"
           (Fmt.str "%s: result store disabled (stored orders must come from \
                     strict, fault-free runs)" path));
      f None
  | Some path ->
      let st, diags = Store.open_ path in
      List.iter Policy.report diags;
      Fun.protect
        ~finally:(fun () -> Store.close st)
        (fun () -> f (Some st))

let build_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"After building, print for every compacted object the \
                   binding layer/rule/edge pair that set its final position.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Durable result store (created if absent): reuse the best \
                   known compaction order for this (tech, entity, params, \
                   mode) if one is stored, and record a strictly better one \
                   found by this search.  Shared with $(b,amgen serve \
                   --store); inspect with $(b,amgen store).  Only meaningful \
                   with --optimize.")
  in
  let run tech_file jobs file entity params svg cif gds ascii stats trace
      explain optimize max_time max_evals store mode inject diag_json =
    set_jobs jobs;
    run_guarded ~mode ?inject ?diag_json @@ fun () ->
    let code =
      with_obs ~explain ~stats ~trace (fun () ->
          let env = env_of_tech tech_file in
          let src = read_file file in
          let params = parse_params params in
          let search =
            match optimize with
            | None when max_time <> None || max_evals <> None -> Some Wire.Orders
            | search -> search
          in
          if search = None && store <> None then
            Policy.report
              (Diag.v ~severity:Diag.Warning Diag.Store ~code:"store.unused"
                 ~hint:"add --optimize orders|bb|local"
                 "--store has no effect without --optimize");
          with_store ~mode ~inject (Option.bind search (fun _ -> store))
          @@ fun st ->
          let store =
            Option.map
              (fun st ->
                let tech = Generate.tech_fingerprint env in
                (st, Generate.store_key ~tech entity params))
              st
          in
          let program = Amg_lang.Parser.parse_program ~file src in
          let o =
            Generate.run env program
              (Generate.request ?search ?max_time ?max_evals ?store entity
                 params)
          in
          (match (search, o.searched) with
          | Some strategy, Some s ->
              Fmt.pr "optimized %s (%s): rating %g over %d compacts%s%s@."
                entity (Wire.opt_to_string strategy) s.rating s.compacts
                (if s.canonical_kept then ", canonical order kept" else "")
                (if o.degraded then ", budget exhausted (best-so-far)" else "")
          | _ -> ());
          emit env o.layout svg cif gds ascii;
          if o.degraded then exit_degraded else exit_ok)
    in
    if explain then Fmt.pr "%a" Amg_compact.Successive.pp_explain ();
    code
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an entity from a module source file.")
    Term.(const run $ tech_arg $ jobs_arg $ file_arg
          $ entity_arg $ params_arg $ svg_arg $ cif_arg $ gds_arg $ ascii_arg
          $ stats_arg $ trace_arg $ explain_arg $ optimize_arg $ max_time_arg
          $ max_evals_arg $ store_arg $ mode_arg $ inject_arg $ diag_json_arg)

let diag_of_violation v =
  Diag.v Diag.Drc ~code:"drc.violation" (Amg_drc.Violation.describe v)

let check_cmd =
  let latchup_arg =
    Arg.(value & flag
         & info [ "latchup" ]
             ~doc:"Also run the latch-up cover check (needs substrate taps; \
                   meaningful for complete cells, not bare modules).")
  in
  let run tech_file jobs file entity params latchup stats trace mode inject
      diag_json =
    set_jobs jobs;
    run_guarded ~mode ?inject ?diag_json @@ fun () ->
    let vios =
      with_obs ~stats ~trace (fun () ->
          let env, obj = build_obj tech_file file entity params in
          let checks =
            let open Amg_drc.Checker in
            [ Widths; Spacings; Enclosures; Extensions ]
            @ (if latchup then [ Latch_up ] else [])
          in
          let vios = Amg_drc.Checker.run ~checks ~tech:(Env.tech env) obj in
          Fmt.pr "%a" Amg_drc.Violation.pp_report vios;
          vios)
    in
    List.iter (fun v -> Policy.report (diag_of_violation v)) vios;
    if vios <> [] then exit_diag else exit_ok
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Build an entity and run the design-rule checker.")
    Term.(const run $ tech_arg $ jobs_arg $ file_arg $ entity_arg $ params_arg
          $ latchup_arg $ stats_arg $ trace_arg $ mode_arg $ inject_arg
          $ diag_json_arg)

let tech_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Run the deck consistency lint (on --tech FILE or the \
                   built-in deck) and exit non-zero on errors.")
  in
  let run tech_file out lint_flag diag_json =
    run_guarded ?diag_json @@ fun () ->
    if lint_flag then begin
      let tech =
        match tech_file with
        | None -> Amg_tech.Bicmos1u.get ()
        | Some path -> Amg_tech.Tech_file.load path
      in
      let issues = Amg_tech.Lint.check tech in
      if issues = [] then begin
        Fmt.pr "%s: deck is clean@." (Amg_tech.Technology.name tech);
        exit_ok
      end
      else begin
        List.iter (fun i -> Fmt.pr "%a@." Amg_tech.Lint.pp_issue i) issues;
        List.iter (fun d -> Policy.report d)
          (Amg_tech.Lint.to_diags ?file:tech_file issues);
        if Amg_tech.Lint.errors issues <> [] then exit_diag else exit_ok
      end
    end
    else begin
      (match out with
      | None -> print_string Amg_tech.Bicmos1u.source
      | Some path ->
          let oc = open_out path in
          output_string oc Amg_tech.Bicmos1u.source;
          close_out oc;
          Fmt.pr "wrote %s@." path);
      exit_ok
    end
  in
  Cmd.v
    (Cmd.info "tech"
       ~doc:"Print the built-in technology description file, or lint a deck.")
    Term.(const run $ tech_arg $ out $ lint $ diag_json_arg)

let synth_cmd =
  let sp_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.sp" ~doc:"SPICE netlist to synthesise.")
  in
  let hints_arg =
    let doc =
      "Matching hints, e.g. --hints M1:high,M2:high,M3:moderate \
       (low/moderate/high; devices without a hint default to low)."
    in
    Arg.(value & opt (some string) None & info [ "hints" ] ~docv:"SPEC" ~doc)
  in
  let parse_hints = function
    | None -> []
    | Some spec ->
        String.split_on_char ',' spec
        |> List.map (fun kv ->
               match String.split_on_char ':' kv with
               | [ d; "low" ] -> (d, Amg_circuit.Partition.Low)
               | [ d; "moderate" ] -> (d, Amg_circuit.Partition.Moderate)
               | [ d; "high" ] -> (d, Amg_circuit.Partition.High)
               | _ -> failwith ("bad hint " ^ kv ^ " (expected dev:low|moderate|high)"))
  in
  let run tech_file jobs path hints svg cif gds ascii stats trace mode
      diag_json =
    set_jobs jobs;
    run_guarded ~mode ?diag_json @@ fun () ->
    with_obs ~stats ~trace @@ fun () ->
    let env = env_of_tech tech_file in
    let netlist = Amg_circuit.Spice_in.load path in
    let r = Amg_amplifier.Synth.build env ~hints:(parse_hints hints) netlist in
    Fmt.pr "synthesised %s: %.1f x %.1f um (%.0f um2) in %.2f s@."
      (Amg_circuit.Netlist.name netlist)
      r.Amg_amplifier.Synth.width_um r.Amg_amplifier.Synth.height_um
      r.Amg_amplifier.Synth.area_um2 r.Amg_amplifier.Synth.build_time_s;
    List.iter
      (fun (c : Amg_circuit.Partition.cluster) ->
        Fmt.pr "  cluster %-16s %s@." c.Amg_circuit.Partition.cluster_name
          (String.concat "," c.Amg_circuit.Partition.device_names))
      r.Amg_amplifier.Synth.clusters;
    Fmt.pr "routed: %s@."
      (String.concat ", " r.Amg_amplifier.Synth.routing.Amg_route.Global.routed);
    List.iter
      (fun (n, why) -> Fmt.pr "UNROUTED %s: %s@." n why)
      r.Amg_amplifier.Synth.routing.Amg_route.Global.unrouted;
    let vios = Amg_drc.Checker.run ~tech:(Env.tech env) r.Amg_amplifier.Synth.obj in
    Fmt.pr "%a" Amg_drc.Violation.pp_report vios;
    let x = Amg_extract.Devices.extract ~tech:(Env.tech env) r.Amg_amplifier.Synth.obj in
    let lvs = Amg_extract.Compare.run ~golden:netlist x in
    Fmt.pr "%a" Amg_extract.Compare.pp_result lvs;
    emit env r.Amg_amplifier.Synth.obj svg cif gds ascii;
    exit_ok
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesise a layout from a SPICE netlist: partition, generate \
             modules, floorplan, route, check.")
    Term.(const run $ tech_arg $ jobs_arg $ sp_file $ hints_arg $ svg_arg
          $ cif_arg $ gds_arg $ ascii_arg $ stats_arg $ trace_arg $ mode_arg
          $ diag_json_arg)

let fmt_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the formatted source to FILE (default: stdout).")
  in
  let in_place =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite the input file.")
  in
  let run file out in_place =
    run_guarded @@ fun () ->
    let src = read_file file in
    let formatted =
      Amg_lang.Printer.program_str (Amg_lang.Parser.parse_program ~file src)
    in
    (match (in_place, out) with
    | true, _ ->
        let oc = open_out file in
        output_string oc formatted;
        close_out oc;
        Fmt.pr "formatted %s@." file
    | false, Some path ->
        let oc = open_out path in
        output_string oc formatted;
        close_out oc;
        Fmt.pr "wrote %s@." path
    | false, None -> print_string formatted);
    exit_ok
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:"Reformat a module source file (parse and pretty-print; the \
             output parses back to the identical program).")
    Term.(const run $ file_arg $ out $ in_place)

let gds_cmd =
  let gds_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.gds" ~doc:"GDSII stream file to import.")
  in
  let latchup_arg =
    Arg.(value & flag & info [ "latchup" ] ~doc:"Also run the latch-up cover check.")
  in
  let run tech_file path latchup ascii stats trace diag_json =
    run_guarded ?diag_json @@ fun () ->
    let vios =
      with_obs ~stats ~trace (fun () ->
          let env = env_of_tech tech_file in
          let tech = Env.tech env in
          let obj, dropped = Amg_layout.Gds.import_file ~tech path in
          Fmt.pr "%a@." Amg_layout.Stats.pp (Amg_layout.Stats.of_lobj obj);
          List.iter
            (fun g ->
              Fmt.pr "warning: GDS layer %d not in deck %s, boundaries dropped@."
                g (Amg_tech.Technology.name tech))
            dropped;
          if ascii then print_string (Amg_layout.Ascii.render ~tech obj);
          let checks =
            let open Amg_drc.Checker in
            [ Widths; Spacings; Enclosures; Extensions ]
            @ (if latchup then [ Latch_up ] else [])
          in
          let vios = Amg_drc.Checker.run ~checks ~tech obj in
          Fmt.pr "%a" Amg_drc.Violation.pp_report vios;
          vios)
    in
    List.iter (fun v -> Policy.report (diag_of_violation v)) vios;
    if vios <> [] then exit_diag else exit_ok
  in
  Cmd.v
    (Cmd.info "gds"
       ~doc:"Import a GDSII file against the deck and run the design-rule \
             checker on it.")
    Term.(const run $ tech_arg $ gds_file $ latchup_arg $ ascii_arg
          $ stats_arg $ trace_arg $ diag_json_arg)

let netlist_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the SPICE deck to FILE.")
  in
  let run tech_file file entity params out stats trace =
    run_guarded @@ fun () ->
    with_obs ~stats ~trace @@ fun () ->
    let env, obj = build_obj tech_file file entity params in
    let x = Amg_extract.Devices.extract ~tech:(Env.tech env) obj in
    let deck =
      Amg_extract.Spice.of_extracted
        ~title:(Printf.sprintf "extracted from %s (%s)" entity file) x
    in
    (match out with
    | None -> print_string deck
    | Some path ->
        Amg_extract.Spice.write_file path deck;
        Fmt.pr "wrote %s@." path);
    exit_ok
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Build an entity, extract its devices and print a SPICE deck.")
    Term.(const run $ tech_arg $ file_arg $ entity_arg $ params_arg $ out
          $ stats_arg $ trace_arg)

let amp_cmd =
  let spice_arg =
    Arg.(value & opt (some string) None
         & info [ "spice" ] ~docv:"FILE"
             ~doc:"Extract the finished layout and write a SPICE deck.")
  in
  let run tech_file jobs svg cif gds ascii spice stats trace mode diag_json =
    set_jobs jobs;
    run_guarded ~mode ?diag_json @@ fun () ->
    with_obs ~stats ~trace @@ fun () ->
    let env = env_of_tech tech_file in
    let r = Amg_amplifier.Amplifier.build env in
    Fmt.pr "BiCMOS amplifier: %.1f x %.1f um (%.0f um2), %d shapes, %.2f s@."
      r.Amg_amplifier.Amplifier.width_um r.Amg_amplifier.Amplifier.height_um
      r.Amg_amplifier.Amplifier.area_um2
      (Lobj.shape_count r.Amg_amplifier.Amplifier.obj)
      r.Amg_amplifier.Amplifier.build_time_s;
    let vios = Amg_drc.Checker.run ~tech:(Env.tech env) r.Amg_amplifier.Amplifier.obj in
    Fmt.pr "%a" Amg_drc.Violation.pp_report vios;
    Option.iter
      (fun path ->
        let x =
          Amg_extract.Devices.extract ~tech:(Env.tech env)
            r.Amg_amplifier.Amplifier.obj
        in
        Amg_extract.Spice.write_file path
          (Amg_extract.Spice.of_extracted ~title:"extracted BiCMOS amplifier" x);
        Fmt.pr "wrote %s@." path)
      spice;
    emit env r.Amg_amplifier.Amplifier.obj svg cif gds ascii;
    exit_ok
  in
  Cmd.v
    (Cmd.info "amp" ~doc:"Generate the BiCMOS broad-band amplifier (paper §3).")
    Term.(const run $ tech_arg $ jobs_arg $ svg_arg $ cif_arg $ gds_arg
          $ ascii_arg $ spice_arg $ stats_arg $ trace_arg $ mode_arg
          $ diag_json_arg)

let trace_lint_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.json"
             ~doc:"Chrome trace-event JSON file to validate.")
  in
  let run path =
    run_guarded @@ fun () ->
    match Amg_obs.Trace.validate_file path with
    | Ok s ->
        let open Amg_obs.Trace in
        Fmt.pr "%s: valid trace (%d events, %d threads, %d spans, %d marks%a)@."
          path s.v_events s.v_threads s.v_spans s.v_marks
          (fun ppf -> function
            | Some rid -> Fmt.pf ppf ", request %s" rid
            | None -> ())
          s.v_request_id;
        exit_ok
    | Error msg ->
        Fmt.epr "%s: invalid trace: %s@." path msg;
        exit_diag
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:"Validate a Chrome trace-event JSON file (as written by --trace): \
             well-formed, monotonic timestamps per thread, matched B/E pairs.")
    Term.(const run $ trace_file)

(* --- store maintenance --- *)

let store_file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"STORE" ~doc:"Result-store file.")

let pp_store_stats ppf (s : Store.stats) =
  Fmt.pf ppf
    "%d keys, %d records, %d bytes%a%a"
    s.Store.entries s.Store.log_records s.Store.log_bytes
    (fun ppf n -> if n > 0 then Fmt.pf ppf ", %d torn-tail truncation(s)" n)
    s.Store.torn_tail_truncations
    (fun ppf n -> if n > 0 then Fmt.pf ppf ", %d corrupt record(s)" n)
    s.Store.corrupt_records

let store_stat_cmd =
  let run path diag_json =
    run_guarded ?diag_json @@ fun () ->
    let s, diags = Store.verify path in
    List.iter Policy.report diags;
    Fmt.pr "%s: %a@." path pp_store_stats s;
    exit_ok
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Print a result store's summary (keys, records, bytes) without \
             modifying it.")
    Term.(const run $ store_file_arg $ diag_json_arg)

let store_verify_cmd =
  let run path diag_json =
    run_guarded ?diag_json @@ fun () ->
    let s, diags = Store.verify path in
    List.iter Policy.report diags;
    if s.Store.corrupt_records > 0 then begin
      Fmt.pr "%s: CORRUPT — %a@." path pp_store_stats s;
      exit_diag
    end
    else begin
      Fmt.pr "%s: ok — %a@." path pp_store_stats s;
      exit_ok
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Scan a result store read-only and exit non-zero if any interior \
             record is corrupt.  A torn tail (crash mid-append) is reported \
             but is not corruption — opening the store repairs it.")
    Term.(const run $ store_file_arg $ diag_json_arg)

let store_compact_cmd =
  let run path diag_json =
    run_guarded ?diag_json @@ fun () ->
    let st, diags = Store.open_ path in
    List.iter Policy.report diags;
    let before = (Store.stats st).Store.log_bytes in
    let ok =
      Fun.protect
        ~finally:(fun () -> Store.close st)
        (fun () ->
          Store.checkpoint st;
          let s = Store.stats st in
          if s.Store.checkpoints > 0 then begin
            Fmt.pr "compacted %s: %d keys, %d -> %d bytes@." path
              s.Store.entries before s.Store.log_bytes;
            true
          end
          else false)
    in
    if ok then exit_ok else exit_diag
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Rewrite a result store as one record per live key (repairing \
             any torn tail on the way) via write-to-temp + fsync + atomic \
             rename.")
    Term.(const run $ store_file_arg $ diag_json_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a durable result store (as written by \
             $(b,build --store) and $(b,serve --store)).")
    [ store_stat_cmd; store_verify_cmd; store_compact_cmd ]

(* --- sweep (batch parameter-grid exploration) --- *)

let sweep_cmd =
  let spec_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"SPEC.json"
             ~doc:"Sweep spec file: one entity, one value axis per \
                   parameter, optional search mode (see the README's \
                   \"Sweeping\" section).")
  in
  let library_arg =
    Arg.(value & opt (some file) None
         & info [ "f"; "file" ] ~docv:"FILE.amg"
             ~doc:"Module library the swept entity lives in (default: the \
                   built-in library).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Result file — a one-line JSON schema header, a CSV \
                   column line, then one CSV row per instance, written and \
                   flushed in canonical order so a killed sweep keeps its \
                   completed prefix.  Default: stdout.")
  in
  let chunk_arg =
    Arg.(value & opt (int_at_least 1 "--chunk") 8
         & info [ "chunk" ] ~docv:"N"
             ~doc:"Number of walk-consecutive instances scheduled as one \
                   pool task (the task granularity).  Results are identical \
                   for every value.")
  in
  let shuffle_arg =
    Arg.(value & flag
         & info [ "shuffle" ]
             ~doc:"Schedule the instances in a deterministically shuffled \
                   order instead of the walk order (an ablation switch: \
                   rows and ratings are identical, only timings change).")
  in
  let sweep_store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Durable result store (created if absent): every instance \
                   reuses its stored best compaction order and records a \
                   strictly better one it finds.  Shared with $(b,amgen \
                   serve --store).")
  in
  let check_arg =
    Arg.(value & opt (some file) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:"Validate an existing result file against its own schema \
                   header (column arity and cell types) and exit without \
                   running a sweep.")
  in
  let run tech_file jobs library spec out chunk shuffle store check stats trace
      mode inject diag_json =
    match check with
    | Some path -> (
        match Amg_sweep.Sweep.check_file path with
        | Ok rows ->
            Fmt.pr "%s: ok — %d rows@." path rows;
            exit_ok
        | Error e ->
            Fmt.epr "%s: %s@." path e;
            exit_diag)
    | None -> (
        match spec with
        | None ->
            Fmt.epr "amgen: a SPEC.json file is required (or --check FILE)@.";
            exit_usage
        | Some spec_file ->
            set_jobs jobs;
            run_guarded ~mode ?inject ?diag_json @@ fun () ->
            with_obs ~stats ~trace @@ fun () ->
            let spec =
              Amg_sweep.Sweep.parse_spec ~file:spec_file (read_file spec_file)
            in
            let env = env_of_tech tech_file in
            let source, source_file =
              match library with
              | None -> (Amg_lang.Stdlib.all, None)
              | Some f -> (read_file f, Some f)
            in
            let domains =
              match jobs with
              | Some j -> j
              | None -> Amg_parallel.Pool.default_domains ()
            in
            let oc = Option.map open_out out in
            let on_line =
              match oc with
              | None ->
                  fun line ->
                    print_string line;
                    print_newline ()
              | Some oc ->
                  fun line ->
                    output_string oc line;
                    output_char oc '\n';
                    flush oc
            in
            let result =
              Fun.protect
                ~finally:(fun () -> Option.iter close_out oc)
                (fun () ->
                  with_store ~mode ~inject store @@ fun store ->
                  Amg_sweep.Sweep.run ~domains ~chunk ~shuffle ?store
                    ?source_file ~on_line ~env ~source spec)
            in
            Fmt.epr
              "sweep %s (%s): %d rows, %d failures, %d duplicates dropped, \
               %d store hits, %.2f s@."
              spec.Amg_sweep.Sweep.s_entity
              (Wire.opt_to_string spec.Amg_sweep.Sweep.s_mode)
              result.Amg_sweep.Sweep.rows result.Amg_sweep.Sweep.failures
              result.Amg_sweep.Sweep.duplicates
              result.Amg_sweep.Sweep.store_hits
              result.Amg_sweep.Sweep.elapsed_s;
            Option.iter (fun p -> Fmt.epr "wrote %s@." p) out;
            if result.Amg_sweep.Sweep.failures > 0 then exit_degraded
            else exit_ok)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Expand a parameter-grid spec into its canonical instance list \
             (a Gray-code walk, duplicates removed), build and \
             order-optimize every instance on the domain pool, and emit one \
             layout-derived metric row per instance into a columnar result \
             file.  Rows are byte-identical for every --jobs, --chunk and \
             --shuffle setting; a partial sweep (some instances failed) \
             exits 3 with per-row diagnostics.")
    Term.(
      const run $ tech_arg $ jobs_arg $ library_arg $ spec_arg $ out_arg
      $ chunk_arg $ shuffle_arg $ sweep_store_arg $ check_arg $ stats_arg
      $ trace_arg $ mode_arg $ inject_arg $ diag_json_arg)

let () =
  let doc = "analog module generator environment (DATE'96 reproduction)" in
  let exits =
    [
      Cmd.Exit.info exit_ok ~doc:"on success.";
      Cmd.Exit.info exit_diag ~doc:"on reported diagnostics (errors).";
      Cmd.Exit.info exit_usage ~doc:"on command-line usage errors.";
      Cmd.Exit.info exit_degraded
        ~doc:"when an optimization budget was exhausted and a valid \
              best-so-far layout was emitted.";
    ]
  in
  let info = Cmd.info "amgen" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ build_cmd; check_cmd; tech_cmd; netlist_cmd; gds_cmd; fmt_cmd;
           synth_cmd; amp_cmd; trace_lint_cmd; store_cmd; sweep_cmd;
           Amg_serve.Cli.serve_cmd; Amg_serve.Cli.request_cmd;
           Amg_serve.Cli.metrics_cmd; Amg_serve.Cli.health_cmd ])
  in
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
