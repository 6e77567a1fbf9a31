(* amgperf — the repository's benchmark (see README.md next to this file).

     amgperf run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                 [--smoke] [--out FILE] [--amgend EXE] [--workdir DIR]
     amgperf compare [--bench BENCHMARK.json] BASE NEW
     amgperf pin

   [run] without --workload runs every workload, each in a fresh process
   of its own.  The last line of standard output is one JSON object:
   correct / attempted / failed / metrics. *)

open Amgperf_lib

let workloads =
  [
    ("signoff_library", Signoff.run);
    ("search_cold", Search.run);
    ("serve_mix", Serve.run);
    ("sweep_store", Sweep_store.run);
  ]

let usage =
  "usage:\n\
  \  amgperf run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
  \              [--out FILE] [--amgend EXE] [--workdir DIR]\n\
  \  amgperf compare [--bench BENCHMARK.json] BASE NEW\n\
  \  amgperf pin\n"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_string ("amgperf: " ^ msg ^ "\n");
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* --- run ------------------------------------------------------------- *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable amgend : string;
  mutable workdir : string;
}

let run_one o name run =
  let scratch = Filename.concat o.workdir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  mkdir_p scratch;
  let ctx =
    {
      Common.seed = o.seed;
      seconds = o.seconds;
      smoke = o.smoke;
      tracer = Tracer.create o.trace;
      workdir = scratch;
      amgend = o.amgend;
      failures = [];
    }
  in
  let r = Fun.protect ~finally:(fun () -> rm_rf scratch) (fun () -> run ctx) in
  let succeeded = float_of_int (r.Common.attempted - r.Common.failed) in
  let r =
    {
      r with
      Common.e2e =
        r.Common.e2e @ [ ("success_ratio", succeeded /. float_of_int r.Common.attempted) ];
    }
  in
  let metrics =
    if o.trace then Layers.complete r.Common.layers else r.Common.e2e
  in
  List.iter
    (fun (n, v) ->
      Common.check ctx (Float.is_finite v) (Printf.sprintf "metric %s was not measured" n))
    (r.Common.e2e @ metrics);
  Printf.printf "workload %s, seed %d, %g s%s\n" name o.seed o.seconds
    (if o.trace then ", traced" else "");
  List.iter (Printf.printf "  %s\n") r.Common.notes;
  (match List.map (fun s -> s *. 1e6) (Host.timings ()) with
  | (_ :: _ :: _) as us ->
      let q1, q2, q3 = Stats.quartiles us in
      Printf.printf "  host reference: %d timings, quartiles %.1f %.1f %.1f us (nominal %.1f us)\n"
        (List.length us) q1 q2 q3 (Host.nominal_s *. 1e6)
  | _ -> ());
  Report.print_metrics r.Common.e2e;
  if o.trace then begin
    let path = Filename.concat o.workdir (Printf.sprintf "trace-%s-seed%d.json" name o.seed) in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Tracer.to_chrome ctx.Common.tracer ~run_id:(Printf.sprintf "%s-seed%d" name o.seed)));
    (match Amg_obs.Trace.validate_file path with
    | Ok s ->
        Printf.printf "  trace %s: %d events, %d spans, %d operations\n" path
          s.Amg_obs.Trace.v_events s.Amg_obs.Trace.v_spans s.Amg_obs.Trace.v_threads
    | Error e -> Common.check ctx false (Printf.sprintf "trace %s fails validation: %s" path e));
    Report.print_layer_table ctx.Common.tracer;
    Report.print_metrics metrics
  end;
  let correct = ctx.Common.failures = [] in
  Option.iter
    (fun path ->
      Report.append_record path
        (Report.record_line ~workload:name ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
           ~correct ~attempted:r.Common.attempted ~failed:r.Common.failed
           (if o.trace then metrics else r.Common.e2e)))
    o.out;
  print_endline
    (Report.result_line ~correct ~attempted:r.Common.attempted ~failed:r.Common.failed metrics);
  if correct then 0 else 1

(* Every workload in a fresh process: one workload's prefix cache, heap
   and RSS never leak into the next. *)
let run_all argv =
  let results =
    List.map
      (fun (name, _) ->
        let args = Array.append argv [| "--workload"; name |] in
        let r, w = Unix.pipe ~cloexec:true () in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        close_in ic;
        let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
        (name, ok, Report.J.of_string !last))
      workloads
  in
  let module J = Report.J in
  let num k j = Option.value ~default:0. (Option.bind (J.member k j) J.num) in
  let correct = List.for_all (fun (_, ok, _) -> ok) results in
  let attempted, failed, metrics =
    List.fold_left
      (fun (a, f, m) (name, _, j) ->
        match j with
        | Ok j ->
            let ms =
              match J.member "metrics" j with
              | Some (J.Jobj kvs) -> List.map (fun (k, v) -> (k ^ "@" ^ name, v)) kvs
              | _ -> []
            in
            (a +. num "attempted" j, f +. num "failed" j, m @ ms)
        | Error _ -> (a, f, m))
      (0., 0., []) results
  in
  print_endline
    (J.to_string
       (J.Jobj
          [
            ("correct", J.Jbool correct);
            ("attempted", J.Jnum attempted);
            ("failed", J.Jnum failed);
            ("metrics", J.Jobj metrics);
          ]));
  if correct then 0 else 1

let run args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 25.;
      trace = false;
      smoke = false;
      out = None;
      amgend = "_build/default/bin/amgend.exe";
      workdir = "_build/amgperf";
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "W one workload (default: all)");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N input seed");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S measured window the work is sized to");
      ("--trace", Arg.Int (fun n -> o.trace <- n <> 0), "0|1 traced run: per-layer metrics");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " toy sizes");
      ("--out", Arg.String (fun s -> o.out <- Some s), "FILE append run records");
      ("--amgend", Arg.String (fun s -> o.amgend <- s), "EXE daemon executable");
      ("--workdir", Arg.String (fun s -> o.workdir <- s), "DIR traces and scratch files");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.append [| "amgperf run" |] args) spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if o.seconds <= 0. then die "--seconds must be positive";
  mkdir_p o.workdir;
  match o.workload with
  | None -> run_all (Array.append [| Sys.executable_name; "run" |] args)
  | Some name -> (
      match List.assoc_opt name workloads with
      | Some f -> run_one o name f
      | None ->
          die "unknown workload %s (one of %s)" name
            (String.concat ", " (List.map fst workloads)))

(* --- compare --------------------------------------------------------- *)

let compare args =
  let bench = ref "BENCHMARK.json" and files = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.append [| "amgperf compare" |] args)
       [ ("--bench", Arg.Set_string bench, "FILE metric declarations and bounds") ]
       (fun f -> files := !files @ [ f ])
       usage
   with Arg.Bad msg | Arg.Help msg -> die "%s" msg);
  let base, next =
    match !files with [ b; n ] -> (b, n) | _ -> die "compare needs BASE and NEW\n%s" usage
  in
  let declared, _ = Report.read_benchmark !bench in
  let base = Report.read_records base and next = Report.read_records next in
  (* A run whose outputs failed a check measures nothing; one in NEW is a
     regression by itself. *)
  let incorrect = List.filter (fun (r : Report.record) -> not r.Report.r_correct) next in
  List.iter
    (fun (r : Report.record) -> Printf.printf "NEW run of %s failed its output checks\n" r.Report.r_workload)
    incorrect;
  let values records w m =
    List.filter_map
      (fun (r : Report.record) ->
        if r.Report.r_workload = w && r.Report.r_correct && not r.Report.r_trace then
          List.assoc_opt m r.Report.r_metrics
        else None)
      records
  in
  Printf.printf "%-14s %-16s %12s %12s %8s %6s %7s %6s  %s\n" "metric" "workload" "base p50"
    "new p50" "worse" "bound" "spread" "wins" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (d : Report.declared) ->
          match (values base w d.Report.d_name, values next w d.Report.d_name) with
          | [], _ | _, [] -> ()
          | b, n ->
              let bound = Option.value ~default:0. d.Report.d_bound in
              let r = Verdict.judge ~bound ~higher_is_better:d.Report.d_higher b n in
              if r.Verdict.verdict = Verdict.Regression then incr regressions;
              Printf.printf "%-14s %-16s %12.6g %12.6g %7.1f%% %5.0f%% %6.1f%% %3d/%-2d  %s\n"
                d.Report.d_name w r.Verdict.base_median r.Verdict.new_median
                (100. *. r.Verdict.worse_by) (100. *. bound) (100. *. r.Verdict.spread)
                r.Verdict.wins r.Verdict.pairs
                (Verdict.to_string r.Verdict.verdict))
        declared)
    workloads;
  if !regressions > 0 || incorrect <> [] then 1 else 0

let () =
  let argv = Sys.argv in
  let rest = if Array.length argv > 2 then Array.sub argv 2 (Array.length argv - 2) else [||] in
  exit
    (match if Array.length argv > 1 then argv.(1) else "" with
    | "run" -> run rest
    | "compare" -> compare rest
    | "pin" ->
        Packs.print_pinned ();
        0
    | "--help" | "-help" | "help" ->
        print_string usage;
        0
    | _ ->
        prerr_string usage;
        2)
