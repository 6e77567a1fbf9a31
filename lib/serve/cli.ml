(* Command-line front ends of the generator service, shared between
   `amgen serve` / `amgen request` and the standalone amgend daemon. *)

module Diag = Amg_robust.Diag
module Wire = Amg_robust.Wire
module Obs = Amg_obs.Obs
open Cmdliner

let exit_ok = 0
let exit_diag = 1
let exit_usage = 2

let read_file file =
  let ic = open_in file in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (`Msg (Fmt.str "%s must be >= %d, got %d" what lo v))
    | None -> Error (`Msg (Fmt.str "%s expects an integer, got %s" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Run [f] with instrumentation enabled when any sink asked for it, and
   flush the sinks on the way out — in particular before a caller's
   non-zero exit.  Recorded data stays readable after [disable] (amgen
   prints its `--explain` table afterwards). *)
let with_obs ?(explain = false) ~stats ~trace f =
  let on = stats || explain || trace <> None in
  if on then Obs.enable ();
  let finish () =
    if on then begin
      Obs.disable ();
      Option.iter
        (fun path ->
          Amg_obs.Trace.write path;
          Fmt.pr "wrote %s@." path)
        trace;
      if stats then Fmt.pr "%a" Obs.pp_stats ()
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* --- shared arguments -------------------------------------------------- *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "amgend.sock"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

(* --- serve ------------------------------------------------------------- *)

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 ->
            Ok ((if host = "" then "127.0.0.1" else host), p)
        | _ -> Error (`Msg (Fmt.str "bad port in %S" s)))
    | None -> Error (`Msg (Fmt.str "expected HOST:PORT, got %S" s))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Also listen on TCP (the Unix socket stays open).")

let library_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE.amg"
        ~doc:
          "Module library the daemon serves entities from (default: the \
           built-in library).")

let tech_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "t"; "tech" ] ~docv:"FILE"
        ~doc:"Technology description file (default: built-in 1um BiCMOS).")

let jobs_arg =
  Arg.(
    value
    & opt (some (int_at_least 1 "--jobs")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Default domain count for optimization searches of requests that \
           name none; results are identical for every value.")

let queue_limit_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--queue-limit") 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Admitted-but-unfinished build request cap; requests beyond it are \
           rejected with status 2.")

let max_frame_arg =
  Arg.(
    value
    & opt (int_at_least 256 "--max-frame") (1024 * 1024)
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "Request line byte cap; oversized frames get a status 2 response \
           and are discarded without dropping the connection.")

let memo_limit_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--memo-limit") 128
    & info [ "memo-limit" ] ~docv:"N"
        ~doc:"Recorded canonical builds kept resident (LRU by signature).")

let tenant_limit_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--tenant-limit") 64
    & info [ "tenant-limit" ] ~docv:"N"
        ~doc:
          "Tenant environments kept resident (LRU); an evicted tenant that \
           returns starts with an empty memo.")

let no_warm_arg =
  Arg.(
    value & flag
    & info [ "no-warm" ]
        ~doc:
          "Do not pre-spawn the shared domain pool at startup (the first \
           optimizing request pays the spawn cost instead).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the instrumentation summary after shutdown.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the daemon's lifetime as a Chrome trace-event JSON file \
           (written at shutdown; validate with amgen trace-lint).")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for per-request Chrome traces (one FILE per sampled or \
           slow request, named by request id; created if absent).")

let trace_sample_arg =
  Arg.(
    value
    & opt (int_at_least 0 "--trace-sample") 0
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "With --trace-dir: export every N-th request's trace (0, the \
           default, samples none).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "With --trace-dir: also export the trace of any request that took \
           at least MS milliseconds.")

let access_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per request (id, tenant, op, status, cache \
           outcome, latency, queue wait, evals).  Reopened on SIGHUP for \
           log rotation.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Durable result store (created if absent): best compaction orders \
           survive restarts, so previously-served optimized builds answer \
           warm even after kill -9.  Checkpointed on SIGUSR1 and at \
           graceful shutdown; inspect with amgen store.")

let sweep_limit_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--sweep-limit") 256
    & info [ "sweep-limit" ] ~docv:"N"
        ~doc:
          "Largest parameter grid a sweep request may expand to; larger \
           specs are rejected with status 2 before any compute runs.")

let run_serve socket tcp library tech jobs queue_limit max_frame memo_limit
    tenant_limit no_warm stats trace trace_dir trace_sample slow_ms
    access_log store sweep_limit =
  let result =
    with_obs ~stats ~trace @@ fun () ->
    Diag.guard ~convert:Amg_lang.Generate.convert_exn (fun () ->
        let source, source_file =
          match library with
          | None -> (Amg_lang.Stdlib.all, None)
          | Some f -> (read_file f, Some f)
        in
        let tech = Option.map Amg_tech.Tech_file.load tech in
        let cfg =
          Server.config ?tcp ~source ?source_file ?tech ?default_jobs:jobs
            ~queue_limit ~max_frame ~memo_limit ~tenant_limit
            ~warm_pool:(not no_warm) ?trace_dir ~trace_sample ?slow_ms
            ?access_log ?store ~sweep_limit socket
        in
        Fmt.pr "amgend: serving on %s%s@." socket
          (match tcp with
          | None -> ""
          | Some (h, p) -> Fmt.str " and %s:%d" h p);
        Server.run cfg;
        Fmt.pr "amgend: shut down@.";
        exit_ok)
  in
  match result with
  | Ok code -> code
  | Error d ->
      Fmt.epr "%a@." Diag.pp d;
      exit_diag

let serve_term =
  Term.(
    const run_serve $ socket_arg $ tcp_arg $ library_arg $ tech_arg $ jobs_arg
    $ queue_limit_arg $ max_frame_arg $ memo_limit_arg $ tenant_limit_arg
    $ no_warm_arg $ stats_arg $ trace_arg $ trace_dir_arg
    $ trace_sample_arg $ slow_ms_arg $ access_log_arg $ store_arg
    $ sweep_limit_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the generator daemon: newline-delimited JSON requests over a \
          Unix-domain socket, served against resident memoized builds.  \
          SIGTERM/SIGINT shut down gracefully; SIGUSR1 checkpoints the \
          --store; SIGHUP reopens the --access-log.")
    serve_term

(* --- request ----------------------------------------------------------- *)

let entity_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"ENTITY" ~doc:"Entity to build (see the daemon's --file).")

let params_arg =
  let doc = "Entity parameter, e.g. -p W=10 or -p layer=poly (numbers in um)." in
  Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"K=V" ~doc)

let optimize_arg =
  Arg.(
    value
    & opt (some (enum Wire.opt_modes)) None
    & info [ "optimize" ] ~docv:"MODE"
        ~doc:
          "Compaction-order search mode: $(b,orders), $(b,bb) or $(b,local).")

let max_evals_arg =
  Arg.(
    value
    & opt (some (int_at_least 0 "--max-evals")) None
    & info [ "max-evals" ] ~docv:"N"
        ~doc:"Per-request evaluation budget; exhaustion degrades to status 3.")

let max_time_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-time" ] ~docv:"SEC"
        ~doc:"Per-request wall-clock deadline; overrun degrades to status 3.")

let tenant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:
          "Memo scope: requests of different tenants never share memoized \
           builds or results.")

let format_arg =
  let formats =
    [ ("cif", Wire.Cif); ("svg", Wire.Svg); ("none", Wire.No_payload) ]
  in
  Arg.(
    value
    & opt (enum formats) Wire.Cif
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Payload rendering: $(b,cif) (default), $(b,svg) or $(b,none).")

let id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"ID" ~doc:"Request id, echoed in the response.")

let rstats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Ask for timing counters; printed to stderr.")

let permissive_arg =
  Arg.(
    value & flag
    & info [ "permissive" ]
        ~doc:"Degrade instead of failing on placement errors (per request).")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Fault-injection spec for this request ($(b,seed:N) or \
           SITE@HIT,...), for drills.")

let sweep_spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "sweep" ] ~docv:"SPEC"
        ~doc:
          "Run a parameter-grid sweep server-side instead of a build: send \
           the JSON spec in FILE, stream the columnar result (header, \
           column line, rows) to stdout or --out as the daemon completes \
           each canonical prefix.")

let ping_arg =
  Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check instead of a build.")

let stop_arg =
  Arg.(
    value & flag
    & info [ "stop" ] ~doc:"Ask the daemon to shut down gracefully.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the payload to FILE instead of stdout.")

let retries_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--retries") 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total connect attempts on transient failures (ECONNREFUSED, \
           ECONNRESET, missing socket) with exponential, deterministically \
           jittered backoff — enough to ride through a daemon restart.  \
           Default 1: fail fast.")

let parse_params params =
  List.map
    (fun kv ->
      match String.index_opt kv '=' with
      | None -> Error (Fmt.str "bad parameter %s (expected k=v)" kv)
      | Some i ->
          let k = String.sub kv 0 i
          and v = String.sub kv (i + 1) (String.length kv - i - 1) in
          Ok
            ( k,
              match float_of_string_opt v with
              | Some f -> Wire.Pnum f
              | None -> Wire.Pstr v ))
    params
  |> List.fold_left
       (fun acc p ->
         match (acc, p) with
         | Error e, _ | _, Error e -> Error e
         | Ok ps, Ok p -> Ok (p :: ps))
       (Ok [])
  |> Result.map List.rev

(* Sweep exchanges are streams, not one-line roundtrips: connect (with
   the same retry policy as oneshot), forward every row event line's
   payload to the sink, then report the final response like a build. *)
let print_server_stats (s : Wire.server_stats) =
  Fmt.epr "served in %.1f ms, queue depth %d@." s.Wire.elapsed_ms
    s.Wire.queue_depth

let run_sweep_request socket spec_file id jobs tenant rstats out retries =
  let spec = read_file spec_file in
  let req = Wire.sweep ?id ?jobs ?tenant ~stats:rstats spec in
  let oc, close_oc =
    match out with
    | None -> (stdout, fun () -> flush stdout)
    | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out oc)
  in
  let answer =
    try
      let c = Client.connect_retry ~attempts:retries socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.sweep c
            ~on_row:(fun ~index:_ line ->
              output_string oc line;
              output_char oc '\n')
            req)
    with Unix.Unix_error (e, _, _) ->
      Error (Fmt.str "%s: %s" socket (Unix.error_message e))
  in
  close_oc ();
  match answer with
  | Error msg ->
      Fmt.epr "amgen: request failed: %s@." msg;
      exit_diag
  | Ok resp ->
      List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) resp.Wire.diagnostics;
      Option.iter (fun p -> Fmt.epr "sweep %s@." p) resp.Wire.payload;
      Option.iter print_server_stats resp.Wire.stats;
      (match (out, resp.Wire.status) with
      | Some path, (0 | 3) -> Fmt.epr "wrote %s@." path
      | _ -> ());
      resp.Wire.status

let run_request socket ping stop sweep entity params optimize max_evals
    max_time jobs tenant format id rstats permissive inject out retries =
  match sweep with
  | Some spec_file when not (ping || stop) ->
      run_sweep_request socket spec_file id jobs tenant rstats out retries
  | _ ->
  let req =
    match (ping, stop, entity, sweep) with
    | _, _, _, Some _ -> Error "--sweep is mutually exclusive with --ping/--stop"
    | true, true, _, _ -> Error "--ping and --stop are mutually exclusive"
    | true, false, _, _ -> Ok (Wire.ping ?id ())
    | false, true, _, _ -> Ok (Wire.stop ?id ())
    | false, false, None, _ ->
        Error "an ENTITY is required unless --ping/--stop/--sweep"
    | false, false, Some entity, _ ->
        Result.map
          (fun params ->
            Wire.build ?id ~params ?optimize ?max_evals ?max_time ?jobs ?tenant
              ~format ~permissive ~stats:rstats ?inject entity)
          (parse_params params)
  in
  match req with
  | Error msg ->
      Fmt.epr "amgen: %s@." msg;
      exit_usage
  | Ok req -> (
      let answer =
        try Client.oneshot ~attempts:retries socket req
        with Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "%s: %s" socket (Unix.error_message e))
      in
      match answer with
      | Error msg ->
          Fmt.epr "amgen: request failed: %s@." msg;
          exit_diag
      | Ok resp ->
          List.iter
            (fun d -> Fmt.epr "%a@." Diag.pp d)
            resp.Wire.diagnostics;
          Option.iter (fun r -> Fmt.epr "rating %g@." r) resp.Wire.rating;
          Option.iter print_server_stats resp.Wire.stats;
          (match (resp.Wire.payload, out) with
          | Some p, None -> print_string p
          | Some p, Some path ->
              let oc = open_out path in
              output_string oc p;
              close_out oc;
              Fmt.epr "wrote %s@." path
          | None, _ -> ());
          resp.Wire.status)

let request_cmd =
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running daemon and exit with the response \
          status (0 ok, 1 diagnostics, 2 rejected, 3 degraded).  The \
          payload goes to stdout, everything else to stderr.")
    Term.(
      const run_request $ socket_arg $ ping_arg $ stop_arg $ sweep_spec_arg
      $ entity_arg $ params_arg $ optimize_arg $ max_evals_arg $ max_time_arg $ jobs_arg
      $ tenant_arg $ format_arg $ id_arg $ rstats_arg $ permissive_arg
      $ inject_arg $ out_arg $ retries_arg)

(* --- metrics / health -------------------------------------------------- *)

(* One scrape request; the payload (Prometheus text or JSON) goes to
   stdout verbatim, so the commands compose with curl-style tooling. *)
let run_scrape socket req =
  let answer =
    try Client.oneshot socket req
    with Unix.Unix_error (e, _, _) ->
      Error (Fmt.str "%s: %s" socket (Unix.error_message e))
  in
  match answer with
  | Error msg ->
      Fmt.epr "amgen: request failed: %s@." msg;
      exit_diag
  | Ok resp ->
      List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) resp.Wire.diagnostics;
      (match resp.Wire.payload with
      | Some p ->
          print_string p;
          if String.length p > 0 && p.[String.length p - 1] <> '\n' then
            print_newline ()
      | None -> ());
      resp.Wire.status

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the registry snapshot as JSON instead of the Prometheus text \
           exposition.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon's metrics registry (counters, gauges, \
          latency histograms).  Answered without queueing behind compute.")
    Term.(
      const (fun socket json -> run_scrape socket (Wire.metrics ~json ()))
      $ socket_arg $ json_arg)

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe a running daemon's liveness: uptime, served count, queue \
          depth, resident tenants and memo entries, pool size.  Answered \
          without queueing behind compute.")
    Term.(const (fun socket -> run_scrape socket (Wire.health ())) $ socket_arg)

(* --- the standalone daemon --------------------------------------------- *)

let daemon_main () =
  let doc = "analog module generator daemon" in
  let exits =
    [
      Cmd.Exit.info exit_ok ~doc:"on graceful shutdown.";
      Cmd.Exit.info exit_diag ~doc:"on startup failures (bad source/deck).";
      Cmd.Exit.info exit_usage ~doc:"on command-line usage errors.";
    ]
  in
  let info = Cmd.info "amgend" ~version:"1.0.0" ~doc ~exits in
  let code = Cmd.eval' (Cmd.v info serve_term) in
  if code = Cmd.Exit.cli_error then exit_usage else code
