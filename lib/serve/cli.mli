(** Cmdliner front ends of the generator service.

    [serve_cmd] and [request_cmd] plug into amgen's command group;
    [daemon_main] is the whole CLI of the standalone amgend binary (the
    serve options at top level, no subcommand). *)

val serve_cmd : int Cmdliner.Cmd.t
val request_cmd : int Cmdliner.Cmd.t

val metrics_cmd : int Cmdliner.Cmd.t
(** [amgen metrics [--json]]: scrape a running daemon's metrics
    registry (Prometheus text by default). *)

val health_cmd : int Cmdliner.Cmd.t
(** [amgen health]: liveness/readiness probe of a running daemon. *)

val daemon_main : unit -> int
(** Evaluate the daemon command line and return the process exit code. *)

(** {1 Helpers amgen's own subcommands share} *)

val exit_ok : int
val exit_diag : int
val exit_usage : int
val exit_degraded : int
(** The exit codes of [amgen] and [amgend], equal to the wire statuses:
    success, reported diagnostics, usage error, budget exhausted. *)

val params_arg : string list Cmdliner.Term.t
(** The repeated [-p K=V] option. *)

val tech_arg : string option Cmdliner.Term.t
val optimize_arg : Amg_robust.Wire.opt_mode option Cmdliner.Term.t
val max_time_arg : float option Cmdliner.Term.t
val max_evals_arg : int option Cmdliner.Term.t
val inject_arg : string option Cmdliner.Term.t
(** [-t/--tech], [--optimize], [--max-time], [--max-evals] and
    [--inject], alike in [amgen build], [amgen request] and the
    daemon. *)

val parse_params :
  string list -> ((string * Amg_robust.Wire.param) list, string) result
(** Split each [k=v] (a value that parses as a float is a number), or
    the message naming the first argument without a ['=']. *)

val read_file : string -> string

val int_at_least : int -> string -> int Cmdliner.Arg.conv
(** [int_at_least lo what]: an int converter rejecting values below [lo]
    as a cmdliner parse error naming [what]. *)

val with_obs :
  ?explain:bool -> stats:bool -> trace:string option -> (unit -> 'a) -> 'a
(** Run with instrumentation on when [stats], [explain] or [trace] asks
    for it; on the way out, also on an exception, switch it off, write
    the trace file and print the stats summary. *)
