(** What a build or sweep request means, read alike by [amgen build],
    [amgen sweep] and the daemon's two compute handlers, so that a served
    request and the CLI call it mirrors search the same way, use the
    result store under the same gate and end with the same status (the
    wire status is the CLI exit code). *)

val search :
  ?max_time:float ->
  ?max_evals:int ->
  Amg_robust.Wire.opt_mode option ->
  Amg_robust.Wire.opt_mode option
(** The search a request runs: the mode it names, or [Orders] when it
    names none but carries a budget. *)

val storable : Amg_robust.Policy.mode -> string option -> bool
(** [storable mode inject]: only a strict, fault-free request may read
    and feed the result store (and the daemon's memo layers); a
    permissive or fault-injected run can differ from the canonical
    one. *)

val build_status : degraded:bool -> Amg_robust.Diag.t list -> int
(** The status of a build that returned: 1 when it reported an error (a
    permissive run that skipped a placement), else 3 when the budget
    stopped its search, else 0.  A build that raised is 1. *)

val sweep_status : failures:int -> Amg_robust.Diag.t list -> int
(** The status of a sweep that returned: 3 when a row failed, else 1 when
    it reported an error, else 0.  A sweep that raised is 1. *)
