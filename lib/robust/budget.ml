type t = {
  clock : unit -> float;
  real_clock : bool;
  deadline_at : float option;
  max_evals : int option;
  evals : int Atomic.t;
  stop_flag : bool Atomic.t;
  degraded_flag : bool Atomic.t;
}

let create ?deadline ?max_evals ?clock () =
  let real_clock, clock =
    match clock with
    | Some c -> (false, c)
    | None -> (true, Unix.gettimeofday)
  in
  let deadline_at = Option.map (fun d -> clock () +. d) deadline in
  {
    clock;
    real_clock;
    deadline_at;
    max_evals;
    evals = Atomic.make 0;
    stop_flag = Atomic.make false;
    degraded_flag = Atomic.make false;
  }

let stop t = Atomic.set t.stop_flag true
let stopped t = Atomic.get t.stop_flag

let poll t =
  match t.deadline_at with
  | Some d when t.clock () >= d -> stop t
  | _ -> ()

let spend t n =
  let total = n + Atomic.fetch_and_add t.evals n in
  match t.max_evals with
  | Some m when total > m -> stop t
  | _ -> ()

let spent t = Atomic.get t.evals

let would_exceed t n =
  match t.max_evals with Some m -> spent t + n > m | None -> false

let remaining_evals t =
  Option.map (fun m -> Int.max 0 (m - spent t)) t.max_evals

let task_cancel t () =
  Atomic.get t.stop_flag
  ||
  match t.deadline_at with
  | Some d when t.real_clock && t.clock () >= d ->
      stop t;
      true
  | _ -> false

let mark_degraded t = Atomic.set t.degraded_flag true
let degraded t = Atomic.get t.degraded_flag
