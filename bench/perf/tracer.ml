(* The traced run's recorder, built on the program's own Amg_obs.Obs.

   The workloads wrap each call into a layer in [Obs.span], which costs
   one atomic load while Obs is off.  A traced operation switches Obs on
   for its duration, so the benchmark's layer spans and the program's own
   probes (the compactor's spans and counters, the search's evaluation
   counts) land in one event stream.  Only odd-numbered operations are
   traced: the even ones run exactly as in an untraced run, and comparing
   the two halves gives the tracing overhead from a single run.

   After each operation its events are folded into a per-name layer table
   and moved onto one run-wide timeline as trace thread [op]: one thread
   per operation, named by its id.  Operations that overlap in time (the
   open serving loop) are recorded by the caller with [add_events]. *)

module Obs = Amg_obs.Obs

type layer = { calls : int; total_s : float; self_s : float }

type t = {
  on : bool;
  origin : float;
  mutable events : Obs.event list;  (* newest first, seconds since [origin] *)
  counters : (string, int) Hashtbl.t;
  layers : (string, layer) Hashtbl.t;
}

let create on =
  {
    on;
    origin = Unix.gettimeofday ();
    events = [];
    counters = Hashtbl.create 64;
    layers = Hashtbl.create 32;
  }

let enabled t = t.on
let traced t op = t.on && op land 1 = 1
let since_origin t abs = abs -. t.origin
let zero = { calls = 0; total_s = 0.; self_s = 0. }

(* Fold one operation's events into the layer table and the timeline.
   Nesting and the thread follow the order of the list, across Obs
   strands: the pool merges a task's strand into its caller's at the
   join, inside the caller's open span, and with one domain (every
   workload's) the task also ran inside that span in time.  A span's self
   time is its duration minus its direct children's; a span nested in one
   of the same name adds only its self time, so a benchmark span around a
   program span of the same name is not counted twice.  Marks are
   dropped: the compactor emits one per placement. *)
let add_events t ~op ~cls evs =
  let stack = ref [] in
  let start =
    match evs with (Obs.Begin { ts; _ } | End { ts; _ } | Mark { ts; _ }) :: _ -> ts | [] -> 0.
  in
  let out =
    ref
      [
        Obs.Mark
          { name = "op"; tid = op; ts = start; args = [ ("op_id", string_of_int op); ("class", cls) ] };
      ]
  in
  List.iter
    (function
      | Obs.Begin { name; ts; _ } ->
          stack := (name, ts, ref 0.) :: !stack;
          out := Obs.Begin { name; tid = op; ts } :: !out
      | Obs.End { name; ts; _ } -> (
          out := Obs.End { name; tid = op; ts } :: !out;
          match !stack with
          | (n, t0, child) :: rest ->
              stack := rest;
              let d = ts -. t0 in
              (match rest with (_, _, pc) :: _ -> pc := !pc +. d | [] -> ());
              let nested = List.exists (fun (m, _, _) -> String.equal m n) rest in
              let l = Option.value ~default:zero (Hashtbl.find_opt t.layers n) in
              Hashtbl.replace t.layers n
                {
                  calls = (l.calls + if nested then 0 else 1);
                  total_s = (l.total_s +. if nested then 0. else d);
                  self_s = l.self_s +. d -. !child;
                }
          | [] -> ())
      | Obs.Mark _ -> ())
    evs;
  t.events <- !out @ t.events

let add_counter t name v =
  Hashtbl.replace t.counters name (v + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

(* Run [f] as operation [op] of class [cls]: when it is traced, under Obs
   and inside the root span "op". *)
let op t ~op ~cls f =
  if not (traced t op) then f ()
  else begin
    let start = since_origin t (Unix.gettimeofday ()) in
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        List.iter (fun (n, v) -> add_counter t n v) (Obs.counters ());
        let shift = function
          | Obs.Begin b -> Obs.Begin { b with ts = b.ts +. start }
          | End e -> End { e with ts = e.ts +. start }
          | Mark m -> Mark { m with ts = m.ts +. start }
        in
        add_events t ~op ~cls (List.map shift (Obs.events ()));
        Obs.reset ())
      (fun () -> Obs.span "op" f)
  end

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
let layer t name = Option.value ~default:zero (Hashtbl.find_opt t.layers name)

let layers t =
  Hashtbl.fold (fun n l acc -> (n, l) :: acc) t.layers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Share of traced operation wall time spent inside timed calls. *)
let coverage t =
  let op = layer t "op" in
  if op.total_s <= 0. then 0. else (op.total_s -. op.self_s) /. op.total_s

(* Chrome trace-event JSON that [amgen trace-lint] accepts. *)
let to_chrome t ~run_id =
  Amg_obs.Trace.events_to_string
    ~metadata:[ ("request_id", run_id) ]
    ~counters:(Hashtbl.fold (fun n v acc -> (n, v) :: acc) t.counters [] |> List.sort compare)
    (List.rev t.events)
