(* Structured tracing and counters for the generator pipeline.

   The library is a passive probe layer: code under measurement calls
   [span]/[count]/[sample]/[mark], and every probe first reads one atomic
   flag — with instrumentation disabled (the default) a probe is a load
   and a branch, so the hot paths of the compactor and the spatial index
   pay nothing.  Enabling records into *strands*.

   A strand is a private event buffer plus counter/sample tables, owned
   by exactly one executing task at a time, so recording never takes a
   lock.  The calling domain's current strand lives in domain-local
   storage; the root strand (tid 0) is installed by [enable].  The domain
   pool forks one strand per task slot ([fork]), routes each task's
   probes to its slot strand ([enter]) and merges the slots back into the
   caller's strand in slot order ([join]).  Because fork order, slot
   order and each task's own event order are all deterministic, the
   merged event stream — names, kinds, tids, counter totals — is
   identical for every domain count; only the timestamps vary.

   Timestamps are wall-clock seconds relative to [enable], clamped
   per-strand to be non-decreasing, so every (pid, tid) event sequence in
   an exported Chrome trace has monotonic ts. *)

type event =
  | Begin of { name : string; tid : int; ts : float }
  | End of { name : string; tid : int; ts : float }
  | Mark of { name : string; tid : int; ts : float; args : (string * string) list }

type sample_stat = {
  s_count : int;
  s_min : float;
  s_max : float;
  s_sum : float;
}

type span_stat = {
  calls : int;
  total_s : float; (* inclusive wall time *)
}

type strand = {
  tid : int;
  mutable events : event list; (* newest first *)
  mutable n_events : int;      (* length of [events] *)
  mutable balance : int;       (* unmatched Begins in [events] *)
  mutable last_ts : float;     (* per-strand monotonic clamp *)
  counts : (string, int ref) Hashtbl.t;
  samples : (string, sample_acc) Hashtbl.t;
}

and sample_acc = {
  mutable a_count : int;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_sum : float;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Origin of the relative clock; meaningless while disabled. *)
let t0 = Atomic.make 0.

(* Strand ids.  The root is 0; [fork] hands out fresh ids.  Forks only
   ever happen on the (single) submitting strand, sequentially, so the
   assignment is deterministic. *)
let next_tid = Atomic.make 1

let new_strand tid =
  {
    tid;
    events = [];
    n_events = 0;
    balance = 0;
    last_ts = 0.;
    counts = Hashtbl.create 16;
    samples = Hashtbl.create 8;
  }

(* --- event retention ---------------------------------------------------

   A long-running daemon with instrumentation armed would otherwise
   accumulate events without bound (counters and samples are fixed-size
   aggregates; the event list is not).  [set_max_events (Some cap)]
   bounds each strand: when a strand reaches 2*cap events it is
   truncated back to the newest cap, amortising the O(cap) rebuild over
   cap pushes.  Truncation walks the kept window oldest-to-newest and
   also drops End events whose Begin fell off, so the retained stream
   still validates as properly nested.  Dropped events are tallied in a
   process-wide counter ([dropped_events]), reset by [enable]. *)

let max_events : int option Atomic.t = Atomic.make None
let dropped : int Atomic.t = Atomic.make 0
let set_max_events cap = Atomic.set max_events cap
let dropped_events () = Atomic.get dropped

let truncate_strand s cap =
  let arr = Array.of_list s.events in
  (* newest first *)
  let keep = Int.min cap (Array.length arr) in
  let n_dropped = ref (Array.length arr - keep) in
  let out = ref [] and n_out = ref 0 and depth = ref 0 in
  for i = keep - 1 downto 0 do
    (* oldest kept -> newest *)
    match arr.(i) with
    | Begin _ as e ->
        incr depth;
        out := e :: !out;
        incr n_out
    | End _ as e ->
        if !depth > 0 then begin
          decr depth;
          out := e :: !out;
          incr n_out
        end
        else incr n_dropped (* its Begin was dropped *)
    | Mark _ as e ->
        out := e :: !out;
        incr n_out
  done;
  s.events <- !out;
  s.n_events <- !n_out;
  s.balance <- !depth;
  if !n_dropped > 0 then ignore (Atomic.fetch_and_add dropped !n_dropped)

let push s ev =
  match ev with
  | End _ when s.balance = 0 ->
      (* The matching Begin was truncated away; keeping this End would
         make the retained stream fail B/E validation. *)
      ignore (Atomic.fetch_and_add dropped 1)
  | _ ->
      (match ev with
      | Begin _ -> s.balance <- s.balance + 1
      | End _ -> s.balance <- s.balance - 1
      | Mark _ -> ());
      s.events <- ev :: s.events;
      s.n_events <- s.n_events + 1;
      (match Atomic.get max_events with
      | Some cap when s.n_events >= 2 * cap -> truncate_strand s cap
      | _ -> ())

let root : strand option Atomic.t = Atomic.make None

(* The current strand of the calling domain.  Workers outside an [enter]
   window have no strand and their probes are dropped — by construction
   the pool wraps every task, so nothing is ever dropped in practice. *)
let current_key : strand option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

let now (s : strand) =
  let t = Unix.gettimeofday () -. Atomic.get t0 in
  let t = if t < s.last_ts then s.last_ts else t in
  s.last_ts <- t;
  t

(* --- lifecycle --- *)

let reset () =
  Atomic.set root None;
  Atomic.set next_tid 1;
  Domain.DLS.get current_key := None

let enable () =
  reset ();
  Atomic.set dropped 0;
  Atomic.set t0 (Unix.gettimeofday ());
  let s = new_strand 0 in
  Atomic.set root (Some s);
  Domain.DLS.get current_key := Some s;
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* --- probes --- *)

let count name n =
  if Atomic.get enabled_flag then
    match current () with
    | None -> ()
    | Some s -> (
        match Hashtbl.find_opt s.counts name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace s.counts name (ref n))

let sample name v =
  if Atomic.get enabled_flag then
    match current () with
    | None -> ()
    | Some s -> (
        match Hashtbl.find_opt s.samples name with
        | Some a ->
            a.a_count <- a.a_count + 1;
            a.a_sum <- a.a_sum +. v;
            if v < a.a_min then a.a_min <- v;
            if v > a.a_max then a.a_max <- v
        | None ->
            Hashtbl.replace s.samples name
              { a_count = 1; a_min = v; a_max = v; a_sum = v })

let mark name args =
  if Atomic.get enabled_flag then
    match current () with
    | None -> ()
    | Some s -> push s (Mark { name; tid = s.tid; ts = now s; args })

let markf name f =
  if Atomic.get enabled_flag then
    match current () with
    | None -> ()
    | Some s -> push s (Mark { name; tid = s.tid; ts = now s; args = f () })

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else
    match current () with
    | None -> f ()
    | Some s ->
        push s (Begin { name; tid = s.tid; ts = now s });
        let finish () =
          (* Exception-safe: the strand may have changed is impossible —
             [enter]/[exit] pair around whole tasks — so close on [s]. *)
          push s (End { name; tid = s.tid; ts = now s })
        in
        (match f () with
        | v ->
            finish ();
            v
        | exception e ->
            finish ();
            raise e)

(* --- pool integration --- *)

type strands = Off | On of strand array

let recording = function Off -> false | On _ -> true

let fork n =
  if not (Atomic.get enabled_flag) then Off
  else begin
    let base = Atomic.fetch_and_add next_tid n in
    On (Array.init n (fun i -> new_strand (base + i)))
  end

let enter strands i f =
  match strands with
  | Off -> f ()
  | On arr ->
      let cell = Domain.DLS.get current_key in
      let saved = !cell in
      cell := Some arr.(i);
      let restore () = cell := saved in
      (match f () with
      | v ->
          restore ();
          v
      | exception e ->
          restore ();
          raise e)

let merge_into (dst : strand) (src : strand) =
  dst.events <- List.rev_append (List.rev src.events) dst.events;
  dst.n_events <- dst.n_events + src.n_events;
  dst.balance <- dst.balance + src.balance;
  (match Atomic.get max_events with
  | Some cap when dst.n_events >= 2 * cap -> truncate_strand dst cap
  | _ -> ());
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt dst.counts name with
      | Some d -> d := !d + !r
      | None -> Hashtbl.replace dst.counts name (ref !r))
    src.counts;
  Hashtbl.iter
    (fun name a ->
      match Hashtbl.find_opt dst.samples name with
      | Some d ->
          d.a_count <- d.a_count + a.a_count;
          d.a_sum <- d.a_sum +. a.a_sum;
          if a.a_min < d.a_min then d.a_min <- a.a_min;
          if a.a_max > d.a_max then d.a_max <- a.a_max
      | None ->
          Hashtbl.replace dst.samples name
            { a_count = a.a_count; a_min = a.a_min; a_max = a.a_max; a_sum = a.a_sum })
    src.samples

let join strands =
  match strands with
  | Off -> ()
  | On arr -> (
      match current () with
      | None -> ()
      | Some dst -> Array.iter (merge_into dst) arr)

(* --- reporting (read on the root strand, after every join) --- *)

let root_strand () = Atomic.get root

let events () =
  match root_strand () with None -> [] | Some s -> List.rev s.events

let counters () =
  match root_strand () with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) s.counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter name =
  match root_strand () with
  | None -> 0
  | Some s -> ( match Hashtbl.find_opt s.counts name with Some r -> !r | None -> 0)

let samples () =
  match root_strand () with
  | None -> []
  | Some s ->
      Hashtbl.fold
        (fun name a acc ->
          ( name,
            { s_count = a.a_count; s_min = a.a_min; s_max = a.a_max; s_sum = a.a_sum }
          )
          :: acc)
        s.samples []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let marks () =
  List.filter_map
    (function Mark { name; args; _ } -> Some (name, args) | _ -> None)
    (events ())

(* --- windows -----------------------------------------------------------

   A window captures the calling strand's current position in its event
   list (the head cons cell); [window_events] later returns just the
   events recorded since, oldest first.  The serve daemon opens one per
   request to export request-scoped traces.  If retention truncation
   rebuilt the list in between, the captured cell is gone and the walk
   falls off the end — the slice then degrades to the whole retained
   buffer, which is still a valid (if over-wide) trace. *)

type window = { w_strand : strand option; w_tail : event list }

let window () =
  match current () with
  | None -> { w_strand = None; w_tail = [] }
  | Some s -> { w_strand = Some s; w_tail = s.events }

let window_events w =
  match w.w_strand with
  | None -> []
  | Some s ->
      let rec take acc l =
        if l == w.w_tail then acc
        else match l with [] -> acc | e :: rest -> take (e :: acc) rest
      in
      take [] s.events

(* Aggregate span durations from the merged B/E stream: a stack per tid
   matches each End with its Begin. *)
let spans () =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace stacks tid r;
        r
  in
  let agg : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Begin { name; tid; ts } ->
          let st = stack tid in
          st := (name, ts) :: !st
      | End { tid; ts; _ } -> (
          let st = stack tid in
          match !st with
          | [] -> () (* unbalanced: ignore, the validator reports it *)
          | (name, t_begin) :: rest ->
              st := rest;
              let dt = ts -. t_begin in
              let cur =
                Option.value ~default:{ calls = 0; total_s = 0. }
                  (Hashtbl.find_opt agg name)
              in
              Hashtbl.replace agg name
                { calls = cur.calls + 1; total_s = cur.total_s +. dt })
      | Mark _ -> ())
    (events ());
  Hashtbl.fold (fun name st acc -> (name, st) :: acc) agg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_stats ppf () =
  let cs = counters () and ss = samples () and sp = spans () in
  if cs = [] && ss = [] && sp = [] then Fmt.pf ppf "no instrumentation recorded@."
  else begin
    if sp <> [] then begin
      Fmt.pf ppf "@.spans (inclusive wall time)@.";
      Fmt.pf ppf "  %-36s %10s %12s %12s@." "name" "calls" "total/ms" "mean/ms";
      List.iter
        (fun (name, { calls; total_s }) ->
          Fmt.pf ppf "  %-36s %10d %12.3f %12.4f@." name calls (total_s *. 1000.)
            (total_s *. 1000. /. float_of_int (Int.max 1 calls)))
        sp
    end;
    if cs <> [] then begin
      Fmt.pf ppf "@.counters@.";
      List.iter (fun (name, v) -> Fmt.pf ppf "  %-36s %12d@." name v) cs
    end;
    if ss <> [] then begin
      Fmt.pf ppf "@.histograms@.";
      Fmt.pf ppf "  %-36s %10s %10s %10s %10s@." "name" "n" "min" "mean" "max";
      List.iter
        (fun (name, { s_count; s_min; s_max; s_sum }) ->
          Fmt.pf ppf "  %-36s %10d %10.1f %10.2f %10.1f@." name s_count s_min
            (s_sum /. float_of_int (Int.max 1 s_count))
            s_max)
        ss
    end
  end
