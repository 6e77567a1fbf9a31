(* The serve, store and sweep counters, each declared once (see the .mli).

   Each label-value tuple's registry instrument is interned on its first
   bump into a lock-free list, so a bump is an atomic read, a short scan
   and an atomic add: one registry lookup per tuple for the life of the
   process. *)

type 'h family = {
  name : string;
  keys : string list;
  make : labels:(string * string) list -> string -> 'h;
  cells : (string list * 'h) list Atomic.t;
}

let family make keys name = { name; keys; make; cells = Atomic.make [] }

let rec cell f values =
  let cells = Atomic.get f.cells in
  match List.find_opt (fun (v, _) -> List.equal String.equal v values) cells with
  | Some (_, h) -> h
  | None ->
      if List.compare_lengths values f.keys <> 0 then
        invalid_arg ("Counters: wrong label values for " ^ f.name);
      (* Registration is idempotent: a lost race interns the same
         instrument again. *)
      let h = f.make ~labels:(List.combine f.keys values) f.name in
      if Atomic.compare_and_set f.cells cells ((values, h) :: cells) then h
      else cell f values

type t = { c : Metrics.counter family; obs : bool }

let counter ?(obs = false) ?(labels = []) name =
  { c = family (fun ~labels n -> Metrics.counter ~labels n) labels name; obs }

let add ?(labels = []) t n =
  Metrics.add (cell t.c labels) n;
  if t.obs then Obs.count t.c.name n

let incr ?labels t = add ?labels t 1

type latency = Metrics.histogram family

let latency ?(labels = []) name =
  family (fun ~labels n -> Metrics.histogram ~labels n) labels name

let observe ?(labels = []) t v = Metrics.observe (cell t labels) v

let request_labels = [ "cache"; "op"; "status" ]
let serve_requests = counter ~labels:request_labels "serve.requests"
let serve_latency = latency ~labels:request_labels "serve.latency"
let serve_memo_hits = counter ~obs:true "serve.memo.hits"
let serve_memo_misses = counter ~obs:true "serve.memo.misses"
let serve_memo_best_hits = counter ~obs:true "serve.memo.best_hits"
let serve_memo_evictions = counter ~obs:true "serve.memo.evictions"
let serve_degraded = counter ~obs:true "serve.degraded"
let store_hits = counter ~obs:true "store.hits"
let store_misses = counter ~obs:true "store.misses"
let store_writes = counter "store.writes"
let store_write_failures = counter "store.write_failures"
let store_checkpoints = counter "store.checkpoints"
let store_recoveries = counter "store.recoveries"
let store_recovered_records = counter "store.recovered_records"
let store_torn_tail_truncations = counter "store.torn_tail_truncations"
let store_corrupt_records = counter "store.corrupt_records"
let sweep_runs = counter "sweep.runs"
let sweep_instances = counter ~obs:true ~labels:[ "status" ] "sweep.instances"
