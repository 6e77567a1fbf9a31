(* The generator service.  One system thread per connection does blocking
   line I/O; build requests funnel through a bounded FIFO ticket queue and
   run one at a time.  Serialized compute is a deliberate choice, not a
   shortcut: the engine's request-scoped state is process-global (the
   policy sink, the fault-injection schedule, Obs strand routing), the
   searches already parallelize internally over the domain pool, and the
   §7 determinism contract — identical bytes for every jobs value and
   arrival order — follows directly when requests cannot interleave.

   Warmth across requests comes from one resident memo, touched only from
   the serialized section (so it needs no lock), keyed by (tenant, entity,
   params) and holding the recorded canonical build and, for unbudgeted
   strict searches, the finished result per search strategy.  The tenant
   is part of the key, so tenants can never hit each other's entries.
   Behind the memo sits the durable result store, when one is
   configured. *)

module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Wire = Amg_robust.Wire
module J = Amg_robust.Diag.Json
module Obs = Amg_obs.Obs
module Metrics = Amg_obs.Metrics
module Counters = Amg_obs.Counters
module Trace = Amg_obs.Trace
module Env = Amg_core.Env
module Generate = Amg_lang.Generate
module Rating = Amg_core.Rating
module Lobj = Amg_layout.Lobj
module Pool = Amg_parallel.Pool
module Store = Amg_store.Store
module Sweep = Amg_sweep.Sweep

type config = {
  socket_path : string;
  tcp : (string * int) option;
  source : string;
  source_file : string option;
  tech : Amg_tech.Technology.t option;
  default_jobs : int option;
  queue_limit : int;
  max_frame : int;
  memo_limit : int;
  warm_pool : bool;
  trace_dir : string option;
  trace_sample : int;
  slow_ms : float option;
  access_log : string option;
  store : string option;
  sweep_limit : int;
}

let config ?tcp ?(source = Amg_lang.Stdlib.all) ?source_file ?tech
    ?default_jobs ?(queue_limit = 64) ?(max_frame = 1 lsl 20)
    ?(memo_limit = 128) ?(warm_pool = false) ?trace_dir
    ?(trace_sample = 0) ?slow_ms ?access_log ?store ?(sweep_limit = 256)
    socket_path =
  {
    socket_path;
    tcp;
    source;
    source_file;
    tech;
    default_jobs;
    queue_limit;
    max_frame;
    memo_limit;
    warm_pool;
    trace_dir;
    trace_sample;
    slow_ms;
    access_log;
    store;
    sweep_limit = Int.max 1 sweep_limit;
  }

(* --- FIFO admission queue --------------------------------------------- *)

type sched = {
  s_lock : Mutex.t;
  s_turn : Condition.t;
  mutable s_next : int;  (* next ticket to hand out *)
  mutable s_serving : int;  (* ticket allowed to run now *)
  mutable s_inflight : int;  (* admitted, not yet released *)
  s_limit : int;
}

let sched_create limit =
  {
    s_lock = Mutex.create ();
    s_turn = Condition.create ();
    s_next = 0;
    s_serving = 0;
    s_inflight = 0;
    s_limit = Int.max 1 limit;
  }

(* Returns [Some depth] (requests ahead at admission) once it is our
   turn, or [None] when the queue is full. *)
let sched_admit s =
  Mutex.lock s.s_lock;
  if s.s_inflight >= s.s_limit then begin
    Mutex.unlock s.s_lock;
    None
  end
  else begin
    let ticket = s.s_next in
    s.s_next <- ticket + 1;
    s.s_inflight <- s.s_inflight + 1;
    let depth = ticket - s.s_serving in
    while s.s_serving <> ticket do
      Condition.wait s.s_turn s.s_lock
    done;
    Mutex.unlock s.s_lock;
    Some depth
  end

let sched_release s =
  Mutex.lock s.s_lock;
  s.s_serving <- s.s_serving + 1;
  s.s_inflight <- s.s_inflight - 1;
  Condition.broadcast s.s_turn;
  Mutex.unlock s.s_lock

(* (admitted-but-unfinished, waiting-behind-the-running-one).  Safe to
   call from any thread: the lock is only ever held for pointer-sized
   updates, never across compute ([sched_admit] waits on the condition
   variable with the lock released). *)
let sched_counts s =
  Mutex.lock s.s_lock;
  let inflight = s.s_inflight in
  Mutex.unlock s.s_lock;
  (inflight, Int.max 0 (inflight - 1))

(* --- recorded-build memo ---------------------------------------------- *)

type memo_entry = {
  m_canonical : Lobj.t * (Amg_lang.Interp.recorded, string) result;
      (* canonical build and its replay record; never mutated *)
  m_diags : Diag.t list;  (* warnings the canonical build reported *)
  mutable m_best : (Wire.opt_mode * (Lobj.t * Diag.t list)) list;
      (* finished unbudgeted search results per mode: final layout and
         the full diagnostic report of the request that produced it *)
  mutable m_tick : int;  (* LRU clock *)
}

(* --- connection registry ---------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  mutable c_busy : bool;  (* inside admission/compute/write *)
  mutable c_thread : Thread.t option;
}

type t = {
  cfg : config;
  program : Amg_lang.Ast.program;
  env : Env.t;
  memo : (string, memo_entry) Hashtbl.t;  (* serialized section only *)
  mutable memo_tick : int;
  sched : sched;
  listeners : Unix.file_descr list;
  (* Self-pipe: closing [wake_w] makes [wake_r] readable, which is how
     [stop] interrupts acceptors parked in select — closing a listener
     does NOT wake a thread blocked in accept on Linux. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable acceptors : Thread.t list;
  conns_lock : Mutex.t;
  mutable conns : conn list;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  served_count : int Atomic.t;
  (* --- telemetry ---
     The scrape ops answer from any connection thread, concurrently with
     serialized compute, so everything they read is either atomic or
     behind a short-lived lock.  [memo_count]/[best_count] mirror the
     sizes of the serialized-section memo (scanning the table itself from
     another thread would race with resizes). *)
  started_at : float;
  req_seq : int Atomic.t;
  memo_count : int Atomic.t;
  best_count : int Atomic.t;
  (* The channel is behind a ref so SIGHUP can swing it to a freshly
     opened file (log rotation) without touching every writer: writers
     take the lock, then deref. *)
  access : (Mutex.t * out_channel ref) option;
  obs_owned : bool;  (* this server enabled Obs (for traces) *)
  (* Durable result store: loaded before the listeners open (a warm
     restart answers its first request from disk), checkpointed on
     SIGUSR1 and on drain.  The handle is internally locked — worker
     threads append while the wait loop checkpoints. *)
  result_store : Store.t option;
  tech_fp : string;  (* restart-stable store key prefix *)
  checkpoint_req : bool Atomic.t;  (* set by SIGUSR1, drained by [wait] *)
  reopen_req : bool Atomic.t;  (* set by SIGHUP, drained by [wait] *)
}

let request_stop t = Atomic.set t.stopping true
let stop_requested t = Atomic.get t.stopping

let pool_size t =
  match t.cfg.default_jobs with Some j -> j | None -> Pool.default_domains ()

let send_response conn resp =
  Frame.write conn.c_fd (Wire.encode_response resp ^ "\n")

(* --- request handling ------------------------------------------------- *)

let reject ?id ~code msg =
  Wire.response ?id
    ~diagnostics:[ Diag.v Diag.Cli ~code msg ]
    Wire.status_reject

(* The memo key is the store key with the request's tenant in place of the
   deck fingerprint (the daemon serves one deck).  The "t" prefix keeps
   every tenant name, the empty one included, apart from no tenant.  A
   stream of fresh tenant names holds nothing beyond its memo entries,
   which the memo LRU bounds. *)
let memo_key (req : Wire.request) params =
  let scope = match req.tenant with None -> "" | Some name -> "t" ^ name in
  Generate.store_key ~tech:scope req.entity params

(* Canonical build of (entity, args), memoized under [sg].
   Returns the layout with its replay record, and whether the memo served
   it; the diagnostics the build reported are re-reported on a memo hit.
   Failed builds are not memoized (the diagnostic is rebuilt per
   request). *)
let canonical_build t ~memoizable ~sg entity args =
  match if memoizable then Hashtbl.find_opt t.memo sg else None with
  | Some e ->
      t.memo_tick <- t.memo_tick + 1;
      e.m_tick <- t.memo_tick;
      Counters.incr Counters.serve_memo_hits;
      (* Replay the canonical build's diagnostics so a memo-served
         response carries the same report as the cold one. *)
      List.iter Policy.report e.m_diags;
      (e.m_canonical, true)
  | None ->
      Counters.incr Counters.serve_memo_misses;
      let canonical = Amg_lang.Interp.build_recorded t.env t.program entity args in
      let build_diags = Policy.drain () in
      List.iter Policy.report build_diags;
      if memoizable then begin
        t.memo_tick <- t.memo_tick + 1;
        if Hashtbl.length t.memo >= Int.max 1 t.cfg.memo_limit then begin
          (* Evict the least recently used signature. *)
          let victim =
            Hashtbl.fold
              (fun k e acc ->
                match acc with
                | Some (_, tick) when tick <= e.m_tick -> acc
                | _ -> Some (k, e.m_tick))
              t.memo None
          in
          match victim with
          | Some (k, _) ->
              (match Hashtbl.find_opt t.memo k with
              | Some victim_e ->
                  ignore
                    (Atomic.fetch_and_add t.best_count
                       (-List.length victim_e.m_best))
              | None -> ());
              Hashtbl.remove t.memo k;
              Counters.incr Counters.serve_memo_evictions
          | None -> ()
        end;
        Hashtbl.add t.memo sg
          {
            m_canonical = canonical;
            m_diags = build_diags;
            m_best = [];
            m_tick = t.memo_tick;
          };
        Atomic.set t.memo_count (Hashtbl.length t.memo)
      end;
      (canonical, false)

(* What a request did, for the latency histograms and the access log.
   [ro_outcome] is the cache-outcome label: memo-hit (either memo layer
   answered), store-hit (the durable result store answered), cold
   (neither helped), degraded, error or — set by the caller, not here —
   overloaded.  [ro_evals] is the cost its own search result reports. *)
type req_obs = { ro_outcome : string; ro_evals : int }

let quiet_obs = { ro_outcome = "none"; ro_evals = 0 }

let rejected (req : Wire.request) ~code msg =
  (reject ?id:req.id ~code msg, { quiet_obs with ro_outcome = "error" })

(* --- the compute envelope --------------------------------------------- *)

let policy_mode (req : Wire.request) =
  if req.permissive then Policy.Permissive else Policy.Strict

let clean (req : Wire.request) = Contract.storable (policy_mode req) req.inject

(* Run one build or sweep: [run store] under the request's policy mode
   and fault schedule, given the durable store when the request is
   [clean]; a bad inject spec is rejected before anything runs.
   [answer v reported] turns what [run] returned and the diagnostics it
   reported into the response, the search's cost and the cache outcome
   of a status-0 answer (statuses 1 and 3 are labelled error and
   degraded).  The stats object is attached when the request asked for
   it. *)
let compute t (req : Wire.request) ~queue_depth run answer =
  let started = Unix.gettimeofday () in
  let store = if clean req then t.result_store else None in
  match
    Generate.guarded ~mode:(policy_mode req) ?inject:req.inject (fun () ->
        run store)
  with
  | Error msg ->
      rejected req ~code:"serve.bad-inject"
        (Printf.sprintf "bad inject spec: %s" msg)
  | Ok (result, reported) ->
      let resp, evals, warmth =
        match result with
        | Error d ->
            ( Wire.response ?id:req.id
                ~diagnostics:(reported @ [ d ])
                Wire.status_diag,
              0,
              "error" )
        | Ok v -> answer v reported
      in
      let stats =
        if req.stats then
          Some
            {
              Wire.elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.;
              queue_depth;
            }
        else None
      in
      let outcome =
        if resp.Wire.status = Wire.status_diag then "error"
        else if resp.Wire.status = Wire.status_degraded then "degraded"
        else warmth
      in
      ({ resp with Wire.stats }, { ro_outcome = outcome; ro_evals = evals })

(* Run one build request.  Called from the serialized section only. *)
let handle_build t (req : Wire.request) ~queue_depth =
  let params = Generate.values req.params in
  let sg = memo_key req params in
  let search =
    Contract.search ?max_time:req.max_time ?max_evals:req.max_evals
      req.optimize
  in
  (* Finished optimized results are deterministic for strict, fault-free,
     unbudgeted requests, so they are memoized whole next to the canonical
     build: a repeated identical request skips the search and replays the
     stored report byte-for-byte.  Budgeted requests bypass this memo —
     their result depends on the budget — and always search. *)
  let best_opt =
    if clean req && req.max_time = None && req.max_evals = None then search
    else None
  in
  let best_hit () =
    Option.bind best_opt (fun opt ->
        Option.bind (Hashtbl.find_opt t.memo sg) (fun e ->
            Option.map
              (fun hit ->
                t.memo_tick <- t.memo_tick + 1;
                e.m_tick <- t.memo_tick;
                Counters.incr Counters.serve_memo_best_hits;
                hit)
              (List.assoc_opt opt e.m_best)))
  in
  (* Whether a memo layer answered whole: a best result hit, or a
     canonical memo hit with no search to run. *)
  let from_memo = ref false in
  let run store =
    match best_hit () with
    | Some (layout, diags) ->
        from_memo := true;
        List.iter Policy.report diags;
        { Generate.layout; searched = None; degraded = false }
    | None ->
        let canonical, memo_hit =
          canonical_build t ~memoizable:(clean req) ~sg req.entity params
        in
        from_memo := memo_hit && search = None;
        (* Durable-store key: restart-stable (tech fingerprint) and
           tenant-free — stored results are pure functions of
           tech/entity/params. *)
        let store =
          Option.map
            (fun st -> (st, Generate.store_key ~tech:t.tech_fp req.entity params))
            store
        in
        Generate.run ~canonical t.env t.program
          (Generate.request ?search ?max_time:req.max_time
             ?max_evals:req.max_evals
             ~domains:(Option.value req.jobs ~default:(pool_size t))
             ?store req.entity params)
  in
  compute t req ~queue_depth run (fun (o : Generate.outcome) reported ->
      if o.degraded then Counters.incr Counters.serve_degraded;
      let status = Contract.build_status ~degraded:o.degraded reported in
      (match (best_opt, Hashtbl.find_opt t.memo sg) with
      | Some opt, Some e
        when status = Wire.status_ok && not (List.mem_assoc opt e.m_best) ->
          e.m_best <- (opt, (o.layout, reported)) :: e.m_best;
          ignore (Atomic.fetch_and_add t.best_count 1)
      | _ -> ());
      let tech = Env.tech t.env in
      let payload =
        match req.format with
        | Wire.No_payload -> None
        | Wire.Cif -> Some (Amg_layout.Cif.of_lobj ~tech o.layout)
        | Wire.Svg -> Some (Amg_layout.Svg.of_lobj ~tech o.layout)
      in
      let rating = Rating.rate t.env Rating.default o.layout in
      let evals, from_store =
        match o.searched with
        | Some s -> (s.Generate.cost, s.Generate.from_store)
        | None -> (0, false)
      in
      ( Wire.response ?id:req.id ~rating ~format:req.format ?payload
          ~diagnostics:reported status,
        evals,
        if !from_memo then "memo-hit"
        else if from_store then "store-hit"
        else "cold" ))

(* Run one sweep request: expand the spec into a bounded grid, run it
   under the daemon's environment and result store as build requests, stream one {!Wire.encode_sweep_row} event line per
   output line over the connection as the canonical prefix completes,
   and finish with an ordinary response whose payload summarizes the
   run.  Called from the serialized section only, so the streamed rows
   can never interleave with another request's response line. *)
let handle_sweep t conn (req : Wire.request) ~queue_depth =
  match req.spec with
  | None -> rejected req ~code:"serve.bad-request" "sweep request carries no spec"
  | Some spec_src -> (
      (* Stream rows as raw event lines ahead of the response.  A peer
         that vanished mid-sweep stops the writes (the sweep itself runs
         to completion — its rows also feed the store) and the final send
         surfaces the close as EPIPE upstream. *)
      let index = ref 0 in
      let alive = ref true in
      let on_line line =
        if !alive then begin
          try
            Frame.write conn.c_fd (Wire.encode_sweep_row ~index:!index line ^ "\n")
          with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
            alive := false
        end;
        incr index
      in
      let parsed =
        Diag.guard ~convert:Generate.convert_exn (fun () ->
            Sweep.parse_spec spec_src)
      in
      match parsed with
      | Error d ->
          ( Wire.response ?id:req.id ~diagnostics:[ d ] Wire.status_diag,
            { quiet_obs with ro_outcome = "error" } )
      | Ok spec when Sweep.grid_size spec > t.cfg.sweep_limit ->
          rejected req ~code:"serve.sweep-too-large"
            (Printf.sprintf "grid expands to %d instances (limit %d)"
               (Sweep.grid_size spec) t.cfg.sweep_limit)
      | Ok spec ->
          let run store =
            Sweep.run
              ~domains:(Option.value req.jobs ~default:(pool_size t))
              ?store ?source_file:t.cfg.source_file ~on_line ~env:t.env
              ~source:t.cfg.source spec
          in
          compute t req ~queue_depth run (fun r reported ->
              let payload =
                J.to_string
                  (J.Jobj
                     [
                       ("rows", J.Jnum (float_of_int r.Sweep.rows));
                       ("failures", J.Jnum (float_of_int r.Sweep.failures));
                       ("duplicates", J.Jnum (float_of_int r.Sweep.duplicates));
                       ("store_hits", J.Jnum (float_of_int r.Sweep.store_hits));
                     ])
              in
              ( Wire.response ?id:req.id ~payload ~diagnostics:reported
                  (Contract.sweep_status ~failures:r.Sweep.failures reported),
                r.Sweep.cost,
                (* A sweep is a store hit only when the store answered
                   every row; one searched row makes it cold. *)
                if r.Sweep.rows > 0 && r.Sweep.store_hits = r.Sweep.rows then
                  "store-hit"
                else "cold" )))

(* --- telemetry: scrape payloads, access log, request traces ----------- *)

let op_name = function
  | Wire.Build -> "build"
  | Wire.Sweep -> "sweep"
  | Wire.Ping -> "ping"
  | Wire.Stop -> "stop"
  | Wire.Metrics -> "metrics"
  | Wire.Health -> "health"

(* JSON form of the registry snapshot, on the Wire discipline: fixed
   field order, optional fields omitted, shortest round-trip floats
   ({!Diag.Json}).  Equal snapshots encode to equal bytes. *)
let metrics_json () =
  let value_fields = function
    | Metrics.Counter n ->
        [ ("type", J.Jstr "counter"); ("value", J.Jnum (float_of_int n)) ]
    | Metrics.Gauge v -> [ ("type", J.Jstr "gauge"); ("value", J.Jnum v) ]
    | Metrics.Histogram h ->
        let nums conv arr =
          J.Jarr (Array.to_list (Array.map (fun x -> J.Jnum (conv x)) arr))
        in
        [
          ("type", J.Jstr "histogram");
          ("count", J.Jnum (float_of_int h.Metrics.h_count));
          ("sum", J.Jnum h.Metrics.h_sum);
          ("p50", J.Jnum (Metrics.quantile h 0.5));
          ("p90", J.Jnum (Metrics.quantile h 0.9));
          ("p99", J.Jnum (Metrics.quantile h 0.99));
          ("bounds", nums Fun.id h.Metrics.h_bounds);
          (* one count per bound plus the trailing overflow slot *)
          ("counts", nums float_of_int h.Metrics.h_counts);
        ]
  in
  let sample (s : Metrics.sample) =
    J.Jobj
      (("name", J.Jstr s.Metrics.m_name)
       ::
       (if s.Metrics.m_labels = [] then []
        else
          [
            ( "labels",
              J.Jobj
                (List.map (fun (k, v) -> (k, J.Jstr v)) s.Metrics.m_labels) );
          ])
      @ value_fields s.Metrics.m_value)
  in
  J.to_string (J.Jobj [ ("metrics", J.Jarr (List.map sample (Metrics.snapshot ()))) ])

let health_payload t =
  let inflight, depth = sched_counts t.sched in
  J.to_string
    (J.Jobj
       [
         ( "status",
           J.Jstr (if Atomic.get t.stopping then "stopping" else "ok") );
         ("uptime_s", J.Jnum (Unix.gettimeofday () -. t.started_at));
         ("served", J.Jnum (float_of_int (Atomic.get t.served_count)));
         ("in_flight", J.Jnum (float_of_int inflight));
         ("queue_depth", J.Jnum (float_of_int depth));
         ("memo_entries", J.Jnum (float_of_int (Atomic.get t.memo_count)));
         ("pool_size", J.Jnum (float_of_int (pool_size t)));
         ("pool_parked", J.Jnum (float_of_int (Pool.parked_count ())));
       ])

(* One ndjson line per finished request.  High-cardinality detail
   (request id, tenant, entity) lives here, never in metric labels. *)
let access_line t ~rid ~(req : Wire.request) ~status ~lat_ms ~queue_ms
    ~(ro : req_obs) =
  match t.access with
  | None -> ()
  | Some (lock, ocr) ->
      let line =
        J.to_string
          (J.Jobj
             (List.filter_map Fun.id
                [
                  Some ("ts", J.Jnum (Unix.gettimeofday ()));
                  Some ("request_id", J.Jstr rid);
                  Option.map (fun s -> ("id", J.Jstr s)) req.id;
                  Some
                    ( "tenant",
                      match req.tenant with
                      | Some s -> J.Jstr s
                      | None -> J.Jnull );
                  Some ("op", J.Jstr (op_name req.op));
                  (if req.entity <> "" then
                     Some ("entity", J.Jstr req.entity)
                   else None);
                  Some ("status", J.Jnum (float_of_int status));
                  Some ("outcome", J.Jstr ro.ro_outcome);
                  Some ("latency_ms", J.Jnum lat_ms);
                  Some ("queue_ms", J.Jnum queue_ms);
                  Some ("evals", J.Jnum (float_of_int ro.ro_evals));
                ]))
      in
      Mutex.lock lock;
      (try
         let oc = !ocr in
         output_string oc line;
         output_char oc '\n';
         flush oc
       with Sys_error _ -> ());
      Mutex.unlock lock

(* Export one request's Obs window as a Chrome trace when the request is
   sampled (every [trace_sample]-th) or slower than [slow_ms].  Called
   inside the serialized section, before the next request can touch the
   strand. *)
let export_request_trace t ~rid ~rid_n ~(req : Wire.request) ~lat_ms window =
  match t.cfg.trace_dir with
  | None -> ()
  | Some dir ->
      let sampled =
        t.cfg.trace_sample > 0 && rid_n mod t.cfg.trace_sample = 0
      in
      let slow =
        match t.cfg.slow_ms with Some ms -> lat_ms >= ms | None -> false
      in
      if sampled || slow then begin
        match Obs.window_events window with
        | [] -> ()
        | evs ->
            let metadata =
              List.filter_map Fun.id
                [
                  Some ("request_id", rid);
                  Some ("op", op_name req.op);
                  (if req.entity <> "" then Some ("entity", req.entity)
                   else None);
                  Option.map (fun s -> ("tenant", s)) req.tenant;
                  (if slow then Some ("slow", "true") else None);
                ]
            in
            let path = Filename.concat dir (rid ^ ".json") in
            (try Trace.write_events ~metadata path evs with Sys_error _ -> ())
      end

(* Callback-backed gauges over the daemon's live state.  Callbacks only
   read atomics or short-lock counters, so a scrape never waits on
   compute. *)
let register_metrics t =
  let g name f = Metrics.gauge_fn name f in
  g "serve.uptime_seconds" (fun () -> Unix.gettimeofday () -. t.started_at);
  g "serve.in_flight" (fun () -> float_of_int (fst (sched_counts t.sched)));
  g "serve.queue_depth" (fun () -> float_of_int (snd (sched_counts t.sched)));
  g "serve.memo.entries" (fun () -> float_of_int (Atomic.get t.memo_count));
  g "serve.memo.best_entries" (fun () ->
      float_of_int (Atomic.get t.best_count));
  g "serve.pool.size" (fun () -> float_of_int (pool_size t));
  g "serve.pool.parked" (fun () -> float_of_int (Pool.parked_count ()));
  Metrics.counter_fn "serve.obs_events_dropped" Obs.dropped_events

(* --- connection loop -------------------------------------------------- *)

let set_busy t conn busy =
  Mutex.lock t.conns_lock;
  conn.c_busy <- busy;
  let stopping = Atomic.get t.stopping in
  Mutex.unlock t.conns_lock;
  stopping

(* Every request gets a stable id from a process-wide sequence; the
   scrape ops (metrics/health) answer directly from the connection
   thread, never entering the compute queue, so they stay responsive
   while a build runs. *)
let handle_request t conn (req : Wire.request) =
  let rid_n = Atomic.fetch_and_add t.req_seq 1 in
  let rid = Printf.sprintf "r%06d" rid_n in
  let arrived = Unix.gettimeofday () in
  let finish ?(queue_ms = 0.) ?(ro = quiet_obs) resp =
    let lat_ms = (Unix.gettimeofday () -. arrived) *. 1000. in
    let labels =
      [ ro.ro_outcome; op_name req.op; string_of_int resp.Wire.status ]
    in
    Counters.incr Counters.serve_requests ~labels;
    Counters.observe Counters.serve_latency ~labels (lat_ms /. 1000.);
    access_line t ~rid ~req ~status:resp.Wire.status ~lat_ms ~queue_ms ~ro;
    Atomic.incr t.served_count;
    send_response conn resp
  in
  (* Compute ops (build, sweep) share the admission path: the stopping
     gate, the bounded FIFO queue, the Obs window/span bracket and the
     trace export all behave identically — only the handler differs. *)
  let serialized handler =
    if Atomic.get t.stopping then
      finish
        (reject ?id:req.id ~code:"serve.stopping" "daemon is shutting down")
    else
      match sched_admit t.sched with
      | None ->
          finish
            ~ro:{ quiet_obs with ro_outcome = "overloaded" }
            (reject ?id:req.id ~code:"serve.overloaded"
               (Printf.sprintf "admission queue full (limit %d)"
                  t.sched.s_limit))
      | Some queue_depth ->
          let queue_ms = (Unix.gettimeofday () -. arrived) *. 1000. in
          Fun.protect
            ~finally:(fun () -> sched_release t.sched)
            (fun () ->
              (* The window is taken before the request span opens so
                 the span's End lands inside it; every connection
                 thread shares domain 0's root strand, and only the
                 serialized request can be recording, so the window is
                 exactly this request's slice. *)
              let window = Obs.window () in
              let resp, ro =
                Obs.span "serve.request" @@ fun () ->
                Obs.sample "serve.queue_depth" (float_of_int queue_depth);
                handler ~queue_depth
              in
              let lat_ms = (Unix.gettimeofday () -. arrived) *. 1000. in
              export_request_trace t ~rid ~rid_n ~req ~lat_ms window;
              finish ~queue_ms ~ro resp)
  in
  match req.op with
  | Wire.Ping -> finish (Wire.response ?id:req.id Wire.status_ok)
  | Wire.Stop ->
      request_stop t;
      finish (Wire.response ?id:req.id Wire.status_ok)
  | Wire.Metrics ->
      let payload =
        if req.json then metrics_json () else Metrics.to_prometheus ()
      in
      finish (Wire.response ?id:req.id ~payload Wire.status_ok)
  | Wire.Health ->
      finish (Wire.response ?id:req.id ~payload:(health_payload t) Wire.status_ok)
  | Wire.Build -> serialized (fun ~queue_depth -> handle_build t req ~queue_depth)
  | Wire.Sweep ->
      serialized (fun ~queue_depth -> handle_sweep t conn req ~queue_depth)

let connection_loop t conn =
  let r = Frame.reader ~max:t.cfg.max_frame conn.c_fd in
  let rec loop () =
    if not (set_busy t conn false) then
      match Frame.read r with
      | `Eof -> ()
      | `Oversized ->
          let stopping = set_busy t conn true in
          if not stopping then begin
            send_response conn
              (reject ~code:"serve.frame-too-large"
                 (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_frame));
            loop ()
          end
      | `Line line ->
          let stopping = set_busy t conn true in
          if not stopping then begin
            (match Wire.decode_request line with
            | Error msg ->
                send_response conn
                  (reject ~code:"serve.bad-request"
                     (Printf.sprintf "malformed request: %s" msg))
            | Ok req -> handle_request t conn req);
            loop ()
          end
  in
  (try loop () with _ -> ());
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.conns_lock

let accept_loop t listener =
  let rec loop () =
    match Unix.select [ listener; t.wake_r ] [] [] (-1.) with
    | ready, _, _ when List.mem t.wake_r ready -> ()
    | ready, _, _ when not (List.mem listener ready) -> loop ()
    | _ -> (
        match Unix.accept listener with
        | fd, _ ->
            if Atomic.get t.stopping then begin
              (try Unix.close fd with Unix.Unix_error _ -> ());
              loop ()
            end
            else begin
              let conn = { c_fd = fd; c_busy = false; c_thread = None } in
              Mutex.lock t.conns_lock;
              t.conns <- conn :: t.conns;
              Mutex.unlock t.conns_lock;
              conn.c_thread <- Some (Thread.create (connection_loop t) conn);
              loop ()
            end
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            loop ()
        | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
            ()
        | exception _ -> loop ())
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
  in
  loop ()

(* --- lifecycle -------------------------------------------------------- *)

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let addr = Frame.inet_addr host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let start cfg =
  (* A peer that disconnects before its response is written must surface
     as EPIPE on the write (handled per connection), not as a SIGPIPE
     whose default action kills the whole daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let program =
    Amg_lang.Parser.parse_program ?file:cfg.source_file cfg.source
  in
  let env =
    match cfg.tech with None -> Env.bicmos () | Some tech -> Env.create tech
  in
  if cfg.warm_pool then Pool.warm ?domains:cfg.default_jobs ();
  (* Per-request traces read the Obs stream; arm it if the caller has
     not, and bound event retention so a long-running daemon cannot
     accumulate without limit (counters and samples stay exact — only
     span/mark events are capped). *)
  let obs_owned = cfg.trace_dir <> None && not (Obs.enabled ()) in
  if obs_owned then Obs.enable ();
  Obs.set_max_events (Some 65536);
  (match cfg.trace_dir with
  | None -> ()
  | Some dir -> (
      try Unix.mkdir dir 0o755 with
      | Unix.Unix_error (EEXIST, _, _) -> ()));
  let access =
    match cfg.access_log with
    | None -> None
    | Some path ->
        Some
          ( Mutex.create (),
            ref (open_out_gen [ Open_append; Open_creat ] 0o644 path) )
  in
  (* Load the durable store before the listeners open, so a warm restart
     can answer its very first request from disk.  Recovery diagnostics
     (corrupt interior records, partial reads) go to stderr — there is no
     request to attach them to. *)
  let result_store =
    match cfg.store with
    | None -> None
    | Some path ->
        let st, diags = Store.open_ path in
        List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) diags;
        Store.register_metrics st;
        Some st
  in
  let tech_fp = Generate.tech_fingerprint env in
  let unix_fd = listen_unix cfg.socket_path in
  let tcp_fd =
    match cfg.tcp with
    | None -> None
    | Some (host, port) -> (
        try Some (listen_tcp host port)
        with e ->
          (try Unix.close unix_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          raise e)
  in
  let listeners = unix_fd :: Option.to_list tcp_fd in
  (* Acceptors select on the listener; keep accept itself from blocking
     when a pending connection vanishes between the two calls. *)
  List.iter Unix.set_nonblock listeners;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      cfg;
      program;
      env;
      memo = Hashtbl.create 64;
      memo_tick = 0;
      sched = sched_create cfg.queue_limit;
      listeners;
      wake_r;
      wake_w;
      acceptors = [];
      conns_lock = Mutex.create ();
      conns = [];
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      served_count = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      req_seq = Atomic.make 0;
      memo_count = Atomic.make 0;
      best_count = Atomic.make 0;
      access;
      obs_owned;
      result_store;
      tech_fp;
      checkpoint_req = Atomic.make false;
      reopen_req = Atomic.make false;
    }
  in
  register_metrics t;
  t.acceptors <- List.map (fun fd -> Thread.create (accept_loop t) fd) listeners;
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    (* Closing the pipe's write end wakes the acceptors out of select;
       then the listeners can be closed so new connects fail. *)
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    List.iter Thread.join t.acceptors;
    t.acceptors <- [];
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (* Wake idle connections: they are blocked in read; a shutdown makes
       the read return EOF.  Busy connections finish their in-flight
       request, answer it, then observe the stopping flag and exit —
       [set_busy] and this walk run under the same lock, so a connection
       cannot slip back into a blocking read unobserved. *)
    Mutex.lock t.conns_lock;
    let conns = t.conns in
    List.iter
      (fun c ->
        if not c.c_busy then
          try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.conns_lock;
    List.iter
      (fun c -> match c.c_thread with Some th -> Thread.join th | None -> ())
      conns;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
    (match t.access with
    | Some (_, ocr) -> ( try close_out !ocr with Sys_error _ -> ())
    | None -> ());
    (* Persist on drain: every request is answered by now, so the table
       is final; compact it into a one-record-per-key snapshot.  Failures
       are contained as store.* warnings — print them, the daemon is the
       last reader of the sink here. *)
    (match t.result_store with
    | Some st ->
        Store.checkpoint st;
        Store.close st;
        List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) (Policy.drain ())
    | None -> ());
    Obs.set_max_events None;
    if t.obs_owned then Obs.disable ()
  end

let checkpoint t =
  match t.result_store with Some st -> Store.checkpoint st | None -> ()

let reopen_access_log t =
  match (t.access, t.cfg.access_log) with
  | Some (lock, ocr), Some path ->
      Mutex.lock lock;
      (try close_out !ocr with Sys_error _ -> ());
      (try ocr := open_out_gen [ Open_append; Open_creat ] 0o644 path
       with Sys_error _ -> ());
      Mutex.unlock lock
  | _ -> ()

(* Signal work happens here, not in the handlers: OCaml signal handlers
   run at safepoints with almost nothing guaranteed about context, so
   they only flip an atomic and the wait loop does the actual I/O. *)
let wait t =
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05;
    if Atomic.exchange t.checkpoint_req false then checkpoint t;
    if Atomic.exchange t.reopen_req false then reopen_access_log t
  done

let run cfg =
  let t = start cfg in
  let on_signal _ = request_stop t in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle on_signal)))
      [ Sys.sigterm; Sys.sigint ]
  in
  let previous =
    (try
       (Sys.sigusr1, Sys.signal Sys.sigusr1
          (Sys.Signal_handle (fun _ -> Atomic.set t.checkpoint_req true)))
       :: previous
     with Invalid_argument _ | Sys_error _ -> previous)
  in
  let previous =
    (try
       (Sys.sighup, Sys.signal Sys.sighup
          (Sys.Signal_handle (fun _ -> Atomic.set t.reopen_req true)))
       :: previous
     with Invalid_argument _ | Sys_error _ -> previous)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, b) -> Sys.set_signal s b) previous)
    (fun () ->
      wait t;
      stop t)
