(* The generator service.  One system thread per connection does blocking
   line I/O; build requests funnel through a bounded FIFO ticket queue and
   run one at a time.  Serialized compute is a deliberate choice, not a
   shortcut: the engine's request-scoped state is process-global (the
   policy sink, the fault-injection schedule, Obs strand routing), the
   searches already parallelize internally over the domain pool, and the
   §7 determinism contract — identical bytes for every jobs value and
   arrival order — follows directly when requests cannot interleave.

   Warmth across requests comes from two resident structures, both touched
   only from the serialized section (so they need no locks):

   - per-tenant environments: each tenant gets its own [Env.t], whose
     stamp keys the memo — tenants can never hit each other's entries;
   - a memo keyed by (tenant, entity, params) holding the recorded
     canonical build and, for unbudgeted strict searches, the finished
     result per search strategy.  Behind it sits the durable result
     store, when one is configured. *)

module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Wire = Amg_robust.Wire
module J = Amg_robust.Diag.Json
module Obs = Amg_obs.Obs
module Metrics = Amg_obs.Metrics
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
  tenant_limit : int;
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
    ?(memo_limit = 128) ?(tenant_limit = 64) ?(warm_pool = false) ?trace_dir
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
    tenant_limit;
    warm_pool;
    trace_dir;
    trace_sample;
    slow_ms;
    access_log;
    store;
    sweep_limit = max 1 sweep_limit;
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
    s_limit = max 1 limit;
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
  (inflight, max 0 (inflight - 1))

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
  env_default : Env.t;
  tenants : (string, Env.t * int ref) Hashtbl.t;  (* serialized section only *)
  memo : (string, memo_entry) Hashtbl.t;  (* serialized section only *)
  mutable memo_tick : int;
  mutable tenant_tick : int;
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
     behind a short-lived lock.  [tenant_count]/[memo_count]/[best_count]
     mirror the sizes of the serialized-section hash tables (scanning the
     tables themselves from another thread would race with resizes). *)
  started_at : float;
  req_seq : int Atomic.t;
  tenant_count : int Atomic.t;
  memo_count : int Atomic.t;
  best_count : int Atomic.t;
  (* The channel is behind a ref so SIGHUP can swing it to a freshly
     opened file (log rotation) without touching every writer: writers
     take the lock, then deref. *)
  access : (Mutex.t * out_channel ref) option;
  obs_owned : bool;  (* this server enabled Obs (for traces/access log) *)
  (* Durable result store: loaded before the listeners open (a warm
     restart answers its first request from disk), checkpointed on
     SIGUSR1 and on drain.  The handle is internally locked — worker
     threads append while the wait loop checkpoints. *)
  result_store : Store.t option;
  tech_fp : string;  (* restart-stable store key prefix, not Env.stamp *)
  checkpoint_req : bool Atomic.t;  (* set by SIGUSR1, drained by [wait] *)
  reopen_req : bool Atomic.t;  (* set by SIGHUP, drained by [wait] *)
}

let served t = Atomic.get t.served_count
let socket_path t = t.cfg.socket_path
let request_stop t = Atomic.set t.stopping true
let stop_requested t = Atomic.get t.stopping

let pool_size t =
  match t.cfg.default_jobs with Some j -> j | None -> Pool.default_domains ()

(* --- line I/O --------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let send_response conn resp =
  write_all conn.c_fd (Wire.encode_response resp ^ "\n")

(* A per-connection buffered line reader.  Returns [`Line l], [`Oversized]
   (the offending line has been discarded up to and including its
   newline, so the stream is re-synchronized), or [`Eof]. *)
type reader = {
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  r_chunk : Bytes.t;
  r_max : int;
  mutable r_skipping : bool;
}

let reader fd max_frame =
  {
    r_fd = fd;
    r_buf = Buffer.create 512;
    r_chunk = Bytes.create 8192;
    r_max = max_frame;
    r_skipping = false;
  }

let rec read_line r =
  let data = Buffer.contents r.r_buf in
  match String.index_opt data '\n' with
  | Some i ->
      let rest = String.sub data (i + 1) (String.length data - i - 1) in
      Buffer.clear r.r_buf;
      Buffer.add_string r.r_buf rest;
      if r.r_skipping then begin
        r.r_skipping <- false;
        `Oversized
      end
      else if i > r.r_max then `Oversized
      else `Line (String.sub data 0 i)
  | None ->
      if String.length data > r.r_max && not r.r_skipping then begin
        (* Discard the oversized frame but keep the connection: drop
           what we have and keep dropping until the next newline. *)
        Buffer.clear r.r_buf;
        r.r_skipping <- true;
        read_line r
      end
      else begin
        if r.r_skipping then Buffer.clear r.r_buf;
        match Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) with
        | 0 -> `Eof
        | n ->
            Buffer.add_subbytes r.r_buf r.r_chunk 0 n;
            read_line r
        | exception Unix.Unix_error ((ECONNRESET | EBADF | EPIPE), _, _) ->
            `Eof
      end

(* --- request handling ------------------------------------------------- *)

(* One name feeds both views of a serving counter: the Obs stream and the
   Prometheus registry. *)
let bump name =
  Obs.count name 1;
  Metrics.incr (Metrics.counter name)

let reject ?id ~code msg =
  Wire.response ?id
    ~diagnostics:[ Diag.v Diag.Cli ~code msg ]
    Wire.status_reject

let values params =
  List.map
    (fun (k, p) ->
      ( k,
        match p with
        | Wire.Pnum f -> Amg_lang.Value.Num f
        | Wire.Pstr s -> Amg_lang.Value.Str s ))
    params

(* Per-tenant environments are LRU-bounded like the memo: an unauthenticated
   stream of fresh tenant names must not grow the daemon without limit.  An
   evicted tenant that returns simply gets a fresh [Env] (new stamp, so
   no memo entry of its old one matches); its orphaned memo entries age
   out of the memo LRU. *)
let tenant_env t = function
  | None -> t.env_default
  | Some name -> (
      t.tenant_tick <- t.tenant_tick + 1;
      match Hashtbl.find_opt t.tenants name with
      | Some (env, tick) ->
          tick := t.tenant_tick;
          env
      | None ->
          if Hashtbl.length t.tenants >= max 1 t.cfg.tenant_limit then begin
            let victim =
              Hashtbl.fold
                (fun k (_, tick) acc ->
                  match acc with
                  | Some (_, best) when best <= !tick -> acc
                  | _ -> Some (k, !tick))
                t.tenants None
            in
            match victim with
            | Some (k, _) ->
                Hashtbl.remove t.tenants k;
                bump "serve.tenant.evictions"
            | None -> ()
          end;
          let env = Env.create (Env.tech t.env_default) in
          Hashtbl.add t.tenants name (env, ref t.tenant_tick);
          Atomic.set t.tenant_count (Hashtbl.length t.tenants);
          env)

(* Canonical build of (entity, args) under [env], memoized under [sg].
   Returns the layout with its replay record, and whether the memo served
   it; the diagnostics the build reported are re-reported on a memo hit.
   Failed builds are not memoized (the diagnostic is rebuilt per
   request). *)
let canonical_build t env ~memoizable ~sg entity args =
  match if memoizable then Hashtbl.find_opt t.memo sg else None with
  | Some e ->
      t.memo_tick <- t.memo_tick + 1;
      e.m_tick <- t.memo_tick;
      bump "serve.memo.hits";
      (* Replay the canonical build's diagnostics so a memo-served
         response carries the same report as the cold one. *)
      List.iter Policy.report e.m_diags;
      (e.m_canonical, true)
  | None ->
      bump "serve.memo.misses";
      let canonical = Amg_lang.Interp.build_recorded env t.program entity args in
      let build_diags = Policy.drain () in
      List.iter Policy.report build_diags;
      if memoizable then begin
        t.memo_tick <- t.memo_tick + 1;
        if Hashtbl.length t.memo >= max 1 t.cfg.memo_limit then begin
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
              bump "serve.memo.evictions"
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
   overloaded. *)
type req_obs = { ro_outcome : string; ro_evals : int }

let quiet_obs = { ro_outcome = "none"; ro_evals = 0 }

(* Search-effort counters the optimizer records per mode; their delta
   over a request is the access log's [evals] field.  Zero when Obs is
   off (the daemon arms it whenever traces or the access log are on). *)
let eval_counter_names =
  [
    "optimize.orders_ok";
    "optimize.orders_rejected";
    "optimize.bb_nodes";
    "optimize.local_evals";
  ]

let evals_now () =
  List.fold_left (fun acc n -> acc + Obs.counter n) 0 eval_counter_names

(* Close a compute request: measure its search effort since the [before]
   snapshot, attach the stats object when the request asked for it, and
   label the outcome. *)
let measured (req : Wire.request) ~queue_depth (started, evals0) resp outcome =
  let stats =
    if req.stats then
      Some
        {
          Wire.elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.;
          queue_depth;
        }
    else None
  in
  ( { resp with Wire.stats },
    { ro_outcome = outcome; ro_evals = evals_now () - evals0 } )

let snapshot () = (Unix.gettimeofday (), evals_now ())

(* Run one build request.  Called from the serialized section only. *)
let handle_build t (req : Wire.request) ~queue_depth =
  let before = snapshot () in
  let store_hits_before =
    match t.result_store with
    | Some st -> (Store.stats st).Store.hits
    | None -> 0
  in
  let env = tenant_env t req.tenant in
  (* Only strict, fault-free requests may use the memo layers or consult
     and feed the durable store: a permissive or fault-injected build can
     differ from the canonical one. *)
  let memoizable = (not req.permissive) && req.inject = None in
  let params = values req.params in
  (* The memo key is the store key with the tenant's process-local stamp
     in place of the deck fingerprint. *)
  let sg =
    Generate.store_key ~tech:(string_of_int (Env.stamp env)) req.entity params
  in
  (* Finished optimized results are deterministic for strict, fault-free,
     unbudgeted requests, so they are memoized whole next to the canonical
     build: a repeated identical request skips the search and replays the
     stored report byte-for-byte.  Budgeted requests bypass this memo —
     their result depends on the budget — and always search. *)
  let best_opt =
    match (req.optimize, req.max_time, req.max_evals) with
    | Some opt, None, None when memoizable -> Some opt
    | _ -> None
  in
  let best_hit =
    Option.bind best_opt (fun opt ->
        Option.bind (Hashtbl.find_opt t.memo sg) (fun e ->
            Option.map
              (fun hit ->
                t.memo_tick <- t.memo_tick + 1;
                e.m_tick <- t.memo_tick;
                bump "serve.memo.best_hits";
                hit)
              (List.assoc_opt opt e.m_best)))
  in
  (* [served]: the guarded result, the diagnostics, the degraded flag and
     whether a memo layer answered whole — a best result hit, or a
     canonical memo hit with no search to run. *)
  let served =
    match best_hit with
    | Some (obj, diags) -> Ok (Ok obj, diags, false, true)
    | None -> (
        let from_memo = ref false in
        let run () =
          let canonical, memo_hit =
            canonical_build t env ~memoizable ~sg req.entity params
          in
          from_memo := memo_hit && req.optimize = None;
          (* Durable-store key: restart-stable (tech fingerprint, not the
             process-local Env.stamp) and tenant-free — stored results are
             pure functions of tech/entity/params. *)
          let store =
            if memoizable then
              Option.map
                (fun st ->
                  (st, Generate.store_key ~tech:t.tech_fp req.entity params))
                t.result_store
            else None
          in
          Generate.run ~canonical env t.program
            (Generate.request ?search:req.optimize ?max_time:req.max_time
               ?max_evals:req.max_evals
               ~domains:(Option.value req.jobs ~default:(pool_size t))
               ?store req.entity params)
        in
        let mode = if req.permissive then Policy.Permissive else Policy.Strict in
        match Generate.guarded ~mode ?inject:req.inject run with
        | Error msg -> Error msg
        | Ok (result, reported) ->
            let degraded =
              match result with Ok o -> o.Generate.degraded | Error _ -> false
            in
            if degraded then Obs.count "serve.degraded" 1;
            (match (result, best_opt) with
            | Ok o, Some opt
              when not
                     (List.exists
                        (fun d -> d.Diag.severity = Diag.Error)
                        reported) -> (
                match Hashtbl.find_opt t.memo sg with
                | Some e when not (List.mem_assoc opt e.m_best) ->
                    e.m_best <- (opt, (o.Generate.layout, reported)) :: e.m_best;
                    ignore (Atomic.fetch_and_add t.best_count 1)
                | _ -> ())
            | _ -> ());
            Ok
              ( Result.map (fun o -> o.Generate.layout) result,
                reported,
                degraded,
                !from_memo ))
  in
  match served with
  | Error msg ->
      ( reject ?id:req.id ~code:"serve.bad-inject"
          (Printf.sprintf "bad inject spec: %s" msg),
        { quiet_obs with ro_outcome = "error" } )
  | Ok (result, reported, degraded, from_memo) ->
      let resp =
        match result with
        | Error d ->
            Wire.response ?id:req.id
              ~diagnostics:(reported @ [ d ])
              Wire.status_diag
        | Ok obj ->
            let has_error =
              List.exists (fun d -> d.Diag.severity = Diag.Error) reported
            in
            let status =
              if has_error then Wire.status_diag
              else if degraded then Wire.status_degraded
              else Wire.status_ok
            in
            let tech = Env.tech env in
            let payload =
              match req.format with
              | Wire.No_payload -> None
              | Wire.Cif -> Some (Amg_layout.Cif.of_lobj ~tech obj)
              | Wire.Svg -> Some (Amg_layout.Svg.of_lobj ~tech obj)
            in
            let rating = Rating.rate env Rating.default obj in
            Wire.response ?id:req.id ~rating ~format:req.format ?payload
              ~diagnostics:reported status
      in
      let store_hits =
        match t.result_store with
        | Some st -> (Store.stats st).Store.hits - store_hits_before
        | None -> 0
      in
      measured req ~queue_depth before resp
        (if resp.Wire.status = Wire.status_diag then "error"
         else if resp.Wire.status = Wire.status_degraded then "degraded"
         else if from_memo then "memo-hit"
         else if store_hits > 0 then "store-hit"
         else "cold")

(* Run one sweep request: expand the spec into a bounded grid, run it
   under the same tenant environment and result store as
   build requests, stream one {!Wire.encode_sweep_row} event line per
   output line over the connection as the canonical prefix completes,
   and finish with an ordinary response whose payload summarizes the
   run.  Called from the serialized section only, so the streamed rows
   can never interleave with another request's response line. *)
let handle_sweep t conn (req : Wire.request) ~queue_depth =
  let before = snapshot () in
  let rejected code msg =
    (reject ?id:req.id ~code msg, { quiet_obs with ro_outcome = "error" })
  in
  match req.spec with
  | None -> rejected "serve.bad-request" "sweep request carries no spec"
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
            write_all conn.c_fd (Wire.encode_sweep_row ~index:!index line ^ "\n")
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
          rejected "serve.sweep-too-large"
            (Printf.sprintf "grid expands to %d instances (limit %d)"
               (Sweep.grid_size spec) t.cfg.sweep_limit)
      | Ok spec -> (
          let domains = Option.value req.jobs ~default:(pool_size t) in
          (* The store gate of builds: strict, fault-free runs only. *)
          let store =
            if (not req.permissive) && req.inject = None then t.result_store
            else None
          in
          let run () =
            Sweep.run ~domains ?store ?source_file:t.cfg.source_file ~on_line
              ~env:(tenant_env t req.tenant) ~source:t.cfg.source spec
          in
          let mode =
            if req.permissive then Policy.Permissive else Policy.Strict
          in
          match Generate.guarded ~mode ?inject:req.inject run with
          | Error msg ->
              rejected "serve.bad-inject"
                (Printf.sprintf "bad inject spec: %s" msg)
          | Ok (Error d, reported) ->
              measured req ~queue_depth before
                (Wire.response ?id:req.id
                   ~diagnostics:(reported @ [ d ])
                   Wire.status_diag)
                "error"
          | Ok (Ok r, reported) ->
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
              let status =
                if r.Sweep.failures > 0 then Wire.status_degraded
                else Wire.status_ok
              in
              measured req ~queue_depth before
                (Wire.response ?id:req.id ~payload ~diagnostics:reported status)
                (if r.Sweep.failures > 0 then "degraded"
                 else if r.Sweep.store_hits > 0 then "store-hit"
                 else "cold")))

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
         ("tenants", J.Jnum (float_of_int (Atomic.get t.tenant_count)));
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
  g "serve.tenants" (fun () -> float_of_int (Atomic.get t.tenant_count));
  g "serve.memo.entries" (fun () -> float_of_int (Atomic.get t.memo_count));
  g "serve.memo.best_entries" (fun () ->
      float_of_int (Atomic.get t.best_count));
  g "serve.pool.size" (fun () -> float_of_int (pool_size t));
  g "serve.pool.parked" (fun () -> float_of_int (Pool.parked_count ()));
  Metrics.counter_fn "serve.pool.steals" Pool.steals;
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
      [
        ("cache", ro.ro_outcome);
        ("op", op_name req.op);
        ("status", string_of_int resp.Wire.status);
      ]
    in
    Metrics.incr (Metrics.counter ~labels "serve.requests");
    Metrics.observe (Metrics.histogram ~labels "serve.latency")
      (lat_ms /. 1000.);
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
  let r = reader conn.c_fd t.cfg.max_frame in
  let rec loop () =
    if not (set_busy t conn false) then
      match read_line r with
      | `Eof -> ()
      | `Oversized ->
          let stopping = set_busy t conn true in
          if not stopping then begin
            send_response conn
              (reject ~code:"serve.frame-too-large"
                 (Printf.sprintf "request line exceeds %d bytes" r.r_max));
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
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
      | h -> h.Unix.h_addr_list.(0))
  in
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
  let env_default =
    match cfg.tech with None -> Env.bicmos () | Some tech -> Env.create tech
  in
  if cfg.warm_pool then Pool.warm ?domains:cfg.default_jobs ();
  (* Per-request traces and the access log's evals field read the Obs
     stream; arm it if the caller has not, and bound event retention so
     a long-running daemon cannot accumulate without limit (counters and
     samples stay exact — only span/mark events are capped). *)
  let obs_owned =
    (cfg.trace_dir <> None || cfg.access_log <> None) && not (Obs.enabled ())
  in
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
  let tech_fp =
    Store.tech_fingerprint (Amg_tech.Tech_file.to_string (Env.tech env_default))
  in
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
      env_default;
      tenants = Hashtbl.create 8;
      memo = Hashtbl.create 64;
      memo_tick = 0;
      tenant_tick = 0;
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
      tenant_count = Atomic.make 0;
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
