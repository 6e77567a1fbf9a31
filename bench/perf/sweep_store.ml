(* sweep_store: a parameter-grid sweep of an 8-row pack (W x L), local
   search on one domain, prefix cache on, into a fresh result store.  The
   cold pass searches every row and writes the store; the store is then
   closed, reopened, and warm passes read every row back.  Same optimize
   layer as search_cold, used differently: neighbour rows in the
   locality walk, and store writes beside store reads.

   op      = one cold-pass row (op_p50_ms, op_tail_ms; ops_per_s is the
             cold pass's row rate).
   side op = one warm-pass row (side_p50_ms).

   Every round sets up afresh (deck, spec, a fresh store), runs a cold
   pass and [warm_passes] warm passes, and each row takes its median cold
   and median warm time over the rounds.

   Rows are timed by the CPU time between the sweep's output lines: with
   one domain every row is emitted as soon as it completes. *)

open Common
module Sweep = Amg_sweep.Sweep
module Store = Amg_store.Store
module Obs = Amg_obs.Obs

let warm_passes = 5

type pass = {
  p_op : int;
  p_warm : bool;
  p_bytes : string;
  p_row_ms : float array;
  p_result : Sweep.result;
}

let run ctx =
  let tr = ctx.tracer and rounds = passes ctx 8 in
  let dir = ctx.workdir in
  let grid = Packs.sweep_grid in
  let entity = Packs.entity grid.Packs.rows in
  let source = Packs.library [ grid.Packs.rows ] in
  let st = rng ctx 0x5e3e9 in
  (* W takes one value from each of [w_count] equal slices of the grid's
     W range, on a quarter-micron step at a seeded place in the slice, so
     every seed sweeps the same band; L takes the grid's three values, so
     the row-time distribution has no gap for the median to fall into. *)
  let ls = grid.Packs.ls in
  let w_lo = List.hd grid.Packs.w_bands in
  let w_count = max 2 (sized ctx ~per_s:1. ~floor:6 / List.length ls) in
  let slice = float_of_int (List.length grid.Packs.w_bands) /. float_of_int w_count in
  let quarters = max 1 (int_of_float (slice /. 0.25)) in
  let ws =
    List.init w_count (fun i ->
        Float.round ((w_lo +. (slice *. float_of_int i)) *. 4.) /. 4.
        +. (0.25 *. float_of_int (Random.State.int st quarters)))
  in
  let nums l = String.concat ", " (List.map (Printf.sprintf "%g") l) in
  let spec_src =
    Printf.sprintf
      "{ \"entity\": %S, \"params\": { \"W\": [ %s ], \"L\": [ %s ] }, \"optimize\": \"local\" }"
      entity (nums ws) (nums ls)
  in
  let store_path k = Filename.concat dir (Printf.sprintf "sweep%d.store" k) in
  (* A round's setup: the deck, the sweep spec and a fresh store at
     [path].  Besides each round's own, a throwaway setup is timed before
     every warm pass, so that setup_s is the median of many timings. *)
  let open_s = ref [] and setups = ref [] in
  let set_up path =
    Host.tick ();
    let v, dt =
      timed (fun () ->
          let env = Packs.fresh_bicmos () in
          let spec = Sweep.parse_spec spec_src in
          (try Sys.remove path with Sys_error _ -> ());
          let (store, diags), dt = timed (fun () -> Store.open_ path) in
          open_s := dt :: !open_s;
          check ctx (diags = []) "a fresh store opens without recovery diagnostics";
          (env, spec, store))
    in
    setups := dt :: !setups;
    v
  in
  let throwaway = Filename.concat dir "setup.store" in
  let g0 = gc_mark () in
  (* One pass: the output bytes and per-row times. *)
  let pass ~op ~warm ~env ~store spec =
    let out = Buffer.create 8192 in
    let row_ms = ref [] and lines = ref 0 in
    let last = ref (Host.cpu ()) in
    let on_line line =
      let t = Host.cpu () in
      Buffer.add_string out line;
      Buffer.add_char out '\n';
      (* the header and column lines precede the first row *)
      if !lines >= 2 then row_ms := ms (Host.scale (t -. !last)) :: !row_ms;
      incr lines;
      (* between two rows: the next row's time starts after the tick *)
      Host.tick ();
      last := Host.cpu ()
    in
    let r =
      Tracer.op tr ~op ~cls:(if warm then "warm" else "cold") (fun () ->
          Obs.span "sweep.run" (fun () ->
              Sweep.run ~domains:1 ~store ~on_line ~env ~source spec))
    in
    { p_op = op; p_warm = warm; p_bytes = Buffer.contents out;
      p_row_ms = Array.of_list (List.rev !row_ms); p_result = r }
  in
  (* Operation ids rotate with the round, so the cold pass is traced in
     every other round (only odd ids are). *)
  let per_round = 1 + warm_passes in
  let writes = ref [] and log_kb = ref [] and reopen_s = ref [] in
  let passes =
    List.concat
      (List.init rounds (fun k ->
           let env, spec, store = set_up (store_path k) in
           let op j = (k * per_round) + ((j + k) mod per_round) in
           let cold = pass ~op:(op 0) ~warm:false ~env ~store spec in
           writes := (Store.stats store).Store.writes :: !writes;
           Store.close store;
           Host.tick ();
           let (store, diags), dt = timed (fun () -> Store.open_ (store_path k)) in
           reopen_s := dt :: !reopen_s;
           check ctx
             (List.for_all
                (fun (d : Amg_robust.Diag.t) -> d.Amg_robust.Diag.severity = Amg_robust.Diag.Info)
                diags)
             "the reopened store recovers without warnings";
           let warm =
             List.init warm_passes (fun j ->
                 (let _, _, s = set_up throwaway in
                  Store.close s);
                 pass ~op:(op (j + 1)) ~warm:true ~env ~store spec)
           in
           log_kb := (float_of_int (Store.stats store).Store.log_bytes /. 1024.) :: !log_kb;
           Store.close store;
           cold :: warm))
  in
  (* Oracles: every pass emits the same bytes, the file validates against
     its own schema, and every warm row is a store hit. *)
  let first = List.hd passes in
  let rows = first.p_result.Sweep.rows in
  let out_path = Filename.concat dir "sweep.csv" in
  Out_channel.with_open_bin out_path (fun oc -> output_string oc first.p_bytes);
  check ctx (Sweep.check_file out_path = Ok rows) "the cold result file passes Sweep.check_file";
  let failed = ref 0 in
  List.iter
    (fun p ->
      let r = p.p_result in
      let ok =
        r.Sweep.failures = 0
        && String.equal p.p_bytes first.p_bytes
        && Array.length p.p_row_ms = rows
        && ((not p.p_warm) || r.Sweep.store_hits = rows)
      in
      if not ok then failed := !failed + rows;
      check ctx ok
        (Printf.sprintf "%s pass %d: %d failed rows, bytes %s, %d/%d store hits"
           (if p.p_warm then "warm" else "cold")
           p.p_op r.Sweep.failures
           (if String.equal p.p_bytes first.p_bytes then "same" else "differ")
           r.Sweep.store_hits rows))
    passes;
  let cold, warm = List.partition (fun p -> not p.p_warm) passes in
  let median_of ps =
    let times = item_times rows in
    List.iter (fun p -> Array.iteri (fun i ms -> add_time times i ms) p.p_row_ms) ps;
    item_medians times
  in
  let cold_ms = median_of cold and warm_ms = median_of warm in
  let p, tail, n = Stats.tail cold_ms in
  (* Quality: each row's rating over its canonical-order rating, the
     latter replayed here from the recorded build. *)
  let instances =
    let program = Amg_lang.Parser.parse_program source and env = Packs.fresh_bicmos () in
    match String.split_on_char '\n' first.p_bytes with
    | _header :: columns :: lines ->
        let columns = String.split_on_char ',' columns in
        let column name =
          Option.get (List.find_index (String.equal name) columns)
        in
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              let cells = Array.of_list (String.split_on_char ',' line) in
              let num name = float_of_string cells.(column name) in
              let w = num "W" and l = num "L" in
              let args = [ ("W", Amg_lang.Value.Num w); ("L", Amg_lang.Value.Num l) ] in
              match Amg_lang.Interp.build_recorded env program entity args with
              | _, Ok { Amg_lang.Interp.base; steps } ->
                  Some
                    ( grid.Packs.rows, w, l, num "rating",
                      Packs.canonical_rating env ~rows:grid.Packs.rows ~base steps )
              | _, Error why ->
                  check ctx false (Printf.sprintf "%s: not replayable (%s)" line why);
                  None)
          lines
    | _ -> []
  in
  let layers =
    if not (Tracer.enabled tr) then []
    else
      let c name = float_of_int (Tracer.counter tr name) in
      let traced ps = float_of_int (rows * List.length (List.filter (fun p -> Tracer.traced tr p.p_op) ps)) in
      [
        ("trace.overhead",
          Layers.overhead tr
            (List.concat_map (fun p -> Array.to_list (Array.mapi (fun i ms -> (p.p_op, i, ms)) p.p_row_ms)) cold));
        ("optimize.evals", Layers.ratio (c "optimize.local_evals") (traced cold));
        ("optimize.rating_ratio", Stats.mean (List.map (fun (_, _, _, f, c) -> f /. c) instances));
        ("sweep.warm_speedup", Layers.ratio (Stats.median cold_ms) (Stats.median warm_ms));
        ("store.hit_ratio",
          Layers.ratio
            (float_of_int (List.fold_left (fun a p -> a + p.p_result.Sweep.store_hits) 0 warm))
            (float_of_int (rows * List.length warm)));
        ("optimize.store_hits", Layers.ratio (c "optimize.store_hits") (traced warm));
        ("store.open_share", Layers.ratio (Stats.median !open_s) (Stats.median !setups));
        ("store.writes", Layers.ratio (float_of_int (List.hd !writes)) (float_of_int rows));
        ("store.log_kb", List.hd !log_kb);
      ]
      @ Layers.prefix_cache () @ Layers.of_tracer tr
      @ Layers.gc g0 ~ops:(rows * List.length passes)
  in
  {
    attempted = rows * List.length passes;
    failed = !failed;
    e2e =
      [
        ("setup_s", Stats.median !setups);
        ("peak_rss_mb", peak_rss_mb "self");
        ("ops_per_s", float_of_int rows /. (List.fold_left ( +. ) 0. cold_ms /. 1000.));
        ("op_p50_ms", Stats.median cold_ms);
        ("op_tail_ms", tail);
        ("side_p50_ms", Stats.median warm_ms);
        ("rating_ratio", Packs.rating_ratio ctx instances);
      ];
    layers;
    notes =
      [
        Printf.sprintf
          "%d-row grid of %s (W %s, L %s); %d rounds of a cold and %d warm passes, each row \
           its median"
          rows entity (nums ws) (nums ls) rounds warm_passes;
        Printf.sprintf "op_tail_ms is p%.1f of %d; store reopened in %.3f ms (median)" p n
          (ms (Stats.median !reopen_s));
      ];
  }
