(* search_cold: cold compaction-order search, one instance after another
   in one process.  Each instance is a 10-row pack built from language
   source with seeded W and L, gets a fresh environment (so a fresh
   prefix-cache scope: nothing carries over between instances), and runs
   the local search on one domain.  Search dominates; running many
   instances in one process also exposes cost that grows with resident
   state (prefix cache, heap).

   op      = one instance: environment, recorded build, local search.
   side op = replay of the canonical order plus its rating: one
             evaluation without the cache, as a store or memo hit pays.

   Every pass searches the same instances again, each under a fresh
   environment, so every repeat is cold. *)

open Common
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Rating = Amg_core.Rating
module Interp = Amg_lang.Interp
module Obs = Amg_obs.Obs

type found = { rating : float; order : Optimize.step list; evals : int; search_s : float }

let run ctx =
  let tr = ctx.tracer and passes = passes ctx 2 in
  let grid = Packs.search_grid in
  let entity = Packs.entity grid.Packs.rows in
  let parse, (tech, program) =
    setup (fun () ->
        let env = Packs.fresh_bicmos () in
        (Env.tech env, Amg_lang.Parser.parse_program (Packs.library [ grid.Packs.rows ])))
  in
  (* A whole number of covers of the grid's (W band, L) pairs, so a seed
     changes only the step inside each band. *)
  let pairs = List.length grid.Packs.w_bands * List.length grid.Packs.ls in
  let count = if ctx.smoke then 4 else pairs * sized ctx ~per_s:0.1 ~floor:1 in
  let draws =
    Array.of_list
      (Packs.draws (rng ctx 0x5ea7c4) ~w_bands:grid.Packs.w_bands ~ls:grid.Packs.ls count)
  in
  let times = item_times count and side = item_times count in
  let samples = ref [] and failed = ref 0 in
  let first_pass = Array.make count None in
  let instances = ref [] in
  let g0 = gc_mark () in
  for pass = 0 to passes - 1 do
    Array.iteri
      (fun i (w, l) ->
        setup_again parse;
        (* an odd stride traces every instance in every other pass *)
        let op = (pass * ((2 * count) lor 1)) + i in
        let args = [ ("W", Amg_lang.Value.Num w); ("L", Amg_lang.Value.Num l) ] in
        let what = Printf.sprintf "%s(W=%g, L=%g)" entity w l in
        Host.tick ();
        let result, dt =
          timed (fun () ->
              Tracer.op tr ~op ~cls:"search" (fun () ->
                  let env = Obs.span "core.env" (fun () -> Env.create tech) in
                  let _, record =
                    Obs.span "lang.build" (fun () -> Interp.build_recorded env program entity args)
                  in
                  match record with
                  | Error why -> Error why
                  | Ok { Interp.base; steps } ->
                      (* CPU time as measured: [timed] would take a
                         reference timing inside this operation *)
                      let t0 = Host.cpu () in
                      let _, rating, order, evals =
                        Obs.span "optimize.local" (fun () ->
                            Optimize.optimize_local env ~name:entity ~base ~domains:1 steps)
                      in
                      Ok (env, base, steps, { rating; order; evals; search_s = Host.cpu () -. t0 })))
        in
        match result with
        | Error why ->
            incr failed;
            check ctx false (Printf.sprintf "%s: not replayable (%s)" what why)
        | Ok (env, base, steps, found) ->
            add_time times i (ms dt);
            samples := (op, i, ms dt) :: !samples;
            (* Oracles: the reported rating is the rating of the returned
               order replayed from scratch, no worse than the canonical
               order's, and the same in every pass. *)
            let side_op = op + count in
            Host.tick ();
            let canonical, dt_side =
              timed (fun () ->
                  Tracer.op tr ~op:side_op ~cls:"replay" (fun () ->
                      let obj =
                        Obs.span "optimize.apply" (fun () -> Optimize.apply ~base env ~name:entity steps)
                      in
                      Obs.span "rating.rate" (fun () -> Rating.rate env Rating.default obj)))
            in
            add_time side i (ms dt_side);
            let replayed =
              Optimize.apply ~base env ~name:entity found.order |> Rating.rate env Rating.default
            in
            if pass = 0 then begin
              first_pass.(i) <- Some found;
              instances := (grid.Packs.rows, w, l, found.rating, canonical) :: !instances
            end;
            let same =
              match first_pass.(i) with Some f -> Float.equal f.rating found.rating | None -> false
            in
            let ok = Float.equal replayed found.rating && found.rating <= canonical && same in
            if not ok then begin
              incr failed;
              check ctx false
                (Printf.sprintf
                   "%s: reported rating %g, replayed %g, canonical %g, first pass %s" what
                   found.rating replayed canonical
                   (if same then "same" else "different"))
            end)
      draws
  done;
  let op_ms = item_medians times in
  let p, tail, n = Stats.tail op_ms in
  let found = Array.to_list first_pass |> List.filter_map Fun.id in
  let evals = List.map (fun f -> float_of_int f.evals) found in
  let eval_ms = List.map (fun f -> ms f.search_s /. float_of_int f.evals) found in
  let quarter = max 1 (List.length eval_ms / 4) in
  let first = List.filteri (fun i _ -> i < quarter) eval_ms
  and last = List.filteri (fun i _ -> i >= List.length eval_ms - quarter) eval_ms in
  let layers =
    if not (Tracer.enabled tr) then []
    else
      [
        ("optimize.evals", Stats.mean evals);
        ("optimize.eval_growth", Stats.mean last /. Stats.mean first);
        ("optimize.rating_ratio", Stats.mean (List.map (fun (_, _, _, f, c) -> f /. c) !instances));
        ("trace.overhead", Layers.overhead tr !samples);
      ]
      @ Layers.prefix_cache () @ Layers.of_tracer tr
      @ Layers.gc g0 ~ops:(passes * count)
  in
  {
    attempted = passes * count;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s parse);
        ("peak_rss_mb", peak_rss_mb "self");
        ("ops_per_s", float_of_int count /. (List.fold_left ( +. ) 0. op_ms /. 1000.));
        ("op_p50_ms", Stats.median op_ms);
        ("op_tail_ms", tail);
        ("side_p50_ms", Stats.median (item_medians side));
        ("rating_ratio", Packs.rating_ratio ctx !instances);
      ];
    layers;
    notes =
      [
        Printf.sprintf "%d cold searches of %s, each the median of %d passes; %.0f evaluations each"
          count entity passes (Stats.mean evals);
        Printf.sprintf "op_tail_ms is p%.1f of %d; first-pass evaluation time grew %.2fx" p n
          (Stats.mean last /. Stats.mean first);
      ];
  }
