(* signoff_library: the paper's own use of the generator — build a library
   module, then sign it off: design-rule check, device extraction, CIF.
   Closed loop, one thread.  Every seed signs off the same modules, a
   stratified design over each (module, deck) class, in a seeded order
   (see [run]).  This workload never reaches the search, the prefix
   cache, the daemon or the store: an optimization of those must leave
   its numbers unchanged.

   op      = one module sign-off.
   side op = the routed Fig. 9 amplifier: build, full DRC including
             latch-up, extraction and LVS.  Every [app_every]-th op also
             signs off the amplifier and the OTA. *)

open Common
module Env = Amg_core.Env
module M = Amg_modules
module Checker = Amg_drc.Checker
module Devices = Amg_extract.Devices
module Compare = Amg_extract.Compare
module Value = Amg_lang.Value
module Obs = Amg_obs.Obs

type kind =
  | Contact_row
  | Diff_pair
  | Diff_pair_lang
  | Interdigitated
  | Mirror_symmetric
  | Module_e
  | Resistor_pair
  | Stacked
  | Cap_array

let kind_name = function
  | Contact_row -> "contact_row"
  | Diff_pair -> "diff_pair"
  | Diff_pair_lang -> "diff_pair_lang"
  | Interdigitated -> "interdigitated"
  | Mirror_symmetric -> "mirror_symmetric"
  | Module_e -> "module_e"
  | Resistor_pair -> "resistor_pair"
  | Stacked -> "stacked"
  | Cap_array -> "cap_array"

(* cmos08 is single-poly ("poly2 has no area capacitance"), so the
   capacitor array exists in the BiCMOS deck only. *)
let classes =
  let both =
    [ Contact_row; Diff_pair; Diff_pair_lang; Interdigitated; Mirror_symmetric;
      Module_e; Resistor_pair; Stacked ]
  in
  Array.of_list
    (List.concat_map (fun k -> [ (k, `Bicmos); (k, `Cmos08) ]) both
    @ [ (Cap_array, `Bicmos) ])

let deck_name = function `Bicmos -> "bicmos1u" | `Cmos08 -> "cmos08"

(* Parameter draws are stratified per class (a centred Latin hypercube):
   a class occurring [r] times in a run takes each of its parameters once
   at the centre of each of [r] equal slices of the parameter's range, the
   slices in an order drawn from [st] per parameter.  [strata st r]
   returns [u] with [u ~occurrence ~param] in [0, 1). *)
let strata st r =
  let params = 4 in
  let slices =
    Array.init params (fun _ ->
        let p = Array.init r Fun.id in
        shuffle st p;
        Array.map (fun slot -> (float_of_int slot +. 0.5) /. float_of_int r) p)
  in
  fun ~occurrence ~param -> slices.(param).(occurrence)

(* A length in um on a 0.2 um step, from a uniform [u] in [0, 1). *)
let length_um u lo hi =
  let steps = int_of_float (Float.round ((hi -. lo) /. 0.2)) in
  lo +. (0.2 *. Float.of_int (min steps (int_of_float (u *. float_of_int (steps + 1)))))

let pick u choices = choices.(min (Array.length choices - 1) (int_of_float (u *. float_of_int (Array.length choices))))

(* One module's parameters from the uniforms [u 0 .. u 3]; the returned
   thunk builds it (afresh on every call).  The ranges are ones every
   module builds DRC-clean in both decks.  A contact row needs a non-metal
   landing layer.  The two heavy modules get narrow ranges (the capacitor
   array at most four units of 60-80 fF, module E a 6-10 um by 1.6-3 um
   device): their build time grows steeply with size, and a few large
   draws would otherwise decide the whole run's throughput. *)
let draw env u kind =
  let um = Amg_geometry.Units.of_um in
  let polarity () = pick (u 0) [| M.Mosfet.Pmos; M.Mosfet.Nmos |] in
  let w () = um (length_um (u 1) 4. 20.) and l () = um (length_um (u 2) 1.6 6.) in
  match kind with
    | Contact_row ->
        let layer = pick (u 0) [| "poly"; "pdiff"; "ndiff" |] in
        let w = um (length_um (u 1) 2. 20.) and l = um (length_um (u 2) 2. 40.) in
        `Edsl (fun () -> M.Contact_row.make env ~layer ~w ~l ())
    | Diff_pair ->
        let polarity = polarity () and w = w () and l = l () in
        `Edsl (fun () -> M.Diff_pair.make env ~polarity ~w ~l ())
    | Diff_pair_lang ->
        let args =
          [ ("W", Value.Num (length_um (u 1) 4. 20.)); ("L", Value.Num (length_um (u 2) 1.6 6.)) ]
        in
        `Lang
          (fun () -> Amg_lang.Interp.parse_and_build env Amg_lang.Stdlib.all "DiffPair" args)
    | Interdigitated ->
        let polarity = polarity () and w = w () and l = l () in
        let fingers = pick (u 3) [| 2; 3; 4; 5; 6 |] in
        `Edsl (fun () -> M.Interdigitated.make env ~polarity ~w ~l ~fingers ())
    | Mirror_symmetric ->
        let polarity = polarity () and w = w () and l = l () in
        `Edsl (fun () -> M.Current_mirror.symmetric env ~polarity ~w ~l ())
    | Module_e ->
        let polarity = polarity () in
        let w = um (length_um (u 1) 6. 10.) and l = um (length_um (u 2) 1.6 3.) in
        `Edsl (fun () -> M.Common_centroid.make env ~polarity ~w ~l ())
    | Resistor_pair ->
        let squares = Float.round (10. +. (70. *. u 3)) in
        `Edsl (fun () -> fst (M.Resistor_pair.make env ~squares ()))
    | Stacked ->
        let polarity = polarity () and w = w () and l = l () in
        let stages = pick (u 3) [| 1; 2; 3; 4 |] in
        `Edsl (fun () -> M.Stacked.series env ~polarity ~w ~l ~stages ())
    | Cap_array ->
        let units_a, units_b = pick (u 0) [| (1, 2); (2, 1); (2, 2) |] in
        let unit_ff = 60. +. Float.round (20. *. u 3) in
        `Edsl (fun () -> fst (M.Cap_array.make env ~unit_ff ~units_a ~units_b ()))

let geometric_checks = Checker.[ Widths; Spacings; Enclosures; Extensions ]

let module_signoff env build =
  let tech = Env.tech env in
  let obj =
    match build with
    | `Edsl f -> Obs.span "modules.build" f
    | `Lang f -> Obs.span "lang.build" f
  in
  let vios = Obs.span "drc.check" (fun () -> Checker.run ~checks:geometric_checks ~tech obj) in
  ignore (Obs.span "extract.devices" (fun () -> Devices.extract ~tech obj));
  let cif = Obs.span "layout.cif" (fun () -> Amg_layout.Cif.of_lobj ~tech obj) in
  (vios, cif)

let app_signoff env app =
  let tech = Env.tech env in
  let obj, golden =
    Obs.span "amplifier.build" (fun () ->
        match app with
        | `Amplifier ->
            ( (Amg_amplifier.Amplifier.build env).Amg_amplifier.Amplifier.obj,
              Amg_amplifier.Schematic.netlist () )
        | `Ota -> ((Amg_amplifier.Ota.build env).Amg_amplifier.Ota.obj, Amg_amplifier.Ota.netlist ()))
  in
  let vios = Obs.span "drc.check" (fun () -> Checker.run ~tech obj) in
  let ex = Obs.span "extract.devices" (fun () -> Devices.extract ~tech obj) in
  let lvs = Obs.span "extract.compare" (fun () -> Compare.run ~golden ex) in
  (vios, lvs)

let app_every = 25

let run ctx =
  let tr = ctx.tracer and passes = passes ctx 5 in
  let decks, (bicmos, cmos08) =
    setup (fun () ->
        let parse src = Env.create (Amg_tech.Tech_file.parse_string src) in
        (parse Amg_tech.Bicmos1u.source, parse Amg_tech.Cmos08.source))
  in
  let env_of = function `Bicmos -> bicmos | `Cmos08 -> cmos08 in
  (* Every class occurs equally often: 18 times at 25 s.  The capacitor
     arrays, the slowest class, form three clusters by their number of
     units, and op_tail_ms is the 11th slowest module: with 18 arrays it
     falls inside a cluster; with 15 it fell on the edge of one and moved
     by 6 % from run to run. *)
  let nclasses = Array.length classes in
  let per_class = sized ctx ~per_s:0.72 ~floor:1 in
  let nops = per_class * nclasses in
  let napps = max 1 (nops / app_every) in
  (* The op list is drawn once; every pass signs off the same modules.
     The modules themselves are the same for every seed: how a class's
     parameters pair up (a wide W with a long L) moved the run's median
     module time by 5 % from seed to seed when the pairing was seeded.  The
     seed orders them: each stretch of [nclasses] ops covers every class
     once, in a seeded order, and takes a seeded one of the class's
     remaining modules. *)
  let design = Random.State.make [| 0x516e; per_class |] in
  let u = Array.init nclasses (fun _ -> strata design per_class) in
  let st = rng ctx 0x516e in
  let occurrences =
    Array.init nclasses (fun _ ->
        let o = Array.init per_class Fun.id in
        shuffle st o;
        o)
  in
  let order = Array.init nclasses Fun.id in
  let ops =
    Array.init nops (fun i ->
        if i mod nclasses = 0 then shuffle st order;
        let c = order.(i mod nclasses) in
        let kind, deck = classes.(c) in
        let env = env_of deck in
        let occurrence = occurrences.(c).(i / nclasses) in
        ( kind_name kind ^ "@" ^ deck_name deck,
          env,
          draw env (fun param -> u.(c) ~occurrence ~param) kind ))
  in
  let times = item_times nops and amp_times = item_times napps and ota_times = item_times napps in
  let digests = Array.make nops "" in
  let samples = ref [] and failed = ref 0 in
  (* Operation ids: an odd stride makes every module and application
     traced in every other pass (only odd ids are). *)
  let per_pass = nops + (2 * napps) in
  let stride = per_pass lor 1 in
  let g0 = gc_mark () in
  for pass = 0 to passes - 1 do
    let round = ref 0 in
    Array.iteri
      (fun i (what, env, build) ->
        let op = (pass * stride) + i in
        Host.tick ();
        let (vios, cif), dt =
          timed (fun () -> Tracer.op tr ~op ~cls:what (fun () -> module_signoff env build))
        in
        add_time times i (ms dt);
        samples := (op, i, ms dt) :: !samples;
        let digest = Digest.string cif in
        if pass = 0 then digests.(i) <- digest;
        let ok = vios = [] && cif <> "" && String.equal digest digests.(i) in
        if not ok then incr failed;
        check ctx ok
          (Printf.sprintf "%s: %d design-rule violations%s" what (List.length vios)
             (if String.equal digest digests.(i) then "" else ", CIF differs between passes"));
        if (i + 1) mod app_every = 0 || (!round < napps && i = nops - 1) then begin
          let j = !round in
          incr round;
          setup_again decks;
          List.iteri
            (fun k (app, name, sink) ->
              let op = (pass * stride) + nops + (2 * j) + k in
              Host.tick ();
              let (vios, lvs), dt =
                timed (fun () -> Tracer.op tr ~op ~cls:name (fun () -> app_signoff bicmos app))
              in
              add_time sink j (ms dt);
              let ok = vios = [] && Compare.clean lvs in
              if not ok then incr failed;
              check ctx ok
                (Printf.sprintf "%s: %d violations, LVS %s" name (List.length vios)
                   (if Compare.clean lvs then "clean" else "mismatch")))
            [ (`Amplifier, "amplifier", amp_times); (`Ota, "ota", ota_times) ]
        end)
      ops
  done;
  let module_ms = item_medians times in
  let p, tail, n = Stats.tail module_ms in
  {
    attempted = passes * per_pass;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s decks);
        ("peak_rss_mb", peak_rss_mb "self");
        ("ops_per_s", float_of_int nops /. (List.fold_left ( +. ) 0. module_ms /. 1000.));
        ("op_p50_ms", Stats.median module_ms);
        ("op_tail_ms", tail);
        ("side_p50_ms", Stats.median (item_medians amp_times));
        (* no search: every module keeps its canonical compaction order *)
        ("rating_ratio", 1.);
      ];
    layers =
      (if Tracer.enabled tr then
         (("trace.overhead", Layers.overhead tr !samples) :: Layers.of_tracer tr)
         @ Layers.gc g0 ~ops:(passes * per_pass)
       else []);
    notes =
      [
        Printf.sprintf
          "%d module sign-offs over %d classes and %d amplifier + OTA sign-offs, each the \
           median of %d passes"
          nops (Array.length classes) napps passes;
        Printf.sprintf "op_tail_ms is p%.1f of %d" p n;
        Printf.sprintf "OTA sign-off p50 %.3f ms" (Stats.median (item_medians ota_times));
      ];
  }
