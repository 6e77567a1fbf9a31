(* The batch sweep engine: spec parsing, the Gray-code walk, dedup, the
   §7 determinism contract over every scheduling knob (domains, shuffle,
   store), failure rows, and the columnar file validator.

   The centrepiece is the determinism property: the emitted bytes are a
   pure function of (env, spec, source) — domains in {1,2,4}, shuffled or
   walk-order scheduling, store on or off must all produce the identical
   file. *)

open Alcotest
module Env = Amg_core.Env
module Sweep = Amg_sweep.Sweep
module Store = Amg_store.Store
module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Value = Amg_lang.Value

(* Three fully replayable top-level compacts per instance, parameterized
   on two axes — small enough that one property case sweeps a whole grid
   in milliseconds. *)
let source =
  {|
ENT ContactRow(layer, <W>, <L>, <net>)
  INBOX(layer, W, L, net = net)
  INBOX("metal1", net = net)
  ARRAY("contact", net = net)

ENT Pair(<W>, <L>)
  a = ContactRow(layer = "pdiff", W = W, L = L, net = "a")
  b = ContactRow(layer = "poly", W = L + 2, L = W, net = "b")
  c = ContactRow(layer = "pdiff", W = 4, L = 4, net = "c")
  compact(a, NORTH, align = "MIN")
  compact(b, NORTH, align = "MIN")
  compact(c, NORTH, align = "MIN")
|}

let spec_src =
  {|{ "entity": "Pair",
      "params": { "W": { "from": 3, "to": 6, "step": 1 }, "L": [4, 6] },
      "optimize": "local" }|}

let run_lines ?domains ?shuffle ?store () =
  let buf = Buffer.create 2048 in
  let on_line l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  let env = Env.bicmos () in
  let res =
    Sweep.run ?domains ?shuffle ?store ~on_line ~env ~source
      (Sweep.parse_spec spec_src)
  in
  (res, Buffer.contents buf)

(* --- spec parsing ------------------------------------------------------ *)

let bad_spec what src =
  match Sweep.parse_spec src with
  | _ -> failf "%s: expected sweep.bad-spec" what
  | exception Diag.Fail d -> check string what "sweep.bad-spec" d.Diag.code

let test_parse_spec () =
  let spec = Sweep.parse_spec spec_src in
  check int "grid size" 8 (Sweep.grid_size spec);
  check (list string) "axes are sorted by name" [ "L"; "W" ]
    (List.map (fun (a : Sweep.axis) -> a.Sweep.a_name) spec.Sweep.s_axes);
  bad_spec "not json" "nonsense";
  bad_spec "no entity" {|{ "params": { "W": [1] } }|};
  bad_spec "no params" {|{ "entity": "Pair" }|};
  bad_spec "empty axis" {|{ "entity": "Pair", "params": { "W": [] } }|};
  bad_spec "mixed axis types"
    {|{ "entity": "Pair", "params": { "W": [1, "x"] } }|};
  bad_spec "unknown mode"
    {|{ "entity": "Pair", "params": { "W": [1] }, "optimize": "best" }|};
  bad_spec "comma in value"
    {|{ "entity": "Pair", "params": { "W": ["a,b"] } }|};
  bad_spec "non-numeric step"
    {|{ "entity": "Pair", "params": { "W": { "from": 1, "to": 2, "step": "x" } } }|};
  bad_spec "backwards range"
    {|{ "entity": "Pair", "params": { "W": { "from": 5, "to": 1, "step": 1 } } }|}

(* --- the locality walk ------------------------------------------------- *)

(* Position of an instance's value on each axis, in axis order. *)
let digits (spec : Sweep.spec) inst =
  List.map2
    (fun (a : Sweep.axis) (_, v) ->
      let eq a b =
        match (a, b) with
        | Value.Num x, Value.Num y -> Float.equal x y
        | Value.Str x, Value.Str y -> String.equal x y
        | _ -> false
      in
      let rec idx i = function
        | [] -> -1
        | x :: tl -> if eq x v then i else idx (i + 1) tl
      in
      idx 0 a.Sweep.a_values)
    spec.Sweep.s_axes inst

let test_gray_walk () =
  let spec =
    Sweep.parse_spec
      {|{ "entity": "Pair",
          "params": { "W": [1, 2, 3], "L": [4, 5], "layer": ["a", "b", "c", "d"] } }|}
  in
  let insts = Sweep.instances spec in
  check int "walk covers the whole grid" (Sweep.grid_size spec)
    (List.length insts);
  check int "walk has no repeats"
    (List.length insts)
    (List.length (List.sort_uniq compare (List.map (digits spec) insts)));
  (* Consecutive instances differ on exactly one axis, by one position:
     the defining property of the reflected Gray walk. *)
  let rec adjacent = function
    | a :: (b :: _ as tl) ->
        let da = digits spec a and db = digits spec b in
        let diffs =
          List.filter (fun (x, y) -> x <> y) (List.combine da db)
        in
        (match diffs with
        | [ (x, y) ] -> check int "one-step move" 1 (abs (x - y))
        | _ -> failf "instances differ on %d axes" (List.length diffs));
        adjacent tl
    | _ -> ()
  in
  adjacent insts

let test_dedup () =
  let spec =
    Sweep.parse_spec
      {|{ "entity": "Pair", "params": { "W": [3, 4, 3], "L": [4] } }|}
  in
  check int "grid counts the duplicate" 3 (Sweep.grid_size spec);
  check int "walk drops the duplicate" 2 (List.length (Sweep.instances spec))

(* --- determinism: bytes are a pure function of the spec ---------------- *)

let reference = lazy (snd (run_lines ~domains:1 ()))

let prop_schedule_invariance =
  QCheck2.Test.make ~name:"rows byte-identical for any domains/shuffle"
    ~print:(fun (d, sh) -> Printf.sprintf "domains=%d shuffle=%b" d sh)
    ~count:12
    QCheck2.Gen.(pair (oneofl [ 1; 2; 4 ]) bool)
    (fun (domains, shuffle) ->
      let res, lines = run_lines ~domains ~shuffle () in
      res.Sweep.failures = 0
      && String.equal (Lazy.force reference) lines)

let test_store_invariance () =
  Test_util.with_tmp_dir "amgsw" @@ fun dir ->
  let st, _ = Store.open_ (Filename.concat dir "s.store") in
  let cold, lines_cold = run_lines ~domains:2 ~store:st () in
  check int "cold run never hits the store" 0 cold.Sweep.store_hits;
  let warm, lines_warm = run_lines ~domains:2 ~store:st () in
  check int "warm run answers every row from the store" warm.Sweep.rows
    warm.Sweep.store_hits;
  Store.close st;
  check string "store-cold bytes match store-less" (Lazy.force reference)
    lines_cold;
  check string "store-warm bytes match store-less" (Lazy.force reference)
    lines_warm

(* A fresh store fed by a sweep holds its records in walk order, however
   the rows were scheduled: a shuffled sweep writes the same store bytes
   as the walk-order one. *)
let test_store_walk_order () =
  Test_util.with_tmp_dir "amgsw" @@ fun dir ->
  let store_bytes name ~shuffle =
    let path = Filename.concat dir name in
    let st, _ = Store.open_ path in
    ignore (run_lines ~domains:1 ~shuffle ~store:st ());
    Store.close st;
    In_channel.with_open_bin path In_channel.input_all
  in
  let walk = store_bytes "walk.store" ~shuffle:false in
  check bool "the sweep wrote records" true (String.length walk > 16);
  check string "shuffled scheduling writes the same store bytes" walk
    (store_bytes "shuffled.store" ~shuffle:true)

(* --- failure rows ------------------------------------------------------ *)

let test_failure_rows () =
  let buf = Buffer.create 1024 in
  let env = Env.bicmos () in
  let spec =
    Sweep.parse_spec
      {|{ "entity": "Pair", "params": { "W": [4, -5], "L": [4] } }|}
  in
  Policy.reset ();
  Policy.set_mode Policy.Permissive;
  let res =
    Sweep.run
      ~on_line:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ~env ~source spec
  in
  let reported = Policy.drain () in
  Policy.reset ();
  check int "both rows emitted" 2 res.Sweep.rows;
  check int "one failure" 1 res.Sweep.failures;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  check int "header + columns + 2 rows" 4 (List.length lines - 1);
  let data = List.filteri (fun i _ -> i >= 2 && i < 4) lines in
  check int "one row is ok" 1
    (List.length
       (List.filter
          (fun l ->
            match String.split_on_char ',' l with
            | _ :: _ :: _ :: status :: _ -> status = "ok"
            | _ -> false)
          data));
  (* The failing row's diagnostic reaches the caller's sink after the
     run, tagged with its canonical row index. *)
  check bool "row-tagged error diagnostic reported" true
    (List.exists
       (fun d ->
         d.Diag.severity = Diag.Error
         && List.mem_assoc "row" d.Diag.payload)
       reported)

(* --- the CI sweep shape on two domains ------------------------------------

   The CI `sweep` job's spec: 64 DiffPair instances of the built-in
   library under local search, on a 2-domain pool, cold then warm against
   one durable store.  Every pool task derives its instance's store key;
   the tech fingerprint behind it must be ready before the pool starts —
   a lazily forced one raises [CamlinternalLazy.Undefined] when two
   domains reach it at once. *)

let ci_spec =
  {|{ "entity": "DiffPair",
      "params": { "W": { "from": 8, "to": 23, "step": 1 }, "L": [4, 5, 6, 7] },
      "optimize": "local" }|}

let lib_lines ?store ~domains spec_src =
  let buf = Buffer.create 8192 in
  let on_line l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  let res =
    Sweep.run ~domains ?store ~on_line ~env:(Env.bicmos ())
      ~source:Amg_lang.Stdlib.all (Sweep.parse_spec spec_src)
  in
  (res, Buffer.contents buf)

let test_ci_shape_two_domains () =
  Amg_parallel.Pool.set_oversubscribe true;
  Test_util.with_tmp_dir "amgsw" @@ fun dir ->
  let path = Filename.concat dir "ci.store" in
  let pass () =
    let st, _ = Store.open_ path in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () -> lib_lines ~store:st ~domains:2 ci_spec)
  in
  let cold, cold_lines = pass () in
  check int "cold: 64 rows" 64 cold.Sweep.rows;
  check int "cold: no failures" 0 cold.Sweep.failures;
  let warm, warm_lines = pass () in
  check int "warm: every row from the store" 64 warm.Sweep.store_hits;
  check string "cold and warm rows byte-identical" cold_lines warm_lines

(* --- an injected fault is a fault row, not an internal error ------------ *)

let test_injected_fault_row () =
  let module Inject = Amg_robust.Inject in
  let spec =
    {|{ "entity": "DiffPair", "params": { "W": [10, 11], "L": [5] },
        "optimize": "local" }|}
  in
  Policy.reset ();
  (match Inject.parse_spec "rule-lookup@3" with
  | Ok sched -> Inject.arm sched
  | Error e -> failf "schedule: %s" e);
  let res, lines =
    Fun.protect ~finally:Inject.disarm (fun () -> lib_lines ~domains:1 spec)
  in
  let reported = Policy.drain () in
  Policy.reset ();
  check int "one failed row" 1 res.Sweep.failures;
  let statuses =
    List.filteri (fun i _ -> i >= 2) (String.split_on_char '\n' lines)
    |> List.filter_map (fun l ->
           match String.split_on_char ',' l with
           | _ :: _ :: _ :: status :: _ -> Some status
           | _ -> None)
  in
  check (list string) "row statuses" [ "inject.fault"; "ok" ] statuses;
  match List.filter (fun d -> d.Diag.severity = Diag.Error) reported with
  | [ d ] ->
      check string "row diagnostic code" "inject.fault" d.Diag.code;
      List.iter
        (fun (k, v) ->
          check (option string) ("payload " ^ k) (Some v)
            (List.assoc_opt k d.Diag.payload))
        [ ("row", "0"); ("site", "rule-lookup"); ("hit", "3") ]
  | ds -> failf "expected one row diagnostic, got %d" (List.length ds)

(* --- the three adapters agree --------------------------------------------

   amgen build, the daemon and the sweep all run Generate.run: for the
   same entity, parameters and strategy, the pipeline's CIF and rating,
   the daemon's build response and the sweep row's rating cell match, and
   a store the sweep fed answers the daemon's request for the same
   instance. *)

module Generate = Amg_lang.Generate
module Wire = Amg_robust.Wire
module Client = Amg_serve.Client

let adapter_cases =
  [ ("DiffPair", [ ("L", 5.); ("W", 10.) ]); ("Ladder", [ ("N", 4.); ("W", 4.) ]) ]

let spec_of entity params strategy =
  Printf.sprintf {|{ "entity": %S, "params": { %s }, "optimize": %S }|} entity
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: [%g]" k v) params))
    (Wire.opt_to_string strategy)

let daemon_build sock ?(format = Wire.Cif) entity params strategy =
  let req =
    Wire.build ~optimize:strategy ~jobs:1 ~format
      ~params:(List.map (fun (k, v) -> (k, Wire.Pnum v)) params)
      entity
  in
  match Client.oneshot sock req with
  | Ok r -> r
  | Error e -> failf "%s: request failed: %s" entity e

let test_adapters_agree () =
  let program = Amg_lang.Parser.parse_program Amg_lang.Stdlib.all in
  Test_util.with_server @@ fun _ sock ->
  List.iter
    (fun (entity, params) ->
      List.iter
        (fun (name, strategy) ->
          let what = entity ^ " " ^ name in
          let env = Env.bicmos () in
          let o =
            Generate.run env program
              (Generate.request ~search:strategy ~domains:1 entity
                 (List.map (fun (k, v) -> (k, Value.Num v)) params))
          in
          let rating =
            match o.Generate.searched with
            | Some s -> s.Generate.rating
            | None -> failf "%s: no search ran" what
          in
          let cif = Amg_layout.Cif.of_lobj ~tech:(Env.tech env) o.Generate.layout in
          let resp = daemon_build sock entity params strategy in
          check int (what ^ ": daemon status") Wire.status_ok resp.Wire.status;
          check (option string) (what ^ ": daemon CIF") (Some cif)
            resp.Wire.payload;
          check (option (float 0.)) (what ^ ": daemon rating") (Some rating)
            resp.Wire.rating;
          let _, lines = lib_lines ~domains:1 (spec_of entity params strategy) in
          let row = List.nth (String.split_on_char '\n' lines) 2 in
          (* entity, one cell per axis, status, then the rating *)
          let cells = String.split_on_char ',' row in
          check string (what ^ ": sweep status") "ok"
            (List.nth cells (1 + List.length params));
          check string (what ^ ": sweep rating cell")
            (Diag.Json.to_string (Diag.Json.Jnum rating))
            (List.nth cells (2 + List.length params)))
        Wire.opt_modes)
    adapter_cases

let test_sweep_store_feeds_daemon () =
  Test_util.with_tmp_dir "amgsw" @@ fun dir ->
  let path = Filename.concat dir "s.store" in
  let entity, params = List.hd adapter_cases in
  let st, _ = Store.open_ path in
  let res, _ =
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        lib_lines ~store:st ~domains:1 (spec_of entity params Wire.Local))
  in
  check int "sweep ran clean" 0 res.Sweep.failures;
  Test_util.with_server ~store:path @@ fun _ sock ->
  let store_hits =
    Amg_obs.Metrics.counter "serve.requests"
      ~labels:[ ("cache", "store-hit"); ("op", "build"); ("status", "0") ]
  in
  let before = Amg_obs.Metrics.counter_value store_hits in
  let resp = daemon_build sock ~format:Wire.No_payload entity params Wire.Local in
  check int "daemon status" Wire.status_ok resp.Wire.status;
  check int "answered as a store-hit" (before + 1)
    (Amg_obs.Metrics.counter_value store_hits)

(* --- counters ------------------------------------------------------------ *)

(* The sweep's counters export under their Prometheus names (the exposition
   appends [_total] to a counter's name once, never twice), and the Obs
   view counts every instance under the same declaration. *)
let test_sweep_counters () =
  let module Obs = Amg_obs.Obs in
  Obs.enable ();
  let res, _ =
    Fun.protect ~finally:Obs.disable (fun () -> run_lines ~domains:1 ())
  in
  check int "sweep ran clean" 0 res.Sweep.failures;
  check int "Obs counts every instance" res.Sweep.rows
    (Obs.counter "sweep.instances");
  let lines =
    String.split_on_char '\n' (Amg_obs.Metrics.to_prometheus ())
  in
  let has_series prefix =
    List.exists (fun l -> String.starts_with ~prefix:(prefix ^ " ") l) lines
  in
  check bool "sweep_runs_total exported" true (has_series "sweep_runs_total");
  check bool "sweep_instances_total{status=\"ok\"} exported" true
    (has_series {|sweep_instances_total{status="ok"}|});
  let doubled l =
    let n = String.length l and m = String.length "_total_total" in
    let rec go i = i + m <= n && (String.sub l i m = "_total_total" || go (i + 1)) in
    go 0
  in
  check (list string) "no series named _total_total" []
    (List.filter doubled lines)

(* --- the columnar file validator --------------------------------------- *)

let test_check_file () =
  Test_util.with_tmp_dir "amgsw" @@ fun dir ->
  let path = Filename.concat dir "out.csv" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let _, lines = run_lines ~domains:1 () in
  write lines;
  (match Sweep.check_file path with
  | Ok n -> check int "full file validates" 8 n
  | Error e -> failf "full file rejected: %s" e);
  (* A killed sweep keeps a prefix: fewer rows than announced is the
     documented crash shape and must validate. *)
  let all = String.split_on_char '\n' lines in
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < 5) all) ^ "\n"
  in
  write truncated;
  (match Sweep.check_file path with
  | Ok n -> check int "truncated file validates with fewer rows" 3 n
  | Error e -> failf "truncated file rejected: %s" e);
  (* More rows than announced, a malformed cell, or a tampered column
     line are corruption, not a crash shape. *)
  let data_row =
    List.find (fun l -> String.length l > 0) (List.filteri (fun i _ -> i = 2) all)
  in
  write (lines ^ data_row ^ "\n");
  check bool "extra row rejected" true (Result.is_error (Sweep.check_file path));
  write
    (String.concat "\n"
       (List.mapi
          (fun i l -> if i = 2 then "Pair,4,3,ok,not-a-number,,,,,,,," else l)
          all));
  check bool "non-numeric metric cell rejected" true
    (Result.is_error (Sweep.check_file path));
  write
    (String.concat "\n"
       (List.mapi (fun i l -> if i = 1 then l ^ ",extra" else l) all));
  check bool "tampered column line rejected" true
    (Result.is_error (Sweep.check_file path));
  write "not json\n";
  check bool "missing header rejected" true
    (Result.is_error (Sweep.check_file path))

let suite =
  [
    test_case "spec parses; malformed specs get sweep.bad-spec" `Quick
      test_parse_spec;
    test_case "locality walk is a gray code over the grid" `Quick
      test_gray_walk;
    test_case "duplicate grid points are dropped" `Quick test_dedup;
    QCheck_alcotest.to_alcotest prop_schedule_invariance;
    test_case "store on/off/warm never changes the bytes" `Quick
      test_store_invariance;
    test_case "per-instance failures become rows, sweep completes" `Quick
      test_failure_rows;
    test_case "check_file accepts crash prefixes, rejects corruption" `Quick
      test_check_file;
    test_case "CI shape: 2 domains + store, cold = warm bytes" `Quick
      test_ci_shape_two_domains;
    test_case "injected fault rows carry inject.fault" `Quick
      test_injected_fault_row;
    test_case "CLI pipeline, daemon and sweep agree" `Quick
      test_adapters_agree;
    test_case "a sweep-fed store answers the daemon" `Quick
      test_sweep_store_feeds_daemon;
    test_case "counters export one _total suffix" `Quick test_sweep_counters;
    test_case "store records follow the walk order" `Quick test_store_walk_order;
  ]
