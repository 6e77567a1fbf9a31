(* Robustness layer: structured diagnostics, budgets, fault injection.

   The centrepiece is the fault-schedule property: under ANY injected fault
   schedule the pipeline either commits a DRC-clean layout or fails with a
   structured diagnostic — never a crash, never a dirty layout. *)

open Alcotest
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Wire = Amg_robust.Wire
module Budget = Amg_robust.Budget
module Diag = Amg_robust.Diag
module Inject = Amg_robust.Inject
module Policy = Amg_robust.Policy
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Interp = Amg_lang.Interp

(* The paper's Fig. 2/7 modules, inline so the tests need no data files.
   Stack is the optimization target: four top-level compacts, no shapes
   drawn between them. *)
let source =
  {|
ENT ContactRow(layer, <W>, <L>, <net>)
  INBOX(layer, W, L, net = net)
  INBOX("metal1", net = net)
  ARRAY("contact", net = net)

ENT Trans(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L, neta = "g")
  polycon = ContactRow(layer = "poly", L = L, net = "g")
  diffcon = ContactRow(layer = "pdiff", W = W, net = "sd")
  compact(polycon, SOUTH, "poly", align = "CENTER")
  compact(diffcon, EAST, "pdiff", align = "MIN")

ENT Stack()
  a = ContactRow(layer = "pdiff", W = 4, L = 6, net = "a")
  b = ContactRow(layer = "pdiff", W = 6, L = 4, net = "b")
  c = ContactRow(layer = "poly", W = 3, L = 8, net = "c")
  d = ContactRow(layer = "pdiff", W = 5, L = 5, net = "d")
  compact(a, NORTH, align = "MIN")
  compact(b, NORTH, align = "MIN")
  compact(c, NORTH, align = "MIN")
  compact(d, NORTH, align = "MIN")
|}

let program = Amg_lang.Parser.parse_program ~file:"inline.amg" source
let env () = Env.bicmos ()

let fingerprint obj =
  String.concat ";" (List.map Shape.show (Lobj.shapes obj))
  ^ "|"
  ^ String.concat ";"
      (List.map
         (fun (p : Amg_layout.Port.t) -> Amg_layout.Port.show p)
         (Lobj.ports obj))

(* The amgen boundary's conversion, minus the CLI cases. *)
let convert = function
  | Env.Rejected msg -> Some (Diag.v Diag.Layout ~code:"layout.rejected" msg)
  | Inject.Fault (site, hit) -> Some (Inject.to_diag site hit)
  | Failure msg -> Some (Diag.v Diag.Cli ~code:"cli.error" msg)
  | _ -> None

(* --- the fault-schedule property --- *)

let gen_schedule =
  let open QCheck2.Gen in
  let site = oneofl Inject.all_sites in
  let fault = pair site (int_range 1 30) in
  oneof
    [
      list_size (int_range 0 4) fault;
      (* the CLI's seeded schedules, same distribution as --inject seed:N *)
      map (fun seed -> Inject.of_seed ~faults:3 seed) (int_range 0 10_000);
    ]

let print_schedule s =
  String.concat ","
    (List.map
       (fun (site, hit) ->
         Printf.sprintf "%s@%d" (Inject.site_to_string site) hit)
       s)

let prop_fault_schedule =
  QCheck2.Test.make ~name:"any fault schedule: DRC-clean layout or diagnostic"
    ~print:print_schedule ~count:220 gen_schedule (fun schedule ->
      Inject.arm schedule;
      Fun.protect ~finally:Inject.disarm (fun () ->
          let e = env () in
          match
            Diag.guard ~convert (fun () ->
                let obj = Interp.build e program "Trans" [ ("W", Amg_lang.Value.Num 10.); ("L", Amg_lang.Value.Num 5.) ] in
                (* bare modules carry no substrate taps, so run the geometric
                   checks (what `amgen check` runs without --latchup) *)
                let checks =
                  Amg_drc.Checker.[ Widths; Spacings; Enclosures; Extensions ]
                in
                Amg_drc.Checker.run ~checks ~tech:(Env.tech e) obj)
          with
          | Ok violations -> violations = []
          | Error _ -> true))

(* --- empty schedule: pure observation --- *)

let test_empty_schedule_identical () =
  let e = env () in
  let build () = Interp.build e program "Stack" [] in
  Inject.disarm ();
  let plain = fingerprint (build ()) in
  Inject.arm [];
  let armed =
    Fun.protect ~finally:Inject.disarm (fun () ->
        let fp = fingerprint (build ()) in
        check bool "probes were hit" true (Inject.hits Inject.Rule_lookup > 0);
        fp)
  in
  check string "armed-empty run is byte-identical" plain armed

(* --- budgets: degraded best-so-far is deterministic across domains --- *)

let recorded () =
  let e = env () in
  match Interp.build_recorded e program "Stack" [] with
  | _, Ok r -> (e, r)
  | _, Error why -> failwith ("Stack should be replayable: " ^ why)

let order_indices (steps : Optimize.step list) order =
  List.map
    (fun s ->
      let rec idx i = function
        | [] -> -1
        | x :: tl -> if x == s then i else idx (i + 1) tl
      in
      idx 0 steps)
    order

(* A clock that jumps past any deadline after [n] reads: with an injected
   clock, cancellation is only observed at coordinator boundaries, so the
   degraded result must be a pure function of [n]. *)
let clock_stop_after n =
  let reads = ref 0 in
  fun () ->
    incr reads;
    if !reads > n then 1.0e9 else 0.0

let test_deadline_deterministic () =
  let runs =
    List.map
      (fun domains ->
        let e, { Interp.base; steps } = recorded () in
        let budget =
          Budget.create ~deadline:1.0 ~clock:(clock_stop_after 2) ()
        in
        let obj, rating, order, _ =
          Optimize.search e ~name:"stack" ~base ~domains ~budget Wire.Orders
            steps
        in
        check bool
          (Printf.sprintf "domains=%d: degraded" domains)
          true (Budget.degraded budget);
        (fingerprint obj, rating, order_indices steps order))
      Test_util.domain_counts
  in
  match runs with
  | first :: rest ->
      List.iteri
        (fun i r ->
          check bool (Printf.sprintf "run %d equals run 0" (i + 1)) true
            (r = first))
        rest
  | [] -> assert false

let test_max_evals_deterministic () =
  List.iter
    (fun which ->
      let runs =
        List.map
          (fun domains ->
            let e, { Interp.base; steps } = recorded () in
            let budget = Budget.create ~max_evals:5 () in
            let obj, rating, order =
              match which with
              | `Orders ->
                  let o, r, ord, _ =
                    Optimize.search e ~name:"stack" ~base ~domains ~budget
                      Wire.Orders steps
                  in
                  (o, r, ord)
              | `Bb ->
                  let o, r, ord, _ =
                    Optimize.search e ~name:"stack" ~base ~domains ~budget
                      Wire.Bb steps
                  in
                  (o, r, ord)
              | `Local ->
                  let o, r, ord, _ =
                    Optimize.optimize_local e ~name:"stack" ~base ~domains
                      ~budget steps
                  in
                  (o, r, ord)
            in
            check bool "degraded" true (Budget.degraded budget);
            (fingerprint obj, rating, order_indices steps order))
          Test_util.domain_counts
      in
      match runs with
      | first :: rest ->
          List.iter (fun r -> check bool "domain-independent" true (r = first)) rest
      | [] -> assert false)
    [ `Orders; `Bb; `Local ]

let test_unhit_budget_is_noop () =
  let e, { Interp.base; steps } = recorded () in
  let plain_obj, plain_rating, plain_order, _ =
    Optimize.search e ~name:"stack" ~base Wire.Orders steps
  in
  let budget = Budget.create ~max_evals:1_000_000 () in
  let obj, rating, order, _ =
    Optimize.search e ~name:"stack" ~base ~budget Wire.Orders steps
  in
  check bool "not degraded" false (Budget.degraded budget);
  check (float 1e-9) "same rating" plain_rating rating;
  check (list int) "same order" (order_indices steps plain_order)
    (order_indices steps order);
  check string "same layout" (fingerprint plain_obj) (fingerprint obj)

(* --- diagnostics JSON --- *)

let sample_diags =
  [
    Diag.v Diag.Lang ~code:"lang.parse.expected"
      ~span:(Diag.span ~file:"a.amg" ~col:7 3)
      ~hint:"add a closing parenthesis"
      ~payload:[ ("token", ")" ) ]
      "expected \")\" but got newline";
    Diag.v ~severity:Diag.Warning Diag.Optimize ~code:"optimize.degraded"
      "search stopped\nafter 3 evaluations";
    Diag.v ~severity:Diag.Info Diag.Internal ~code:"internal.note"
      "control chars \x01 and backslash \\ and quote \"";
  ]

let test_diag_json_roundtrip () =
  List.iter
    (fun degraded ->
      let json = Diag.list_to_json ~degraded sample_diags in
      match Diag.list_of_json json with
      | Error msg -> failf "round-trip failed: %s" msg
      | Ok (d, diags) ->
          check bool "degraded preserved" degraded d;
          check int "all diagnostics back" (List.length sample_diags)
            (List.length diags);
          List.iter2
            (fun a b -> check bool "diag preserved" true (Diag.equal a b))
            sample_diags diags)
    [ false; true ]

let prop_diag_json_roundtrip =
  let open QCheck2.Gen in
  let str = string_size ~gen:(map Char.chr (int_range 1 126)) (int_range 0 20) in
  let gen =
    map
      (fun (code, msg, hint) ->
        Diag.v Diag.Tech ~code ?hint:(if hint = "" then None else Some hint) msg)
      (triple str str str)
  in
  QCheck2.Test.make ~name:"diag JSON round-trip on arbitrary strings" ~count:300
    gen (fun d ->
      match Diag.of_json (Diag.to_json d) with
      | Ok d2 -> Diag.equal d d2
      | Error _ -> false)

(* The report bytes are pinned: spans with and without a file (and a
   negative column), no span, a hint with a quote, control characters,
   an empty payload value and an empty payload. *)
let golden_diags =
  [
    Diag.v Diag.Lang ~code:"lang.parse.expected"
      ~span:(Diag.span ~file:"lib/a b.amg" ~col:(-3) 12)
      ~hint:"close the \"(\" first"
      ~payload:[ ("token", "\001x"); ("empty", "") ]
      "line one\nline two";
    Diag.v ~severity:Diag.Warning Diag.Optimize ~code:"optimize.degraded"
      "search stopped";
    Diag.v ~severity:Diag.Info Diag.Store ~code:"store.recovered"
      ~span:(Diag.span 4) ~payload:[ ("path", "C:\\tmp\\s.log") ]
      "tab\there";
  ]

let test_diag_json_golden () =
  check string "report bytes"
    ({|{"version":1,"degraded":true,"diagnostics":[|}
    ^ {|{"code":"lang.parse.expected","severity":"error","subsystem":"lang",|}
    ^ {|"message":"line one\nline two","span":{"file":"lib/a b.amg","line":12,"col":-3},|}
    ^ {|"hint":"close the \"(\" first","payload":{"token":"\u0001x","empty":""}},|}
    ^ {|{"code":"optimize.degraded","severity":"warning","subsystem":"optimize",|}
    ^ {|"message":"search stopped","span":null,"hint":null,"payload":{}},|}
    ^ {|{"code":"store.recovered","severity":"info","subsystem":"store",|}
    ^ {|"message":"tab\there","span":{"file":null,"line":4,"col":0},"hint":null,|}
    ^ {|"payload":{"path":"C:\\tmp\\s.log"}}]}|})
    (Diag.list_to_json ~degraded:true golden_diags)

(* A [\u] escape names one UTF-16 code unit: a surrogate pair decodes to
   one 4-byte UTF-8 sequence, a lone surrogate is an error, and exactly
   four hex digits must follow. *)
let test_json_unicode_escapes () =
  let decodes s expected =
    match Diag.Json.of_string s with
    | Ok (Diag.Json.Jstr got) -> check string s expected got
    | Ok _ -> failf "%s: not a string" s
    | Error e -> failf "%s rejected: %s" s e
  in
  let rejects s =
    match Diag.Json.of_string s with
    | Ok _ -> failf "%s accepted" s
    | Error _ -> ()
  in
  decodes {|"\u0041\u00e9\u20ac"|} "A\xc3\xa9\xe2\x82\xac";
  decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  decodes {|"\uD800\uDC00"|} "\xf0\x90\x80\x80";
  decodes {|"\udbff\udfff"|} "\xf4\x8f\xbf\xbf";
  List.iter rejects
    [
      {|"\ud800"|};
      {|"\udc00"|};
      {|"\ud83dx"|};
      {|"\ud83d\u0041"|};
      {|"\ud83d\ud83d"|};
      {|"\u0_41"|};
      {|"\u+041"|};
      {|"\u 041"|};
      {|"\u00e"|};
    ]

(* --- fault-injection plumbing --- *)

let test_parse_spec () =
  (match Inject.parse_spec "seed:42" with
  | Ok s -> check bool "seeded schedule non-empty" true (s <> [])
  | Error m -> failf "seed:42 rejected: %s" m);
  (match Inject.parse_spec "rule-lookup@3,pool-task@1" with
  | Ok s ->
      check bool "explicit sites" true
        (List.mem (Inject.Rule_lookup, 3) s && List.mem (Inject.Pool_task, 1) s)
  | Error m -> failf "site list rejected: %s" m);
  (match Inject.parse_spec "nonsense" with
  | Ok _ -> failf "nonsense accepted"
  | Error _ -> ());
  check bool "of_seed deterministic" true
    (Inject.of_seed 42 = Inject.of_seed 42)

let test_probe_fires_on_scheduled_hit () =
  Inject.arm [ (Inject.Drc_check, 2) ];
  Fun.protect ~finally:Inject.disarm (fun () ->
      Inject.probe Inject.Drc_check;
      (match Inject.probe Inject.Drc_check with
      | () -> failf "second hit should fault"
      | exception Inject.Fault (Inject.Drc_check, 2) -> ());
      (* counters keep running after a fault *)
      Inject.probe Inject.Drc_check;
      check int "three hits recorded" 3 (Inject.hits Inject.Drc_check))

(* --- pool cancellation --- *)

let test_map_array_cancel () =
  Amg_parallel.Pool.with_pool ~domains:1 (fun pool ->
      let started = ref 0 in
      let out =
        Amg_parallel.Pool.map_array_cancel pool
          ~cancel:(fun () -> !started >= 3)
          (fun x ->
            incr started;
            x * 2)
          (Array.init 10 Fun.id)
      in
      check int "three tasks ran" 3 !started;
      Array.iteri
        (fun i slot ->
          if i < 3 then check (option int) "completed slot" (Some (i * 2)) slot
          else check (option int) "skipped slot" None slot)
        out);
  Amg_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Amg_parallel.Pool.map_array_cancel pool
          ~cancel:(fun () -> false)
          (fun x -> x + 1)
          (Array.init 20 Fun.id)
      in
      Array.iteri
        (fun i slot -> check (option int) "no-cancel slot" (Some (i + 1)) slot)
        out)

(* --- CRLF and positioned front-end errors (satellite of the boundary) --- *)

let test_crlf_sources () =
  let e = env () in
  let crlf =
    String.concat "\r\n"
      (String.split_on_char '\n' source)
  in
  let obj = Interp.parse_and_build ~file:"crlf.amg" e crlf "Stack" [] in
  check bool "CRLF module source builds" true (Lobj.shape_count obj > 0);
  let deck = Amg_tech.Tech_file.to_string (Env.tech e) in
  let deck_crlf = String.concat "\r\n" (String.split_on_char '\n' deck) in
  let t = Amg_tech.Tech_file.parse_string ~file:"deck.tech" deck_crlf in
  check string "CRLF deck parses to the same technology"
    (Amg_tech.Technology.name (Env.tech e))
    (Amg_tech.Technology.name t)

let test_positioned_errors () =
  (match Amg_tech.Tech_file.parse_string ~file:"bad.tech" "garbage here" with
  | _ -> failf "bad deck accepted"
  | exception Diag.Fail d ->
      check string "tech file recorded" "bad.tech"
        (match d.Diag.span with Some s -> Option.value ~default:"" s.Diag.file | None -> "");
      check int "tech line recorded" 1 (Diag.line_of d));
  match Amg_lang.Parser.parse_program ~file:"bad.amg" "ENT X(\n" with
  | _ -> failf "bad program accepted"
  | exception Diag.Fail d ->
      check string "lang file recorded" "bad.amg"
        (match d.Diag.span with Some s -> Option.value ~default:"" s.Diag.file | None -> "");
      check bool "lang position recorded" true
        (Diag.line_of d >= 1 && Diag.col_of d >= 1)

(* --- fault schedules through the serving daemon --- *)

(* The same contract as [prop_fault_schedule], one layer up: schedules are
   armed per request via the wire protocol's inject spec, so the faults
   fire inside the daemon's request handling.  Every schedule must yield
   either a layout response or a structured diagnostic response — never a
   dropped connection, never a crashed daemon. *)
let test_fault_schedule_served () =
  let module Client = Amg_serve.Client in
  Test_util.with_server @@ fun _t sock ->
  let test =
    QCheck2.Test.make
      ~name:"served fault schedule: layout or diagnostic, never a drop"
      ~print:print_schedule ~count:100 gen_schedule (fun schedule ->
        let req =
          Wire.build ~jobs:1 ~format:Wire.Cif
            ~inject:(print_schedule schedule)
            ~params:[ ("W", Wire.Pnum 10.); ("L", Wire.Pnum 5.) ]
            "Trans"
        in
        match Client.oneshot sock req with
        | Error _ -> false (* dropped connection *)
        | Ok resp ->
            (resp.Wire.status = Wire.status_ok && resp.Wire.payload <> None)
            || resp.Wire.status = Wire.status_diag
               && resp.Wire.diagnostics <> [])
  in
  QCheck2.Test.check_exn test;
  (* and the daemon is still standing afterwards *)
  match Client.oneshot sock (Wire.ping ()) with
  | Ok resp ->
      check int "daemon alive after the drill" Wire.status_ok resp.Wire.status
  | Error e -> failf "daemon dropped after the drill: %s" e

(* --- policy sink --- *)

let test_policy_sink () =
  Policy.reset ();
  check bool "default strict" false (Policy.permissive ());
  Policy.set_mode Policy.Permissive;
  check bool "permissive set" true (Policy.permissive ());
  Policy.report (Diag.v Diag.Compact ~code:"a" "first");
  Policy.report (Diag.v Diag.Compact ~code:"b" "second");
  let drained = Policy.drain () in
  check (list string) "drain order" [ "a"; "b" ]
    (List.map (fun d -> d.Diag.code) drained);
  check int "drain clears" 0 (List.length (Policy.drain ()));
  Policy.reset ();
  check bool "reset back to strict" false (Policy.permissive ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fault_schedule;
    test_case "empty schedule is pure observation" `Quick
      test_empty_schedule_identical;
    test_case "deadline: best-so-far identical for domains 1/2/4" `Quick
      test_deadline_deterministic;
    test_case "max-evals: degraded result identical for domains 1/2/4" `Quick
      test_max_evals_deterministic;
    test_case "unhit budget changes nothing" `Quick test_unhit_budget_is_noop;
    test_case "diag report JSON round-trip" `Quick test_diag_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_diag_json_roundtrip;
    test_case "diag report JSON golden bytes" `Quick test_diag_json_golden;
    test_case "JSON unicode escapes: surrogate pairs, four hex digits" `Quick
      test_json_unicode_escapes;
    test_case "inject spec parsing" `Quick test_parse_spec;
    test_case "probe fires on the scheduled hit" `Quick
      test_probe_fires_on_scheduled_hit;
    test_case "pool map_array_cancel" `Quick test_map_array_cancel;
    test_case "CRLF sources parse" `Quick test_crlf_sources;
    test_case "front-end errors carry file/line/col" `Quick
      test_positioned_errors;
    test_case "policy sink" `Quick test_policy_sink;
    test_case "served fault schedules: response or diagnostic, never a drop"
      `Quick test_fault_schedule_served;
  ]
