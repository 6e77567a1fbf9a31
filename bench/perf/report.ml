(* Result output: the human-readable table, the one-line JSON result, the
   run records [--out] appends and [compare] reads, and BENCHMARK.json. *)

module J = Amg_robust.Diag.Json

let unit_of name =
  match Catalog.find name with Some m -> m.Catalog.unit | None -> "?"

let metrics_json metrics =
  J.Jobj
    (List.map
       (fun (name, v) -> (name, J.Jobj [ ("value", J.Jnum v); ("unit", J.Jstr (unit_of name)) ]))
       metrics)

let result_fields ~correct ~attempted ~failed metrics =
  [
    ("correct", J.Jbool correct);
    ("attempted", J.Jnum (float_of_int attempted));
    ("failed", J.Jnum (float_of_int failed));
    ("metrics", metrics_json metrics);
  ]

(* The last line of a run, the one a harness reads. *)
let result_line ~correct ~attempted ~failed metrics =
  J.to_string (J.Jobj (result_fields ~correct ~attempted ~failed metrics))

(* One line of a run record file: the result plus what produced it. *)
let record_line ~workload ~seed ~seconds ~trace ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Jobj
       ([
          ("workload", J.Jstr workload);
          ("seed", J.Jnum (float_of_int seed));
          ("seconds", J.Jnum seconds);
          ("trace", J.Jbool trace);
        ]
       @ result_fields ~correct ~attempted ~failed metrics))

let append_record path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n"))

let print_metrics metrics =
  List.iter (fun (name, v) -> Printf.printf "  %-30s %16.6g %s\n" name v (unit_of name)) metrics

let print_layer_table (tr : Tracer.t) =
  let op = Tracer.layer tr "op" in
  Printf.printf "  %-22s %8s %12s %12s %12s %8s\n" "layer (self time)" "calls" "total/ms"
    "self/ms" "self/call" "share";
  List.iter
    (fun (name, (l : Tracer.layer)) ->
      Printf.printf "  %-22s %8d %12.3f %12.3f %12.4f %8.4f\n" name l.Tracer.calls
        (l.Tracer.total_s *. 1000.) (l.Tracer.self_s *. 1000.)
        (l.Tracer.self_s *. 1000. /. float_of_int (max 1 l.Tracer.calls))
        (if op.Tracer.total_s > 0. then l.Tracer.self_s /. op.Tracer.total_s else 0.))
    (Tracer.layers tr)

(* --- reading records and BENCHMARK.json ------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

type record = {
  r_workload : string;
  r_trace : bool;
  r_correct : bool;
  r_metrics : (string * float) list;
}

let parse_record line =
  match J.of_string line with
  | Error e -> Error e
  | Ok j -> (
      let metrics =
        match J.member "metrics" j with
        | Some (J.Jobj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.num))
              kvs
        | _ -> []
      in
      let str k = Option.bind (J.member k j) J.str and bool k = Option.bind (J.member k j) J.bool in
      match (str "workload", bool "trace", bool "correct") with
      | Some w, Some t, Some c -> Ok { r_workload = w; r_trace = t; r_correct = c; r_metrics = metrics }
      | _ -> Error "a record needs \"workload\", \"trace\" and \"correct\"")

let read_records path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match parse_record l with
         | Ok r -> r
         | Error e -> failwith (Printf.sprintf "%s: bad record: %s" path e))

type declared = { d_name : string; d_unit : string; d_higher : bool; d_bound : float option }

(* The metric lists of BENCHMARK.json: (end_to_end, per_layer). *)
let read_benchmark path =
  match J.of_string (read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      let list key =
        match J.member key j with
        | Some (J.Jarr xs) ->
            List.map
              (fun x ->
                let str k = Option.bind (J.member k x) J.str in
                match (str "name", str "unit", str "better") with
                | Some d_name, Some d_unit, Some better ->
                    {
                      d_name;
                      d_unit;
                      d_higher = better = "higher";
                      d_bound = Option.bind (J.member "bound" x) J.num;
                    }
                | _ -> failwith (Printf.sprintf "%s: malformed %s entry" path key))
              xs
        | _ -> failwith (Printf.sprintf "%s: missing %s" path key)
      in
      (list "end_to_end", list "per_layer")
