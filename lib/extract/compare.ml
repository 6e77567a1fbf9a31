(* Layout-versus-schematic comparison.

   Both sides are normalised first: parallel MOS merged, source/drain
   unordered, dummies (gate tied to a terminal) dropped from the layout
   side, bulk ignored.  Devices match on terminal nets; sizes must agree
   within a relative tolerance. *)

module Units = Amg_geometry.Units
module D = Amg_circuit.Device
module Netlist = Amg_circuit.Netlist

type mismatch =
  | Missing_device of string         (* in schematic, not in layout *)
  | Extra_device of string           (* in layout, not in schematic *)
  | Size_mismatch of string * string (* device, detail *)
  | Short of string list
[@@deriving show { with_path = false }, eq]

type result = { matched : int; mismatches : mismatch list }

let clean r = match r.mismatches with [] -> true | _ :: _ -> false

let mos_key polarity l g s d =
  let s, d = if String.compare s d <= 0 then (s, d) else (d, s) in
  Printf.sprintf "%s L=%d %s %s %s"
    (match (polarity : D.mos_polarity) with Pmos -> "P" | Nmos -> "N")
    l g s d

let golden_mos netlist =
  Netlist.mos_devices netlist
  |> List.map (fun (m : D.mos) ->
         ({ Devices.x_polarity = m.D.polarity; x_w = m.D.w; x_l = m.D.l;
            x_g = m.D.g; x_s = m.D.s; x_d = m.D.d }
           : Devices.mos))
  |> Devices.merge_parallel

let describe_mos (m : Devices.mos) =
  Printf.sprintf "%s W=%.1f L=%.1f g=%s s/d=%s/%s"
    (match m.Devices.x_polarity with D.Pmos -> "PMOS" | D.Nmos -> "NMOS")
    (Units.to_um m.Devices.x_w) (Units.to_um m.Devices.x_l) m.Devices.x_g
    m.Devices.x_s m.Devices.x_d

let compare_mos ~tol golden extracted =
  let key (m : Devices.mos) =
    mos_key m.Devices.x_polarity m.Devices.x_l m.Devices.x_g m.Devices.x_s
      m.Devices.x_d
  in
  let ext = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace ext (key m) m) extracted;
  let matched = ref 0 and mismatches = ref [] in
  List.iter
    (fun g ->
      match Hashtbl.find_opt ext (key g) with
      | None -> mismatches := Missing_device (describe_mos g) :: !mismatches
      | Some e ->
          Hashtbl.remove ext (key g);
          let dw =
            Float.abs (float_of_int (e.Devices.x_w - g.Devices.x_w))
            /. float_of_int g.Devices.x_w
          in
          if dw > tol then
            mismatches :=
              Size_mismatch
                ( describe_mos g,
                  Printf.sprintf "layout W=%.1f um vs schematic W=%.1f um"
                    (Units.to_um e.Devices.x_w) (Units.to_um g.Devices.x_w) )
              :: !mismatches
          else incr matched)
    golden;
  Hashtbl.iter
    (fun _ e -> mismatches := Extra_device (describe_mos e) :: !mismatches)
    ext;
  (!matched, !mismatches)

(* Orders on the terminal tuples, at their types. *)
let compare_pair (a, b) (a', b') =
  let c = String.compare a a' in
  if c <> 0 then c else String.compare b b'

let compare_triple (a, b, c) (a', b', c') =
  let k = String.compare a a' in
  if k <> 0 then k else compare_pair (b, c) (b', c')

let compare_terminal_sets ~kind ~compare golden extracted describe =
  (* Unordered terminal matching for two-terminal or three-terminal
     devices represented as string tuples; each golden device consumes at
     most one extracted device (parallel bipolars are distinct).  Both
     lists are sorted by [compare] first. *)
  let golden = List.sort compare golden and extracted = List.sort compare extracted in
  let remove_one x l =
    let rec go acc = function
      | [] -> None
      | y :: tl -> if compare y x = 0 then Some (List.rev_append acc tl) else go (y :: acc) tl
    in
    go [] l
  in
  let remaining = ref extracted in
  let matched = ref 0 and mismatches = ref [] in
  List.iter
    (fun g ->
      match remove_one g !remaining with
      | Some rest ->
          remaining := rest;
          incr matched
      | None ->
          mismatches := Missing_device (kind ^ " " ^ describe g) :: !mismatches)
    golden;
  List.iter
    (fun e -> mismatches := Extra_device (kind ^ " " ^ describe e) :: !mismatches)
    !remaining;
  (!matched, !mismatches)

let run ?(tol = 0.05) ~golden (e : Devices.extracted) =
  let live =
    List.filter (fun m -> not (Devices.is_dummy m)) e.Devices.mosfets
  in
  let m_matched, m_mis = compare_mos ~tol (golden_mos golden) live in
  (* Bipolars: compare unordered (c, b, e) triples. *)
  let golden_bjts =
    Netlist.bjt_devices golden
    |> List.map (fun (q : D.bjt) -> (q.D.c, q.D.bb, q.D.e))
  in
  let b_matched, b_mis =
    compare_terminal_sets ~kind:"NPN" ~compare:compare_triple golden_bjts e.Devices.bjts
      (fun (c, b, em) -> Printf.sprintf "c=%s b=%s e=%s" c b em)
  in
  (* Passives: match on terminal pairs, values within 25%. *)
  let norm_pair a b = if String.compare a b <= 0 then (a, b) else (b, a) in
  let golden_res =
    List.filter_map
      (function D.Res r -> Some (norm_pair r.D.ra r.D.rb) | _ -> None)
      (Netlist.devices golden)
  in
  let r_matched, r_mis =
    compare_terminal_sets ~kind:"RES" ~compare:compare_pair golden_res
      (List.map (fun (a, b, _) -> norm_pair a b) e.Devices.resistors)
      (fun (a, b) -> a ^ "/" ^ b)
  in
  let golden_caps =
    List.filter_map
      (function D.Cap c -> Some (norm_pair c.D.ca c.D.cb) | _ -> None)
      (Netlist.devices golden)
  in
  let c_matched, c_mis =
    compare_terminal_sets ~kind:"CAP" ~compare:compare_pair golden_caps
      (List.map (fun (a, b, _) -> norm_pair a b) e.Devices.capacitors)
      (fun (a, b) -> a ^ "/" ^ b)
  in
  let shorts = List.map (fun nets -> Short nets) e.Devices.short_nets in
  {
    matched = m_matched + b_matched + r_matched + c_matched;
    mismatches = m_mis @ b_mis @ r_mis @ c_mis @ shorts;
  }

let pp_result ppf r =
  if clean r then Fmt.pf ppf "LVS clean: %d devices matched@." r.matched
  else begin
    Fmt.pf ppf "LVS: %d matched, %d problems:@." r.matched (List.length r.mismatches);
    List.iter (fun m -> Fmt.pf ppf "  %s@." (show_mismatch m)) r.mismatches
  end
