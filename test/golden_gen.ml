(* Golden-file generator: renders the four showcase modules of examples/
   (contact row, diff pair, interdigitated device, common-centroid module E)
   and a 2+2 unit capacitor array (the heaviest user of derived cut arrays:
   thirteen registered arrays, rederived on every placement) to CIF and
   SVG.  `dune runtest` diffs the output against the pinned
   copies under test/golden/; `dune promote` accepts a new baseline.  The
   renders must be byte-stable across runs — any timestamp or iteration-
   order leak in the writers shows up here.

   It also writes drc_reports.txt: the design-rule report of
   [Checker.run], one line per violation in report order, for the
   two-row metal1 contact-row pack (whose contacts have no landing layer)
   and for 20 seeded dirty layouts per deck.  Report order includes the
   hash-table iteration of the short and min-area passes, so any change
   to their union-find roots shows up here.  drc_array_reports.txt holds
   the same reports for 20 seeded dirty layouts with cut arrays per deck
   ([Dirty_layout.seeded_arrays]), so a change to how the checker treats
   array cuts shows up there.

   And it writes module_digests.txt: one line per (module class, deck,
   parameter cell) over a small grid of every library module class the
   signoff_library benchmark builds, in both decks (the capacitor array
   in the BiCMOS deck only), plus the routed amplifier and the OTA.  Each
   line holds the MD5 of the module's CIF and its design-rule violation
   count (the geometric checks for a module, every check for the two
   circuits), so any change to the bytes of any library module shows up
   here without pinning whole CIF files.

   Over the same grid it writes extract_digests.txt: per line the MD5 of
   the extracted device list ([Devices.pp_extracted]), the number of
   connectivity nodes, the number of extracted shorts and the MD5 of
   every piece's union-find root in piece order.  Synthetic node names
   ("n<root>") appear in the device list; the root digest also pins the
   roots of labelled nodes, so any change to the extractor's union order
   shows up here.

   And it writes search_digests.txt: one line per (pack, W, L, search
   mode) over contact-row packs of the search benchmarks' shape — local
   search on 8- and 10-row packs, bb and orders on 6-row packs, and all
   three on a 6-row pack whose rows share two nets, so auto-connection
   runs inside the search.  Each line holds the winning order (step
   indices), its rating, the search's cost and the MD5 of the winner's
   CIF, so a compactor change that claims identical search results must
   leave it unchanged. *)

module Units = Amg_geometry.Units
module Env = Amg_core.Env
module Lobj = Amg_layout.Lobj
module M = Amg_modules
module Checker = Amg_drc.Checker
module Violation = Amg_drc.Violation
module X = Amg_extract

let um = Units.of_um

(* Two rows of the benchmark packs' [ContactRow(layer = "metal1")]. *)
let pack2 =
  "ENT Pack2(<W>, <L>)\n\
  \  x0 = ContactRow(layer = \"metal1\", W = W, L = L, net = \"n0\")\n\
  \  compact(x0, SOUTH, align = \"MIN\")\n\
  \  x1 = ContactRow(layer = \"metal1\", W = W + 12, L = L, net = \"n1\")\n\
  \  compact(x1, WEST, align = \"MIN\")\n"

let drc_reports () =
  let oc = open_out "drc_reports.txt" in
  let ppf = Format.formatter_of_out_channel oc in
  let report name ?checks ~tech obj =
    Format.fprintf ppf "== %s@.%a" name Violation.pp_report (Checker.run ?checks ~tech obj)
  in
  let env = Env.bicmos () in
  report "Pack2 metal1 W=12 L=3.5 (widths, spacings, enclosures, extensions)"
    ~checks:Checker.[ Widths; Spacings; Enclosures; Extensions ]
    ~tech:(Env.tech env)
    (Amg_lang.Interp.parse_and_build env (pack2 ^ Amg_lang.Stdlib.all) "Pack2"
       [ ("W", Amg_lang.Value.Num 12.); ("L", Amg_lang.Value.Num 3.5) ]);
  List.iter
    (fun (deck, tech, layers) ->
      for seed = 1 to 20 do
        report (Printf.sprintf "%s dirty layout %d" deck seed) ~tech
          (Dirty_layout.seeded layers seed)
      done)
    [ ("bicmos1u", Amg_tech.Bicmos1u.get (), Dirty_layout.bicmos_layers);
      ("cmos08", Amg_tech.Cmos08.get (), Dirty_layout.cmos08_layers) ];
  close_out oc

let drc_array_reports () =
  let oc = open_out "drc_array_reports.txt" in
  let ppf = Format.formatter_of_out_channel oc in
  List.iter
    (fun (deck, tech, layers) ->
      for seed = 1 to 20 do
        Format.fprintf ppf "== %s array layout %d@.%a" deck seed Violation.pp_report
          (Checker.run ~tech
             (Dirty_layout.seeded_arrays (Amg_tech.Technology.rules tech) layers seed))
      done)
    [ ("bicmos1u", Amg_tech.Bicmos1u.get (), Dirty_layout.bicmos_layers);
      ("cmos08", Amg_tech.Cmos08.get (), Dirty_layout.cmos08_layers) ];
  close_out oc

let module_digests () =
  let oc = open_out "module_digests.txt" in
  let xc = open_out "extract_digests.txt" in
  let decks = Module_grid.decks () in
  let bicmos = List.assoc "bicmos1u" decks in
  let line cls deck cell ?checks env obj =
    let tech = Env.tech env in
    Printf.fprintf oc "%s %s %s %s %d\n" cls deck cell
      (Digest.to_hex (Digest.string (Amg_layout.Cif.of_lobj ~tech obj)))
      (List.length (Checker.run ?checks ~tech obj));
    let ex = X.Devices.extract ~tech obj in
    let conn = X.Connectivity.build ~tech obj in
    let roots =
      List.init (Array.length (X.Connectivity.pieces conn)) (fun i ->
          string_of_int (X.Connectivity.find conn i))
    in
    Printf.fprintf xc "%s %s %s %s %d %d %s\n" cls deck cell
      (Digest.to_hex (Digest.string (Format.asprintf "%a" X.Devices.pp_extracted ex)))
      (X.Connectivity.node_count conn)
      (List.length ex.X.Devices.short_nets)
      (Digest.to_hex (Digest.string (String.concat "," roots)))
  in
  let geometric = Checker.[ Widths; Spacings; Enclosures; Extensions ] in
  List.iter
    (fun (deck, env) ->
      List.iter
        (fun (cls, cells) ->
          List.iter (fun (cell, build) -> line cls deck cell ~checks:geometric env (build ())) cells)
        (Module_grid.classes env))
    decks;
  List.iter
    (fun cell ->
      line "cap_array" "bicmos1u" (Module_grid.cap_array_cell cell) ~checks:geometric bicmos
        (Module_grid.cap_array bicmos cell))
    Module_grid.cap_arrays;
  line "amplifier" "bicmos1u" "fig9" bicmos (Amg_amplifier.Amplifier.build bicmos).obj;
  line "ota" "bicmos1u" "5t" bicmos (Amg_amplifier.Ota.build bicmos).obj;
  close_out oc;
  close_out xc

(* An n-row pack as the search benchmarks build it: metal1 contact rows of
   widths W, W+12, W+24, W+36 (cycling), alternating SOUTH/WEST, each row
   on its own net, or with [shared] on net [n<i mod 2>]. *)
let pack_source ?(shared = false) name n =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "ENT %s(<W>, <L>)\n" name);
  for i = 0 to n - 1 do
    let w = match i mod 4 * 12 with 0 -> "W" | off -> Printf.sprintf "W + %d" off in
    Buffer.add_string b
      (Printf.sprintf "  x%d = ContactRow(layer = \"metal1\", W = %s, L = L, net = \"n%d\")\n"
         i w (if shared then i mod 2 else i));
    Buffer.add_string b
      (Printf.sprintf "  compact(x%d, %s, align = \"MIN\")\n" i
         (if i mod 2 = 0 then "SOUTH" else "WEST"))
  done;
  Buffer.contents b

let search_digests () =
  let oc = open_out "search_digests.txt" in
  let env = Env.bicmos () in
  let tech = Env.tech env in
  let program =
    Amg_lang.Parser.parse_program
      (String.concat ""
         [
           pack_source "Pack6" 6;
           pack_source "Pack8" 8;
           pack_source "Pack10" 10;
           pack_source ~shared:true "Shared6" 6;
           Amg_lang.Stdlib.all;
         ])
  in
  let line pack (w, l) mode =
    let args = [ ("W", Amg_lang.Value.Num w); ("L", Amg_lang.Value.Num l) ] in
    match Amg_lang.Interp.build_recorded env program pack args with
    | _, Error why -> failwith (Printf.sprintf "%s(W=%g, L=%g): %s" pack w l why)
    | _, Ok { Amg_lang.Interp.base; steps } ->
        let obj, rating, order, cost =
          Amg_core.Optimize.search env ~name:pack ~base ~domains:1 mode steps
        in
        let index s =
          let rec go i = function
            | [] -> -1
            | s' :: rest -> if s' == s then i else go (i + 1) rest
          in
          string_of_int (go 0 steps)
        in
        Printf.fprintf oc "%s W=%g L=%g %s order=%s rating=%.6f cost=%d %s\n" pack w l
          (Amg_robust.Wire.opt_to_string mode)
          (String.concat "," (List.map index order))
          rating cost
          (Digest.to_hex (Digest.string (Amg_layout.Cif.of_lobj ~tech obj)))
  in
  let open Amg_robust.Wire in
  List.iter
    (fun (pack, cells, modes) ->
      List.iter (fun cell -> List.iter (line pack cell) modes) cells)
    [
      ("Pack8", [ (10., 3.); (12.5, 3.5); (14.75, 4.) ], [ Local ]);
      ("Pack10", [ (11., 3.); (13.25, 3.5); (16., 4.) ], [ Local ]);
      ("Pack6", [ (10., 4.); (12.5, 3.) ], [ Bb; Orders ]);
      ("Shared6", [ (11., 3.5) ], [ Local; Bb; Orders ]);
    ];
  close_out oc

let () =
  let env = Env.bicmos () in
  let tech = Env.tech env in
  let modules =
    [
      ("contact_row",
       fun () -> M.Contact_row.make env ~layer:"poly" ~l:(um 8.) ());
      ("diff_pair",
       fun () ->
         M.Diff_pair.make env ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.)
           ~well:false ());
      ("interdigitated",
       fun () ->
         M.Interdigitated.make env ~polarity:M.Mosfet.Nmos ~w:(um 8.)
           ~l:(um 2.) ~fingers:4 ());
      ("common_centroid",
       fun () ->
         M.Common_centroid.make env ~polarity:M.Mosfet.Pmos ~w:(um 8.)
           ~l:(um 1.6) ());
      ("cap_array",
       fun () ->
         fst
           (M.Cap_array.make env ~unit_ff:70. ~units_a:2 ~units_b:2
              ~dummies:true ()));
    ]
  in
  List.iter
    (fun (name, build) ->
      let obj = build () in
      Amg_layout.Cif.save ~tech obj (name ^ ".cif");
      Amg_layout.Svg.save ~tech obj (name ^ ".svg"))
    modules;
  drc_reports ();
  drc_array_reports ();
  module_digests ();
  search_digests ()
