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
   to their union-find roots shows up here. *)

module Units = Amg_geometry.Units
module Env = Amg_core.Env
module Lobj = Amg_layout.Lobj
module M = Amg_modules
module Checker = Amg_drc.Checker
module Violation = Amg_drc.Violation

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
  drc_reports ()
