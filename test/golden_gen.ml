(* Golden-file generator: renders the four showcase modules of examples/
   (contact row, diff pair, interdigitated device, common-centroid module E)
   and a 2+2 unit capacitor array (the heaviest user of derived cut arrays:
   thirteen registered arrays, rederived on every placement) to CIF and
   SVG.  `dune runtest` diffs the output against the pinned
   copies under test/golden/; `dune promote` accepts a new baseline.  The
   renders must be byte-stable across runs — any timestamp or iteration-
   order leak in the writers shows up here. *)

module Units = Amg_geometry.Units
module Env = Amg_core.Env
module Lobj = Amg_layout.Lobj
module M = Amg_modules

let um = Units.of_um

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
    modules
