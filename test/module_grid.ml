(* The grid of library modules that module_digests.txt pins (golden_gen.ml)
   and that the checker's flattened-copy property reads (test_drc.ml):
   every module class the signoff_library benchmark builds, three
   parameter cells each, in both decks; the capacitor array, in the
   BiCMOS deck only, has cells of its own. *)

module Env = Amg_core.Env
module M = Amg_modules

let um = Amg_geometry.Units.of_um

let pol = function M.Mosfet.Pmos -> "pmos" | M.Mosfet.Nmos -> "nmos"

let mos = [ (M.Mosfet.Pmos, 4., 1.6); (M.Mosfet.Nmos, 12., 3.8); (M.Mosfet.Pmos, 20., 6.) ]

let cells f xs = List.map f xs

let classes env =
  [
    ( "contact_row",
      cells
        (fun (layer, w, l) ->
          ( Printf.sprintf "layer=%s,W=%g,L=%g" layer w l,
            fun () -> M.Contact_row.make env ~layer ~w:(um w) ~l:(um l) () ))
        [ ("poly", 2., 2.); ("pdiff", 11., 21.); ("ndiff", 20., 40.) ] );
    ( "diff_pair",
      cells
        (fun (p, w, l) ->
          ( Printf.sprintf "%s,W=%g,L=%g" (pol p) w l,
            fun () -> M.Diff_pair.make env ~polarity:p ~w:(um w) ~l:(um l) () ))
        mos );
    ( "diff_pair_lang",
      cells
        (fun (_, w, l) ->
          ( Printf.sprintf "W=%g,L=%g" w l,
            fun () ->
              Amg_lang.Interp.parse_and_build env Amg_lang.Stdlib.all "DiffPair"
                [ ("W", Amg_lang.Value.Num w); ("L", Amg_lang.Value.Num l) ] ))
        mos );
    ( "interdigitated",
      cells
        (fun ((p, w, l), fingers) ->
          ( Printf.sprintf "%s,W=%g,L=%g,fingers=%d" (pol p) w l fingers,
            fun () ->
              M.Interdigitated.make env ~polarity:p ~w:(um w) ~l:(um l) ~fingers () ))
        (List.combine mos [ 2; 4; 6 ]) );
    ( "mirror_symmetric",
      cells
        (fun (p, w, l) ->
          ( Printf.sprintf "%s,W=%g,L=%g" (pol p) w l,
            fun () -> M.Current_mirror.symmetric env ~polarity:p ~w:(um w) ~l:(um l) () ))
        mos );
    ( "module_e",
      cells
        (fun (p, w, l) ->
          ( Printf.sprintf "%s,W=%g,L=%g" (pol p) w l,
            fun () -> M.Common_centroid.make env ~polarity:p ~w:(um w) ~l:(um l) () ))
        [ (M.Mosfet.Pmos, 6., 1.6); (M.Mosfet.Nmos, 8., 2.2); (M.Mosfet.Pmos, 10., 3.) ] );
    ( "resistor_pair",
      cells
        (fun squares ->
          ( Printf.sprintf "squares=%g" squares,
            fun () -> fst (M.Resistor_pair.make env ~squares ()) ))
        [ 10.; 45.; 80. ] );
    ( "stacked",
      cells
        (fun ((p, w, l), stages) ->
          ( Printf.sprintf "%s,W=%g,L=%g,stages=%d" (pol p) w l stages,
            fun () -> M.Stacked.series env ~polarity:p ~w:(um w) ~l:(um l) ~stages () ))
        (List.combine mos [ 1; 2; 4 ]) );
  ]

(* [(units_a, units_b, unit_ff)] per capacitor-array cell. *)
let cap_arrays = [ (1, 2, 60.); (2, 1, 70.); (2, 2, 80.) ]

let cap_array_cell (units_a, units_b, unit_ff) =
  Printf.sprintf "units=%d+%d,unit_ff=%g" units_a units_b unit_ff

let cap_array env (units_a, units_b, unit_ff) =
  fst (M.Cap_array.make env ~unit_ff ~units_a ~units_b ())

(* The two decks, by name. *)
let decks () =
  [ ("bicmos1u", Env.bicmos ());
    ("cmos08", Env.create (Amg_tech.Tech_file.parse_string Amg_tech.Cmos08.source)) ]
