(* Design-rule tables.  All distances in nanometres.  Pair-keyed rules
   (spacing) are stored with the key normalised so lookup is symmetric;
   directed rules (enclosure, extension) are stored as given. *)

type t = {
  grid : int;
  mutable latchup_dist : int;
  widths : (string, int) Hashtbl.t;
  spaces : (string * string, int) Hashtbl.t;
  enclosures : (string * string, int) Hashtbl.t;
  extensions : (string * string, int) Hashtbl.t;
  cut_sizes : (string, int) Hashtbl.t;
  cut_spaces : (string, int) Hashtbl.t;
  min_areas : (string, int) Hashtbl.t; (* nm^2 *)
}

let create ?(grid = 50) () =
  {
    grid;
    latchup_dist = 0;
    widths = Hashtbl.create 31;
    spaces = Hashtbl.create 31;
    enclosures = Hashtbl.create 31;
    extensions = Hashtbl.create 31;
    cut_sizes = Hashtbl.create 7;
    cut_spaces = Hashtbl.create 7;
    min_areas = Hashtbl.create 7;
  }

let norm_pair a b = if String.compare a b <= 0 then (a, b) else (b, a)

let set_width t layer d = Hashtbl.replace t.widths layer d
let set_space t a b d = Hashtbl.replace t.spaces (norm_pair a b) d
let set_enclosure t ~outer ~inner d = Hashtbl.replace t.enclosures (outer, inner) d
let set_extension t ~of_ ~past d = Hashtbl.replace t.extensions (of_, past) d
let set_cut_size t layer d = Hashtbl.replace t.cut_sizes layer d
let set_cut_space t layer d = Hashtbl.replace t.cut_spaces layer d
let set_min_area t layer a = Hashtbl.replace t.min_areas layer a
let set_latchup_dist t d = t.latchup_dist <- d

let width t layer =
  Amg_robust.Inject.(probe Rule_lookup);
  match Hashtbl.find_opt t.widths layer with Some d -> d | None -> t.grid

let width_opt t layer = Hashtbl.find_opt t.widths layer

let space t a b =
  Amg_robust.Inject.(probe Rule_lookup);
  Hashtbl.find_opt t.spaces (norm_pair a b)

let space_or_zero t a b =
  match space t a b with Some d -> d | None -> 0

let space_exn t a b =
  match space t a b with
  | Some d -> d
  | None -> Fmt.invalid_arg "Rules.space_exn: no spacing rule %s/%s" a b

let enclosure t ~outer ~inner = Hashtbl.find_opt t.enclosures (outer, inner)

let enclosure_or_zero t ~outer ~inner =
  Option.value ~default:0 (enclosure t ~outer ~inner)

let extension t ~of_ ~past = Hashtbl.find_opt t.extensions (of_, past)

let cut_size t layer =
  match Hashtbl.find_opt t.cut_sizes layer with
  | Some d -> d
  | None -> Fmt.invalid_arg "Rules.cut_size: %s is not a cut layer" layer

let cut_size_opt t layer = Hashtbl.find_opt t.cut_sizes layer

let cut_space t layer =
  match Hashtbl.find_opt t.cut_spaces layer with
  | Some d -> d
  | None -> width t layer

let latchup_dist t = t.latchup_dist
let grid t = t.grid

(* Layers that must enclose [inner], with their margins: every (outer, d)
   rule whose inner component is [inner]. *)
let enclosing_layers t ~inner =
  Hashtbl.fold
    (fun (o, i) d acc -> if String.equal i inner then (o, d) :: acc else acc)
    t.enclosures []
  |> List.sort (fun (o1, d1) (o2, d2) ->
         match String.compare o1 o2 with 0 -> Int.compare d1 d2 | c -> c)

let iter_widths t f = Hashtbl.iter f t.widths
let iter_spaces t f = Hashtbl.iter (fun (a, b) d -> f a b d) t.spaces
let iter_enclosures t f = Hashtbl.iter (fun (o, i) d -> f ~outer:o ~inner:i d) t.enclosures
let iter_extensions t f = Hashtbl.iter (fun (o, p) d -> f ~of_:o ~past:p d) t.extensions
let iter_cut_sizes t f = Hashtbl.iter f t.cut_sizes
let iter_cut_spaces t f = Hashtbl.iter f t.cut_spaces
let min_area t layer = Hashtbl.find_opt t.min_areas layer
let iter_min_areas t f = Hashtbl.iter f t.min_areas
