(* The search workloads' module: an n-row contact-row pack in the layout
   language.  Row widths cycle W, W+12, W+24, W+36 um (the language has
   no modulo, so the cycle is unrolled here) and the compaction direction
   alternates SOUTH/WEST, so the packed object grows on both axes and the
   compaction order matters. *)

module Optimize = Amg_core.Optimize
module Rating = Amg_core.Rating

let entity n = Printf.sprintf "Pack%d" n

let source n =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "ENT %s(<W>, <L>)\n" (entity n));
  for i = 0 to n - 1 do
    let w = match i mod 4 * 12 with 0 -> "W" | off -> Printf.sprintf "W + %d" off in
    Buffer.add_string b
      (Printf.sprintf
         "  x%d = ContactRow(layer = \"metal1\", W = %s, L = L, net = \"n%d\")\n" i w i);
    Buffer.add_string b
      (Printf.sprintf "  compact(x%d, %s, align = \"MIN\")\n" i
         (if i mod 2 = 0 then "SOUTH" else "WEST"))
  done;
  Buffer.contents b

(* A library of packs plus the built-in entities. *)
let library ns = String.concat "" (List.map source ns) ^ Amg_lang.Stdlib.all

(* The (W, L) cells a workload draws its packs from: W is a band's lower
   edge plus a quarter-micron step inside the band. *)
type grid = { rows : int; w_bands : float list; ls : float list }

let search_grid = { rows = 10; w_bands = [ 10.; 11.; 12.; 13.; 14.; 15.; 16. ]; ls = [ 3.; 3.5; 4. ] }
let sweep_grid = { rows = 8; w_bands = [ 10.; 11.; 12.; 13.; 14. ]; ls = [ 3.; 3.5; 4. ] }
let serve_cold_grid = { rows = 10; w_bands = [ 11.; 12.; 13.; 14. ]; ls = [ 5. ] }

let cells g =
  List.concat_map
    (fun band ->
      List.concat_map (fun k -> List.map (fun l -> (band +. (0.25 *. float_of_int k), l)) g.ls)
        [ 0; 1; 2; 3 ])
    g.w_bands

(* Seeded (W, L) draws, stratified: every stretch of draws covers each
   (W band, L) pair once in a seeded order, at a quarter-micron step
   inside the band.  A pair's first step is seeded and each later stretch
   takes the next step, so a pair drawn more than once lands on different
   steps.  Search cost depends strongly on both W and L, and a plain
   uniform draw would move the median from seed to seed. *)
let draws st ~w_bands ~ls count =
  let pairs = Array.of_list (List.concat_map (fun w -> List.map (fun l -> (w, l)) ls) w_bands) in
  let n = Array.length pairs in
  let first = Array.init n (fun _ -> Random.State.int st 4) in
  let order = Array.init n Fun.id in
  List.init count (fun i ->
      if i mod n = 0 then Common.shuffle st order;
      let p = order.(i mod n) in
      let w, l = pairs.(p) in
      (w +. (0.25 *. float_of_int ((first.(p) + (i / n)) mod 4)), l))

(* A bicmos environment from the deck's source text: the parse a fresh
   process pays (the built-in deck is otherwise parsed once and memoized). *)
let fresh_bicmos () =
  Amg_core.Env.create (Amg_tech.Tech_file.parse_string Amg_tech.Bicmos1u.source)

let canonical_rating env ~rows ~base steps =
  Rating.rate env Rating.default (Optimize.apply ~base env ~name:(entity rows) steps)

(* Search quality as the benchmark reports it: the mean of found rating
   over canonical-order rating across [instances] ((rows, W, L, found,
   canonical)), divided by the same mean of the ratios pinned in [Pinned]
   for those cells.  It reads exactly 1 for every seed while the search
   returns the orders it returned when the table was made; below 1 the
   search finds better orders, above 1 worse.  A cell missing from the
   table fails the run. *)
let rating_ratio ctx instances =
  let pinned (rows, w, l, _, _) = List.assoc_opt (rows, w, l) Pinned.ratios in
  match List.find_opt (fun i -> pinned i = None) instances with
  | Some (rows, w, l, _, _) ->
      Common.check ctx false
        (Printf.sprintf "no pinned rating ratio for %s(W=%g, L=%g)" (entity rows) w l);
      nan
  | None ->
      let found = List.map (fun (_, _, _, f, c) -> f /. c) instances in
      Stats.mean found /. Stats.mean (List.filter_map pinned instances)

(* [amgperf pin]: the source of [Pinned] for every cell of every grid,
   each ratio from a cold local search on one domain. *)
let print_pinned () =
  print_string
    "(* Found over canonical-order rating of every (rows, W, L) cell the\n\
    \   search workloads draw, as the local search on one domain returned\n\
    \   them when this table was made.  Regenerate with\n\
    \   `amgperf pin > bench/perf/pinned.ml` when a workload's grid or pack\n\
    \   changes. *)\n\n\
     let ratios =\n\
    \  [\n";
  let program = Amg_lang.Parser.parse_program (library [ 8; 10 ]) in
  List.iter
    (fun g ->
      List.iter
        (fun (w, l) ->
          let env = fresh_bicmos () in
          let name = entity g.rows in
          let args = [ ("W", Amg_lang.Value.Num w); ("L", Amg_lang.Value.Num l) ] in
          match Amg_lang.Interp.build_recorded env program name args with
          | _, Error why -> failwith (Printf.sprintf "%s(W=%g, L=%g): %s" name w l why)
          | _, Ok { Amg_lang.Interp.base; steps } ->
              let _, found, _, _ = Optimize.optimize_local env ~name ~base ~domains:1 steps in
              let canonical = canonical_rating env ~rows:g.rows ~base steps in
              Printf.printf "    ((%d, %h, %h), %h);\n%!" g.rows w l (found /. canonical))
        (List.sort_uniq compare (cells g)))
    [ search_grid; sweep_grid; serve_cold_grid ];
  print_string "  ]\n"
