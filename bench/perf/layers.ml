(* Per-layer metrics every workload derives the same way: from the traced
   operations' spans and Obs counters, and from the GC. *)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The busy share of every layer the catalog names ([name ^ "_share"]):
   the time inside its spans over traced operation wall time.  Plus the
   probe counters the compactor, spatial index and region code keep. *)
let of_tracer (tr : Tracer.t) =
  let op = Tracer.layer tr "op" in
  let ops = fi op.Tracer.calls in
  let c name = fi (Tracer.counter tr name) in
  let shares =
    List.filter_map
      (fun (name, (l : Tracer.layer)) ->
        let metric = name ^ "_share" in
        if Catalog.find metric = None then None
        else Some (metric, ratio l.Tracer.total_s op.Tracer.total_s))
      (Tracer.layers tr)
  in
  shares
  @ [
      ("compact.placements", ratio (c "compact.placements") ops);
      ("compact.pairs_per_placement", ratio (c "compact.pairs_considered") (c "compact.placements"));
      ("sindex.hit_ratio", ratio (c "sindex.hits") (c "sindex.scanned"));
      ("compact.span_share", ratio (Tracer.layer tr "compact").Tracer.total_s op.Tracer.total_s);
      ("region.cover_subtractions", ratio (c "region.cover_subtractions") ops);
      ("trace.coverage", Tracer.coverage tr);
    ]

(* GC activity over [ops] operations since [g0]. *)
let gc (g0 : Common.gc_mark) ~ops =
  let g1 = Common.gc_mark () in
  let words_mb w = w *. fi (Sys.word_size / 8) /. 1e6 in
  [
    ("gc.major_collections", ratio (fi (g1.Common.g_major - g0.Common.g_major)) (fi ops));
    ("gc.major_mb_per_op", ratio (words_mb (g1.Common.g_major_words -. g0.Common.g_major_words)) (fi ops));
    ("gc.heap_mb", words_mb (fi g1.Common.g_top));
  ]

(* Tracing overhead from one run.  [samples] are (operation id, work item,
   ms); a work item repeated over the passes is traced in some and not in
   others.  For each item traced both ways, its median traced time over
   its median untraced time; the overhead is the median of those ratios,
   minus 1. *)
let overhead (tr : Tracer.t) samples =
  let items = Hashtbl.create 64 in
  List.iter
    (fun (op, item, ms) ->
      let t, u = Option.value ~default:([], []) (Hashtbl.find_opt items item) in
      Hashtbl.replace items item (if Tracer.traced tr op then (ms :: t, u) else (t, ms :: u)))
    samples;
  let ratios =
    Hashtbl.fold
      (fun _ (t, u) acc ->
        if t = [] || u = [] then acc else (Stats.median t /. Stats.median u) :: acc)
      items []
  in
  if ratios = [] then 0. else Stats.median ratios -. 1.

let prefix_cache () =
  let s = Amg_core.Prefix_cache.stats (Amg_core.Prefix_cache.default ()) in
  let open Amg_core.Prefix_cache in
  [
    ("prefix_cache.hit_ratio", ratio (fi s.hits) (fi (s.hits + s.misses)));
    ("prefix_cache.admit_ratio", ratio (fi s.admitted) (fi (s.admitted + s.rejected)));
    ("prefix_cache.mb", fi s.bytes /. 1e6);
  ]

(* The full per-layer list in catalog order: what the workload measured,
   0 for layers it does not exercise.  Where [measured] names a metric
   twice, the first value wins, so a workload's own definition listed
   before [of_tracer] overrides the generic busy share. *)
let complete measured =
  List.map
    (fun (m : Catalog.metric) ->
      (m.Catalog.name, Option.value ~default:0. (List.assoc_opt m.Catalog.name measured)))
    Catalog.per_layer
