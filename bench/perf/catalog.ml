(* Every metric the benchmark reports: name, unit, direction.  BENCHMARK.json
   declares the same list (with the end-to-end bounds); the smoke test
   checks that the two agree.  serve_mix, which BENCHMARK.json does not
   declare, prints its serving layer's numbers in its notes instead.

   Every workload reports every metric.  End-to-end metrics are defined
   per workload (see README.md for what "op" and "side op" are in each);
   a per-layer metric of a layer the workload does not exercise reads 0.
   Per-layer times are shares of the traced operations' wall time, so the
   per-layer list carries no time unit that could read a constant 0. *)

type metric = { name : string; unit : string; higher_is_better : bool }

let m ?(higher = false) name unit = { name; unit; higher_is_better = higher }

let end_to_end =
  [
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m ~higher:true "ops_per_s" "1/s";
    m "op_p50_ms" "ms";
    m "op_tail_ms" "ms";
    m "side_p50_ms" "ms";
    m "rating_ratio" "ratio";
    m ~higher:true "success_ratio" "ratio";
  ]

let per_layer =
  [
    (* geometry and compact *)
    m "compact.placements" "count/op";
    m "compact.pairs_per_placement" "ratio";
    m ~higher:true "sindex.hit_ratio" "ratio";
    m "compact.span_share" "ratio";
    (* modules and lang *)
    m "modules.build_share" "ratio";
    m "lang.build_share" "ratio";
    m "amplifier.build_share" "ratio";
    (* drc and extract *)
    m "drc.check_share" "ratio";
    m "region.cover_subtractions" "count/op";
    m "extract.devices_share" "ratio";
    m "extract.compare_share" "ratio";
    (* layout *)
    m "layout.cif_share" "ratio";
    (* optimize *)
    m "optimize.local_share" "ratio";
    m "optimize.evals" "count/op";
    m "optimize.eval_growth" "ratio";
    m "optimize.apply_share" "ratio";
    m "rating.rate_share" "ratio";
    m "optimize.rating_ratio" "ratio";
    (* prefix cache *)
    m ~higher:true "prefix_cache.hit_ratio" "ratio";
    m "prefix_cache.admit_ratio" "ratio";
    m "prefix_cache.mb" "MB";
    (* runtime *)
    m "gc.major_collections" "count/op";
    m "gc.major_mb_per_op" "MB/op";
    m "gc.heap_mb" "MB";
    (* sweep and store *)
    m ~higher:true "sweep.warm_speedup" "ratio";
    m ~higher:true "store.hit_ratio" "ratio";
    m ~higher:true "optimize.store_hits" "count/op";
    m "store.open_share" "ratio";
    m "store.writes" "count/op";
    m "store.log_kb" "KB";
    (* tracing *)
    m ~higher:true "trace.coverage" "ratio";
    m "trace.overhead" "ratio";
  ]

let find name =
  List.find_opt (fun x -> String.equal x.name name) (end_to_end @ per_layer)
