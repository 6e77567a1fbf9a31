(* Read-only stub of the removed prefix cache (DESIGN.md §11).  Searches
   build their own prefixes now; nothing in the library, the executables
   or the tests may use this module.  It remains only because the frozen
   per-layer bench (bench/perf/layers.ml) still reads these counters:
   [stats] always returns zeros, which that bench reports as "layer not
   exercised".  Delete it together with those bench rows. *)

type t = unit

type stats = { hits : int; misses : int; admitted : int; rejected : int; bytes : int }

let default () = ()

let stats () = { hits = 0; misses = 0; admitted = 0; rejected = 0; bytes = 0 }
