(* Thin wrappers binding the compactor to a generator environment, so module
   sources read like the paper's compact(obj, DIR, layer) calls. *)

module Successive = Amg_compact.Successive

let compact env ~into ?ignore_layers ?align ?variable_edges obj dir =
  Successive.compact ~rules:(Env.rules env) ~into ?ignore_layers ?align
    ?variable_edges obj dir
