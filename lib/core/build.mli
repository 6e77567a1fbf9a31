(** Environment-bound compaction, so module sources read like the paper's
    [compact(obj, SOUTH, "poly")] calls. *)

val compact :
  Env.t ->
  into:Amg_layout.Lobj.t ->
  ?ignore_layers:string list ->
  ?align:Amg_compact.Successive.align ->
  ?variable_edges:bool ->
  Amg_layout.Lobj.t ->
  Amg_geometry.Dir.t ->
  unit
