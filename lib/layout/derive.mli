(** Derived geometry: contact/via arrays computed from their containers.

    Array members are functions of the current container rectangles; after
    the compactor moves a variable edge, the object is "rebuilt
    automatically" (§2.3) by recomputing these. *)

val cut_window :
  Amg_tech.Rules.t ->
  containers:(string * Amg_geometry.Rect.t) list ->
  cut_layer:string ->
  Amg_geometry.Rect.t option
(** Intersection of all containers, each shrunk by its enclosure margin for
    [cut_layer]; [None] when empty, or when a container is narrower than
    twice its margin on either axis. *)

val spread : lo:int -> hi:int -> s:int -> space:int -> int -> (int * int) list
(** [spread ~lo ~hi ~s ~space n] places [n] cuts of size [s] equidistantly
    in [lo, hi], never letting cut-to-cut gaps drop below [space]; returns
    their [(start, stop)] extents. *)

val max_cuts : w:int -> s:int -> space:int -> int
(** Maximum cuts of size [s] at minimum pitch [s + space] fitting in [w]. *)

val cut_array :
  Amg_tech.Rules.t ->
  containers:(string * Amg_geometry.Rect.t) list ->
  cut_layer:string ->
  Amg_geometry.Rect.t list
(** The full array, or [] when not even one cut fits (the ARRAY primitive
    then expands the outer geometries). *)

val min_container_extent :
  Amg_tech.Rules.t -> container_layer:string -> cut_layer:string -> int
(** Smallest per-axis container extent that still admits one cut; the limit
    for variable-edge shrinking of array containers. *)
