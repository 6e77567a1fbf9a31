(** Design-rule tables.

    The generator environment "evaluates and fulfills the design rules
    automatically" (§2.1); every primitive and the compactor query these
    tables.  All distances are nanometres.

    Rule classes:
    - {e width}: minimum width of a shape on a layer;
    - {e space}: minimum spacing between two shapes on the given layer pair
      (symmetric).  Absence of a rule means the layers may overlap freely;
    - {e enclosure}: an [outer]-layer shape must extend past an [inner]-layer
      shape by the margin on all four sides (e.g. metal1 around contact);
    - {e extension}: an [of_]-layer shape must extend past a [past]-layer
      shape along the crossing direction (e.g. poly gate end-cap past
      diffusion);
    - {e cut size/space}: cut layers (contact, via) have a fixed opening size
      and a minimum cut-to-cut pitch;
    - {e latch-up distance}: half-size of the temporary rectangle drawn
      around substrate contacts in the Fig. 1 cover check. *)

type t

val create : ?grid:int -> unit -> t
(** Fresh empty table; [grid] (default 50 nm) is the manufacturing grid and
    the fallback minimum width. *)

val set_width : t -> string -> int -> unit
val set_space : t -> string -> string -> int -> unit
val set_enclosure : t -> outer:string -> inner:string -> int -> unit
val set_extension : t -> of_:string -> past:string -> int -> unit
val set_cut_size : t -> string -> int -> unit
val set_cut_space : t -> string -> int -> unit
val set_latchup_dist : t -> int -> unit

val set_min_area : t -> string -> int -> unit
(** Minimum area of a connected same-layer region, in nm^2. *)

val width : t -> string -> int
(** Minimum width; defaults to the grid when no rule is declared. *)

val width_opt : t -> string -> int option

val space : t -> string -> string -> int option
(** Symmetric spacing rule, [None] when the layers are unconstrained. *)

val space_exn : t -> string -> string -> int

val space_or_zero : t -> string -> string -> int
(** The spacing rule, or 0 for unconstrained pairs.  This is the exact
    candidate margin for spatial-index queries: every relation the
    compactor or checker can derive for the pair (spacing, mergeable
    contact, keep-clear) acts within this distance. *)

val enclosure : t -> outer:string -> inner:string -> int option
val enclosure_or_zero : t -> outer:string -> inner:string -> int

val extension : t -> of_:string -> past:string -> int option

val cut_size : t -> string -> int
(** @raise Invalid_argument when the layer has no cut-size rule. *)

val cut_size_opt : t -> string -> int option
val cut_space : t -> string -> int

val min_area : t -> string -> int option
(** Minimum connected-region area in nm^2, when the deck declares one. *)

val latchup_dist : t -> int
val grid : t -> int

val enclosing_layers : t -> inner:string -> (string * int) list
(** All [(outer, margin)] enclosure rules for the given inner layer, sorted;
    used by primitives that must expand surrounding geometry. *)

val iter_widths : t -> (string -> int -> unit) -> unit
val iter_spaces : t -> (string -> string -> int -> unit) -> unit
val iter_enclosures : t -> (outer:string -> inner:string -> int -> unit) -> unit
val iter_extensions : t -> (of_:string -> past:string -> int -> unit) -> unit
val iter_cut_sizes : t -> (string -> int -> unit) -> unit
val iter_cut_spaces : t -> (string -> int -> unit) -> unit
val iter_min_areas : t -> (string -> int -> unit) -> unit
