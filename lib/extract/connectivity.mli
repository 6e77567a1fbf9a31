(** Electrical connectivity extraction from a layout object.

    Diffusion is split by gate crossings (the channel interrupts it) and
    resistor bodies under [resmark] do not conduct; same-layer touching
    pieces merge, and contact/via cuts merge their overlapped pieces across
    layers. *)

type piece = {
  p_layer : string;
  p_rect : Amg_geometry.Rect.t;
  p_net : string option;
  p_src : int;
  p_conducting : bool;
}

type t

val build : tech:Amg_tech.Technology.t -> Amg_layout.Lobj.t -> t

val pieces : t -> piece array
(** Every piece, conducting or not, by piece index (the order shapes
    were split in).  Read-only. *)

val find : t -> int -> int
(** Union-find root of a piece index. *)

val node_at : t -> layer:string -> x:int -> y:int -> int option
(** The node of the conducting piece covering a point on a layer
    (rectangles are closed, so edges and corners count), or [None].
    Served by the build's per-layer piece index; when several
    conducting pieces cover the point, the lowest-index one answers,
    as a scan of the pieces in index order would. *)

val net_name : t -> int -> string
(** The node's user net label, a ["a+b"] conflict marker, or ["n<id>"]. *)

val labeled_nets : t -> string list
(** All user net labels present in the layout (synthetic node names never
    appear here). *)

val shorts : t -> string list list
(** Label sets of nodes that carry more than one distinct user label. *)

val label_components : t -> string -> (string * Amg_geometry.Rect.t) list list
(** The connected components carrying the label, as (layer, rect) piece
    lists — for connectivity-repair passes. *)

val label_node_count : t -> string -> int
(** Number of distinct nodes carrying the label: 1 = physically one net. *)

val net_wirelength_um : t -> string -> float
(** Half-perimeter wirelength of a user net in micrometres: every node
    carrying the label contributes width + height of the hull of all its
    conducting pieces (labelled or not); a label-only multi-node net sums
    its islands.  0. when the label appears nowhere. *)

val node_count : t -> int
