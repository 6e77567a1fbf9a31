(** Closed one-dimensional integer intervals.

    Rectangles are products of two intervals; all the per-axis reasoning of
    the compactor (shadow tests) and of the latch-up cover check (the
    per-axis half of Fig. 1's 16 overlap cases) lives here. *)

type t = { lo : int; hi : int } [@@deriving show, eq, ord]

type overlap =
  | Disjoint   (** no interior overlap *)
  | Covers     (** the other interval covers this one entirely *)
  | Low_end    (** overlap removes the low end, a high residue remains *)
  | High_end   (** overlap removes the high end, a low residue remains *)
  | Inside     (** strictly inside; two residues remain *)
[@@deriving show, eq, ord]

val make : int -> int -> t
(** [make a b] is the interval from [min a b] to [max a b]. *)

val length : t -> int

val contains : t -> int -> bool

val inter : t -> t -> t option
(** Intersection, or [None] when the intervals do not even touch. *)

val overlaps : t -> t -> bool
(** True iff the interiors intersect (touching end-points do not count). *)

val touches : t -> t -> bool
(** True iff the closed intervals intersect (shared end-point counts). *)

val hull : t -> t -> t

val translate : t -> int -> t

val inflate : t -> int -> t
(** Grow by [d] at both ends (shrink when [d < 0]; result is normalised). *)

val classify : of_:t -> over:t -> overlap
(** [classify ~of_:b ~over:a] describes how [b] overlaps [a]. *)

val subtract : t -> t -> t list
(** [subtract a b] is the part of [a] not covered by the open interior of
    [b]: zero, one or two intervals. *)
