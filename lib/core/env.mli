(** Generator environment: the technology under which modules are built,
    and nothing else.

    Every primitive takes an environment so the same module source works in
    any technology ("the modules are written in a technology independent
    way", §4).  Caches scope their keys themselves: the serving daemon keys
    its memo by the request's tenant, the result store by a fingerprint of
    the deck. *)

type t

val create : Amg_tech.Technology.t -> t

val bicmos : unit -> t
(** Environment over the built-in generic 1 um BiCMOS deck. *)

val tech : t -> Amg_tech.Technology.t

val rules : t -> Amg_tech.Rules.t
val grid : t -> int

exception Rejected of string
(** Raised by a generator when a topology variant cannot satisfy the design
    rules ("If a rule cannot be fulfilled an error message occurs", §2.1);
    the language's CHOOSE backtracks over it. *)

val reject : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Rejected} with a formatted message. *)
