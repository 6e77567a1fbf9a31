(** Generator environment: the technology under which modules are built.

    Every primitive takes an environment so the same module source works in
    any technology ("the modules are written in a technology independent
    way", §4). *)

type t

val create : Amg_tech.Technology.t -> t

val bicmos : unit -> t
(** Environment over the built-in generic 1 um BiCMOS deck. *)

val tech : t -> Amg_tech.Technology.t

val stamp : t -> int
(** Process-unique id of this environment, assigned at {!create}.  The
    serving daemon keys its in-memory memo by it, so a build recorded
    under one environment (one tenant) never serves another.  It is not
    restart-stable: durable keys use a deck fingerprint instead. *)
val rules : t -> Amg_tech.Rules.t
val grid : t -> int

val um : float -> int
(** Convenience re-export of {!Amg_geometry.Units.of_um}. *)

exception Rejected of string
(** Raised by a generator when a topology variant cannot satisfy the design
    rules ("If a rule cannot be fulfilled an error message occurs", §2.1);
    the {!Variants} engine backtracks over it. *)

val reject : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Rejected} with a formatted message. *)
