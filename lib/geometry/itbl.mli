(** Hash tables keyed by integers (shape ids, piece indices, bin numbers),
    hashing a key to itself instead of through the polymorphic hash. *)

include Hashtbl.S with type key = int
