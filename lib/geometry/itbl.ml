(* Integer keys hash to themselves: a lookup then makes no call into the
   runtime's polymorphic hash and compare, which dominate the cost of a
   generic [Hashtbl] lookup in the compactor's candidate loop.  Keys in
   use (shape ids, piece indices, bin numbers) are dense, so the identity
   spreads them evenly over the buckets. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
