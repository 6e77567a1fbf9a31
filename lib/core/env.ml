module Technology = Amg_tech.Technology
module Rules = Amg_tech.Rules

type t = { tech : Technology.t; stamp : int }

(* Process-unique environment stamp: in-memory memo keys are scoped by it,
   so entries can never leak between environments (tenants, or different
   technology decks that build different geometry from the same source). *)
let next_stamp = Atomic.make 0

let create tech = { tech; stamp = Atomic.fetch_and_add next_stamp 1 }

let bicmos () = create (Amg_tech.Bicmos1u.get ())

let tech t = t.tech

let stamp t = t.stamp

let rules t = Technology.rules t.tech

let grid t = Rules.grid (rules t)

let um = Amg_geometry.Units.of_um

exception Rejected of string

let reject fmt = Fmt.kstr (fun m -> raise (Rejected m)) fmt
