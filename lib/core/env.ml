module Technology = Amg_tech.Technology
module Rules = Amg_tech.Rules

type t = Technology.t

let create tech = tech

let bicmos () = create (Amg_tech.Bicmos1u.get ())

let tech t = t

let rules t = Technology.rules t

let grid t = Rules.grid (rules t)

exception Rejected of string

let reject fmt = Fmt.kstr (fun m -> raise (Rejected m)) fmt
