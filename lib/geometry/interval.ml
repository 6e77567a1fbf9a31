type t = { lo : int; hi : int } [@@deriving show { with_path = false }, eq, ord]

type overlap =
  | Disjoint
  | Covers
  | Low_end
  | High_end
  | Inside
[@@deriving show { with_path = false }, eq, ord]

let make lo hi = if lo <= hi then { lo; hi } else { lo = hi; hi = lo }

let length i = i.hi - i.lo

let contains i x = i.lo <= x && x <= i.hi

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let overlaps a b = a.lo < b.hi && b.lo < a.hi

let touches a b = a.lo <= b.hi && b.lo <= a.hi

let hull a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

let translate i d = { lo = i.lo + d; hi = i.hi + d }

let inflate i d = make (i.lo - d) (i.hi + d)

(* Classify how [b] overlaps [a]; this is the per-axis half of the 16-case
   analysis of the paper's Fig. 1 latch-up cover check. *)
let classify ~of_:b ~over:a =
  if b.hi <= a.lo || b.lo >= a.hi then Disjoint
  else if b.lo <= a.lo && b.hi >= a.hi then Covers
  else if b.lo <= a.lo then Low_end
  else if b.hi >= a.hi then High_end
  else Inside

(* Remove [b] from [a]: zero, one or two residual sub-intervals. *)
let subtract a b =
  match classify ~of_:b ~over:a with
  | Disjoint -> [ a ]
  | Covers -> []
  | Low_end -> [ { lo = b.hi; hi = a.hi } ]
  | High_end -> [ { lo = a.lo; hi = b.lo } ]
  | Inside -> [ { lo = a.lo; hi = b.lo }; { lo = b.hi; hi = a.hi } ]
