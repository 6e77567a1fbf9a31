(* Order statistics shared by the workloads and by [amgperf compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so the spreads this benchmark
   reports are the ones an external check computes from the same values.
   Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

(* The tail: the highest percentile with at least ten samples beyond it,
   never below the median.  Returns (percentile in %, value, sample
   count). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else
    let rank = min n (max ((n / 2) + 1) (n - 10)) in
    (100. *. float_of_int rank /. float_of_int n, a.(rank - 1), n)

(* Nearest-rank percentile, [p] in %. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
