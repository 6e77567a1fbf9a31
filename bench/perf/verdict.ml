(* The rule [amgperf compare] applies to one (metric, workload): the
   regression bound from BENCHMARK.json, and the pairing rule for a gain —
   at least ten alternating pairs, the change winning at least nine tenths
   of them (ties count for neither), and the medians differing by more
   than the parent's interquartile range. *)

type t = Better | Unchanged | Regression | Unresolved

let to_string = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

type row = {
  base_median : float;
  new_median : float;
  worse_by : float;  (** share of the base median the change is worse by *)
  pairs : int;
  wins : int;
  spread : float;  (** the wider side's interquartile range over its median *)
  verdict : t;
}

let judge ~bound ~higher_is_better base news =
  let better a b = if higher_is_better then a > b else a < b in
  let bm = Stats.median base and nm = Stats.median news in
  let worse_by =
    if bm = 0. then if nm = bm then 0. else infinity
    else (if higher_is_better then bm -. nm else nm -. bm) /. Float.abs bm
  in
  let pairs = min (List.length base) (List.length news) in
  let wins =
    List.fold_left2
      (fun acc b n -> if better n b then acc + 1 else acc)
      0
      (List.filteri (fun i _ -> i < pairs) base)
      (List.filteri (fun i _ -> i < pairs) news)
  in
  let spread_of xs = if List.length xs < 2 then infinity else Stats.spread xs in
  let spread = Float.max (spread_of base) (spread_of news) in
  let base_iqr =
    if List.length base < 2 then infinity
    else
      let q1, _, q3 = Stats.quartiles base in
      q3 -. q1
  in
  let all_better = List.for_all (fun n -> List.for_all (better n) base) news in
  let verdict =
    if spread > bound then if all_better && base <> [] then Better else Unresolved
    else if worse_by > bound then Regression
    else if
      pairs >= 10
      && float_of_int wins >= 0.9 *. float_of_int pairs
      && Float.abs (nm -. bm) > base_iqr
    then Better
    else Unchanged
  in
  { base_median = bm; new_median = nm; worse_by; pairs; wins; spread; verdict }
