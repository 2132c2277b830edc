(* Summary statistics for the benchmark's samples.

   Conventions (shared with bench/support.ml):
   - the median of an even-length sample is its upper middle element;
   - quartiles are the elements at n/4, n/2 and 3n/4 of the sorted sample;
   - a timing is reported as its median plus the highest percentile of
     [tail_candidates] that has at least [min_beyond] samples strictly
     beyond it (nearest-rank), each with its sample count. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: empty sample"
  | _ ->
      let a = sorted xs in
      a.(Array.length a / 2)

let quartiles xs =
  match xs with
  | [] -> invalid_arg "Stats.quartiles: empty sample"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   sample at or below it.  Returns the value and its 1-based rank. *)
let nearest_rank a p =
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
  let rank = min n rank in
  (a.(rank - 1), rank)

let min_beyond = 10
let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

type tail = { t_pct : float; t_value : float; t_beyond : int }

(* The highest candidate percentile with at least [min_beyond] samples
   beyond it, or [None] when the sample is too small for any. *)
let tail_percentile xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      if n = 0 then None
      else
        let v, rank = nearest_rank a p in
        if n - rank >= min_beyond then
          Some { t_pct = p; t_value = v; t_beyond = n - rank }
        else None)
    tail_candidates

(* A fixed percentile, for metrics whose name carries it (p99 latency):
   [None] unless the rule above holds for that percentile. *)
let percentile_if_supported xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let v, rank = nearest_rank a p in
    if n - rank >= min_beyond then Some v else None

(* Failed over attempted; an empty denominator is no failure, not NaN. *)
let failed_frac ~failed ~attempted =
  if attempted <= 0 then 0.0 else float_of_int failed /. float_of_int attempted
