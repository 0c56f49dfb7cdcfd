(* Order statistics used by every metric the benchmark reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] in [n] samples: the smallest
   rank whose share of the sample reaches [p]. Integer arithmetic in
   hundredths of a percent, so 99 of 1000 is rank 990 exactly. *)
let rank n p =
  let cp = int_of_float (Float.round (p *. 100.)) in
  max 1 (min n (((n * cp) + 9999) / 10000))

(* Nearest-rank percentile. *)
let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  (sorted xs).(rank (Array.length xs) p - 1)

(* The highest of the usual reporting percentiles that leaves at least
   [tail] samples above its rank — the highest percentile the sample
   supports. [None] when even the median does not. *)
let supported_percentile ?(tail = 10) n =
  List.find_opt
    (fun p -> n - rank n p >= tail)
    [ 99.99; 99.9; 99.; 95.; 90.; 50. ]

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads this benchmark
   reports are the ones a Python reader recomputes from the same
   values. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Stats.quartiles: empty"
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let iqr_frac xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

let min_max xs =
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (infinity, neg_infinity) xs
