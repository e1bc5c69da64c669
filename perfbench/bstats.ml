(* Order statistics and the deterministic request mix of the benchmark.
   Pure functions over float arrays; nothing here touches pqdb. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bstats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the method of Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the spread a run prints is the one
   its reader recomputes from the same values. *)
let quartiles xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bstats.quartiles: no samples";
  if n = 1 then (xs.(0), xs.(0), xs.(0))
  else
    let a = sorted xs in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  The epsilon keeps 99.9% of 10000 at rank 9990
   despite float rounding. *)
let rank n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bstats.percentile: no samples";
  (sorted xs).(rank n p - 1)

(* The highest percentile, capped at p95, that leaves at least ten
   samples above its rank: p = 100 (n - 10) / n below the cap.  It moves smoothly with n, so runs of slightly different
   lengths report comparable tails; the cap keeps it off the last handful
   of samples, which on a shared host are mostly interference.  [None]
   when n <= 10. *)
let tail_percentile n =
  if n <= 10 then None
  else Some (Float.min 95. (100. *. float_of_int (n - 10) /. float_of_int n))

(* Zipf(s) ranks in [0, k): rank r is drawn with weight 1/(r+1)^s.  A pure
   function of [seed]: the request mix of a serve run is fixed by it. *)
let zipf_sequence ~seed ~k ~s ~len =
  if k < 1 then invalid_arg "Bstats.zipf_sequence: k must be >= 1";
  let cdf = Array.make k 0. in
  let total = ref 0. in
  for r = 0 to k - 1 do
    total := !total +. (1. /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !total
  done;
  let st = Random.State.make [| 0x5eed; seed |] in
  Array.init len (fun _ ->
      let u = Random.State.float st !total in
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) > u then find lo mid else find (mid + 1) hi
      in
      find 0 (k - 1))
