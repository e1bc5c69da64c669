open Pqdb_numeric

let proposition_6_6 ~k ~d ~n ~eps0 ~rounds =
  let kf = float_of_int k and df = float_of_int d and nf = float_of_int n in
  let log_bound =
    log kf +. log df
    +. (kf *. df *. log nf)
    +. log (Stats.delta' ~eps:eps0 ~rounds)
  in
  Float.min 1. (exp log_bound)

let recurrence ~k ~n ~d ~per_level =
  let nk = float_of_int n ** float_of_int k in
  let rec go acc power i =
    if i >= d then acc else go (acc +. power) (power *. nk) (i + 1)
  in
  Float.min 1. (float_of_int k *. per_level *. go 0. 1. 0)

let rounds_for_guarantee ~k ~d ~n ~eps0 ~delta =
  Stats.theorem_6_7_rounds ~eps0 ~delta ~k ~d ~n
