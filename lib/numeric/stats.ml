let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    ss /. float_of_int (n - 1)
  end

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else (sorted.(i) *. (1. -. frac)) +. (sorted.(i + 1) *. frac)
  end

let median xs = quantile xs 0.5

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let karp_luby_delta ~trials ~clauses ~eps =
  2. *. exp (-.(float_of_int trials *. eps *. eps) /. (3. *. float_of_int clauses))

let karp_luby_eps ~trials ~clauses ~delta =
  sqrt (3. *. float_of_int clauses *. log (2. /. delta) /. float_of_int trials)

(* [int_of_float] is unspecified past [max_int]: at tiny ε the Chernoff
   count would wrap (to 0 on amd64) and read as "no trials needed". *)
let count_of_float x =
  if x >= Float.of_int max_int then max_int else int_of_float (Float.ceil x)

let saturating_add a b = if a > max_int - b then max_int else a + b

let karp_luby_trials ~clauses ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Stats.karp_luby_trials";
  count_of_float (3. *. float_of_int clauses *. log (2. /. delta) /. (eps *. eps))

let delta' ~eps ~rounds =
  2. *. exp (-.(float_of_int rounds *. eps *. eps) /. 3.)

let rounds_for ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Stats.rounds_for";
  max 1 (int_of_float (Float.ceil (3. *. log (2. /. delta) /. (eps *. eps))))

let theorem_6_7_rounds ~eps0 ~delta ~k ~d ~n =
  if eps0 <= 0. || delta <= 0. then invalid_arg "Stats.theorem_6_7_rounds";
  let kf = float_of_int k and df = float_of_int d and nf = float_of_int n in
  (* ln(2·k·d·n^(k·d)/δ) computed in log space to avoid overflow. *)
  let log_bound = log 2. +. log kf +. log df +. (kf *. df *. log nf) -. log delta in
  max 1 (int_of_float (Float.ceil (3. *. log_bound /. (eps0 *. eps0))))

let independent_or_bound deltas =
  1.
  -. List.fold_left
       (fun acc d -> acc *. (1. -. Float.max 0. (Float.min 1. d)))
       1. deltas

type error_tally = { mutable trials : int; mutable errors : int }

let tally () = { trials = 0; errors = 0 }

let record t ok =
  t.trials <- t.trials + 1;
  if not ok then t.errors <- t.errors + 1

let error_rate t =
  if t.trials = 0 then 0. else float_of_int t.errors /. float_of_int t.trials
