open Pqdb_numeric

type partial = {
  p_estimate : float;
  p_lo : float;
  p_hi : float;
  p_trials : int;
  p_claim : Guarantee.t;
}

let point p =
  { p_estimate = p; p_lo = p; p_hi = p; p_trials = 0; p_claim = Exact }

(* [p̂] certified at relative error [eps] with confidence δ — the standard
   multiplicative inversion p ∈ [p̂/(1+ε), p̂/(1−ε)], clamped to [0, ub]. *)
let certified ~ub ~eps ~delta p n =
  let lo = Float.max 0. (p /. (1. +. eps)) in
  let hi = if eps >= 1. then ub else Float.min ub (p /. (1. -. eps)) in
  { p_estimate = p; p_lo = lo; p_hi = hi; p_trials = n;
    p_claim = Guarantee.pass ~eps ~delta }

(* With few trials the raw estimate (s/n)·M can overshoot its own certified
   interval (even 1); clamp it in — projecting onto the interval never
   increases the error. *)
let clamp p =
  let lo = Float.min p.p_lo p.p_hi in
  { p with p_lo = lo; p_estimate = Float.min p.p_hi (Float.max lo p.p_estimate) }

type stop = Target | Cap | Cut

(* The DKLR stopping rule (Dagum–Karp–Luby–Ross) on the 0/1 Karp–Luby
   estimator: run until the success count reaches Υ₁ = 1 + (1+ε)·4λ·ln(2/δ)/ε²
   (λ = e − 2) and estimate μ̂ = Υ₁/N, so the trial count adapts to the true
   mean μ = p/M instead of its worst case 1/|F|.  [cap] keeps the loop
   bounded: if it is reached first, the answer is the plain sample mean at
   that fixed Chernoff budget.  A [budget] is polled before and charged
   after every trial; when it cuts the loop the estimate is the plain mean
   of the trials spent.  The pass reuses one scratch world for every trial.
   Returns (how it stopped, estimate, trials). *)
let stopping_rule ?budget rng dnf ~eps ~delta ~cap =
  let lambda = Float.exp 1. -. 2. in
  let ups = 4. *. lambda *. log (2. /. delta) /. (eps *. eps) in
  let ups1 = 1. +. ((1. +. eps) *. ups) in
  let target = Stats.count_of_float ups1 in
  let s = ref 0 and n = ref 0 and cut = ref false in
  let world = Dnf.scratch dnf in
  while (not !cut) && !s < target && !n < cap do
    match budget with
    | Some b when Budget.exhausted b -> cut := true
    | _ ->
        s := !s + Dnf.trial rng dnf world;
        incr n;
        Option.iter (fun b -> Budget.spend b 1) budget
  done;
  let m = Dnf.total_weight dnf in
  if !s >= target then (Target, ups1 /. float_of_int !n *. m, !n)
  else
    ( (if !cut then Cut else Cap),
      (if !n = 0 then 0. else float_of_int !s *. m /. float_of_int !n),
      !n )

let adaptive_partial ?budget rng dnf ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Karp_luby.adaptive_partial";
  if Dnf.is_trivially_false dnf then point 0.
  else if Dnf.is_trivially_true dnf then point 1.
  else if Dnf.clause_count dnf = 1 then
    (* The estimator always fires: p = M exactly, no trials needed. *)
    point (Dnf.total_weight dnf)
  else begin
    Pqdb_runtime.Faultpoint.fire "karp_luby.estimator";
    let clauses = Dnf.clause_count dnf in
    let ub = Float.min 1. (Dnf.total_weight dnf) in
    let cap = Stats.karp_luby_trials ~clauses ~eps ~delta in
    clamp
      (match stopping_rule ?budget rng dnf ~eps ~delta ~cap with
      | (Target | Cap), p, n -> certified ~ub ~eps ~delta p n
      | Cut, _, 0 ->
          (* Not one trial fit in the budget: the only sound claim is the
             a-priori interval [0, min(1, M)]. *)
          { p_estimate = 0.; p_lo = 0.; p_hi = ub; p_trials = 0;
            p_claim = Guarantee.Bracket }
      | Cut, p, n ->
          (* Partial trials: the relative error the [n] trials actually
             certify at this δ.  Past 1 the inversion proves nothing, so
             the claim keeps ε′ at failure probability 1. *)
          let eps' = Stats.karp_luby_eps ~trials:n ~clauses ~delta in
          let c = certified ~ub ~eps:eps' ~delta p n in
          if eps' < 1. then c
          else
            { c with
              p_lo = 0.;
              p_claim = Guarantee.Sampled { eps = eps'; delta = 1. } })
  end
