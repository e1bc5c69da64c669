open Pqdb_montecarlo
module Apred = Pqdb_ast.Apred

type decision = {
  value : bool;
  error_bound : float;
  epsilon : float;
  rounds : int;
  estimator_calls : int;
  estimates : float array;
  hit_round_limit : bool;
  used_floor : bool;
}

let check_args ~delta ~eps0 phi estimators =
  if delta <= 0. then invalid_arg "Predicate_approx: delta must be positive";
  if eps0 <= 0. || eps0 >= 1. then
    invalid_arg "Predicate_approx: eps0 must be in (0, 1)";
  if Apred.arity phi > Array.length estimators then
    invalid_arg "Predicate_approx: not enough estimators for the predicate"

(* Combined error bound over the k values: the Figure-3 sum, or the tighter
   1 - prod(1 - delta_i) of Lemma 5.1's independence remark (Karp-Luby runs
   for different values are independent). *)
let combined_error ~independent estimators ~eps =
  if independent then
    Pqdb_numeric.Stats.independent_or_bound
      (Array.to_list
         (Array.map (fun est -> Estimator.delta_bound est ~eps) estimators))
  else
    Array.fold_left
      (fun acc est -> acc +. Estimator.delta_bound est ~eps)
      0. estimators

let finish ~independent ~value ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit
    estimators =
  {
    value;
    error_bound = Float.min 0.5 (combined_error ~independent estimators ~eps);
    epsilon = eps;
    rounds;
    estimator_calls =
      Array.fold_left (fun acc est -> acc + Estimator.trials est) 0 estimators;
    estimates = Array.map Estimator.estimate estimators;
    hit_round_limit;
    used_floor = eps_phi < eps0;
  }

let decide ?budget ?(eps0 = 0.05) ?max_rounds ?(search_iterations = 40) ?batch
    ?(independent = false) ~rng ~delta phi estimators =
  check_args ~delta ~eps0 phi estimators;
  let epsilon = Epsilon.prepare ~search_iterations phi in
  let total_trials () =
    Array.fold_left (fun acc est -> acc + Estimator.trials est) 0 estimators
  in
  let step est =
    match batch with
    | None -> Estimator.step_round rng est (* |F_i| calls, as in Figure 3 *)
    | Some n -> Estimator.batch rng est n
  in
  let out_of_budget () =
    match budget with
    | Some b -> Pqdb_montecarlo.Budget.exhausted b
    | None -> false
  in
  let rec loop rounds =
    if out_of_budget () then begin
      (* Deadline degradation: decide with whatever the accumulated trials
         say and report the error bound actually achieved, reusing the
         round-limit machinery (callers treat these tuples as suspects). *)
      let p_hat = Array.map Estimator.estimate estimators in
      let eps_phi = epsilon p_hat in
      let eps = Float.max eps0 eps_phi in
      finish ~independent
        ~value:(Apred.eval p_hat phi)
        ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:true estimators
    end
    else begin
      let before = total_trials () in
      Array.iter step estimators;
      (match budget with
      | Some b -> Pqdb_montecarlo.Budget.spend b (total_trials () - before)
      | None -> ());
      let rounds = rounds + 1 in
      let p_hat = Array.map Estimator.estimate estimators in
      (* ε := max(ε₀, ε_ψ(p̂)) with ψ = φ or ¬φ as evaluated at p̂; the
         truth-directed ε computation covers both cases. *)
      let eps_phi = epsilon p_hat in
      let eps = Float.max eps0 eps_phi in
      if combined_error ~independent estimators ~eps <= delta then
        finish ~independent
          ~value:(Apred.eval p_hat phi)
          ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:false estimators
      else begin
        match max_rounds with
        | Some limit when rounds >= limit ->
            finish ~independent
              ~value:(Apred.eval p_hat phi)
              ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:true estimators
        | _ -> loop rounds
      end
    end
  in
  (* Degenerate case: every estimator already exact (trivial DNFs). *)
  if Array.for_all Estimator.is_degenerate estimators then begin
    let p_hat = Array.map Estimator.estimate estimators in
    (* Degenerate estimators are exact: no floor reliance. *)
    finish ~independent
      ~value:(Apred.eval p_hat phi)
      ~eps:eps0 ~eps_phi:Linear_eps.eps_max ~eps0 ~rounds:0
      ~hit_round_limit:false estimators
  end
  else loop 0

let decide_naive ?(eps0 = 0.05) ~rng ~delta phi estimators =
  check_args ~delta ~eps0 phi estimators;
  let k = max 1 (Array.length estimators) in
  let per_value_delta = delta /. float_of_int k in
  Array.iter
    (fun est ->
      let missing = Estimator.trials_to_reach est ~eps:eps0 ~delta:per_value_delta in
      Estimator.batch rng est missing)
    estimators;
  let p_hat = Array.map Estimator.estimate estimators in
  let eps_phi =
    if Array.for_all Estimator.is_degenerate estimators then
      Linear_eps.eps_max
    else Epsilon.epsilon phi p_hat
  in
  finish ~independent:false
    ~value:(Apred.eval p_hat phi)
    ~eps:eps0 ~eps_phi ~eps0 ~rounds:1 ~hit_round_limit:false estimators

(* Generic variant over abstract approximable values (Section 5's claimed
   generality): same loop as Figure 3, but refinement and delta bounds come
   from the Approximable interface, so tuple confidences and online
   aggregates mix freely in one predicate. *)
let decide_values ?(eps0 = 0.05) ?max_rounds ?(search_iterations = 40)
    ?(independent = false) ~rng ~delta phi values =
  if delta <= 0. then invalid_arg "Predicate_approx: delta must be positive";
  if eps0 <= 0. || eps0 >= 1. then
    invalid_arg "Predicate_approx: eps0 must be in (0, 1)";
  if Apred.arity phi > Array.length values then
    invalid_arg "Predicate_approx: not enough approximable values";
  let combined ~eps =
    if independent then
      Pqdb_numeric.Stats.independent_or_bound
        (Array.to_list
           (Array.map (fun v -> Approximable.delta_bound v ~eps) values))
    else
      Array.fold_left
        (fun acc v -> acc +. Approximable.delta_bound v ~eps)
        0. values
  in
  let finish ~value ~eps ~eps_phi ~rounds ~hit_round_limit =
    {
      value;
      error_bound = Float.min 0.5 (combined ~eps);
      epsilon = eps;
      rounds;
      estimator_calls =
        Array.fold_left (fun acc v -> acc + Approximable.steps v) 0 values;
      estimates = Array.map Approximable.estimate values;
      hit_round_limit;
      used_floor = eps_phi < eps0;
    }
  in
  if Array.for_all Approximable.is_exact values then begin
    let p_hat = Array.map Approximable.estimate values in
    finish
      ~value:(Apred.eval p_hat phi)
      ~eps:eps0 ~eps_phi:Linear_eps.eps_max ~rounds:0 ~hit_round_limit:false
  end
  else begin
    let epsilon = Epsilon.prepare ~search_iterations phi in
    let rec loop rounds =
      Array.iter (fun v -> Approximable.refine rng v) values;
      let rounds = rounds + 1 in
      let p_hat = Array.map Approximable.estimate values in
      let eps_phi = epsilon p_hat in
      let eps = Float.max eps0 eps_phi in
      if combined ~eps <= delta then
        finish
          ~value:(Apred.eval p_hat phi)
          ~eps ~eps_phi ~rounds ~hit_round_limit:false
      else begin
        match max_rounds with
        | Some limit when rounds >= limit ->
            finish
              ~value:(Apred.eval p_hat phi)
              ~eps ~eps_phi ~rounds ~hit_round_limit:true
        | _ -> loop rounds
      end
    in
    loop 0
  end
