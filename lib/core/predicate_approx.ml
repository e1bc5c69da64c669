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

let check_args ?batch ~delta ~eps0 phi values =
  if delta <= 0. then invalid_arg "Predicate_approx: delta must be positive";
  if eps0 <= 0. || eps0 >= 1. then
    invalid_arg "Predicate_approx: eps0 must be in (0, 1)";
  (match batch with
  | Some n when n < 1 -> invalid_arg "Predicate_approx: batch must be positive"
  | _ -> ());
  if Apred.arity phi > Array.length values then
    invalid_arg "Predicate_approx: not enough values for the predicate"

(* Combined error bound over the k values: the Figure-3 sum, or the tighter
   1 - prod(1 - delta_i) of Lemma 5.1's independence remark (Karp-Luby runs
   for different values are independent).  Both are folded left to right,
   the independent one exactly as [Stats.independent_or_bound] folds its
   list, without building one. *)
let combined_error ~independent values ~eps =
  let k = Array.length values in
  if independent then begin
    let acc = ref 1. in
    for i = 0 to k - 1 do
      let d = Approximable.delta_bound values.(i) ~eps in
      acc := !acc *. (1. -. Float.max 0. (Float.min 1. d))
    done;
    1. -. !acc
  end
  else begin
    let acc = ref 0. in
    for i = 0 to k - 1 do
      acc := !acc +. Approximable.delta_bound values.(i) ~eps
    done;
    !acc
  end

let total_steps values =
  Array.fold_left (fun acc v -> acc + Approximable.steps v) 0 values

let finish ~independent ~value ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit
    values =
  {
    value;
    error_bound = Float.min 0.5 (combined_error ~independent values ~eps);
    epsilon = eps;
    rounds;
    estimator_calls = total_steps values;
    estimates = Array.map Approximable.estimate values;
    hit_round_limit;
    used_floor = eps_phi < eps0;
  }

(* Figure 3 over abstract approximable values (Section 5's claimed
   generality): refinement and delta bounds come from the Approximable
   interface, so tuple confidences and online aggregates mix freely in one
   predicate.  [decide] is this loop over Karp-Luby estimators. *)
let decide_values ?budget ?(eps0 = 0.05) ?max_rounds ?(search_iterations = 40)
    ?batch ?(independent = false) ~rng ~delta phi values =
  check_args ?batch ~delta ~eps0 phi values;
  let epsilon = Epsilon.prepare ~search_iterations phi in
  let refine v =
    match batch with
    | None -> Approximable.refine rng v (* |F_i| calls, as in Figure 3 *)
    | Some n -> Approximable.refine_by rng v n
  in
  (* One p̂ buffer per decision, refilled every round: [epsilon] and
     [Apred.eval] only read it, and [finish] copies the estimates out. *)
  let p_hat = Array.make (Array.length values) 0. in
  let estimate () =
    for i = 0 to Array.length values - 1 do
      p_hat.(i) <- Approximable.estimate values.(i)
    done
  in
  let rec loop rounds =
    match budget with
    | Some b when Pqdb_montecarlo.Budget.exhausted b ->
        (* Deadline degradation: decide with whatever the accumulated trials
           say and report the error bound actually achieved, reusing the
           round-limit machinery (callers treat these tuples as suspects). *)
        estimate ();
        let eps_phi = epsilon p_hat in
        let eps = Float.max eps0 eps_phi in
        finish ~independent
          ~value:(Apred.eval p_hat phi)
          ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:true values
    | _ ->
        (match budget with
        | Some b ->
            let before = total_steps values in
            Array.iter refine values;
            Pqdb_montecarlo.Budget.spend b (total_steps values - before)
        | None -> Array.iter refine values);
        let rounds = rounds + 1 in
        estimate ();
        (* ε := max(ε₀, ε_ψ(p̂)) with ψ = φ or ¬φ as evaluated at p̂; the
           truth-directed ε computation covers both cases. *)
        let eps_phi = epsilon p_hat in
        let eps = Float.max eps0 eps_phi in
        if combined_error ~independent values ~eps <= delta then
          finish ~independent
            ~value:(Apred.eval p_hat phi)
            ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:false values
        else begin
          match max_rounds with
          | Some limit when rounds >= limit ->
              finish ~independent
                ~value:(Apred.eval p_hat phi)
                ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit:true values
          | _ -> loop rounds
        end
  in
  (* Degenerate case: every value already exact (trivial DNFs). *)
  if Array.for_all Approximable.is_exact values then begin
    estimate ();
    (* Exact values need no floor. *)
    finish ~independent
      ~value:(Apred.eval p_hat phi)
      ~eps:eps0 ~eps_phi:Linear_eps.eps_max ~eps0 ~rounds:0
      ~hit_round_limit:false values
  end
  else loop 0

let decide ?budget ?eps0 ?max_rounds ?search_iterations ?batch ?independent
    ~rng ~delta phi estimators =
  decide_values ?budget ?eps0 ?max_rounds ?search_iterations ?batch
    ?independent ~rng ~delta phi
    (Array.map Approximable.of_karp_luby estimators)

let decide_naive ?(eps0 = 0.05) ~rng ~delta phi estimators =
  check_args ~delta ~eps0 phi estimators;
  let k = max 1 (Array.length estimators) in
  let per_value_delta = Guarantee.split delta k in
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
    ~eps:eps0 ~eps_phi ~eps0 ~rounds:1 ~hit_round_limit:false
    (Array.map Approximable.of_karp_luby estimators)
