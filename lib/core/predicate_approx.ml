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

let finish ~independent ~value ~eps ~used_floor ~rounds ~hit_round_limit
    values =
  {
    value;
    error_bound = Float.min 0.5 (combined_error ~independent values ~eps);
    epsilon = eps;
    rounds;
    estimator_calls = total_steps values;
    estimates = Array.map Approximable.estimate values;
    hit_round_limit;
    used_floor;
  }

(* Figure 3 over abstract approximable values (Section 5's claimed
   generality): refinement and delta bounds come from the Approximable
   interface, so tuple confidences and online aggregates mix freely in one
   predicate.  [rounding] is the largest relative distance from an exact
   value's float to its true value (0 when every exact value is exactly
   right): a decision whose ε_φ does not clear it may be wrong, so it is
   flagged [used_floor] like one that leans on ε₀. *)
let figure_3 ?budget ?(eps0 = 0.05) ?max_rounds ?(search_iterations = 40)
    ?batch ?(independent = false) ~rounding ~rng ~delta phi values =
  check_args ?batch ~delta ~eps0 phi values;
  let epsilon = Epsilon.prepare ~search_iterations phi in
  let rounded eps_phi = rounding > 0. && eps_phi <= rounding in
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
          ~eps ~used_floor:(eps_phi < eps0 || rounded eps_phi) ~rounds
          ~hit_round_limit:true values
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
        let used_floor = eps_phi < eps0 || rounded eps_phi in
        if combined_error ~independent values ~eps <= delta then
          finish ~independent
            ~value:(Apred.eval p_hat phi)
            ~eps ~used_floor ~rounds ~hit_round_limit:false values
        else begin
          match max_rounds with
          | Some limit when rounds >= limit ->
              finish ~independent
                ~value:(Apred.eval p_hat phi)
                ~eps ~used_floor ~rounds ~hit_round_limit:true values
          | _ -> loop rounds
        end
  in
  (* Every value exact: no round, no error.  Exact values need no ε₀
     floor, but floats that are only rounded need ε_φ to clear their
     rounding. *)
  if Array.for_all Approximable.is_exact values then begin
    estimate ();
    finish ~independent
      ~value:(Apred.eval p_hat phi)
      ~eps:eps0
      ~used_floor:(rounding > 0. && epsilon p_hat <= rounding)
      ~rounds:0
      ~hit_round_limit:false values
  end
  else loop 0

let decide_values ?budget ?eps0 ?max_rounds ?search_iterations ?batch
    ?independent ~rng ~delta phi values =
  figure_3 ?budget ?eps0 ?max_rounds ?search_iterations ?batch ?independent
    ~rounding:0. ~rng ~delta phi values

(* The relative distance from a compiled float [p] to the rational value
   it rounds, rounded up: its absolute rounding bound over [p]. *)
let relative_rounding ~abs p =
  if abs = 0. then 0. else if p > 0. then Float.succ (abs /. p) else infinity

let decide ?budget ?eps0 ?max_rounds ?search_iterations ?batch ?independent
    ?(compile_fuel = Compile.default_fuel) ~rng ~delta phi estimators =
  if compile_fuel < 0 then
    invalid_arg "Predicate_approx: compile_fuel must be non-negative";
  let rounding = ref 0. in
  (* Each lineage is compiled once: an exact value enters as a constant
     and its estimator draws nothing; the rest sample as in Figure 3. *)
  let value est =
    if compile_fuel = 0 || Estimator.is_degenerate est then
      Approximable.of_karp_luby est
    else begin
      let dnf = Estimator.dnf est in
      let compiled =
        Compile.of_lineage ~fuel:compile_fuel (Dnf.wtable dnf)
          (Lineage.of_packed (Dnf.packed dnf))
      in
      match Compile.exact_value compiled with
      | None -> Approximable.of_karp_luby est
      | Some p ->
          let abs = Compile.rounding_bound dnf in
          rounding := Float.max !rounding (relative_rounding ~abs p);
          Approximable.constant p
    end
  in
  let values = Array.map value estimators in
  figure_3 ?budget ?eps0 ?max_rounds ?search_iterations ?batch ?independent
    ~rounding:!rounding ~rng ~delta phi values

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
    ~eps:eps0 ~used_floor:(eps_phi < eps0) ~rounds:1 ~hit_round_limit:false
    (Array.map Approximable.of_karp_luby estimators)
