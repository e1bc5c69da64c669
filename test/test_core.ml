(* Tests for the paper's core machinery (Section 5): Theorem 5.2 closed-form
   ε, Theorem 5.5 corner search, singularities (Definition 5.6) and the
   Figure-3 predicate-approximation algorithm (Theorem 5.8). *)

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
module Apred = Pqdb_ast.Apred
module Q = Rational
module Epsilon = Pqdb.Epsilon
module Linear_eps = Pqdb.Linear_eps
module Orthotope = Pqdb.Orthotope
module Singularity = Pqdb.Singularity
module Predicate_approx = Pqdb.Predicate_approx

(* Proposition 6.6's failure bound on a depth-[d] predicate nesting over [k]
   conf arguments and [n]-tuple inputs, the per-level recurrence it solves,
   and the rounds that make it hold (Theorem 6.7). *)
module Error_bound = struct
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
end

let check = Alcotest.check
let bool_c = Alcotest.bool
let float_c = Alcotest.float

(* ------------------------------------------------------------------ *)
(* Theorem 5.2: closed-form epsilon for linear predicates              *)
(* ------------------------------------------------------------------ *)

(* Example 5.4: φ(x1, x2) = (x1/x2 >= c) as x1 - c*x2 >= 0 with c = 1/2 at
   p̂ = (1/2, 1/2): ε = α/β = (p̂1 - c·p̂2)/(p̂1 + c·p̂2) = 1/3, and the
   orthotope [3/8, 3/4]² touches the hyperplane 2x1 = x2 at (3/8, 3/4). *)
let example_5_4_pred =
  Apred.ge
    (Apred.Sub (Apred.var 0, Apred.Mul (Apred.const 0.5, Apred.var 1)))
    (Apred.const 0.)

let test_example_5_4 () =
  let point = [| 0.5; 0.5 |] in
  let eps = Epsilon.epsilon example_5_4_pred point in
  check (float_c 1e-12) "epsilon = 1/3" (1. /. 3.) eps;
  let o = Interval.orthotope_relative ~eps point in
  check (float_c 1e-12) "x1 lo = 3/8" 0.375 o.(0).Interval.lo;
  check (float_c 1e-12) "x1 hi = 3/4" 0.75 o.(0).Interval.hi;
  (* The touching point (3/8, 3/4) is on the hyperplane 2x1 = x2. *)
  check (float_c 1e-12) "touch point on hyperplane" 0.
    ((2. *. o.(0).Interval.lo) -. o.(1).Interval.hi)

let test_theorem_5_2_nonzero_b () =
  (* x1 >= b with b = 0.4 at p̂1 = 0.5: the interval [p̂/(1+ε), p̂/(1-ε)]
     stays above b iff p̂/(1+ε) >= b, i.e. ε <= p̂/b - 1 = 0.25. *)
  let pred = Apred.ge (Apred.var 0) (Apred.const 0.4) in
  let eps = Epsilon.epsilon pred [| 0.5 |] in
  check (float_c 1e-12) "quadratic-root epsilon" 0.25 eps

let test_theorem_5_2_negative_b () =
  (* x1 - x2 >= -0.2 at (0.3, 0.4): satisfied; formula must give ε in (0,1)
     with all corners of the orthotope satisfying the predicate. *)
  let pred =
    Apred.ge (Apred.Sub (Apred.var 0, Apred.var 1)) (Apred.const (-0.2))
  in
  let point = [| 0.3; 0.4 |] in
  let eps = Epsilon.epsilon pred point in
  check bool_c "positive" true (eps > 0.);
  check bool_c "corners agree just below eps" true
    (Orthotope.corners_agree pred ~point ~eps:(eps *. (1. -. 1e-9)));
  check bool_c "corners fail just above" false
    (Orthotope.corners_agree pred ~point ~eps:(eps *. 1.01))

let test_boundary_gives_zero () =
  (* Remark 5.3: a point on the hyperplane yields ε = 0. *)
  let pred = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  check (float_c 0.) "on boundary" 0. (Epsilon.epsilon pred [| 0.5 |])

let test_equality_atom_zero () =
  (* Example 5.7 / predicate "confidence = 1/2": not approximable. *)
  let pred = Apred.eq (Apred.var 0) (Apred.const 0.5) in
  check (float_c 0.) "equality at satisfied point" 0.
    (Epsilon.epsilon pred [| 0.5 |]);
  (* But a *false* equality away from the line has positive radius. *)
  check bool_c "false equality robust" true
    (Epsilon.epsilon pred [| 0.8 |] > 0.)

let test_constant_predicate () =
  let pred = Apred.ge (Apred.const 1.) (Apred.const 0.) in
  check (float_c 0.) "constant true has max radius" Linear_eps.eps_max
    (Epsilon.epsilon pred [| 0.5 |])

let test_composition_min_max () =
  let a = Apred.ge (Apred.var 0) (Apred.const 0.4) in
  (* ε_a = 0.25 at 0.5 *)
  let b = Apred.ge (Apred.var 0) (Apred.const 0.25) in
  (* ε_b = 1 - clamped: p̂/(1+ε) >= 0.25 iff ε <= 1 -> eps 1-; compute *)
  let pa = Epsilon.epsilon a [| 0.5 |] in
  let pb = Epsilon.epsilon b [| 0.5 |] in
  let both = Epsilon.epsilon (Apred.conj a b) [| 0.5 |] in
  let either = Epsilon.epsilon (Apred.disj a b) [| 0.5 |] in
  check (float_c 1e-12) "conj is min" (Float.min pa pb) both;
  check (float_c 1e-12) "disj is max" (Float.max pa pb) either

let test_mixed_truth_disjunction_sound () =
  (* Or(a, b) with a true near its boundary and b false but very robustly
     false: the sound ε is a's small radius, not b's large one. *)
  let a = Apred.ge (Apred.var 0) (Apred.const 0.49) in
  (* true at 0.5, small radius *)
  let b = Apred.ge (Apred.var 0) (Apred.const 10.) in
  (* false at 0.5, hugely robust *)
  let eps = Epsilon.epsilon (Apred.disj a b) [| 0.5 |] in
  let eps_a = Epsilon.epsilon a [| 0.5 |] in
  check (float_c 1e-12) "disjunction uses the true disjunct" eps_a eps;
  check bool_c "orthotope is homogeneous" true
    (Orthotope.corners_agree (Apred.disj a b) ~point:[| 0.5 |] ~eps)

(* Property: for random linear atoms, the closed form agrees with the corner
   binary search, and random interior samples agree with the center. *)
let random_linear_case =
  QCheck.make
    QCheck.Gen.(
      let coef = float_range (-2.) 2. in
      let pos = float_range 0.1 0.9 in
      map
        (fun (a1, a2, b, p1, p2) -> (a1, a2, b, p1, p2))
        (tup5 coef coef (float_range (-1.) 1.) pos pos))

let prop_linear_matches_search =
  QCheck.Test.make ~name:"Thm 5.2 closed form matches corner search"
    ~count:200 random_linear_case (fun (a1, a2, b, p1, p2) ->
      let pred =
        Apred.ge
          (Apred.Add
             ( Apred.Mul (Apred.const a1, Apred.var 0),
               Apred.Mul (Apred.const a2, Apred.var 1) ))
          (Apred.const b)
      in
      let point = [| p1; p2 |] in
      let closed = Epsilon.epsilon pred point in
      let searched = Orthotope.epsilon_search ~iterations:50 pred point in
      (* Corner search is exact for linear atoms (monotone per variable). *)
      Float.abs (closed -. searched) <= 1e-6 +. (1e-4 *. closed))

let prop_orthotope_homogeneous =
  QCheck.Test.make ~name:"Lemma 5.1 orthotope is homogeneous (sampled)"
    ~count:200 random_linear_case (fun (a1, a2, b, p1, p2) ->
      let pred =
        Apred.ge
          (Apred.Add
             ( Apred.Mul (Apred.const a1, Apred.var 0),
               Apred.Mul (Apred.const a2, Apred.var 1) ))
          (Apred.const b)
      in
      let point = [| p1; p2 |] in
      let eps = Epsilon.epsilon pred point in
      QCheck.assume (eps > 1e-9);
      let rng = Rng.create ~seed:42 in
      Orthotope.homogeneous_on_samples rng pred ~point
        ~eps:(eps *. 0.999) ~samples:100)

(* ------------------------------------------------------------------ *)
(* Theorem 5.5: corner search on non-linear single-occurrence atoms    *)
(* ------------------------------------------------------------------ *)

let ratio_pred c =
  (* x0 / x1 >= c — non-linear as written (division by a variable). *)
  Apred.ge (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const c)

let test_corner_search_ratio () =
  let pred = ratio_pred 0.5 in
  let point = [| 0.5; 0.5 |] in
  let eps = Epsilon.epsilon pred point in
  check bool_c "positive radius" true (eps > 0.);
  check bool_c "corners agree" true (Orthotope.corners_agree pred ~point ~eps);
  let rng = Rng.create ~seed:3 in
  check bool_c "interior homogeneous" true
    (Orthotope.homogeneous_on_samples rng pred ~point ~eps:(eps *. 0.999)
       ~samples:200)

let test_multi_occurrence_rejected () =
  (* x0 * x0 >= 0.25 is non-linear with a repeated variable. *)
  let pred =
    Apred.ge (Apred.Mul (Apred.var 0, Apred.var 0)) (Apred.const 0.25)
  in
  check bool_c "raises Unsupported" true
    (try
       ignore (Epsilon.epsilon pred [| 0.7 |]);
       false
     with Epsilon.Unsupported _ -> true)

let test_split_duplicates () =
  let pred =
    Apred.ge (Apred.Mul (Apred.var 0, Apred.var 0)) (Apred.const 0.25)
  in
  let pred', origin = Epsilon.split_duplicates pred in
  check Alcotest.int "arity grew" 2 (Apred.arity pred');
  check bool_c "now single occurrence" true (Apred.single_occurrence pred');
  check (Alcotest.array Alcotest.int) "origin map" [| 0; 0 |] origin;
  (* And the split predicate is now in the supported fragment. *)
  check bool_c "epsilon computable" true
    (Epsilon.epsilon pred' [| 0.7; 0.7 |] > 0.)

(* ------------------------------------------------------------------ *)
(* Singularities (Definition 5.6)                                      *)
(* ------------------------------------------------------------------ *)

let test_singularity_linear () =
  let pred = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  check bool_c "on boundary: singular" true
    (Singularity.possibly_singular ~eps0:0.05 pred [| 0.5 |]);
  check bool_c "near boundary within eps0: singular" true
    (Singularity.possibly_singular ~eps0:0.05 pred [| 0.51 |]);
  check bool_c "far from boundary: not singular" false
    (Singularity.possibly_singular ~eps0:0.05 pred [| 0.8 |]);
  let rng = Rng.create ~seed:17 in
  check bool_c "definitely singular on boundary" true
    (Singularity.definitely_singular ~rng ~eps0:0.05 pred [| 0.5 |]);
  check bool_c "not flagged far away" false
    (Singularity.definitely_singular ~rng ~eps0:0.05 pred [| 0.8 |])

let test_certainty_test_singular () =
  (* Example 5.7: tuple certainty conf = 1 is always a singularity when the
     true confidence is 1...  relative boxes around 1 include values > 1, and
     the predicate x >= 1 flips below 1. *)
  let pred = Apred.ge (Apred.var 0) (Apred.const 1.) in
  check bool_c "certainty test singular at p=1" true
    (Singularity.possibly_singular ~eps0:0.01 pred [| 1.0 |])

(* ------------------------------------------------------------------ *)
(* Figure 3 (Theorem 5.8)                                              *)
(* ------------------------------------------------------------------ *)

(* One approximable value: P(x=1) with x ~ Bernoulli(p_true), DNF {x=1}. *)
let bernoulli_estimator w p_true =
  let num = int_of_float (Float.round (p_true *. 1000.)) in
  let x = Wtable.add_var w [ Q.of_ints (1000 - num) 1000; Q.of_ints num 1000 ] in
  Estimator.create (Dnf.prepare w [ Assignment.singleton x 1 ])

let test_fig3_decides_correctly () =
  (* conf >= 0.5 with true p = 0.8: over many runs the decision is wrong at
     most δ of the time (plus statistical slack). *)
  let delta = 0.1 in
  let rng = Rng.create ~seed:123 in
  let tally = Stats.tally () in
  for _ = 1 to 200 do
    let w = Wtable.create () in
    let est = bernoulli_estimator w 0.8 in
    let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
    let d =
      Predicate_approx.decide ~compile_fuel:0 ~eps0:0.05 ~rng ~delta phi
        [| est |]
    in
    Stats.record tally (d.value = true);
    assert (d.error_bound <= delta +. 1e-9)
  done;
  let rate = Stats.error_rate tally in
  check bool_c
    (Printf.sprintf "error rate %.3f within delta" rate)
    true
    (rate <= delta +. 0.05)

let test_fig3_terminates_on_boundary () =
  (* True p exactly on the boundary: the ε0 floor still forces termination
     (the answer is unreliable, but the loop must stop). *)
  let rng = Rng.create ~seed:31 in
  let w = Wtable.create () in
  let est = bernoulli_estimator w 0.5 in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let d =
    Predicate_approx.decide ~compile_fuel:0 ~eps0:0.1 ~rng ~delta:0.2 phi
      [| est |]
  in
  check bool_c "terminated" true (d.rounds > 0);
  check bool_c "bound met at eps0" true (d.error_bound <= 0.2 +. 1e-9)

let test_fig3_far_cheaper_than_near () =
  (* The adaptive algorithm spends fewer estimator calls when the true value
     is far from the decision boundary (the E7 claim, smoke-tested). *)
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let calls p seed =
    let rng = Rng.create ~seed in
    let total = ref 0 in
    for _ = 1 to 20 do
      let w = Wtable.create () in
      let est = bernoulli_estimator w p in
      let d =
        Predicate_approx.decide ~compile_fuel:0 ~eps0:0.02 ~rng ~delta:0.1 phi
          [| est |]
      in
      total := !total + d.estimator_calls
    done;
    !total
  in
  let far = calls 0.9 1 and near = calls 0.55 1 in
  check bool_c
    (Printf.sprintf "far (%d) cheaper than near (%d)" far near)
    true (far < near)

let test_fig3_vs_naive () =
  (* Same decision, adaptive at most as many calls as naive when far from
     the boundary. *)
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let rng = Rng.create ~seed:77 in
  let adaptive_calls = ref 0 and naive_calls = ref 0 in
  for _ = 1 to 20 do
    let w = Wtable.create () in
    let est = bernoulli_estimator w 0.9 in
    let d =
      Predicate_approx.decide ~compile_fuel:0 ~eps0:0.02 ~rng ~delta:0.1 phi
        [| est |]
    in
    adaptive_calls := !adaptive_calls + d.estimator_calls;
    let w2 = Wtable.create () in
    let est2 = bernoulli_estimator w2 0.9 in
    let d2 = Predicate_approx.decide_naive ~eps0:0.02 ~rng ~delta:0.1 phi [| est2 |] in
    naive_calls := !naive_calls + d2.estimator_calls;
    check bool_c "same decision" d2.value d.value
  done;
  check bool_c
    (Printf.sprintf "adaptive %d < naive %d" !adaptive_calls !naive_calls)
    true
    (!adaptive_calls < !naive_calls)

let test_fig3_round_limit () =
  let rng = Rng.create ~seed:13 in
  let w = Wtable.create () in
  let est = bernoulli_estimator w 0.5 in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let d =
    Predicate_approx.decide ~compile_fuel:0 ~eps0:0.001 ~max_rounds:3 ~rng
      ~delta:0.001 phi [| est |]
  in
  check bool_c "hit the limit" true d.hit_round_limit;
  check Alcotest.int "stopped at 3 rounds" 3 d.rounds

let test_fig3_two_values_ratio () =
  (* Conditional-probability style predicate x0/x1 <= 0.6 with true values
     p0 = 1/6, p1 = 1/2 (ratio 1/3): decided true reliably. *)
  let rng = Rng.create ~seed:55 in
  let phi =
    Apred.le (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const 0.6)
  in
  let tally = Stats.tally () in
  for _ = 1 to 50 do
    let w = Wtable.create () in
    let e0 = bernoulli_estimator w (1. /. 6.) in
    let e1 = bernoulli_estimator w 0.5 in
    let d =
      Predicate_approx.decide ~compile_fuel:0 ~eps0:0.05 ~rng ~delta:0.1 phi
        [| e0; e1 |]
    in
    Stats.record tally d.value
  done;
  check bool_c "ratio predicate decided true" true
    (Stats.error_rate tally <= 0.1 +. 0.06)

(* ------------------------------------------------------------------ *)
(* Proposition 6.6 bounds                                              *)
(* ------------------------------------------------------------------ *)


(* σ̂ decisions pinned bit for bit: Figure 3 over seeded random DNFs for
   linear, non-linear, Eq and Neq atoms under mixed-truth And/Or/Not, with
   and without max_rounds, a trial budget and the independent bound.  The
   digest covers each decision's value, rounds, estimator calls, flags and
   the float bits of its estimates and error bound; it moves only when a
   change alters sampled bits or ε on purpose. *)
let sigma_predicates =
  let x = Apred.var and c = Apred.const in
  [|
    Apred.ge (x 0) (c 0.5);
    Apred.lt (Apred.Sub (Apred.Mul (c 2., x 0), x 1)) (c 0.3);
    Apred.le (Apred.Add (x 0, Apred.Div (x 1, c 2.))) (c 0.9);
    Apred.gt (Apred.Neg (x 1)) (c (-0.4));
    Apred.ge (Apred.Mul (x 0, x 1)) (c 0.2);
    Apred.gt (Apred.Div (x 0, x 1)) (c 1.5);
    Apred.eq (x 0) (x 1);
    Apred.Cmp (Apred.Neq, x 0, c 0.5);
    Apred.conj (Apred.ge (x 0) (c 0.3)) (Apred.le (x 1) (c 0.2));
    Apred.disj
      (Apred.neg (Apred.lt (x 0) (c 0.6)))
      (Apred.gt (Apred.Mul (x 0, x 1)) (c 0.5));
    Apred.neg
      (Apred.conj
         (Apred.disj (Apred.ge (x 0) (x 1)) (Apred.eq (x 1) (c 0.5)))
         (Apred.lt (Apred.Add (x 0, x 1)) (c 1.2)));
    Apred.conj Apred.True (Apred.disj (Apred.ge (x 1) (c 0.7)) Apred.False);
  |]

let sigma_decisions_digest () =
  let buf = Buffer.create 4096 in
  let record (d : Predicate_approx.decision) =
    Printf.bprintf buf "%b %d %d %b %b %h" d.value d.rounds d.estimator_calls
      d.hit_round_limit d.used_floor d.error_bound;
    Array.iter (Printf.bprintf buf " %h") d.estimates;
    Buffer.add_char buf '\n'
  in
  let k = Array.length sigma_predicates in
  for case = 0 to (4 * k) - 1 do
    let phi = sigma_predicates.(case mod k) in
    let rng = Rng.create ~seed:(7000 + case) in
    let w = Wtable.create () in
    let estimators () =
      Array.init 2 (fun _ ->
          Estimator.create
            (Dnf.prepare w
               (Pqdb_workload.Gen.random_dnf rng w ~vars:4 ~clauses:3 ~clause_len:2)))
    in
    let max_rounds, budget, independent =
      match case / k with
      | 0 -> (None, None, false)
      | 1 -> (Some 2, None, true)
      | 2 -> (None, Some (Budget.create ~max_trials:300 ()), false)
      | _ -> (Some 40, Some (Budget.create ~max_trials:2000 ()), true)
    in
    let eps0 = if case mod 2 = 0 then 0.05 else 0.1 in
    record
      (Predicate_approx.decide ?budget ?max_rounds ~independent ~compile_fuel:0
         ~eps0 ~rng ~delta:0.1 phi (estimators ()));
    if case mod 4 = 0 then
      record
        (Predicate_approx.decide_values ?max_rounds ~independent ~eps0 ~rng
           ~delta:0.1 phi
           (Array.map Pqdb.Approximable.of_karp_luby (estimators ())));
    if case mod 6 = 0 then
      record
        (Predicate_approx.decide_naive ~eps0 ~rng ~delta:0.1 phi
           (estimators ()))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_sigma_decisions_pinned () =
  check Alcotest.string "decision digest"
    "dc6cda1311c8ad7b67577498e8e56c61" (sigma_decisions_digest ());
  let w = Wtable.create () in
  let phi =
    Apred.ge (Apred.Mul (Apred.var 0, Apred.var 0)) (Apred.const 0.25)
  in
  check bool_c "repeated-variable non-linear atom raises Unsupported" true
    (try
       ignore
         (Predicate_approx.decide ~compile_fuel:0 ~rng:(Rng.create ~seed:1)
            ~delta:0.1 phi [| bernoulli_estimator w 0.7 |]);
       false
     with Epsilon.Unsupported _ -> true)

let test_error_bound_shapes () =
  let b l = Error_bound.proposition_6_6 ~k:2 ~d:2 ~n:10 ~eps0:0.1 ~rounds:l in
  (* Pick budgets large enough that the bound is below its cap of 1. *)
  check bool_c "decreasing in l" true (b 6000 < b 5000);
  let l0 = Error_bound.rounds_for_guarantee ~k:2 ~d:2 ~n:10 ~eps0:0.1 ~delta:0.05 in
  check bool_c "l0 achieves the bound" true (b l0 <= 0.05 +. 1e-9);
  (* The solved recurrence is dominated by the closed form. *)
  let per_level = Stats.delta' ~eps:0.1 ~rounds:l0 in
  check bool_c "recurrence <= closed form" true
    (Error_bound.recurrence ~k:2 ~n:10 ~d:2 ~per_level <= b l0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* More epsilon / decision behaviours                                  *)
(* ------------------------------------------------------------------ *)

let test_linear_extraction () =
  let module L = Linear_eps in
  let e = Apred.Add (Apred.Mul (Apred.const 2., Apred.var 0), Apred.const 1.) in
  (match L.of_expr ~arity:1 e with
  | Some l ->
      check (float_c 1e-12) "coeff" 2. l.L.coeffs.(0);
      check (float_c 1e-12) "const" 1. l.L.constant
  | None -> Alcotest.fail "expected linear");
  check bool_c "x*y is not linear" true
    (L.of_expr ~arity:2 (Apred.Mul (Apred.var 0, Apred.var 1)) = None);
  check bool_c "1/x is not linear" true
    (L.of_expr ~arity:1 (Apred.Div (Apred.const 1., Apred.var 0)) = None);
  (* Division by a constant is linear. *)
  (match L.of_expr ~arity:1 (Apred.Div (Apred.var 0, Apred.const 2.)) with
  | Some l -> check (float_c 1e-12) "x/2 coeff" 0.5 l.L.coeffs.(0)
  | None -> Alcotest.fail "x/2 should be linear");
  check bool_c "x/0 rejected" true
    (L.of_expr ~arity:1 (Apred.Div (Apred.var 0, Apred.const 0.)) = None)

let prop_epsilon_monotone_in_distance =
  (* For x >= c, moving the point away from c never shrinks epsilon. *)
  QCheck.Test.make ~name:"epsilon monotone in distance from boundary"
    ~count:200
    (QCheck.pair (QCheck.float_range 0.1 0.4) (QCheck.float_range 0.0 0.4))
    (fun (c, step) ->
      let pred = Apred.ge (Apred.var 0) (Apred.const c) in
      let near = Epsilon.epsilon pred [| c +. 0.05 |] in
      let far = Epsilon.epsilon pred [| c +. 0.05 +. step |] in
      far >= near -. 1e-12)

let test_epsilon_false_conjunction () =
  (* And(a, b) with a true, b false: overall false; homogeneity follows the
     false conjunct. *)
  let a = Apred.ge (Apred.var 0) (Apred.const 0.1) in
  let b = Apred.ge (Apred.var 0) (Apred.const 0.9) in
  let p = [| 0.5 |] in
  let eps = Epsilon.epsilon (Apred.conj a b) p in
  check (float_c 1e-12) "false conjunct drives it" (Epsilon.epsilon b p) eps;
  check bool_c "predicate is false at p" false (Apred.eval p (Apred.conj a b))

let test_epsilon_search_is_sound_at_low_precision () =
  (* Few bisection iterations yield a smaller but still sound radius. *)
  let pred = Apred.ge (Apred.var 0) (Apred.const 0.4) in
  let point = [| 0.5 |] in
  let coarse = Orthotope.epsilon_search ~iterations:5 pred point in
  let fine = Orthotope.epsilon_search ~iterations:50 pred point in
  check bool_c "coarse <= fine" true (coarse <= fine +. 1e-12);
  check bool_c "coarse still homogeneous" true
    (Orthotope.corners_agree pred ~point ~eps:coarse)

let test_decide_argument_validation () =
  let rng = Rng.create ~seed:1 in
  let w = Wtable.create () in
  let est = bernoulli_estimator w 0.5 in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  check bool_c "bad delta" true
    (try
       ignore (Predicate_approx.decide ~rng ~delta:0. phi [| est |]);
       false
     with Invalid_argument _ -> true);
  check bool_c "negative compile fuel" true
    (try
       ignore
         (Predicate_approx.decide ~compile_fuel:(-1) ~rng ~delta:0.1 phi
            [| est |]);
       false
     with Invalid_argument _ -> true);
  check bool_c "bad eps0" true
    (try
       ignore (Predicate_approx.decide ~eps0:1.5 ~rng ~delta:0.1 phi [| est |]);
       false
     with Invalid_argument _ -> true);
  check bool_c "not enough estimators" true
    (try
       ignore (Predicate_approx.decide ~rng ~delta:0.1 phi [||]);
       false
     with Invalid_argument _ -> true)

let test_decide_with_degenerate_estimator () =
  (* One genuinely certain value (p = 1) alongside a sampled one. *)
  let rng = Rng.create ~seed:6 in
  let w = Wtable.create () in
  let certain =
    Estimator.create (Dnf.prepare w [ Pqdb_urel.Assignment.empty ])
  in
  let sampled = bernoulli_estimator w 0.8 in
  let phi =
    Apred.conj
      (Apred.ge (Apred.var 0) (Apred.const 0.9))
      (Apred.ge (Apred.var 1) (Apred.const 0.5))
  in
  let d =
    Predicate_approx.decide ~compile_fuel:0 ~eps0:0.05 ~rng ~delta:0.1 phi
      [| certain; sampled |]
  in
  check bool_c "decided true" true d.Predicate_approx.value;
  check bool_c "bound met" true (d.Predicate_approx.error_bound <= 0.1 +. 1e-9)

let test_decide_all_degenerate () =
  let rng = Rng.create ~seed:6 in
  let w = Wtable.create () in
  let certain =
    Estimator.create (Dnf.prepare w [ Pqdb_urel.Assignment.empty ])
  in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let d = Predicate_approx.decide ~rng ~delta:0.1 phi [| certain |] in
  check bool_c "no sampling" true (d.Predicate_approx.estimator_calls = 0);
  check bool_c "true" true d.Predicate_approx.value;
  check (float_c 0.) "zero error" 0. d.Predicate_approx.error_bound;
  check bool_c "no floor reliance" false d.Predicate_approx.used_floor

let test_split_duplicates_preserves_semantics () =
  let pred =
    Apred.ge (Apred.Mul (Apred.var 0, Apred.var 0)) (Apred.const 0.25)
  in
  let pred2, origin = Epsilon.split_duplicates pred in
  List.iter
    (fun x ->
      let expanded = Array.map (fun o -> [| x |].(o)) origin in
      check bool_c "same truth value" (Apred.eval [| x |] pred)
        (Apred.eval expanded pred2))
    [ 0.1; 0.4; 0.5; 0.6; 0.9 ]

let test_independent_bound_is_cheaper () =
  (* With two approximable values the 1 - prod(1 - d_i) bound reaches the
     target with no more sampling than the Figure-3 sum. *)
  let phi =
    Apred.conj
      (Apred.ge (Apred.var 0) (Apred.const 0.5))
      (Apred.ge (Apred.var 1) (Apred.const 0.5))
  in
  let total flag seed =
    let rng = Rng.create ~seed in
    let calls = ref 0 in
    for _ = 1 to 10 do
      let w = Wtable.create () in
      let e0 = bernoulli_estimator w 0.8 in
      let e1 = bernoulli_estimator w 0.9 in
      let d =
        Predicate_approx.decide ~independent:flag ~compile_fuel:0 ~eps0:0.05
          ~rng ~delta:0.1 phi [| e0; e1 |]
      in
      calls := !calls + d.Predicate_approx.estimator_calls
    done;
    !calls
  in
  check bool_c "independent bound needs no more calls" true
    (total true 42 <= total false 42)

let test_example_6_3_inequality () =
  (* Example 6.3: treating the error *bound* delta as the exact error
     probability overstates P(sigma(R) nonempty).  With true per-tuple error
     e < delta for t1 (dropped) and delta for t2 (kept):
       true  P = (1 - delta) + e * delta        (t2 correct, or both flip)
       model P = (1 - delta) + delta^2
     so the model is too optimistic whenever e < delta. *)
  let delta = 0.1 and e = 0.01 in
  let truth = 1. -. delta +. (e *. delta) in
  let modelled = 1. -. delta +. (delta *. delta) in
  check bool_c "model overstates" true (modelled > truth);
  check (float_c 1e-12) "paper's numbers" 0.901 truth;
  check (float_c 1e-12) "modelled value" 0.91 modelled

(* ------------------------------------------------------------------ *)
(* The Apred language itself                                            *)
(* ------------------------------------------------------------------ *)

let apred_gen =
  let open QCheck.Gen in
  let expr =
    oneof
      [
        map (fun i -> Apred.Var i) (int_range 0 1);
        map (fun c -> Apred.Const (float_of_int c /. 4.)) (int_range 0 4);
      ]
  in
  let atom =
    map3
      (fun op a b ->
        let ops = [| Apred.Eq; Neq; Lt; Le; Gt; Ge |] in
        Apred.Cmp (ops.(op), a, b))
      (int_range 0 5) expr expr
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map2 (fun a b -> Apred.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Apred.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map (fun a -> Apred.Not a) (go (depth - 1)));
        ]
  in
  go 3

let sample_points =
  [ [| 0.; 0. |]; [| 0.25; 0.75 |]; [| 0.5; 0.5 |]; [| 1.; 0.25 |] ]

let prop_apred_nnf_equivalent =
  QCheck.Test.make ~name:"apred nnf preserves semantics" ~count:300
    (QCheck.make apred_gen) (fun phi ->
      let n = Apred.nnf phi in
      List.for_all (fun p -> Apred.eval p phi = Apred.eval p n) sample_points)

let prop_apred_nnf_removes_not =
  QCheck.Test.make ~name:"apred nnf eliminates Not" ~count:300
    (QCheck.make apred_gen) (fun phi ->
      let rec no_not = function
        | Apred.Not _ -> false
        | Apred.And (a, b) | Apred.Or (a, b) -> no_not a && no_not b
        | Apred.Cmp _ | Apred.True | Apred.False -> true
      in
      no_not (Apred.nnf phi))

let prop_apred_rational_eval_agrees =
  (* On dyadic points every constant and intermediate is float-exact, so the
     rational and float evaluations must decide identically. *)
  QCheck.Test.make ~name:"apred rational eval agrees with float" ~count:300
    (QCheck.make apred_gen) (fun phi ->
      List.for_all
        (fun p ->
          let pr = Array.map Q.of_float p in
          match Apred.eval_rational pr phi with
          | v -> v = Apred.eval p phi
          | exception Division_by_zero ->
              (* float path yields inf/nan instead; skip those points *)
              true)
        sample_points)

let test_apred_structure () =
  let phi =
    Apred.conj
      (Apred.ge (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const 0.5))
      (Apred.lt (Apred.var 1) (Apred.const 1.))
  in
  check Alcotest.int "arity" 2 (Apred.arity phi);
  check (Alcotest.array Alcotest.int) "occurrences" [| 1; 2 |]
    (Apred.occurrences phi);
  check bool_c "not single occurrence" false (Apred.single_occurrence phi);
  check Alcotest.int "variable-free arity" 0
    (Apred.arity (Apred.ge (Apred.const 1.) (Apred.const 0.)))

(* ------------------------------------------------------------------ *)
(* Approximable values (the Section 5 generalization)                  *)
(* ------------------------------------------------------------------ *)

module Approximable = Pqdb.Approximable

let test_sampler_converges () =
  let rng = Rng.create ~seed:21 in
  let values = Array.init 1000 (fun i -> float_of_int (i mod 10)) in
  (* true mean 4.5 *)
  let v = Approximable.of_sampler ~lower_bound:1. ~values () in
  Approximable.refine_by rng v 20_000;
  check bool_c "estimate near 4.5" true
    (Float.abs (Approximable.estimate v -. 4.5) < 0.2);
  check bool_c "bound shrinks with draws" true
    (Approximable.delta_bound v ~eps:0.1 < 0.5)

let test_sampler_validation () =
  check bool_c "empty population" true
    (try
       ignore (Approximable.of_sampler ~lower_bound:1. ~values:[||] ());
       false
     with Invalid_argument _ -> true);
  check bool_c "non-positive lower bound" true
    (try
       ignore
         (Approximable.of_sampler ~lower_bound:0. ~values:[| 1.; 2. |] ());
       false
     with Invalid_argument _ -> true);
  (* Constant population collapses to an exact value. *)
  let v = Approximable.of_sampler ~lower_bound:1. ~values:[| 3.; 3. |] () in
  check bool_c "constant population is exact" true (Approximable.is_exact v);
  check (float_c 0.) "exact value" 3. (Approximable.estimate v)

let test_decide_values_on_sampler () =
  (* Decide mean >= threshold by sampling: error rate within delta. *)
  let delta = 0.1 in
  let tally = Stats.tally () in
  for seed = 1 to 60 do
    let rng = Rng.create ~seed:(900 + seed) in
    let values = Array.init 500 (fun i -> float_of_int (10 + (i mod 20))) in
    (* true mean 19.5; threshold 15 is comfortably below *)
    let phi = Apred.ge (Apred.var 0) (Apred.const 15.) in
    let d =
      Predicate_approx.decide_values ~eps0:0.05 ~rng ~delta phi
        [| Approximable.of_sampler ~lower_bound:10. ~values () |]
    in
    Stats.record tally d.Predicate_approx.value
  done;
  check bool_c "sampling decisions within delta" true
    (Stats.error_rate tally <= delta +. 0.05)

let test_decide_values_mixed_kinds () =
  let rng = Rng.create ~seed:77 in
  let w = Wtable.create () in
  let conf = Approximable.of_karp_luby (bernoulli_estimator w 0.9) in
  let agg =
    Approximable.of_sampler ~lower_bound:1.
      ~values:(Array.init 100 (fun i -> float_of_int (1 + (i mod 5))))
      ()
  in
  let known = Approximable.constant 2. in
  (* conf * known >= 1 and agg >= 2  (true: 0.9*2 = 1.8 >= 1, mean 3 >= 2) *)
  let phi =
    Apred.conj
      (Apred.ge (Apred.Mul (Apred.var 0, Apred.var 2)) (Apred.const 1.))
      (Apred.ge (Apred.var 1) (Apred.const 2.))
  in
  let d =
    Predicate_approx.decide_values ~eps0:0.05 ~rng ~delta:0.1 phi
      [| conf; agg; known |]
  in
  check bool_c "mixed decision true" true d.Predicate_approx.value;
  check bool_c "bound met" true (d.Predicate_approx.error_bound <= 0.1 +. 1e-9)

let test_decide_values_matches_karp_luby_path () =
  (* The generic loop over of_karp_luby values behaves like the dedicated
     Estimator-array implementation. *)
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  let run_generic seed =
    let rng = Rng.create ~seed in
    let w = Wtable.create () in
    let est = bernoulli_estimator w 0.8 in
    Predicate_approx.decide_values ~eps0:0.05 ~rng ~delta:0.1 phi
      [| Approximable.of_karp_luby est |]
  in
  let run_direct seed =
    let rng = Rng.create ~seed in
    let w = Wtable.create () in
    let est = bernoulli_estimator w 0.8 in
    Predicate_approx.decide ~compile_fuel:0 ~eps0:0.05 ~rng ~delta:0.1 phi
      [| est |]
  in
  let g = run_generic 5 and d = run_direct 5 in
  check bool_c "same decision" d.Predicate_approx.value
    g.Predicate_approx.value;
  check Alcotest.int "same call count" d.Predicate_approx.estimator_calls
    g.Predicate_approx.estimator_calls

let test_recurrence_base_case () =
  check (float_c 0.) "d = 0 has no error" 0.
    (Error_bound.recurrence ~k:3 ~n:10 ~d:0 ~per_level:0.1)

(* ------------------------------------------------------------------ *)
(* Same bits: the Figure-3 loop against a verbatim reference           *)
(* ------------------------------------------------------------------ *)

(* The Figure-3 loop and the Karp-Luby trial kernel as they were before a
   round reused its p̂ buffer and a pass its scratch world: a fresh f* per
   trial, a fresh p̂ per round, list-based error sums.  Rebuilt over the
   public accessors, they are the reference the production loop must match
   draw for draw and float for float. *)
module Reference = struct
  type dnf = {
    total : float;
    clause_count : int;
    dist : Rng.Alias.dist option;
    vars : int array;
    var_alias : Rng.Alias.dist array;
    lit_start : int array;
    lit_slot : int array;
    lit_val : int array;
  }

  let prepare w clause_list =
    let clauses = Array.of_list clause_list in
    let weights = Array.map (Assignment.weight_float w) clauses in
    let total = Array.fold_left ( +. ) 0. weights in
    let vars =
      Array.of_list
        (List.sort_uniq compare (List.concat_map Assignment.vars clause_list))
    in
    let var_alias = Array.map (Wtable.alias w) vars in
    let n = Array.length clauses in
    let lit_start = Array.make (n + 1) 0 in
    Array.iteri
      (fun i f -> lit_start.(i + 1) <- lit_start.(i) + Assignment.cardinal f)
      clauses;
    let lit_slot = Array.make lit_start.(n) 0 in
    let lit_val = Array.make lit_start.(n) 0 in
    Array.iteri
      (fun i f ->
        let slot = ref 0 in
        List.iteri
          (fun k (v, x) ->
            while vars.(!slot) <> v do
              incr slot
            done;
            lit_slot.(lit_start.(i) + k) <- !slot;
            lit_val.(lit_start.(i) + k) <- x)
          (Assignment.bindings f))
      clauses;
    let dist = if n = 0 then None else Some (Rng.Alias.of_weights weights) in
    { total; clause_count = n; dist; vars; var_alias; lit_start; lit_slot;
      lit_val }

  let rec extends t total p stop =
    p >= stop
    || (total.(t.lit_slot.(p)) = t.lit_val.(p) && extends t total (p + 1) stop)

  let rec smallest t total i j =
    j >= i
    || (not (extends t total t.lit_start.(j) t.lit_start.(j + 1)))
       && smallest t total i (j + 1)

  let sample_estimator rng t =
    match t.dist with
    | None -> invalid_arg "Reference.sample_estimator: empty DNF"
    | Some dist ->
        let i = Rng.Alias.sample rng dist in
        let n = Array.length t.vars in
        let total = Array.make n 0 in
        let p = ref t.lit_start.(i) and stop = t.lit_start.(i + 1) in
        for slot = 0 to n - 1 do
          if !p < stop && t.lit_slot.(!p) = slot then begin
            total.(slot) <- t.lit_val.(!p);
            incr p
          end
          else total.(slot) <- Rng.Alias.sample rng t.var_alias.(slot)
        done;
        if smallest t total i 0 then 1 else 0

  type est = {
    dnf : dnf;
    degenerate : float option;
    mutable successes : int;
    mutable trials : int;
  }

  let create clauses dnf =
    let degenerate =
      if clauses = [] then Some 0.
      else if List.exists Assignment.is_empty clauses then Some 1.
      else None
    in
    { dnf; degenerate; successes = 0; trials = 0 }

  let batch rng t n =
    match t.degenerate with
    | Some _ -> ()
    | None ->
        for _ = 1 to n do
          t.successes <- t.successes + sample_estimator rng t.dnf
        done;
        t.trials <- t.trials + n

  let estimate t =
    match t.degenerate with
    | Some v -> v
    | None ->
        if t.trials = 0 then 0.
        else
          float_of_int t.successes *. t.dnf.total /. float_of_int t.trials

  let delta_bound t ~eps =
    match t.degenerate with
    | Some _ -> 0.
    | None ->
        if t.trials = 0 then 1.
        else
          Stats.karp_luby_delta ~trials:t.trials ~clauses:t.dnf.clause_count
            ~eps

  let combined_error ~independent values ~eps =
    if independent then
      Stats.independent_or_bound
        (Array.to_list (Array.map (fun v -> delta_bound v ~eps) values))
    else Array.fold_left (fun acc v -> acc +. delta_bound v ~eps) 0. values

  let total_steps values = Array.fold_left (fun acc v -> acc + v.trials) 0 values

  let finish ~independent ~value ~eps ~eps_phi ~eps0 ~rounds ~hit_round_limit
      values =
    {
      Predicate_approx.value;
      error_bound = Float.min 0.5 (combined_error ~independent values ~eps);
      epsilon = eps;
      rounds;
      estimator_calls = total_steps values;
      estimates = Array.map estimate values;
      hit_round_limit;
      used_floor = eps_phi < eps0;
    }

  let decide ?budget ?(eps0 = 0.05) ?max_rounds ?batch:n
      ?(independent = false) ~rng ~delta phi values =
    let epsilon = Epsilon.prepare phi in
    let refine v =
      match n with
      | None -> batch rng v (max 1 v.dnf.clause_count)
      | Some n -> batch rng v n
    in
    let out_of_budget () =
      match budget with Some b -> Budget.exhausted b | None -> false
    in
    let rec loop rounds =
      if out_of_budget () then begin
        let p_hat = Array.map estimate values in
        let eps_phi = epsilon p_hat in
        let eps = Float.max eps0 eps_phi in
        finish ~independent ~value:(Apred.eval p_hat phi) ~eps ~eps_phi ~eps0
          ~rounds ~hit_round_limit:true values
      end
      else begin
        let before = total_steps values in
        Array.iter refine values;
        (match budget with
        | Some b -> Budget.spend b (total_steps values - before)
        | None -> ());
        let rounds = rounds + 1 in
        let p_hat = Array.map estimate values in
        let eps_phi = epsilon p_hat in
        let eps = Float.max eps0 eps_phi in
        if combined_error ~independent values ~eps <= delta then
          finish ~independent ~value:(Apred.eval p_hat phi) ~eps ~eps_phi
            ~eps0 ~rounds ~hit_round_limit:false values
        else
          match max_rounds with
          | Some limit when rounds >= limit ->
              finish ~independent ~value:(Apred.eval p_hat phi) ~eps ~eps_phi
                ~eps0 ~rounds ~hit_round_limit:true values
          | _ -> loop rounds
      end
    in
    if Array.for_all (fun v -> v.degenerate <> None) values then begin
      let p_hat = Array.map estimate values in
      finish ~independent ~value:(Apred.eval p_hat phi) ~eps:eps0
        ~eps_phi:Linear_eps.eps_max ~eps0 ~rounds:0 ~hit_round_limit:false
        values
    end
    else loop 0
end

let show_decision (d : Predicate_approx.decision) =
  Printf.sprintf "%b eps %h bound %h rounds %d calls %d limit %b floor %b [%s]"
    d.value d.epsilon d.error_bound d.rounds d.estimator_calls
    d.hit_round_limit d.used_floor
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") d.estimates)))

(* One generated case: a predicate, two or three seeded lineages (now and
   then a trivially false or true one; a third value the predicate does not
   read still enters the error sum, whose order then matters), and every
   knob of the loop. *)
let fig3_case_gen =
  QCheck.Gen.(
    let lineage =
      frequency
        [
          (8, map3 (fun v c l -> `Random (v, c, l)) (int_range 1 6)
                (int_range 1 4) (int_range 1 3));
          (1, return `False);
          (1, return `True);
        ]
    in
    let knobs =
      quad (opt ~ratio:0.5 (int_range 1 64))
        (opt ~ratio:0.5 (int_range 1 3000))
        (opt ~ratio:0.3 (int_range 1 8))
        bool
    in
    map3
      (fun (pred, seed, eps0) lineages knobs -> (pred, seed, eps0, lineages, knobs))
      (triple (int_bound (Array.length sigma_predicates - 1)) (int_bound 100_000)
         (oneofl [ 0.05; 0.1; 0.2 ]))
      (triple lineage lineage (opt ~ratio:0.3 lineage)) knobs)

let print_fig3_case (pred, seed, eps0, (_, _, c), (max_rounds, budget, batch, indep)) =
  let opt = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf
    "pred %d seed %d eps0 %g values %d max_rounds %s budget %s batch %s \
     independent %b"
    pred seed eps0 (if c = None then 2 else 3) (opt max_rounds) (opt budget)
    (opt batch) indep

let prop_fig3_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"figure 3 = verbatim reference loop (decisions and next draw)"
    (QCheck.make ~print:print_fig3_case fig3_case_gen)
    (fun (pred, seed, eps0, (a, b, c), (max_rounds, trials, batch, independent)) ->
      let phi = sigma_predicates.(pred) in
      let w = Wtable.create () in
      let gen_rng = Rng.create ~seed in
      let lineage = function
        | `Random (vars, clauses, clause_len) ->
            Pqdb_workload.Gen.random_dnf gen_rng w ~vars ~clauses ~clause_len
        | `False -> []
        | `True -> [ Assignment.empty ]
      in
      let sets =
        Array.of_list (List.map lineage (a :: b :: Option.to_list c))
      in
      let budget () = Option.map (fun n -> Budget.create ~max_trials:n ()) trials in
      let rng = Rng.create ~seed:(seed + 1) and ref_rng = Rng.create ~seed:(seed + 1) in
      let d =
        Predicate_approx.decide ?budget:(budget ()) ?max_rounds ?batch
          ~independent ~compile_fuel:0 ~eps0 ~rng ~delta:0.1 phi
          (Array.map (fun cs -> Estimator.create (Dnf.prepare w cs)) sets)
      in
      let r =
        Reference.decide ?budget:(budget ()) ?max_rounds ?batch ~independent
          ~eps0 ~rng:ref_rng ~delta:0.1 phi
          (Array.map (fun cs -> Reference.create cs (Reference.prepare w cs)) sets)
      in
      let next = Printf.sprintf "%h" (Rng.float rng 1.)
      and ref_next = Printf.sprintf "%h" (Rng.float ref_rng 1.) in
      if show_decision d <> show_decision r || next <> ref_next then
        QCheck.Test.fail_reportf "decision %s / next %s\nreference %s / next %s"
          (show_decision d) next (show_decision r) ref_next;
      true)

(* Theorem 5.2's root choice as a list built and filtered, the form the
   closed-form test of both roots must reproduce bit for bit. *)
let reference_theorem_5_2 (l : Linear_eps.linear) point =
  let clamp eps =
    if Float.is_nan eps then 0.
    else if eps < 0. then 0.
    else if eps > Linear_eps.eps_max then Linear_eps.eps_max
    else eps
  in
  let b = -.l.constant in
  let alpha = ref 0. and beta = ref 0. in
  for i = 0 to Array.length l.coeffs - 1 do
    let t = l.coeffs.(i) *. point.(i) in
    alpha := !alpha +. t;
    beta := !beta +. Float.abs t
  done;
  let alpha = !alpha and beta = !beta in
  if beta = 0. then if 0. >= b then Linear_eps.eps_max else 0.
  else if alpha < b then 0.
  else if b = 0. then clamp (alpha /. beta)
  else begin
    let disc = Float.max 0. ((beta *. beta) -. (4. *. b *. (alpha -. b))) in
    let root = sqrt disc in
    let candidates =
      List.filter
        (fun e -> e >= 0. && e < 1.)
        [ (beta -. root) /. (2. *. b); (beta +. root) /. (2. *. b) ]
    in
    match candidates with
    | [] -> Linear_eps.eps_max
    | roots -> clamp (List.fold_left Float.min 1. roots)
  end

(* Edge cases: b < 0, b = 0, β = 0 (zero coefficients or a zero point), a
   root at exactly 0 (α = b), and α = β = 2b(1 − tiny), whose roots are
   1 − tiny and 1 — the second rounds either side of 1. *)
let theorem_5_2_edge_cases =
  let lin coeffs constant = { Linear_eps.coeffs; constant } in
  [
    (lin [| 1.; -1. |] 0.3, [| 0.4; 0.2 |]);
    (lin [| 1.; 2. |] 0., [| 0.4; 0.2 |]);
    (lin [| 1.; -2. |] 0., [| 0.4; 0.2 |]);
    (lin [| 0.; 0. |] (-0.5), [| 0.4; 0.2 |]);
    (lin [| 0.; 0. |] 0.5, [| 0.4; 0.2 |]);
    (lin [| 1.; 1. |] (-0.5), [| 0.; 0. |]);
    (lin [| 1. |] (-0.5), [| 0.5 |]);
    (lin [| 2.; -1. |] (-0.3), [| 0.4; 0.5 |]);
    (lin [| 1. |] (-0.25), [| 0.5 -. 1e-12 |]);
    (lin [| 1. |] (-0.25), [| 0.5 -. epsilon_float |]);
    (lin [| 1.; 1. |] (-0.125), [| 0.125; 0.125 -. 1e-15 |]);
  ]

let theorem_5_2_gen =
  QCheck.Gen.(
    let coeff = oneof [ float_range (-3.) 3.; oneofl [ 0.; 1.; -1.; 0.5 ] ] in
    let point = oneof [ float_range 0. 1.; oneofl [ 0.; 0.5; 1. ] ] in
    int_range 1 4 >>= fun k ->
    map3
      (fun coeffs point constant -> ({ Linear_eps.coeffs; constant }, point))
      (array_repeat k coeff) (array_repeat k point)
      (oneof [ float_range (-2.) 2.; oneofl [ 0.; -0.5; 0.5 ] ]))

let prop_theorem_5_2_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"theorem 5.2 = list-based reference"
    (QCheck.make
       ~print:(fun ((l : Linear_eps.linear), p) ->
         Printf.sprintf "coeffs [%s] constant %h point [%s]"
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") l.coeffs)))
           l.constant
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") p))))
       QCheck.Gen.(oneof [ oneofl theorem_5_2_edge_cases; theorem_5_2_gen ]))
    (fun (l, p) ->
      Int64.equal
        (Int64.bits_of_float (Linear_eps.theorem_5_2 l p))
        (Int64.bits_of_float (reference_theorem_5_2 l p)))

let test_theorem_5_2_edge_cases_covered () =
  (* Each edge case reaches the branch it is named for. *)
  let got = List.map (fun (l, p) -> Linear_eps.theorem_5_2 l p) theorem_5_2_edge_cases in
  List.iter2
    (fun (l, p) eps ->
      check bool_c "same bits as the reference" true
        (Int64.equal (Int64.bits_of_float eps)
           (Int64.bits_of_float (reference_theorem_5_2 l p))))
    theorem_5_2_edge_cases got;
  check (float_c 0.) "alpha = b: the root is exactly 0" 0.
    (List.nth got 6);
  check bool_c "alpha = beta = 2b(1 - tiny): the root just below 1" true
    (let e = List.nth got 8 in e > 0.99 && e < 1.)

(* Minor words one Figure-3 round allocates: a fixed 2-clause decision that
   never meets its bound and stops at max_rounds.  A round with a fresh p̂,
   a fresh f* per trial, a closure and boxed sums for the error bound, and
   list-built roots in Theorem 5.2 allocated 52 words; the buffered loop
   with one scratch world per pass allocates 21, of which the RNG draws are
   most.  The guard is two thirds of the former. *)
let test_fig3_round_allocation () =
  let w = Wtable.create () in
  let coin () = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let x = coin () and y = coin () in
  let est =
    Estimator.create
      (Dnf.prepare w [ Assignment.singleton x 1; Assignment.singleton y 1 ])
  in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.75) in
  let rng = Rng.create ~seed:11 in
  let before = Gc.minor_words () in
  let d =
    Predicate_approx.decide ~compile_fuel:0 ~eps0:0.01 ~max_rounds:4096 ~rng
      ~delta:0.01 phi [| est |]
  in
  let per_round = (Gc.minor_words () -. before) /. float_of_int d.rounds in
  check Alcotest.int "ran to the round limit" 4096 d.rounds;
  check bool_c "round limit hit" true d.hit_round_limit;
  check bool_c
    (Printf.sprintf "%.1f minor words per round <= 34.7" per_round)
    true
    (per_round <= 52.03 *. 2. /. 3.)

exception Timed_out

(* [f ()] under a SIGALRM deadline, so a loop that never returns fails the
   test instead of hanging the suite. *)
let with_timeout seconds f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

let test_decide_rejects_empty_batch () =
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  List.iter
    (fun batch ->
      let w = Wtable.create () in
      let est = bernoulli_estimator w 0.5 in
      Alcotest.check_raises
        (Printf.sprintf "batch %d rejected, not looped on" batch)
        (Invalid_argument "Predicate_approx: batch must be positive")
        (fun () ->
          with_timeout 5 (fun () ->
              ignore
                (Predicate_approx.decide ~batch ~rng:(Rng.create ~seed:1)
                   ~delta:0.1 phi [| est |]))))
    [ 0; -3 ];
  Alcotest.check_raises "sampler batch 0 rejected"
    (Invalid_argument "Approximable.of_sampler: batch must be positive")
    (fun () ->
      ignore
        (Approximable.of_sampler ~batch:0 ~lower_bound:1. ~values:[| 1.; 2. |]
           ()))

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Figure 3 over compiled values                                       *)
(* ------------------------------------------------------------------ *)

(* Thresholds on a compiled float and its two one-ulp neighbours: the
   float is only within [Compile.rounding_bound] of the rational
   confidence, so a decision there may disagree with the rational truth.
   Every decision takes 0 rounds, 0 calls and error 0, and each one either
   agrees with the truth or is flagged [used_floor] — never silently
   wrong.  Some decisions do disagree, so the flag is what keeps them
   sound. *)
let test_compiled_ulp_thresholds () =
  let flagged_wrong = ref 0 and decisions = ref 0 in
  for seed = 1 to 6 do
    let udb =
      Pqdb_workload.Gen.uncertain_db (Rng.create ~seed) ~tuples:15 ~clauses:3
    in
    let w = Udb.wtable udb in
    let groups =
      Urelation.clauses_by_tuple
        (Translate.project_attrs [ "id" ] (Udb.find udb "events"))
    in
    List.iter
      (fun (_, clauses) ->
        let truth = Lineage.exact w clauses in
        match Compile.exact_value (Compile.compile w clauses) with
        | None -> Alcotest.fail "a generated event did not compile exactly"
        | Some p ->
            List.iter
              (fun threshold ->
                List.iter
                  (fun phi ->
                    let d =
                      Predicate_approx.decide ~rng:(Rng.create ~seed:1)
                        ~delta:0.05 phi
                        [| Estimator.create (Dnf.prepare w clauses) |]
                    in
                    incr decisions;
                    if d.rounds <> 0 || d.estimator_calls <> 0
                       || d.error_bound <> 0.
                    then Alcotest.fail "a compiled decision sampled";
                    if d.value <> Apred.eval_rational [| truth |] phi then begin
                      if not d.used_floor then
                        Alcotest.failf
                          "threshold %h on %h (truth %s): silently wrong"
                          threshold p (Q.to_string truth);
                      incr flagged_wrong
                    end)
                  [
                    Apred.ge (Apred.var 0) (Apred.const threshold);
                    Apred.gt (Apred.var 0) (Apred.const threshold);
                  ])
              [ Float.pred p; p; Float.succ p ])
      groups
  done;
  check bool_c
    (Printf.sprintf "%d of %d decisions disagree with the truth, all flagged"
       !flagged_wrong !decisions)
    true (!flagged_wrong > 0)

(* At a fuel the lineage exceeds, the value that does not compile samples
   as in Figure 3, while the exact value of the same predicate draws
   nothing; at the default fuel both are exact and nothing samples. *)
let test_compiled_mixed_fuel () =
  let w = Wtable.create () in
  let coin () = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let x = coin () and y = coin () and z = coin () and u = coin () in
  let pair a b = Assignment.of_list [ (a, 1); (b, 1) ] in
  (* Two of three coins: no independent split and no variable in every
     clause, so compiling it needs a Shannon expansion. *)
  let majority = [ pair x y; pair y z; pair x z ] in
  let single = [ Assignment.singleton u 1 ] in
  check bool_c "majority needs more than fuel 1" false
    (Compile.is_exact (Compile.compile ~fuel:1 w majority));
  check bool_c "a single clause is exact at fuel 1" true
    (Compile.is_exact (Compile.compile ~fuel:1 w single));
  let phi =
    Apred.conj
      (Apred.ge (Apred.var 0) (Apred.const 0.3))
      (Apred.ge (Apred.var 1) (Apred.const 0.3))
  in
  let run ?compile_fuel () =
    let sampled = Estimator.create (Dnf.prepare w majority)
    and exact = Estimator.create (Dnf.prepare w single) in
    let d =
      Predicate_approx.decide ?compile_fuel ~rng:(Rng.create ~seed:3)
        ~delta:0.05 phi [| sampled; exact |]
    in
    (d, Estimator.trials sampled, Estimator.trials exact)
  in
  let d, sampled, exact = run ~compile_fuel:1 () in
  check bool_c "fuel 1: the inexact value samples" true (sampled > 0);
  check Alcotest.int "fuel 1: the exact value draws nothing" 0 exact;
  check Alcotest.int "fuel 1: every call is the inexact value's" sampled
    d.estimator_calls;
  check bool_c "fuel 1: decided true" true d.value;
  let d, sampled, exact = run () in
  check Alcotest.int "default fuel: no call" 0
    (d.estimator_calls + sampled + exact);
  check Alcotest.int "default fuel: no round" 0 d.rounds;
  check bool_c "default fuel: decided true" true d.value

(* ------------------------------------------------------------------ *)
(* The ≺ rule of × and ⋈                                              *)
(* ------------------------------------------------------------------ *)

(* Eval_exact.fold_pairs visits the pairs an all-pairs loop would keep, in
   its order — a's tuples outer, b's inner, both ascending — so the μ sums
   of Lemma 6.4(1) add in one fixed order. *)
let prop_fold_pairs_all_pairs_order =
  QCheck.Test.make ~name:"fold_pairs = all-pairs fold, in order" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let module Tuple = Pqdb_relational.Tuple in
      let module Schema = Pqdb_relational.Schema in
      let udb =
        Pqdb_workload.Gen.uncertain_db (Rng.create ~seed)
          ~tuples:(seed mod 20) ~clauses:3
      in
      let events = Udb.find udb "events" and tags = Udb.find udb "tags" in
      let tag_of = Translate.project_attrs [ "tag" ] events in
      let renamed = Translate.rename [ ("tag", "t2") ] tags in
      let all_pairs a b =
        let sa = Urelation.schema a and sb = Urelation.schema b in
        let shared = Schema.common sa sb in
        let key s t = Tuple.project t (List.map (Schema.index s) shared) in
        let own =
          List.filter_map
            (fun x ->
              if List.mem x shared then None else Some (Schema.index sb x))
            (Schema.attributes sb)
        in
        List.concat_map
          (fun ta ->
            List.filter_map
              (fun tb ->
                if Tuple.equal (key sa ta) (key sb tb) then
                  Some (ta, tb, Tuple.concat ta (Tuple.project tb own))
                else None)
              (Urelation.possible_tuples b))
          (Urelation.possible_tuples a)
      in
      let same a b =
        List.equal
          (fun (a1, b1, o1) (a2, b2, o2) ->
            Tuple.equal a1 a2 && Tuple.equal b1 b2 && Tuple.equal o1 o2)
          (List.rev
             (Pqdb.Eval_exact.fold_pairs a b
                (fun ta tb out acc -> (ta, tb, out) :: acc)
                []))
          (all_pairs a b)
      in
      same events tags && same tags events && same tag_of events
      && same tag_of renamed)

let () =
  Alcotest.run "core"
    [
      ( "theorem 5.2",
        [
          Alcotest.test_case "Example 5.4 / Figure 2" `Quick test_example_5_4;
          Alcotest.test_case "nonzero b" `Quick test_theorem_5_2_nonzero_b;
          Alcotest.test_case "negative b" `Quick test_theorem_5_2_negative_b;
          Alcotest.test_case "boundary gives 0 (Remark 5.3)" `Quick
            test_boundary_gives_zero;
          Alcotest.test_case "equality atoms" `Quick test_equality_atom_zero;
          Alcotest.test_case "constant predicates" `Quick
            test_constant_predicate;
          Alcotest.test_case "and/or composition" `Quick
            test_composition_min_max;
          Alcotest.test_case "mixed-truth disjunction sound" `Quick
            test_mixed_truth_disjunction_sound;
          qcheck prop_linear_matches_search;
          qcheck prop_orthotope_homogeneous;
          qcheck prop_theorem_5_2_matches_reference;
          Alcotest.test_case "root choice edge cases" `Quick
            test_theorem_5_2_edge_cases_covered;
        ] );
      ( "theorem 5.5",
        [
          Alcotest.test_case "ratio predicate corner search" `Quick
            test_corner_search_ratio;
          Alcotest.test_case "multi-occurrence rejected" `Quick
            test_multi_occurrence_rejected;
          Alcotest.test_case "split_duplicates" `Quick test_split_duplicates;
        ] );
      ( "singularity",
        [
          Alcotest.test_case "linear detection" `Quick test_singularity_linear;
          Alcotest.test_case "certainty test (Example 5.7)" `Quick
            test_certainty_test_singular;
        ] );
      ( "figure 3",
        [
          Alcotest.test_case "decides within delta" `Slow
            test_fig3_decides_correctly;
          Alcotest.test_case "terminates on boundary" `Quick
            test_fig3_terminates_on_boundary;
          Alcotest.test_case "far cheaper than near" `Slow
            test_fig3_far_cheaper_than_near;
          Alcotest.test_case "adaptive beats naive" `Slow test_fig3_vs_naive;
          Alcotest.test_case "round limit" `Quick test_fig3_round_limit;
          Alcotest.test_case "two-value ratio predicate" `Slow
            test_fig3_two_values_ratio;
          Alcotest.test_case "decisions pinned bit for bit" `Quick
            test_sigma_decisions_pinned;
          qcheck prop_fig3_matches_reference;
          Alcotest.test_case "round allocation guard" `Quick
            test_fig3_round_allocation;
          Alcotest.test_case "non-positive batch rejected" `Quick
            test_decide_rejects_empty_batch;
        ] );
      ( "more behaviours",
        [
          Alcotest.test_case "linear extraction" `Quick test_linear_extraction;
          qcheck prop_epsilon_monotone_in_distance;
          Alcotest.test_case "false conjunction homogeneity" `Quick
            test_epsilon_false_conjunction;
          Alcotest.test_case "coarse search stays sound" `Quick
            test_epsilon_search_is_sound_at_low_precision;
          Alcotest.test_case "decide argument validation" `Quick
            test_decide_argument_validation;
          Alcotest.test_case "decide with degenerate estimator" `Quick
            test_decide_with_degenerate_estimator;
          Alcotest.test_case "decide with only degenerate" `Quick
            test_decide_all_degenerate;
          Alcotest.test_case "split preserves semantics" `Quick
            test_split_duplicates_preserves_semantics;
          Alcotest.test_case "independence bound cheaper" `Quick
            test_independent_bound_is_cheaper;
          Alcotest.test_case "Example 6.3 inequality" `Quick
            test_example_6_3_inequality;
          Alcotest.test_case "recurrence base case" `Quick
            test_recurrence_base_case;
        ] );
      ( "apred language",
        [
          qcheck prop_apred_nnf_equivalent;
          qcheck prop_apred_nnf_removes_not;
          qcheck prop_apred_rational_eval_agrees;
          Alcotest.test_case "structure" `Quick test_apred_structure;
        ] );
      ( "approximable values",
        [
          Alcotest.test_case "sampler converges" `Quick test_sampler_converges;
          Alcotest.test_case "sampler validation" `Quick
            test_sampler_validation;
          Alcotest.test_case "sampled decisions within delta" `Slow
            test_decide_values_on_sampler;
          Alcotest.test_case "mixed kinds" `Quick
            test_decide_values_mixed_kinds;
          Alcotest.test_case "generic = dedicated on Karp-Luby" `Quick
            test_decide_values_matches_karp_luby_path;
        ] );
      ( "compiled values",
        [
          Alcotest.test_case "one-ulp thresholds: right or flagged" `Quick
            test_compiled_ulp_thresholds;
          Alcotest.test_case "only the inexact value samples" `Quick
            test_compiled_mixed_fuel;
        ] );
      ( "proposition 6.6",
        [ Alcotest.test_case "bound shapes" `Quick test_error_bound_shapes ]
      );
      ("provenance pairs", [ qcheck prop_fold_pairs_all_pairs_order ]);
    ]
