(* Experiments E5-E8: predicate approximation (Section 5) — the Theorem 5.2
   closed form, the Theorem 5.5 corner search, the Figure-3 algorithm against
   the naive scheme, and the singularity wall. *)

open Pqdb_urel
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Stats = Pqdb_numeric.Stats
module Apred = Pqdb_ast.Apred
module Gen = Pqdb_workload.Gen
module Dnf = Pqdb_montecarlo.Dnf
module Estimator = Pqdb_montecarlo.Estimator

(* ------------------------------------------------------------------ *)
(* E5: Theorem 5.2 — closed-form epsilon for linear predicates          *)
(* ------------------------------------------------------------------ *)

let e5_linear_epsilon ~quick =
  Report.section "E5"
    "Theorem 5.2 / Example 5.4: closed-form epsilon for linear predicates";
  (* The worked example of the paper. *)
  let pred =
    Apred.ge
      (Apred.Sub (Apred.var 0, Apred.Mul (Apred.const 0.5, Apred.var 1)))
      (Apred.const 0.)
  in
  let eps = Pqdb.Epsilon.epsilon pred [| 0.5; 0.5 |] in
  Report.note
    "Example 5.4: eps = %.6f (paper: 1/3); orthotope [%.4f, %.4f]^2 (paper: \
     [3/8, 3/4]^2)"
    eps (0.5 /. (1. +. eps)) (0.5 /. (1. -. eps));
  (* Cost of the closed form vs the 2^k corner search, on linear inputs
     where both are exact. *)
  let ks = if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 12; 14 ] in
  let rows =
    List.map
      (fun k ->
        let rng = Rng.create ~seed:(50 + k) in
        let pred = Gen.linear_predicate rng ~arity:k in
        let point = Array.init k (fun _ -> Rng.float_range rng 0.1 0.9) in
        let closed = ref 0. and searched = ref 0. in
        let t_closed =
          Report.time_median ~repeat:3 (fun () ->
              closed := Pqdb.Epsilon.epsilon pred point)
        in
        let t_search =
          Report.time_median ~repeat:3 (fun () ->
              searched := Pqdb.Orthotope.epsilon_search pred point)
        in
        [
          Report.fmt_int k;
          Report.fmt_float !closed;
          Report.fmt_float !searched;
          Report.fmt_seconds t_closed;
          Report.fmt_seconds t_search;
        ])
      ks
  in
  Report.table
    ~header:
      [ "k"; "closed-form eps"; "corner-search eps"; "closed time"; "search time" ]
    rows;
  Report.note
    "the closed form is linear in k; the corner search pays 2^k corner \
     evaluations per bisection step."

(* ------------------------------------------------------------------ *)
(* E6: Theorem 5.5 — corner search on non-linear predicates             *)
(* ------------------------------------------------------------------ *)

(* A single-occurrence non-linear predicate over k variables:
   x0/x1 + x2*x3 + x4/x5 + ... >= c. *)
let nonlinear_pred k c =
  let rec build i =
    if i + 1 >= k then if i < k then Some (Apred.var i) else None
    else begin
      let pair =
        if i mod 4 = 0 then Apred.Div (Apred.var i, Apred.var (i + 1))
        else Apred.Mul (Apred.var i, Apred.var (i + 1))
      in
      match build (i + 2) with
      | None -> Some pair
      | Some rest -> Some (Apred.Add (pair, rest))
    end
  in
  Apred.ge (Option.get (build 0)) (Apred.const c)

let e6_corner_search ~quick =
  Report.section "E6"
    "Theorem 5.5: corner-point search on single-occurrence algebraic \
     predicates";
  let ks = if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 10; 12 ] in
  let rng = Rng.create ~seed:66 in
  let rows =
    List.map
      (fun k ->
        let pred = nonlinear_pred k 0.5 in
        let point = Array.init k (fun _ -> Rng.float_range rng 0.6 1.4) in
        let eps = ref 0. in
        let t =
          Report.time_median ~repeat:3 (fun () ->
              eps := Pqdb.Epsilon.epsilon pred point)
        in
        (* Sampled homogeneity check (the Theorem 5.5 claim). *)
        let homogeneous =
          !eps <= 0.
          || Pqdb.Orthotope.homogeneous_on_samples rng pred ~point
               ~eps:(!eps *. 0.999) ~samples:200
        in
        [
          Report.fmt_int k;
          Report.fmt_int (1 lsl k);
          Report.fmt_float !eps;
          string_of_bool homogeneous;
          Report.fmt_seconds t;
        ])
      ks
  in
  Report.table
    ~header:[ "k"; "corners"; "eps found"; "homogeneous?"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: Figure 3 vs the naive scheme                                     *)
(* ------------------------------------------------------------------ *)

let bernoulli_estimator rng w p = ignore rng;
  Estimator.create (Dnf.prepare w (Gen.bernoulli_dnf (Rng.create ~seed:0) w ~p))

let e7_fig3_vs_naive ~quick =
  Report.section "E7"
    "Figure 3 / Theorem 5.8: adaptive predicate decision vs the naive \
     full-budget scheme";
  let threshold = 0.5 and eps0 = 0.02 and delta = 0.1 in
  let phi = Apred.ge (Apred.var 0) (Apred.const threshold) in
  let ps =
    if quick then [ 0.55; 0.6; 0.7; 0.9 ]
    else [ 0.52; 0.55; 0.6; 0.7; 0.8; 0.9 ]
  in
  let trials = if quick then 15 else 40 in
  let rng = Rng.create ~seed:7 in
  let rows =
    List.map
      (fun p ->
        let adaptive = ref 0 and naive = ref 0 in
        let wrong = Stats.tally () in
        for _ = 1 to trials do
          let w = Wtable.create () in
          let est = bernoulli_estimator rng w p in
          let d =
            Pqdb.Predicate_approx.decide ~compile_fuel:0 ~eps0 ~rng ~delta phi
              [| est |]
          in
          adaptive := !adaptive + d.Pqdb.Predicate_approx.estimator_calls;
          Stats.record wrong (d.Pqdb.Predicate_approx.value = (p >= threshold));
          let w2 = Wtable.create () in
          let est2 = bernoulli_estimator rng w2 p in
          let d2 =
            Pqdb.Predicate_approx.decide_naive ~eps0 ~rng ~delta phi [| est2 |]
          in
          naive := !naive + d2.Pqdb.Predicate_approx.estimator_calls
        done;
        let mean_adaptive = float_of_int !adaptive /. float_of_int trials in
        let mean_naive = float_of_int !naive /. float_of_int trials in
        (* Predicted saving: close to (eps_phi^2 - eps0^2)/eps_phi^2 of the
           naive cost (end of Section 5), i.e. cost ratio ~ eps0^2/eps_phi^2. *)
        let eps_phi = Pqdb.Epsilon.epsilon phi [| p |] in
        let predicted_ratio = (eps0 /. eps_phi) ** 2. in
        [
          Report.fmt_float p;
          Report.fmt_float eps_phi;
          Report.fmt_float mean_adaptive;
          Report.fmt_float mean_naive;
          Report.fmt_float (mean_adaptive /. mean_naive);
          Report.fmt_float predicted_ratio;
          Report.fmt_float (Stats.error_rate wrong);
        ])
      ps
  in
  Report.table
    ~header:
      [
        "true p";
        "eps_phi";
        "fig3 calls";
        "naive calls";
        "measured ratio";
        "predicted ratio";
        "error rate";
      ]
    rows;
  Report.note
    "far from the boundary the adaptive algorithm needs a vanishing fraction \
     of the naive budget; error rates stay below delta = %.2f." delta

(* ------------------------------------------------------------------ *)
(* E8: singularities (Definition 5.6 / Example 5.7)                     *)
(* ------------------------------------------------------------------ *)

let e8_singularity_wall ~quick =
  Report.section "E8"
    "Definition 5.6 / Example 5.7: the cost wall near singularities";
  let threshold = 0.5 and eps0 = 0.01 and delta = 0.1 in
  let phi = Apred.ge (Apred.var 0) (Apred.const threshold) in
  let gammas =
    if quick then [ 0.2; 0.05; 0.01; 0.0 ]
    else [ 0.2; 0.1; 0.05; 0.02; 0.01; 0.005; 0.0 ]
  in
  let trials = if quick then 5 else 15 in
  let rng = Rng.create ~seed:8 in
  let rows =
    List.map
      (fun gamma ->
        let p = threshold *. (1. +. gamma) in
        let calls = ref 0 and floored = ref 0 in
        for _ = 1 to trials do
          let w = Wtable.create () in
          let est = bernoulli_estimator rng w p in
          let d =
            Pqdb.Predicate_approx.decide ~compile_fuel:0 ~eps0 ~rng ~delta phi
              [| est |]
          in
          calls := !calls + d.Pqdb.Predicate_approx.estimator_calls;
          if d.Pqdb.Predicate_approx.used_floor then incr floored
        done;
        let singular =
          Pqdb.Singularity.possibly_singular ~eps0 phi [| p |]
        in
        [
          Report.fmt_float gamma;
          Report.fmt_float (float_of_int !calls /. float_of_int trials);
          Printf.sprintf "%d/%d" !floored trials;
          string_of_bool singular;
        ])
      gammas
  in
  Report.table
    ~header:
      [ "rel. distance to boundary"; "mean calls"; "hit eps0 floor"; "eps0-singular?" ]
    rows;
  (* Example 5.7: tuple certainty can never be confirmed. *)
  let w = Wtable.create () in
  let certain_var = Wtable.add_var w [ Q.one ] in
  let est =
    Estimator.create (Dnf.prepare w [ Assignment.singleton certain_var 0 ])
  in
  let cert_phi = Apred.ge (Apred.var 0) (Apred.const 1.) in
  let d =
    Pqdb.Predicate_approx.decide ~compile_fuel:0 ~eps0 ~rng ~delta cert_phi
      [| est |]
  in
  Report.note
    "certainty test (conf >= 1 with true p = 1): answered %b relying on the \
     eps0 floor: %b — the answer can never be *certified* (Example 5.7)."
    d.Pqdb.Predicate_approx.value d.Pqdb.Predicate_approx.used_floor
