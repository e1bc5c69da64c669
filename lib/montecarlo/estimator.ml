open Pqdb_numeric

type t = {
  dnf : Dnf.t;
  degenerate : float option;  (* known exact value for trivial DNFs *)
  mutable successes : int;
  mutable trials : int;
}

let create dnf =
  let degenerate =
    if Dnf.is_trivially_false dnf then Some 0.
    else if Dnf.is_trivially_true dnf then Some 1.
    else None
  in
  { dnf; degenerate; successes = 0; trials = 0 }

let dnf t = t.dnf
let is_degenerate t = t.degenerate <> None

let batch rng t n =
  if n < 0 then invalid_arg "Estimator.batch: negative trial count";
  match t.degenerate with
  | Some _ -> ()
  | None ->
      (* One scratch world for the whole pass, not one per trial. *)
      let world = Dnf.scratch t.dnf in
      for _ = 1 to n do
        t.successes <- t.successes + Dnf.trial rng t.dnf world
      done;
      t.trials <- t.trials + n

let step_round rng t = batch rng t (max 1 (Dnf.clause_count t.dnf))

let trials t = t.trials

let estimate t =
  match t.degenerate with
  | Some v -> v
  | None ->
      if t.trials = 0 then 0.
      else
        float_of_int t.successes *. Dnf.total_weight t.dnf
        /. float_of_int t.trials

let delta_bound t ~eps =
  match t.degenerate with
  | Some _ -> 0.
  | None ->
      if t.trials = 0 then 1.
      else
        Stats.karp_luby_delta ~trials:t.trials
          ~clauses:(Dnf.clause_count t.dnf) ~eps

let eps_bound t ~delta =
  match t.degenerate with
  | Some _ -> 0.
  | None ->
      if Dnf.clause_count t.dnf = 1 then 0.
      else if t.trials = 0 then 1.
      else
        Stats.karp_luby_eps ~trials:t.trials
          ~clauses:(Dnf.clause_count t.dnf) ~delta

let interval t ~delta =
  match t.degenerate with
  | Some v -> (v, v)
  | None ->
      if Dnf.clause_count t.dnf = 1 then
        (* A single clause is exact: p = M regardless of trials. *)
        let p = Dnf.total_weight t.dnf in
        (p, p)
      else
        let p = estimate t in
        let eps = eps_bound t ~delta in
        if eps >= 1. then (0., 1.)
        else
          (* |p̂ − p| ≤ ε·p rearranges to p ∈ [p̂/(1+ε), p̂/(1−ε)]. *)
          (Float.max 0. (p /. (1. +. eps)), Float.min 1. (p /. (1. -. eps)))

let trials_to_reach t ~eps ~delta =
  match t.degenerate with
  | Some _ -> 0
  | None ->
      let needed =
        Stats.karp_luby_trials ~clauses:(Dnf.clause_count t.dnf) ~eps ~delta
      in
      max 0 (needed - t.trials)
