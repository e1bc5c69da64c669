open Pqdb_numeric
open Pqdb_urel

type t = {
  nodes : float Lineage.node array;  (* children before parents; root last *)
  residuals : Dnf.t array;
  res_weights : float array;  (* per residual: Σ path weights, ∂P/∂p̂ᵢ ≤ wᵢ *)
  fallback : (Wtable.t * Assignment.t list) option;
      (* the whole normalized DNF, unless the root is itself the residual:
         [solve] prepares and samples it when the residual budgets are worse
         than sampling the original problem (Shannon truncation can
         duplicate clauses across leaves, inflating Σ|Fᵢ| past |F|). *)
  nvars : int;  (* ≥ the normalized DNF's variable count; 0 when exact *)
  widen : float;
      (* the rounding lemma's bound on |float DAG − exact DAG|; 0 when exact,
         infinity past the lemma's range *)
}

let default_fuel = 4096

let float_ops w =
  { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
    complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }

let compile ?(fuel = default_fuel) w clauses =
  let dag = Lineage.decompose ~fuel (float_ops w) w clauses in
  let nodes = dag.Lineage.nodes in
  let residuals = Array.map (Dnf.prepare w) dag.Lineage.residuals in
  (* Path weights in one pass from the root down: a node's weight is final
     once all its parents, which come later, have pushed theirs. *)
  let res_weights = Array.make (Array.length residuals) 0. in
  let n = Array.length nodes in
  let pw = Array.make n 0. in
  pw.(n - 1) <- 1.;
  for i = n - 1 downto 0 do
    match nodes.(i) with
    | Lineage.Const _ -> ()
    | Res r -> res_weights.(r) <- res_weights.(r) +. pw.(i)
    | Sum bs -> Array.iter (fun (p, c) -> pw.(c) <- pw.(c) +. (pw.(i) *. p)) bs
    | IndepOr cs -> Array.iter (fun c -> pw.(c) <- pw.(c) +. pw.(i)) cs
  done;
  let fallback =
    match nodes.(n - 1) with
    | Lineage.Const _ | Res _ -> None
    | Sum _ | IndepOr _ -> Some (w, dag.Lineage.clauses)
  in
  let nvars, widen =
    if residuals = [||] then (0, 0.)
    else begin
      (* The literal count bounds V from above, and the bound only grows
         with V, so no variable set is built. *)
      let v = ref 0 and d = ref 1 in
      let visit () x _ =
        incr v;
        d := max !d (Wtable.domain_size w x)
      in
      List.iter (Assignment.fold visit ()) dag.Lineage.clauses;
      let k = !d + 4 and v = !v in
      (* w = (2D + 8)·u·(2V − 1) with u = 2⁻⁵³, exact as a float while
         k·(2V − 1) ≤ 2³² — the lemma's range (w ≤ 2⁻²⁰). *)
      ( v,
        if (2 * v) - 1 > (1 lsl 32) / k then Float.infinity
        else float_of_int (k * ((2 * v) - 1)) *. 0x1p-52 )
    end
  in
  { nodes; residuals; res_weights; fallback; nvars; widen }

let residuals t = t.residuals
let residual_count t = Array.length t.residuals
let residual_weights t = Array.copy t.res_weights
let is_exact t = residual_count t = 0

(* One pass over the topologically ordered nodes. *)
let eval vals nodes =
  let n = Array.length nodes in
  let v = Array.make n 0. in
  for i = 0 to n - 1 do
    v.(i) <-
      (match nodes.(i) with
      | Lineage.Const p -> p
      | Res r -> vals.(r)
      | Sum bs -> Array.fold_left (fun acc (w, c) -> acc +. (w *. v.(c))) 0. bs
      | IndepOr cs ->
          1. -. Array.fold_left (fun acc c -> acc *. (1. -. v.(c))) 1. cs)
  done;
  v.(n - 1)

let value t vals =
  if Array.length vals <> Array.length t.residuals then
    invalid_arg "Compile.value: one estimate per residual expected";
  eval vals t.nodes

let exact_value t = if is_exact t then Some (eval [||] t.nodes) else None
let size t = Array.length t.nodes

type outcome = {
  value : float;
  trials : int;
  residual_mass : float;
  lo : float;
  hi : float;
  achieved_eps : float;
  complete : bool;
}

(* Worst-case estimator calls to answer [dnf] at relative [eps], failure
   [delta] — the fixed Chernoff budget the adaptive sampler is capped at. *)
let cost_cap dnf ~eps ~delta =
  if Dnf.is_trivially_false dnf || Dnf.is_trivially_true dnf then 0
  else if Dnf.clause_count dnf = 1 then 0
  else Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps ~delta

(* A float at least the residual's probability: min(1, M̂ᵢ) raised past
   the rounding of M̂ᵢ, a sum of m clause weights of at most V factors each
   (see the rounding lemma in compile.mli). *)
let residual_ub t dnf =
  let m = Dnf.total_weight dnf in
  let k = (5 * t.nvars) + Dnf.clause_count dnf in
  if m >= 1. || k > 1 lsl 31 then 1.
  else Float.min 1. (Float.succ (m +. (float_of_int k *. 0x1p-51)))

let vacuous_interval t =
  if is_exact t then
    let v = eval [||] t.nodes in
    (v, v)
  else
    (* The monotone DAG at the residual extremes: the lower endpoint is the
       exact compiled mass — what the tuple is worth with every residual
       written off — and the upper endpoint charges each residual its full
       a-priori mass min(1, Mᵢ).  Both are then moved outward past the
       rounding lemma's bound, each subtraction and addition itself rounded
       outward by one ulp. *)
    let zeros = Array.map (fun _ -> 0.) t.residuals in
    let ubs = Array.map (residual_ub t) t.residuals in
    ( Float.max 0. (Float.pred (eval zeros t.nodes -. t.widen)),
      Float.min 1. (Float.succ (eval ubs t.nodes +. t.widen)) )

(* Per-residual sampling results are Karp_luby's partial records: estimate,
   sound interval, relative error certified at the residual's δ share
   (0 = exact, infinity = vacuous) and whether its own (ε, δ) ask was met. *)
open Karp_luby

(* A residual whose sampling died: its a-priori interval [0, min(1, Mᵢ)]
   and no certified error. *)
let vacuous_partial t dnf =
  { p_estimate = 0.; p_lo = 0.; p_hi = residual_ub t dnf; p_trials = 0;
    p_eps = Float.infinity; p_complete = false }

(* One contained adaptive pass over a residual.  Any estimator failure
   (injected or real) degrades that residual to its vacuous interval instead
   of aborting the tuple. *)
let sample_residual ?budget rng t trials dnf ~eps ~delta =
  match adaptive_partial ?budget rng dnf ~eps ~delta with
  | p ->
      trials := !trials + p.p_trials;
      p
  | exception _ -> vacuous_partial t dnf

(* One pass per residual at (eps, δ/r): by the error propagation lemma and
   the union bound it certifies the root at relative [eps] when every
   residual meets its own contract.  A budget only cuts passes short:
   every pass charges the shared governor.  Returns (per-residual results,
   trials, complete). *)
let solve_residuals ?budget rng t ~eps ~delta =
  let d = delta /. float_of_int (Array.length t.residuals) in
  let trials = ref 0 in
  let rrs =
    Array.map
      (fun dnf -> sample_residual ?budget rng t trials dnf ~eps ~delta:d)
      t.residuals
  in
  (rrs, !trials, Array.for_all (fun rr -> rr.p_complete) rrs)

(* A sampled estimate and the bracket it reports: the bracket is cut to
   [0, 1] and the estimate clamped into it.  The estimate of a sum of
   residuals can leave the intersection of their brackets (or exceed 1);
   clamping only moves it toward any truth inside the bracket, so its
   relative-ε claim still holds whenever the bracket does. *)
let bracketed v ~lo ~hi =
  let lo = Float.min 1. (Float.max 0. lo) in
  let hi = Float.max lo (Float.min 1. hi) in
  (Float.min hi (Float.max lo v), lo, hi)

(* Assemble the tuple outcome from per-residual results.  The interval
   holds whenever every residual's does: the monotone DAG maps sound
   per-residual intervals to a sound root interval, and on a complete pass
   the relative-ε claim [v/(1+ε), v/(1−ε)] is intersected in. *)
let assemble t rrs ~eps ~trials ~complete =
  let v = eval (Array.map (fun rr -> rr.p_estimate) rrs) t.nodes in
  let lo = eval (Array.map (fun rr -> rr.p_lo) rrs) t.nodes in
  let hi = eval (Array.map (fun rr -> rr.p_hi) rrs) t.nodes in
  let lo, hi =
    if complete then
      ( Float.max lo (v /. (1. +. eps)),
        if eps >= 1. then hi else Float.min hi (v /. (1. -. eps)) )
    else (lo, hi)
  in
  let value, lo, hi = bracketed v ~lo ~hi in
  let mass = ref 0. in
  Array.iteri
    (fun i rr -> mass := !mass +. (t.res_weights.(i) *. rr.p_estimate))
    rrs;
  let achieved_eps =
    if complete then eps
    else Array.fold_left (fun acc rr -> Float.max acc rr.p_eps) 0. rrs
  in
  { value;
    trials;
    residual_mass = Float.min value !mass;
    lo;
    hi;
    achieved_eps;
    complete }

let exact_outcome v =
  { value = v; trials = 0; residual_mass = 0.; lo = v; hi = v;
    achieved_eps = 0.; complete = true }

(* The truncation-guard path samples the whole normalized DNF instead of the
   residual leaves; the compiled bracket [dag_lo, dag_hi] still bounds the
   answer when that sampling fails or runs out of budget. *)
let fallback_outcome ~dag_lo ~dag_hi partial =
  let value, lo, hi =
    bracketed partial.p_estimate ~lo:(Float.max dag_lo partial.p_lo)
      ~hi:(Float.min dag_hi partial.p_hi)
  in
  { value;
    trials = partial.p_trials;
    residual_mass = value;
    lo;
    hi;
    achieved_eps = partial.p_eps;
    complete = partial.p_complete }

(* The zero-trial certificate: the harmonic mean h = 2·lo·hi/(lo + hi) is
   within relative a = (hi − lo)/(hi + lo) of every point of [lo, hi].  In
   floats, h̃ = lo·(2·hi/(lo + hi)) takes three roundings of normal numbers
   (lo is normal and the ratio lies in [1, 2]), so it is within 3.01u of h
   and within a + 6.02u of every point; ã is within 3.01u of a.  [achieved]
   adds 2⁻⁴⁹ = 16u, at least 14.9u after its own rounding, so it bounds the
   estimate's true relative error.  Clamping into [lo, hi] only moves the
   estimate toward every point of the bracket. *)
let certified ~dag_lo:lo ~dag_hi:hi ~eps =
  if lo < Float.min_float then None
  else
    let achieved = ((hi -. lo) /. (hi +. lo)) +. 0x1p-49 in
    if achieved > eps then None
    else
      let value = Float.min hi (Float.max lo (lo *. (2. *. hi /. (lo +. hi)))) in
      Some
        { value; trials = 0; residual_mass = value -. lo; lo; hi;
          achieved_eps = achieved; complete = true }

(* Sampling, once the bracket [dag_lo, dag_hi] has not certified ε. *)
let sampled ?budget rng t ~dag_lo ~dag_hi ~eps ~delta =
  let r = Array.length t.residuals in
  (* Truncation guard: Shannon cut-off can leave residual leaves whose
     combined worst-case budget exceeds just sampling the original DNF
     (clauses get duplicated across branches).  Compare the caps and take
     whichever problem is cheaper — compilation must pay for itself.  The
     residuals are priced at δ/2r, above the δ/r their pass spends, which
     leans toward the fallback. *)
  let compiled_cap =
    let d = delta /. 2. /. float_of_int r in
    Array.fold_left
      (fun acc dnf -> Stats.saturating_add acc (cost_cap dnf ~eps ~delta:d))
      0 t.residuals
  in
  (* The fallback DNF has two or more clauses, none of them empty, so its
     cap is the plain Chernoff count; it is prepared only when taken. *)
  match t.fallback with
  | Some (w, clauses)
    when Stats.karp_luby_trials ~clauses:(List.length clauses) ~eps ~delta
         < compiled_cap -> (
      match adaptive_partial ?budget rng (Dnf.prepare w clauses) ~eps ~delta with
      | partial -> fallback_outcome ~dag_lo ~dag_hi partial
      | exception _ ->
          (* Sampling the fallback died outright: all that remains sound
             is the compiled bracket. *)
          { value = dag_lo; trials = 0; residual_mass = 0.; lo = dag_lo;
            hi = dag_hi; achieved_eps = (dag_hi -. dag_lo) /. 2.;
            complete = false })
  | _ ->
      let rrs, trials, complete = solve_residuals ?budget rng t ~eps ~delta in
      assemble t rrs ~eps ~trials ~complete

let solve_lane ?budget lane t ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Compile.solve";
  if is_exact t then exact_outcome (eval [||] t.nodes)
  else
    let dag_lo, dag_hi = vacuous_interval t in
    match certified ~dag_lo ~dag_hi ~eps with
    | Some o -> o
    | None -> sampled ?budget (lane ()) t ~dag_lo ~dag_hi ~eps ~delta

let solve ?budget rng t ~eps ~delta =
  solve_lane ?budget (fun () -> rng) t ~eps ~delta
