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
  { nodes; residuals; res_weights; fallback }

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

let residual_ub dnf = Float.min 1. (Dnf.total_weight dnf)

let vacuous_interval t =
  if is_exact t then
    let v = eval [||] t.nodes in
    (v, v)
  else
    (* The monotone DAG at the residual extremes: the lower endpoint is the
       exact compiled mass — what the tuple is worth with every residual
       written off — and the upper endpoint charges each residual its full
       a-priori mass min(1, Mᵢ). *)
    let zeros = Array.map (fun _ -> 0.) t.residuals in
    let ubs = Array.map residual_ub t.residuals in
    ( Float.max 0. (eval zeros t.nodes),
      Float.min 1. (eval ubs t.nodes) )

(* Per-residual sampling results are Karp_luby's partial records: estimate,
   sound interval, relative error certified at the residual's δ share
   (0 = exact, infinity = vacuous) and whether its own (ε, δ) ask was met. *)
open Karp_luby

(* A residual whose sampling died: its a-priori interval [0, min(1, Mᵢ)]
   and no certified error. *)
let vacuous_partial dnf =
  { p_estimate = 0.; p_lo = 0.; p_hi = residual_ub dnf; p_trials = 0;
    p_eps = Float.infinity; p_complete = false }

(* One contained adaptive pass over a residual.  Any estimator failure
   (injected or real) degrades that residual to its vacuous interval instead
   of aborting the tuple. *)
let sample_residual ?budget rng trials dnf ~eps ~delta =
  match adaptive_partial ?budget rng dnf ~eps ~delta with
  | p ->
      trials := !trials + p.p_trials;
      p
  | exception _ -> vacuous_partial dnf

(* One pass per residual at (eps, δ/r): by the error propagation lemma and
   the union bound it certifies the root at relative [eps] when every
   residual meets its own contract.  With a budget every pass charges the
   shared governor. *)
let single_pass ?budget rng t ~eps ~delta =
  let d = delta /. float_of_int (Array.length t.residuals) in
  let trials = ref 0 in
  let rrs =
    Array.map
      (fun dnf -> sample_residual ?budget rng trials dnf ~eps ~delta:d)
      t.residuals
  in
  (rrs, !trials, Array.for_all (fun rr -> rr.p_complete) rrs)

(* Returns (per-residual results, trials, complete): [complete] means the
   pass certifies the root at relative [eps] (error propagation lemma +
   union bound, or the exact-mass tightening argument below). *)
let solve_residuals rng t ~eps ~delta =
  if eps >= 0.5 then single_pass rng t ~eps ~delta
  else begin
    (* Exact-mass tightening.  Phase 1: coarse (ε₁ = ½) estimates of every
       residual, spending δ/2r each.  They yield, with probability
       ≥ 1 − δ/2:
         T_lo = value(p̂/1.5)   ≤ true tuple confidence   (monotone DAG)
         S_hi = 1.5·Σ wᵢ·p̂ᵢ    ≥ Σ wᵢ·pᵢ                  (sensitivity)
       Since |Δvalue| ≤ Σ wᵢ·|Δpᵢ| (the path weights bound the partial
       derivatives of the multilinear DAG), sampling every residual at
       relative ε₂ keeps the tuple error ≤ ε₂·Σwᵢpᵢ ≤ ε₂·S_hi.  So
       ε₂ = ε·T_lo/S_hi suffices for a relative-ε answer — the exact mass
       already in T_lo buys a looser, cheaper residual target.  Phase 2
       re-samples at (max ε ε₂, δ/2r); if ε₂ ≥ ½ the phase-1 estimates
       are already good enough and phase 2 is skipped.  A residual that
       failed in phase 1 contributes 0 to both bounds and is not
       re-sampled; one that fails in phase 2 keeps its (coarser) phase-1
       certificate.  Either failure voids the root's ε contract
       ([complete = false]) but never its interval. *)
    let r = Array.length t.residuals in
    let trials = ref 0 in
    let eps1 = 0.5 in
    let d = delta /. 2. /. float_of_int r in
    let p1 =
      Array.map (fun dnf -> sample_residual rng trials dnf ~eps:eps1 ~delta:d) t.residuals
    in
    let t_lo = eval (Array.map (fun rr -> rr.p_lo) p1) t.nodes in
    (* Per-residual absolute-error capacity a_i ≥ w_i·p_i (w.h.p.): sampling
       residual i at relative ε_i contributes ≤ a_i·ε_i to the root's
       absolute error.  Failed residuals are excluded (they void the ε
       contract anyway and are not re-sampled). *)
    let a =
      Array.mapi
        (fun i rr ->
          if rr.p_complete then (1. +. eps1) *. t.res_weights.(i) *. rr.p_estimate
          else 0.)
        p1
    in
    let s_hi = Array.fold_left ( +. ) 0. a in
    let e_total = eps *. t_lo in
    if s_hi <= 0. || e_total >= eps1 *. s_hi then
      (* Even a uniform ε₁ target fits inside ε·T_lo (or nothing was
         sampled): the coarse pass already certifies the root at ε. *)
      (p1, !trials, Array.for_all (fun rr -> rr.p_complete) p1)
    else begin
      (* Weight-aware targets.  Σ a_i·ε_i ≤ E = ε·T_lo keeps the root
         within relative ε (absolute error ≤ Σ w_i·p_i·ε_i ≤ Σ a_i·ε_i ≤
         ε·T_lo ≤ ε·v).  Under that constraint the trial spend Σ K_i/ε_i²
         (K_i = clause count, the Chernoff cost scale) is minimized by
         ε_i ∝ (K_i/a_i)^⅓ — cheap-but-heavy residuals get tight targets,
         expensive-but-light ones looser — instead of the uniform
         ε₂ = E/Σa_i split.  Targets are clamped to [ε, ε₁]: at ε₁ the
         phase-1 certificate already suffices (no re-sample); a target
         floored up to ε still charges a_i·ε against E (water-filling
         redistributes the rest), and when even the all-ε floor overruns E
         the allocation falls back to uniform ε — sound by the error
         propagation lemma alone, exactly the pre-weighted behaviour. *)
      let targets = Array.make r eps1 in
      if e_total <= eps *. s_hi then
        Array.iteri
          (fun i rr -> if rr.p_complete then targets.(i) <- eps)
          p1
      else begin
        let shape =
          Array.mapi
            (fun i rr ->
              if (not rr.p_complete) || a.(i) <= 0. then 0.
              else
                Float.pow
                  (float_of_int (Dnf.clause_count t.residuals.(i)) /. a.(i))
                  (1. /. 3.))
            p1
        in
        let floored = Array.make r false in
        let rec fill () =
          let e_free = ref e_total and denom = ref 0. in
          Array.iteri
            (fun i rr ->
              if rr.p_complete && a.(i) > 0. then
                if floored.(i) then e_free := !e_free -. (a.(i) *. eps)
                else denom := !denom +. (a.(i) *. shape.(i)))
            p1;
          if !denom > 0. then
            if !e_free <= 0. then
              (* infeasible: floor everything — the ε fallback below *)
              Array.iteri
                (fun i rr ->
                  if rr.p_complete && a.(i) > 0. then floored.(i) <- true)
                p1
            else begin
              let c = !e_free /. !denom in
              let changed = ref false in
              Array.iteri
                (fun i rr ->
                  if rr.p_complete && a.(i) > 0. && not floored.(i) then begin
                    let e_i = c *. shape.(i) in
                    if e_i < eps then begin
                      floored.(i) <- true;
                      changed := true
                    end
                    else targets.(i) <- Float.min eps1 e_i
                  end)
                p1;
              if !changed then fill ()
            end
        in
        fill ();
        Array.iteri (fun i f -> if f then targets.(i) <- eps) floored
      end;
      let rrs =
        Array.mapi
          (fun i rr1 ->
            if not rr1.p_complete then rr1
            else if targets.(i) >= eps1 then rr1
            else
              let rr2 =
                sample_residual rng trials t.residuals.(i) ~eps:targets.(i)
                  ~delta:d
              in
              if rr2.p_complete then rr2 else rr1)
          p1
      in
      let complete = ref true in
      Array.iteri
        (fun i rr ->
          if not (rr.p_complete && rr.p_eps <= targets.(i)) then
            complete := false)
        rrs;
      (rrs, !trials, !complete)
    end
  end

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
   always holds with probability ≥ 1 − δ: the monotone DAG maps sound
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
   residual leaves; the compiled DAG still brackets the answer when that
   sampling fails or runs out of budget. *)
let fallback_outcome t partial =
  let dag_lo, dag_hi = vacuous_interval t in
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

let solve ?budget rng t ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Compile.solve";
  let r = Array.length t.residuals in
  if r = 0 then exact_outcome (eval [||] t.nodes)
  else begin
    (* Truncation guard: Shannon cut-off can leave residual leaves whose
       combined worst-case budget exceeds just sampling the original DNF
       (clauses get duplicated across branches).  Compare the caps and take
       whichever problem is cheaper — compilation must pay for itself. *)
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
        | partial -> fallback_outcome t partial
        | exception _ ->
            (* Sampling the fallback died outright: all that remains sound
               is the compiled bracket. *)
            let lo, hi = vacuous_interval t in
            { value = lo; trials = 0; residual_mass = 0.; lo; hi;
              achieved_eps = (hi -. lo) /. 2.; complete = false })
    | _ ->
      let rrs, trials, complete =
        match budget with
        | None -> solve_residuals rng t ~eps ~delta
        | Some _ ->
            (* Budget-governed: residuals past the deadline come back with
               whatever interval their trials certify. *)
            single_pass ?budget rng t ~eps ~delta
      in
      assemble t rrs ~eps ~trials ~complete
  end
