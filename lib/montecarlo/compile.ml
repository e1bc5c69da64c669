open Pqdb_numeric
open Pqdb_urel

type outcome = {
  value : float;
  trials : int;
  residual_mass : float;
  lo : float;
  hi : float;
  claim : Guarantee.t;
}

type t = {
  size : int;  (* distinct DAG nodes *)
  sample : (Wtable.t * Lineage.t) option;
      (* the whole normalized DNF, the one problem [solve] samples; [None]
         when exact.  It is prepared only when sampled. *)
  apriori : outcome;
      (* the a-priori bracket ([vacuous_interval]), a point when exact; built
         once, so a batch reading it per warm memo hit allocates nothing *)
}

let make ~size ~lo ~hi sample =
  { size; sample;
    apriori =
      { value = lo; trials = 0; residual_mass = 0.; lo; hi;
        claim = (if sample = None then Guarantee.Exact else Guarantee.Bracket)
      } }

let default_fuel = 4096

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

(* A float at least the residual's probability: min(1, M̂ᵢ) raised past
   the rounding of M̂ᵢ, a sum of m clause weights of at most V factors each
   (see the rounding lemma in compile.mli), summed in {!Dnf.total_weight}'s
   order.  The residual's clauses are over [l]'s table. *)
let residual_ub ops l ~nvars set =
  let m = Array.fold_left (fun acc c -> acc +. Lineage.clause_weight ops l c) 0. set in
  let k = (5 * nvars) + Array.length set in
  if m >= 1. || k > 1 lsl 31 then 1.
  else Float.min 1. (Float.succ (m +. (float_of_int k *. 0x1p-51)))

(* The literal count bounds the rounding lemma's V from above, and the
   bound only grows with V, so no variable set is built. *)
let literals (p : Lineage.packed) =
  Array.fold_left (fun n c -> n + Array.length c) 0 p.clauses

(* w = (2D + 8)·u·(2V − 1) with u = 2⁻⁵³ over [p]'s V literals and
   domains, exact as a float while k·(2V − 1) ≤ 2³² — the lemma's range
   (w ≤ 2⁻²⁰), and 0 for no literal. *)
let widen w (p : Lineage.packed) =
  let nvars = literals p in
  let k = Array.fold_left (fun d x -> max d (Wtable.domain_size w x)) 1 p.vars + 4 in
  if nvars = 0 then 0.
  else if (2 * nvars) - 1 > (1 lsl 32) / k then Float.infinity
  else float_of_int (k * ((2 * nvars) - 1)) *. 0x1p-52

let rounding_bound dnf = widen (Dnf.wtable dnf) (Dnf.packed dnf)

let point p = make ~size:1 ~lo:p ~hi:p None

let of_lineage ?(fuel = default_fuel) w (lineage : Lineage.t) =
  let ops = Lineage.float_arith w in
  let dag = Lineage.decompose ~fuel ops w lineage in
  let nodes = dag.Lineage.nodes in
  let size = Array.length nodes in
  if dag.Lineage.residuals = [||] then
    let v = eval [||] nodes in
    make ~size ~lo:v ~hi:v None
  else begin
    let l = (lineage :> Lineage.packed) in
    let widen = widen w l in
    (* The monotone DAG at the residual extremes: the lower endpoint is the
       exact compiled mass — what the tuple is worth with every residual
       written off — and the upper endpoint charges each residual its full
       a-priori mass min(1, Mᵢ).  Both are then moved outward past the
       rounding lemma's bound, each subtraction and addition itself rounded
       outward by one ulp. *)
    let ubs = Array.map (residual_ub ops l ~nvars:(literals l)) dag.Lineage.residuals in
    let zeros = Array.map (fun _ -> 0.) ubs in
    make ~size
      ~lo:(Float.max 0. (Float.pred (eval zeros nodes -. widen)))
      ~hi:(Float.min 1. (Float.succ (eval ubs nodes +. widen)))
      (Some (w, lineage))
  end

(* A raw list of at most one clause is its own closed form: no packing. *)
let compile ?fuel w = function
  | [] -> point 0.
  | [ c ] -> point (Assignment.weight_float w c)
  | clauses -> of_lineage ?fuel w (Lineage.of_clauses clauses)

let is_exact t = t.sample = None
let exact_value t = if is_exact t then Some t.apriori.lo else None
let size t = t.size
let vacuous_interval t = (t.apriori.lo, t.apriori.hi)

let apriori t = t.apriori

let sampled_dnf t = Option.map (fun (w, l) -> Dnf.of_lineage w l) t.sample

(* The zero-trial certificate: the harmonic mean h = 2·lo·hi/(lo + hi) is
   within relative a = (hi − lo)/(hi + lo) of every point of [lo, hi].  In
   floats, h̃ = lo·(2·hi/(lo + hi)) takes three roundings of normal numbers
   (lo is normal and the ratio lies in [1, 2]), so it is within 3.01u of h
   and within a + 6.02u of every point; ã is within 3.01u of a.  [proven]
   adds 2⁻⁴⁹ = 16u, at least 14.9u after its own rounding, so it bounds the
   estimate's true relative error.  Clamping into [lo, hi] only moves the
   estimate toward every point of the bracket. *)
let certified (t : t) ~eps =
  let { lo; hi; _ } = t.apriori in
  if lo < Float.min_float then None
  else
    let proven = ((hi -. lo) /. (hi +. lo)) +. 0x1p-49 in
    if proven > eps then None
    else
      let value = Float.min hi (Float.max lo (lo *. (2. *. hi /. (lo +. hi)))) in
      Some
        { value; trials = 0; residual_mass = value -. lo; lo; hi;
          claim = Guarantee.Certain proven }

(* The sampled DNF has two or more clauses, none of them empty, so its cap
   is the plain Chernoff count; a certified bracket samples nothing. *)
let cost_cap t ~eps ~delta =
  match t.sample with
  | Some (_, l) when certified t ~eps = None ->
      Stats.karp_luby_trials ~clauses:(Array.length (l :> Lineage.packed).clauses)
        ~eps ~delta
  | _ -> 0

(* One adaptive pass over the whole normalized DNF, its interval intersected
   with the compiled bracket [lo, hi], which still bounds the answer
   when sampling fails or runs out of budget.  The bracket is cut to
   [0, 1] and the estimate clamped into it: clamping only moves it toward
   any truth inside the bracket, so its relative-ε claim still holds
   whenever the bracket does. *)
let sampled ?budget rng (t : t) w l ~eps ~delta =
  match Karp_luby.adaptive_partial ?budget rng (Dnf.of_lineage w l) ~eps ~delta with
  | p ->
      let { lo; hi; _ } = t.apriori in
      let lo = Float.min 1. (Float.max 0. (Float.max lo p.Karp_luby.p_lo)) in
      let hi = Float.max lo (Float.min 1. (Float.min hi p.p_hi)) in
      let value = Float.min hi (Float.max lo p.p_estimate) in
      { value; trials = p.p_trials; residual_mass = value; lo; hi;
        claim = p.p_claim }
  | exception _ ->
      (* Sampling died outright: all that remains sound is the compiled
         bracket. *)
      t.apriori

let solve_lane ?budget lane t ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Compile.solve";
  match t.sample with
  | None -> t.apriori
  | Some (w, l) -> (
      match certified t ~eps with
      | Some o -> o
      | None -> sampled ?budget (lane ()) t w l ~eps ~delta)

let solve ?budget rng t ~eps ~delta =
  solve_lane ?budget (fun () -> rng) t ~eps ~delta
