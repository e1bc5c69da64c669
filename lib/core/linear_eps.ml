module Apred = Pqdb_ast.Apred

type linear = { coeffs : float array; constant : float }

let eps_max = 1. -. 1e-9

let zero_linear arity = { coeffs = Array.make arity 0.; constant = 0. }

let is_constant l = Array.for_all (fun a -> a = 0.) l.coeffs

let map2_linear f a b =
  {
    coeffs = Array.init (Array.length a.coeffs) (fun i -> f a.coeffs.(i) b.coeffs.(i));
    constant = f a.constant b.constant;
  }

let scale s l =
  { coeffs = Array.map (fun a -> s *. a) l.coeffs; constant = s *. l.constant }

let rec of_expr ~arity (e : Apred.expr) =
  match e with
  | Apred.Var i ->
      let l = zero_linear arity in
      l.coeffs.(i) <- 1.;
      Some l
  | Apred.Const c -> Some { (zero_linear arity) with constant = c }
  | Apred.Add (a, b) -> begin
      match (of_expr ~arity a, of_expr ~arity b) with
      | Some la, Some lb -> Some (map2_linear ( +. ) la lb)
      | _ -> None
    end
  | Apred.Sub (a, b) -> begin
      match (of_expr ~arity a, of_expr ~arity b) with
      | Some la, Some lb -> Some (map2_linear ( -. ) la lb)
      | _ -> None
    end
  | Apred.Neg a ->
      Option.map (scale (-1.)) (of_expr ~arity a)
  | Apred.Mul (a, b) -> begin
      match (of_expr ~arity a, of_expr ~arity b) with
      | Some la, Some lb when is_constant la -> Some (scale la.constant lb)
      | Some la, Some lb when is_constant lb -> Some (scale lb.constant la)
      | _ -> None
    end
  | Apred.Div (a, b) -> begin
      match (of_expr ~arity a, of_expr ~arity b) with
      | Some la, Some lb when is_constant lb && lb.constant <> 0. ->
          Some (scale (1. /. lb.constant) la)
      | _ -> None
    end

let eval l point =
  let acc = ref l.constant in
  for i = 0 to Array.length l.coeffs - 1 do
    acc := !acc +. (l.coeffs.(i) *. point.(i))
  done;
  !acc

let clamp eps =
  if Float.is_nan eps then 0.
  else if eps < 0. then 0.
  else if eps > eps_max then eps_max
  else eps

(* l(x) >= 0, i.e. Σ aᵢxᵢ >= b with b = -constant.

   The minimum of Σ aᵢxᵢ over the relative orthotope
   Π[p̂ᵢ/(1+ε), p̂ᵢ/(1−ε)] is Σ₊ tᵢ/(1+ε) + Σ₋ tᵢ/(1−ε) with tᵢ = aᵢp̂ᵢ,
   which is strictly decreasing in ε, so feasibility (min ≥ b) is monotone
   and the maximal ε is the unique root in [0, 1) of the touching equation
   α − βε = b(1 − ε²) — the quadratic of Theorem 5.2 — or unbounded (clamped
   to eps_max) when that equation has no root below 1.

   Note an erratum in the paper here: it prescribes the *larger* quadratic
   root, but when all tᵢ share one sign (α = β) the larger root is the
   spurious ε = 1 while the true touching point is the smaller root
   (e.g. x ≥ 0.4 at p̂ = 0.5: roots {0.25, 1}, and ε must be 0.25). *)
let theorem_5_2 l point =
  let b = -.l.constant in
  let alpha = ref 0. and beta = ref 0. in
  for i = 0 to Array.length l.coeffs - 1 do
    let t = l.coeffs.(i) *. point.(i) in
    alpha := !alpha +. t;
    beta := !beta +. Float.abs t
  done;
  let alpha = !alpha and beta = !beta in
  if beta = 0. then
    (* No effective coefficient: the predicate value cannot change inside any
       relative orthotope around the point. *)
    if 0. >= b then eps_max else 0.
  else if alpha < b then 0. (* the inequality does not even hold at p̂ *)
  else if b = 0. then clamp (alpha /. beta)
  else begin
    let disc = Float.max 0. ((beta *. beta) -. (4. *. b *. (alpha -. b))) in
    let root = sqrt disc in
    let r1 = (beta -. root) /. (2. *. b) and r2 = (beta +. root) /. (2. *. b) in
    (* The smallest admissible root, folded from 1 in root order. *)
    match (r1 >= 0. && r1 < 1., r2 >= 0. && r2 < 1.) with
    | false, false -> eps_max (* feasible on every admissible orthotope *)
    | true, false -> clamp (Float.min 1. r1)
    | false, true -> clamp (Float.min 1. r2)
    | true, true -> clamp (Float.min (Float.min 1. r1) r2)
  end

(* Orient the comparison so that we always hand Theorem 5.2 an inequality
   that is true at the point, measuring how far the atom's current truth
   value extends.  The affine form l = lhs - rhs and its negation are built
   once; the returned function only evaluates them. *)
let prepare_atom ~arity cmp lhs rhs =
  match (of_expr ~arity lhs, of_expr ~arity rhs) with
  | Some ll, Some lr ->
      let l = map2_linear ( -. ) ll lr in
      let neg_l = scale (-1.) l in
      (* [theorem_5_2 l] measures l ≥ 0 and [theorem_5_2 neg_l] l ≤ 0; they
         are called directly so that a call builds no closure. *)
      Some
        (fun point ->
          let v = eval l point in
          match (cmp, v >= 0.) with
          | (Apred.Ge | Apred.Gt), true | (Apred.Le | Apred.Lt), false ->
              theorem_5_2 l point
          | (Apred.Ge | Apred.Gt), false | (Apred.Le | Apred.Lt), true ->
              theorem_5_2 neg_l point
          | Apred.Eq, _ ->
              (* Off the hyperplane the atom is false and stays false while
                 the sign of l is preserved, which is what the two radii
                 measure; on it both half-space radii are 0. *)
              if v = 0. then
                Float.min (theorem_5_2 l point) (theorem_5_2 neg_l point)
              else if v > 0. then theorem_5_2 l point
              else theorem_5_2 neg_l point
          | Apred.Neq, _ ->
              if v = 0. then 0. (* equality holds: a singularity for Neq *)
              else if v > 0. then theorem_5_2 l point
              else theorem_5_2 neg_l point)
  | _ -> None
