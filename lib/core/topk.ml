open Pqdb_relational
open Pqdb_urel
module Estimator = Pqdb_montecarlo.Estimator
module Dnf = Pqdb_montecarlo.Dnf
module Compile = Pqdb_montecarlo.Compile

type result = {
  ranked : (Tuple.t * float) list;
  certified : bool;
  estimator_calls : int;
  rounds : int;
  exact_candidates : int;
  sampled : (Tuple.t * int) list;
}

type candidate = {
  tuple : Tuple.t;
  comp : Compile.t;
  ests : Estimator.t array;  (* one incremental sampler per residual *)
  mutable lo : float;
  mutable hi : float;
}

(* Candidates whose lineage compiled away entirely — or whose residuals are
   all degenerate/single-clause — are exact: their intervals are points and
   they must never be refined. *)
let is_exact_candidate c =
  Array.for_all
    (fun est ->
      Estimator.is_degenerate est || Dnf.clause_count (Estimator.dnf est) = 1)
    c.ests

(* Plug current point estimates into the compiled tree.  Residual samplers
   with no trials yet report 0, which is fine: [update_interval] still spans
   the truth, and [current_value] is only used for ordering. *)
let current_value c =
  Compile.value c.comp (Array.map Estimator.estimate c.ests)

let eps_at c ~delta_r =
  Array.fold_left
    (fun acc est -> Float.max acc (Estimator.eps_bound est ~delta:delta_r))
    0. c.ests

let update_interval ~delta_r c =
  (* The compiled tree is monotone in every residual estimate, so plugging
     per-residual interval endpoints in gives sound per-tuple endpoints;
     each residual bound holds with probability 1 − δ_r, union bound over
     the r residuals gives 1 − δ_t per tuple. *)
  let intervals = Array.map (Estimator.interval ~delta:delta_r) c.ests in
  c.lo <- Float.max 0. (Compile.value c.comp (Array.map fst intervals));
  c.hi <- Float.min 1. (Compile.value c.comp (Array.map snd intervals))

let run ?budget ?(eps0 = 0.01) ?max_rounds ?compile_fuel ~rng ~delta ~k
    candidates =
  if k <= 0 then invalid_arg "Topk.run: k must be positive";
  if candidates = [] then invalid_arg "Topk.run: no candidates";
  let compiled =
    Array.of_list
      (List.map
         (fun (tuple, dnf) ->
           let comp =
             Compile.compile ?fuel:compile_fuel (Dnf.wtable dnf)
               (Dnf.clauses dnf)
           in
           let lo, hi =
             match Compile.exact_value comp with
             | Some p -> (p, p)
             | None -> Compile.vacuous_interval comp
           in
           (tuple, comp, lo, hi))
         candidates)
  in
  let n = Array.length compiled in
  let delta_t = delta /. float_of_int n in
  let k = min k n in
  let exact_candidates =
    Array.fold_left
      (fun acc (_, comp, _, _) ->
        if Compile.is_exact comp then acc + 1 else acc)
      0 compiled
  in
  (* A-priori prescreen: with θ the k-th largest compiled lower bound, a
     candidate whose upper bound sits strictly below θ can never enter the
     top k (k candidates are certified above it before any sampling), so it
     never gets samplers at all — clear losers cost compilation only.  The
     pruned ceiling [floor_hi] stays in the certification and contested-band
     arithmetic below, keeping the certificate sound: selected candidates
     must still be separated from the best pruned candidate. *)
  let floor_hi = ref 0. in
  let keep =
    if n <= k then Array.map (fun _ -> true) compiled
    else begin
      let los = Array.map (fun (_, _, lo, _) -> lo) compiled in
      Array.sort (fun a b -> compare b a) los;
      let theta = los.(k - 1) in
      Array.map
        (fun (_, _, _, hi) ->
          if hi < theta then begin
            floor_hi := Float.max !floor_hi hi;
            false
          end
          else true)
        compiled
    end
  in
  let cands =
    Array.of_list
      (List.filter_map
         (fun i ->
           if keep.(i) then begin
             let tuple, comp, lo, hi = compiled.(i) in
             let ests = Array.map Estimator.create (Compile.residuals comp) in
             Some { tuple; comp; ests; lo; hi }
           end
           else None)
         (List.init n Fun.id))
  in
  let floor_hi = !floor_hi in
  (* The k candidates defining θ all survive (their hi ≥ lo ≥ θ), so the
     kept pool never shrinks below k. *)
  let n = Array.length cands in
  let rounds = ref 0 in
  let delta_r c =
    delta_t /. float_of_int (max 1 (Array.length c.ests))
  in
  let rec loop () =
    Array.iter (fun c -> update_interval ~delta_r:(delta_r c) c) cands;
    (* Order by estimate; the k-th and (k+1)-th define the boundary. *)
    let order = Array.copy cands in
    Array.sort (fun a b -> compare (current_value b) (current_value a)) order;
    begin
      (* [rejected] may be empty (k = n after pruning): the certificate is
         then separation from the best pruned candidate, [floor_hi]. *)
      let selected = Array.sub order 0 k in
      let rejected = Array.sub order k (n - k) in
      let min_selected_lo =
        Array.fold_left (fun acc c -> Float.min acc c.lo) 1. selected
      in
      let max_rejected_hi =
        Array.fold_left (fun acc c -> Float.max acc c.hi) 0. rejected
        |> Float.max floor_hi
      in
      if min_selected_lo >= max_rejected_hi then (order, true)
      else begin
        (* Refine only the candidates whose interval crosses the contested
           band. *)
        let contested c = c.hi >= min_selected_lo && c.lo <= max_rejected_hi in
        let refinable =
          Array.to_list cands
          |> List.filter (fun c ->
                 contested c
                 && (not (is_exact_candidate c))
                 && eps_at c ~delta_r:(delta_r c) > eps0)
        in
        let out_of_budget =
          match budget with
          | Some b -> Pqdb_montecarlo.Budget.exhausted b
          | None -> false
        in
        match refinable with
        | [] -> (order, false) (* ties at the eps0 floor: uncertified *)
        | _ when out_of_budget ->
            (* Anytime exit: the current ranking with its (sound) intervals,
               explicitly uncertified. *)
            (order, false)
        | _ ->
            let before =
              match budget with
              | None -> 0
              | Some _ ->
                  Array.fold_left
                    (fun acc c ->
                      Array.fold_left
                        (fun acc est -> acc + Estimator.trials est)
                        acc c.ests)
                    0 cands
            in
            List.iter
              (fun c ->
                Array.iter
                  (fun est -> Estimator.step_round rng est)
                  c.ests)
              refinable;
            (match budget with
            | None -> ()
            | Some b ->
                let after =
                  Array.fold_left
                    (fun acc c ->
                      Array.fold_left
                        (fun acc est -> acc + Estimator.trials est)
                        acc c.ests)
                    0 cands
                in
                Pqdb_montecarlo.Budget.spend b (after - before));
            incr rounds;
            (match max_rounds with
            | Some limit when !rounds >= limit -> (order, false)
            | _ -> loop ())
      end
    end
  in
  let order, certified = loop () in
  let candidate_trials c =
    Array.fold_left (fun acc est -> acc + Estimator.trials est) 0 c.ests
  in
  let calls =
    Array.fold_left (fun acc c -> acc + candidate_trials c) 0 cands
  in
  {
    ranked =
      List.map
        (fun c -> (c.tuple, current_value c))
        (Array.to_list (Array.sub order 0 k));
    certified;
    estimator_calls = calls;
    rounds = !rounds;
    exact_candidates;
    sampled =
      Array.to_list cands
      |> List.filter_map (fun c ->
             let t = candidate_trials c in
             if t > 0 then Some (c.tuple, t) else None);
  }

let query ?budget ?eps0 ?max_rounds ?compile_fuel ~rng ~delta ~k udb q =
  let u = Eval_exact.eval udb q in
  let w = Udb.wtable udb in
  let candidates =
    List.map (fun (t, clauses) -> (t, Dnf.prepare w clauses))
      (Urelation.clauses_by_tuple u)
  in
  run ?budget ?eps0 ?max_rounds ?compile_fuel ~rng ~delta ~k candidates
