open Pqdb_relational
open Pqdb_urel
module Estimator = Pqdb_montecarlo.Estimator
module Compile = Pqdb_montecarlo.Compile
module Guarantee = Pqdb_montecarlo.Guarantee

type result = {
  ranked : (Tuple.t * float) list;
  claim : Guarantee.t;
  estimator_calls : int;
  rounds : int;
  exact_candidates : int;
  sampled : (Tuple.t * int) list;
}

let certified r = r.claim <> Guarantee.Bracket

type candidate = {
  tuple : Tuple.t;
  est : Estimator.t option;
      (* the one incremental sampler, over the whole normalized DNF; [None]
         when the lineage compiled exactly *)
  mutable lo : float;
  mutable hi : float;
}

(* A sampler with no trials yet reports 0, which is fine: [update_interval]
   still spans the truth, and [current_value] is only used for ordering. *)
let current_value c =
  match c.est with None -> c.lo | Some est -> Estimator.estimate est

let trials c = match c.est with None -> 0 | Some est -> Estimator.trials est

let update_interval ~delta_t c =
  match c.est with
  | None -> ()
  | Some est ->
      let lo, hi = Estimator.interval est ~delta:delta_t in
      c.lo <- Float.max 0. lo;
      c.hi <- Float.min 1. hi

let run ?budget ?(eps0 = 0.01) ?max_rounds ?compile_fuel ~rng ~delta ~k w
    candidates =
  if k <= 0 then invalid_arg "Topk.run: k must be positive";
  if candidates = [] then invalid_arg "Topk.run: no candidates";
  let compiled =
    Array.of_list
      (List.map
         (fun (tuple, clauses) ->
           let comp = Compile.compile ?fuel:compile_fuel w clauses in
           let lo, hi = Compile.vacuous_interval comp in
           (tuple, comp, lo, hi))
         candidates)
  in
  let n = Array.length compiled in
  let delta_t = Guarantee.split delta n in
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
             let est = Option.map Estimator.create (Compile.sampled_dnf comp) in
             Some { tuple; est; lo; hi }
           end
           else None)
         (List.init n Fun.id))
  in
  let floor_hi = !floor_hi in
  (* The k candidates defining θ all survive (their hi ≥ lo ≥ θ), so the
     kept pool never shrinks below k. *)
  let n = Array.length cands in
  let rounds = ref 0 in
  let total_trials () = Array.fold_left (fun acc c -> acc + trials c) 0 cands in
  let rec loop () =
    Array.iter (update_interval ~delta_t) cands;
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
                 &&
                 match c.est with
                 | None -> false
                 | Some est -> Estimator.eps_bound est ~delta:delta_t > eps0)
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
            let before = total_trials () in
            List.iter
              (fun c -> Option.iter (Estimator.step_round rng) c.est)
              refinable;
            Option.iter
              (fun b -> Pqdb_montecarlo.Budget.spend b (total_trials () - before))
              budget;
            incr rounds;
            (match max_rounds with
            | Some limit when !rounds >= limit -> (order, false)
            | _ -> loop ())
      end
    end
  in
  let order, certified = loop () in
  (* The certificate rests on every candidate's interval at once: a sampled
     one holds except with δ/n, a pruned bracket and an exact value
     always. *)
  let claim =
    if not certified then Guarantee.Bracket
    else
      Array.fold_left Guarantee.union Guarantee.Exact
        (Array.mapi
           (fun i (_, comp, _, _) ->
             if Compile.is_exact comp then Guarantee.Exact
             else if keep.(i) then Sampled { eps = 0.; delta = delta_t }
             else Certain 0.)
           compiled)
  in
  {
    ranked =
      List.map
        (fun c -> (c.tuple, current_value c))
        (Array.to_list (Array.sub order 0 k));
    claim;
    estimator_calls = total_trials ();
    rounds = !rounds;
    exact_candidates;
    sampled =
      Array.to_list cands
      |> List.filter_map (fun c ->
             let t = trials c in
             if t > 0 then Some (c.tuple, t) else None);
  }

let query ?budget ?eps0 ?max_rounds ?compile_fuel ~rng ~delta ~k udb q =
  let u = Eval_exact.eval udb q in
  let w = Udb.wtable udb in
  run ?budget ?eps0 ?max_rounds ?compile_fuel ~rng ~delta ~k w
    (Urelation.clauses_by_tuple u)
