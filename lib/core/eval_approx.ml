open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred

let log_src = Logs.Src.create "pqdb.eval" ~doc:"approximate query evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

module TMap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

module TSet = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type stats = {
  mutable decisions : int;
  mutable estimator_calls : int;
  mutable round_limit_hits : int;
}

type result = {
  urel : Urelation.t;
  errors : (Tuple.t * float) list;
  suspects : Tuple.t list;
  unreliable : bool;
}

(* Internal annotation: per-data-tuple error bound and suspect set. *)
type ann = { mu : float TMap.t; susp : TSet.t; unrel : bool }

let mu_of (a : ann Eval_exact.node) t =
  Option.value ~default:0. (TMap.find_opt t a.ann.mu)

let cap x = Float.min 0.5 x

let add_mu map t v =
  if v <= 0. then map
  else
    TMap.update t
      (function None -> Some (cap v) | Some old -> Some (cap (old +. v)))
      map

let reliable = { mu = TMap.empty; susp = TSet.empty; unrel = false }

let max_error r =
  List.fold_left (fun acc (_, e) -> Float.max acc e) 0. r.errors

let error_of r t =
  List.fold_left
    (fun acc (s, e) -> if Tuple.equal s t then Float.max acc e else acc)
    0. r.errors

(* Projection positions of [attrs] within [schema]. *)
let positions schema attrs = List.map (Schema.index schema) attrs

let footnote_3 () =
  raise
    (Eval_exact.Unsupported
       "repair-key above an approximate selection is not supported \
        (footnote 3)")

let sigma_hat_eval ?budget ~eps0 ~max_rounds ~sigma_delta ~rng ~stats w
    { Ua.phi; conf_args; input = _ } (input : ann Eval_exact.node) :
    ann Eval_exact.node =
  let u = input.urel in
  let schema = Urelation.schema u in
  let branches =
    List.map (fun attrs -> Translate.project_attrs attrs u) conf_args
  in
  let poss_branches = List.map Translate.poss branches in
  let candidates =
    match poss_branches with
    | [] -> invalid_arg "sigma-hat with no conf arguments"
    | first :: rest -> List.fold_left Algebra.join first rest
  in
  let cand_schema = Relation.schema candidates in
  let arg_positions =
    List.map (fun attrs -> positions cand_schema attrs) conf_args
  in
  let lookup index key =
    Option.value ~default:[] (Tuple.Table.find_opt index key)
  in
  (* One hash pass: key → the values of [xs] with that key, each group in
     the reverse of its order in [xs]. *)
  let group key value xs =
    let index = Tuple.Table.create 64 in
    List.iter
      (fun x ->
        let k = key x in
        Tuple.Table.replace index k (value x :: lookup index k))
      xs;
    index
  in
  (* Per conf argument, the branch's clauses by key.  Rows ascend, so each
     group is in descending row order — exactly [Urelation.clauses_for]'s
     order, which fixes [Dnf.prepare]'s clause order and with it every
     sampled bit. *)
  let clause_index =
    List.map (fun branch -> group snd fst (Urelation.rows branch)) branches
  in
  (* Error contribution of the input per candidate: for each conf argument,
     the summed μ of input tuples projecting onto the candidate's key.  Each
     group keeps [possible_tuples] order, so the sums add in the order a
     scan would. *)
  let input_index =
    let rev_poss = List.rev (Urelation.possible_tuples u) in
    List.map
      (fun attrs ->
        let in_pos = positions schema attrs in
        group (fun s -> Tuple.project s in_pos) Fun.id rev_poss)
      conf_args
  in
  let selected = ref [] in
  let mu = ref TMap.empty in
  let susp = ref TSet.empty in
  Relation.iter
    (fun cand ->
      let keys = List.map (Tuple.project cand) arg_positions in
      let estimators =
        Array.of_list
          (List.map2
             (fun index key ->
               Pqdb_montecarlo.Estimator.create
                 (Pqdb_montecarlo.Dnf.prepare w (lookup index key)))
             clause_index keys)
      in
      let decision =
        Predicate_approx.decide ?budget ~eps0 ?max_rounds ~rng
          ~delta:sigma_delta phi estimators
      in
      stats.decisions <- stats.decisions + 1;
      stats.estimator_calls <- stats.estimator_calls + decision.estimator_calls;
      if decision.hit_round_limit then
        stats.round_limit_hits <- stats.round_limit_hits + 1;
      (* Lemma 6.4(2): decision error + input membership errors. *)
      let input_contrib = ref 0. in
      let inherited_suspect = ref false in
      List.iter2
        (fun index key ->
          List.iter
            (fun s ->
              input_contrib := !input_contrib +. mu_of input s;
              if TSet.mem s input.ann.susp then inherited_suspect := true)
            (lookup index key))
        input_index keys;
      let err = cap (decision.error_bound +. !input_contrib) in
      let suspect =
        decision.hit_round_limit || decision.used_floor || !inherited_suspect
      in
      (* Suspects are recorded whether or not the tuple was selected: a
         rejected boundary tuple is exactly the "absent from the result"
         error the caller should know about. *)
      if suspect then susp := TSet.add cand !susp;
      if decision.value then begin
        selected := (Assignment.empty, cand) :: !selected;
        mu := add_mu !mu cand err
      end)
    candidates;
  {
    urel = Urelation.make cand_schema !selected;
    ann = { mu = !mu; susp = !susp; unrel = true };
  }

(* Each ApproxConf occurrence gets its own journal: the first keeps the
   caller's path untouched (the common single-aconf query), later ones get a
   deterministic [.aconf<k>] suffix.  Traversal order is deterministic and
   memoized subtrees consume one ordinal, so a resumed run numbers the nodes
   identically. *)
let stream_options_for stream aconf_ord =
  match stream with
  | None -> None
  | Some (o : Pqdb_montecarlo.Confidence.stream_options) ->
      let k = !aconf_ord in
      incr aconf_ord;
      let checkpoint =
        Option.map
          (fun p -> if k = 0 then p else Printf.sprintf "%s.aconf%d" p k)
          o.checkpoint
      in
      Some { o with checkpoint }

let aconf_eval ?budget ?stream ~aconf_ord ~rng ~stats w { Ua.eps; delta }
    (a : ann Eval_exact.node) : ann Eval_exact.node =
  (* Streaming compiled batch: tuples are sharded by a-priori cost and
     compiled/solved shard-at-a-time (bounded resident memory, optional
     crash-recovery journal); tuples that decompose fully are answered
     exactly and only the residues are sampled, adaptively, over the
     domain pool.  Without a budget the estimates do not depend on the
     shard geometry; with one, the remaining allowance is split across
     shards proportionally to their cost. *)
  let groups = Urelation.clauses_by_tuple a.urel in
  let n = List.length groups in
  let estimates = Array.make n 0. and achieved = Array.make n 0. in
  let summary =
    Pqdb_montecarlo.Confidence.run_stream ?budget
      ?options:(stream_options_for stream aconf_ord) rng w
      (Array.of_list (List.map snd groups))
      ~eps ~delta
      ~emit:(fun (o : Pqdb_montecarlo.Shard.outcome) ->
        Array.blit o.estimates 0 estimates o.shard.first o.shard.count;
        Array.blit o.achieved 0 achieved o.shard.first o.shard.count)
  in
  stats.estimator_calls <-
    stats.estimator_calls + summary.Pqdb_montecarlo.Confidence.stream_trials;
  let values =
    List.mapi (fun i (t, _) -> (t, Value.Float estimates.(i))) groups
  in
  let mu, susp, _ =
    List.fold_left
      (fun (mu, susp, i) (t, p) ->
        let row = Tuple.concat t (Tuple.of_list [ p ]) in
        (* The reported P is outside the ε-relative interval with
           probability at most δ on top of the input's membership error. *)
        let v = mu_of a t in
        let mu =
          TMap.add row (if v > 0. then cap (cap v +. delta) else delta) mu
        in
        (* Tuples the governor (or a contained failure) kept from reaching
           the requested ε are singularity-style suspects: their P value
           only carries the wider achieved bound (Section 6: unreliability
           is reported as added uncertainty, not as a crash). *)
        let suspect =
          TSet.mem t a.ann.susp
          || ((not summary.stream_complete) && achieved.(i) > eps)
        in
        (mu, (if suspect then TSet.add row susp else susp), i + 1))
      (TMap.empty, TSet.empty, 0)
      values
  in
  { urel = Eval_exact.with_p a.urel values; ann = { mu; susp; unrel = true } }

(* Per-operator bookkeeping of Lemma 6.4(1): a result tuple's bound is the
   sum over its provenance, and it is suspect when a provenance tuple is. *)
let unary q (a : ann Eval_exact.node) =
  match q with
  | Ua.RepairKey _ when a.ann.unrel -> footnote_3 ()
  | Ua.Project (cols, _) ->
      let in_schema = Urelation.schema a.urel in
      let exprs = List.map fst cols in
      let out_of t =
        Tuple.of_list (List.map (Expr.eval in_schema t) exprs)
      in
      fun _ ->
        {
          a.ann with
          mu =
            TMap.fold
              (fun t v acc -> add_mu acc (out_of t) v)
              a.ann.mu TMap.empty;
          susp = TSet.map out_of a.ann.susp;
        }
  | Ua.Conf _ ->
      (* Each output row is an input tuple plus its P. *)
      let data = List.init (Schema.arity (Urelation.schema a.urel)) Fun.id in
      fun urel ->
        let rows =
          List.map
            (fun row -> (Tuple.project row data, row))
            (Urelation.possible_tuples urel)
        in
        {
          a.ann with
          mu =
            List.fold_left
              (fun acc (t, row) -> add_mu acc row (mu_of a t))
              TMap.empty rows;
          susp =
            List.fold_left
              (fun acc (t, row) ->
                if TSet.mem t a.ann.susp then TSet.add row acc else acc)
              TSet.empty rows;
        }
  | _ -> fun _ -> a.ann

let binary q (a : ann Eval_exact.node) (b : ann Eval_exact.node) _urel =
  let unrel = a.ann.unrel || b.ann.unrel in
  let carries (x : ann Eval_exact.node) =
    not (TMap.is_empty x.ann.mu && TSet.is_empty x.ann.susp)
  in
  match q with
  | (Ua.Product _ | Ua.Join _) when not (carries a || carries b) ->
      (* Every provenance bound is 0 and nothing is suspect, so the sum is
         empty: skip its |a|×|b| scan. *)
      { reliable with unrel }
  | Ua.Product _ | Ua.Join _ ->
      let join = match q with Ua.Join _ -> true | _ -> false in
      let mu, susp =
        Eval_exact.fold_pairs ~join a.urel b.urel
          (fun ta tb out (mu, susp) ->
            ( add_mu mu out (mu_of a ta +. mu_of b tb),
              if TSet.mem ta a.ann.susp || TSet.mem tb b.ann.susp then
                TSet.add out susp
              else susp ))
          (TMap.empty, TSet.empty)
      in
      { mu; susp; unrel }
  | _ ->
      {
        mu = TMap.fold (fun t v acc -> add_mu acc t v) b.ann.mu a.ann.mu;
        susp = TSet.union a.ann.susp b.ann.susp;
        unrel;
      }

let fresh_stats () = { decisions = 0; estimator_calls = 0; round_limit_hits = 0 }

let eval ?budget ?stream ?(eps0 = 0.05) ?max_rounds ?(sigma_delta = 0.05) ~rng
    udb q =
  if Ua.has_sigma_hat_below_repair_key q then footnote_3 ();
  let stats = fresh_stats () in
  let aconf_ord = ref 0 in
  let w = Udb.wtable udb in
  let rules =
    {
      Eval_exact.leaf = (fun _ _ -> reliable);
      unary;
      binary;
      aconf = Some (aconf_eval ?budget ?stream ~aconf_ord ~rng ~stats w);
      sigma_hat =
        Some
          (sigma_hat_eval ?budget ~eps0 ~max_rounds ~sigma_delta ~rng ~stats w);
    }
  in
  let a = Eval_exact.walk rules udb q in
  ( {
      urel = a.urel;
      errors =
        List.map (fun t -> (t, mu_of a t)) (Urelation.possible_tuples a.urel);
      suspects = TSet.elements a.ann.susp;
      unreliable = a.ann.unrel;
    },
    stats )

(* Active-domain size: distinct values across the base relations. *)
let active_domain_size udb =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun name ->
      let u = Udb.find udb name in
      List.iter
        (fun t ->
          List.iter
            (fun v -> Hashtbl.replace seen (Value.to_string v) ())
            (Tuple.to_list t))
        (Urelation.possible_tuples u))
    (Udb.names udb);
  max 2 (Hashtbl.length seen)

let eval_with_guarantee ?budget ?stream ?(eps0 = 0.05) ~rng ~delta udb q =
  (* The Theorem 6.7 round cap only matters once an attempt misses δ, which
     a query whose one approximate operator is an aconf never does; the
     active-domain scan behind it is forced on that first miss. *)
  let l_cap =
    lazy
      (let k = max 1 (Ua.max_conf_width q) in
       let d = max 1 (Ua.nesting_depth q) in
       let n = active_domain_size udb in
       Stats.theorem_6_7_rounds ~eps0 ~delta ~k ~d ~n)
  in
  let total = fresh_stats () in
  let accumulate stats =
    total.decisions <- total.decisions + stats.decisions;
    total.estimator_calls <- total.estimator_calls + stats.estimator_calls;
    total.round_limit_hits <- total.round_limit_hits + stats.round_limit_hits
  in
  let rec attempt ~first l sigma_delta =
    let udb' = Udb.copy udb in
    (* Only the first attempt may replay a journal from a previous process:
       later doubling attempts can see different aconf inputs (σ̂ decisions
       shift memberships), so their journals must start fresh rather than
       fail the fingerprint check. *)
    let stream =
      if first then stream
      else
        Option.map
          (fun (o : Pqdb_montecarlo.Confidence.stream_options) ->
            { o with Pqdb_montecarlo.Confidence.resume = false })
          stream
    in
    let r, stats =
      eval ?budget ?stream ~eps0 ~max_rounds:l ~sigma_delta ~rng udb' q
    in
    accumulate stats;
    Log.debug (fun m ->
        m
          "doubling driver: l=%d sigma_delta=%g max_error=%g decisions=%d            calls=%d limit_hits=%d"
          l sigma_delta (max_error r) stats.decisions stats.estimator_calls
          stats.round_limit_hits);
    (* Tuples still failing at the Theorem 6.7 budget cap are exactly the
       (suspected) singular ones the theorem exempts; before the cap, a
       round-limit hit only means the budget was small.  The per-decision
       target shrinks along with the budget doubling because per-tuple
       bounds *sum* over the provenance (Lemma 6.4): a nested query needs
       decisions tighter than the overall delta. *)
    let budget_exhausted =
      match budget with
      | Some b -> Pqdb_montecarlo.Budget.exhausted b
      | None -> false
    in
    (* An exhausted governor ends the doubling: another attempt could not
       sample anyway, and the current result already carries sound (wider)
       bounds and suspects. *)
    if max_error r <= delta || budget_exhausted || l >= Lazy.force l_cap then
      (r, total, l)
    else
      attempt ~first:false
        (min (Lazy.force l_cap) (2 * l))
        (Pqdb_montecarlo.Guarantee.split sigma_delta 2)
  in
  attempt ~first:true 1 delta
