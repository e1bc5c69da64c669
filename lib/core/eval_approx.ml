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

(* Internal annotated relation: per-data-tuple error bound and suspect set. *)
type ann = {
  au : Urelation.t;
  mu : float TMap.t;
  susp : TSet.t;
  unrel : bool;
}

let mu_of ann t = Option.value ~default:0. (TMap.find_opt t ann.mu)
let cap x = Float.min 0.5 x

let add_mu map t v =
  if v <= 0. then map
  else
    TMap.update t
      (function None -> Some (cap v) | Some old -> Some (cap (old +. v)))
      map

let reliable au = { au; mu = TMap.empty; susp = TSet.empty; unrel = false }

let max_error r =
  List.fold_left (fun acc (_, e) -> Float.max acc e) 0. r.errors

let error_of r t =
  List.fold_left
    (fun acc (s, e) -> if Tuple.equal s t then Float.max acc e else acc)
    0. r.errors

(* Projection positions of [attrs] within [schema]. *)
let positions schema attrs = List.map (Schema.index schema) attrs

let project_mu ~out_of ann =
  (* out_of : input tuple -> output tuple *)
  TMap.fold (fun t v acc -> add_mu acc (out_of t) v) ann.mu TMap.empty

let sigma_hat_eval ?budget ~eps0 ~max_rounds ~sigma_delta ~rng ~stats w
    { Ua.phi; conf_args; input = _ } input_ann =
  let u = input_ann.au in
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
  (* Error contribution of the input per candidate: for each conf argument,
     the summed μ of input tuples projecting onto the candidate's key. *)
  let input_poss = Urelation.possible_tuples u in
  let in_positions = List.map (fun attrs -> positions schema attrs) conf_args in
  let selected = ref [] in
  let mu = ref TMap.empty in
  let susp = ref TSet.empty in
  Relation.iter
    (fun cand ->
      let estimators =
        Array.of_list
          (List.map2
             (fun branch pos ->
               let key = Tuple.project cand pos in
               let clauses = Urelation.clauses_for branch key in
               Pqdb_montecarlo.Estimator.create
                 (Pqdb_montecarlo.Dnf.prepare w clauses))
             branches arg_positions)
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
      List.iteri
        (fun i in_pos ->
          let key = Tuple.project cand (List.nth arg_positions i) in
          List.iter
            (fun s ->
              if Tuple.equal (Tuple.project s in_pos) key then begin
                input_contrib := !input_contrib +. mu_of input_ann s;
                if TSet.mem s input_ann.susp then inherited_suspect := true
              end)
            input_poss)
        in_positions;
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
    au = Urelation.make cand_schema !selected;
    mu = !mu;
    susp = !susp;
    unrel = true;
  }

(* Per-output-tuple bounds and suspects of a product or join, recomputed
   from the possible tuples of both sides (Lemma 6.4(1): sum over
   provenance). *)
let provenance_bounds kind a b =
  let sa = Urelation.schema a.au and sb = Urelation.schema b.au in
  let shared = Schema.common sa sb in
  let sa_shared = positions sa shared and sb_shared = positions sb shared in
  let sb_only =
    List.filter (fun x -> not (List.mem x shared)) (Schema.attributes sb)
  in
  let sb_only_pos = positions sb sb_only in
  let mu = ref TMap.empty and susp = ref TSet.empty in
  List.iter
    (fun ta ->
      List.iter
        (fun tb ->
          let matches =
            match kind with
            | `Product -> true
            | `Join ->
                Tuple.equal (Tuple.project ta sa_shared)
                  (Tuple.project tb sb_shared)
          in
          if matches then begin
            let out =
              match kind with
              | `Product -> Tuple.concat ta tb
              | `Join -> Tuple.concat ta (Tuple.project tb sb_only_pos)
            in
            let v = mu_of a ta +. mu_of b tb in
            mu := add_mu !mu out v;
            if TSet.mem ta a.susp || TSet.mem tb b.susp then
              susp := TSet.add out !susp
          end)
        (Urelation.possible_tuples b.au))
    (Urelation.possible_tuples a.au);
  (!mu, !susp)

let conf_row t p value_of = Tuple.concat t (Tuple.of_list [ value_of p ])

let conf_like a confs value_of =
  if Schema.mem (Urelation.schema a.au) "P" then
    raise
      (Eval_exact.Unsupported
         "conf: the input already has a P column; rename it first");
  let out_schema =
    Schema.of_list (Schema.attributes (Urelation.schema a.au) @ [ "P" ])
  in
  let rows =
    List.map
      (fun (t, p) -> (Assignment.empty, conf_row t p value_of))
      confs
  in
  let mu =
    List.fold_left
      (fun acc (t, p) -> add_mu acc (conf_row t p value_of) (mu_of a t))
      TMap.empty confs
  in
  let susp =
    List.fold_left
      (fun acc (t, p) ->
        if TSet.mem t a.susp then TSet.add (conf_row t p value_of) acc
        else acc)
      TSet.empty confs
  in
  { au = Urelation.make out_schema rows; mu; susp; unrel = a.unrel }

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

(* Structurally identical subexpressions denote the same relation: memoize
   so shared repair-keys create one set of variables and shared sigma-hats
   decide once. *)
let rec eval_ann ?budget ?stream ~aconf_ord ~cache ~eps0 ~max_rounds
    ~sigma_delta ~rng ~stats udb (q : Ua.t) : ann =
  let key = Format.asprintf "%a" Ua.pp q in
  match Hashtbl.find_opt cache key with
  | Some a -> a
  | None ->
      let a =
        eval_ann_raw ?budget ?stream ~aconf_ord ~cache ~eps0 ~max_rounds
          ~sigma_delta ~rng ~stats udb q
      in
      Hashtbl.replace cache key a;
      a

and eval_ann_raw ?budget ?stream ~aconf_ord ~cache ~eps0 ~max_rounds
    ~sigma_delta ~rng ~stats udb (q : Ua.t) : ann =
  let recur q =
    eval_ann ?budget ?stream ~aconf_ord ~cache ~eps0 ~max_rounds ~sigma_delta
      ~rng ~stats udb q
  in
  let w = Udb.wtable udb in
  match q with
  | Ua.Table _ | Ua.Lit _ -> reliable (Eval_exact.eval udb q)
  | Ua.Select (p, q) ->
      let a = recur q in
      { a with au = Translate.select p a.au }
  | Ua.Project (cols, q) ->
      let a = recur q in
      let in_schema = Urelation.schema a.au in
      let exprs = List.map fst cols in
      let out_of t =
        Tuple.of_list (List.map (Expr.eval in_schema t) exprs)
      in
      let au = Translate.project cols a.au in
      let susp =
        TSet.fold
          (fun t acc -> TSet.add (out_of t) acc)
          a.susp TSet.empty
      in
      { a with au; mu = project_mu ~out_of a; susp }
  | Ua.Rename (m, q) ->
      let a = recur q in
      { a with au = Translate.rename m a.au }
  | Ua.Product (l, r) -> binary ~recur `Product l r
  | Ua.Join (l, r) -> binary ~recur `Join l r
  | Ua.Union (l, r) ->
      let a = recur l and b = recur r in
      {
        au = Translate.union a.au b.au;
        mu = TMap.fold (fun t v acc -> add_mu acc t v) b.mu a.mu;
        susp = TSet.union a.susp b.susp;
        unrel = a.unrel || b.unrel;
      }
  | Ua.Diff (l, r) -> begin
      let a = recur l and b = recur r in
      match Translate.diff_complete a.au b.au with
      | au ->
          {
            au;
            mu = TMap.fold (fun t v acc -> add_mu acc t v) b.mu a.mu;
            susp = TSet.union a.susp b.susp;
            unrel = a.unrel || b.unrel;
          }
      | exception Invalid_argument _ ->
          raise
            (Eval_exact.Unsupported
               "difference is only supported on complete relations (use -c)")
    end
  | Ua.Conf q ->
      let a = recur q in
      let confs = Eval_exact.all_confidences w a.au in
      conf_like a confs (fun p -> Value.Rat p)
  | Ua.ApproxConf ({ eps; delta }, q) ->
      let a = recur q in
      (* Streaming compiled batch: tuples are sharded by a-priori cost and
         compiled/solved shard-at-a-time (bounded resident memory, optional
         crash-recovery journal); tuples that decompose fully are answered
         exactly and only the residues are sampled, adaptively, over the
         domain pool.  Without a budget this is bit-identical to the old
         materialized run; with one, the remaining allowance is split
         across shards proportionally to their cost. *)
      let groups = Urelation.clauses_by_tuple a.au in
      let estimates, cstats, _summary =
        Pqdb_montecarlo.Confidence.run_stream_with_stats ?budget
          ?options:(stream_options_for stream aconf_ord) rng w
          (Array.of_list (List.map snd groups))
          ~eps ~delta
      in
      stats.estimator_calls <-
        stats.estimator_calls
        + Array.fold_left ( + ) 0 cstats.Pqdb_montecarlo.Confidence.trials_used;
      let approx = List.mapi (fun i (t, _) -> (t, estimates.(i))) groups in
      let ann = conf_like a approx (fun p -> Value.Float p) in
      (* Tuples the governor (or a contained failure) kept from reaching the
         requested ε are singularity-style suspects: their P value only
         carries the wider achieved bound (Section 6: unreliability is
         reported as added uncertainty, not as a crash). *)
      let ann =
        if cstats.Pqdb_montecarlo.Confidence.complete then ann
        else
          let achieved = cstats.Pqdb_montecarlo.Confidence.achieved_eps in
          let susp =
            List.fold_left
              (fun acc (i, (t, _)) ->
                if achieved.(i) > eps then
                  TSet.add
                    (conf_row t estimates.(i) (fun p -> Value.Float p))
                    acc
                else acc)
              ann.susp
              (List.mapi (fun i g -> (i, g)) groups)
          in
          { ann with susp }
      in
      (* The reported P is outside the ε-relative interval with probability
         at most δ on top of the input's membership error. *)
      let mu =
        TMap.fold
          (fun t v acc -> TMap.add t (cap (v +. delta)) acc)
          ann.mu TMap.empty
      in
      let mu =
        List.fold_left
          (fun acc (t, p) ->
            let row = conf_row t p (fun p -> Value.Float p) in
            if TMap.mem row acc then acc else TMap.add row delta acc)
          mu approx
      in
      { ann with mu; unrel = true }
  | Ua.RepairKey { key; weight; query } -> begin
      let a = recur query in
      if a.unrel then
        raise
          (Eval_exact.Unsupported
             "repair-key above an approximate selection is not supported \
              (footnote 3)");
      match Translate.repair_key w ~key ~weight a.au with
      | au -> { a with au }
      | exception Invalid_argument msg -> raise (Eval_exact.Unsupported msg)
    end
  | Ua.Poss q ->
      let a = recur q in
      { a with au = Urelation.of_relation (Translate.poss a.au) }
  | Ua.Cert q ->
      let a = recur q in
      let certain =
        List.filter_map
          (fun (t, p) ->
            if Rational.equal p Rational.one then Some t else None)
          (Eval_exact.all_confidences w a.au)
      in
      {
        a with
        au =
          Urelation.of_relation
            (Relation.of_list (Urelation.schema a.au) certain);
      }
  | Ua.ApproxSelect sh ->
      let input_ann = recur sh.input in
      sigma_hat_eval ?budget ~eps0 ~max_rounds ~sigma_delta ~rng ~stats w sh
        input_ann

and binary ~recur kind l r =
  let a = recur l and b = recur r in
  let au =
    match kind with
    | `Product -> Translate.product a.au b.au
    | `Join -> Translate.join a.au b.au
  in
  let carries x = not (TMap.is_empty x.mu && TSet.is_empty x.susp) in
  let mu, susp =
    if carries a || carries b then provenance_bounds kind a b
    else
      (* Every provenance bound is 0 and nothing is suspect, so the sum is
         empty: skip its |a|×|b| scan. *)
      (TMap.empty, TSet.empty)
  in
  { au; mu; susp; unrel = a.unrel || b.unrel }

let fresh_stats () = { decisions = 0; estimator_calls = 0; round_limit_hits = 0 }

let result_of_ann a =
  let poss = Urelation.possible_tuples a.au in
  {
    urel = a.au;
    errors = List.map (fun t -> (t, mu_of a t)) poss;
    suspects = TSet.elements a.susp;
    unreliable = a.unrel;
  }

let eval ?budget ?stream ?(eps0 = 0.05) ?max_rounds ?(sigma_delta = 0.05) ~rng
    udb q =
  if Ua.has_sigma_hat_below_repair_key q then
    raise
      (Eval_exact.Unsupported
         "repair-key above an approximate selection is not supported \
          (footnote 3)");
  let stats = fresh_stats () in
  let cache = Hashtbl.create 64 in
  let aconf_ord = ref 0 in
  let a =
    eval_ann ?budget ?stream ~aconf_ord ~cache ~eps0 ~max_rounds ~sigma_delta
      ~rng ~stats udb q
  in
  (result_of_ann a, stats)

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

let eval_with_guarantee ?budget ?stream ?(eps0 = 0.05) ?(initial_rounds = 1)
    ~rng ~delta udb q =
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
      attempt ~first:false (min (Lazy.force l_cap) (2 * l)) (sigma_delta /. 2.)
  in
  attempt ~first:true (max 1 initial_rounds) delta
