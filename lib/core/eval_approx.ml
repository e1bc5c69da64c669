open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred

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

(* Per-data-tuple annotation of Lemma 6.4: the accumulated error bound μ,
   and whether a budget-limited decision lies in the tuple's provenance.  A
   tuple without one is reliable. *)
type cell = { mu : float; suspect : bool }

let cap x = Float.min 0.5 x

(* Two provenance tuples of one result tuple: their bounds sum (capped at
   0.5) and either one's suspicion carries over. *)
let merge x y = { mu = cap (x.mu +. y.mu); suspect = x.suspect || y.suspect }

(* A walked subquery with its cells, one per annotated data tuple. *)
type node = cell Provenance.table Eval_exact.node

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

let sigma_hat_eval ?budget ?compile_fuel ~eps0 ~max_rounds ~sigma_delta ~rng
    ~stats w
    { Ua.phi; conf_args; input = _ } (input : node) : node =
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
  (* Error contribution of the input per candidate: for each conf argument,
     one hash pass maps a key to the input tuples projecting onto it, whose
     μ the candidate sums.  Each group keeps [possible_tuples] order, so the
     sums add in the order a scan would. *)
  let input_index =
    let rev_poss = List.rev (Urelation.possible_tuples u) in
    List.map
      (fun attrs ->
        let in_pos = positions schema attrs in
        let index = Tuple.Table.create 64 in
        List.iter
          (fun s ->
            let k = Tuple.project s in_pos in
            Tuple.Table.replace index k (s :: lookup index k))
          rev_poss;
        index)
      conf_args
  in
  let selected = ref [] in
  let cells = ref [] in
  Relation.iter
    (fun cand ->
      let keys = List.map (Tuple.project cand) arg_positions in
      (* [clauses_for]'s descending clause order fixes [Dnf.prepare]'s, and
         with it every sampled bit. *)
      let estimators =
        Array.of_list
          (List.map2
             (fun branch key ->
               Pqdb_montecarlo.Estimator.create
                 (Pqdb_montecarlo.Dnf.prepare w
                    (Urelation.clauses_for branch key)))
             branches keys)
      in
      let decision =
        Predicate_approx.decide ?budget ?compile_fuel ~eps0 ?max_rounds ~rng
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
              match Provenance.find_opt input.ann s with
              | None -> ()
              | Some c ->
                  input_contrib := !input_contrib +. c.mu;
                  if c.suspect then inherited_suspect := true)
            (lookup index key))
        input_index keys;
      let err = cap (decision.error_bound +. !input_contrib) in
      let suspect =
        decision.hit_round_limit || decision.used_floor || !inherited_suspect
      in
      (* Suspects are recorded whether or not the tuple was selected: a
         rejected boundary tuple is exactly the "absent from the result"
         error the caller should know about. *)
      let mu = if decision.value then err else 0. in
      if mu > 0. || suspect then cells := (cand, { mu; suspect }) :: !cells;
      if decision.value then selected := (Assignment.empty, cand) :: !selected)
    candidates;
  (* Relation.iter visits the candidates in ascending order. *)
  {
    urel = Urelation.of_array cand_schema (Array.of_list (List.rev !selected));
    ann = Provenance.of_ascending (Array.of_list (List.rev !cells));
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

let aconf_eval ?budget ?stream ?compile_fuel ~aconf_ord ~rng ~stats w
    { Ua.eps; delta }
    (a : node) : node =
  (* Streaming compiled batch: tuples are sharded by a-priori cost and
     compiled/solved shard-at-a-time (bounded resident memory, optional
     crash-recovery journal); tuples that decompose fully are answered
     exactly and only the residues are sampled, adaptively, over the
     domain pool.  Without a budget the estimates do not depend on the
     shard geometry; with one, each shard runs under its static slice of
     the allowance, dealt by cost when the run opens. *)
  let groups = Array.of_list (Urelation.clauses_by_tuple a.urel) in
  let n = Array.length groups in
  let estimates = Array.make n 0. and achieved = Array.make n 0. in
  let summary =
    Pqdb_montecarlo.Confidence.run_stream ?budget ?compile_fuel
      ?options:(stream_options_for stream aconf_ord) rng w
      (Array.map snd groups) ~eps ~delta
      ~emit:(fun (o : Pqdb_montecarlo.Shard.outcome) ->
        Array.blit o.estimates 0 estimates o.shard.first o.shard.count;
        Array.blit o.achieved 0 achieved o.shard.first o.shard.count)
  in
  stats.estimator_calls <-
    stats.estimator_calls + summary.Pqdb_montecarlo.Confidence.stream_trials;
  (* One row per group, for the relation and its cell; rows ascend. *)
  let rows =
    Array.mapi
      (fun i (t, _) ->
        Tuple.concat t (Tuple.of_list [ Value.Float estimates.(i) ]))
      groups
  in
  let cells =
    Array.mapi
      (fun i (t, _) ->
        let input = Provenance.find_opt a.ann t in
        (* The reported P is outside the ε-relative interval with
           probability at most δ on top of the input's membership error. *)
        let mu =
          match input with
          | Some c when c.mu > 0. -> cap (c.mu +. delta)
          | _ -> delta
        in
        (* Tuples the governor (or a contained failure) kept from reaching
           the requested ε are singularity-style suspects: their P value
           only carries the wider achieved bound (Section 6: unreliability
           is reported as added uncertainty, not as a crash). *)
        let suspect =
          (match input with Some c -> c.suspect | None -> false)
          || ((not summary.stream_complete) && achieved.(i) > eps)
        in
        (rows.(i), { mu; suspect }))
      groups
  in
  {
    urel = Eval_exact.with_p a.urel rows;
    ann = Provenance.of_ascending cells;
  }

(* Whether [q] holds an approximate operator (σ̂ or conf_{ε,δ}), refusing
   a repair-key above one (footnote 3). *)
let rec approximate q =
  match q with
  | Ua.Table _ | Ua.Lit _ -> false
  | Ua.ApproxConf (_, a) | Ua.ApproxSelect { input = a; _ } ->
      ignore (approximate a);
      true
  | Ua.RepairKey { query; _ } ->
      if approximate query then footnote_3 () else false
  | Ua.Select (_, a)
  | Ua.Project (_, a)
  | Ua.Rename (_, a)
  | Ua.Conf a
  | Ua.Poss a
  | Ua.Cert a ->
      approximate a
  | Ua.Product (a, b) | Ua.Join (a, b) | Ua.Union (a, b) | Ua.Diff (a, b) ->
      let left = approximate a in
      approximate b || left

let fresh_stats () = { decisions = 0; estimator_calls = 0; round_limit_hits = 0 }

let eval ?budget ?stream ?compile_fuel ?(eps0 = 0.05) ?max_rounds
    ?(sigma_delta = 0.05) ~rng udb q =
  let unreliable = approximate q in
  let stats = fresh_stats () in
  let aconf_ord = ref 0 in
  let w = Udb.wtable udb in
  let rules =
    {
      Eval_exact.leaf = (fun _ _ -> Provenance.empty);
      unary = Provenance.unary ~merge;
      binary = Provenance.binary ~merge;
      aconf =
        Some
          (aconf_eval ?budget ?stream ?compile_fuel ~aconf_ord ~rng ~stats w);
      sigma_hat =
        Some
          (sigma_hat_eval ?budget ?compile_fuel ~eps0 ~max_rounds ~sigma_delta
             ~rng ~stats w);
    }
  in
  let a = Eval_exact.walk rules udb q in
  ( {
      urel = a.urel;
      errors =
        Provenance.filter_map_along
          (fun t c -> Some (t, match c with Some c -> c.mu | None -> 0.))
          a.ann
          (Urelation.possible_tuples a.urel);
      suspects =
        List.filter_map
          (fun (t, c) -> if c.suspect then Some t else None)
          (Provenance.bindings a.ann);
      unreliable;
    },
    stats )

(* Active-domain size: distinct values across the base relations. *)
let active_domain_size udb =
  let module Seen = Hashtbl.Make (Value) in
  let seen = Seen.create 256 in
  List.iter
    (fun name ->
      List.iter
        (fun t -> List.iter (fun v -> Seen.replace seen v ()) (Tuple.to_list t))
        (Urelation.possible_tuples (Udb.find udb name)))
    (Udb.names udb);
  max 2 (Seen.length seen)

let eval_with_guarantee ?budget ?stream ?compile_fuel ?(eps0 = 0.05) ~rng
    ~delta udb q =
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
      eval ?budget ?stream ?compile_fuel ~eps0 ~max_rounds:l ~sigma_delta ~rng
        udb' q
    in
    accumulate stats;
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
