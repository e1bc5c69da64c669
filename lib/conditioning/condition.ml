module Pqdb_error = Pqdb_runtime.Pqdb_error
module Ua = Pqdb_ast.Ua
module Uconstraint = Pqdb_ast.Uconstraint
open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
open Pqdb_montecarlo

type compiled = {
  set : Constraint_set.t;
  positive : Assignment.t list;
  violation : Assignment.t list;
}

let constraints c = c.set

(* DNF conjunction: the clause-set product, dropping inconsistent pairs.
   [Assignment.union] is exactly "both clauses hold in the same world".
   The trivially-true DNF [{∅}] short-circuits so that conditioning on an
   empty constraint set leaves a tuple's lineage (and hence its cache keys)
   untouched. *)
let conjoin a b =
  match (a, b) with
  | [ x ], other when Assignment.is_empty x -> other
  | other, [ x ] when Assignment.is_empty x -> other
  | _ ->
      Lineage.normalize
        (List.concat_map
           (fun ca -> List.filter_map (fun cb -> Assignment.union ca cb) b)
           a)

(* Lineage of a Boolean query: the DNF of the nullary projection — nonempty
   exactly in the worlds where the query has answers. *)
let boolean_clauses udb q =
  let u = Pqdb.Eval_exact.eval udb (Ua.project [] q) in
  Urelation.clauses_for u (Tuple.of_list [])

let fd_lineage udb ~table ~key ~determined =
  let u =
    match Udb.find udb table with
    | u -> u
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "fd constraint on unknown table %S (database has: %s)"
             table
             (String.concat ", " (Udb.names udb)))
  in
  let attrs = Schema.attributes (Urelation.schema u) in
  List.iter
    (fun a ->
      if not (List.mem a attrs) then
        invalid_arg
          (Printf.sprintf "fd constraint: %S is not an attribute of %S" a
             table))
    (key @ determined);
  boolean_clauses udb (Pqdb.Egd.fd_violation ~table ~attrs ~key ~determined)

let compile udb set =
  let positive = ref [ Assignment.empty ] in
  let violation = ref [] in
  List.iter
    (fun item ->
      match item with
      | Uconstraint.Holds q -> positive := conjoin !positive (boolean_clauses udb q)
      | Uconstraint.Denial q -> violation := !violation @ boolean_clauses udb q
      | Uconstraint.Fd { table; key; determined } ->
          violation := !violation @ fd_lineage udb ~table ~key ~determined)
    (Constraint_set.items set);
  let violation = if !violation = [] then [] else Lineage.normalize !violation in
  { set; positive = !positive; violation }

(* ------------------------------------------------------------------ *)
(* Exact path (rationals).                                             *)

(* Theorem 4.4 on the constraint event c = E ∧ ¬V:
   Pr(φ ∧ c) = Pr(φ ∧ E) − Pr(φ ∧ E ∧ V), all positive DNFs. *)
let exact_joint w c phi =
  let pe = conjoin phi c.positive in
  let with_e = Lineage.exact w pe in
  match c.violation with
  | [] -> with_e
  | v -> Rational.sub with_e (Lineage.exact w (conjoin pe v))

let probability w c = exact_joint w c [ Assignment.empty ]

let exact_conditioned w c phi =
  let den = probability w c in
  if Rational.is_zero den then
    Pqdb_error.unsatisfiable ~context:"Condition.exact_conditioned"
      (Printf.sprintf "Pr(c) = 0 for constraint set {%s}"
         (Constraint_set.to_string c.set))
  else Rational.div (exact_joint w c phi) den

let exact_confidences udb c q =
  let u = Pqdb.Eval_exact.eval udb q in
  let w = Udb.wtable udb in
  List.map
    (fun (t, clauses) -> (t, exact_conditioned w c clauses))
    (Urelation.clauses_by_tuple u)

(* ------------------------------------------------------------------ *)
(* Anytime path: every conditioned answer is a batch tuple.            *)

let zero_part =
  { Compile.value = 0.; trials = 0; residual_mass = 0.; lo = 0.; hi = 0.;
    claim = Guarantee.Exact }

(* A conditioned tuple, or one of its conjuncts: what a batch run asks of
   it ({!Confidence.hook}). *)
type tuple = {
  apriori : Compile.outcome;
  cost : int;
  solve : Budget.t option -> (unit -> Rng.t) -> Compile.outcome;
}

let part_salt base suffix = if base = "" then "" else base ^ suffix

(* A bracket cut to [0, 1], the value clamped into it and its claim.  The
   share resting on inexact parts is the whole value unless all are exact. *)
let outcome iv ~value ~trials claim =
  let { Interval.lo; hi } = Interval.clamp ~lo:0. ~hi:1. iv in
  let value = Float.max lo (Float.min hi value) in
  { Compile.value; trials; lo; hi; claim;
    residual_mass = (if claim = Guarantee.Exact then 0. else value) }

(* Pr(ψ ∧ E) − Pr(ψ ∧ E ∧ V): the difference of the conjunct brackets. *)
let difference (e : Compile.outcome) (ev : Compile.outcome) =
  outcome
    (Interval.difference (Interval.make e.lo e.hi) (Interval.make ev.lo ev.hi))
    ~value:(e.value -. ev.value) ~trials:(e.trials + ev.trials)
    (Guarantee.difference ~p:e.lo e.claim ~q:ev.hi ev.claim)

let ratio (den : Compile.outcome) (q : Compile.outcome) =
  outcome
    (Interval.ratio ~num:(Interval.make q.lo q.hi)
       ~den:(Interval.make den.lo den.hi))
    ~value:(q.value /. den.value) ~trials:q.trials
    (Guarantee.ratio q.claim den.claim)

(* Pr(ψ ∧ c) as one batch tuple (Theorem 4.4).  Each conjunct compiles
   here, on the caller's domain, and gets δ/4 of the four solves behind one
   answer.  A cache entry is keyed on the tuple's own clauses salted with
   the constraint-set fingerprint and a conjunct tag, so lookups stay as
   cheap as unconditioned ones.  The solve runs the conjuncts in order under
   one budget, on the two lanes [Rng.split_n] would split from [lane]. *)
let joint ?fuel ?cache ~salt w c clauses ~eps ~delta =
  let delta = Guarantee.split delta 4 in
  let part tag = function
    | [] -> { apriori = zero_part; cost = 0; solve = (fun _ _ -> zero_part) }
    | conjunct ->
        let c =
          match cache with
          | Some memo ->
              Memo.find_or_compile memo ?fuel ~salt:(part_salt salt tag)
                ~build:(fun () -> Compile.compile ?fuel w conjunct)
                w clauses
          | None -> Compile.compile ?fuel w conjunct
        in
        { apriori = Compile.apriori c;
          cost = Compile.cost_cap c ~eps ~delta;
          solve =
            (fun budget lane -> Compile.solve_lane ?budget lane c ~eps ~delta)
        }
  in
  let pe = conjoin clauses c.positive in
  let e = part "#e" pe in
  let ev = part "#ev" (conjoin pe c.violation) in
  { apriori = difference e.apriori ev.apriori;
    cost = Stats.saturating_add e.cost ev.cost;
    solve =
      (fun budget lane ->
        let pair = lazy (Rng.lanes (lane ()) 2) in
        let half k () = Rng.lane (Lazy.force pair) k in
        let oe = e.solve budget (half 0) in
        difference oe (ev.solve budget (half 1))) }

(* Pr(c) first, on lane n of the lanes the batch run draws over n + 1,
   charged to [budget]; then the tuples as one batch shard over lanes
   0..n-1.  Each answer is also kept in [answers] as its task returns it. *)
let solve_batch ?budget ?fuel ?cache ~seed w c sets ~eps ~delta ~emit =
  let n = Array.length sets in
  let rng = Rng.create ~seed in
  let salt = part_salt (Constraint_set.fingerprint c.set) in
  let den =
    (joint ?fuel ?cache ~salt:(salt "#c") w c [ Assignment.empty ] ~eps
       ~delta).solve budget (fun () ->
        Rng.lane (Rng.lanes (Rng.copy rng) (n + 1)) n)
  in
  let unsatisfiable reason =
    Pqdb_error.unsatisfiable ~context:"Condition.solve_denominator"
      (Printf.sprintf "%s for constraint set {%s}: Pr(c) ∈ [%g, %g]" reason
         (Constraint_set.to_string c.set)
         den.lo den.hi)
  in
  if den.hi <= 0. then unsatisfiable "Pr(c) = 0 (certified)";
  if den.lo <= 0. then
    unsatisfiable "interval straddles zero (cannot certify Pr(c) > 0)";
  let answers = Array.make n zero_part in
  let tuple i =
    let q = joint ?fuel ?cache ~salt:(salt "#q") w c sets.(i) ~eps ~delta in
    let apriori = ratio den q.apriori in
    answers.(i) <- apriori;
    { apriori;
      cost = q.cost;
      solve =
        (fun budget lane ->
          let o = ratio den (q.solve budget lane) in
          answers.(i) <- o;
          o) }
  in
  Confidence.run_one_shard ?budget
    ~hook:
      (Hook
         { tuple;
           apriori = (fun t -> t.apriori);
           cost = (fun t -> t.cost);
           solve = (fun t -> t.solve) })
    rng w sets ~eps ~delta ~emit;
  (den, answers)

let approx_confidences ?budget ?fuel ?cache ?(seed = 42) ?(eps = 0.05)
    ?(delta = 0.01) udb c q =
  let u = Pqdb.Eval_exact.eval udb q in
  let pairs = Urelation.clauses_by_tuple u in
  let _, estimates =
    solve_batch ?budget ?fuel ?cache ~seed (Udb.wtable udb) c
      (Array.of_list (List.map snd pairs))
      ~eps ~delta ~emit:ignore
  in
  List.mapi (fun i (t, _) -> (t, estimates.(i))) pairs

let topk ?budget ?fuel ?cache ?seed ?eps ?delta ~k udb c q =
  if k < 0 then invalid_arg "Condition.topk: k must be >= 0";
  let ranked =
    List.stable_sort
      (fun (_, (a : Compile.outcome)) (_, (b : Compile.outcome)) ->
        compare b.value a.value)
      (approx_confidences ?budget ?fuel ?cache ?seed ?eps ?delta udb c q)
  in
  List.filteri (fun i _ -> i < k) ranked
