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
(* Anytime path (compiled lineage + one Karp-Luby pass when sampled).  *)

type estimate = {
  value : float;
  lo : float;
  hi : float;
  trials : int;
  claim : Guarantee.t;
}

let zero_part =
  { Compile.value = 0.; trials = 0; residual_mass = 0.; lo = 0.; hi = 0.;
    claim = Guarantee.Exact }

let part_salt base suffix = if base = "" then "" else base ^ suffix

(* One anytime estimate of a positive DNF.  [key] (default [clauses]) is
   what the cache entry is keyed on; together with [salt] it must determine
   [clauses] — the conditioned paths key on the tuple's own lineage and
   salt with the constraint-set fingerprint plus a conjunct tag, so the
   cached tree is the conjoined compile while lookups stay as cheap as the
   unconditioned ones.  [lane] is asked for only when the tree samples. *)
let solve_part ?budget ?fuel ?cache ?(salt = "") ?key lane w clauses ~eps
    ~delta =
  match clauses with
  | [] -> zero_part
  | _ ->
      let tree =
        match cache with
        | Some memo ->
            Memo.find_or_compile memo ?fuel ~salt
              ~build:(fun () -> Compile.compile ?fuel w clauses)
              w
              (Option.value key ~default:clauses)
        | None -> Compile.compile ?fuel w clauses
      in
      Compile.solve_lane ?budget lane tree ~eps ~delta

(* Pr(ψ ∧ c) as a sound bracket: the difference of the two conjunct
   brackets, clamped to [0, 1] (the true difference is a probability).
   Each conjunct gets δ/4 of the four solves behind one conditioned answer
   (two numerator, two denominator); the claims say what each solve spent.
   The conjuncts sample from the two lanes [Rng.split_n] would split from
   [lane]; [lane] and the pair are built only once a conjunct samples. *)
let solve_joint ?budget ?fuel ?cache ~salt ~key lane w c clauses ~eps ~delta =
  let pair = lazy (Rng.lanes (lane ()) 2) in
  let half k () = Rng.lane (Lazy.force pair) k in
  let pe = conjoin clauses c.positive in
  let delta = Guarantee.split delta 4 in
  let e =
    solve_part ?budget ?fuel ?cache ~salt:(part_salt salt "#e") ?key
      (half 0) w pe ~eps ~delta
  in
  let ev =
    match c.violation with
    | [] -> zero_part
    | v ->
        solve_part ?budget ?fuel ?cache ~salt:(part_salt salt "#ev") ?key
          (half 1) w (conjoin pe v) ~eps ~delta
  in
  let { Interval.lo; hi } =
    Interval.clamp ~lo:0. ~hi:1.
      (Interval.difference
         (Interval.make e.lo e.hi)
         (Interval.make ev.lo ev.hi))
  in
  { value = Float.max lo (Float.min hi (e.value -. ev.value));
    lo;
    hi;
    trials = e.trials + ev.trials;
    claim = Guarantee.difference ~p:e.lo e.claim ~q:ev.hi ev.claim }

let solve_denominator ?budget ?fuel ?cache lane w c ~eps ~delta =
  let salt = Constraint_set.fingerprint c.set in
  let d =
    solve_joint ?budget ?fuel ?cache ~salt:(part_salt salt "#c")
      ~key:(Some [ Assignment.empty ]) lane w c [ Assignment.empty ] ~eps
      ~delta
  in
  let detail reason =
    Printf.sprintf "%s for constraint set {%s}: Pr(c) ∈ [%g, %g]" reason
      (Constraint_set.to_string c.set)
      d.lo d.hi
  in
  if d.hi <= 0. then
    Pqdb_error.unsatisfiable ~context:"Condition.solve_denominator"
      (detail "Pr(c) = 0 (certified)")
  else if d.lo <= 0. then
    Pqdb_error.unsatisfiable ~context:"Condition.solve_denominator"
      (detail "interval straddles zero (cannot certify Pr(c) > 0)")
  else d

let solve_clauses ?budget ?fuel ?cache lane w c den clauses ~eps ~delta =
  let salt = Constraint_set.fingerprint c.set in
  let q =
    solve_joint ?budget ?fuel ?cache ~salt:(part_salt salt "#q")
      ~key:(Some clauses) lane w c clauses ~eps ~delta
  in
  let { Interval.lo; hi } =
    Interval.clamp ~lo:0. ~hi:1.
      (Interval.ratio
         ~num:(Interval.make q.lo q.hi)
         ~den:(Interval.make den.lo den.hi))
  in
  { value = Float.max lo (Float.min hi (q.value /. den.value));
    lo;
    hi;
    trials = q.trials;
    claim = Guarantee.ratio q.claim den.claim }

(* Lane n is the denominator's; lanes 0..n-1 are per-tuple.  Drawing
   them from one seed keeps the whole conditioned answer a pure function of
   (lineage, constraint set, seed, eps, delta, fuel); each lane is built
   only when its tuple samples. *)
let solve_batch ?budget ?fuel ?cache ~seed w c sets ~eps ~delta =
  let n = Array.length sets in
  let lanes = lazy (Rng.lanes (Rng.create ~seed) (n + 1)) in
  let lane i () = Rng.lane (Lazy.force lanes) i in
  let den = solve_denominator ?budget ?fuel ?cache (lane n) w c ~eps ~delta in
  ( den,
    Array.mapi
      (fun i clauses ->
        solve_clauses ?budget ?fuel ?cache (lane i) w c den clauses ~eps
          ~delta)
      sets )

let approx_confidences ?budget ?fuel ?cache ?(seed = 42) ?(eps = 0.05)
    ?(delta = 0.01) udb c q =
  let u = Pqdb.Eval_exact.eval udb q in
  let pairs = Urelation.clauses_by_tuple u in
  let _, estimates =
    solve_batch ?budget ?fuel ?cache ~seed (Udb.wtable udb) c
      (Array.of_list (List.map snd pairs))
      ~eps ~delta
  in
  List.mapi (fun i (t, _) -> (t, estimates.(i))) pairs

let topk ?budget ?fuel ?cache ?seed ?eps ?delta ~k udb c q =
  if k < 0 then invalid_arg "Condition.topk: k must be >= 0";
  let ranked =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.value a.value)
      (approx_confidences ?budget ?fuel ?cache ?seed ?eps ?delta udb c q)
  in
  List.filteri (fun i _ -> i < k) ranked
