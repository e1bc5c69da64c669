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
let is_trivial c = Constraint_set.is_empty c.set

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
  exact : bool;
}

type part = { p_value : float; p_lo : float; p_hi : float; p_trials : int }

let zero_part = { p_value = 0.; p_lo = 0.; p_hi = 0.; p_trials = 0 }

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
      let o = Compile.solve_lane ?budget lane tree ~eps ~delta in
      {
        p_value = o.Compile.value;
        p_lo = o.Compile.lo;
        p_hi = o.Compile.hi;
        p_trials = o.Compile.trials;
      }

let part_interval p = Interval.make p.p_lo p.p_hi

(* Pr(ψ ∧ c) as a sound bracket: the difference of the two conjunct
   brackets, clamped to [0, 1] (the true difference is a probability).
   Each conjunct gets δ/4 so the four solves behind one conditioned answer
   (two numerator, two denominator) union-bound to the requested δ.  The
   conjuncts sample from the two lanes [Rng.split_n] would split from
   [lane]; [lane] and the pair are built only once a conjunct samples. *)
let solve_joint ?budget ?fuel ?cache ~salt ~key lane w c clauses ~eps ~delta =
  let pair = lazy (Rng.lanes (lane ()) 2) in
  let half k () = Rng.lane (Lazy.force pair) k in
  let pe = conjoin clauses c.positive in
  let with_e =
    solve_part ?budget ?fuel ?cache ~salt:(part_salt salt "#e") ?key
      (half 0) w pe ~eps ~delta:(delta /. 4.)
  in
  let with_ev =
    match c.violation with
    | [] -> zero_part
    | v ->
        solve_part ?budget ?fuel ?cache ~salt:(part_salt salt "#ev") ?key
          (half 1) w (conjoin pe v) ~eps ~delta:(delta /. 4.)
  in
  let iv =
    Interval.clamp ~lo:0. ~hi:1.
      (Interval.difference (part_interval with_e) (part_interval with_ev))
  in
  let value =
    Float.max iv.Interval.lo
      (Float.min iv.Interval.hi (with_e.p_value -. with_ev.p_value))
  in
  (value, iv, with_e.p_trials + with_ev.p_trials)

type denominator = {
  d_value : float;
  d_lo : float;
  d_hi : float;
  d_trials : int;
  d_exact : bool;
}

let denominator_interval d = Interval.make d.d_lo d.d_hi
let denominator_trials d = d.d_trials

let solve_denominator ?budget ?fuel ?cache lane w c ~eps ~delta =
  let salt = Constraint_set.fingerprint c.set in
  let value, iv, trials =
    solve_joint ?budget ?fuel ?cache ~salt:(part_salt salt "#c")
      ~key:(Some [ Assignment.empty ]) lane w c [ Assignment.empty ] ~eps
      ~delta
  in
  let detail reason =
    Printf.sprintf "%s for constraint set {%s}: Pr(c) ∈ [%g, %g]" reason
      (Constraint_set.to_string c.set)
      iv.Interval.lo iv.Interval.hi
  in
  if iv.Interval.hi <= 0. then
    Pqdb_error.unsatisfiable ~context:"Condition.solve_denominator"
      (detail "Pr(c) = 0 (certified)")
  else if iv.Interval.lo <= 0. then
    Pqdb_error.unsatisfiable ~context:"Condition.solve_denominator"
      (detail "interval straddles zero (cannot certify Pr(c) > 0)")
  else
    {
      d_value = Float.max iv.Interval.lo (Float.min iv.Interval.hi value);
      d_lo = iv.Interval.lo;
      d_hi = iv.Interval.hi;
      d_trials = trials;
      d_exact = trials = 0;
    }

let solve_clauses ?budget ?fuel ?cache lane w c den clauses ~eps ~delta =
  let salt = Constraint_set.fingerprint c.set in
  let value, num, trials =
    solve_joint ?budget ?fuel ?cache ~salt:(part_salt salt "#q")
      ~key:(Some clauses) lane w c clauses ~eps ~delta
  in
  let iv =
    Interval.clamp ~lo:0. ~hi:1.
      (Interval.ratio ~num ~den:(denominator_interval den))
  in
  let raw = value /. den.d_value in
  {
    value = Float.max iv.Interval.lo (Float.min iv.Interval.hi raw);
    lo = iv.Interval.lo;
    hi = iv.Interval.hi;
    trials;
    exact = den.d_exact && trials = 0;
  }

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
