(* Conditioning subsystem tests: conditioned confidences cross-checked
   against brute-force world enumeration, the Pr(c)=0 typed error, the
   constraint-equivalent-to-true edge case, ratio/difference error
   propagation, ASSERT parser round-trips, and the constraint-salted Memo
   keys (a stale unconditioned cache hit must never answer a conditioned
   query). *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Interval = Pqdb_numeric.Interval
module Ua = Pqdb_ast.Ua
module Uconstraint = Pqdb_ast.Uconstraint
module Pdb = Pqdb_worlds.Pdb
module Naive = Pqdb_worlds.Eval_naive
module Memo = Pqdb_montecarlo.Memo
module Budget = Pqdb_montecarlo.Budget
module Compile = Pqdb_montecarlo.Compile
module Guarantee = Pqdb_montecarlo.Guarantee
module Cset = Pqdb_conditioning.Constraint_set
module Condition = Pqdb_conditioning.Condition
module Pqdb_error = Pqdb_runtime.Pqdb_error
module Qparser = Pqdb_lang.Qparser
module Pretty = Pqdb_lang.Pretty

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Fixtures.                                                           *)

(* Dirty person table: three independently-present tuples, two of which
   collide on the key Id — the Example 2.2-style dedup scenario. *)
let dirty_db ?(p_ann = Q.half) ?(p_anne = Q.half) ?(p_bob = Q.half) () =
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let schema = Schema.of_list [ "Id"; "Name" ] in
  let tuple_var p = Wtable.add_var w [ Q.sub Q.one p; p ] in
  let rows =
    List.map
      (fun (p, vals) ->
        (Assignment.singleton (tuple_var p) 1, Tuple.of_list vals))
      [
        (p_ann, [ V.Int 1; V.Str "ann" ]);
        (p_anne, [ V.Int 1; V.Str "anne" ]);
        (p_bob, [ V.Int 2; V.Str "bob" ]);
      ]
  in
  Udb.add_urelation udb "R" (Urelation.make schema rows);
  udb

let fd_id_name = Uconstraint.Fd { table = "R"; key = [ "Id" ]; determined = [ "Name" ] }

(* ------------------------------------------------------------------ *)
(* Brute-force ground truth: enumerate every world of the U-relational
   database, keep those satisfying the constraint set, renormalize.      *)

let world_eval world q =
  match Naive.eval (Pdb.of_complete world) q with
  | [ (rel, _) ] -> rel
  | _ -> assert false

let world_satisfies world c =
  match c with
  | Uconstraint.Holds q -> not (Relation.is_empty (world_eval world q))
  | Uconstraint.Denial q -> Relation.is_empty (world_eval world q)
  | Uconstraint.Fd { table; key; determined } ->
      let attrs = Schema.attributes (Relation.schema (Pdb.find world table)) in
      Relation.is_empty
        (world_eval world
           (Pqdb.Egd.fd_violation ~table ~attrs ~key ~determined))

let naive_conditioned udb constraints q =
  let pdb = Enumerate.to_pdb udb in
  let num : (Tuple.t, Q.t) Hashtbl.t = Hashtbl.create 16 in
  let den = ref Q.zero in
  List.iter
    (fun (world, p) ->
      if List.for_all (world_satisfies world) constraints then begin
        den := Q.add !den p;
        Relation.iter
          (fun t ->
            let prev =
              Option.value (Hashtbl.find_opt num t) ~default:Q.zero
            in
            Hashtbl.replace num t (Q.add prev p))
          (world_eval world q)
      end)
    (Pdb.worlds pdb);
  (!den, fun t -> Q.div (Option.value (Hashtbl.find_opt num t) ~default:Q.zero) !den)

(* ------------------------------------------------------------------ *)
(* Exact conditioned confidences = naive enumeration.                   *)

let check_exact_matches_naive udb constraints q =
  let set = Cset.of_list constraints in
  let compiled = Condition.compile udb set in
  let got = Condition.exact_confidences udb compiled q in
  let den, truth = naive_conditioned udb constraints q in
  check bool_c "fixture has Pr(c) > 0" true (not (Q.is_zero den));
  check q_testable "Pr(c) matches enumeration" den
    (Condition.probability (Udb.wtable udb) compiled);
  check bool_c "some possible tuple" true (got <> []);
  List.iter
    (fun (t, p) -> check q_testable "conditioned confidence" (truth t) p)
    got

let test_exact_fd_dedup () =
  let udb = dirty_db () in
  check_exact_matches_naive udb [ fd_id_name ] (Ua.table "R");
  (* Hand numbers: P(ann | no Id-collision) = (1/4)/(3/4) = 1/3, bob 1/2. *)
  let compiled = Condition.compile udb (Cset.of_list [ fd_id_name ]) in
  let confs = Condition.exact_confidences udb compiled (Ua.table "R") in
  let find name =
    let t =
      Tuple.of_list [ V.Int (if name = "bob" then 2 else 1); V.Str name ]
    in
    snd (List.find (fun (t', _) -> Tuple.equal t t') confs)
  in
  check q_testable "ann renormalized" (Q.of_ints 1 3) (find "ann");
  check q_testable "anne renormalized" (Q.of_ints 1 3) (find "anne");
  check q_testable "bob renormalized" Q.half (find "bob")

let test_exact_holds_and_denial () =
  let udb = dirty_db ~p_ann:(Q.of_ints 3 10) ~p_anne:(Q.of_ints 1 5)
      ~p_bob:(Q.of_ints 2 5) () in
  let nonempty = Uconstraint.Holds (Ua.table "R") in
  let no_bob =
    Uconstraint.Denial
      (Ua.select Predicate.(Expr.attr "Name" = Expr.const (V.Str "bob"))
         (Ua.table "R"))
  in
  check_exact_matches_naive udb [ nonempty ] (Ua.table "R");
  check_exact_matches_naive udb [ no_bob ] (Ua.table "R");
  check_exact_matches_naive udb [ nonempty; no_bob; fd_id_name ]
    (Ua.table "R")

let test_exact_constraint_equivalent_to_true () =
  let udb = dirty_db () in
  (* empty(select[false](R)) never has answers: conditioning on it is the
     identity, and the compiled form recognizes triviality of V. *)
  let trivially_true =
    Uconstraint.Denial (Ua.select Predicate.False (Ua.table "R"))
  in
  let compiled = Condition.compile udb (Cset.of_list [ trivially_true ]) in
  check q_testable "Pr(c) = 1" Q.one
    (Condition.probability (Udb.wtable udb) compiled);
  let unconditioned = Pqdb.Eval_exact.confidences udb (Ua.table "R") in
  let conditioned = Condition.exact_confidences udb compiled (Ua.table "R") in
  List.iter2
    (fun (t, p) (t', p') ->
      check bool_c "same tuple" true (Tuple.equal t t');
      check q_testable "conditioning on truth is the identity" p p')
    unconditioned conditioned

let test_pr_zero_is_typed () =
  let udb = dirty_db () in
  let impossible = Uconstraint.Holds (Ua.select Predicate.False (Ua.table "R")) in
  let compiled = Condition.compile udb (Cset.of_list [ impossible ]) in
  check q_testable "Pr(c) = 0" Q.zero
    (Condition.probability (Udb.wtable udb) compiled);
  let expect_unsat f =
    match f () with
    | _ -> Alcotest.fail "expected Unsatisfiable_condition"
    | exception Pqdb_error.Error (Pqdb_error.Unsatisfiable_condition _) -> ()
  in
  expect_unsat (fun () -> Condition.exact_confidences udb compiled (Ua.table "R"));
  expect_unsat (fun () ->
      Condition.approx_confidences udb compiled (Ua.table "R"));
  (* A contradictory pair: R must be nonempty and empty. *)
  let contradiction =
    Cset.of_list
      [ Uconstraint.Holds (Ua.table "R"); Uconstraint.Denial (Ua.table "R") ]
  in
  let compiled = Condition.compile udb contradiction in
  expect_unsat (fun () ->
      Condition.exact_confidences udb compiled (Ua.table "R"))

(* ------------------------------------------------------------------ *)
(* Anytime path: naive truth inside the reported interval.              *)

let test_approx_within_interval () =
  let udb = dirty_db ~p_ann:(Q.of_ints 1 2) ~p_anne:(Q.of_ints 1 2)
      ~p_bob:(Q.of_ints 2 5) () in
  let constraints = [ fd_id_name; Uconstraint.Holds (Ua.table "R") ] in
  let compiled = Condition.compile udb (Cset.of_list constraints) in
  let estimates =
    Condition.approx_confidences ~seed:7 ~eps:0.05 ~delta:0.01 udb compiled
      (Ua.table "R")
  in
  let _den, truth = naive_conditioned udb constraints (Ua.table "R") in
  check bool_c "three possible tuples" true (List.length estimates = 3);
  List.iter
    (fun (t, e) ->
      let p = Q.to_float (truth t) in
      check bool_c "lo <= hi" true (e.Compile.lo <= e.Compile.hi);
      check bool_c "truth inside the reported interval" true
        (e.Compile.lo -. 1e-9 <= p && p <= e.Compile.hi +. 1e-9);
      check bool_c "value inside its own interval" true
        (e.Compile.lo <= e.Compile.value
        && e.Compile.value <= e.Compile.hi))
    estimates;
  (* This fixture's lineage is small enough to compile exactly: the bracket
     must be (numerically) a point and flagged exact. *)
  List.iter
    (fun (_, e) ->
      check bool_c "exact where possible" true
        (e.Compile.claim = Guarantee.Exact);
      check int_c "no sampling spent" 0 e.Compile.trials)
    estimates

let test_approx_deterministic_per_seed () =
  let udb = dirty_db () in
  let compiled = Condition.compile udb (Cset.of_list [ fd_id_name ]) in
  let run () =
    List.map
      (fun (_, e) -> (e.Compile.value, e.Compile.lo, e.Compile.hi))
      (Condition.approx_confidences ~seed:13 udb compiled (Ua.table "R"))
  in
  check bool_c "same seed, same answer" true (run () = run ())

(* Only a conditioned answer with no sampling and no bracket anywhere is
   exact.  Twenty 14×14 DNFs at fuel 64 and ε = 0.5 (empty constraint set,
   so the denominator is exactly 1): some are exact, some certified by
   their compiled bracket and some sampled.  A certified tuple has a real
   bracket and claims [Certain]; under an exhausted budget a tuple cut
   before its first trial spends 0 trials too and claims [Bracket]. *)
let test_claims_name_their_kind () =
  let w = Wtable.create () in
  let rng = Rng.create ~seed:3 in
  let sets =
    Array.init 20 (fun _ ->
        Pqdb_workload.Gen.random_dnf rng w ~vars:14 ~clauses:14 ~clause_len:3)
  in
  let compiled = Condition.compile (Udb.create ()) Cset.empty in
  let solve ?budget () =
    snd
      (Condition.solve_batch ?budget ~fuel:64 ~seed:1 w compiled sets ~eps:0.5
         ~delta:0.05 ~emit:ignore)
  in
  let kinds = Array.make 4 0 in
  let count k = kinds.(k) <- kinds.(k) + 1 in
  Array.iteri
    (fun i (e : Compile.outcome) ->
      let what = Printf.sprintf "tuple %d in [%g, %g]" i e.lo e.hi in
      match e.claim with
      | Guarantee.Exact ->
          count 0;
          check bool_c (what ^ ": exact is a point") true (e.lo = e.hi)
      | Guarantee.Certain eps ->
          count 1;
          check bool_c (what ^ ": certified with no trial") true
            (e.trials = 0 && e.lo < e.hi && eps <= 0.5)
      | Guarantee.Sampled { delta; _ } ->
          count 2;
          check bool_c (what ^ ": sampled at 2·δ/4") true
            (e.trials > 0 && delta = 2. *. (0.05 /. 4.))
      | Guarantee.Bracket -> Alcotest.failf "%s: no budget, yet a bracket" what)
    (solve ());
  check bool_c
    (Printf.sprintf "exact %d, certified %d, sampled %d" kinds.(0) kinds.(1)
       kinds.(2))
    true
    (kinds.(0) > 0 && kinds.(1) > 0 && kinds.(2) > 0);
  let spent = Pqdb_montecarlo.Budget.create ~max_trials:1 () in
  Pqdb_montecarlo.Budget.spend spent 1;
  Array.iteri
    (fun i (e : Compile.outcome) ->
      let what = Printf.sprintf "cut: tuple %d in [%g, %g]" i e.lo e.hi in
      check int_c (what ^ ": no trial") 0 e.trials;
      if e.lo < e.hi then begin
        check bool_c (what ^ ": not exact") false (e.claim = Guarantee.Exact);
        match e.claim with
        | Guarantee.Bracket -> count 3
        | _ -> ()
      end)
    (solve ~budget:spent ());
  check bool_c (Printf.sprintf "%d tuples cut to their bracket" kinds.(3)) true
    (kinds.(3) = kinds.(2))

(* Under a binding trial cap, Pr(c) spends first and every tuple then
   samples under its own slice of what is left, dealt by cost.  The cap
   covers the denominator and half of the first sampling tuple's
   unbudgeted spend: first come, first served, that tuple would take it
   all and every later one would keep its a-priori bracket.  A slice per
   tuple also makes the bytes independent of the pool size. *)
let test_budgeted_batch_deals_per_tuple_slices () =
  let udb =
    Pqdb_workload.Gen.dirty_db (Rng.create ~seed:4242) ~entities:6 ~max_dups:3
  in
  let w = Udb.wtable udb in
  let compiled =
    Condition.compile udb
      (Cset.of_list
         [
           Uconstraint.Fd
             { table = "people"; key = [ "id" ]; determined = [ "name" ] };
         ])
  in
  let sets = Udb.relation_sets udb "people" in
  let solve ?budget ?emit () =
    Condition.solve_batch ?budget ~fuel:0 ~seed:7 w compiled sets ~eps:0.05
      ~delta:0.05
      ~emit:(Option.value emit ~default:ignore)
  in
  let den, free = solve () in
  let sampling =
    List.filter (fun i -> free.(i).Compile.trials > 0)
      (List.init (Array.length sets) Fun.id)
  in
  check bool_c "two or more tuples sample" true (List.length sampling >= 2);
  let cap = den.Compile.trials + (free.(List.hd sampling).Compile.trials / 2) in
  let capped () =
    let buf = Buffer.create 256 in
    let budget = Budget.create ~max_trials:cap () in
    let _, answers =
      solve ~budget ~emit:(Pqdb_montecarlo.Shard.add_outcome buf) ()
    in
    check bool_c "the cap is spent, never exceeded" true
      (Budget.spent budget <= cap);
    (answers, Buffer.contents buf)
  in
  let answers, _ = capped () in
  List.iter
    (fun i ->
      check bool_c (Printf.sprintf "tuple %d samples under the cap" i) true
        (answers.(i).Compile.trials > 0))
    sampling;
  let saved = Sys.getenv_opt "PQDB_POOL_WORKERS" in
  let at_pool k =
    Unix.putenv "PQDB_POOL_WORKERS" (string_of_int k);
    Pqdb_montecarlo.Pool.reset ();
    snd (capped ())
  in
  let inline, raced =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "PQDB_POOL_WORKERS" (Option.value saved ~default:"");
        Pqdb_montecarlo.Pool.reset ())
      (fun () ->
        let inline = at_pool 1 in
        (inline, at_pool 2))
  in
  check string_c "pool sizes 1 and 2" inline raced

let test_topk_ranks_by_conditioned_probability () =
  (* Unconditioned, ann (0.5) outranks bob (0.4); under the FD the Id-1
     collision drags ann to 1/3 and bob must surface as top-1. *)
  let udb = dirty_db ~p_ann:Q.half ~p_anne:Q.half ~p_bob:(Q.of_ints 2 5) () in
  let compiled = Condition.compile udb (Cset.of_list [ fd_id_name ]) in
  match Condition.topk ~k:1 udb compiled (Ua.table "R") with
  | [ (t, _) ] ->
      check bool_c "bob is the conditioned top-1" true
        (Tuple.equal t (Tuple.of_list [ V.Int 2; V.Str "bob" ]))
  | other -> Alcotest.failf "expected 1 tuple, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Interval / Error_bound propagation rules.                            *)

let test_interval_difference_and_ratio () =
  let mk = Interval.make in
  let d = Interval.difference (mk 0.5 0.7) (mk 0.1 0.2) in
  check (Alcotest.float 1e-12) "difference lo" 0.3 d.Interval.lo;
  check (Alcotest.float 1e-12) "difference hi" 0.6 d.Interval.hi;
  let r = Interval.ratio ~num:(mk 0.2 0.3) ~den:(mk 0.4 0.5) in
  check (Alcotest.float 1e-12) "ratio lo" 0.4 r.Interval.lo;
  check (Alcotest.float 1e-12) "ratio hi" 0.75 r.Interval.hi;
  (* Negative numerator ends clamp at 0 (a probability difference). *)
  let r0 = Interval.ratio ~num:(mk (-0.1) 0.2) ~den:(mk 0.5 0.5) in
  check (Alcotest.float 1e-12) "clamped ratio lo" 0. r0.Interval.lo;
  (match Interval.ratio ~num:(mk 0.1 0.2) ~den:(mk 0. 0.5) with
  | _ -> Alcotest.fail "ratio must reject a denominator touching 0"
  | exception Invalid_argument _ -> ());
  let c = Interval.clamp ~lo:0. ~hi:1. (mk (-0.5) 1.5) in
  check (Alcotest.float 1e-12) "clamp lo" 0. c.Interval.lo;
  check (Alcotest.float 1e-12) "clamp hi" 1. c.Interval.hi

let test_error_bound_widens () =
  let module G = Guarantee in
  let s eps = G.Sampled { eps; delta = 0.01 } in
  (* The egd difference Pr(φ) − Pr(φ ∧ ¬ψ): copying ε would be unsound. *)
  let d = G.difference ~p:0.6 (s 0.1) ~q:0.5 (s 0.1) in
  check (Alcotest.float 1e-9) "difference eps is the honest widening" 1.1
    (G.eps d);
  check bool_c "wider than the inputs" true (G.eps d > 0.1);
  check (Alcotest.float 1e-12) "the failure probabilities add" 0.02
    (G.delta d);
  check bool_c "vacuous when p <= q" true
    (G.eps (G.difference ~p:0.5 (s 0.1) ~q:0.5 (s 0.1)) = Float.infinity);
  check bool_c "a zero operand adds nothing, whatever its claim" true
    (G.difference ~p:0.6 (G.Certain 0.1) ~q:0. G.Bracket = G.Certain 0.1);
  let r = G.ratio (s 0.1) (s 0.1) in
  check (Alcotest.float 1e-9) "ratio eps" (0.2 /. 0.9) (G.eps r);
  check bool_c "ratio eps exceeds both inputs" true (G.eps r > 0.1);
  check bool_c "vacuous denominator" true
    (G.eps (G.ratio (s 0.1) (s 1.0)) = Float.infinity);
  (* Degenerate-safe: exact inputs propagate exactly, certain ones
     certainly. *)
  check bool_c "exact difference stays exact" true
    (G.difference ~p:0.6 G.Exact ~q:0.5 G.Exact = G.Exact);
  check bool_c "exact ratio stays exact" true
    (G.ratio G.Exact G.Exact = G.Exact);
  check bool_c "certain parts give a certain claim" true
    (G.ratio (G.Certain 0.1) G.Exact = G.Certain 0.1);
  check bool_c "a bracket beside a sample keeps the sample's δ" true
    (G.union G.Bracket (s 0.1)
    = G.Sampled { eps = Float.infinity; delta = 0.01 });
  check bool_c "brackets alone stay brackets" true
    (G.union G.Bracket (G.Certain 0.2) = G.Bracket);
  (match G.difference ~p:(-0.1) G.Exact ~q:0. G.Exact with
  | _ -> Alcotest.fail "a negative operand must be rejected"
  | exception Invalid_argument _ -> ());
  (* The one split, with today's float expression. *)
  check bool_c "split is delta / n" true (G.split 0.05 4 = 0.05 /. 4.);
  check bool_c "a pass claims twice its delta" true
    (G.pass ~eps:0.1 ~delta:0.05 = G.Sampled { eps = 0.1; delta = 0.1 });
  check bool_c "a complete pass meets its request" true
    (G.meets (G.pass ~eps:0.1 ~delta:0.05) (G.pass ~eps:0.1 ~delta:0.05));
  check bool_c "a bracket meets no relative eps" false
    (G.meets G.Bracket (G.pass ~eps:0.1 ~delta:0.05));
  check bool_c "a certain claim is no point" false
    (G.meets (G.Certain 0.) G.Exact)

(* ------------------------------------------------------------------ *)
(* Memo: the constraint-set salt must partition the cache.              *)

let test_memo_salt_partitions_cache () =
  let udb = dirty_db () in
  let w = Udb.wtable udb in
  let u = Udb.find udb "R" in
  let clauses =
    Urelation.clauses_for u (Tuple.of_list [ V.Int 1; V.Str "ann" ])
  in
  let compiled = Condition.compile udb (Cset.of_list [ fd_id_name ]) in
  let salt = Cset.fingerprint (Condition.constraints compiled) in
  check bool_c "nonempty fingerprint" true (salt <> "");
  check bool_c "salted fingerprint differs" true
    (Memo.fingerprint w clauses <> Memo.fingerprint ~salt w clauses);
  check string_c "empty salt is the unsalted key"
    (Memo.fingerprint w clauses)
    (Memo.fingerprint ~salt:"" w clauses);
  let memo = Memo.create ~entries:8 () in
  (* Warm the cache with the unconditioned tree for the same clauses. *)
  let plain = Memo.find_or_compile memo w clauses in
  let s1 = Memo.stats memo in
  check int_c "one cold compile" 1 s1.Memo.misses;
  (* The conditioned lookup must NOT be answered by the unconditioned
     entry: same clauses, different salt => a miss that builds the
     conjoined tree. *)
  check bool_c "conjoin with the trivial DNF is the identity" true
    (Condition.conjoin clauses [ Assignment.empty ] = clauses);
  let built = ref false in
  let conditioned =
    Memo.find_or_compile memo ~salt
      ~build:(fun () ->
        built := true;
        Compile.compile w clauses)
      w clauses
  in
  let s2 = Memo.stats memo in
  check bool_c "conditioned lookup was a miss" true
    (s2.Memo.misses = s1.Memo.misses + 1 && s2.Memo.hits = s1.Memo.hits);
  check bool_c "build ran" true !built;
  (* Warm conditioned lookup hits its own entry (and does not rebuild). *)
  built := false;
  let conditioned2 =
    Memo.find_or_compile memo ~salt ~build:(fun () -> built := true; plain)
      w clauses
  in
  check bool_c "warm conditioned lookup hits" true
    ((Memo.stats memo).Memo.hits = s2.Memo.hits + 1);
  check bool_c "hit did not rebuild" true (not !built);
  check bool_c "same tree on the warm path" true (conditioned == conditioned2)

(* End-to-end flavor of the same regression: a conditioned answer computed
   against a cache warmed by the unconditioned query must equal the
   cold-cache conditioned answer. *)
let test_memo_stale_hit_regression_end_to_end () =
  let udb = dirty_db () in
  let w = Udb.wtable udb in
  let compiled = Condition.compile udb (Cset.of_list [ fd_id_name ]) in
  let q = Ua.table "R" in
  let conditioned_with cache =
    List.map
      (fun (_, e) -> (e.Compile.value, e.Compile.lo, e.Compile.hi))
      (Condition.approx_confidences ?cache ~seed:5 udb compiled q)
  in
  let cold = conditioned_with None in
  let warmed = Memo.create () in
  (* Pollute with unconditioned entries for every tuple of R. *)
  List.iter
    (fun (_, clauses) -> ignore (Memo.find_or_compile warmed w clauses))
    (Urelation.clauses_by_tuple (Udb.find udb "R"));
  let via_warm = conditioned_with (Some warmed) in
  check bool_c "unconditioned warm entries cannot leak into a conditioned answer"
    true (cold = via_warm)

(* ------------------------------------------------------------------ *)
(* Parser / Pretty round trips for ASSERT.                              *)

let constraint_testable =
  Alcotest.testable Uconstraint.pp Uconstraint.equal

let test_constraint_round_trips () =
  let samples =
    [
      "fd[Id -> Name](R)";
      "fd[Id, City -> Name, Age](People)";
      "empty(select[Name = 'bob'](R))";
      "(project[Id](R) join S)";
      "(R)";
    ]
  in
  List.iter
    (fun text ->
      let c = Qparser.parse_constraint text in
      let printed = Pretty.constraint_to_string c in
      check constraint_testable
        (Printf.sprintf "round trip %S via %S" text printed)
        c
        (Qparser.parse_constraint printed))
    samples

let test_parse_program_full () =
  let p =
    Qparser.parse_program_full
      "let Clean = select[Id > 0](R);\n\
       assert fd[Id -> Name](R);\n\
       condition (Clean);\n\
       conf(Clean)"
  in
  check int_c "two constraints" 2 (List.length p.Qparser.constraints);
  (match p.Qparser.constraints with
  | [ Uconstraint.Fd { table = "R"; key = [ "Id" ]; determined = [ "Name" ] };
      Uconstraint.Holds _ ] ->
      ()
  | _ -> Alcotest.fail "unexpected constraint parse");
  check bool_c "final query present" true (p.Qparser.query <> None);
  check int_c "one view" 1 (List.length p.Qparser.views)

let test_parse_program_rejects_assert () =
  match Qparser.parse_program "assert fd[Id -> Name](R); conf(R)" with
  | _ -> Alcotest.fail "parse_program must not silently accept assert"
  | exception Qparser.Error _ -> ()

let test_parse_constraint_rejects_conf () =
  match Qparser.parse_constraint "(conf(R))" with
  | _ -> Alcotest.fail "constraints must be confidence-free"
  | exception Qparser.Error (msg, _) ->
      check bool_c "names the fragment" true
        (let lower = String.lowercase_ascii msg in
         String.length lower > 0)

let test_fingerprint_order_insensitive () =
  let a = Cset.of_list [ fd_id_name; Uconstraint.Holds (Ua.table "R") ] in
  let b = Cset.of_list [ Uconstraint.Holds (Ua.table "R"); fd_id_name ] in
  check string_c "order-insensitive fingerprint" (Cset.fingerprint a)
    (Cset.fingerprint b);
  check bool_c "sets equal" true (Cset.equal a b);
  check string_c "empty set fingerprints empty" "" (Cset.fingerprint Cset.empty);
  let dup = Cset.add a fd_id_name in
  check int_c "duplicates collapse" (Cset.cardinal a) (Cset.cardinal dup)

(* ------------------------------------------------------------------ *)
(* Serve: session-scoped assert/retract, conditioned conf, byte-identity. *)

module Server = Pqdb_serve.Server

let temp_counter = ref 0

let server_config path =
  {
    Server.db_path = path;
    listen = Server.Tcp 1;
    cache_entries = 64;
    session_trials = None;
    session_deadline_s = None;
    io_timeout_s = None;
    idle_timeout_s = None;
    max_sessions = None;
    watchdog_s = None;
  }

let with_saved_db udb f =
  incr temp_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqdb_conditioning_%d_%d.udbb" (Unix.getpid ())
         !temp_counter)
  in
  Udb_io.save path udb;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_server f =
  with_saved_db (dirty_db ()) (fun path ->
      f (Server.create (server_config path)))

let test_serve_conditioned_warm_cold () =
  with_server (fun srv ->
      let sess = Server.new_session () in
      let ack = Server.dispatch srv ~session:sess "assert fd[Id -> Name](R)" in
      check string_c "assert acked" "asserted; 1 active\n" ack;
      let cold = Server.dispatch srv ~session:sess "conf R" in
      let warm = Server.dispatch srv ~session:sess "conf R" in
      check string_c "warm conditioned reply is byte-identical" cold warm;
      check bool_c "three tuples in the reply" true
        (List.length
           (String.split_on_char '\n' cold |> List.filter (fun l -> l <> ""))
        = 3);
      (* A second session on the same daemon, asserting the same set, sees
         the same bytes (shared salted cache, per-session state). *)
      let sess2 = Server.new_session () in
      ignore (Server.dispatch srv ~session:sess2 "assert fd[Id -> Name](R)");
      check string_c "same constraint set, same bytes"
        cold
        (Server.dispatch srv ~session:sess2 "conf R"))

let test_serve_retract_restores_unconditioned () =
  with_server (fun srv ->
      let plain = Server.dispatch srv "conf R" in
      let sess = Server.new_session () in
      check string_c "fresh session is unconditioned" plain
        (Server.dispatch srv ~session:sess "conf R");
      ignore (Server.dispatch srv ~session:sess "assert fd[Id -> Name](R)");
      let conditioned = Server.dispatch srv ~session:sess "conf R" in
      check bool_c "conditioning changes the reply" true (conditioned <> plain);
      check string_c "retract acked" "retracted; 0 active\n"
        (Server.dispatch srv ~session:sess "retract");
      check string_c "retract restores the unconditioned bytes" plain
        (Server.dispatch srv ~session:sess "conf R"))

let test_serve_assert_errors () =
  with_server (fun srv ->
      let expect_failure ?session spec =
        match Server.dispatch srv ?session spec with
        | body -> Alcotest.failf "expected a failure for %S, got %S" spec body
        | exception Failure _ -> ()
      in
      expect_failure "assert fd[Id -> Name](R)";
      expect_failure "retract";
      let sess = Server.new_session () in
      expect_failure ~session:sess "assert";
      expect_failure ~session:sess "assert fd[Id -> ](R)";
      expect_failure ~session:sess "assert (conf(R))";
      (* Errors leave the session untouched: still unconditioned. *)
      check string_c "session survives bad asserts"
        (Server.dispatch srv "conf R")
        (Server.dispatch srv ~session:sess "conf R"))

let test_serve_unsatisfiable_is_typed () =
  with_server (fun srv ->
      let sess = Server.new_session () in
      ignore (Server.dispatch srv ~session:sess "assert (R)");
      ignore (Server.dispatch srv ~session:sess "assert empty(R)");
      match Server.dispatch srv ~session:sess "conf R" with
      | body -> Alcotest.failf "expected unsatisfiable, got %S" body
      | exception Pqdb_error.Error (Pqdb_error.Unsatisfiable_condition _) ->
          ())

(* A session's conditioned conf reply is the batch line format over
   Condition.solve_batch, byte for byte, for the same seed, eps, delta,
   fuel and trial cap — sampled (fuel=0) as well as compiled, and under a
   cap that binds. *)
let test_serve_reply_is_solve_batch () =
  let udb =
    Pqdb_workload.Gen.dirty_db (Rng.create ~seed:4242) ~entities:6 ~max_dups:3
  in
  with_saved_db udb (fun path ->
      let srv = Server.create (server_config path) in
      let sess = Server.new_session () in
      ignore (Server.dispatch srv ~session:sess "assert fd[id -> name](people)");
      let db = Udb_io.load path in
      let compiled =
        Condition.compile db
          (Cset.of_list
             [
               Uconstraint.Fd
                 { table = "people"; key = [ "id" ]; determined = [ "name" ] };
             ])
      in
      let sets =
        Array.of_list
          (List.map snd (Urelation.clauses_by_tuple (Udb.find db "people")))
      in
      let reply (seed, eps, delta, fuel, trials) =
        let budget =
          Option.map (fun n -> Budget.create ~max_trials:n ()) trials
        in
        let den, estimates =
          Condition.solve_batch ?budget ?fuel ~seed (Udb.wtable db) compiled
            sets ~eps ~delta ~emit:ignore
        in
        if fuel = Some 0 then
          check bool_c "fuel=0 samples" true
            (Array.exists (fun e -> e.Compile.trials > 0) estimates);
        let expected = Buffer.create 256 in
        Array.iteri
          (fun i e ->
            Printf.bprintf expected "%d %h %h %h %d\n" i e.Compile.value
              e.Compile.lo e.Compile.hi e.Compile.trials)
          estimates;
        let request =
          Printf.sprintf "conf people eps=%g delta=%g seed=%d%s%s" eps delta
            seed
            (match fuel with
            | Some f -> Printf.sprintf " fuel=%d" f
            | None -> "")
            (match trials with
            | Some n -> Printf.sprintf " trials=%d" n
            | None -> "")
        in
        let body = Server.dispatch srv ~session:sess request in
        check string_c request (Buffer.contents expected) body;
        (body, den.Compile.trials, estimates)
      in
      ignore (reply (42, 0.05, 0.01, None, None));
      let unbudgeted, den_trials, estimates =
        reply (7, 0.05, 0.05, Some 0, None)
      in
      (* Pr(c) spends first; the cap leaves the tuples half their need. *)
      let need = Array.fold_left (fun n e -> n + e.Compile.trials) 0 estimates in
      let capped, _, _ =
        reply (7, 0.05, 0.05, Some 0, Some (den_trials + (need / 2)))
      in
      check bool_c "the trial cap binds" false (String.equal unbudgeted capped))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "conditioning"
    [
      ( "exact-vs-naive",
        [
          Alcotest.test_case "fd dedup" `Quick test_exact_fd_dedup;
          Alcotest.test_case "holds and denial" `Quick
            test_exact_holds_and_denial;
          Alcotest.test_case "constraint equivalent to true" `Quick
            test_exact_constraint_equivalent_to_true;
          Alcotest.test_case "Pr(c)=0 is typed" `Quick test_pr_zero_is_typed;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "truth within reported interval" `Quick
            test_approx_within_interval;
          Alcotest.test_case "deterministic per seed" `Quick
            test_approx_deterministic_per_seed;
          Alcotest.test_case "topk ranks by conditioned probability" `Quick
            test_topk_ranks_by_conditioned_probability;
          Alcotest.test_case "a budgeted conditioned batch deals per-tuple \
                              slices" `Quick
            test_budgeted_batch_deals_per_tuple_slices;
          Alcotest.test_case "claims name their kind" `Quick
            test_claims_name_their_kind;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "interval difference and ratio" `Quick
            test_interval_difference_and_ratio;
          Alcotest.test_case "error bound widens" `Quick
            test_error_bound_widens;
        ] );
      ( "memo",
        [
          Alcotest.test_case "salt partitions cache" `Quick
            test_memo_salt_partitions_cache;
          Alcotest.test_case "stale-hit regression end to end" `Quick
            test_memo_stale_hit_regression_end_to_end;
        ] );
      ( "language",
        [
          Alcotest.test_case "constraint round trips" `Quick
            test_constraint_round_trips;
          Alcotest.test_case "parse_program_full" `Quick
            test_parse_program_full;
          Alcotest.test_case "parse_program rejects assert" `Quick
            test_parse_program_rejects_assert;
          Alcotest.test_case "constraints are confidence-free" `Quick
            test_parse_constraint_rejects_conf;
          Alcotest.test_case "fingerprint order-insensitive" `Quick
            test_fingerprint_order_insensitive;
        ] );
      ( "serve",
        [
          Alcotest.test_case "conditioned warm = cold" `Quick
            test_serve_conditioned_warm_cold;
          Alcotest.test_case "retract restores unconditioned bytes" `Quick
            test_serve_retract_restores_unconditioned;
          Alcotest.test_case "assert errors are contained" `Quick
            test_serve_assert_errors;
          Alcotest.test_case "unsatisfiable set is typed" `Quick
            test_serve_unsatisfiable_is_typed;
          Alcotest.test_case "conditioned reply is solve_batch" `Quick
            test_serve_reply_is_solve_batch;
        ] );
    ]
