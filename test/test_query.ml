(* End-to-end query evaluation tests (Section 6): the exact U-relational
   evaluator against the possible-worlds ground truth, approximate selection
   with per-tuple error bounds, the Theorem 6.7 doubling driver, and the
   Theorem 4.4 egd rewriting. *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred
module Pdb = Pqdb_worlds.Pdb
module Naive = Pqdb_worlds.Eval_naive
module Exact = Pqdb.Eval_exact
module Lineage = Pqdb_montecarlo.Lineage
module Approx = Pqdb.Eval_approx

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal
let rel_testable = Alcotest.testable Relation.pp Relation.equal

(* --- Shared fixtures: the coin scenario (Pqdb_workload.Scenarios) ----- *)

module Scenarios = Pqdb_workload.Scenarios

let coins = Scenarios.coins
let coin_udb = Scenarios.coin_db

let coin_pdb =
  Pdb.of_complete
    [
      ("Coins", Scenarios.coins);
      ("Faces", Scenarios.faces);
      ("Tosses", Scenarios.tosses);
    ]

let r_query = Scenarios.coin_queries.Scenarios.r
let s_query = Scenarios.coin_queries.Scenarios.s
let t_query = Scenarios.coin_queries.Scenarios.t
let u_query = Scenarios.coin_queries.Scenarios.u

let heads_at i =
  Ua.project [ "FCoinType" ]
    (Ua.select
       Predicate.(
         Expr.(attr "Toss" = int i)
         && Expr.(attr "Face" = const (V.Str "H")))
       s_query)

(* --- Exact evaluator: Example 2.2 and Figure 1 ----------------------- *)

let test_exact_coin_posteriors () =
  let udb = coin_udb () in
  let u = Exact.eval_relation udb u_query in
  let expected =
    Relation.of_rows [ "CoinType"; "P" ]
      [
        [ V.Str "fair"; V.rat (Q.of_ints 1 3) ];
        [ V.Str "2headed"; V.rat (Q.of_ints 2 3) ];
      ]
  in
  check rel_testable "Example 2.2 posterior" expected u;
  (* Figure 1: exactly three random variables (c, (fair,1), (fair,2)). *)
  check int_c "three W variables" 3 (Wtable.var_count (Udb.wtable udb))

let test_exact_agrees_with_naive () =
  (* A portfolio of positive queries, both paths, equal confidences. *)
  let queries =
    [
      r_query;
      s_query;
      t_query;
      Ua.project [] t_query;
      Ua.union (heads_at 1) (heads_at 2);
      Ua.select Predicate.(Expr.attr "Face" = Expr.const (V.Str "H")) s_query;
      Ua.join r_query (Ua.rename [ ("FCoinType", "CoinType") ] (heads_at 1));
      Ua.poss t_query;
      Ua.cert (Ua.table "Coins");
    ]
  in
  List.iter
    (fun q ->
      let udb = coin_udb () in
      let exact = Exact.confidences udb q in
      let naive = Naive.eval_confidence coin_pdb q in
      check int_c
        (Format.asprintf "tuple count for %a" Ua.pp q)
        (List.length naive) (List.length exact);
      List.iter
        (fun (t, p) ->
          let p' =
            List.fold_left
              (fun acc (t', p') -> if Tuple.equal t t' then p' else acc)
              (Q.of_int (-1))
              exact
          in
          check q_testable
            (Format.asprintf "conf of %a" Tuple.pp t)
            p p')
        naive)
    queries

let test_exact_sigma_hat_desugared () =
  let q =
    Ua.approx_select
      (Apred.le (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const 0.5))
      [ [ "CoinType" ]; [] ]
      t_query
  in
  let udb = coin_udb () in
  let r = Exact.eval_relation udb q in
  check rel_testable "sigma-hat exact"
    (Relation.of_rows [ "CoinType" ] [ [ V.Str "fair" ] ])
    r

let test_exact_unsupported_diff () =
  let udb = coin_udb () in
  check bool_c "uncertain difference rejected" true
    (try
       ignore (Exact.eval udb (Ua.diff r_query r_query));
       false
     with Exact.Unsupported _ -> true)

(* --- Approximate evaluator ------------------------------------------ *)

let sigma_hat_query threshold =
  Ua.approx_select
    (Apred.le (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const threshold))
    [ [ "CoinType" ]; [] ]
    t_query

let test_approx_sigma_hat_decision () =
  (* Posteriors are 1/3 and 2/3; threshold 0.5 separates them comfortably,
     so the approximate result should match the exact one almost always. *)
  let rng = Rng.create ~seed:2718 in
  let expected = Relation.of_rows [ "CoinType" ] [ [ V.Str "fair" ] ] in
  let agreements = ref 0 in
  let runs = 20 in
  for _ = 1 to runs do
    let udb = coin_udb () in
    let result, _stats =
      Approx.eval ~compile_fuel:0 ~eps0:0.05 ~sigma_delta:0.05 ~rng udb
        (sigma_hat_query 0.5)
    in
    if Relation.equal (Urelation.to_relation result.urel) expected then
      incr agreements
  done;
  check bool_c
    (Printf.sprintf "%d/%d agree with exact" !agreements runs)
    true
    (!agreements >= runs - 2)

let test_approx_error_bounds_reported () =
  let rng = Rng.create ~seed:99 in
  let udb = coin_udb () in
  let result, stats =
    Approx.eval ~eps0:0.05 ~sigma_delta:0.1 ~rng udb (sigma_hat_query 0.5)
  in
  check bool_c "unreliable flagged" true result.unreliable;
  check bool_c "decisions counted" true (stats.Approx.decisions >= 2);
  List.iter
    (fun (_, e) ->
      check bool_c "per-tuple bound within target" true (e <= 0.1 +. 1e-9))
    result.errors

let test_approx_conf_tracks_exact () =
  let rng = Rng.create ~seed:4242 in
  let udb = coin_udb () in
  let q = Ua.approx_conf ~eps:0.05 ~delta:0.05 t_query in
  let result, _ = Approx.eval ~rng udb q in
  let rel = Urelation.to_relation result.urel in
  (* P(fair) = 1/6: the approximate row should be within 3ε of that. *)
  Relation.iter
    (fun t ->
      let p =
        match Tuple.get t 1 with V.Float f -> f | _ -> Alcotest.fail "float P"
      in
      let expected =
        match Tuple.get t 0 with
        | V.Str "fair" -> 1. /. 6.
        | _ -> 1. /. 3.
      in
      check bool_c
        (Printf.sprintf "approx conf %.3f near %.3f" p expected)
        true
        (Float.abs (p -. expected) <= 0.15 *. expected))
    rel;
  check bool_c "unreliable" true result.unreliable

(* The Theorem 6.7 doubling driver, replayed by hand: one [eval] per
   round budget l = 1, 2, 4, … (per-decision δ halving alongside), stopping
   once the target is met or l reaches the cap computed from the
   active-domain size of the base relations. *)
let doubling_by_hand ~eps0 ~delta ~seed udb q =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun t ->
          List.iter
            (fun v -> Hashtbl.replace seen (V.to_string v) ())
            (Tuple.to_list t))
        (Urelation.possible_tuples (Udb.find udb name)))
    (Udb.names udb);
  let l_cap =
    Pqdb_numeric.Stats.theorem_6_7_rounds ~eps0 ~delta
      ~k:(max 1 (Ua.max_conf_width q))
      ~d:(max 1 (Ua.nesting_depth q))
      ~n:(max 2 (Hashtbl.length seen))
  in
  let rng = Rng.create ~seed in
  let rec go l sigma_delta =
    let r, _ =
      Approx.eval ~compile_fuel:0 ~eps0 ~max_rounds:l ~sigma_delta ~rng
        (Udb.copy udb) q
    in
    if Approx.max_error r <= delta || l >= l_cap then (r, l)
    else go (min l_cap (2 * l)) (sigma_delta /. 2.)
  in
  go 1 delta

let test_doubling_driver () =
  let rng = Rng.create ~seed:31415 in
  let udb = coin_udb () in
  let result, _stats, l =
    Approx.eval_with_guarantee ~compile_fuel:0 ~eps0:0.05 ~rng ~delta:0.1 udb
      (sigma_hat_query 0.5)
  in
  check bool_c "reached the target" true (Approx.max_error result <= 0.1 +. 1e-9);
  check bool_c "final budget positive" true (l >= 1);
  check rel_testable "and the answer is right"
    (Relation.of_rows [ "CoinType" ] [ [ V.Str "fair" ] ])
    (Urelation.to_relation result.urel);
  (* Queries that need doubling stop at the same round count as the
     driver replayed by hand, with the same answer and bounds — including
     the near-singular threshold that runs the budget up to its cap. *)
  List.iter
    (fun (threshold, eps0, delta, seed, expect_l) ->
      let q = sigma_hat_query threshold in
      let r, _, l =
        Approx.eval_with_guarantee ~compile_fuel:0 ~eps0
          ~rng:(Rng.create ~seed) ~delta (coin_udb ()) q
      in
      let r', l' = doubling_by_hand ~eps0 ~delta ~seed (coin_udb ()) q in
      let tag = Printf.sprintf "threshold %g delta %g" threshold delta in
      check int_c (tag ^ ": rounds") expect_l l;
      check int_c (tag ^ ": rounds by hand") l' l;
      check rel_testable (tag ^ ": answer")
        (Urelation.to_relation r'.urel)
        (Urelation.to_relation r.urel);
      check bool_c (tag ^ ": bounds") true (r.errors = r'.errors);
      check bool_c (tag ^ ": suspects") true (r.suspects = r'.suspects))
    [
      (0.5, 0.05, 0.1, 31415, 512);
      (0.5, 0.3, 0.2, 3, 128);
      (* the cap, 31, is not a power of two: the last doubling is clipped *)
      (2. /. 3., 0.9, 0.05, 7, 31);
    ]

(* eval_with_guarantee evaluates every attempt on a Udb.copy: repair-key's
   fresh variables stay in the copy, and a copy made after the caller's
   table has built alias samplers draws exactly what a fresh table draws. *)
let test_doubling_isolated () =
  let same tag (r, (st : Approx.stats), l) (r', (st' : Approx.stats), l') =
    check rel_testable (tag ^ ": rows")
      (Urelation.to_relation r.Approx.urel)
      (Urelation.to_relation r'.Approx.urel);
    check bool_c (tag ^ ": errors") true (r.errors = r'.errors);
    check bool_c (tag ^ ": suspects") true (r.suspects = r'.suspects);
    check int_c (tag ^ ": rounds") l l';
    check int_c (tag ^ ": decisions") st.decisions st'.decisions;
    check int_c (tag ^ ": estimator calls") st.estimator_calls
      st'.estimator_calls;
    check int_c (tag ^ ": round-limit hits") st.round_limit_hits
      st'.round_limit_hits
  in
  let run ?(seed = 27) udb q =
    Approx.eval_with_guarantee ~compile_fuel:0 ~eps0:0.05
      ~rng:(Rng.create ~seed) ~delta:0.1 udb q
  in
  let udb = coin_udb () in
  let w = Udb.wtable udb in
  let count = Wtable.var_count w and gen = Wtable.generation w in
  let q = sigma_hat_query 0.5 in
  let first = run udb q in
  let _, stats, _ = first in
  check bool_c "the coin query needed doubling" true
    (stats.Approx.round_limit_hits >= 1);
  check int_c "caller's variables untouched" count (Wtable.var_count w);
  check int_c "caller's generation untouched" gen (Wtable.generation w);
  same "coin, same seed" first (run udb q);
  same "coin, fresh database" first (run (coin_udb ()) q);
  (* σ̂ over a base uncertain relation samples the caller's own variables:
     a direct pass builds their samplers on the caller's table, and the
     attempts' copies then start with them. *)
  let events () =
    Pqdb_workload.Gen.uncertain_db (Rng.create ~seed:5) ~tuples:12 ~clauses:3
  in
  let q =
    Pqdb_lang.Qparser.parse_query "aselect[$1 >= 0.5 | conf[id]](events)"
  in
  let fresh = run (events ()) q in
  let udb = events () in
  ignore (Approx.eval ~compile_fuel:0 ~rng:(Rng.create ~seed:1) udb q);
  let w = Udb.wtable udb in
  let count = Wtable.var_count w and gen = Wtable.generation w in
  same "events, samplers already built" fresh (run udb q);
  check int_c "events: caller's variables untouched" count (Wtable.var_count w);
  check int_c "events: caller's generation untouched" gen (Wtable.generation w)

let test_near_singularity_suspect () =
  (* Threshold ~exactly at the posterior 2/3: that tuple's decision sits on
     the boundary, so with a tight budget it gets flagged as a suspect. *)
  let rng = Rng.create ~seed:555 in
  let udb = coin_udb () in
  let result, stats =
    Approx.eval ~compile_fuel:0 ~eps0:0.02 ~max_rounds:3 ~sigma_delta:0.01
      ~rng udb (sigma_hat_query (2. /. 3.))
  in
  check bool_c "some decision hit the budget" true
    (stats.Approx.round_limit_hits >= 1);
  (* Whatever was selected near the boundary carries the suspect flag. *)
  check bool_c "suspects propagated or none selected" true
    (List.length result.suspects >= 0)

let test_footnote_3_rejected () =
  let rng = Rng.create ~seed:1 in
  let udb = coin_udb () in
  let bad =
    Ua.repair_key ~key:[] ~weight:"W"
      (Ua.project_cols
         [ (Expr.attr "CoinType", "CoinType"); (Expr.int 1, "W") ]
         (sigma_hat_query 0.5))
  in
  check bool_c "repair-key above sigma-hat rejected" true
    (try
       ignore (Approx.eval ~rng udb bad);
       false
     with Exact.Unsupported _ -> true);
  (* Weights from an approximate conf are refused too, before the inner
     repair-key adds a variable. *)
  let vars = Wtable.var_count (Udb.wtable udb) in
  let above_aconf =
    Ua.repair_key ~key:[] ~weight:"P"
      (Ua.approx_conf ~eps:0.1 ~delta:0.1
         (Ua.repair_key ~key:[] ~weight:"Count" (Ua.table "Coins")))
  in
  check bool_c "repair-key above aconf rejected" true
    (try
       ignore (Approx.eval ~rng udb above_aconf);
       false
     with Exact.Unsupported _ -> true);
  check int_c "refused before evaluation" vars
    (Wtable.var_count (Udb.wtable udb))

(* --- Error propagation (Lemma 6.4 / Example 6.5) --------------------- *)

let test_projection_error_fanin () =
  (* Example 6.5's shape: project an unreliable relation; the output bound
     sums the input bounds. *)
  let rng = Rng.create ~seed:808 in
  let udb = coin_udb () in
  (* Two tuples each decided with sigma_delta target 0.04: the projection to
     the empty list has a single output tuple whose error is bounded by the
     sum; capped at 0.5. *)
  let q = Ua.project [] (sigma_hat_query 0.99) in
  let result, _ = Approx.eval ~eps0:0.05 ~sigma_delta:0.04 ~rng udb q in
  List.iter
    (fun (_, e) -> check bool_c "summed error <= 2 * 0.04" true (e <= 0.08 +. 1e-9))
    result.errors;
  check bool_c "output nonempty (both posteriors < 0.99)" true
    (not (Urelation.is_empty result.urel))

(* π reads only its input's possible tuples: the bound σ̂ gave a tuple that
   a σ then removed does not reach the projection, whose one output tuple
   keeps exactly the bound of the one tuple left. *)
let test_projection_skips_removed_tuples () =
  let fair = Tuple.of_list [ V.Str "fair" ] in
  let kept =
    Ua.select
      Predicate.(Expr.attr "CoinType" = Expr.const (V.Str "fair"))
      (sigma_hat_query 0.99)
  in
  let run q =
    fst
      (Approx.eval ~compile_fuel:0 ~eps0:0.05 ~sigma_delta:0.04
         ~rng:(Rng.create ~seed:808) (coin_udb ()) q)
  in
  let selected = run (sigma_hat_query 0.99) in
  check bool_c "both coin types selected with a bound" true
    (List.length selected.errors = 2
    && List.for_all (fun (_, e) -> e > 0.) selected.errors);
  check (Alcotest.float 0.) "projection keeps the kept tuple's bound"
    (Approx.error_of (run kept) fair)
    (Approx.error_of (run (Ua.project [] kept)) (Tuple.of_list []))

(* Lemma 6.4(1) by nested loop over two standalone results: a join output
   tuple's bound is the (capped) sum of its two provenance tuples' bounds,
   and it is suspect iff either provenance tuple is. *)
let nested_loop_join (l : Approx.result) (r : Approx.result) =
  let sl = Urelation.schema l.urel and sr = Urelation.schema r.urel in
  let shared = Schema.common sl sr in
  let key s t = Tuple.project t (List.map (Schema.index s) shared) in
  let r_only =
    List.filter (fun a -> not (List.mem a shared)) (Schema.attributes sr)
    |> List.map (Schema.index sr)
  in
  let suspect (res : Approx.result) t =
    List.exists (Tuple.equal t) res.suspects
  in
  List.concat_map
    (fun ta ->
      List.filter_map
        (fun tb ->
          if Tuple.equal (key sl ta) (key sr tb) then
            Some
              ( Tuple.concat ta (Tuple.project tb r_only),
                Float.min 0.5 (Approx.error_of l ta +. Approx.error_of r tb),
                suspect l ta || suspect r tb )
          else None)
        (Urelation.possible_tuples r.urel))
    (Urelation.possible_tuples l.urel)

let test_join_one_unreliable_side () =
  (* A σ̂ result joined with a base table, in both orders: only one side
     carries bounds or suspects.  The tight round budget makes the
     near-boundary 2headed decision a selected suspect on some seeds. *)
  let sel = sigma_hat_query 0.67 in
  let base = Ua.table "Coins" in
  let run seed q =
    fst
      (Approx.eval ~compile_fuel:0 ~eps0:0.02 ~max_rounds:3 ~sigma_delta:0.01
         ~rng:(Rng.create ~seed) (coin_udb ()) q)
  in
  let tuples = Alcotest.(list (testable Tuple.pp Tuple.equal)) in
  let sorted = List.sort Tuple.compare in
  let with_error = ref 0 and with_suspect = ref 0 in
  for seed = 1 to 12 do
    let sel_r = run seed sel and base_r = run seed base in
    List.iter
      (fun (tag, q, l, r) ->
        let joined = run seed q in
        let expect = nested_loop_join l r in
        let tag = Printf.sprintf "seed %d %s" seed tag in
        check tuples (tag ^ ": tuples")
          (sorted (List.map (fun (t, _, _) -> t) expect))
          (sorted (Urelation.possible_tuples joined.urel));
        List.iter
          (fun (t, e, _) ->
            if e > 0. then incr with_error;
            check (Alcotest.float 0.) (tag ^ ": bound") e
              (Approx.error_of joined t))
          expect;
        let susp =
          List.filter_map (fun (t, _, s) -> if s then Some t else None) expect
        in
        if susp <> [] then incr with_suspect;
        check tuples (tag ^ ": suspects") (sorted susp) (sorted joined.suspects))
      [
        ("aselect join Coins", Ua.join sel base, sel_r, base_r);
        ("Coins join aselect", Ua.join base sel, base_r, sel_r);
      ]
  done;
  check bool_c "some joined tuple carries a bound" true (!with_error > 0);
  check bool_c "some joined tuple is suspect" true (!with_suspect > 0)

(* --- Theorem 4.4: egd rewriting -------------------------------------- *)

let dirty_db () =
  (* A relation with a key violation repaired probabilistically: names per
     id, with weights.  After repair-key(id), the FD id -> name holds with
     probability 1; before (on the dirty complete relation), it is violated.
     For the egd test we put an uncertain relation R(id, name) in the db. *)
  let dirty =
    Relation.of_rows [ "Id"; "Name"; "W" ]
      [
        [ V.Int 1; V.Str "ann"; V.Int 3 ];
        [ V.Int 1; V.Str "anne"; V.Int 1 ];
        [ V.Int 2; V.Str "bob"; V.Int 1 ];
      ]
  in
  let udb = Udb.create () in
  Udb.add_complete udb "Dirty" dirty;
  (* Uncertain relation: each dirty tuple independently present w.p. 1/2. *)
  let w = Udb.wtable udb in
  let schema = Schema.of_list [ "Id"; "Name" ] in
  let rows =
    List.map
      (fun t ->
        let x = Wtable.add_var w [ Q.half; Q.half ] in
        (Assignment.singleton x 1, Tuple.project t [ 0; 1 ]))
      (Relation.tuples dirty)
  in
  Udb.add_urelation udb "R" (Urelation.make schema rows);
  udb

let test_egd_fd_probability () =
  (* P(FD Id -> Name holds on R): violated only when both (1,ann) and
     (1,anne) are present: P = 1 - 1/4 = 3/4. *)
  let udb = dirty_db () in
  let viol =
    Pqdb.Egd.fd_violation ~table:"R" ~attrs:[ "Id"; "Name" ] ~key:[ "Id" ]
      ~determined:[ "Name" ]
  in
  let p = Pqdb.Egd.probability udb (Pqdb.Egd.Egd viol) in
  check q_testable "P(fd holds) = 3/4" (Q.of_ints 3 4) p

let test_egd_conjunction () =
  (* P(R nonempty AND fd holds) = P(fd) - P(empty AND fd)?  Compute both
     sides independently: via Theorem 4.4 machinery and via enumeration. *)
  let udb = dirty_db () in
  let exists_r = Ua.project [] (Ua.table "R") in
  let viol =
    Pqdb.Egd.fd_violation ~table:"R" ~attrs:[ "Id"; "Name" ] ~key:[ "Id" ]
      ~determined:[ "Name" ]
  in
  let formula = Pqdb.Egd.And (Pqdb.Egd.Exists exists_r, Pqdb.Egd.Egd viol) in
  let p = Pqdb.Egd.probability udb formula in
  (* Enumerate: 8 worlds (3 independent tuples).  Nonempty and no violation:
     all subsets except {} and those containing both id-1 tuples.
     Subsets: 2^3 = 8, each 1/8.  Violating subsets: {ann,anne}, {ann,anne,bob}
     -> 2.  Empty: 1.  So favourable = 8 - 2 - 1 = 5 -> 5/8. *)
  check q_testable "P = 5/8" (Q.of_ints 5 8) p

let test_egd_disjunction_inclusion_exclusion () =
  let udb = dirty_db () in
  let exists_bob =
    Ua.project []
      (Ua.select Predicate.(Expr.attr "Name" = Expr.const (V.Str "bob"))
         (Ua.table "R"))
  in
  let exists_ann =
    Ua.project []
      (Ua.select Predicate.(Expr.attr "Name" = Expr.const (V.Str "ann"))
         (Ua.table "R"))
  in
  let p =
    Pqdb.Egd.probability udb
      (Pqdb.Egd.Or (Pqdb.Egd.Exists exists_bob, Pqdb.Egd.Exists exists_ann))
  in
  (* P(bob or ann present) = 1 - 1/4 = 3/4. *)
  check q_testable "inclusion-exclusion" (Q.of_ints 3 4) p

let test_conjunct_queries_shape () =
  let viol =
    Pqdb.Egd.fd_violation ~table:"R" ~attrs:[ "Id"; "Name" ] ~key:[ "Id" ]
      ~determined:[ "Name" ]
  in
  let f = Pqdb.Egd.And (Pqdb.Egd.Exists (Ua.project [] (Ua.table "R")),
                        Pqdb.Egd.Egd viol) in
  (match Pqdb.Egd.conjunct_queries f with
  | Some (_, Some _) -> ()
  | _ -> Alcotest.fail "expected (E, Some violations)");
  (match Pqdb.Egd.conjunct_queries (Pqdb.Egd.Or (Pqdb.Egd.Egd viol, Pqdb.Egd.Egd viol)) with
  | None -> ()
  | Some _ -> Alcotest.fail "Or must not be a single conjunction")

(* ------------------------------------------------------------------ *)
(* Evaluator edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_exact_on_literal () =
  let udb = Udb.create () in
  let q =
    Ua.conf
      (Ua.Lit (Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 2 ] ]))
  in
  let rel = Exact.eval_relation udb q in
  check int_c "two rows" 2 (Relation.cardinality rel);
  Relation.iter
    (fun t ->
      match Tuple.get t 1 with
      | V.Rat p -> check q_testable "literal tuples are certain" Q.one p
      | _ -> Alcotest.fail "rational expected")
    rel

let test_exact_unknown_table () =
  let udb = Udb.create () in
  check bool_c "unknown table" true
    (try
       ignore (Exact.eval udb (Ua.table "Nope"));
       false
     with Exact.Unsupported _ -> true)

let test_eval_relation_rejects_uncertain () =
  let udb = coin_udb () in
  check bool_c "uncertain result rejected" true
    (try
       ignore (Exact.eval_relation udb r_query);
       false
     with Exact.Unsupported _ -> true)

let test_exact_approxconf_is_conf () =
  let udb1 = coin_udb () and udb2 = coin_udb () in
  let a = Exact.eval_relation udb1 (Ua.approx_conf ~eps:0.1 ~delta:0.1 t_query) in
  let b = Exact.eval_relation udb2 (Ua.conf t_query) in
  check rel_testable "exact evaluator ignores approximation params" b a

let test_cert_of_certain_conf () =
  (* cert(poss(R)) where R is complete = R. *)
  let udb = coin_udb () in
  let rel = Exact.eval_relation udb (Ua.cert (Ua.poss (Ua.table "Coins"))) in
  check rel_testable "cert of complete" coins rel

let test_approx_reliable_query_has_no_error () =
  let rng = Rng.create ~seed:1 in
  let udb = coin_udb () in
  let result, stats = Approx.eval ~rng udb (Ua.conf t_query) in
  check bool_c "reliable" false result.Approx.unreliable;
  check (Alcotest.float 0.) "no error" 0. (Approx.max_error result);
  check int_c "no sigma-hat decisions" 0 stats.Approx.decisions

let test_approx_conf_p_column_is_float () =
  let rng = Rng.create ~seed:2 in
  let udb = coin_udb () in
  let result, _ =
    Approx.eval ~rng udb (Ua.approx_conf ~eps:0.1 ~delta:0.1 t_query)
  in
  Relation.iter
    (fun t ->
      match Tuple.get t 1 with
      | V.Float _ -> ()
      | v -> Alcotest.failf "expected float P, got %a" V.pp v)
    (Urelation.to_relation result.Approx.urel)

let test_error_of_unknown_tuple () =
  let rng = Rng.create ~seed:3 in
  let udb = coin_udb () in
  let result, _ = Approx.eval ~rng udb (sigma_hat_query 0.5) in
  check (Alcotest.float 0.) "unknown tuple has zero recorded error" 0.
    (Approx.error_of result (Tuple.of_list [ V.Str "nonexistent" ]))

let test_sigma_hat_cross_product_candidates () =
  (* Conf args with disjoint attribute sets produce cross-product
     candidates, mirroring the defining join. *)
  let rng = Rng.create ~seed:4 in
  let udb = coin_udb () in
  let q =
    Ua.approx_select
      (Apred.gt (Apred.Mul (Apred.var 0, Apred.var 1)) (Apred.const 0.01))
      [ [ "CoinType" ]; [ "Face" ] ]
      (Ua.select
         Predicate.(Expr.attr "Toss" = Expr.int 1)
         (Ua.rename [ ("FCoinType", "CoinType") ] s_query))
  in
  let result, _ = Approx.eval ~eps0:0.05 ~sigma_delta:0.1 ~rng udb q in
  let schema = Urelation.schema result.Approx.urel in
  check (Alcotest.list Alcotest.string) "schema is the union"
    [ "CoinType"; "Face" ] (Schema.attributes schema)

let test_conf_p_clash_rejected () =
  let udb = coin_udb () in
  check bool_c "duplicate P rejected with a clear error" true
    (try
       ignore (Exact.eval udb (Ua.conf (Ua.conf t_query)));
       false
     with Exact.Unsupported msg -> String.length msg > 0)

let test_guarantee_improves_on_budget () =
  (* With a larger target delta the driver should need a smaller budget. *)
  let udb = coin_udb () in
  let rng = Rng.create ~seed:5 in
  let _, _, l_loose =
    Approx.eval_with_guarantee ~compile_fuel:0 ~rng ~delta:0.2 (Udb.copy udb)
      (sigma_hat_query 0.5)
  in
  let rng = Rng.create ~seed:5 in
  let _, _, l_tight =
    Approx.eval_with_guarantee ~compile_fuel:0 ~rng ~delta:0.02 (Udb.copy udb)
      (sigma_hat_query 0.5)
  in
  check bool_c
    (Printf.sprintf "loose %d <= tight %d" l_loose l_tight)
    true (l_loose <= l_tight)

(* σ̂ on compiled lineage: every candidate of a generated events table
   compiles exactly, so the selection is the exact one — each id on the
   side of the threshold that [Lineage.exact]'s rational confidence puts
   it — with no estimator call, no round-limit hit and round budget 1.  A
   candidate within the compiled floats' rounding bound of the threshold
   is listed as a suspect and exempt. *)
let prop_compiled_sigma_is_exact =
  QCheck.Test.make ~count:200
    ~name:"compiled sigma-hat = exact selection (0 estimator calls)"
    QCheck.(
      pair (make ~print:string_of_int Gen.(int_bound 100_000))
        (make ~print:string_of_int Gen.(int_range 0 10)))
    (fun (seed, tenths) ->
      let udb =
        Pqdb_workload.Gen.uncertain_db (Rng.create ~seed) ~tuples:12
          ~clauses:3
      in
      let phi =
        Apred.ge (Apred.var 0) (Apred.const (float_of_int tenths /. 10.))
      in
      let q = Ua.approx_select phi [ [ "id" ] ] (Ua.table "events") in
      let groups =
        Urelation.clauses_by_tuple
          (Translate.project_attrs [ "id" ] (Udb.find udb "events"))
      in
      let w = Udb.wtable udb in
      let r, (stats : Approx.stats), l =
        Approx.eval_with_guarantee ~rng:(Rng.create ~seed:1) ~delta:0.05
          (Udb.copy udb) q
      in
      let selected t =
        List.exists (Tuple.equal t) (Urelation.possible_tuples r.urel)
      in
      let suspect t = List.exists (Tuple.equal t) r.suspects in
      List.iter
        (fun (t, clauses) ->
          let truth = Apred.eval_rational [| Lineage.exact w clauses |] phi in
          if (not (suspect t)) && selected t <> truth then
            QCheck.Test.fail_reportf "id %s: selected %b, exact %b"
              (Format.asprintf "%a" Tuple.pp t) (selected t) truth)
        groups;
      if stats.estimator_calls <> 0 || stats.round_limit_hits <> 0 || l <> 1
      then
        QCheck.Test.fail_reportf
          "%d estimator calls, %d round-limit hits, round budget %d"
          stats.estimator_calls stats.round_limit_hits l;
      stats.decisions = List.length groups)

let () =
  Alcotest.run "query"
    [
      ( "exact",
        [
          Alcotest.test_case "Example 2.2 posteriors + Figure 1 vars" `Quick
            test_exact_coin_posteriors;
          Alcotest.test_case "agrees with possible worlds" `Quick
            test_exact_agrees_with_naive;
          Alcotest.test_case "sigma-hat desugars" `Quick
            test_exact_sigma_hat_desugared;
          Alcotest.test_case "uncertain difference rejected" `Quick
            test_exact_unsupported_diff;
        ] );
      ( "approximate",
        [
          Alcotest.test_case "sigma-hat decision" `Slow
            test_approx_sigma_hat_decision;
          Alcotest.test_case "error bounds reported" `Quick
            test_approx_error_bounds_reported;
          Alcotest.test_case "approx conf tracks exact" `Quick
            test_approx_conf_tracks_exact;
          Alcotest.test_case "Theorem 6.7 doubling driver" `Quick
            test_doubling_driver;
          Alcotest.test_case "near-singularity suspects" `Quick
            test_near_singularity_suspect;
          Alcotest.test_case "footnote 3 rejected" `Quick
            test_footnote_3_rejected;
          Alcotest.test_case "doubling attempts leave the caller's W alone"
            `Quick test_doubling_isolated;
        ] );
      ( "error propagation",
        [
          Alcotest.test_case "join with one unreliable side" `Quick
            test_join_one_unreliable_side;
          Alcotest.test_case "projection skips removed tuples" `Quick
            test_projection_skips_removed_tuples;
          Alcotest.test_case "projection fan-in (Example 6.5)" `Quick
            test_projection_error_fanin;
        ] );
      ( "compiled",
        [ QCheck_alcotest.to_alcotest prop_compiled_sigma_is_exact ] );
      ( "edge cases",
        [
          Alcotest.test_case "literal relations" `Quick test_exact_on_literal;
          Alcotest.test_case "unknown table" `Quick test_exact_unknown_table;
          Alcotest.test_case "eval_relation rejects uncertain" `Quick
            test_eval_relation_rejects_uncertain;
          Alcotest.test_case "exact treats aconf as conf" `Quick
            test_exact_approxconf_is_conf;
          Alcotest.test_case "cert of complete" `Quick
            test_cert_of_certain_conf;
          Alcotest.test_case "reliable queries have no error" `Quick
            test_approx_reliable_query_has_no_error;
          Alcotest.test_case "aconf emits float P" `Quick
            test_approx_conf_p_column_is_float;
          Alcotest.test_case "error_of unknown tuple" `Quick
            test_error_of_unknown_tuple;
          Alcotest.test_case "sigma-hat cross-product candidates" `Quick
            test_sigma_hat_cross_product_candidates;
          Alcotest.test_case "budget scales with delta" `Quick
            test_guarantee_improves_on_budget;
          Alcotest.test_case "conf P clash rejected" `Quick
            test_conf_p_clash_rejected;
        ] );
      ( "egd (Theorem 4.4)",
        [
          Alcotest.test_case "fd probability" `Quick test_egd_fd_probability;
          Alcotest.test_case "conjunction" `Quick test_egd_conjunction;
          Alcotest.test_case "disjunction" `Quick
            test_egd_disjunction_inclusion_exclusion;
          Alcotest.test_case "conjunct_queries shape" `Quick
            test_conjunct_queries_shape;
        ] );
    ]
