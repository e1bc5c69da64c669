(* Tests for the workload generators and named scenarios. *)

open Pqdb_relational
open Pqdb_urel
module Gen = Pqdb_workload.Gen
module Lineage = Pqdb_montecarlo.Lineage
module Scenarios = Pqdb_workload.Scenarios
module Rng = Pqdb_numeric.Rng
module Q = Pqdb_numeric.Rational
module Ua = Pqdb_ast.Ua

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

let test_random_relation () =
  let rng = Rng.create ~seed:1 in
  let r = Gen.random_relation rng ~attrs:[ "A"; "B" ] ~rows:50 ~domain:1000 in
  check bool_c "rows bounded" true (Relation.cardinality r <= 50);
  check bool_c "mostly distinct with a large domain" true
    (Relation.cardinality r > 40);
  check int_c "arity" 2 (Schema.arity (Relation.schema r))

let test_weighted_relation () =
  let rng = Rng.create ~seed:2 in
  let r =
    Gen.weighted_relation rng ~attrs:[ "A" ] ~rows:30 ~domain:10 ~weight:"W"
  in
  let widx = Schema.index (Relation.schema r) "W" in
  Relation.iter
    (fun t ->
      match Tuple.get t widx with
      | Value.Int w -> check bool_c "positive weight" true (w >= 1)
      | _ -> Alcotest.fail "int weight expected")
    r

let test_tuple_independent () =
  let rng = Rng.create ~seed:3 in
  let w = Wtable.create () in
  let u = Gen.tuple_independent rng w ~attrs:[ "A" ] ~rows:20 ~domain:100 in
  check int_c "one var per row" (Urelation.size u) (Wtable.var_count w);
  List.iter
    (fun (a, _) -> check int_c "condition size 1" 1 (Assignment.cardinal a))
    (Urelation.rows u)

let test_random_dnf () =
  let rng = Rng.create ~seed:4 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:6 ~clauses:10 ~clause_len:3 in
  check int_c "clause count" 10 (List.length clauses);
  check int_c "vars registered" 6 (Wtable.var_count w);
  List.iter
    (fun c -> check bool_c "clause nonempty" true (not (Assignment.is_empty c)))
    clauses;
  (* Confidence is a proper probability. *)
  let p = Lineage.exact w clauses in
  check bool_c "proper probability" true (Q.is_proper_probability p)

let test_bernoulli_dnf () =
  let rng = Rng.create ~seed:5 in
  let w = Wtable.create () in
  let clauses = Gen.bernoulli_dnf rng w ~p:0.37 in
  check q_testable "exact weight" (Q.of_ints 370 1000)
    (Lineage.exact w clauses)

let test_linear_predicate_arity () =
  let rng = Rng.create ~seed:6 in
  let pred = Gen.linear_predicate rng ~arity:5 in
  check int_c "arity" 5 (Pqdb_ast.Apred.arity pred);
  check bool_c "linear (epsilon computable instantly)" true
    (Pqdb.Epsilon.epsilon pred [| 0.5; 0.5; 0.5; 0.5; 0.5 |] >= 0.)

let test_scaled_coin_db_consistency () =
  (* The scaled coin scenario must produce a posterior table whose column P
     sums to 1 (it is a conditional distribution over coin types). *)
  let rng = Rng.create ~seed:7 in
  let udb, u = Scenarios.scaled_coin_db rng ~coin_types:3 ~tosses:2 in
  let rel = Pqdb.Eval_exact.eval_relation udb u in
  let total =
    Relation.fold
      (fun t acc ->
        match Tuple.get t 1 with
        | Value.Rat p -> Q.add acc p
        | _ -> Alcotest.fail "rational expected")
      rel Q.zero
  in
  check q_testable "posteriors sum to 1" Q.one total

let test_dirty_customers_shape () =
  let rng = Rng.create ~seed:8 in
  let r = Scenarios.dirty_customers rng ~customers:10 ~max_dups:3 in
  let ids = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      match Tuple.get t 0 with
      | Value.Int id -> Hashtbl.replace ids id ()
      | _ -> Alcotest.fail "int id")
    r;
  check int_c "all customers present" 10 (Hashtbl.length ids)

let test_cleaning_marginals_per_customer () =
  (* Within one customer the marginals of its variants sum to 1. *)
  let rng = Rng.create ~seed:9 in
  let udb = Scenarios.cleaning_db rng ~customers:4 ~max_dups:3 in
  let marginals =
    Pqdb.Eval_exact.eval_relation udb
      (Ua.conf (Ua.project [ "Id"; "Name"; "City"; "W" ] Scenarios.cleaned))
  in
  let sums = Hashtbl.create 8 in
  Relation.iter
    (fun t ->
      let id = Value.to_string (Tuple.get t 0) in
      let p =
        match Tuple.get t 4 with
        | Value.Rat p -> p
        | _ -> Alcotest.fail "rational expected"
      in
      Hashtbl.replace sums id
        (Q.add p (Option.value ~default:Q.zero (Hashtbl.find_opt sums id))))
    marginals;
  Hashtbl.iter
    (fun id total -> check q_testable ("customer " ^ id) Q.one total)
    sums

let test_sensor_distribution () =
  let rng = Rng.create ~seed:10 in
  let udb = Scenarios.sensor_db rng ~sensors:3 in
  let marginals =
    Pqdb.Eval_exact.eval_relation udb (Ua.conf Scenarios.sensor_readings)
  in
  (* Each sensor's three level probabilities sum to 1. *)
  let sums = Hashtbl.create 8 in
  Relation.iter
    (fun t ->
      let s = Value.to_string (Tuple.get t 0) in
      let p =
        match Tuple.get t 2 with
        | Value.Rat p -> p
        | _ -> Alcotest.fail "rational expected"
      in
      Hashtbl.replace sums s
        (Q.add p (Option.value ~default:Q.zero (Hashtbl.find_opt sums s))))
    marginals;
  check int_c "three sensors" 3 (Hashtbl.length sums);
  Hashtbl.iter
    (fun s total -> check q_testable ("sensor " ^ s) Q.one total)
    sums

let test_hot_given_not_cold_is_proper () =
  let rng = Rng.create ~seed:11 in
  let udb = Scenarios.sensor_db rng ~sensors:2 in
  let rel =
    Pqdb.Eval_exact.eval_relation udb (Scenarios.hot_given_not_cold ~sensor:0)
  in
  check int_c "single row" 1 (Relation.cardinality rel);
  Relation.iter
    (fun t ->
      match Tuple.get t 0 with
      | Value.Rat p ->
          check bool_c "conditional in [0,1]" true (Q.is_proper_probability p)
      | _ -> Alcotest.fail "rational expected")
    rel

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          Alcotest.test_case "random relation" `Quick test_random_relation;
          Alcotest.test_case "weighted relation" `Quick test_weighted_relation;
          Alcotest.test_case "tuple independent" `Quick test_tuple_independent;
          Alcotest.test_case "random dnf" `Quick test_random_dnf;
          Alcotest.test_case "bernoulli dnf" `Quick test_bernoulli_dnf;
          Alcotest.test_case "linear predicate" `Quick
            test_linear_predicate_arity;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "scaled coin posteriors sum to 1" `Quick
            test_scaled_coin_db_consistency;
          Alcotest.test_case "dirty customers" `Quick
            test_dirty_customers_shape;
          Alcotest.test_case "cleaning marginals per customer" `Quick
            test_cleaning_marginals_per_customer;
          Alcotest.test_case "sensor distributions" `Quick
            test_sensor_distribution;
          Alcotest.test_case "conditional is proper" `Quick
            test_hot_given_not_cold_is_proper;
        ] );
    ]
