(* Ground-truth possible-worlds semantics tests, centered on the paper's
   running Example 2.2 (the coin bag) and Example 6.1 (approximate selection,
   evaluated exactly here via its desugaring). *)

open Pqdb_relational
open Pqdb_worlds
module V = Value
module Q = Pqdb_numeric.Rational
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal
let rel_testable = Alcotest.testable Relation.pp Relation.equal

(* --- The Example 2.2 database ------------------------------------- *)

let coins = Pqdb_workload.Scenarios.coins
let faces = Pqdb_workload.Scenarios.faces
let tosses = Pqdb_workload.Scenarios.tosses

let coin_db =
  Pdb.of_complete [ ("Coins", coins); ("Faces", faces); ("Tosses", tosses) ]

(* R := π_CoinType(repair-key_∅@Count(Coins)) *)
let r_query =
  Ua.project [ "CoinType" ]
    (Ua.repair_key ~key:[] ~weight:"Count" (Ua.table "Coins"))

(* S := π_{CoinType,Toss,Face}(repair-key_{CoinType,Toss}@FProb(Faces × Tosses)),
   with Faces carrying a renamed CoinType column to keep × disjoint. *)
let s_query =
  Ua.project
    [ "FCoinType"; "Toss"; "Face" ]
    (Ua.repair_key
       ~key:[ "FCoinType"; "Toss" ]
       ~weight:"FProb"
       (Ua.product (Ua.table "Faces") (Ua.table "Tosses")))

let heads_at i =
  Ua.project [ "FCoinType" ]
    (Ua.select
       Predicate.(
         Expr.(attr "Toss" = int i)
         && Expr.(attr "Face" = const (V.Str "H")))
       s_query)

(* T := R ⋈ π(σ_{Toss=1 ∧ Face=H}(S)) ⋈ π(σ_{Toss=2 ∧ Face=H}(S)), aligning
   the S-side attribute back to CoinType for the natural join. *)
let t_query =
  Ua.join
    (Ua.join r_query (Ua.rename [ ("FCoinType", "CoinType") ] (heads_at 1)))
    (Ua.rename [ ("FCoinType", "CoinType") ] (heads_at 2))

(* U := π_{CoinType, P1/P2 → P}(ρ_{P→P1}(conf(T)) ⋈ ρ_{P→P2}(conf(π_∅(T)))) *)
let u_query =
  Ua.project_cols
    [
      (Expr.attr "CoinType", "CoinType");
      (Expr.(attr "P1" / attr "P2"), "P");
    ]
    (Ua.join
       (Ua.rename [ ("P", "P1") ] (Ua.conf t_query))
       (Ua.rename [ ("P", "P2") ] (Ua.conf (Ua.project [] t_query))))

(* --- Pdb construction and repair-key ------------------------------- *)

let test_repair_key_distribution () =
  let repairs = Pdb.repair_key ~key:[] ~weight:"Count" coins in
  check int_c "two repairs" 2 (List.length repairs);
  let total = Q.sum (List.map snd repairs) in
  check q_testable "probabilities sum to 1" Q.one total;
  List.iter
    (fun (rel, p) ->
      check int_c "one tuple per repair" 1 (Relation.cardinality rel);
      let t = List.hd (Relation.tuples rel) in
      match Tuple.get t 0 with
      | V.Str "fair" -> check q_testable "fair weight" (Q.of_ints 2 3) p
      | V.Str "2headed" -> check q_testable "2headed weight" (Q.of_ints 1 3) p
      | _ -> Alcotest.fail "unexpected coin")
    repairs

let test_repair_key_grouped () =
  (* Key {FCoinType}: fair group has two choices, 2headed has one; the number
     of repairs is 2 * 1 = 2. *)
  let repairs = Pdb.repair_key ~key:[ "FCoinType" ] ~weight:"FProb" faces in
  check int_c "2 x 1 repairs" 2 (List.length repairs);
  check q_testable "sum to one" Q.one (Q.sum (List.map snd repairs));
  List.iter
    (fun (rel, _) ->
      check int_c "one tuple per key group" 2 (Relation.cardinality rel))
    repairs

let test_repair_key_rejects_bad_weight () =
  let bad =
    Relation.of_rows [ "A"; "W" ] [ [ V.Int 1; V.Int 0 ] ]
  in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "repair-key: weight must be positive") (fun () ->
      ignore (Pdb.repair_key ~key:[] ~weight:"W" bad))

let test_tensor () =
  let a =
    Pdb.of_worlds ~complete:[]
      [
        ([ ("R", Relation.of_rows [ "A" ] [ [ V.Int 1 ] ]) ], Q.of_ints 1 2);
        ([ ("R", Relation.of_rows [ "A" ] [ [ V.Int 2 ] ]) ], Q.of_ints 1 2);
      ]
  in
  let b =
    Pdb.of_worlds ~complete:[]
      [
        ([ ("S", Relation.of_rows [ "B" ] [ [ V.Int 3 ] ]) ], Q.of_ints 1 3);
        ([ ("S", Relation.of_rows [ "B" ] [ [ V.Int 4 ] ]) ], Q.of_ints 2 3);
      ]
  in
  let ab = Pdb.tensor a b in
  check int_c "4 worlds" 4 (Pdb.world_count ab);
  let probs = List.map snd (Pdb.worlds ab) in
  check q_testable "sum to 1" Q.one (Q.sum probs)

let test_pdb_validation () =
  Alcotest.check_raises "probabilities must sum to 1"
    (Invalid_argument "Pdb: world probabilities must sum to 1") (fun () ->
      ignore
        (Pdb.of_worlds ~complete:[]
           [ ([ ("R", Relation.of_rows [ "A" ] [ [ V.Int 1 ] ]) ], Q.half) ]))

(* --- Query evaluation: Example 2.2 step by step --------------------- *)

let test_r_has_two_worlds () =
  let prel = Eval_naive.eval coin_db r_query in
  check int_c "two possible relations" 2 (List.length prel);
  let confs = Eval_naive.eval_confidence coin_db r_query in
  let find name =
    List.assoc (Tuple.of_list [ V.Str name ])
      (List.map (fun (t, p) -> (t, p)) confs)
  in
  ignore find;
  List.iter
    (fun (t, p) ->
      match Tuple.get t 0 with
      | V.Str "fair" -> check q_testable "P(fair)" (Q.of_ints 2 3) p
      | V.Str "2headed" -> check q_testable "P(2headed)" (Q.of_ints 1 3) p
      | _ -> Alcotest.fail "unexpected tuple")
    confs

let test_s_has_four_relations () =
  (* The paper's eight worlds carry four distinct S relations (S1..S4). *)
  let prel = Eval_naive.eval coin_db s_query in
  check int_c "four distinct S relations" 4 (List.length prel);
  List.iter
    (fun (_, p) -> check q_testable "each 1/4" (Q.of_ints 1 4) p)
    prel

let test_t_confidences () =
  let confs = Eval_naive.eval_confidence coin_db t_query in
  check int_c "two possible tuples" 2 (List.length confs);
  List.iter
    (fun (t, p) ->
      match Tuple.get t 0 with
      | V.Str "fair" -> check q_testable "P(fair in T)" (Q.of_ints 1 6) p
      | V.Str "2headed" ->
          check q_testable "P(2headed in T)" (Q.of_ints 1 3) p
      | _ -> Alcotest.fail "unexpected tuple")
    confs

let test_evidence_probability () =
  (* conf(π_∅(T)) = Pr(both tosses H) = 1/2. *)
  let confs =
    Eval_naive.eval_confidence coin_db (Ua.project [] t_query)
  in
  match confs with
  | [ (_, p) ] -> check q_testable "P(HH)" Q.half p
  | _ -> Alcotest.fail "expected a single nullary tuple"

let test_u_posterior () =
  (* The headline of Example 2.2: posteriors 1/3 and 2/3. *)
  let u = Eval_naive.eval_certain coin_db u_query in
  let expected =
    Relation.of_rows [ "CoinType"; "P" ]
      [
        [ V.Str "fair"; V.rat (Q.of_ints 1 3) ];
        [ V.Str "2headed"; V.rat (Q.of_ints 2 3) ];
      ]
  in
  check rel_testable "posterior table" expected u

let test_cert_poss () =
  let poss = Eval_naive.eval_certain coin_db (Ua.poss r_query) in
  check int_c "poss has both coin types" 2 (Relation.cardinality poss);
  let cert = Eval_naive.eval_certain coin_db (Ua.cert r_query) in
  check int_c "cert is empty" 0 (Relation.cardinality cert);
  let cert_coins = Eval_naive.eval_certain coin_db (Ua.cert (Ua.table "Coins")) in
  check rel_testable "complete relation is certain" coins cert_coins

let test_repair_key_on_uncertain_rejected () =
  let bad = Ua.repair_key ~key:[] ~weight:"Count" (Ua.table "Rbad") in
  let db =
    Pdb.of_worlds ~complete:[]
      [
        ( [ ("Rbad", Relation.of_rows [ "A"; "Count" ] [ [ V.Int 1; V.Int 1 ] ]) ],
          Q.half );
        ( [ ("Rbad", Relation.of_rows [ "A"; "Count" ] [ [ V.Int 2; V.Int 1 ] ]) ],
          Q.half );
      ]
  in
  check bool_c "raises Not_complete" true
    (try
       ignore (Eval_naive.eval db bad);
       false
     with Eval_naive.Not_complete _ -> true)

(* --- σ̂ via desugaring (Example 6.1) -------------------------------- *)

let sigma_hat_query =
  (* σ̂_{conf[CoinType]/conf[∅] <= 0.5}(T): keeps coin types whose posterior
     given the evidence is at most 1/2 — exactly {fair}. *)
  Ua.approx_select
    (Apred.le (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const 0.5))
    [ [ "CoinType" ]; [] ]
    t_query

let test_sigma_hat_exact () =
  let result = Eval_naive.eval_certain coin_db sigma_hat_query in
  let expected =
    Relation.of_rows [ "CoinType" ] [ [ V.Str "fair" ] ]
  in
  check rel_testable "only the fair coin qualifies" expected result

let test_desugar_structure () =
  let d = Ua.desugar_sigma_hat sigma_hat_query in
  (* After desugaring no ApproxSelect remains and conf appears twice. *)
  let count_conf =
    Ua.size d
    |> fun _ ->
    let rec go = function
      | Ua.Conf q -> 1 + go q
      | Ua.Table _ | Ua.Lit _ -> 0
      | Ua.Select (_, q)
      | Ua.Project (_, q)
      | Ua.Rename (_, q)
      | Ua.ApproxConf (_, q)
      | Ua.RepairKey { query = q; _ }
      | Ua.Poss q
      | Ua.Cert q ->
          go q
      | Ua.Product (a, b) | Ua.Join (a, b) | Ua.Union (a, b) | Ua.Diff (a, b)
        ->
          go a + go b
      | Ua.ApproxSelect _ -> Alcotest.fail "sigma-hat survived desugaring"
    in
    go d
  in
  check int_c "two conf nodes" 2 count_conf

(* --- AST structure helpers ------------------------------------------ *)

let test_ast_metrics () =
  check bool_c "positive" true (Ua.is_positive u_query);
  check bool_c "not positive with diff" false
    (Ua.is_positive (Ua.diff r_query r_query));
  check int_c "nesting depth 0" 0 (Ua.nesting_depth u_query);
  check int_c "nesting depth 1" 1 (Ua.nesting_depth sigma_hat_query);
  check int_c "conf width" 2 (Ua.max_conf_width sigma_hat_query);
  check
    (Alcotest.list Alcotest.string)
    "tables" [ "Coins" ] (Ua.tables r_query)

let test_diff_in_worlds () =
  (* Full UA difference works in the ground-truth evaluator. *)
  let q = Ua.diff (Ua.poss r_query) r_query in
  let confs = Eval_naive.eval_confidence coin_db q in
  (* poss(R) = {fair, 2headed}; R misses each with the other's probability. *)
  List.iter
    (fun (t, p) ->
      match Tuple.get t 0 with
      | V.Str "fair" -> check q_testable "1 - 2/3" (Q.of_ints 1 3) p
      | V.Str "2headed" -> check q_testable "1 - 1/3" (Q.of_ints 2 3) p
      | _ -> Alcotest.fail "unexpected tuple")
    confs

let test_normalize_merges_worlds () =
  let r1 = Relation.of_rows [ "A" ] [ [ V.Int 1 ] ] in
  let db =
    Pdb.of_worlds ~complete:[]
      [
        ([ ("R", r1) ], Q.of_ints 1 4);
        ([ ("R", r1) ], Q.of_ints 1 4);
        ([ ("R", Relation.of_rows [ "A" ] []) ], Q.half);
      ]
  in
  let n = Pdb.normalize db in
  check int_c "merged to two worlds" 2 (Pdb.world_count n);
  check q_testable "merged probability" Q.half
    (List.fold_left
       (fun acc (w, p) ->
         if Relation.equal (Pdb.find w "R") r1 then Q.add acc p else acc)
       Q.zero (Pdb.worlds n))

let test_prel_normalization () =
  let r = Relation.of_rows [ "A" ] [ [ V.Int 1 ] ] in
  let prel =
    [ (r, Q.of_ints 1 3); (r, Q.of_ints 1 3); (r, Q.of_ints 1 3) ]
  in
  (match Pdb.normalize_prel prel with
  | [ (_, p) ] -> check q_testable "summed" Q.one p
  | _ -> Alcotest.fail "expected one world");
  check bool_c "equal_prel is order-insensitive" true
    (Pdb.equal_prel
       [ (r, Q.half); (Relation.of_rows [ "A" ] [], Q.half) ]
       [ (Relation.of_rows [ "A" ] [], Q.half); (r, Q.half) ])

let test_confidence_of_missing_tuple () =
  let r = Relation.of_rows [ "A" ] [ [ V.Int 1 ] ] in
  let prel = [ (r, Q.one) ] in
  check q_testable "absent tuple has confidence 0" Q.zero
    (Pdb.confidence_of prel (Tuple.of_list [ V.Int 9 ]))

(* Confidences group tuples by value: [Int 1] and [Str "1"], or two floats
   that agree to six digits, print alike but are different tuples. *)
let test_confidence_by_value () =
  let rel vs = Relation.of_rows [ "A" ] (List.map (fun v -> [ v ]) vs) in
  let twins = [ V.Str "1"; V.Float 0.12345675; V.Float 0.1234568 ] in
  let db =
    Pdb.of_worlds ~complete:[]
      [
        ([ ("R", rel (V.Int 1 :: twins)) ], Q.of_ints 1 4);
        ([ ("R", rel [ V.Int 1; V.Float 0.1234568 ]) ], Q.of_ints 3 4);
      ]
  in
  let confs = Eval_naive.eval_confidence db (Ua.table "R") in
  let conf_of v =
    match
      List.find_opt (fun (t, _) -> Tuple.equal t (Tuple.of_list [ v ])) confs
    with
    | Some (_, p) -> p
    | None -> Alcotest.fail "tuple missing from the confidences"
  in
  check int_c "four tuples" 4 (List.length confs);
  check q_testable "Int 1" Q.one (conf_of (V.Int 1));
  check q_testable "Str 1" (Q.of_ints 1 4) (conf_of (V.Str "1"));
  check q_testable "0.12345675" (Q.of_ints 1 4)
    (conf_of (V.Float 0.12345675));
  check q_testable "0.1234568" Q.one (conf_of (V.Float 0.1234568))

let test_nested_conf_in_naive () =
  (* conf inside a subquery that is itself aggregated: selection on the
     P column of an inner conf, then conf again on the (complete) result. *)
  let q =
    Ua.conf
      (Ua.project [ "CoinType" ]
         (Ua.select
            Predicate.(Expr.attr "P" < Expr.const (V.of_ints 1 4))
            (Ua.conf t_query)))
  in
  let rel = Eval_naive.eval_certain coin_db q in
  (* Only fair (1/6 < 1/4) survives the selection; its outer conf is 1. *)
  check rel_testable "nested conf"
    (Relation.of_rows [ "CoinType"; "P" ]
       [ [ V.Str "fair"; V.rat Q.one ] ])
    rel

let () =
  Alcotest.run "worlds"
    [
      ( "pdb",
        [
          Alcotest.test_case "repair-key distribution" `Quick
            test_repair_key_distribution;
          Alcotest.test_case "repair-key with grouping" `Quick
            test_repair_key_grouped;
          Alcotest.test_case "repair-key weight validation" `Quick
            test_repair_key_rejects_bad_weight;
          Alcotest.test_case "tensor" `Quick test_tensor;
          Alcotest.test_case "validation" `Quick test_pdb_validation;
        ] );
      ( "example 2.2",
        [
          Alcotest.test_case "R has two worlds" `Quick test_r_has_two_worlds;
          Alcotest.test_case "S has four relations" `Quick
            test_s_has_four_relations;
          Alcotest.test_case "T confidences" `Quick test_t_confidences;
          Alcotest.test_case "evidence probability 1/2" `Quick
            test_evidence_probability;
          Alcotest.test_case "posterior U (headline)" `Quick test_u_posterior;
          Alcotest.test_case "cert/poss" `Quick test_cert_poss;
          Alcotest.test_case "repair-key needs complete input" `Quick
            test_repair_key_on_uncertain_rejected;
        ] );
      ( "sigma-hat",
        [
          Alcotest.test_case "exact result (Example 6.1)" `Quick
            test_sigma_hat_exact;
          Alcotest.test_case "desugaring structure" `Quick
            test_desugar_structure;
        ] );
      ( "structure",
        [
          Alcotest.test_case "normalize merges worlds" `Quick
            test_normalize_merges_worlds;
          Alcotest.test_case "prel normalization" `Quick
            test_prel_normalization;
          Alcotest.test_case "confidence of absent tuple" `Quick
            test_confidence_of_missing_tuple;
          Alcotest.test_case "nested conf" `Quick test_nested_conf_in_naive;
          Alcotest.test_case "confidence groups by value" `Quick
            test_confidence_by_value;
        ] );
      ( "ast",
        [
          Alcotest.test_case "metrics" `Quick test_ast_metrics;
          Alcotest.test_case "difference over worlds" `Quick
            test_diff_in_worlds;
        ] );
    ]
