(* Integration tests: random positive UA queries evaluated both through the
   succinct U-relational path (Eval_exact) and the explicit possible-worlds
   ground truth (Eval_naive) must produce identical tuple confidences; the
   approximate path must agree with the exact one away from thresholds. *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred
module Pdb = Pqdb_worlds.Pdb
module Naive = Pqdb_worlds.Eval_naive
module Scenarios = Pqdb_workload.Scenarios

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Random positive-query agreement                                     *)
(* ------------------------------------------------------------------ *)

(* Small complete base tables; uncertainty enters via repair-key. *)
let base_r rng =
  let rows =
    List.init 6 (fun i ->
        [ V.Int (i mod 3); V.Int (Rng.int rng 3); V.Int (1 + Rng.int rng 3) ])
  in
  Relation.of_rows [ "A"; "B"; "W" ] rows

let base_s rng =
  let rows =
    List.init 4 (fun _ -> [ V.Int (Rng.int rng 3); V.Int (Rng.int rng 3) ])
  in
  Relation.of_rows [ "B"; "C" ] rows

(* A generator of well-formed positive queries, tracking output attributes. *)
let rec random_query rng depth =
  let uncertain =
    ( Ua.project [ "A"; "B" ]
        (Ua.repair_key ~key:[ "A" ] ~weight:"W" (Ua.table "R")),
      [ "A"; "B" ] )
  in
  let complete = (Ua.table "S", [ "B"; "C" ]) in
  if depth = 0 then if Rng.bool rng then uncertain else complete
  else begin
    let q, attrs = random_query rng (depth - 1) in
    match Rng.int rng 6 with
    | 0 ->
        (* selection on a random attribute *)
        let a = List.nth attrs (Rng.int rng (List.length attrs)) in
        ( Ua.select
            Predicate.(Expr.attr a >= Expr.int (Rng.int rng 3))
            q,
          attrs )
    | 1 ->
        (* projection onto a nonempty random prefix *)
        let keep = 1 + Rng.int rng (List.length attrs) in
        let kept = List.filteri (fun i _ -> i < keep) attrs in
        (Ua.project kept q, kept)
    | 2 ->
        (* natural join with the other base *)
        let other, other_attrs =
          if List.mem "C" attrs then uncertain else complete
        in
        let shared = List.filter (fun a -> List.mem a attrs) other_attrs in
        let merged =
          attrs @ List.filter (fun a -> not (List.mem a shared)) other_attrs
        in
        (Ua.join q other, merged)
    | 3 ->
        (* union with a differently-selected copy *)
        let a = List.nth attrs (Rng.int rng (List.length attrs)) in
        ( Ua.union q
            (Ua.select Predicate.(Expr.attr a <= Expr.int (Rng.int rng 3)) q),
          attrs )
    | 4 -> (Ua.poss q, attrs)
    | _ -> (q, attrs)
  end

let confidences_agree exact naive =
  List.length exact = List.length naive
  && List.for_all
       (fun (t, p) ->
         List.exists
           (fun (t', p') -> Tuple.equal t t' && Q.equal p p')
           exact)
       naive

let test_random_query_agreement () =
  for seed = 1 to 40 do
    let rng = Rng.create ~seed in
    let r = base_r rng and s = base_s rng in
    let q, _ = random_query rng (1 + Rng.int rng 2) in
    let udb = Udb.create () in
    Udb.add_complete udb "R" r;
    Udb.add_complete udb "S" s;
    let exact = Pqdb.Eval_exact.confidences udb q in
    let pdb = Pdb.of_complete [ ("R", r); ("S", s) ] in
    let naive = Naive.eval_confidence pdb q in
    if not (confidences_agree exact naive) then
      Alcotest.failf "disagreement at seed %d on %a" seed Ua.pp q
  done

let test_random_query_agreement_with_conf_inside () =
  (* Queries that use conf as a subquery (compositionality, the paper's
     headline feature). *)
  for seed = 1 to 20 do
    let rng = Rng.create ~seed:(1000 + seed) in
    let r = base_r rng and s = base_s rng in
    let inner, attrs = random_query rng 1 in
    let q =
      Ua.select
        Predicate.(Expr.attr "P" > Expr.const (V.of_ints 1 4))
        (Ua.conf (Ua.project [ List.hd attrs ] inner))
    in
    let udb = Udb.create () in
    Udb.add_complete udb "R" r;
    Udb.add_complete udb "S" s;
    let exact = Pqdb.Eval_exact.confidences udb q in
    let pdb = Pdb.of_complete [ ("R", r); ("S", s) ] in
    let naive = Naive.eval_confidence pdb q in
    if not (confidences_agree exact naive) then
      Alcotest.failf "conf-compositional disagreement at seed %d on %a" seed
        Ua.pp q
  done

(* ------------------------------------------------------------------ *)
(* Decode-based agreement: Urelation decode = Eval_naive worlds        *)
(* ------------------------------------------------------------------ *)

let test_decode_agreement () =
  for seed = 1 to 15 do
    let rng = Rng.create ~seed:(2000 + seed) in
    let r = base_r rng and s = base_s rng in
    let q, _ = random_query rng 2 in
    let udb = Udb.create () in
    Udb.add_complete udb "R" r;
    Udb.add_complete udb "S" s;
    let u = Pqdb.Eval_exact.eval udb q in
    let prel = Enumerate.decode (Udb.wtable udb) u in
    let pdb = Pdb.of_complete [ ("R", r); ("S", s) ] in
    let ground = Naive.eval pdb q in
    if not (Pdb.equal_prel prel ground) then
      Alcotest.failf "world-set disagreement at seed %d on %a" seed Ua.pp q
  done

(* ------------------------------------------------------------------ *)
(* Three evaluators, one walk: same relation, same W table             *)
(* ------------------------------------------------------------------ *)

(* Eval_exact, Provenance and Eval_approx (on a query with no approximate
   operator) must build the same U-relation, conditions and variable
   numbering included, and leave the same number of W variables. *)
let evaluators_agree label tables q =
  let fresh () =
    let udb = Udb.create () in
    List.iter (fun (name, rel) -> Udb.add_complete udb name rel) tables;
    udb
  in
  let run f =
    let udb = fresh () in
    let u = f udb in
    (Format.asprintf "%a" Urelation.pp u, Wtable.var_count (Udb.wtable udb))
  in
  let exact = run (fun udb -> Pqdb.Eval_exact.eval udb q) in
  let prov =
    run (fun udb -> Pqdb.Provenance.result (Pqdb.Provenance.compute udb q))
  in
  let approx =
    run (fun udb ->
        (fst (Pqdb.Eval_approx.eval ~rng:(Rng.create ~seed:1) udb q))
          .Pqdb.Eval_approx.urel)
  in
  let pair = Alcotest.(pair string int) in
  let name = Format.asprintf "%s: %a" label Ua.pp q in
  check pair (name ^ " (provenance)") exact prov;
  check pair (name ^ " (approximate)") exact approx

let test_three_evaluators_agree () =
  for seed = 1 to 40 do
    let rng = Rng.create ~seed in
    let r = base_r rng and s = base_s rng in
    let q, _ = random_query rng (1 + Rng.int rng 2) in
    evaluators_agree (Printf.sprintf "seed %d" seed) [ ("R", r); ("S", s) ] q
  done;
  for seed = 1 to 20 do
    let rng = Rng.create ~seed:(1000 + seed) in
    let r = base_r rng and s = base_s rng in
    let inner, attrs = random_query rng 1 in
    let q =
      Ua.select
        Predicate.(Expr.attr "P" > Expr.const (V.of_ints 1 4))
        (Ua.conf (Ua.project [ List.hd attrs ] inner))
    in
    evaluators_agree
      (Printf.sprintf "conf-inside seed %d" seed)
      [ ("R", r); ("S", s) ]
      q
  done;
  (* Both operands of a union create variables: numbering follows the
     query text, left operand first. *)
  let r =
    Relation.of_rows [ "A"; "B"; "W" ]
      [
        [ V.Int 1; V.Str "x"; V.Int 2 ];
        [ V.Int 1; V.Str "y"; V.Int 1 ];
        [ V.Int 2; V.Str "x"; V.Int 1 ];
        [ V.Int 2; V.Str "z"; V.Int 3 ];
        [ V.Int 3; V.Str "y"; V.Int 1 ];
      ]
  and s =
    Relation.of_rows [ "A"; "B"; "W" ]
      [ [ V.Int 1; V.Str "x"; V.Int 2 ]; [ V.Int 1; V.Str "y"; V.Int 1 ] ]
  in
  let parse = Pqdb_lang.Qparser.parse_query in
  evaluators_agree "fixed" [ ("R", r); ("S", s) ]
    (parse
       "project[B](repairkey[A @ W](R)) union project[B](repairkey[A @ W](S))");
  (* A repair-key over conf: the inner repair-key's variables are created
     once, not once per evaluator pass. *)
  evaluators_agree "fixed" [ ("R", r) ]
    (parse "repairkey[A @ P](conf(repairkey[A @ W](R)))")

(* ------------------------------------------------------------------ *)
(* Approximate evaluation agrees with exact away from thresholds       *)
(* ------------------------------------------------------------------ *)

let test_approx_matches_exact_cleaning () =
  let rng = Rng.create ~seed:77 in
  let mismatches = ref 0 in
  let runs = 10 in
  for seed = 1 to runs do
    let udb = Scenarios.cleaning_db (Rng.create ~seed) ~customers:3 ~max_dups:2 in
    (* A threshold no exact marginal is near: marginals are ratios of small
       integer weights; 0.47 is far from all of them w.r.t. eps0 = 0.02. *)
    let query = Scenarios.confident_customers ~threshold:0.47 in
    let exact =
      Pqdb.Eval_exact.eval_relation (Udb.copy udb) (Ua.desugar_sigma_hat query)
    in
    let result, _, _ =
      Pqdb.Eval_approx.eval_with_guarantee ~eps0:0.02 ~rng ~delta:0.02
        (Udb.copy udb) query
    in
    let approx = Urelation.to_relation result.Pqdb.Eval_approx.urel in
    if not (Relation.equal exact approx) then incr mismatches
  done;
  check bool_c
    (Printf.sprintf "%d/%d mismatches" !mismatches runs)
    true (!mismatches <= 1)

let test_approx_matches_exact_tuple_independent () =
  (* sigma-hat over random tuple-independent relations: thresholds sit away
     from the k/10 grid the marginals live on, so decisions are solid. *)
  let rng = Rng.create ~seed:88 in
  let mismatches = ref 0 in
  let runs = 12 in
  for seed = 1 to runs do
    let udb = Udb.create () in
    let w = Udb.wtable udb in
    let u =
      Pqdb_workload.Gen.tuple_independent (Rng.create ~seed:(40 + seed)) w
        ~attrs:[ "A"; "B" ] ~rows:4 ~domain:3
    in
    Udb.add_urelation udb "U" u;
    let query =
      Ua.approx_select
        (Apred.ge (Apred.var 0) (Apred.const 0.44))
        [ [ "A"; "B" ] ]
        (Ua.table "U")
    in
    let exact =
      Pqdb.Eval_exact.eval_relation (Udb.copy udb)
        (Ua.desugar_sigma_hat query)
    in
    let result, _, _ =
      Pqdb.Eval_approx.eval_with_guarantee ~eps0:0.02 ~rng ~delta:0.02
        (Udb.copy udb) query
    in
    if
      not
        (Relation.equal exact
           (Urelation.to_relation result.Pqdb.Eval_approx.urel))
    then incr mismatches
  done;
  check bool_c
    (Printf.sprintf "%d/%d mismatches" !mismatches runs)
    true (!mismatches <= 1)

(* ------------------------------------------------------------------ *)
(* Compositionality: uncertainty built from computed confidences        *)
(* ------------------------------------------------------------------ *)

let test_repair_key_over_conf () =
  (* Stage 1: marginals of an uncertain relation (conf output, complete).
     Stage 2: repair-key using those *computed probabilities* as weights —
     the compositionality the paper's introduction claims as novel.  Both
     evaluators must agree. *)
  let r = Relation.of_rows [ "A"; "W" ] [ [ V.Int 1; V.Int 3 ]; [ V.Int 2; V.Int 1 ] ] in
  let stage1 =
    Ua.conf
      (Ua.project [ "A" ] (Ua.repair_key ~key:[] ~weight:"W" (Ua.table "R")))
  in
  (* P column holds 3/4 and 1/4; repair on the empty key redraws A with
     those weights. *)
  let stage2 = Ua.repair_key ~key:[] ~weight:"P" stage1 in
  let udb = Udb.create () in
  Udb.add_complete udb "R" r;
  let exact = Pqdb.Eval_exact.confidences udb (Ua.project [ "A" ] stage2) in
  let pdb = Pdb.of_complete [ ("R", r) ] in
  let naive =
    Naive.eval_confidence pdb (Ua.project [ "A" ] stage2)
  in
  check int_c "two possible tuples" 2 (List.length exact);
  List.iter
    (fun (t, p) ->
      let p' =
        List.fold_left
          (fun acc (t', q) -> if Tuple.equal t t' then q else acc)
          Q.zero exact
      in
      check q_testable (Format.asprintf "conf of %a" Tuple.pp t) p p')
    naive;
  (* And the marginals are the stage-1 probabilities again. *)
  List.iter
    (fun (t, p) ->
      match Tuple.get t 0 with
      | V.Int 1 -> check q_testable "redrawn 3/4" (Q.of_ints 3 4) p
      | V.Int 2 -> check q_testable "redrawn 1/4" (Q.of_ints 1 4) p
      | _ -> Alcotest.fail "unexpected tuple")
    exact

let test_conf_of_conf () =
  (* conf of a complete relation (itself a conf output) is certainty.  The
     paper assumes P is not already in the schema, so the inner P column is
     renamed first. *)
  let udb = Scenarios.coin_db () in
  let q =
    Ua.conf
      (Ua.rename [ ("P", "P0") ] (Ua.conf Scenarios.coin_queries.Scenarios.t))
  in
  let rel = Pqdb.Eval_exact.eval_relation udb q in
  Relation.iter
    (fun t ->
      match Tuple.get t (Tuple.arity t - 1) with
      | V.Rat p -> check q_testable "outer conf is 1" Q.one p
      | _ -> Alcotest.fail "rational expected")
    rel

(* ------------------------------------------------------------------ *)
(* CSV to query end-to-end                                             *)
(* ------------------------------------------------------------------ *)

let test_csv_to_query () =
  let csv = "CoinType,Count\nfair,2\n2headed,1\n" in
  let coins = Csv.parse_string csv in
  let udb = Udb.create () in
  Udb.add_complete udb "Coins" coins;
  let q =
    Pqdb_lang.Qparser.parse_query
      "conf(project[CoinType](repairkey[@Count](Coins)))"
  in
  let rel = Pqdb.Eval_exact.eval_relation udb q in
  check int_c "two rows" 2 (Relation.cardinality rel);
  check bool_c "fair marginal" true
    (Relation.mem rel
       (Tuple.of_list [ V.Str "fair"; V.rat (Q.of_ints 2 3) ]))

(* ------------------------------------------------------------------ *)
(* Shared-subexpression semantics                                      *)
(* ------------------------------------------------------------------ *)

let test_shared_repair_key_is_one_relation () =
  (* S join S must be S itself (same repaired relation), not two independent
     repairs. *)
  let udb = Scenarios.coin_db () in
  let s = Scenarios.coin_queries.Scenarios.s in
  let joined = Pqdb.Eval_exact.confidences (Udb.copy udb) (Ua.join s s) in
  let single = Pqdb.Eval_exact.confidences (Udb.copy udb) s in
  check int_c "same possible tuples" (List.length single) (List.length joined);
  List.iter
    (fun (t, p) ->
      let p' =
        List.fold_left
          (fun acc (t', q) -> if Tuple.equal t t' then q else acc)
          Q.zero joined
      in
      check q_testable "same marginals" p p')
    single

let () =
  Alcotest.run "integration"
    [
      ( "agreement",
        [
          Alcotest.test_case "random positive queries" `Quick
            test_random_query_agreement;
          Alcotest.test_case "compositional conf" `Quick
            test_random_query_agreement_with_conf_inside;
          Alcotest.test_case "decoded world sets" `Quick test_decode_agreement;
          Alcotest.test_case "three evaluators, one walk" `Quick
            test_three_evaluators_agree;
          Alcotest.test_case "approx vs exact sigma-hat" `Slow
            test_approx_matches_exact_cleaning;
          Alcotest.test_case "approx vs exact (tuple-independent)" `Slow
            test_approx_matches_exact_tuple_independent;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "csv -> parse -> evaluate" `Quick
            test_csv_to_query;
          Alcotest.test_case "repair-key over conf (compositionality)" `Quick
            test_repair_key_over_conf;
          Alcotest.test_case "conf of conf" `Quick test_conf_of_conf;
          Alcotest.test_case "shared repair-key" `Quick
            test_shared_repair_key_is_one_relation;
        ] );
    ]
