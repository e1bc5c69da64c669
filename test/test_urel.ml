(* Tests for the U-relational representation system (Section 3): W tables,
   partial assignments, the parsimonious translation, exact confidence and
   the completeness theorem (3.1). *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Pdb = Pqdb_worlds.Pdb
module Lineage = Pqdb_montecarlo.Lineage
module Compile = Pqdb_montecarlo.Compile

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* W table                                                             *)
(* ------------------------------------------------------------------ *)

let test_wtable_basics () =
  let w = Wtable.create () in
  let x = Wtable.add_var ~name:"c" w [ Q.of_ints 2 3; Q.of_ints 1 3 ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  check int_c "two vars" 2 (Wtable.var_count w);
  check int_c "domain" 2 (Wtable.domain_size w x);
  check q_testable "prob" (Q.of_ints 2 3) (Wtable.prob w x 0);
  check (Alcotest.float 1e-12) "prob_float" 0.5 (Wtable.prob_float w y 1);
  check int_c "world count" 4 (Wtable.world_count w);
  check Alcotest.string "name" "c" (Wtable.name w x)

let test_wtable_validation () =
  let module E = Pqdb_runtime.Pqdb_error in
  let w = Wtable.create () in
  let expect_invalid name detail thunk =
    Alcotest.check_raises name
      (E.Error (Invalid_probability { context = "Wtable.add_var"; detail }))
      (fun () -> ignore (thunk ()))
  in
  expect_invalid "must sum to 1" "probabilities must sum to 1" (fun () ->
      Wtable.add_var w [ Q.half; Q.of_ints 1 3 ]);
  expect_invalid "positive" "probabilities must be positive" (fun () ->
      Wtable.add_var w [ Q.one; Q.zero ]);
  expect_invalid "at most 1" "probabilities must be at most 1" (fun () ->
      Wtable.add_var w [ Q.of_ints 3 2; Q.of_ints (-1) 2 ]);
  expect_invalid "non-empty" "empty distribution" (fun () ->
      Wtable.add_var w [])

(* ------------------------------------------------------------------ *)
(* Assignments                                                         *)
(* ------------------------------------------------------------------ *)

let test_assignment_union () =
  let a = Assignment.of_list [ (0, 1); (2, 0) ] in
  let b = Assignment.of_list [ (1, 1); (2, 0) ] in
  (match Assignment.union a b with
  | Some u ->
      check int_c "merged size" 3 (Assignment.cardinal u);
      check bool_c "consistent" true (Assignment.consistent a b)
  | None -> Alcotest.fail "expected consistent union");
  let c = Assignment.of_list [ (2, 1) ] in
  check bool_c "conflict detected" false (Assignment.consistent a c);
  check bool_c "union None on conflict" true (Assignment.union a c = None)

let test_assignment_weight () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 2 3; Q.of_ints 1 3 ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  let a = Assignment.of_list [ (x, 0); (y, 1) ] in
  check q_testable "weight 2/3 * 1/2" (Q.of_ints 1 3) (Assignment.weight w a);
  check (Alcotest.float 1e-12) "float weight" (1. /. 3.)
    (Assignment.weight_float w a);
  check q_testable "empty weight is 1" Q.one
    (Assignment.weight w Assignment.empty)

let assignment_gen =
  QCheck.map
    (fun pairs ->
      (* Deduplicate variables to respect the invariant. *)
      let seen = Hashtbl.create 8 in
      let pairs =
        List.filter
          (fun (v, _) ->
            if Hashtbl.mem seen v then false
            else begin
              Hashtbl.add seen v ();
              true
            end)
          pairs
      in
      Assignment.of_list pairs)
    (QCheck.small_list
       (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range 0 1)))

let prop_union_commutes =
  QCheck.Test.make ~name:"assignment union commutes" ~count:300
    (QCheck.pair assignment_gen assignment_gen) (fun (a, b) ->
      match (Assignment.union a b, Assignment.union b a) with
      | Some u, Some v -> Assignment.equal u v
      | None, None -> true
      | _ -> false)

let prop_union_extends =
  QCheck.Test.make ~name:"total extension of union extends both" ~count:300
    (QCheck.pair assignment_gen assignment_gen) (fun (a, b) ->
      match Assignment.union a b with
      | None -> QCheck.assume_fail ()
      | Some u ->
          let lookup v = Option.value ~default:0 (Assignment.value u v) in
          Assignment.extended_by lookup a && Assignment.extended_by lookup b)

(* ------------------------------------------------------------------ *)
(* The coin database as a U-relational database                        *)
(* ------------------------------------------------------------------ *)

let coins = Pqdb_workload.Scenarios.coins
let coin_udb = Pqdb_workload.Scenarios.coin_db

let test_repair_key_variable_elision () =
  (* Figure 1(b): repairing (CoinType, Toss) over Faces x Tosses creates
     variables only for the fair groups; the 2headed rows stay
     unconditional. *)
  let udb = coin_udb () in
  let w = Udb.wtable udb in
  let product =
    Translate.product (Udb.find udb "Faces") (Udb.find udb "Tosses")
  in
  let repaired =
    Translate.repair_key w ~key:[ "FCoinType"; "Toss" ] ~weight:"FProb" product
  in
  check int_c "two fresh variables" 2 (Wtable.var_count w);
  let unconditional =
    List.filter
      (fun (a, _) -> Assignment.is_empty a)
      (Urelation.rows repaired)
  in
  check int_c "2headed rows unconditional" 2 (List.length unconditional);
  check int_c "six representation rows" 6 (Urelation.size repaired)

let test_repair_key_decodes_to_ground_truth () =
  let udb = coin_udb () in
  let w = Udb.wtable udb in
  let repaired = Translate.repair_key w ~key:[] ~weight:"Count" (Udb.find udb "Coins") in
  let prel = Enumerate.decode w repaired in
  let expected = Pdb.repair_key ~key:[] ~weight:"Count" coins in
  check bool_c "decode matches Pdb.repair_key" true
    (Pdb.equal_prel prel expected)

(* A copy shares the checked entries instead of re-adding every variable:
   equal contents, its own identity, built samplers carried over, and a few
   words per variable. *)
let test_udb_copy () =
  let rng = Rng.create ~seed:11 in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let n = 2000 in
  for v = 0 to n - 1 do
    let weights = List.init (1 + Rng.int rng 4) (fun _ -> 1 + Rng.int rng 9) in
    let total = List.fold_left ( + ) 0 weights in
    ignore
      (Wtable.add_var ~name:(Printf.sprintf "v%d" v) w
         (List.map (fun k -> Q.of_ints k total) weights))
  done;
  let sampled = 1234 in
  let built = Wtable.alias w sampled in
  (* Minor words only: they are counted exactly, and every per-variable
     allocation is minor (the entries array is one major-heap block). *)
  let before = Gc.minor_words () in
  let copy = Udb.copy udb in
  let words = Gc.minor_words () -. before in
  let w' = Udb.wtable copy in
  check int_c "var count" n (Wtable.var_count w');
  check bool_c "fresh uid" true (Wtable.uid w' <> Wtable.uid w);
  check int_c "same generation" (Wtable.generation w) (Wtable.generation w');
  List.iter
    (fun v ->
      check Alcotest.string "name" (Wtable.name w v) (Wtable.name w' v);
      check int_c "domain" (Wtable.domain_size w v) (Wtable.domain_size w' v);
      for x = 0 to Wtable.domain_size w v - 1 do
        check q_testable "prob" (Wtable.prob w v x) (Wtable.prob w' v x);
        check bool_c "prob_float" true
          (Float.equal (Wtable.prob_float w v x) (Wtable.prob_float w' v x))
      done)
    (Wtable.vars w);
  check bool_c "built sampler carried over" true
    (Wtable.alias w' sampled == built);
  let draws w =
    let r = Rng.create ~seed:3 in
    List.init 1000 (fun _ -> Rng.Alias.sample r (Wtable.alias w sampled))
  in
  check (Alcotest.list int_c) "same draws" (draws w) (draws w');
  (* Re-adding every variable through add_var (rational checks, float
     images) cost 874.5 minor words per variable here; sharing the entries
     costs one 5-word record. *)
  let per_var = words /. float_of_int n in
  check bool_c
    (Printf.sprintf "copy allocates %.1f words per variable" per_var)
    true (per_var < 24.);
  let count = Wtable.var_count w and gen = Wtable.generation w in
  ignore (Wtable.add_var w' [ Q.one ]);
  check int_c "add to the copy: source count" count (Wtable.var_count w);
  check int_c "add to the copy: source generation" gen (Wtable.generation w);
  let count' = Wtable.var_count w' and gen' = Wtable.generation w' in
  ignore (Wtable.add_var w [ Q.half; Q.half ]);
  check int_c "add to the source: copy count" count' (Wtable.var_count w');
  check int_c "add to the source: copy generation" gen'
    (Wtable.generation w')

(* ------------------------------------------------------------------ *)
(* Confidence: enumeration vs the lineage decomposer                   *)
(* ------------------------------------------------------------------ *)

let random_wtable_and_clauses rng ~vars ~clauses ~max_len =
  let w = Wtable.create () in
  let ids =
    List.init vars (fun _ ->
        (* Random Bernoulli-ish distribution with rational weights. *)
        let num = 1 + Rng.int rng 9 in
        Wtable.add_var w [ Q.of_ints num 10; Q.of_ints (10 - num) 10 ])
  in
  let ids = Array.of_list ids in
  let clause () =
    let len = 1 + Rng.int rng max_len in
    let chosen = ref [] in
    for _ = 1 to len do
      let v = ids.(Rng.int rng (Array.length ids)) in
      if not (List.mem_assoc v !chosen) then
        chosen := (v, Rng.int rng 2) :: !chosen
    done;
    Assignment.of_list !chosen
  in
  (w, List.init clauses (fun _ -> clause ()))

let test_confidence_agreement () =
  let rng = Rng.create ~seed:2024 in
  for _ = 1 to 50 do
    let w, clauses = random_wtable_and_clauses rng ~vars:5 ~clauses:4 ~max_len:3 in
    let a = Confidence.by_enumeration w clauses in
    let b = Lineage.exact w clauses in
    check q_testable "enumeration = shannon" a b
  done

let test_confidence_edge_cases () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  check q_testable "empty DNF" Q.zero (Lineage.exact w []);
  check q_testable "empty clause" Q.one
    (Lineage.exact w [ Assignment.empty ]);
  check q_testable "single literal" Q.half
    (Lineage.exact w [ Assignment.singleton x 0 ]);
  (* x=0 or x=1 covers everything *)
  check q_testable "exhaustive clauses" Q.one
    (Lineage.exact w
       [ Assignment.singleton x 0; Assignment.singleton x 1 ])

let test_confidence_independent_or () =
  (* Two independent coin flips: P(x=1 or y=1) = 3/4. *)
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  check q_testable "3/4" (Q.of_ints 3 4)
    (Lineage.exact w
       [ Assignment.singleton x 1; Assignment.singleton y 1 ])

(* ------------------------------------------------------------------ *)
(* Theorem 3.1: completeness of the representation                     *)
(* ------------------------------------------------------------------ *)

let test_of_pdb_roundtrip () =
  let r1 = Relation.of_rows [ "A" ] [ [ V.Int 1 ] ] in
  let r2 = Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 2 ] ] in
  let r3 = Relation.of_rows [ "A" ] [] in
  let s = Relation.of_rows [ "B" ] [ [ V.Str "k" ] ] in
  let pdb =
    Pdb.of_worlds ~complete:[ "S" ]
      [
        ([ ("R", r1); ("S", s) ], Q.of_ints 1 2);
        ([ ("R", r2); ("S", s) ], Q.of_ints 1 3);
        ([ ("R", r3); ("S", s) ], Q.of_ints 1 6);
      ]
  in
  let udb = Enumerate.of_pdb pdb in
  let back = Enumerate.to_pdb udb in
  (* The roundtrip must preserve tuple confidences and world structure. *)
  let q_r = Pqdb_ast.Ua.table "R" in
  let confs_orig = Pqdb_worlds.Eval_naive.eval_confidence pdb q_r in
  let confs_back = Pqdb_worlds.Eval_naive.eval_confidence back q_r in
  check int_c "same tuple count" (List.length confs_orig)
    (List.length confs_back);
  List.iter
    (fun (t, p) ->
      let p' =
        List.fold_left
          (fun acc (t', p') -> if Tuple.equal t t' then p' else acc)
          Q.zero confs_back
      in
      check q_testable "confidence preserved" p p')
    confs_orig

(* ------------------------------------------------------------------ *)
(* Translation agreement with possible-worlds semantics                *)
(* ------------------------------------------------------------------ *)

let decode_confidences udb u =
  Pdb.confidence (Enumerate.decode (Udb.wtable udb) u)

let test_translation_product_join_agree () =
  let udb = coin_udb () in
  let w = Udb.wtable udb in
  let r =
    Translate.project_attrs [ "CoinType" ]
      (Translate.repair_key w ~key:[] ~weight:"Count" (Udb.find udb "Coins"))
  in
  (* Join R with itself: same variable, consistent conditions only. *)
  let j = Translate.join r r in
  check int_c "self-join keeps two rows" 2 (Urelation.size j);
  (* Product with a renamed copy keeps only consistent pairs (again 2). *)
  let j2 = Translate.product r (Translate.rename [ ("CoinType", "C2") ] r) in
  check int_c "self-product consistent pairs" 2 (Urelation.size j2);
  let confs = decode_confidences udb j in
  List.iter
    (fun (t, p) ->
      match Tuple.get t 0 with
      | V.Str "fair" -> check q_testable "fair" (Q.of_ints 2 3) p
      | V.Str "2headed" -> check q_testable "2headed" (Q.of_ints 1 3) p
      | _ -> Alcotest.fail "unexpected")
    confs

let test_translation_union_select () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let schema = Schema.of_list [ "A" ] in
  let u1 =
    Urelation.make schema
      [ (Assignment.singleton x 0, Tuple.of_list [ V.Int 1 ]) ]
  in
  let u2 =
    Urelation.make schema
      [ (Assignment.singleton x 1, Tuple.of_list [ V.Int 1 ]) ]
  in
  let union = Translate.union u1 u2 in
  check q_testable "P(1 in union) = 1" Q.one
    (Lineage.exact w (Urelation.clauses_for union (Tuple.of_list [ V.Int 1 ])));
  let sel = Translate.select Predicate.(Expr.attr "A" = Expr.int 2) union in
  check bool_c "selection removes all" true (Urelation.is_empty sel)

let test_diff_complete () =
  let a = Urelation.of_relation (Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 2 ] ]) in
  let b = Urelation.of_relation (Relation.of_rows [ "A" ] [ [ V.Int 2 ] ]) in
  let d = Translate.diff_complete a b in
  check int_c "one row" 1 (Urelation.size d);
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let uncertain =
    Urelation.make (Schema.of_list [ "A" ])
      [ (Assignment.singleton x 0, Tuple.of_list [ V.Int 1 ]) ]
  in
  Alcotest.check_raises "uncertain diff rejected"
    (Invalid_argument "Translate.diff_complete: arguments must be complete")
    (fun () -> ignore (Translate.diff_complete uncertain b))

(* ------------------------------------------------------------------ *)
(* Additional assignment / wtable / urelation behaviours               *)
(* ------------------------------------------------------------------ *)

let test_assignment_restrict_remove () =
  let a = Assignment.of_list [ (0, 1); (1, 0); (3, 1) ] in
  check int_c "restrict keeps listed vars" 2
    (Assignment.cardinal (Assignment.restrict a [ 0; 3 ]));
  check int_c "remove drops one var" 2
    (Assignment.cardinal (Assignment.remove a 1));
  check bool_c "remove absent var is identity" true
    (Assignment.equal a (Assignment.remove a 9));
  check bool_c "empty extended by anything" true
    (Assignment.extended_by (fun _ -> 0) Assignment.empty)

let test_assignment_duplicate_rejected () =
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Assignment.of_list: duplicate variable") (fun () ->
      ignore (Assignment.of_list [ (1, 0); (1, 1) ]))

let test_assignment_to_string_names () =
  let w = Wtable.create () in
  let x = Wtable.add_var ~name:"coin" w [ Q.half; Q.half ] in
  check Alcotest.string "named rendering" "{coin=1}"
    (Assignment.to_string w (Assignment.singleton x 1));
  check Alcotest.string "empty" "{}" (Assignment.to_string w Assignment.empty)

let test_wtable_to_relation () =
  let w = Wtable.create () in
  let _ = Wtable.add_var ~name:"c" w [ Q.of_ints 2 3; Q.of_ints 1 3 ] in
  let rel = Wtable.to_relation w in
  check int_c "two rows" 2 (Relation.cardinality rel);
  check bool_c "row content" true
    (Relation.mem rel
       (Tuple.of_list [ V.Str "c"; V.Int 0; V.rat (Q.of_ints 2 3) ]))

let test_urelation_filter_and_variables () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  let u =
    Urelation.make (Schema.of_list [ "A" ])
      [
        (Assignment.singleton y 0, Tuple.of_list [ V.Int 1 ]);
        (Assignment.singleton x 1, Tuple.of_list [ V.Int 2 ]);
      ]
  in
  check (Alcotest.list int_c) "variables sorted" [ x; y ]
    (Urelation.variables u);
  let f = Urelation.filter (fun (_, t) -> Tuple.get t 0 = V.Int 1) u in
  check int_c "filtered" 1 (Urelation.size f);
  check bool_c "complete rep detection" false (Urelation.is_complete_rep u)

let test_urelation_arity_mismatch () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Urelation: tuple arity does not match schema")
    (fun () ->
      ignore
        (Urelation.make (Schema.of_list [ "A"; "B" ])
           [ (Assignment.empty, Tuple.of_list [ V.Int 1 ]) ]))

(* ------------------------------------------------------------------ *)
(* Confidence properties                                               *)
(* ------------------------------------------------------------------ *)

let dnf_case_gen =
  (* (seed) -> random small wtable + clause list, built deterministically *)
  QCheck.int_range 0 100_000

let build_case seed =
  let rng = Rng.create ~seed in
  random_wtable_and_clauses rng ~vars:4 ~clauses:3 ~max_len:2

let prop_confidence_is_probability =
  QCheck.Test.make ~name:"confidence lies in [0, 1]" ~count:200 dnf_case_gen
    (fun seed ->
      let w, clauses = build_case seed in
      Q.is_proper_probability (Lineage.exact w clauses))

let prop_confidence_monotone_in_clauses =
  QCheck.Test.make ~name:"adding a clause never lowers confidence" ~count:200
    dnf_case_gen (fun seed ->
      let w, clauses = build_case seed in
      match clauses with
      | [] -> true
      | _ :: rest ->
          Q.compare (Lineage.exact w rest) (Lineage.exact w clauses)
          <= 0)

(* Differential-test DNFs: 1-6 variables with 2-4 values and uneven
   rational weights.  Every tenth seed is the empty DNF, every tenth (offset
   one) carries an empty clause, and about half of the rest repeat a clause
   and add one it subsumes. *)
let differential_case seed =
  let rng = Rng.create ~seed in
  let w = Wtable.create () in
  let vars =
    Array.init (1 + Rng.int rng 6) (fun _ ->
        let weights =
          List.init (2 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 9)
        in
        let total = List.fold_left ( + ) 0 weights in
        Wtable.add_var w (List.map (fun k -> Q.of_ints k total) weights))
  in
  let clause () =
    let chosen = ref [] in
    for _ = 1 to 1 + Rng.int rng 3 do
      let v = vars.(Rng.int rng (Array.length vars)) in
      if not (List.mem_assoc v !chosen) then
        chosen := (v, Rng.int rng (Wtable.domain_size w v)) :: !chosen
    done;
    Assignment.of_list !chosen
  in
  let clauses =
    match seed mod 10 with
    | 0 -> []
    | k ->
        let cs = List.init (1 + Rng.int rng 6) (fun _ -> clause ()) in
        let cs = if k = 1 then Assignment.empty :: cs else cs in
        if Rng.int rng 2 = 0 then cs
        else
          let c = List.nth cs (Rng.int rng (List.length cs)) in
          let subsumed =
            match
              List.find_opt
                (fun v -> Assignment.value c v = None)
                (Array.to_list vars)
            with
            | None -> c
            | Some v ->
                Option.get (Assignment.union c (Assignment.singleton v 0))
          in
          cs @ [ c; subsumed ]
  in
  (w, clauses)

let differential_gen = QCheck.int_range 0 99_999

let prop_enumeration_equals_shannon =
  QCheck.Test.make ~name:"enumeration = shannon (qcheck)" ~count:400
    differential_gen (fun seed ->
      let w, clauses = differential_case seed in
      Q.equal (Confidence.by_enumeration w clauses) (Lineage.exact w clauses))

(* The compiled tree's float value against the rational one.  The maximum
   over all 100,000 seeds of [differential_gen] is 2.2e-16 (one ulp at 1);
   the bound leaves a factor of two. *)
let compiled_float_bound = 4.5e-16

let prop_compiled_float_close =
  QCheck.Test.make ~name:"compiled float within 4.5e-16" ~count:400
    differential_gen (fun seed ->
      let w, clauses = differential_case seed in
      let exact = Q.to_float (Lineage.exact w clauses) in
      match Compile.exact_value (Compile.compile ~fuel:max_int w clauses) with
      | Some p -> Float.abs (p -. exact) <= compiled_float_bound
      | None -> false)

let test_total_assignments_weights () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 1 3; Q.of_ints 2 3 ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  let assignments = Enumerate.total_assignments w [ x; y ] in
  check int_c "four worlds" 4 (List.length assignments);
  check q_testable "weights sum to 1" Q.one
    (Q.sum (List.map snd assignments))

(* decode (select_p u) = per-world select_p (decode u): the parsimonious
   translation commutes with the semantics. *)
let prop_select_commutes_with_decode =
  QCheck.Test.make ~name:"select commutes with decode" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let u =
        Pqdb_workload.Gen.tuple_independent rng w ~attrs:[ "A" ] ~rows:4
          ~domain:3
      in
      let pred = Predicate.(Expr.attr "A" >= Expr.int 1) in
      let lhs = Enumerate.decode w (Translate.select pred u) in
      let rhs =
        Pdb.normalize_prel
          (List.map
             (fun (rel, p) -> (Algebra.select pred rel, p))
             (Enumerate.decode w u))
      in
      Pdb.equal_prel lhs rhs)

let prop_project_commutes_with_decode =
  QCheck.Test.make ~name:"project commutes with decode" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let u =
        Pqdb_workload.Gen.tuple_independent rng w ~attrs:[ "A"; "B" ] ~rows:4
          ~domain:3
      in
      let lhs = Enumerate.decode w (Translate.project_attrs [ "A" ] u) in
      let rhs =
        Pdb.normalize_prel
          (List.map
             (fun (rel, p) -> (Algebra.project_attrs [ "A" ] rel, p))
             (Enumerate.decode w u))
      in
      Pdb.equal_prel lhs rhs)

(* ------------------------------------------------------------------ *)
(* Sorted row arrays vs a balanced-set reference                       *)
(* ------------------------------------------------------------------ *)

(* U-relations as a balanced set ordered condition first: the semantic
   reference for [Urelation]'s sorted, tuple-major row arrays. *)
module Set_urelation = struct
  module RS = Set.Make (struct
    type t = Urelation.row

    let compare (a1, t1) (a2, t2) =
      let c = Assignment.compare a1 a2 in
      if c <> 0 then c else Tuple.compare t1 t2
  end)

  let rows = RS.elements
  let is_complete_rep = RS.for_all (fun (a, _) -> Assignment.is_empty a)
  let to_relation schema u = Relation.of_list schema (List.map snd (rows u))
  let possible_tuples schema u = Relation.tuples (to_relation schema u)

  let clauses_for u tuple =
    RS.fold
      (fun (a, t) acc -> if Tuple.equal t tuple then a :: acc else acc)
      u []

  let clauses_by_tuple u =
    let table = Tuple.Table.create 16 in
    let order = ref [] in
    RS.iter
      (fun (a, t) ->
        match Tuple.Table.find_opt table t with
        | Some acc -> Tuple.Table.replace table t (a :: acc)
        | None ->
            order := t :: !order;
            Tuple.Table.add table t [ a ])
      u;
    List.rev_map (fun t -> (t, List.rev (Tuple.Table.find table t))) !order
    |> List.sort (fun (t1, _) (t2, _) -> Tuple.compare t1 t2)

  let variables u =
    List.sort_uniq compare
      (RS.fold (fun (a, _) acc -> Assignment.vars a @ acc) u [])

  let map_rows f u = RS.fold (fun row acc -> RS.add (f row) acc) u RS.empty
end

(* Numerically equal values in different representations, so that equal
   rows need not be identical. *)
let row_values =
  [ V.Int 0; V.Int 1; V.Float 1.; V.rat Q.one; V.rat Q.half; V.Float 0.5;
    V.Str "a" ]

let row_gen =
  let open QCheck.Gen in
  let binding = pair (int_range 0 2) (int_range 0 1) in
  let cond =
    map
      (fun pairs ->
        Assignment.of_list
          (List.sort_uniq (fun (v, _) (w, _) -> compare v w) pairs))
      (list_size (int_range 0 2) binding)
  in
  map2
    (fun a vs -> (a, Tuple.of_list vs))
    cond
    (list_repeat 2 (oneofl row_values))

let rows_arb =
  let print rows =
    String.concat "; "
      (List.map
         (fun (a, t) -> Format.asprintf "%a %a" Assignment.pp a Tuple.pp t)
         rows)
  in
  QCheck.make ~print:(QCheck.Print.pair print print)
    QCheck.Gen.(
      pair (list_size (int_range 0 40) row_gen)
        (list_size (int_range 0 40) row_gen))

(* Tuple first, then condition. *)
let tuple_major (a1, t1) (a2, t2) =
  let c = Tuple.compare t1 t2 in
  if c <> 0 then c else Assignment.compare a1 a2

(* Equal as sets of rows, up to equal representations. *)
let same_rows xs ys =
  List.equal
    (fun x y -> tuple_major x y = 0)
    (List.sort tuple_major xs) (List.sort tuple_major ys)

let same_clauses = List.equal Assignment.equal

let prop_rows_match_set_reference =
  QCheck.Test.make ~name:"row arrays = balanced-set reference" ~count:300
    rows_arb (fun (rows1, rows2) ->
      let schema = Schema.of_list [ "A"; "B" ] in
      let u = Urelation.make schema rows1
      and r = Set_urelation.RS.of_list rows1 in
      let u2 = Urelation.make schema rows2
      and r2 = Set_urelation.RS.of_list rows2 in
      let probes =
        List.concat_map
          (fun x -> List.map (fun y -> Tuple.of_list [ x; y ]) row_values)
          row_values
      in
      let keep (a, t) =
        V.equal (Tuple.get t 0) (V.Int 1) || Assignment.cardinal a = 2
      in
      let first (a, t) = (Assignment.remove a 0, Tuple.project t [ 0 ]) in
      same_rows (Urelation.rows u) (Set_urelation.rows r)
      && List.equal Tuple.equal (Urelation.possible_tuples u)
           (Set_urelation.possible_tuples schema r)
      && List.for_all
           (fun t ->
             same_clauses (Urelation.clauses_for u t)
               (Set_urelation.clauses_for r t))
           probes
      && List.equal
           (fun (t1, c1) (t2, c2) -> Tuple.equal t1 t2 && same_clauses c1 c2)
           (Urelation.clauses_by_tuple u)
           (Set_urelation.clauses_by_tuple r)
      && same_rows
           (Urelation.rows (Urelation.filter keep u))
           (Set_urelation.rows (Set_urelation.RS.filter keep r))
      && same_rows
           (Urelation.rows
              (Urelation.map_rows (Schema.of_list [ "A" ]) first u))
           (Set_urelation.rows (Set_urelation.map_rows first r))
      && same_rows
           (Urelation.rows (Urelation.union u u2))
           (Set_urelation.rows (Set_urelation.RS.union r r2))
      && Urelation.is_complete_rep u = Set_urelation.is_complete_rep r
      && Urelation.variables u = Set_urelation.variables r
      && Relation.equal (Urelation.to_relation u)
           (Set_urelation.to_relation schema r))

(* The first of each run of equal rows. *)
let rec dedup = function
  | x :: y :: rest when tuple_major x y = 0 -> dedup (x :: rest)
  | x :: rest -> x :: dedup rest
  | [] -> []

(* Rows whose tuples ascend but whose conditions do not take the per-run
   sort: the same rows, the same kept representatives, as a stable sort of
   the whole list. *)
let prop_run_sort_is_stable_sort =
  QCheck.Test.make ~name:"tuple-ascending rows: per-run sort = stable sort"
    ~count:300 rows_arb (fun (rows, _) ->
      let by_tuple =
        List.stable_sort (fun (_, t1) (_, t2) -> Tuple.compare t1 t2) rows
      in
      List.equal
        (fun (a1, t1) (a2, t2) -> Assignment.equal a1 a2 && t1 == t2)
        (Urelation.rows
           (Urelation.make (Schema.of_list [ "A"; "B" ]) by_tuple))
        (dedup (List.stable_sort tuple_major by_tuple)))

(* The union's reference: both operands' rows appended, sorted stably and
   deduplicated, so of two equal rows the left operand's is kept, even
   where its tuple is written differently (Int 1 beside Float 1.).  The
   merge must keep the very same row values. *)
let union_reference u1 u2 =
  dedup (List.stable_sort tuple_major (Urelation.rows u1 @ Urelation.rows u2))

let prop_union_is_sorted_append =
  QCheck.Test.make ~name:"union merge = append, stable sort, dedup" ~count:300
    rows_arb (fun (rows1, rows2) ->
      let schema = Schema.of_list [ "A"; "B" ] in
      let u1 = Urelation.make schema rows1 and u2 = Urelation.make schema rows2 in
      List.for_all
        (fun (l, r) ->
          List.equal ( == ) (Urelation.rows (Urelation.union l r)) (union_reference l r))
        [ (u1, u2); (u2, u1); (u1, u1) ])

let test_union_keeps_left_representative () =
  let schema = Schema.of_list [ "A"; "B" ] in
  let x = Assignment.singleton 0 1 in
  let ints =
    Urelation.make schema
      [ (Assignment.empty, Tuple.of_list [ V.Int 1; V.Str "a" ]);
        (x, Tuple.of_list [ V.Int 2; V.Str "b" ]) ]
  and floats =
    Urelation.make schema
      [ (Assignment.empty, Tuple.of_list [ V.Float 1.; V.Str "a" ]);
        (Assignment.empty, Tuple.of_list [ V.Float 1.5; V.Str "a" ]);
        (x, Tuple.of_list [ V.Float 2.; V.Str "b" ]) ]
  in
  let firsts u =
    List.map (fun (_, t) -> Tuple.get t 0) (Urelation.rows u)
  in
  check bool_c "Int rows kept on the left" true
    (firsts (Urelation.union ints floats) = [ V.Int 1; V.Float 1.5; V.Int 2 ]);
  check bool_c "Float rows kept on the left" true
    (firsts (Urelation.union floats ints) = [ V.Float 1.; V.Float 1.5; V.Float 2. ])

(* [Translate.project] reads plain attributes by position and evaluates
   only computed columns; the reference evaluates every column through
   [Expr.eval].  The rows must hold the very same values. *)
let prop_project_matches_eval =
  QCheck.Test.make ~name:"project by position = project by Expr.eval"
    ~count:300 rows_arb (fun (rows, _) ->
      let schema = Schema.of_list [ "A"; "B" ] in
      let u = Urelation.make schema rows in
      let same (a1, t1) (a2, t2) =
        a1 == a2 && List.equal ( == ) (Tuple.to_list t1) (Tuple.to_list t2)
      in
      List.for_all
        (fun cols ->
          let reference =
            Urelation.map_rows
              (Schema.of_list (List.map snd cols))
              (fun (a, t) ->
                (a, Tuple.of_list (List.map (fun (e, _) -> Expr.eval schema t e) cols)))
              u
          in
          List.equal same (Urelation.rows (Translate.project cols u))
            (Urelation.rows reference))
        [ [ (Expr.attr "B", "B"); (Expr.attr "A", "A") ];
          [ (Expr.attr "A", "A") ];
          [ (Expr.attr "B", "B"); (Expr.const (V.Int 7), "K"); (Expr.attr "A", "C") ] ])

(* Minor-heap words [f] allocates.  An array of more than 256 words, such
   as a relation's row array, goes to the major heap directly and is not
   counted. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_row_array_allocation () =
  (* 1 500 tuples of two clauses each, rows already in the module's order:
     the shape of a join output that is grouped by tuple. *)
  let tuples = 1500 in
  let rows =
    List.concat
      (List.init tuples (fun i ->
           let t = Tuple.of_list [ V.Int i; V.Str "t" ] in
           [ (Assignment.singleton (2 * i) 0, t);
             (Assignment.singleton ((2 * i) + 1) 1, t) ]))
  in
  let n = List.length rows in
  let schema = Schema.of_list [ "A"; "B" ] in
  let u = Urelation.make schema rows in
  check int_c "rows kept" n (Urelation.size u);
  let make_words = minor_words (fun () -> Urelation.make schema rows) in
  let group_words =
    minor_words (fun () -> Urelation.clauses_by_tuple u)
  in
  (* A tree node per row, or a hash table and a sort per grouping, would
     exceed these bounds several times over. *)
  check bool_c "make on sorted rows: no sort, no tree" true
    (make_words <= 64.);
  check bool_c "clauses_by_tuple: one cons per row, one pair per tuple"
    true
    (group_words <= float_of_int ((3 * n) + (6 * tuples) + 64))

(* A selection that keeps every row (E2's [A >= 0]) returns its input:
   the same array, nothing allocated past the scan, the predicate called
   once per row.  One that drops rows keeps the others in order. *)
let test_filter_keeping_every_row () =
  let tuples = 1500 in
  let u =
    Urelation.make (Schema.of_list [ "A" ])
      (List.init tuples (fun i ->
           (Assignment.singleton i 0, Tuple.of_list [ V.Int i ])))
  in
  let calls = ref 0 in
  let all (_, _) =
    incr calls;
    true
  in
  check bool_c "keeping every row returns the input itself" true
    (Urelation.filter all u == u);
  check int_c "the predicate runs once per row" tuples !calls;
  check bool_c "keeping every row allocates nothing" true
    (minor_words (fun () -> Urelation.filter all u) = 0.);
  let even (_, t) =
    match Tuple.get t 0 with V.Int i -> i mod 2 = 0 | _ -> false
  in
  check bool_c "a dropping filter keeps the others, in order" true
    (Urelation.rows (Urelation.filter even u)
    = List.filter even (Urelation.rows u))

(* [project[id, tag]] of the query-aconf join at seed 1: 3 002 rows over
   1 500 tuples.  Evaluating each attribute through [Expr.eval] (a name
   lookup per column per tuple) and building each image from a list
   allocated 78 140 minor words here; by position it is about 21 000. *)
let test_project_allocation () =
  let udb =
    Pqdb_workload.Gen.uncertain_db (Rng.create ~seed:1) ~tuples:1500 ~clauses:3
  in
  let j = Translate.join (Udb.find udb "events") (Udb.find udb "tags") in
  let project () = Translate.project_attrs [ "id"; "tag" ] j in
  ignore (project ());
  let words = minor_words project in
  check bool_c
    (Printf.sprintf "project allocates %.0f minor words (bound 40 000)" words)
    true (words <= 40_000.)

(* ------------------------------------------------------------------ *)
(* Hash join vs nested-loop reference                                  *)
(* ------------------------------------------------------------------ *)

(* The textbook O(|a|·|b|) join, kept as the semantic reference for
   Translate.join's hash implementation. *)
let nested_loop_join a b =
  let sa = Urelation.schema a and sb = Urelation.schema b in
  let shared = Schema.common sa sb in
  let sb_only =
    List.filter (fun x -> not (List.mem x shared)) (Schema.attributes sb)
  in
  let out_schema = Schema.of_list (Schema.attributes sa @ sb_only) in
  let sa_shared = List.map (Schema.index sa) shared in
  let sb_shared = List.map (Schema.index sb) shared in
  let sb_only_pos = List.map (Schema.index sb) sb_only in
  let rows =
    List.concat_map
      (fun (fa, ta) ->
        List.filter_map
          (fun (fb, tb) ->
            if
              Tuple.equal (Tuple.project ta sa_shared)
                (Tuple.project tb sb_shared)
            then
              match Assignment.union fa fb with
              | Some f ->
                  Some (f, Tuple.concat ta (Tuple.project tb sb_only_pos))
              | None -> None
            else None)
          (Urelation.rows b))
      (Urelation.rows a)
  in
  Urelation.make out_schema rows

let same_urelation got expected =
  Schema.attributes (Urelation.schema got)
  = Schema.attributes (Urelation.schema expected)
  && Urelation.size got = Urelation.size expected
  && List.for_all2
       (fun (f1, t1) (f2, t2) -> Assignment.equal f1 f2 && Tuple.equal t1 t2)
       (Urelation.rows got) (Urelation.rows expected)

let prop_hash_join_equals_nested_loop =
  QCheck.Test.make ~name:"hash join = nested-loop join (random U-relations)"
    ~count:60 (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let a =
        Pqdb_workload.Gen.tuple_independent rng w ~attrs:[ "A"; "B" ]
          ~rows:(3 + Rng.int rng 6) ~domain:3
      in
      let b =
        Pqdb_workload.Gen.tuple_independent rng w ~attrs:[ "B"; "C" ]
          ~rows:(3 + Rng.int rng 6) ~domain:3
      in
      same_urelation (Translate.join a b) (nested_loop_join a b)
      (* Self-joins exercise the same-variable consistency path. *)
      && same_urelation (Translate.join a a) (nested_loop_join a a))

let test_join_cross_type_keys () =
  (* Value.equal is numeric across representations (Rat 1/2 = Float 0.5),
     so a join keyed on those values must match them even though they print
     differently — the regression that broke the old string-keyed index. *)
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let a =
    Urelation.make
      (Schema.of_list [ "K"; "A" ])
      [
        (Assignment.singleton x 0, Tuple.of_list [ V.Float 0.5; V.Int 1 ]);
        (Assignment.empty, Tuple.of_list [ V.Int 2; V.Int 7 ]);
      ]
  in
  let b =
    Urelation.make
      (Schema.of_list [ "K"; "B" ])
      [
        (Assignment.singleton x 1, Tuple.of_list [ V.rat Q.half; V.Int 3 ]);
        (Assignment.empty, Tuple.of_list [ V.rat Q.half; V.Int 4 ]);
        (Assignment.empty, Tuple.of_list [ V.Float 2.; V.Int 8 ]);
      ]
  in
  let j = Translate.join a b in
  check bool_c "matches nested-loop reference" true
    (same_urelation j (nested_loop_join a b));
  (* Float 0.5 must meet Rat 1/2: one pair is condition-inconsistent
     (x=0 vs x=1), one survives; Int 2 meets Float 2. *)
  check int_c "cross-type keys matched" 2 (Urelation.size j)

(* Rows whose tuples repeat, each with its own conditions, drawn with
   [row_gen]'s mixed representations: the join must walk a left tuple's
   whole run against each run of right matches. *)
let prop_join_repeated_left_tuples =
  QCheck.Test.make ~name:"join = nested-loop join (repeated tuples)"
    ~count:300 rows_arb (fun (rows1, rows2) ->
      let a = Urelation.make (Schema.of_list [ "A"; "B" ]) rows1 in
      let b = Urelation.make (Schema.of_list [ "B"; "C" ]) rows2 in
      let c = Urelation.make (Schema.of_list [ "C"; "D" ]) rows2 in
      same_urelation (Translate.join a b) (nested_loop_join a b)
      && same_urelation (Translate.join b a) (nested_loop_join b a)
      && same_urelation (Translate.join a a) (nested_loop_join a a)
      && same_urelation (Translate.product a c) (nested_loop_join a c))

(* Every word [f] allocates, minor heap and major heap alike: an array of
   more than 256 words goes to the major heap directly.  (Gc.minor_words is
   exact; quick_stat's minor count lags to the last minor collection.) *)
let allocated_words f =
  let minor = Gc.minor_words () and before = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  let after = Gc.quick_stat () in
  Gc.minor_words () -. minor
  +. (after.major_words -. before.major_words)
  -. (after.promoted_words -. before.promoted_words)

let test_join_allocation () =
  (* 1 500 left tuples of two clauses each, ten key values, and three
     certain right rows per key: 9 000 output rows, which already come out
     in tuple order, so no whole-array sort is needed. *)
  let tuples = 1500 in
  let a =
    Urelation.make
      (Schema.of_list [ "A"; "K" ])
      (List.concat
         (List.init tuples (fun i ->
              let t = Tuple.of_list [ V.Int i; V.Int (i mod 10) ] in
              [ (Assignment.singleton (2 * i) 0, t);
                (Assignment.singleton ((2 * i) + 1) 1, t) ])))
  in
  let b =
    Urelation.of_relation
      (Relation.of_list
         (Schema.of_list [ "K"; "C" ])
         (List.init 30 (fun j -> Tuple.of_list [ V.Int (j / 3); V.Int j ])))
  in
  let n = 6 * tuples in
  check int_c "output rows" n (Urelation.size (Translate.join a b));
  let words = allocated_words (fun () -> Translate.join a b) in
  (* About 11 words per output row: its pair, its condition's [Some], its
     array slot, half a joined tuple, and a sixth of a left run's probe.  A
     join through lists, with a key and a projection per pair and a
     whole-array sort, allocates about 63 here. *)
  check bool_c
    (Printf.sprintf "join allocates %.1f words per output row"
       (words /. float_of_int n))
    true
    (words <= float_of_int (14 * n))

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqdb_test_%d" (Hashtbl.hash (Sys.time ())))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_udb_io_roundtrip () =
  with_temp_dir (fun dir ->
      (* A database mixing complete and uncertain relations, with tricky
         values (strings that look like numbers, rationals). *)
      let udb = coin_udb () in
      let u =
        Pqdb.Eval_exact.eval udb
          (Pqdb_ast.Ua.project [ "CoinType" ]
             (Pqdb_ast.Ua.repair_key ~key:[] ~weight:"Count"
                (Pqdb_ast.Ua.table "Coins")))
      in
      Udb.add_urelation udb "R" u;
      Udb_io.save dir udb;
      let back = Udb_io.load dir in
      check (Alcotest.list Alcotest.string) "names preserved"
        (Udb.names udb) (Udb.names back);
      List.iter
        (fun name ->
          check bool_c
            ("complete flag for " ^ name)
            (Udb.is_complete udb name)
            (Udb.is_complete back name);
          let a = Udb.find udb name and b = Udb.find back name in
          check int_c ("size of " ^ name) (Urelation.size a)
            (Urelation.size b))
        (Udb.names udb);
      (* Confidences survive: the W table and conditions are intact. *)
      let conf_orig =
        Pqdb.Eval_exact.all_confidences (Udb.wtable udb) (Udb.find udb "R")
      in
      let conf_back =
        Pqdb.Eval_exact.all_confidences (Udb.wtable back) (Udb.find back "R")
      in
      List.iter2
        (fun (t, p) (t', p') ->
          check bool_c "tuple" true (Tuple.equal t t');
          check q_testable "confidence" p p')
        conf_orig conf_back)

let test_udb_io_queryable_after_load () =
  with_temp_dir (fun dir ->
      let udb = coin_udb () in
      Udb_io.save dir udb;
      let back = Udb_io.load dir in
      (* Run the whole Example 2.2 pipeline on the reloaded database. *)
      let q = Pqdb_workload.Scenarios.coin_queries in
      let u =
        Pqdb.Eval_exact.eval_relation back q.Pqdb_workload.Scenarios.u
      in
      check int_c "posterior rows" 2 (Relation.cardinality u))

let test_udb_io_failure_injection () =
  with_temp_dir (fun dir ->
      let udb = coin_udb () in
      Udb_io.save dir udb;
      (* Corrupt a condition atom. *)
      let rel_path = Filename.concat dir "rel_Coins.csv" in
      let oc = open_out rel_path in
      output_string oc "D,CoinType,Count\nnot-a-condition,fair,2\n";
      close_out oc;
      check bool_c "bad condition rejected" true
        (try
           ignore (Udb_io.load dir);
           false
         with
        | Pqdb_runtime.Pqdb_error.Error (Malformed_input { source; _ }) ->
            source = rel_path);
      (* Missing relation file referenced by the manifest. *)
      Sys.remove rel_path;
      check bool_c "missing relation file" true
        (try
           ignore (Udb_io.load dir);
           false
         with Pqdb_runtime.Pqdb_error.Error (Malformed_input _) -> true))

let test_udb_io_sparse_var_ids_rejected () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let write name body =
        let oc = open_out (Filename.concat dir name) in
        output_string oc body;
        close_out oc
      in
      (* Variable id 1 with no id 0: not dense. *)
      write "wtable.csv" "Var,Name,Dom,P\n1,x,0,1/2\n1,x,1,1/2\n";
      write "manifest.csv" "Ord,Name,Complete\n0,R,false\n";
      write "rel_R.csv" "D,A\nx1=0,1\n";
      check bool_c "sparse ids rejected" true
        (try
           ignore (Udb_io.load dir);
           false
         with Pqdb_runtime.Pqdb_error.Error (Malformed_input _) -> true))

(* The text database below as a .udbb file (hex) with its rows stored
   condition first, the order earlier releases wrote: its B column
   segment reads "cbaaba", where a tuple-major save writes "aaabbc". *)
let condition_major_udbb =
  "707164622d756462622f76310a00000003000000020000007830020000000300\
   0000312f3203000000312f320200000078310300000003000000312f33030000\
   00312f3303000000312f330200000078320200000003000000312f3403000000\
   332f340600000006000000000000000000000001000000020000000300000004\
   0000000600000000000000000000000000000001000000010000000000000001\
   0000000200000000000000000000000200000001000000060000000000000000\
   0003000000000000000200000000000000010000000000000001000000000000\
   0002000000000000000100000000000000000000000600000002020202020200\
   0000000100000001000000010000000200000001000000030000000100000004\
   0000000100000005000000010000000600000063626161626104000000571000\
   00000000000053000000000000007a17ddf24463000000000000005400000000\
   000000cdcd111343b7000000000000003e000000000000007b8d753443f50000\
   00000000004400000000000000e307c11d000000000100000001000000520006\
   0000000200000001000000410100000042010000000200000003000000390100\
   000000000084000000a208507f55444242454e440a"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_udb_condition_major_files () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let write name body =
        let oc = open_out_bin (Filename.concat dir name) in
        output_string oc body;
        close_out oc
      in
      write "wtable.csv"
        "Var,Name,Dom,P\n0,x0,0,\"1/2\"\n0,x0,1,\"1/2\"\n1,x1,0,\"1/3\"\n\
         1,x1,1,\"1/3\"\n1,x1,2,\"1/3\"\n2,x2,0,\"1/4\"\n2,x2,1,\"3/4\"\n";
      write "manifest.csv" "Ord,Name,Complete\n0,R,false\n";
      (* Condition first: fewer bindings, then by binding. *)
      write "rel_R.csv"
        "D,A,B\n,3,c\nx0=0,2,b\nx0=1,1,a\nx1=0,1,a\nx1=2,2,b\nx0=0;x2=1,1,a\n";
      write "old.udbb" (of_hex condition_major_udbb);
      let row cond a b =
        (Assignment.of_list cond, Tuple.of_list [ V.Int a; V.Str b ])
      in
      let expected =
        Urelation.make (Schema.of_list [ "A"; "B" ])
          [
            row [ (0, 1) ] 1 "a";
            row [ (1, 0) ] 1 "a";
            row [ (0, 0); (2, 1) ] 1 "a";
            row [ (0, 0) ] 2 "b";
            row [ (1, 2) ] 2 "b";
            row [] 3 "c";
          ]
      in
      List.iter
        (fun path ->
          let udb = Udb_io.load path in
          let r = Udb.find udb "R" in
          check bool_c (path ^ " loads the rows") true
            (same_urelation r expected);
          check (Alcotest.list q_testable)
            (path ^ " confidences")
            [ Q.of_ints 11 12; Q.of_ints 2 3; Q.one ]
            (List.map snd
               (Pqdb.Eval_exact.all_confidences (Udb.wtable udb) r)))
        [ dir; Filename.concat dir "old.udbb" ])

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "urel"
    [
      ( "wtable",
        [
          Alcotest.test_case "basics" `Quick test_wtable_basics;
          Alcotest.test_case "validation" `Quick test_wtable_validation;
          Alcotest.test_case "udb copy shares checked entries" `Quick
            test_udb_copy;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "union/consistency" `Quick test_assignment_union;
          Alcotest.test_case "weights" `Quick test_assignment_weight;
          qcheck prop_union_commutes;
          qcheck prop_union_extends;
        ] );
      ( "repair-key",
        [
          Alcotest.test_case "variable elision (Fig 1b)" `Quick
            test_repair_key_variable_elision;
          Alcotest.test_case "decodes to ground truth" `Quick
            test_repair_key_decodes_to_ground_truth;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "enumeration = shannon (random)" `Quick
            test_confidence_agreement;
          Alcotest.test_case "edge cases" `Quick test_confidence_edge_cases;
          Alcotest.test_case "independent or" `Quick
            test_confidence_independent_or;
        ] );
      ( "theorem 3.1",
        [ Alcotest.test_case "of_pdb roundtrip" `Quick test_of_pdb_roundtrip ]
      );
      ( "more behaviours",
        [
          Alcotest.test_case "assignment restrict/remove" `Quick
            test_assignment_restrict_remove;
          Alcotest.test_case "assignment duplicates" `Quick
            test_assignment_duplicate_rejected;
          Alcotest.test_case "assignment names" `Quick
            test_assignment_to_string_names;
          Alcotest.test_case "wtable rendering" `Quick test_wtable_to_relation;
          Alcotest.test_case "urelation filter/variables" `Quick
            test_urelation_filter_and_variables;
          Alcotest.test_case "urelation arity check" `Quick
            test_urelation_arity_mismatch;
          Alcotest.test_case "total assignment weights" `Quick
            test_total_assignments_weights;
          qcheck prop_confidence_is_probability;
          qcheck prop_confidence_monotone_in_clauses;
          qcheck prop_enumeration_equals_shannon;
          qcheck prop_compiled_float_close;
          qcheck prop_select_commutes_with_decode;
          qcheck prop_project_commutes_with_decode;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_udb_io_roundtrip;
          Alcotest.test_case "queryable after load" `Quick
            test_udb_io_queryable_after_load;
          Alcotest.test_case "failure injection" `Quick
            test_udb_io_failure_injection;
          Alcotest.test_case "sparse variable ids" `Quick
            test_udb_io_sparse_var_ids_rejected;
          Alcotest.test_case "condition-major files load" `Quick
            test_udb_condition_major_files;
        ] );
      ( "translation",
        [
          Alcotest.test_case "product/join consistency" `Quick
            test_translation_product_join_agree;
          Alcotest.test_case "union/select" `Quick
            test_translation_union_select;
          Alcotest.test_case "difference on complete" `Quick
            test_diff_complete;
          Alcotest.test_case "cross-type join keys" `Quick
            test_join_cross_type_keys;
          qcheck prop_hash_join_equals_nested_loop;
          qcheck prop_join_repeated_left_tuples;
          Alcotest.test_case "join allocation guard" `Quick
            test_join_allocation;
        ] );
      ( "row arrays",
        [
          qcheck prop_rows_match_set_reference;
          qcheck prop_run_sort_is_stable_sort;
          Alcotest.test_case "allocation guard" `Quick
            test_row_array_allocation;
          qcheck prop_union_is_sorted_append;
          Alcotest.test_case "union keeps the left representative" `Quick
            test_union_keeps_left_representative;
          qcheck prop_project_matches_eval;
          Alcotest.test_case "project allocation guard" `Quick
            test_project_allocation;
          Alcotest.test_case "filter keeping every row returns its input"
            `Quick test_filter_keeping_every_row;
        ] );
    ]
