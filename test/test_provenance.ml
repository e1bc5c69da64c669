(* Tests for the provenance module (the ≺ relation of Section 6) and the
   vertical decomposition of attribute-level uncertainty. *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred
module Provenance = Pqdb.Provenance

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

let small_db () =
  let udb = Udb.create () in
  Udb.add_complete udb "R"
    (Relation.of_rows [ "A"; "B" ]
       [ [ V.Int 1; V.Int 10 ]; [ V.Int 2; V.Int 10 ]; [ V.Int 3; V.Int 20 ] ]);
  Udb.add_complete udb "S"
    (Relation.of_rows [ "B"; "C" ]
       [ [ V.Int 10; V.Str "x" ]; [ V.Int 20; V.Str "y" ] ]);
  udb

let test_select_preserves () =
  let udb = small_db () in
  let p =
    Provenance.compute udb
      (Ua.select Predicate.(Expr.attr "A" >= Expr.int 2) (Ua.table "R"))
  in
  let t = Tuple.of_list [ V.Int 2; V.Int 10 ] in
  (match Provenance.leaves p t with
  | [ Provenance.Base ("R", r) ] -> check bool_c "same tuple" true (Tuple.equal r t)
  | _ -> Alcotest.fail "expected exactly the base tuple");
  check int_c "no sigma-hats" 0 (Provenance.sigma_hat_count p)

let test_projection_fanin () =
  (* π_B(R): output (10) depends on the two input tuples with B = 10. *)
  let udb = small_db () in
  let p = Provenance.compute udb (Ua.project [ "B" ] (Ua.table "R")) in
  let leaves = Provenance.leaves p (Tuple.of_list [ V.Int 10 ]) in
  check int_c "fan-in of 2" 2 (List.length leaves);
  let leaves20 = Provenance.leaves p (Tuple.of_list [ V.Int 20 ]) in
  check int_c "fan-in of 1" 1 (List.length leaves20)

let test_join_unions_components () =
  let udb = small_db () in
  let p = Provenance.compute udb (Ua.join (Ua.table "R") (Ua.table "S")) in
  let out = Tuple.of_list [ V.Int 1; V.Int 10; V.Str "x" ] in
  let leaves = Provenance.leaves p out in
  check int_c "two components" 2 (List.length leaves);
  let names =
    List.filter_map
      (function Provenance.Base (n, _) -> Some n | _ -> None)
      leaves
  in
  check (Alcotest.list Alcotest.string) "both tables" [ "R"; "S" ]
    (List.sort compare names)

let test_union_merges () =
  let udb = small_db () in
  let q =
    Ua.union
      (Ua.project [ "B" ] (Ua.table "R"))
      (Ua.project [ "B" ] (Ua.table "S"))
  in
  let p = Provenance.compute udb q in
  let leaves = Provenance.leaves p (Tuple.of_list [ V.Int 10 ]) in
  (* Two R tuples and one S tuple project to B=10. *)
  check int_c "both occurrences" 3 (List.length leaves)

let test_sigma_hat_is_leaf () =
  let udb = small_db () in
  let w = Udb.wtable udb in
  (* Add an uncertain relation to make sigma-hat meaningful. *)
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  Udb.add_urelation udb "U"
    (Urelation.make (Schema.of_list [ "A" ])
       [
         (Assignment.singleton x 1, Tuple.of_list [ V.Int 1 ]);
         (Assignment.empty, Tuple.of_list [ V.Int 2 ]);
       ]);
  let sigma =
    Ua.approx_select
      (Apred.ge (Apred.var 0) (Apred.const 0.4))
      [ [ "A" ] ] (Ua.table "U")
  in
  let q = Ua.join sigma (Ua.table "R") in
  let p = Provenance.compute udb q in
  check int_c "one sigma-hat" 1 (Provenance.sigma_hat_count p);
  let out = Tuple.of_list [ V.Int 1; V.Int 10 ] in
  let sh = Provenance.sigma_hat_leaves p out in
  check int_c "depends on one sigma-hat tuple" 1 (List.length sh);
  (match sh with
  | [ (0, t) ] -> check bool_c "the A=1 decision" true
      (Tuple.equal t (Tuple.of_list [ V.Int 1 ]))
  | _ -> Alcotest.fail "unexpected sigma-hat leaves");
  (* The base side is still tracked. *)
  let bases =
    List.filter_map
      (function Provenance.Base (n, _) -> Some n | _ -> None)
      (Provenance.leaves p out)
  in
  check (Alcotest.list Alcotest.string) "R contributes" [ "R" ] bases

let test_provenance_result_matches_exact () =
  let udb = small_db () in
  let q = Ua.conf (Ua.project [ "B" ] (Ua.table "R")) in
  let p = Provenance.compute udb q in
  let via_exact = Pqdb.Eval_exact.eval (small_db ()) q in
  check bool_c "same result" true
    (Relation.equal
       (Urelation.to_relation (Provenance.result p))
       (Urelation.to_relation via_exact))

let test_example_6_5_shape () =
  (* Example 6.5: pi_A over n independent tuples — the single output tuple's
     provenance is the entire input. *)
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let n = 5 in
  let rows =
    List.init n (fun i ->
        let x = Wtable.add_var w [ Q.half; Q.half ] in
        (Assignment.singleton x 1, Tuple.of_list [ V.Str "a"; V.Int i ]))
  in
  Udb.add_urelation udb "U" (Urelation.make (Schema.of_list [ "A"; "B" ]) rows);
  let sigma =
    Ua.approx_select
      (Apred.ge (Apred.var 0) (Apred.const 0.3))
      [ [ "A"; "B" ] ] (Ua.table "U")
  in
  let p = Provenance.compute udb (Ua.project [ "A" ] sigma) in
  let leaves = Provenance.sigma_hat_leaves p (Tuple.of_list [ V.Str "a" ]) in
  check int_c "provenance is the whole input" n (List.length leaves)

(* ------------------------------------------------------------------ *)
(* Vertical decomposition                                               *)
(* ------------------------------------------------------------------ *)

let spec_row name_alts city_alts =
  [
    name_alts;
    city_alts;
  ]

let test_vertical_sizes () =
  let w = Wtable.create () in
  let alts vs = List.map (fun v -> (V.Str v, Q.of_ints 1 (List.length vs))) vs in
  let rows =
    [
      spec_row (alts [ "ann"; "anne" ]) (alts [ "vienna"; "ithaca" ]);
      spec_row (alts [ "bob" ]) (alts [ "vienna"; "ithaca"; "berlin" ]);
    ]
  in
  let v = Vertical.build w ~tid:"#id" ~attrs:[ "Name"; "City" ] ~rows in
  check int_c "tuples" 2 (Vertical.tuple_count v);
  (* Component rows: (2+2) + (1+3) = 8; expanded: 2*2 + 1*3 = 7.  With more
     uncertain attributes the gap is exponential. *)
  check int_c "component size" 8 (Vertical.component_size v);
  check int_c "expanded size" 7 (Vertical.expanded_size v);
  check int_c "expanded matches prediction" 7 (Urelation.size (Vertical.expanded v))

let test_vertical_exponential_gap () =
  let w = Wtable.create () in
  let k = 8 in
  let alts = [ (V.Int 0, Q.half); (V.Int 1, Q.half) ] in
  let attrs = List.init k (fun i -> "A" ^ string_of_int i) in
  let rows = [ List.init k (fun _ -> alts) ] in
  let v = Vertical.build w ~tid:"#id" ~attrs ~rows in
  check int_c "linear components" (2 * k) (Vertical.component_size v);
  check int_c "exponential expansion" (1 lsl k) (Vertical.expanded_size v)

let test_vertical_semantics () =
  (* Marginals computed on the expanded relation match the per-attribute
     distributions. *)
  let w = Wtable.create () in
  let rows =
    [
      [
        [ (V.Str "ann", Q.of_ints 3 4); (V.Str "anne", Q.of_ints 1 4) ];
        [ (V.Str "vienna", Q.one) ];
      ];
    ]
  in
  let v = Vertical.build w ~tid:"#id" ~attrs:[ "Name"; "City" ] ~rows in
  let expanded = Vertical.expanded v in
  let p =
    Pqdb_montecarlo.Lineage.exact w
      (Urelation.clauses_for expanded
         (Tuple.of_list [ V.Str "ann"; V.Str "vienna" ]))
  in
  check q_testable "P(ann, vienna) = 3/4" (Q.of_ints 3 4) p;
  (* Components decode consistently: the Name component holds both
     alternatives conditioned on the same variable. *)
  let name_comp = List.assoc "Name" (Vertical.components v) in
  check int_c "name component rows" 2 (Urelation.size name_comp);
  let joined =
    Translate.join (List.assoc "Name" (Vertical.components v))
      (List.assoc "City" (Vertical.components v))
  in
  (* Joining components on the tid reconstructs the expanded relation. *)
  let reconstructed =
    Translate.project_attrs [ "Name"; "City" ] joined
  in
  check bool_c "join of components = expansion" true
    (List.for_all2
       (fun (a1, t1) (a2, t2) ->
         Assignment.equal a1 a2 && Tuple.equal t1 t2)
       (Urelation.rows reconstructed)
       (Urelation.rows expanded))

let test_vertical_validation () =
  let w = Wtable.create () in
  check bool_c "tid clash rejected" true
    (try
       ignore (Vertical.build w ~tid:"A" ~attrs:[ "A" ] ~rows:[]);
       false
     with Invalid_argument _ -> true);
  check bool_c "arity mismatch rejected" true
    (try
       ignore
         (Vertical.build w ~tid:"#id" ~attrs:[ "A"; "B" ]
            ~rows:[ [ [ (V.Int 1, Q.one) ] ] ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "provenance"
    [
      ( "lineage (Section 6)",
        [
          Alcotest.test_case "select preserves" `Quick test_select_preserves;
          Alcotest.test_case "projection fan-in" `Quick test_projection_fanin;
          Alcotest.test_case "join unions components" `Quick
            test_join_unions_components;
          Alcotest.test_case "union merges occurrences" `Quick
            test_union_merges;
          Alcotest.test_case "sigma-hat leaves" `Quick test_sigma_hat_is_leaf;
          Alcotest.test_case "result matches exact eval" `Quick
            test_provenance_result_matches_exact;
          Alcotest.test_case "Example 6.5 whole-input provenance" `Quick
            test_example_6_5_shape;
        ] );
      ( "vertical decomposition",
        [
          Alcotest.test_case "sizes" `Quick test_vertical_sizes;
          Alcotest.test_case "exponential gap" `Quick
            test_vertical_exponential_gap;
          Alcotest.test_case "semantics" `Quick test_vertical_semantics;
          Alcotest.test_case "validation" `Quick test_vertical_validation;
        ] );
    ]
