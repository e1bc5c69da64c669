(* Tests for top-k-by-confidence multisimulation and the exact lineage
   decomposer's independence splits. *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Ua = Pqdb_ast.Ua
module Topk = Pqdb.Topk
module Dnf = Pqdb_montecarlo.Dnf
module Guarantee = Pqdb_montecarlo.Guarantee
module Lineage = Pqdb_montecarlo.Lineage
module Gen = Pqdb_workload.Gen

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Independence decomposition                                           *)
(* ------------------------------------------------------------------ *)

let prop_decomposition_equals_enumeration =
  QCheck.Test.make ~name:"decomposition = enumeration" ~count:150
    (QCheck.int_range 0 50_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let clauses = Gen.random_dnf rng w ~vars:6 ~clauses:5 ~clause_len:2 in
      Q.equal (Lineage.exact w clauses) (Confidence.by_enumeration w clauses))

let test_decomposition_independent_or () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let y = Wtable.add_var w [ Q.of_ints 1 4; Q.of_ints 3 4 ] in
  (* Disjoint vars: P = 1 - (1 - 1/2)(1 - 3/4) = 7/8 via the product rule. *)
  check q_testable "7/8" (Q.of_ints 7 8)
    (Lineage.exact w
       [ Assignment.singleton x 1; Assignment.singleton y 1 ]);
  check q_testable "edge: empty" Q.zero (Lineage.exact w []);
  check q_testable "edge: certain" Q.one
    (Lineage.exact w [ Assignment.empty ])

let test_decomposition_speedup_shape () =
  (* Many independent single-literal clauses: the independence split is
     linear where enumeration would visit 2^14 worlds. *)
  let w = Wtable.create () in
  let clauses =
    List.init 14 (fun _ ->
        let v = Wtable.add_var w [ Q.of_ints 9 10; Q.of_ints 1 10 ] in
        Assignment.singleton v 1)
  in
  let a = Lineage.exact w clauses in
  (* 1 - 0.9^14 *)
  check q_testable "closed form" (Q.complement (Q.pow (Q.of_ints 9 10) 14)) a

(* ------------------------------------------------------------------ *)
(* Top-k                                                                *)
(* ------------------------------------------------------------------ *)

let bernoulli_candidate w name p =
  let num = int_of_float (Float.round (p *. 1000.)) in
  let var = Wtable.add_var w [ Q.of_ints (1000 - num) 1000; Q.of_ints num 1000 ] in
  (Tuple.of_list [ V.Str name ], [ Assignment.singleton var 1 ])

(* Two-clause candidate so the estimate is genuinely noisy when compilation
   is disabled ([compile_fuel:0]); with compilation on it resolves exactly
   (two independent clauses). *)
let noisy_candidate w name p =
  let q = 1. -. sqrt (1. -. p) in
  let num = max 1 (int_of_float (Float.round (q *. 1000.))) in
  let fresh () =
    Wtable.add_var w [ Q.of_ints (1000 - num) 1000; Q.of_ints num 1000 ]
  in
  ( Tuple.of_list [ V.Str name ],
      [
        Assignment.singleton (fresh ()) 1;
        Assignment.singleton (fresh ()) 1;
      ] )

let test_topk_ranks_correctly () =
  let rng = Rng.create ~seed:1 in
  let w = Wtable.create () in
  let candidates =
    [
      noisy_candidate w "low" 0.2;
      noisy_candidate w "mid" 0.5;
      noisy_candidate w "high" 0.8;
      noisy_candidate w "top" 0.95;
    ]
  in
  let r = Topk.run ~rng ~delta:0.05 ~k:2 w candidates in
  let names =
    List.map (fun (t, _) -> V.to_string (Tuple.get t 0)) r.Topk.ranked
  in
  check (Alcotest.list Alcotest.string) "top 2" [ "top"; "high" ] names;
  check bool_c "certified" true (Topk.certified r);
  (* Two independent clauses per candidate: the compiler solves all of them
     in closed form, so the ranking costs zero estimator calls. *)
  check int_c "all candidates compiled exact" 4 r.Topk.exact_candidates;
  check int_c "no sampling needed" 0 r.Topk.estimator_calls;
  check bool_c "an exact certificate" true (r.Topk.claim = Guarantee.Exact)

let test_topk_prunes_clear_losers () =
  (* A clear loser should stop refining long before the contested pair. *)
  let rng = Rng.create ~seed:2 in
  let w = Wtable.create () in
  let loser = noisy_candidate w "loser" 0.05 in
  let a = noisy_candidate w "a" 0.6 in
  let b = noisy_candidate w "b" 0.52 in
  (* [compile_fuel:0] forces every candidate onto the sampling path — this
     test is about interval pruning, not compilation. *)
  let r = Topk.run ~compile_fuel:0 ~rng ~delta:0.05 ~k:1 w [ loser; a; b ] in
  check bool_c "ranked a first" true
    (match r.Topk.ranked with
    | [ (t, _) ] -> V.to_string (Tuple.get t 0) = "a"
    | _ -> false);
  let trials_of (t, _) =
    match List.assoc_opt t r.Topk.sampled with Some n -> n | None -> 0
  in
  check bool_c
    (Printf.sprintf "loser (%d) sampled less than contested (%d)"
       (trials_of loser) (trials_of a))
    true
    (trials_of loser < trials_of a);
  (* Three sampled intervals at δ/3 each: the certificate spends δ. *)
  match r.Topk.claim with
  | Guarantee.Sampled { eps; delta } ->
      check bool_c "certified" true (Topk.certified r);
      check (Alcotest.float 0.) "a selection claim has no eps" 0. eps;
      check (Alcotest.float 1e-15) "the union of three delta/3" 0.05 delta
  | _ -> Alcotest.fail "expected a sampled certificate"

let test_topk_tie_uncertified () =
  (* Exact ties cannot be separated: the run must terminate uncertified. *)
  let rng = Rng.create ~seed:3 in
  let w = Wtable.create () in
  let candidates =
    [ noisy_candidate w "t1" 0.5; noisy_candidate w "t2" 0.5 ]
  in
  let r = Topk.run ~eps0:0.05 ~compile_fuel:0 ~rng ~delta:0.1 ~k:1 w candidates in
  check bool_c "terminates" true (List.length r.Topk.ranked = 1);
  check bool_c "uncertified on a tie" false (Topk.certified r);
  check bool_c "the order claims nothing" true
    (r.Topk.claim = Guarantee.Bracket)

let test_topk_compiled_tie_certifies () =
  (* With compilation on, the same tie is two point intervals at exactly
     0.5: the boundary test holds with equality and the run certifies with
     zero sampling — compilation removes the singularity. *)
  let rng = Rng.create ~seed:3 in
  let w = Wtable.create () in
  let candidates =
    [ noisy_candidate w "t1" 0.5; noisy_candidate w "t2" 0.5 ]
  in
  let r = Topk.run ~eps0:0.05 ~rng ~delta:0.1 ~k:1 w candidates in
  check bool_c "certified exactly" true (Topk.certified r);
  check int_c "no sampling" 0 r.Topk.estimator_calls;
  check bool_c "an exact certificate" true (r.Topk.claim = Guarantee.Exact)

let test_topk_k_covers_all () =
  let rng = Rng.create ~seed:4 in
  let w = Wtable.create () in
  let candidates = [ bernoulli_candidate w "a" 0.3; bernoulli_candidate w "b" 0.7 ] in
  let r = Topk.run ~rng ~delta:0.1 ~k:5 w candidates in
  check int_c "k clamped to n" 2 (List.length r.Topk.ranked);
  check bool_c "trivially certified" true (Topk.certified r)

let test_topk_validation () =
  let rng = Rng.create ~seed:5 and w = Wtable.create () in
  check bool_c "k = 0 rejected" true
    (try
       ignore (Topk.run ~rng ~delta:0.1 ~k:0 w []);
       false
     with Invalid_argument _ -> true);
  check bool_c "empty candidates rejected" true
    (try
       ignore (Topk.run ~rng ~delta:0.1 ~k:1 w []);
       false
     with Invalid_argument _ -> true)

let test_topk_query_on_coins () =
  (* Top-1 tuple of T (the all-heads evidence): 2headed at 1/3 beats fair at
     1/6. *)
  let rng = Rng.create ~seed:6 in
  let udb = Pqdb_workload.Scenarios.coin_db () in
  let q = Pqdb_workload.Scenarios.coin_queries in
  let r =
    Topk.query ~rng ~delta:0.05 ~k:1 udb q.Pqdb_workload.Scenarios.t
  in
  (match r.Topk.ranked with
  | [ (t, p) ] ->
      check Alcotest.string "winner" "2headed" (V.to_string (Tuple.get t 0));
      check bool_c "estimate near 1/3" true (Float.abs (p -. (1. /. 3.)) < 0.1)
  | _ -> Alcotest.fail "expected one tuple");
  check bool_c "certified" true (Topk.certified r)

(* Races of 6 random DNFs at compile fuel 8, where compilation leaves
   several residuals: each sampled candidate races on one sampler over its
   whole DNF, and a certified race must select the exact top 2. *)
let test_topk_low_fuel_matches_exact () =
  let certified = ref 0 and several = ref 0 and calls = ref 0 in
  for race = 1 to 12 do
    let rng = Rng.create ~seed:race in
    let w = Wtable.create () in
    let candidates =
      List.init 6 (fun i ->
          let cs = Gen.random_dnf rng w ~vars:10 ~clauses:8 ~clause_len:3 in
          let residuals =
            (Lineage.decompose ~fuel:8
               { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
                 complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }
               w (Lineage.of_clauses cs))
              .Lineage.residuals
          in
          if Array.length residuals >= 2 then incr several;
          (Tuple.of_list [ V.Int i ], cs))
    in
    let r =
      Topk.run ~eps0:0.05 ~compile_fuel:8 ~rng:(Rng.create ~seed:(race + 100))
        ~delta:0.05 ~k:2 w candidates
    in
    calls := !calls + r.Topk.estimator_calls;
    if Topk.certified r then begin
      incr certified;
      let by_exact =
        List.map
          (fun (t, cs) -> (Q.to_float (Lineage.exact w cs), t))
          candidates
        |> List.sort (fun a b -> compare b a)
      in
      let names ts =
        List.sort compare (List.map (fun t -> V.to_string (Tuple.get t 0)) ts)
      in
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "race %d: the exact top 2" race)
        (names [ snd (List.nth by_exact 0); snd (List.nth by_exact 1) ])
        (names (List.map fst r.Topk.ranked))
    end
  done;
  check bool_c "some candidates keep several residuals" true (!several > 0);
  check bool_c "some races sample" true (!calls > 0);
  check bool_c "some races certify" true (!certified > 0)

let () =
  Alcotest.run "topk"
    [
      ( "decomposition",
        [
          QCheck_alcotest.to_alcotest prop_decomposition_equals_enumeration;
          Alcotest.test_case "independent or" `Quick
            test_decomposition_independent_or;
          Alcotest.test_case "independent clauses" `Quick
            test_decomposition_speedup_shape;
        ] );
      ( "top-k",
        [
          Alcotest.test_case "ranks correctly" `Quick test_topk_ranks_correctly;
          Alcotest.test_case "prunes clear losers" `Quick
            test_topk_prunes_clear_losers;
          Alcotest.test_case "ties are uncertified" `Quick
            test_topk_tie_uncertified;
          Alcotest.test_case "compiled ties certify" `Quick
            test_topk_compiled_tie_certifies;
          Alcotest.test_case "k >= n" `Quick test_topk_k_covers_all;
          Alcotest.test_case "validation" `Quick test_topk_validation;
          Alcotest.test_case "query on the coin bag" `Quick
            test_topk_query_on_coins;
          Alcotest.test_case "low fuel matches the exact top k" `Quick
            test_topk_low_fuel_matches_exact;
        ] );
    ]
