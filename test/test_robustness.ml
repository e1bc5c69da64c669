(* Tests for the anytime execution layer: the Budget governor, graceful
   degradation under deadlines / trial caps / cancellation, and the
   soundness of the partial-trial intervals every layer falls back to. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
open Pqdb_montecarlo
module Q = Rational
module FP = Pqdb_runtime.Faultpoint

(* Exercise the parallel path even on single-core machines. *)
let () = Unix.putenv "PQDB_POOL_WORKERS" "3"

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Budget basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_budget_validation () =
  Alcotest.check_raises "deadline <= 0"
    (Invalid_argument "Budget.create: deadline_s must be positive") (fun () ->
      ignore (Budget.create ~deadline_s:0. ()));
  Alcotest.check_raises "max_trials <= 0"
    (Invalid_argument "Budget.create: max_trials must be positive") (fun () ->
      ignore (Budget.create ~max_trials:0 ()))

let test_budget_accounting () =
  let b = Budget.create ~max_trials:10 () in
  check bool_c "fresh budget not exhausted" false (Budget.exhausted b);
  check int_c "nothing spent" 0 (Budget.spent b);
  check int_c "all remaining" 10 (Budget.remaining_trials b);
  Budget.spend b 4;
  check int_c "4 spent" 4 (Budget.spent b);
  check int_c "6 remaining" 6 (Budget.remaining_trials b);
  check bool_c "still live" false (Budget.exhausted b);
  Budget.spend b 7;
  check bool_c "over the cap" true (Budget.exhausted b);
  check int_c "remaining never negative" 0 (Budget.remaining_trials b);
  (* A limitless budget only exhausts via cancel. *)
  let b = Budget.create () in
  check bool_c "limitless" false (Budget.exhausted b);
  Budget.spend b 1_000_000;
  check bool_c "still limitless" false (Budget.exhausted b);
  check bool_c "not cancelled" false (Budget.cancelled b);
  Budget.cancel b;
  check bool_c "cancelled" true (Budget.cancelled b);
  check bool_c "cancel exhausts" true (Budget.exhausted b)

let test_budget_deadline_sticky () =
  let b = Budget.create ~deadline_s:0.02 () in
  let rec spin () = if not (Budget.exhausted b) then spin () in
  spin ();
  (* Once observed expired it stays expired. *)
  check bool_c "sticky" true (Budget.exhausted b)

(* ------------------------------------------------------------------ *)
(* Karp-Luby partials                                                  *)
(* ------------------------------------------------------------------ *)

let test_adaptive_partial_no_budget_bit_identical () =
  let w, clause_sets = Batch.fixture () in
  let dnf = Dnf.prepare w clause_sets.(0) in
  (* The one DKLR stopping-rule pass at (ε, δ), pinned for this seed: the
     no-budget path must keep consuming the RNG exactly as before, and a
     budget that never binds must not change a bit of the record. *)
  let reference = 0x1.c47f77aff7449p-1 and trials = 1244 in
  let p =
    Karp_luby.adaptive_partial (Rng.create ~seed:7) dnf ~eps:0.1 ~delta:0.1
  in
  let generous =
    Karp_luby.adaptive_partial
      ~budget:(Budget.create ~max_trials:1_000_000_000 ())
      (Rng.create ~seed:7) dnf ~eps:0.1 ~delta:0.1
  in
  check bool_c "a generous budget returns the same record" true (generous = p);
  check (Alcotest.float 0.) "same estimate" reference p.Karp_luby.p_estimate;
  check int_c "same trial count" trials p.Karp_luby.p_trials;
  check bool_c "complete" true
    (Guarantee.meets p.Karp_luby.p_claim (Guarantee.pass ~eps:0.1 ~delta:0.1));
  check bool_c "a complete pass claims 2δ" true
    (p.Karp_luby.p_claim = Guarantee.Sampled { eps = 0.1; delta = 0.2 });
  check bool_c "estimate inside own interval" true
    (p.Karp_luby.p_lo <= p.Karp_luby.p_estimate
    && p.Karp_luby.p_estimate <= p.Karp_luby.p_hi)

let test_adaptive_partial_exhausted_budget_vacuous () =
  let w, clause_sets = Batch.fixture () in
  let dnf = Dnf.prepare w clause_sets.(0) in
  let b = Budget.create () in
  Budget.cancel b;
  let p =
    Karp_luby.adaptive_partial ~budget:b (Rng.create ~seed:7) dnf ~eps:0.1
      ~delta:0.1
  in
  check int_c "no trials ran" 0 p.Karp_luby.p_trials;
  check bool_c "cut before its first trial: only the bracket" true
    (p.Karp_luby.p_claim = Guarantee.Bracket);
  check (Alcotest.float 0.) "vacuous lower bound" 0. p.Karp_luby.p_lo;
  check (Alcotest.float 1e-9) "vacuous upper bound = min(1, M)"
    (Float.min 1. (Dnf.total_weight dnf))
    p.Karp_luby.p_hi;
  check bool_c "achieved eps infinite" true
    (Guarantee.eps p.Karp_luby.p_claim = Float.infinity)

let test_adaptive_partial_interval_soundness () =
  (* With a hard trial cap, the partial-trial Chernoff inversion must still
     bracket the truth (at confidence 1 - delta; the seeds below stay
     within it). *)
  let w, clause_sets = Batch.fixture () in
  let dnf = Dnf.prepare w clause_sets.(0) in
  let exact = Q.to_float (Dnf.exact dnf) in
  List.iter
    (fun seed ->
      List.iter
        (fun cap ->
          let b = Budget.create ~max_trials:cap () in
          let p =
            Karp_luby.adaptive_partial ~budget:b (Rng.create ~seed) dnf
              ~eps:0.05 ~delta:0.05
          in
          check bool_c
            (Printf.sprintf "seed %d cap %d: %.4f in [%g, %g]" seed cap exact
               p.Karp_luby.p_lo p.Karp_luby.p_hi)
            true
            (p.Karp_luby.p_lo -. 1e-9 <= exact
            && exact <= p.Karp_luby.p_hi +. 1e-9);
          check bool_c
            (Printf.sprintf "seed %d cap %d: spend within cap" seed cap)
            true
            (p.Karp_luby.p_trials <= cap))
        [ 1; 10; 100; 1000 ])
    [ 3; 17; 42; 99; 123 ]

let test_tiny_eps_saturates_trial_counts () =
  (* At ε = 1e-9 the Chernoff count passes max_int.  It used to wrap to 0,
     and a budgeted solve then reported a complete point interval at 1.0
     for a tuple whose confidence is 0.887. *)
  check int_c "trial count saturates" max_int
    (Stats.karp_luby_trials ~clauses:30 ~eps:1e-9 ~delta:0.05);
  let w = Wtable.create () in
  let clauses =
    Pqdb_workload.Gen.random_dnf (Rng.create ~seed:1) w ~vars:12 ~clauses:12
      ~clause_len:3
  in
  let exact = Q.to_float (Lineage.exact w clauses) in
  check (Alcotest.float 5e-4) "exact confidence" 0.887 exact;
  let contains what lo hi =
    check bool_c
      (Printf.sprintf "%s: %.4f in [%g, %g]" what exact lo hi)
      true
      (lo -. 1e-9 <= exact && exact <= hi +. 1e-9)
  in
  let budget () = Budget.create ~max_trials:10_000 () in
  let o =
    Compile.solve ~budget:(budget ()) (Rng.create ~seed:1)
      (Compile.compile ~fuel:0 w clauses)
      ~eps:1e-9 ~delta:0.05
  in
  check bool_c "solve incomplete" false
    (Guarantee.meets o.Compile.claim (Guarantee.pass ~eps:1e-9 ~delta:0.05));
  check int_c "solve spends the budget" 10_000 o.Compile.trials;
  contains "solve" o.Compile.lo o.Compile.hi;
  let p =
    Karp_luby.adaptive_partial ~budget:(budget ()) (Rng.create ~seed:1)
      (Dnf.prepare w clauses) ~eps:1e-9 ~delta:0.05
  in
  check bool_c "partial incomplete" false
    (Guarantee.meets p.Karp_luby.p_claim
       (Guarantee.pass ~eps:1e-9 ~delta:0.05));
  contains "partial" p.Karp_luby.p_lo p.Karp_luby.p_hi;
  check int_c "batch cost saturates" max_int
    (Confidence.total_trials
       (Confidence.prepare w [| clauses; clauses |])
       ~eps:1e-9 ~delta:0.05)

(* ------------------------------------------------------------------ *)
(* Batched confidence under budgets                                    *)
(* ------------------------------------------------------------------ *)

let test_batch_no_budget_complete () =
  let w, clause_sets = Batch.fixture () in
  let o =
    Batch.whole ~compile_fuel:0 (Rng.create ~seed:5) w
      clause_sets ~eps:0.1 ~delta:0.05
  in
  check bool_c "no budget: complete" true o.complete;
  Batch.assert_sound "no budget" w clause_sets o.intervals;
  Array.iter
    (fun e -> check bool_c "achieved eps within request" true (e <= 0.1))
    o.achieved

let test_batch_trial_cap_sound () =
  let w, clause_sets = Batch.fixture () in
  List.iter
    (fun seed ->
      List.iter
        (fun cap ->
          let b = Budget.create ~max_trials:cap () in
          let o =
            Batch.whole ~compile_fuel:0 ~budget:b (Rng.create ~seed) w
              clause_sets ~eps:0.05 ~delta:0.05
          in
          Batch.assert_sound
            (Printf.sprintf "cap %d seed %d" cap seed)
            w clause_sets o.intervals;
          Array.iteri
            (fun i v ->
              let lo, hi = o.intervals.(i) in
              check bool_c
                (Printf.sprintf "cap %d seed %d: estimate %d in own interval"
                   cap seed i)
                true
                (lo -. 1e-9 <= v && v <= hi +. 1e-9))
            o.estimates;
          (* The shared governor may overshoot by at most one in-flight
             trial per worker. *)
          check bool_c
            (Printf.sprintf "cap %d seed %d: spend %d bounded" cap seed
               (Budget.spent b))
            true
            (Budget.spent b <= cap + 8))
        [ 1; 20; 500 ])
    [ 2; 31; 77 ]

let test_batch_cancelled_budget_degrades () =
  let w, clause_sets = Batch.fixture () in
  let b = Budget.create () in
  Budget.cancel b;
  let o =
    Batch.whole ~compile_fuel:0 ~budget:b (Rng.create ~seed:11) w
      clause_sets ~eps:0.05 ~delta:0.05
  in
  check bool_c "cancelled: incomplete" false o.complete;
  Batch.assert_sound "cancelled" w clause_sets o.intervals;
  (* The exact tuples still come out as points. *)
  let lo2, hi2 = o.intervals.(2) in
  check (Alcotest.float 0.) "certain tuple lo" 1. lo2;
  check (Alcotest.float 0.) "certain tuple hi" 1. hi2;
  let lo3, hi3 = o.intervals.(3) in
  check (Alcotest.float 0.) "impossible tuple lo" 0. lo3;
  check (Alcotest.float 0.) "impossible tuple hi" 0. hi3

let test_deadline_bounds_wallclock () =
  (* A sampling job that would take far longer than the deadline: 24
     independent clauses, compilation disabled, tiny eps.  The run must
     come back within twice the requested wall-clock budget (the ISSUE's
     acceptance criterion), with sound degraded intervals. *)
  let w = Wtable.create () in
  let clauses =
    List.init 24 (fun _ ->
        let v = Wtable.add_var w [ Q.half; Q.half ] in
        Assignment.singleton v 1)
  in
  let clause_sets = [| clauses |] in
  let deadline = 0.2 in
  let b = Budget.create ~deadline_s:deadline () in
  let t0 = Unix.gettimeofday () in
  let o =
    Batch.whole ~compile_fuel:0 ~budget:b (Rng.create ~seed:13) w
      clause_sets ~eps:0.001 ~delta:0.01
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check bool_c
    (Printf.sprintf "returned in %.3fs (deadline %.3fs)" elapsed deadline)
    true
    (elapsed <= 2. *. deadline);
  check bool_c "deadline run incomplete" false o.complete;
  check bool_c "spent some trials before the deadline" true
    (Budget.spent b > 0);
  Batch.assert_sound "deadline" w clause_sets o.intervals

let test_generous_budget_stays_complete () =
  (* A budget large enough to finish must not change completeness. *)
  let w, clause_sets = Batch.fixture () in
  let b = Budget.create ~max_trials:10_000_000 () in
  let o =
    Batch.whole ~compile_fuel:0 ~budget:b (Rng.create ~seed:17) w
      clause_sets ~eps:0.1 ~delta:0.1
  in
  check bool_c "generous budget: complete" true o.complete;
  Batch.assert_sound "generous" w clause_sets o.intervals

(* ------------------------------------------------------------------ *)
(* Empty / all-exact batches never touch the pool (regression)         *)
(* ------------------------------------------------------------------ *)

let test_exact_batches_skip_pool () =
  (* Arm the pool's per-task fault point: if the batch engine touched the
     pool at all, the injected failure would mark the run incomplete. *)
  FP.arm "pool.task";
  Fun.protect ~finally:FP.reset (fun () ->
      let w = Wtable.create () in
      (* Empty batch. *)
      let o =
        Batch.whole (Rng.create ~seed:1) w [||] ~eps:0.1 ~delta:0.1
      in
      check int_c "empty batch: no estimates" 0 (Array.length o.estimates);
      check (Alcotest.float 0.) "empty batch: exact fraction" 1.
        (Batch.exact_fraction o);
      check bool_c "empty batch: complete" true o.complete;
      (* All-false and certain lineages: fully exact, no sampling tasks. *)
      let o =
        Batch.whole (Rng.create ~seed:1) w [| []; [ Assignment.empty ] |]
          ~eps:0.1 ~delta:0.1
      in
      check (Alcotest.float 0.) "impossible tuple" 0. o.estimates.(0);
      check (Alcotest.float 0.) "certain tuple" 1. o.estimates.(1);
      check (Alcotest.float 0.) "all-exact batch: exact fraction" 1.
        (Batch.exact_fraction o);
      check bool_c "all-exact batch: complete despite armed pool" true
        o.complete)

(* ------------------------------------------------------------------ *)
(* Top-k under budgets                                                 *)
(* ------------------------------------------------------------------ *)

let test_topk_anytime_exit () =
  let w, clause_sets = Batch.fixture () in
  let candidates =
    List.mapi
      (fun i clauses -> (Tuple.of_list [ Value.Int i ], clauses))
      (Array.to_list clause_sets)
  in
  let b = Budget.create () in
  Budget.cancel b;
  let r =
    Pqdb.Topk.run ~budget:b ~compile_fuel:0 ~rng:(Rng.create ~seed:3)
      ~delta:0.1 ~k:2 w candidates
  in
  check bool_c "cancelled top-k uncertified" false (Pqdb.Topk.certified r);
  check int_c "still returns k tuples" 2 (List.length r.Pqdb.Topk.ranked);
  (* With a generous budget the ranking certifies and agrees with the exact
     order: the certain tuple wins. *)
  let r =
    Pqdb.Topk.run
      ~budget:(Budget.create ~max_trials:10_000_000 ())
      ~compile_fuel:0 ~rng:(Rng.create ~seed:3) ~delta:0.1 ~k:1 w candidates
  in
  check bool_c "generous top-k certified" true (Pqdb.Topk.certified r);
  match r.Pqdb.Topk.ranked with
  | [ (t, p) ] ->
      check int_c "certain tuple wins" 2
        (match Tuple.get t 0 with Value.Int i -> i | _ -> -1);
      check (Alcotest.float 1e-9) "with probability 1" 1. p
  | _ -> Alcotest.fail "expected exactly one ranked tuple"

(* ------------------------------------------------------------------ *)
(* Approximate evaluation under budgets                                *)
(* ------------------------------------------------------------------ *)

let test_eval_approx_budget_suspects () =
  (* A cancelled budget forces every sigma-hat decision to stop at its
     current estimate: the pass must come back (no exception) with the
     affected tuples flagged as suspects, exactly like paper-style
     singularities. *)
  let module Ua = Pqdb_ast.Ua in
  let module Apred = Pqdb_ast.Apred in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let u =
    Pqdb_workload.Gen.tuple_independent (Rng.create ~seed:44) w
      ~attrs:[ "A"; "B" ] ~rows:4 ~domain:3
  in
  Udb.add_urelation udb "U" u;
  let query =
    Ua.approx_select
      (Apred.ge (Apred.var 0) (Apred.const 0.44))
      [ [ "A"; "B" ] ]
      (Ua.table "U")
  in
  let b = Budget.create () in
  Budget.cancel b;
  let result, stats =
    Pqdb.Eval_approx.eval ~budget:b ~compile_fuel:0 ~rng:(Rng.create ~seed:9)
      udb query
  in
  check bool_c "unreliable" true result.Pqdb.Eval_approx.unreliable;
  check bool_c "round-limit hits recorded" true
    (stats.Pqdb.Eval_approx.round_limit_hits > 0);
  check bool_c "decisions still made" true
    (stats.Pqdb.Eval_approx.decisions > 0);
  (* The same query with no budget runs Figure 3 to its stopping rule. *)
  let _, stats =
    Pqdb.Eval_approx.eval ~compile_fuel:0 ~rng:(Rng.create ~seed:9) udb query
  in
  check int_c "no budget: no round-limit hits" 0
    stats.Pqdb.Eval_approx.round_limit_hits

let () =
  Alcotest.run "robustness"
    [
      ( "budget",
        [
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "deadline sticky" `Quick
            test_budget_deadline_sticky;
        ] );
      ( "karp-luby partials",
        [
          Alcotest.test_case "no budget bit-identical" `Quick
            test_adaptive_partial_no_budget_bit_identical;
          Alcotest.test_case "exhausted budget vacuous" `Quick
            test_adaptive_partial_exhausted_budget_vacuous;
          Alcotest.test_case "partial intervals sound" `Quick
            test_adaptive_partial_interval_soundness;
          Alcotest.test_case "tiny eps saturates trial counts" `Quick
            test_tiny_eps_saturates_trial_counts;
        ] );
      ( "anytime batch",
        [
          Alcotest.test_case "no budget complete" `Quick
            test_batch_no_budget_complete;
          Alcotest.test_case "trial cap sound" `Quick
            test_batch_trial_cap_sound;
          Alcotest.test_case "cancelled budget degrades" `Quick
            test_batch_cancelled_budget_degrades;
          Alcotest.test_case "deadline bounds wall-clock" `Quick
            test_deadline_bounds_wallclock;
          Alcotest.test_case "generous budget complete" `Quick
            test_generous_budget_stays_complete;
          Alcotest.test_case "exact batches skip the pool" `Quick
            test_exact_batches_skip_pool;
        ] );
      ( "anytime top-k",
        [ Alcotest.test_case "anytime exit" `Quick test_topk_anytime_exit ] );
      ( "anytime sigma-hat",
        [
          Alcotest.test_case "budget flags suspects" `Quick
            test_eval_approx_budget_suspects;
        ] );
    ]
