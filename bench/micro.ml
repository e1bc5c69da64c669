(* Bechamel microbenchmarks: one Test.make per timed kernel, reported as
   ns/run from an OLS fit. *)

open Bechamel
open Toolkit
open Pqdb_urel
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Gen = Pqdb_workload.Gen
module Scenarios = Pqdb_workload.Scenarios
module Apred = Pqdb_ast.Apred
module Dnf = Pqdb_montecarlo.Dnf
module Karp_luby = Pqdb_montecarlo.Karp_luby
module Estimator = Pqdb_montecarlo.Estimator
module Mc_confidence = Pqdb_montecarlo.Confidence
module Shard = Pqdb_montecarlo.Shard
module Distrib = Pqdb_distrib
module Budget = Pqdb_montecarlo.Budget
module Memo = Pqdb_montecarlo.Memo
module Compile = Pqdb_montecarlo.Compile
module Lineage = Pqdb_montecarlo.Lineage
module Schema = Pqdb_relational.Schema
module Tuple = Pqdb_relational.Tuple

(* [trials] Karp-Luby estimator calls, averaged (Proposition 4.2). *)
let karp_luby rng dnf ~trials =
  let est = Estimator.create dnf in
  Estimator.batch rng est trials;
  Estimator.estimate est

(* The Chernoff trial count of the fixed-budget FPRAS; 0 for degenerate
   DNFs, which need no sampling. *)
let chernoff_trials dnf ~eps ~delta =
  Estimator.trials_to_reach (Estimator.create dnf) ~eps ~delta

(* The fixed-budget FPRAS of Proposition 4.2, the per-tuple baseline. *)
let fpras rng dnf ~eps ~delta =
  karp_luby rng dnf ~trials:(chernoff_trials dnf ~eps ~delta)

(* The whole batch as one shard: one pool run under one governor, every
   compiled DAG resident at once.  Its one emitted outcome. *)
let batch_run ?budget ?nworkers rng w clause_sets ~eps ~delta =
  let options = { Mc_confidence.default_stream_options with shard_cost = max_int } in
  let whole = ref None in
  ignore
    (Mc_confidence.run_stream ?budget ?nworkers ~options rng w clause_sets
       ~eps ~delta ~emit:(fun o -> whole := Some o));
  Option.get !whole

let total_trials (o : Shard.outcome) = Array.fold_left ( + ) 0 o.trials

(* Share of the batch's probability mass resolved in closed form:
   [1 − Σ residual mass / Σ estimate], [1] when the estimates sum to 0. *)
let exact_fraction (o : Shard.outcome) =
  let total = Array.fold_left ( +. ) 0. o.estimates in
  let sampled = Array.fold_left ( +. ) 0. o.masses in
  if total <= 0. then 1. else Float.max 0. (1. -. (sampled /. total))

let test_exact_confidence () =
  let rng = Rng.create ~seed:201 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3 in
  Test.make ~name:"confidence/exact-12v"
    (Staged.stage (fun () -> ignore (Lineage.exact w clauses)))

let test_karp_luby () =
  let rng = Rng.create ~seed:202 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3 in
  let dnf = Dnf.prepare w clauses in
  Test.make ~name:"confidence/karp-luby-1k-trials"
    (Staged.stage (fun () -> ignore (karp_luby rng dnf ~trials:1000)))

let join_inputs () =
  let rng = Rng.create ~seed:203 in
  let w = Wtable.create () in
  let r = Gen.tuple_independent rng w ~attrs:[ "A"; "B" ] ~rows:500 ~domain:100 in
  let s =
    Urelation.of_relation
      (Gen.random_relation rng ~attrs:[ "B"; "C" ] ~rows:100 ~domain:100)
  in
  (r, s)

let test_translate_join () =
  let r, s = join_inputs () in
  Test.make ~name:"translate/hashjoin-500x100"
    (Staged.stage (fun () -> ignore (Translate.join r s)))

(* The query-aconf join at seed 1: events join tags over 1 500 events,
   3 002 rows. *)
let aconf_udb () = Gen.uncertain_db (Rng.create ~seed:1) ~tuples:1500 ~clauses:3

let aconf_join_of udb =
  Translate.join (Udb.find udb "events") (Udb.find udb "tags")

let aconf_join () = aconf_join_of (aconf_udb ())

(* Rebuilding a relation from rows already in its own order. *)
let test_urel_make () =
  let j = aconf_join () in
  let schema = Urelation.schema j and rows = Urelation.rows j in
  Test.make ~name:"urel/make-3002"
    (Staged.stage (fun () -> ignore (Urelation.make schema rows)))

let urel_project_case () =
  let j = aconf_join () in
  fun () -> ignore (Translate.project_attrs [ "id"; "tag" ] j)

let test_urel_project () =
  Test.make ~name:"urel/project-3002" (Staged.stage (urel_project_case ()))

let test_urel_group () =
  let p = Translate.project_attrs [ "id"; "tag" ] (aconf_join ()) in
  Test.make ~name:"urel/group-3002"
    (Staged.stage (fun () -> ignore (Urelation.clauses_by_tuple p)))

(* query-aconf at seed 1: [pqdb run -a]'s evaluation of its query, the
   join, the projection, 1 500 compiled tuples and the Lemma 6.4 table.
   The query has no repair-key, so the database is never changed. *)
let eval_aconf_case () =
  let udb = aconf_udb () in
  let q =
    Pqdb_lang.Qparser.parse_query
      "aconf[0.05, 0.01](project[id, tag](events join tags))"
  in
  fun () -> ignore (Pqdb.Eval_approx.eval ~rng:(Rng.create ~seed:42) udb q)

let test_eval_aconf () =
  Test.make ~name:"eval/aconf-1500" (Staged.stage (eval_aconf_case ()))

(* query-aconf's compile stage at seed 1: [Compile.compile] at the default
   fuel over the 1 500 per-tuple lineages, two thirds of them 2–3 small
   clauses. *)
let compile_small_case () =
  let udb = aconf_udb () in
  let w = Udb.wtable udb in
  let lineages =
    List.map snd
      (Urelation.clauses_by_tuple
         (Translate.project_attrs [ "id"; "tag" ] (aconf_join_of udb)))
  in
  fun () -> List.iter (fun cs -> ignore (Compile.compile w cs)) lineages

let test_compile_small () =
  Test.make ~name:"compile/small-1500" (Staged.stage (compile_small_case ()))

(* The ≺ rule of ⋈ with both sides annotated: [explain]'s provenance of
   the query-aconf join at seed 1, a leaf set per tuple. *)
let test_annotated_join () =
  let udb = Gen.uncertain_db (Rng.create ~seed:1) ~tuples:1500 ~clauses:3 in
  let q =
    Pqdb_ast.Ua.join (Pqdb_ast.Ua.table "events") (Pqdb_ast.Ua.table "tags")
  in
  Test.make ~name:"provenance/join-1500"
    (Staged.stage (fun () -> ignore (Pqdb.Provenance.compute udb q)))

let kl_dnf () =
  let rng = Rng.create ~seed:202 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3 in
  Dnf.prepare w clauses

let batch_inputs () =
  let rng = Rng.create ~seed:208 in
  let w = Wtable.create () in
  let u =
    Gen.tuple_independent rng w ~attrs:[ "A"; "B" ] ~rows:500 ~domain:50
  in
  let clause_sets =
    Array.of_list (List.map snd (Urelation.clauses_by_tuple u))
  in
  (w, clause_sets)

let test_batch_confidence () =
  let w, clause_sets = batch_inputs () in
  let rng = Rng.create ~seed:208 in
  Test.make ~name:"confidence/batch-500-tuples"
    (Staged.stage (fun () ->
         ignore (batch_run ~nworkers:2 rng w clause_sets ~eps:0.3 ~delta:0.2)))

let test_thm52 () =
  let rng = Rng.create ~seed:204 in
  let pred = Gen.linear_predicate rng ~arity:8 in
  let point = Array.init 8 (fun _ -> Rng.float_range rng 0.1 0.9) in
  Test.make ~name:"epsilon/closed-form-k8"
    (Staged.stage (fun () -> ignore (Pqdb.Epsilon.epsilon pred point)))

let test_corner_search () =
  let pred =
    Apred.ge (Apred.Div (Apred.var 0, Apred.var 1)) (Apred.const 0.5)
  in
  let point = [| 0.5; 0.45 |] in
  Test.make ~name:"epsilon/corner-search-k2"
    (Staged.stage (fun () ->
         ignore (Pqdb.Orthotope.epsilon_search pred point)))

let test_coin_posterior () =
  Test.make ~name:"query/coin-posterior-exact"
    (Staged.stage (fun () ->
         let udb = Scenarios.coin_db () in
         ignore
           (Pqdb.Eval_exact.eval_relation udb
              Scenarios.coin_queries.Scenarios.u)))

let test_repair_key () =
  let rng = Rng.create ~seed:205 in
  let rel =
    Gen.weighted_relation rng ~attrs:[ "A"; "B" ] ~rows:300 ~domain:40
      ~weight:"W"
  in
  let u = Urelation.of_relation rel in
  Test.make ~name:"translate/repair-key-300"
    (Staged.stage (fun () ->
         let w = Wtable.create () in
         ignore (Translate.repair_key w ~key:[ "A" ] ~weight:"W" u)))

(* One Theorem 6.7 attempt's isolation: a 500-variable W table, half of
   its samplers built, copied. *)
let test_udb_copy () =
  let rng = Rng.create ~seed:213 in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  for v = 0 to 499 do
    let num = 1 + Rng.int rng 9 in
    let x = Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ] in
    if v mod 2 = 0 then ignore (Wtable.alias w x)
  done;
  Test.make ~name:"udb/copy-500v"
    (Staged.stage (fun () -> ignore (Udb.copy udb)))

let test_optimizer () =
  let q =
    Pqdb_lang.Qparser.parse_query
      "select[A = 0](conf(project[A, B](repairkey[A @ W](R))))"
  in
  let lookup = function
    | "R" -> Some [ "A"; "B"; "W" ]
    | _ -> None
  in
  Test.make ~name:"optimizer/push-below-conf"
    (Staged.stage (fun () -> ignore (Pqdb.Optimizer.optimize ~lookup q)))

let test_topk () =
  Test.make ~name:"topk/coin-top1"
    (Staged.stage (fun () ->
         let rng = Rng.create ~seed:207 in
         let udb = Scenarios.coin_db () in
         ignore
           (Pqdb.Topk.query ~rng ~delta:0.1 ~k:1 udb
              Scenarios.coin_queries.Scenarios.t)))

(* One Figure-3 decision that never meets its bound: a 2-clause value
   against the threshold at its own confidence, cut at 4096 rounds. *)
let fig3_rounds = 4096

let test_fig3_decide () =
  let w = Wtable.create () in
  let coin () = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let x = coin () and y = coin () in
  let dnf = Dnf.prepare w [ Assignment.singleton x 1; Assignment.singleton y 1 ] in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.75) in
  Test.make ~name:"fig3/decide-2clause-4096"
    (Staged.stage (fun () ->
         ignore
           (Pqdb.Predicate_approx.decide ~compile_fuel:0 ~eps0:0.01
              ~max_rounds:fig3_rounds ~rng:(Rng.create ~seed:11) ~delta:0.01 phi
              [| Estimator.create dnf |])))

(* One DKLR stopping-rule pass on a 30-variable DNF, from a fixed seed so
   every run spends the same trials. *)
let stopping_rule_case () =
  let rng = Rng.create ~seed:214 in
  let w = Wtable.create () in
  Dnf.prepare w (Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)

let stopping_rule_pass dnf =
  Karp_luby.adaptive_partial (Rng.create ~seed:215) dnf ~eps:0.1 ~delta:0.05

let test_stopping_rule () =
  let dnf = stopping_rule_case () in
  Test.make ~name:"karp-luby/stopping-rule-30var"
    (Staged.stage (fun () -> ignore (stopping_rule_pass dnf)))

(* The batch workload's decomposition: 60 seed-1 30x30 DNFs packed and
   normalized, then through [Lineage.decompose] over floats at the default fuel. *)
let decompose_dnfs = 60

let decompose_case () =
  let rng = Rng.create ~seed:1 in
  let w = Wtable.create () in
  let ops =
    { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
      complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }
  in
  let dnfs =
    List.init decompose_dnfs (fun _ ->
        Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)
  in
  fun () ->
    List.iter
      (fun cs ->
        ignore
          (Lineage.decompose ~fuel:Compile.default_fuel ops w
             (Lineage.of_clauses cs)))
      dnfs

let test_decompose () =
  Test.make ~name:"lineage/decompose-30x30" (Staged.stage (decompose_case ()))

(* Words one pass promotes per DNF, after a warm-up pass, between two full
   major collections. *)
let decompose_promoted () =
  let pass = decompose_case () in
  pass ();
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  pass ();
  Gc.full_major ();
  ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int decompose_dnfs

(* Kernels also reported as a rate: name, units per run, unit. *)
let rates () =
  [
    ("pqdb/fig3/decide-2clause-4096", float_of_int fig3_rounds, "rounds/s");
    ( "pqdb/karp-luby/stopping-rule-30var",
      float_of_int (stopping_rule_pass (stopping_rule_case ())).p_trials,
      "trials/s" );
    ("pqdb/lineage/decompose-30x30", float_of_int decompose_dnfs, "DNFs/s");
  ]

let run () =
  Report.section "MICRO" "Bechamel kernels (ns per run, OLS fit)";
  let tests =
    Test.make_grouped ~name:"pqdb"
      [
        test_exact_confidence ();
        test_karp_luby ();
        test_batch_confidence ();
        test_translate_join ();
        test_urel_make ();
        test_urel_project ();
        test_urel_group ();
        test_eval_aconf ();
        test_compile_small ();
        test_annotated_join ();
        test_thm52 ();
        test_corner_search ();
        test_coin_posterior ();
        test_repair_key ();
        test_udb_copy ();
        test_optimizer ();
        test_topk ();
        test_fig3_decide ();
        test_stopping_rule ();
        test_decompose ();
      ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rates = rates () in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> t
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan
      in
      let rate =
        match List.find_opt (fun (n, _, _) -> n = name) rates with
        | Some (_, units, unit) ->
            Printf.sprintf "%.3g %s" (units /. (estimate /. 1e9)) unit
        | None -> ""
      in
      rows :=
        [ name; Report.fmt_seconds (estimate /. 1e9); Printf.sprintf "%.4f" r2;
          rate ]
        :: !rows)
    results;
  Report.table
    ~header:[ "kernel"; "time/run"; "r^2"; "rate" ]
    (List.sort compare !rows);
  Report.note "lineage/decompose-30x30 promotes %.0f words per DNF"
    (decompose_promoted ());
  Report.note "p10 of 61 runs, each after a Gc.compact:";
  Report.table ~header:[ "kernel"; "p10" ]
    (List.map
       (fun (name, case) -> [ name; Printf.sprintf "%.3f ms" (Report.p10_ms (case ())) ])
       [ ("pqdb/eval/aconf-1500", eval_aconf_case);
         ("pqdb/urel/project-3002", urel_project_case);
         ("pqdb/compile/small-1500", compile_small_case) ])

(* ------------------------------------------------------------------ *)
(* Confidence-engine wall-clock comparisons + BENCH_confidence.json    *)
(* ------------------------------------------------------------------ *)

(* The textbook O(|a|·|b|) join, kept here only as the baseline the hash
   join in Translate.join is measured against. *)
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
  let rows_b = Urelation.rows b in
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
          rows_b)
      (Urelation.rows a)
  in
  Urelation.make out_schema rows

(* A workload where compilation has to earn its keep: mostly easy lineage
   (singleton clauses, solved in closed form) plus a hard minority of dense
   random DNFs that exhaust the compilation fuel and go to adaptive
   sampling. *)
let mixed_inputs () =
  let rng = Rng.create ~seed:209 in
  let w = Wtable.create () in
  let easy =
    List.init 450 (fun _ ->
        let num = 1 + Rng.int rng 9 in
        let v = Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ] in
        [ Assignment.singleton v 1 ])
  in
  let hard =
    List.init 50 (fun _ ->
        Gen.random_dnf rng w ~vars:40 ~clauses:40 ~clause_len:3)
  in
  (w, Array.of_list (easy @ hard))

(* Many light clauses, each unlikely: the mean mu = p/M of the Karp-Luby
   estimator is close to 1, which is exactly where the DKLR stopping rule
   beats the worst-case Chernoff budget (sized for mu = 1/|F|). *)
let stopping_inputs () =
  let w = Wtable.create () in
  let sets =
    Array.init 500 (fun _ ->
        List.init 6 (fun _ ->
            let v = Wtable.add_var w [ Q.of_ints 19 20; Q.of_ints 1 20 ] in
            Assignment.singleton v 1))
  in
  (w, sets)

(* A 2k-tuple batch of small DNFs: each compiles to a closed form. *)
let stream_inputs () =
  let rng = Rng.create ~seed:211 in
  let w = Wtable.create () in
  let sets =
    Array.init 2000 (fun _ ->
        Gen.random_dnf rng w ~vars:8 ~clauses:6 ~clause_len:3)
  in
  (w, sets)

(* 120 random 30-variable, 30-clause DNFs that run out of the default
   compilation fuel: each compiled value keeps its whole normalized DNF for
   sampling, so the engine's resident state is dominated by per-tuple
   compiled state — exactly the footprint streaming is supposed to
   bound. *)
let ceiling_inputs () =
  let rng = Rng.create ~seed:212 in
  let w = Wtable.create () in
  let sets = ref [] and n = ref 0 in
  while !n < 120 do
    let cs = Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3 in
    if not (Compile.is_exact (Compile.compile w cs)) then begin
      sets := cs :: !sets;
      incr n
    end
  done;
  (w, Array.of_list (List.rev !sets))

type bench_entry = {
  be_name : string;
  be_seconds : float;
  be_speedup : float;
  be_trials : int option;
  be_exact_fraction : float option;
  be_width : float option;
      (* mean certified interval width over the batch, for the anytime
         (deadline-governed) entries *)
  be_peak_words : int option;
      (* peak live major-heap words above the fixture baseline, for the
         streaming-vs-materialized entries *)
  be_cores : int option;
      (* physical cores actually available to the entry's "parallel" run —
         honesty marker for speedup numbers collected on small containers
         (1 here means the domain/worker scaling is time-sliced) *)
  be_shed : int option;
      (* connections refused with a typed busy reply during the entry's
         overload burst, for the serve-under-faults entry *)
}

let confidence_engine () =
  Report.section "CONF-ENGINE"
    "Confidence-engine wall clock: compiled lineage, adaptive stopping, \
     anytime and streaming batches, hash join";
  let entries = ref [] in
  let record ?trials ?exact_fraction ?width ?peak_words ?cores ?shed name
      seconds baseline =
    entries :=
      {
        be_name = name;
        be_seconds = seconds;
        be_speedup = baseline /. seconds;
        be_trials = trials;
        be_exact_fraction = exact_fraction;
        be_width = width;
        be_peak_words = peak_words;
        be_cores = cores;
        be_shed = shed;
      }
      :: !entries
  in
  let cores = Domain.recommended_domain_count () in
  (* 1. Karp-Luby on one large trial budget (production parallelises
     across tuples, never within one). *)
  let dnf = kl_dnf () in
  let trials = 200_000 in
  let serial =
    Report.time_median (fun () ->
        ignore (karp_luby (Rng.create ~seed:1) dnf ~trials))
  in
  record "karp-luby-serial-200k" serial serial;
  Report.table
    ~header:[ "karp-luby, 200k trials"; "median" ]
    [ [ "serial"; Report.fmt_seconds serial ] ];
  (* 2. Batched compiled confidence vs a per-tuple prepare+fpras loop. *)
  let w, clause_sets = batch_inputs () in
  let eps = 0.3 and delta = 0.2 in
  let per_tuple =
    Report.time_median (fun () ->
        let rng = Rng.create ~seed:2 in
        Array.iter
          (fun clauses ->
            ignore (fpras rng (Dnf.prepare w clauses) ~eps ~delta))
          clause_sets)
  in
  let fixed_trials =
    Array.fold_left
      (fun acc clauses ->
        acc + chernoff_trials (Dnf.prepare w clauses) ~eps ~delta)
      0 clause_sets
  in
  record ~trials:fixed_trials "per-tuple-fpras-500" per_tuple per_tuple;
  let batch = batch_run (Rng.create ~seed:2) w clause_sets ~eps ~delta in
  let batched =
    Report.time_median (fun () ->
        ignore (batch_run (Rng.create ~seed:2) w clause_sets ~eps ~delta))
  in
  record ~trials:(total_trials batch) ~exact_fraction:(exact_fraction batch)
    "batch-fpras-500" batched per_tuple;
  Report.table
    ~header:[ "500-tuple confidence"; "median"; "speedup" ]
    [
      [ "per-tuple fpras loop"; Report.fmt_seconds per_tuple; "1.00x" ];
      [
        "batch (compiled, pooled)";
        Report.fmt_seconds batched;
        Printf.sprintf "%.2fx" (per_tuple /. batched);
      ];
    ];
  (* 2b. Mixed workload: does compilation pay only for the hard cases?
     Equal (eps, delta) on both sides; the baseline samples every tuple at
     the fixed Chernoff budget, the compiled path solves the easy 90% in
     closed form and adaptively samples the hard tuples its bracket does
     not certify. *)
  let wm, mixed_sets = mixed_inputs () in
  let mixed_fpras =
    Report.time_median (fun () ->
        let rng = Rng.create ~seed:3 in
        Array.iter
          (fun clauses ->
            ignore (fpras rng (Dnf.prepare wm clauses) ~eps ~delta))
          mixed_sets)
  in
  let mixed_fixed_trials =
    Array.fold_left
      (fun acc clauses ->
        acc + chernoff_trials (Dnf.prepare wm clauses) ~eps ~delta)
      0 mixed_sets
  in
  record ~trials:mixed_fixed_trials "fpras-mixed-500" mixed_fpras mixed_fpras;
  let mixed = batch_run (Rng.create ~seed:3) wm mixed_sets ~eps ~delta in
  let mixed_compiled =
    Report.time_median (fun () ->
        ignore (batch_run (Rng.create ~seed:3) wm mixed_sets ~eps ~delta))
  in
  let mixed_trials = total_trials mixed in
  record ~trials:mixed_trials
    ~exact_fraction:(exact_fraction mixed)
    "compile-vs-fpras-500" mixed_compiled mixed_fpras;
  Report.table
    ~header:
      [ "mixed 500 (450 easy + 50 hard)"; "median"; "trials"; "speedup" ]
    [
      [
        "pure FPRAS";
        Report.fmt_seconds mixed_fpras;
        Report.fmt_int mixed_fixed_trials;
        "1.00x";
      ];
      [
        Printf.sprintf "compiled (exact frac %.3f)" (exact_fraction mixed);
        Report.fmt_seconds mixed_compiled;
        Report.fmt_int mixed_trials;
        Printf.sprintf "%.2fx" (mixed_fpras /. mixed_compiled);
      ];
    ];
  (* 2c. Adaptive stopping alone (compilation off): the DKLR schedule vs the
     fixed worst-case Chernoff budget on DNFs whose estimator mean is far
     from the 1/|F| the fixed budget provisions for. *)
  let ws, stop_sets = stopping_inputs () in
  let stop_dnfs = Array.map (Dnf.prepare ws) stop_sets in
  let seps = 0.1 and sdelta = 0.05 in
  let fixed_stop_trials =
    Array.fold_left
      (fun acc dnf -> acc + chernoff_trials dnf ~eps:seps ~delta:sdelta)
      0 stop_dnfs
  in
  let fixed_stop =
    Report.time_median (fun () ->
        let rng = Rng.create ~seed:4 in
        Array.iter
          (fun dnf -> ignore (fpras rng dnf ~eps:seps ~delta:sdelta))
          stop_dnfs)
  in
  record ~trials:fixed_stop_trials "fixed-budget-500" fixed_stop fixed_stop;
  let adaptive_trials = ref 0 in
  let adaptive_stop =
    Report.time_median (fun () ->
        let rng = Rng.create ~seed:4 in
        adaptive_trials := 0;
        Array.iter
          (fun dnf ->
            let p = Karp_luby.adaptive_partial rng dnf ~eps:seps ~delta:sdelta in
            adaptive_trials := !adaptive_trials + p.Karp_luby.p_trials)
          stop_dnfs)
  in
  record ~trials:!adaptive_trials "stopping-rule-500" adaptive_stop fixed_stop;
  Report.table
    ~header:[ "500 DNFs, eps 0.1 delta 0.05"; "median"; "trials"; "speedup" ]
    [
      [
        "fixed Chernoff budget";
        Report.fmt_seconds fixed_stop;
        Report.fmt_int fixed_stop_trials;
        "1.00x";
      ];
      [
        "DKLR stopping rule";
        Report.fmt_seconds adaptive_stop;
        Report.fmt_int !adaptive_trials;
        Printf.sprintf "%.2fx" (fixed_stop /. adaptive_stop);
      ];
    ];
  (* 2d. Anytime governor (E6b).  Two claims: a generous budget costs about
     the same as no budget (the governor is one atomic poll per estimator
     trial), and shrinking deadlines trade certified interval width for
     wall clock — the brackets widen but stay sound. *)
  let mean_width (o : Shard.outcome) =
    let n = Array.length o.intervals in
    if n = 0 then 0.
    else
      Array.fold_left (fun acc (lo, hi) -> acc +. (hi -. lo)) 0. o.intervals
      /. float_of_int n
  in
  record ~trials:mixed_trials ~width:(mean_width mixed)
    "anytime-no-budget" mixed_compiled mixed_compiled;
  let generous () = Budget.create ~max_trials:max_int () in
  let governed =
    Report.time_median (fun () ->
        ignore
          (batch_run ~budget:(generous ()) (Rng.create ~seed:3) wm mixed_sets
             ~eps ~delta))
  in
  let gov =
    batch_run ~budget:(generous ()) (Rng.create ~seed:3) wm mixed_sets ~eps
      ~delta
  in
  let gov_trials = total_trials gov in
  record ~trials:gov_trials ~width:(mean_width gov)
    "anytime-generous-budget" governed mixed_compiled;
  (* The run compiles every tuple under the deadline before it samples,
     so each row's deadline is the batch's compile time plus [d]. *)
  let compile_s =
    Report.time_median (fun () ->
        Array.iter (fun cs -> ignore (Compile.compile wm cs)) mixed_sets)
  in
  let deadline_row d =
    let budget () = Budget.create ~deadline_s:(compile_s +. d) () in
    let seconds =
      Report.time_median (fun () ->
          ignore
            (batch_run ~budget:(budget ()) (Rng.create ~seed:3) wm mixed_sets
               ~eps ~delta))
    in
    let st =
      batch_run ~budget:(budget ()) (Rng.create ~seed:3) wm mixed_sets ~eps
        ~delta
    in
    let trials = total_trials st in
    record ~trials ~width:(mean_width st)
      (Printf.sprintf "anytime-deadline-%.0fms" (d *. 1000.))
      seconds mixed_compiled;
    [
      Printf.sprintf "deadline compile+%.0fms" (d *. 1000.);
      Report.fmt_seconds seconds;
      Report.fmt_int trials;
      Printf.sprintf "%.4f" (mean_width st);
      (if st.complete then "yes" else "no");
    ]
  in
  let deadline_rows = List.map deadline_row [ 0.05; 0.01; 0.002 ] in
  Report.table
    ~header:
      [ "anytime, mixed 500"; "median"; "trials"; "mean width"; "complete" ]
    ([
       [
         "no budget";
         Report.fmt_seconds mixed_compiled;
         Report.fmt_int mixed_trials;
         Printf.sprintf "%.4f" (mean_width mixed);
         (if mixed.complete then "yes" else "no");
       ];
       [
         "generous budget";
         Report.fmt_seconds governed;
         Report.fmt_int gov_trials;
         Printf.sprintf "%.4f" (mean_width gov);
         (if gov.complete then "yes" else "no");
       ];
     ]
    @ deadline_rows);
  (* 2e. Streaming shard engine (E6c).  Two claims: resident memory is
     bounded by the shard ceiling rather than the batch (the one-shard
     run keeps all 120 compiled DAGs, residuals and sampling tables live at
     once, the stream one shard's worth), and resuming a checkpointed run
     that lost its final shard replays the journal instead of recomputing. *)
  let ws2, stream_sets = stream_inputs () in
  let wc, ceiling_sets = ceiling_inputs () in
  let seps2 = 0.25 and sdelta2 = 0.1 in
  let live_now () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let base_live = live_now () in
  (* What the one-shard run holds at once: every tuple's compiled DAG. *)
  let mat_dags = Array.map (Compile.compile wc) ceiling_sets in
  let mat_peak = live_now () - base_live in
  ignore (Sys.opaque_identity mat_dags);
  let mat_time =
    Report.time_median (fun () ->
        ignore
          (batch_run (Rng.create ~seed:5) wc ceiling_sets ~eps:seps2
             ~delta:sdelta2))
  in
  record ~peak_words:mat_peak "batch-materialized-heavy" mat_time mat_time;
  (* One shard per tuple (the singleton rule): the per-shard ceiling is a
     single compiled tree, the strictest possible memory bound. *)
  let stream_opts =
    { Mc_confidence.default_stream_options with shard_cost = 1 }
  in
  let stream_base = live_now () in
  let stream_peak = ref 0 in
  let emitted = ref 0 in
  ignore
    (Mc_confidence.run_stream ~options:stream_opts (Rng.create ~seed:5) wc
       ceiling_sets ~eps:seps2 ~delta:sdelta2 ~emit:(fun _ ->
         incr emitted;
         if !emitted land 7 = 0 then
           stream_peak := max !stream_peak (live_now () - stream_base)));
  let stream_time =
    Report.time_median (fun () ->
        ignore
          (Mc_confidence.run_stream ~options:stream_opts (Rng.create ~seed:5)
             wc ceiling_sets ~eps:seps2 ~delta:sdelta2 ~emit:ignore))
  in
  record ~peak_words:!stream_peak "stream-heavy-shards" stream_time mat_time;
  (* Resume: journal a full streaming run, drop its final shard record (the
     most a SIGKILL can lose), resume — completed shards replay from the
     journal, only the lost one is recomputed. *)
  let journal = Filename.temp_file "pqdb_bench" ".ckpt" in
  let resume_opts =
    {
      Mc_confidence.default_stream_options with
      shard_cost = 10_000;
      checkpoint = Some journal;
    }
  in
  (* compile_fuel 0 = pure FPRAS on every tuple: the cold run pays real
     sampling, so replay-vs-recompute is measured, not just parsing. *)
  let cold_once () =
    Sys.remove journal;
    ignore
      (Mc_confidence.run_stream ~compile_fuel:0 ~options:resume_opts
         (Rng.create ~seed:6) ws2
         (Array.sub stream_sets 0 200)
         ~eps:seps2 ~delta:sdelta2 ~emit:ignore)
  in
  let cold_time = Report.time_median cold_once in
  cold_once ();
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin journal In_channel.input_all)
  in
  let lines = List.filter (fun l -> l <> "") lines in
  let kept = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  Out_channel.with_open_bin journal (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
  let truncated = In_channel.with_open_bin journal In_channel.input_all in
  let resume_time =
    Report.time_median (fun () ->
        (* Re-truncate each round: a resumed run re-journals the recomputed
           shard, which would make later rounds pure replay. *)
        Out_channel.with_open_bin journal (fun oc ->
            Out_channel.output_string oc truncated);
        ignore
          (Mc_confidence.run_stream ~compile_fuel:0
             ~options:{ resume_opts with resume = true }
             (Rng.create ~seed:6) ws2
             (Array.sub stream_sets 0 200)
             ~eps:seps2 ~delta:sdelta2 ~emit:ignore))
  in
  Sys.remove journal;
  record "resume-after-kill" resume_time cold_time;
  Report.table
    ~header:[ "streaming"; "median"; "peak live words"; "vs" ]
    [
      [
        "materialized run, 120 fuel-exhausting 30x30 DNFs";
        Report.fmt_seconds mat_time;
        Report.fmt_int mat_peak;
        "1.00x";
      ];
      [
        "stream, 1-tuple shards";
        Report.fmt_seconds stream_time;
        Report.fmt_int !stream_peak;
        Printf.sprintf "%.2fx time, %.1fx less memory"
          (mat_time /. stream_time)
          (float_of_int mat_peak /. float_of_int (max 1 !stream_peak));
      ];
      [
        "cold run, 200 FPRAS tuples";
        Report.fmt_seconds cold_time;
        "-";
        "1.00x";
      ];
      [
        "resume (1 shard lost)";
        Report.fmt_seconds resume_time;
        "-";
        Printf.sprintf "%.2fx" (cold_time /. resume_time);
      ];
    ];
  (* 2f. Distributed shard execution (E6d).  Workers are in-process thread
     transports — the bench keeps resident pool domains alive, so forking
     real processes is off the table — which makes this an honest one-core
     protocol-overhead measurement, not a scaling claim: the coordinator
     pays framing, CRC and reconciliation per shard while the workers
     time-slice the same CPU.  The claim is bit-identity at bounded
     overhead for any worker count. *)
  let dsets = Array.sub stream_sets 0 200 in
  let dopts =
    { Mc_confidence.default_stream_options with shard_cost = 10_000 }
  in
  (* The sampled results only, in shard order: [fp] is filled in by the
     coordinator but left empty by a journal-less single-process stream. *)
  let outcome_digest run =
    let rows = ref [] in
    run (fun (o : Pqdb_montecarlo.Shard.outcome) ->
        let buf = Buffer.create 256 in
        let floats a = Array.iter (Printf.bprintf buf " %h") a in
        floats o.estimates;
        Array.iter (fun (lo, hi) -> Printf.bprintf buf " %h,%h" lo hi)
          o.intervals;
        Array.iter (Printf.bprintf buf " %d") o.trials;
        floats o.achieved;
        floats o.masses;
        Printf.bprintf buf " %b" o.complete;
        rows := (o.shard.index, Buffer.contents buf) :: !rows);
    String.concat "\n" (List.map snd (List.sort compare !rows))
  in
  let single_digest =
    outcome_digest (fun emit ->
        ignore
          (Mc_confidence.run_stream ~compile_fuel:0 ~options:dopts
             (Rng.create ~seed:6) ws2 dsets ~eps:seps2 ~delta:sdelta2 ~emit))
  in
  let single_time =
    Report.time_median (fun () ->
        ignore
          (Mc_confidence.run_stream ~compile_fuel:0 ~options:dopts
             (Rng.create ~seed:6) ws2 dsets ~eps:seps2 ~delta:sdelta2
             ~emit:(fun _ -> ())))
  in
  record ~cores "distrib-single-process" single_time single_time;
  let distrib_run nw emit =
    Distrib.Coordinator.run ~compile_fuel:0 ~options:dopts ~workers:nw
      ~spawn:(fun _ ->
        Distrib.Coordinator.thread_transport (fun ~input ~output ->
            Distrib.Worker.serve ~compile_fuel:0 ~shard_cost:dopts.shard_cost
              (Rng.create ~seed:6) ws2 dsets ~eps:seps2 ~delta:sdelta2 ~input
              ~output))
      (Rng.create ~seed:6) ws2 dsets ~eps:seps2 ~delta:sdelta2 ~emit
  in
  let distrib_rows =
    List.map
      (fun nw ->
        let digest = outcome_digest (fun emit -> ignore (distrib_run nw emit)) in
        let identical = String.equal digest single_digest in
        let seconds =
          Report.time_median (fun () ->
              ignore (distrib_run nw (fun _ -> ())))
        in
        record ~cores (Printf.sprintf "distrib-workers-%d" nw) seconds
          single_time;
        [
          Printf.sprintf "%d workers" nw;
          Report.fmt_seconds seconds;
          Printf.sprintf "%.2fx" (single_time /. seconds);
          (if identical then "yes" else "NO");
        ])
      [ 1; 2; 4 ]
  in
  Report.table
    ~header:
      [ "distrib, 200 FPRAS tuples"; "median"; "vs single"; "bit-identical" ]
    ([ [ "single process"; Report.fmt_seconds single_time; "1.00x"; "-" ] ]
    @ distrib_rows);
  (* Compiled-lineage cache (the pqdb serve hot path): the same batch of
     hard DNFs solved cold (normalize + compile + solve per tuple) and warm
     (cache hit, straight to solve).  Identical per-pass RNG seeding, so
     the rendered "%h" outputs must be byte-identical — the serve CI job
     cmp's the same property over a socket. *)
  let cache_w = Wtable.create () in
  let cache_sets =
    let rng = Rng.create ~seed:313 in
    Array.init 48 (fun _ ->
        Gen.random_dnf rng cache_w ~vars:12 ~clauses:12 ~clause_len:3)
  in
  let cache_pass memo =
    let buf = Buffer.create 4096 in
    let rngs = Rng.split_n (Rng.create ~seed:17) (Array.length cache_sets) in
    Array.iteri
      (fun i set ->
        let tree = Memo.find_or_compile memo cache_w set in
        let o = Compile.solve rngs.(i) tree ~eps:0.3 ~delta:0.2 in
        Printf.bprintf buf "%d %h %h %h %d\n" i o.Compile.value o.Compile.lo
          o.Compile.hi o.Compile.trials)
      cache_sets;
    Buffer.contents buf
  in
  let cold_time =
    Report.time_median (fun () ->
        (* a fresh cache every run: every lookup misses *)
        ignore (cache_pass (Memo.create ~entries:64 ())))
  in
  let warm_memo = Memo.create ~entries:64 () in
  let cold_digest = cache_pass warm_memo in
  let warm_digest = cache_pass warm_memo in
  let identical = String.equal cold_digest warm_digest in
  if not identical then
    failwith "cache-cold-vs-warm: warm output is not byte-identical to cold";
  let warm_time = Report.time_median (fun () -> ignore (cache_pass warm_memo)) in
  let memo_stats = Memo.stats warm_memo in
  (* The lookup alone on a warm cache: normalize, encode the key, probe. *)
  let hit_pass () =
    Array.iter (fun set -> ignore (Memo.find_or_compile warm_memo cache_w set)) cache_sets
  in
  let hits = float_of_int (Array.length cache_sets) in
  let hit_time = Report.time_median ~repeat:51 hit_pass /. hits in
  let hit_words =
    let before = Gc.minor_words () in
    hit_pass ();
    (Gc.minor_words () -. before) /. hits
  in
  record "cache-cold-vs-warm" warm_time cold_time;
  Report.table
    ~header:
      [ "compiled-lineage cache, 48 DNFs"; "median"; "speedup"; "bit-identical" ]
    [
      [ "cold (compile every tuple)"; Report.fmt_seconds cold_time; "1.00x"; "-" ];
      [
        "warm (cache hit)";
        Report.fmt_seconds warm_time;
        Printf.sprintf "%.2fx" (cold_time /. warm_time);
        (if identical then "yes" else "NO");
      ];
      [ "one hit (lookup only)"; Report.fmt_seconds hit_time; "-"; "-" ];
    ];
  Report.note "a hit allocates %.0f minor words" hit_words;
  Report.note "cache counters: %d hits, %d misses, %d evictions"
    memo_stats.Memo.hits memo_stats.Memo.misses memo_stats.Memo.evictions;
  (* A warm serve request, split into its three in-process stages: the
     daemon's dispatch of [conf r] (128 memo hits and solves over the
     relation's cached groups and clause codes), the encoding of the reply
     frame, and the client's decode of it back through a pipe. *)
  let warm_db = Filename.temp_file "pqdb_bench_warm" ".udbb" in
  (let rng = Rng.create ~seed:128 in
   let udb = Udb.create () in
   let w = Udb.wtable udb in
   let rows =
     List.concat
       (List.init 128 (fun i ->
            let t = Tuple.of_list [ Pqdb_relational.Value.Int i ] in
            List.map
              (fun c -> (c, t))
              (Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3)))
   in
   Udb.add_urelation udb "r" (Urelation.make (Schema.of_list [ "id" ]) rows);
   Udb_io.save warm_db udb);
  let warm_srv =
    Pqdb_serve.Server.create
      {
        Pqdb_serve.Server.db_path = warm_db;
        listen = Pqdb_serve.Server.Tcp 1;
        cache_entries = Memo.default_entries;
        session_trials = None;
        session_deadline_s = None;
        io_timeout_s = None;
        idle_timeout_s = None;
        max_sessions = None;
        watchdog_s = None;
      }
  in
  Sys.remove warm_db;
  let dispatch () = Pqdb_serve.Server.dispatch warm_srv "conf r" in
  let body = dispatch () in
  let reply = Distrib.Protocol.Reply { id = 1; ok = true; body } in
  let frame = Distrib.Protocol.encode reply in
  let decode () =
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () ->
        Unix.close r;
        Unix.close w)
      (fun () ->
        ignore (Unix.write_substring w frame 0 (String.length frame));
        Distrib.Protocol.read_fd r)
  in
  if decode () <> Some reply then
    failwith "warm-conf: the decoded reply differs from the encoded one";
  let stage f =
    let seconds = Report.time_median ~repeat:51 (fun () -> ignore (f ())) in
    let before = Gc.minor_words () in
    ignore (f ());
    (seconds, Gc.minor_words () -. before)
  in
  let row name (seconds, words) =
    [ name; Report.fmt_seconds seconds; Printf.sprintf "%.0f" words ]
  in
  Report.table
    ~header:[ "warm conf, 128 tuples of 12x12 DNF"; "median"; "minor words" ]
    [
      row "dispatch" (stage dispatch);
      row "encode" (stage (fun () -> Distrib.Protocol.encode reply));
      row "decode" (stage decode);
    ];
  Report.note "reply frame %d bytes" (String.length frame);
  (* Journal compaction: a journal that survived one full re-append
     generation (every shard record bloated by an identical duplicate — the
     worst case the latest-per-shard policy reclaims), compacted in place.
     The "speedup" recorded is the on-disk size ratio. *)
  let cjournal = Filename.temp_file "pqdb_bench" ".ckpt" in
  Sys.remove cjournal;
  ignore
    (Mc_confidence.run_stream ~compile_fuel:0
       ~options:{ dopts with checkpoint = Some cjournal }
       (Rng.create ~seed:6) ws2 dsets ~eps:seps2 ~delta:sdelta2
       ~emit:(fun _ -> ()));
  let bloat () =
    let lines =
      In_channel.with_open_bin cjournal In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    match lines with
    | magic :: meta :: records ->
        Out_channel.with_open_bin cjournal (fun oc ->
            List.iter
              (fun l -> Out_channel.output_string oc (l ^ "\n"))
              ((magic :: meta :: records) @ records))
    | _ -> failwith "journal too short to bloat"
  in
  bloat ();
  let before_bytes = (Unix.stat cjournal).Unix.st_size in
  let compact_time =
    Report.time_median ~repeat:1 (fun () ->
        ignore (Pqdb_montecarlo.Shard.compact_journal cjournal))
  in
  let after_bytes = (Unix.stat cjournal).Unix.st_size in
  Sys.remove cjournal;
  let size_ratio = float_of_int before_bytes /. float_of_int after_bytes in
  record "journal-compaction" compact_time (compact_time *. size_ratio);
  Report.table
    ~header:[ "journal compaction"; "bytes"; "" ]
    [
      [ "bloated (1 duplicate generation)"; Report.fmt_int before_bytes; "" ];
      [
        "compacted";
        Report.fmt_int after_bytes;
        Printf.sprintf "%.2fx smaller, %s" size_ratio
          (Report.fmt_seconds compact_time);
      ];
    ];
  (* 2g. Storage cold start (E6e): the binary columnar .udbb format vs the
     text directory format on the same 2k-tuple database.  A binary load
     maps the file and decodes only the header, manifest and W table —
     relations stay as column segments until first use — while a text load
     parses every CSV row up front.  "full decode" forces every relation
     out of the mapping, the honest upper bound.  workers-shared-mapping
     models an N-worker fleet over one stored db: N text loads each
     re-parse the whole directory, N binary loads re-map the same
     page-cache-resident file and decode only the relation they serve.
     (In-process proxy, one core; the CI storage job measures the real
     multi-process VmHWM.) *)
  let sdir = Filename.temp_file "pqdb_bench" ".db" in
  Sys.remove sdir;
  let sbin = sdir ^ Udb_binary.extension in
  let sdb = Gen.uncertain_db (Rng.create ~seed:77) ~tuples:2000 ~clauses:3 in
  Udb_io.save sdir sdb;
  Udb_io.save sbin sdb;
  let text_load_time =
    Report.time_median (fun () -> ignore (Udb_io.load sdir))
  in
  let held_words load =
    let base = live_now () in
    let v = Sys.opaque_identity (load ()) in
    let words = live_now () - base in
    ignore (Sys.opaque_identity v);
    words
  in
  let text_words = held_words (fun () -> Udb_io.load sdir) in
  record ~peak_words:text_words "cold-start-text-2k" text_load_time
    text_load_time;
  let bin_load_time =
    Report.time_median (fun () -> ignore (Udb_io.load sbin))
  in
  let bin_words = held_words (fun () -> Udb_io.load sbin) in
  record ~peak_words:bin_words "cold-start-text-vs-binary" bin_load_time
    text_load_time;
  let bin_full_time =
    Report.time_median (fun () ->
        let u = Udb_io.load sbin in
        List.iter (fun n -> ignore (Udb.find u n)) (Udb.names u))
  in
  let bin_full_words =
    held_words (fun () ->
        let u = Udb_io.load sbin in
        List.iter (fun n -> ignore (Udb.find u n)) (Udb.names u);
        u)
  in
  record ~peak_words:bin_full_words "cold-start-binary-full-decode"
    bin_full_time text_load_time;
  let fleet = 4 in
  let text_fleet_time =
    Report.time_median (fun () ->
        for _ = 1 to fleet do
          ignore (Udb_io.load sdir)
        done)
  in
  let text_fleet_words =
    held_words (fun () -> List.init fleet (fun _ -> Udb_io.load sdir))
  in
  let bin_fleet () =
    List.init fleet (fun _ ->
        let u = Udb_io.load sbin in
        ignore (Udb.find u "events");
        u)
  in
  let bin_fleet_time =
    Report.time_median (fun () -> ignore (bin_fleet ()))
  in
  let bin_fleet_words = held_words bin_fleet in
  record ~peak_words:bin_fleet_words "workers-shared-mapping" bin_fleet_time
    text_fleet_time;
  record ~peak_words:text_fleet_words "workers-text-reparse" text_fleet_time
    text_fleet_time;
  Report.table
    ~header:[ "storage, 2k-tuple db"; "median"; "live words"; "vs text" ]
    [
      [
        "text load";
        Report.fmt_seconds text_load_time;
        Report.fmt_int text_words;
        "1.00x";
      ];
      [
        "binary load (lazy)";
        Report.fmt_seconds bin_load_time;
        Report.fmt_int bin_words;
        Printf.sprintf "%.1fx" (text_load_time /. bin_load_time);
      ];
      [
        "binary load + full decode";
        Report.fmt_seconds bin_full_time;
        Report.fmt_int bin_full_words;
        Printf.sprintf "%.1fx" (text_load_time /. bin_full_time);
      ];
      [
        Printf.sprintf "%d-worker fleet, text" fleet;
        Report.fmt_seconds text_fleet_time;
        Report.fmt_int text_fleet_words;
        "1.00x";
      ];
      [
        Printf.sprintf "%d-worker fleet, shared mapping" fleet;
        Report.fmt_seconds bin_fleet_time;
        Report.fmt_int bin_fleet_words;
        Printf.sprintf "%.1fx" (text_fleet_time /. bin_fleet_time);
      ];
    ];
  Array.iter
    (fun f -> Sys.remove (Filename.concat sdir f))
    (Sys.readdir sdir);
  Sys.rmdir sdir;
  Sys.remove sbin;
  (* 3. Hash join vs the nested-loop baseline it replaced. *)
  let r, s = join_inputs () in
  let nested =
    Report.time_median (fun () -> ignore (nested_loop_join r s))
  in
  record "join-nested-loop-500x100" nested nested;
  let hashed = Report.time_median (fun () -> ignore (Translate.join r s)) in
  record "join-hash-500x100" hashed nested;
  Report.table
    ~header:[ "join 500x100"; "median"; "speedup" ]
    [
      [ "nested loop"; Report.fmt_seconds nested; "1.00x" ];
      [
        "hash join";
        Report.fmt_seconds hashed;
        Printf.sprintf "%.2fx" (nested /. hashed);
      ];
    ];
  (* 4. Serve under faults: warm-query latency over a live daemon socket,
     clean vs the same traffic with a 50 ms delay injected into every 10th
     request's session handling, plus an overload burst against the single
     session slot.  Degraded service may be slower, never wrong: every
     reply not hit by an armed fault must stay byte-identical to the
     fault-free reference, and excess connections must be shed with a
     typed busy instead of queueing or hanging. *)
  let module FP = Pqdb_runtime.Faultpoint in
  let module E = Pqdb_runtime.Pqdb_error in
  let module Server = Pqdb_serve.Server in
  let module Sclient = Pqdb_serve.Client in
  List.iter FP.disarm (FP.armed ());
  let serve_db = Filename.temp_file "pqdb_bench_serve" ".udbb" in
  Udb_io.save serve_db
    (Gen.uncertain_db (Rng.create ~seed:77) ~tuples:20 ~clauses:3);
  let sock_path = Filename.temp_file "pqdb_bench_serve" ".sock" in
  Sys.remove sock_path;
  let listen = Server.Unix_socket sock_path in
  let scfg =
    {
      Server.db_path = serve_db;
      listen;
      cache_entries = 64;
      session_trials = None;
      session_deadline_s = None;
      io_timeout_s = Some 10.0;
      idle_timeout_s = Some 60.0;
      max_sessions = Some 1;
      watchdog_s = None;
    }
  in
  let srv = Server.create scfg in
  let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
  let client =
    Sclient.connect ~retries:40 ~retry_delay_s:0.05 ~io_timeout_s:10.0 listen
  in
  let spec = "conf events eps=0.3 delta=0.2" in
  let serve_queries = 20 in
  let fault_stride = 10 in
  (* warm the compiled-lineage cache, then pin the reference body *)
  ignore (Sclient.query client spec);
  let reference =
    match Sclient.query client spec with
    | true, body -> body
    | false, err -> failwith ("serve-under-faults: reference query: " ^ err)
  in
  let serve_pass ~faulted () =
    for i = 1 to serve_queries do
      let armed = faulted && i mod fault_stride = 0 in
      if armed then FP.arm ~count:1 ~mode:(FP.Delay 0.05) "serve.session";
      match Sclient.query client spec with
      | true, body ->
          if (not armed) && not (String.equal body reference) then
            failwith
              "serve-under-faults: unaffected reply is not byte-identical"
      | false, err -> failwith ("serve-under-faults: err reply: " ^ err)
    done
  in
  let clean_total = Report.time_median (fun () -> serve_pass ~faulted:false ()) in
  let faulted_total =
    Report.time_median (fun () -> serve_pass ~faulted:true ())
  in
  List.iter FP.disarm (FP.armed ());
  let clean_q = clean_total /. float_of_int serve_queries in
  let faulted_q = faulted_total /. float_of_int serve_queries in
  (* overload burst: the persistent client holds the only slot, so every
     extra connection must come back as an immediate typed Busy *)
  let burst = 8 in
  let shed_seen = ref 0 in
  for _ = 1 to burst do
    match Sclient.connect ~io_timeout_s:5.0 listen with
    | c ->
        Sclient.close c;
        failwith "serve-under-faults: connection admitted past the cap"
    | exception E.Error (E.Busy _) -> incr shed_seen
  done;
  let shed_counted =
    match Sclient.query client "stats" with
    | true, body ->
        let words =
          String.split_on_char '\n' body
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun w -> w <> "")
        in
        let rec go = function
          | k :: v :: rest ->
              if String.equal k "shed" then int_of_string_opt v
              else go (v :: rest)
          | _ -> None
        in
        (match go words with
        | Some n -> n
        | None -> failwith "serve-under-faults: no shed counter in stats")
    | false, err -> failwith ("serve-under-faults: stats query: " ^ err)
  in
  if shed_counted < !shed_seen then
    failwith "serve-under-faults: stats shed counter below observed sheds";
  record "serve-warm-query" clean_q clean_q;
  record ~shed:shed_counted "serve-under-faults" faulted_q clean_q;
  (try ignore (Sclient.query client "shutdown") with _ -> ());
  (try Sclient.close client with _ -> ());
  Thread.join daemon;
  if Sys.file_exists serve_db then Sys.remove serve_db;
  if Sys.file_exists sock_path then Sys.remove sock_path;
  Report.table
    ~header:
      [
        Printf.sprintf "serve, %d warm queries" serve_queries;
        "per query";
        "slowdown";
        "bit-identical";
      ]
    [
      [ "fault-free"; Report.fmt_seconds clean_q; "1.00x"; "yes" ];
      [
        "10% of requests +50ms";
        Report.fmt_seconds faulted_q;
        Printf.sprintf "%.2fx" (faulted_q /. clean_q);
        "yes (unaffected)";
      ];
    ];
  Report.note "overload burst: %d/%d connections shed with typed Busy"
    shed_counted burst;
  (* Machine-readable record for EXPERIMENTS.md and regression tracking.
     Schema v4: entries optionally carry the estimator-trial spend, the
     closed-form probability-mass fraction of the compiled path, and the
     overload-shed count of the serve-under-faults entry. *)
  let path = "BENCH_confidence.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"pqdb-bench-confidence/v4\",\n\
    \  \"recommended_domains\": %d,\n\
    \  \"resident_pool_workers\": %d,\n\
    \  \"results\": [\n"
    (Domain.recommended_domain_count ())
    (Pqdb_montecarlo.Pool.resident_workers ());
  let items = List.rev !entries in
  List.iteri
    (fun i e ->
      let opt_int = function
        | Some n -> Printf.sprintf ", \"trials_used\": %d" n
        | None -> ""
      in
      let opt_float key = function
        | Some f -> Printf.sprintf ", \"%s\": %.4f" key f
        | None -> ""
      in
      let opt_words = function
        | Some n -> Printf.sprintf ", \"peak_live_words\": %d" n
        | None -> ""
      in
      let opt_cores = function
        | Some n -> Printf.sprintf ", \"cores\": %d" n
        | None -> ""
      in
      let opt_shed = function
        | Some n -> Printf.sprintf ", \"shed\": %d" n
        | None -> ""
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"median_seconds\": %.6e, \"speedup\": %.3f%s%s%s%s%s%s}%s\n"
        e.be_name e.be_seconds e.be_speedup
        (opt_int e.be_trials)
        (opt_float "exact_fraction" e.be_exact_fraction)
        (opt_float "mean_width" e.be_width)
        (opt_words e.be_peak_words)
        (opt_cores e.be_cores)
        (opt_shed e.be_shed)
        (if i = List.length items - 1 then "" else ","))
    items;
  output_string oc "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path
