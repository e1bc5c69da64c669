(* Experiments E1-E4: the representation system, positive-fragment scaling,
   exact-vs-FPRAS confidence, and FPRAS convergence.  See DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured. *)

open Pqdb_relational
open Pqdb_urel
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Stats = Pqdb_numeric.Stats
module Ua = Pqdb_ast.Ua
module Scenarios = Pqdb_workload.Scenarios
module Gen = Pqdb_workload.Gen
module Dnf = Pqdb_montecarlo.Dnf
module Estimator = Pqdb_montecarlo.Estimator
module Lineage = Pqdb_montecarlo.Lineage

(* ------------------------------------------------------------------ *)
(* E1: Example 2.2 and its scaled versions                             *)
(* ------------------------------------------------------------------ *)

let e1_coin_example ~quick =
  Report.section "E1" "Example 2.2 / Figure 1: the coin-bag posterior";
  let udb = Scenarios.coin_db () in
  let q = Scenarios.coin_queries in
  let u, secs =
    Report.timed (fun () ->
        Pqdb.Eval_exact.eval_relation udb q.Scenarios.u)
  in
  Report.note "posterior (exact, U-relational path), computed in %s:"
    (Report.fmt_seconds secs);
  Format.printf "%a@." Relation.pp u;
  let pdb =
    Pqdb_worlds.Pdb.of_complete
      [
        ("Coins", Scenarios.coins);
        ("Faces", Scenarios.faces);
        ("Tosses", Scenarios.tosses);
      ]
  in
  let ground =
    Pqdb_worlds.Eval_naive.eval_certain pdb q.Scenarios.u
  in
  Report.note "ground truth (possible-worlds path) agrees: %b"
    (Relation.equal u ground);
  Report.note "W variables created: %d (paper's Figure 1(b): 3)"
    (Wtable.var_count (Udb.wtable udb));
  (* Scaling: more coin types and more tosses. *)
  let cases =
    if quick then [ (2, 2); (4, 3); (6, 4) ]
    else [ (2, 2); (4, 3); (6, 4); (8, 5); (10, 6) ]
  in
  let rows =
    List.map
      (fun (types, tosses) ->
        let rng = Rng.create ~seed:(types + (100 * tosses)) in
        let udb, u = Scenarios.scaled_coin_db rng ~coin_types:types ~tosses in
        let secs =
          Report.time_median ~repeat:3 (fun () ->
              ignore (Pqdb.Eval_exact.eval_relation (Udb.copy udb) u))
        in
        let vars =
          let udb' = Udb.copy udb in
          ignore (Pqdb.Eval_exact.eval udb' u);
          Wtable.var_count (Udb.wtable udb')
        in
        [
          Report.fmt_int types;
          Report.fmt_int tosses;
          Report.fmt_int vars;
          Report.fmt_seconds secs;
        ])
      cases
  in
  Report.table
    ~header:[ "coin types"; "tosses"; "W vars"; "exact posterior time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: Proposition 3.3 — positive fragment scales polynomially         *)
(* ------------------------------------------------------------------ *)

let e2_positive_ra_scaling ~quick =
  Report.section "E2"
    "Proposition 3.3: positive UA[repair-key] on U-relations is cheap";
  let sizes = if quick then [ 200; 800; 3200 ] else [ 200; 800; 3200; 12800 ] in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create ~seed:n in
        let w = Wtable.create () in
        let r = Gen.tuple_independent rng w ~attrs:[ "A"; "B" ] ~rows:n ~domain:100 in
        (* The joined relation stays fixed so the sweep isolates |R|. *)
        let s =
          Urelation.of_relation
            (Gen.random_relation rng ~attrs:[ "B"; "C" ] ~rows:100 ~domain:100)
        in
        let secs =
          Report.time_median ~repeat:3 (fun () ->
              ignore
                (Translate.project_attrs [ "A"; "C" ]
                   (Translate.join
                      (Translate.select
                         Predicate.(Expr.attr "A" >= Expr.int 0)
                         r)
                      s)))
        in
        let per_row = secs /. float_of_int n *. 1e6 in
        [
          Report.fmt_int n;
          Report.fmt_seconds secs;
          Printf.sprintf "%.2fus" per_row;
        ])
      sizes
  in
  Report.table ~header:[ "|R| rows"; "select+join+project"; "per input row" ] rows;
  Report.note
    "the per-row cost should stay roughly flat (low-polynomial data complexity)."

(* ------------------------------------------------------------------ *)
(* E3: Theorem 3.4 — exact confidence is exponential, the FPRAS is not *)
(* ------------------------------------------------------------------ *)

(* [trials] Karp-Luby estimator calls, averaged (Proposition 4.2). *)
let karp_luby rng dnf ~trials =
  let est = Estimator.create dnf in
  Estimator.batch rng est trials;
  Estimator.estimate est

let e3_exact_vs_fpras ~quick =
  Report.section "E3"
    "Theorem 3.4 vs Proposition 4.2: exact confidence blows up, Karp-Luby \
     stays flat";
  let sizes = if quick then [ 6; 10; 14 ] else [ 6; 10; 14; 18; 22 ] in
  let rows =
    List.map
      (fun vars ->
        let rng = Rng.create ~seed:(1000 + vars) in
        let w = Wtable.create () in
        let clauses =
          Gen.random_dnf rng w ~vars ~clauses:vars ~clause_len:3
        in
        let dnf = Dnf.prepare w clauses in
        let enum_time =
          if vars <= 14 then
            Some
              (Report.time_median ~repeat:1 (fun () ->
                   ignore (Confidence.by_enumeration w clauses)))
          else None
        in
        let exact = ref Q.zero in
        (* One run swings by half between runs of one build; the p10 of
           11 runs on compacted heaps reads level. *)
        let decomposer_time =
          Report.p10_ms ~samples:11 (fun () -> exact := Lineage.exact w clauses)
          /. 1e3
        in
        let exact = Q.to_float !exact in
        let kl = ref 0. in
        let trials =
          Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps:0.1
            ~delta:0.05
        in
        let kl_time =
          Report.time_median ~repeat:1 (fun () -> kl := karp_luby rng dnf ~trials)
        in
        let rel_err =
          if exact > 0. then Float.abs (!kl -. exact) /. exact else 0.
        in
        [
          Report.fmt_int vars;
          (match enum_time with
          | Some t -> Report.fmt_seconds t
          | None -> "(skipped)");
          Report.fmt_seconds decomposer_time;
          Report.fmt_seconds kl_time;
          Report.fmt_float exact;
          Report.fmt_float rel_err;
        ])
      sizes
  in
  Report.table
    ~header:
      [
        "vars";
        "enumeration";
        "decomposer";
        "karp-luby(0.1,0.05)";
        "exact p";
        "KL rel.err";
      ]
    rows;
  Report.note
    "enumeration grows exponentially in the variable count; the decomposer \
     (Lineage.exact: independent splits, disjoint and Shannon expansion) \
     is exponential only in the worst case; the FPRAS cost tracks \
     |F|*ln(1/delta)/eps^2 only."

(* ------------------------------------------------------------------ *)
(* E4: Proposition 4.2 — FPRAS convergence against the Chernoff bound  *)
(* ------------------------------------------------------------------ *)

let e4_fpras_convergence ~quick =
  Report.section "E4"
    "Proposition 4.2: Karp-Luby convergence vs the Chernoff bound";
  let rng = Rng.create ~seed:4 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:10 ~clauses:10 ~clause_len:3 in
  let dnf = Dnf.prepare w clauses in
  let exact = Q.to_float (Dnf.exact dnf) in
  let eps = 0.1 in
  let trials_list = if quick then [ 100; 1000; 10_000 ] else [ 100; 1000; 10_000; 100_000 ] in
  Report.note "instance: 10 variables, |F| = %d, exact p = %.6f"
    (Dnf.clause_count dnf) exact;
  let rows =
    List.map
      (fun m ->
        let runs = max 20 (200_000 / m) in
        let errors = ref [] in
        let failures = Stats.tally () in
        for _ = 1 to runs do
          let p_hat = karp_luby rng dnf ~trials:m in
          let rel = Float.abs (p_hat -. exact) /. exact in
          errors := rel :: !errors;
          Stats.record failures (rel < eps)
        done;
        let errs = Array.of_list !errors in
        let bound =
          Stats.karp_luby_delta ~trials:m ~clauses:(Dnf.clause_count dnf) ~eps
        in
        [
          Report.fmt_int m;
          Report.fmt_int runs;
          Report.fmt_float (Stats.mean errs);
          Report.fmt_float (Stats.quantile errs 0.95);
          Report.fmt_float (Stats.error_rate failures);
          Report.fmt_float (Float.min 1. bound);
        ])
      trials_list
  in
  Report.table
    ~header:
      [
        "trials m";
        "runs";
        "mean rel.err";
        "p95 rel.err";
        "P(err >= 0.1p) observed";
        "Chernoff bound";
      ]
    rows;
  Report.note
    "the observed failure frequency must stay below the (loose) Chernoff \
     bound, and mean error shrinks like 1/sqrt(m)."
