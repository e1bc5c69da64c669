(* Experiments E13-E15: ablations of the design choices DESIGN.md calls out —
   the logical optimizer, the Figure-3 batch size, and rational vs float
   Shannon expansion. *)

open Pqdb_relational
open Pqdb_urel
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred
module Gen = Pqdb_workload.Gen
module Dnf = Pqdb_montecarlo.Dnf
module Estimator = Pqdb_montecarlo.Estimator
module Lineage = Pqdb_montecarlo.Lineage
module Compile = Pqdb_montecarlo.Compile

(* ------------------------------------------------------------------ *)
(* E13: the logical optimizer                                          *)
(* ------------------------------------------------------------------ *)

let e13_optimizer ~quick =
  Report.section "E13"
    "Ablation: selection push-down (esp. below conf) vs naive plans";
  let sizes = if quick then [ 40; 80; 160 ] else [ 40; 80; 160; 320 ] in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create ~seed:(130 + n) in
        let dirty =
          Gen.weighted_relation rng ~attrs:[ "A"; "B" ] ~rows:n ~domain:(n / 2)
            ~weight:"W"
        in
        let make_udb () =
          let udb = Udb.create () in
          Udb.add_complete udb "R" dirty;
          udb
        in
        (* Selective condition over the confidence of a repaired relation:
           the naive plan computes exact confidence for every tuple, the
           optimized one only for the selected slice. *)
        let q =
          Ua.select
            Predicate.(Expr.attr "A" = Expr.int 0)
            (Ua.conf
               (Ua.project [ "A"; "B" ]
                  (Ua.repair_key ~key:[ "A" ] ~weight:"W" (Ua.table "R"))))
        in
        let t_naive =
          Report.time_median ~repeat:3 (fun () ->
              ignore (Pqdb.Eval_exact.eval_relation (make_udb ()) q))
        in
        let t_opt =
          Report.time_median ~repeat:3 (fun () ->
              let udb = make_udb () in
              let q' = Pqdb.Optimizer.optimize_for udb q in
              ignore (Pqdb.Eval_exact.eval_relation udb q'))
        in
        (* Both produce the same relation. *)
        let same =
          Relation.equal
            (Pqdb.Eval_exact.eval_relation (make_udb ()) q)
            (let udb = make_udb () in
             Pqdb.Eval_exact.eval_relation udb
               (Pqdb.Optimizer.optimize_for udb q))
        in
        [
          Report.fmt_int n;
          Report.fmt_seconds t_naive;
          Report.fmt_seconds t_opt;
          Report.fmt_float (t_naive /. t_opt);
          string_of_bool same;
        ])
      sizes
  in
  Report.table
    ~header:[ "|R|"; "naive plan"; "optimized plan"; "speedup"; "same result" ]
    rows;
  Report.note
    "pushing the selection below conf shrinks the #P-hard part of the plan \
     to the selected slice."

(* ------------------------------------------------------------------ *)
(* E14: Figure-3 batch size                                            *)
(* ------------------------------------------------------------------ *)

let e14_batch_size ~quick =
  Report.section "E14"
    "Ablation: estimator calls per Figure-3 round (the paper uses |F|)";
  let rng = Rng.create ~seed:14 in
  let trials = if quick then 20 else 60 in
  let phi = Apred.ge (Apred.var 0) (Apred.const 0.5) in
  (* A 6-clause DNF so |F| > 1 makes batching meaningful. *)
  let make_estimator () =
    let w = Wtable.create () in
    let clauses = Gen.random_dnf rng w ~vars:6 ~clauses:6 ~clause_len:2 in
    Estimator.create (Dnf.prepare w clauses)
  in
  let batches = [ (Some 1, "1"); (None, "|F| (paper)"); (Some 24, "4|F|") ] in
  let means =
    List.map
      (fun (batch, label) ->
        let calls = ref 0 and eps_calls = ref 0 in
        for _ = 1 to trials do
          let est = make_estimator () in
          let d =
            Pqdb.Predicate_approx.decide ?batch ~compile_fuel:0 ~eps0:0.05 ~rng
              ~delta:0.1 phi [| est |]
          in
          calls := !calls + d.Pqdb.Predicate_approx.estimator_calls;
          eps_calls := !eps_calls + d.Pqdb.Predicate_approx.rounds
        done;
        ( label,
          float_of_int !calls /. float_of_int trials,
          float_of_int !eps_calls /. float_of_int trials ))
      batches
  in
  Report.table
    ~header:
      [ "batch size"; "mean estimator calls"; "mean rounds (eps recomputations)" ]
    (List.map
       (fun (label, calls, rounds) ->
         [ label; Report.fmt_float calls; Report.fmt_float rounds ])
       means);
  (* The verdict is read off the table, not written in advance. *)
  let fewest pick =
    List.fold_left
      (fun ((_, best) as acc) ((label, _, _) as row) ->
        let v = pick row in
        if v < best then (label, v) else acc)
      ("", Float.infinity) means
  in
  let calls_label, calls = fewest (fun (_, c, _) -> c)
  and rounds_label, rounds = fewest (fun (_, _, r) -> r) in
  let paper = "|F| (paper)" in
  Report.note
    "fewest estimator calls: %s (%s); fewest rounds: %s (%s). The paper's \
     |F| batching wins on %s."
    calls_label (Report.fmt_float calls) rounds_label (Report.fmt_float rounds)
    (match (calls_label = paper, rounds_label = paper) with
    | true, true -> "both counts"
    | true, false -> "calls only"
    | false, true -> "rounds only"
    | false, false -> "neither count")

(* ------------------------------------------------------------------ *)
(* E15: rational vs float arithmetic on the one lineage decomposer, and  *)
(* its cost on batch-shaped DNFs                                       *)
(* ------------------------------------------------------------------ *)

let e15_rational_vs_float ~quick =
  Report.section "E15"
    "Ablation: the lineage decomposer over exact rationals vs machine floats";
  let sizes = if quick then [ 8; 12; 16 ] else [ 8; 12; 16; 20 ] in
  let rows =
    List.map
      (fun vars ->
        let rng = Rng.create ~seed:(150 + vars) in
        let w = Wtable.create () in
        let clauses = Gen.random_dnf rng w ~vars ~clauses:vars ~clause_len:3 in
        let exact = ref Q.zero and fl = ref 0. in
        let t_rat =
          Report.time_median ~repeat:3 (fun () ->
              exact := Lineage.exact w clauses)
        in
        let t_float =
          Report.time_median ~repeat:3 (fun () ->
              fl :=
                Option.get
                  (Compile.exact_value
                     (Compile.compile ~fuel:max_int w clauses)))
        in
        let err = Float.abs (!fl -. Q.to_float !exact) in
        [
          Report.fmt_int vars;
          Report.fmt_seconds t_rat;
          Report.fmt_seconds t_float;
          Report.fmt_float (t_rat /. t_float);
          Printf.sprintf "%.2e" err;
        ])
      sizes
  in
  Report.table
    ~header:
      [
        "vars";
        "Lineage.exact (rational)";
        "compile, no fuel bound (float)";
        "rat/float";
        "abs. error of float";
      ]
    rows;
  Report.note
    "exact rationals pay a small constant factor and buy exact ground truth \
     for the error measurements — the library default.";
  (* The decomposer's per-node cost on the shape the batch engine compiles:
     30 random 30-variable, 30-clause DNFs at the default fuel, about a
     third of which run out of fuel and leave residuals. *)
  let rng = Rng.create ~seed:151 in
  let w = Wtable.create () in
  let dnfs =
    Array.init 30 (fun _ -> Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)
  in
  let compile_all () = Array.map (Compile.compile w) dnfs in
  let exact =
    Array.fold_left
      (fun n c -> if Compile.is_exact c then n + 1 else n)
      0 (compile_all ())
  in
  let words =
    let before = Gc.minor_words () in
    ignore (compile_all ());
    Gc.minor_words () -. before
  in
  (* p10 over compacted heaps: a kernel change that keeps every DAG then
     reads as its cost per node. *)
  let ms = Report.p10_ms ~samples:11 (fun () -> ignore (compile_all ())) in
  let per = float_of_int (Array.length dnfs) in
  Report.table
    ~header:
      [ "batch-shaped 30x30, default fuel"; "ms / DNF (p10 of 11)";
        "minor words / DNF"; "exact" ]
    [
      [
        Printf.sprintf "%d DNFs" (Array.length dnfs);
        Printf.sprintf "%.3f" (ms /. per);
        Printf.sprintf "%.0f" (words /. per);
        Printf.sprintf "%d of %d" exact (Array.length dnfs);
      ];
    ];
  (* The zero-trial certificate on the same shape: of the DNFs the default
     fuel leaves inexact, how many the compiled bracket alone proves at
     each ε (δ = 0.05), and what sampling the rest costs. *)
  let rng = Rng.create ~seed:152 in
  let inexact =
    List.filter
      (fun c -> not (Compile.is_exact c))
      (List.init (if quick then 240 else 960) (fun _ ->
           Compile.compile w
             (Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)))
  in
  Report.table
    ~header:[ "eps"; "inexact DNFs"; "certified, 0 trials"; "trials"; "solve ms" ]
    (List.map
       (fun eps ->
         let certified = ref 0 and trials = ref 0 in
         let t =
           Report.time_median ~repeat:1 (fun () ->
               List.iteri
                 (fun i c ->
                   let o = Compile.solve (Rng.create ~seed:i) c ~eps ~delta:0.05 in
                   if o.Compile.trials = 0 then incr certified;
                   trials := !trials + o.Compile.trials)
                 inexact)
         in
         [
           Report.fmt_float eps;
           Report.fmt_int (List.length inexact);
           Report.fmt_int !certified;
           Report.fmt_int !trials;
           Printf.sprintf "%.1f" (t *. 1e3);
         ])
       [ 0.05; 0.1; 0.2 ])

(* ------------------------------------------------------------------ *)
(* E16: attribute-level uncertainty via vertical decomposition          *)
(* ------------------------------------------------------------------ *)

let e16_vertical ~quick =
  Report.section "E16"
    "Attribute-level uncertainty: vertical decomposition vs flat expansion \
     (Section 3's succinctness remark)";
  let ks = if quick then [ 2; 4; 8; 12 ] else [ 2; 4; 8; 12; 16; 20 ] in
  let rows_list =
    List.map
      (fun k ->
        let w = Wtable.create () in
        let alts = [ (Value.Int 0, Q.half); (Value.Int 1, Q.half) ] in
        let attrs = List.init k (fun i -> "A" ^ string_of_int i) in
        let spec = [ List.init k (fun _ -> alts) ] in
        let v = ref None in
        let t_build =
          Report.time_median ~repeat:3 (fun () ->
              let w' = Wtable.create () in
              v := Some (Vertical.build w' ~tid:"#id" ~attrs ~rows:spec))
        in
        ignore w;
        let v = Option.get !v in
        let comp = Vertical.component_size v in
        let exp_size = Vertical.expanded_size v in
        let t_expand =
          if k <= 16 then
            Report.fmt_seconds
              (Report.time_median ~repeat:1 (fun () ->
                   ignore (Vertical.expanded v)))
          else "(skipped)"
        in
        [
          Report.fmt_int k;
          Report.fmt_int comp;
          Report.fmt_int exp_size;
          Report.fmt_seconds t_build;
          t_expand;
        ])
      ks
  in
  Report.table
    ~header:
      [
        "uncertain attrs k";
        "vertical rows (2k)";
        "flat rows (2^k)";
        "build time";
        "expansion time";
      ]
    rows_list;
  Report.note
    "the vertical representation stays linear while the flat U-relation \
     doubles per attribute — the succinctness Section 3 attributes to \
     vertical decompositioning."


(* ------------------------------------------------------------------ *)
(* E17: top-k by confidence (multisimulation pruning)                   *)
(* ------------------------------------------------------------------ *)

let e17_topk ~quick =
  Report.section "E17"
    "Top-k by confidence: interval pruning vs refining every candidate";
  let rng = Rng.create ~seed:17 in
  let ns = if quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64 ] in
  let rows =
    List.map
      (fun n ->
        let make_candidates () =
          let w = Wtable.create () in
          ( w,
            List.init n (fun i ->
              (* Spread the true confidences so only a few candidates are
                 contested around the k-th boundary. *)
              let p = 0.05 +. (0.9 *. float_of_int i /. float_of_int n) in
              let q = 1. -. sqrt (1. -. p) in
              let num = max 1 (int_of_float (Float.round (q *. 1000.))) in
              let fresh () =
                Wtable.add_var w
                  [ Q.of_ints (1000 - num) 1000; Q.of_ints num 1000 ]
              in
              ( Pqdb_relational.Tuple.of_list
                  [ Pqdb_relational.Value.Int i ],
                [
                  Pqdb_urel.Assignment.singleton (fresh ()) 1;
                  Pqdb_urel.Assignment.singleton (fresh ()) 1;
                ] )) )
        in
        let k = n / 4 in
        (* [compile_fuel:0] keeps every candidate on the sampling path: this
           experiment ablates interval pruning, not lineage compilation. *)
        let r =
          let w, candidates = make_candidates () in
          Pqdb.Topk.run ~eps0:0.01 ~compile_fuel:0 ~rng ~delta:0.1 ~k w
            candidates
        in
        (* Baseline: refine every candidate to the budget the most-refined
           contested candidate needed (what a non-pruning loop would do). *)
        let per_candidate_max =
          r.Pqdb.Topk.rounds * 2 (* |F| = 2 calls per round *)
        in
        let baseline = n * per_candidate_max in
        [
          Report.fmt_int n;
          Report.fmt_int k;
          Report.fmt_int r.Pqdb.Topk.estimator_calls;
          Report.fmt_int baseline;
          Report.fmt_float
            (float_of_int r.Pqdb.Topk.estimator_calls
            /. float_of_int (max 1 baseline));
          string_of_bool (Pqdb.Topk.certified r);
        ])
      ns
  in
  Report.table
    ~header:
      [
        "candidates";
        "k";
        "pruned calls";
        "refine-everything calls";
        "ratio";
        "certified";
      ]
    rows;
  Report.note
    "only the candidates straddling the k-th boundary keep sampling; the \
     ratio shrinks as the field grows."
