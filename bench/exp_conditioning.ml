(* E18: conditioning on the dedup fixture — what renormalizing by
   Pr(constraints) costs on top of plain confidence, and how much of the
   conditioned work the compiled (exact) path still absorbs.

   The instance is Gen.add_dirty_people's duplicate-heavy people(id, name):
   conditioning on fd[id -> name](people) is the Example 2.2 cleaning
   scenario.  Every conditioned answer is four positive-DNF solves behind a
   difference and a ratio, so the honest expectation is a constant-factor
   slowdown — not an asymptotic one — as long as the conjoined lineages
   still compile.  Results land in BENCH_conditioning.json. *)

open Pqdb_urel
module Rng = Pqdb_numeric.Rng
module Gen = Pqdb_workload.Gen
module Memo = Pqdb_montecarlo.Memo
module Compile = Pqdb_montecarlo.Compile
module Guarantee = Pqdb_montecarlo.Guarantee
module Cset = Pqdb_conditioning.Constraint_set
module Condition = Pqdb_conditioning.Condition
module Uconstraint = Pqdb_ast.Uconstraint
module Ua = Pqdb_ast.Ua

let eps = 0.05
let delta = 0.01

(* Plain per-tuple confidence through the same Memo + Compile.solve path the
   serve daemon and batch use — the fair baseline for the conditioned loop. *)
let unconditioned_pass w sets cache seed =
  let n = Array.length sets in
  let rngs = Rng.split_n (Rng.create ~seed) n in
  for i = 0 to n - 1 do
    let tree = Memo.find_or_compile cache w sets.(i) in
    ignore (Compile.solve rngs.(i) tree ~eps ~delta)
  done

let conditioned_pass w sets compiled cache seed =
  ignore
    (Condition.solve_batch ~cache ~seed w compiled sets ~eps ~delta
       ~emit:ignore)

let run ~quick =
  Report.section "E18"
    "conditioning: renormalized confidence on the dedup fixture \
     (fd[id -> name], Theorem 4.4 differences + interval ratio)";
  let entities = if quick then 24 else 120 in
  let max_dups = 3 in
  let udb = Gen.dirty_db (Rng.create ~seed:4242) ~entities ~max_dups in
  let w = Udb.wtable udb in
  let u = Udb.find udb "people" in
  let sets = Array.of_list (List.map snd (Urelation.clauses_by_tuple u)) in
  let n = Array.length sets in
  let compiled =
    Condition.compile udb
      (Cset.of_list
         [
           Uconstraint.Fd
             { table = "people"; key = [ "id" ]; determined = [ "name" ] };
         ])
  in
  (* Cold: cache pays compilation.  Warm: every entry present, the loop is
     pure Compile.solve — the serve daemon's steady state. *)
  let cold f =
    let cache = Memo.create ~entries:1024 () in
    Report.timed (fun () -> f cache) |> snd
  in
  let warm f =
    let cache = Memo.create ~entries:1024 () in
    f cache;
    Report.time_median (fun () -> f cache)
  in
  let plain_cold = cold (fun c -> unconditioned_pass w sets c 42) in
  let plain_warm = warm (fun c -> unconditioned_pass w sets c 42) in
  let cond_cold = cold (fun c -> conditioned_pass w sets compiled c 42) in
  let cond_warm = warm (fun c -> conditioned_pass w sets compiled c 42) in
  (* Exactness and spend, via the user-facing entry point. *)
  let estimates =
    Condition.approx_confidences ~seed:42 ~eps ~delta udb compiled
      (Ua.table "people")
  in
  let exact_count =
    List.length
      (List.filter
         (fun (_, (e : Compile.outcome)) -> e.claim = Guarantee.Exact)
         estimates)
  in
  let trials =
    List.fold_left
      (fun acc (_, (e : Compile.outcome)) -> acc + e.trials)
      0 estimates
  in
  let exact_fraction = float_of_int exact_count /. float_of_int n in
  Report.table
    ~header:
      [
        Printf.sprintf "people: %d tuples, %d entities" n entities;
        "cold";
        "warm";
        "warm overhead";
      ]
    [
      [
        "unconditioned conf";
        Report.fmt_seconds plain_cold;
        Report.fmt_seconds plain_warm;
        "1.00x";
      ];
      [
        "conditioned on fd[id -> name]";
        Report.fmt_seconds cond_cold;
        Report.fmt_seconds cond_warm;
        Printf.sprintf "%.2fx" (cond_warm /. plain_warm);
      ];
    ];
  Report.note
    "exact on %d/%d conditioned tuples (%.0f%%), %d sampling trials total"
    exact_count n (100. *. exact_fraction) trials;
  let oc = open_out "BENCH_conditioning.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"pqdb-bench-conditioning/v1\",\n\
    \  \"fixture\": { \"relation\": \"people\", \"entities\": %d, \
     \"max_dups\": %d, \"tuples\": %d,\n\
    \                \"constraint\": \"fd[id -> name](people)\" },\n\
    \  \"eps\": %g, \"delta\": %g,\n\
    \  \"unconditioned_s\": { \"cold\": %.6e, \"warm\": %.6e },\n\
    \  \"conditioned_s\": { \"cold\": %.6e, \"warm\": %.6e },\n\
    \  \"warm_overhead_x\": %.4f,\n\
    \  \"exact_fraction\": %.4f,\n\
    \  \"sampling_trials\": %d\n\
     }\n"
    entities max_dups n eps delta plain_cold plain_warm cond_cold cond_warm
    (cond_warm /. plain_warm) exact_fraction trials;
  close_out oc;
  Report.note "wrote BENCH_conditioning.json"
