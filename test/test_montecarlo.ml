(* Tests for the Karp-Luby FPRAS (Section 4): estimator unbiasedness, the
   (ε, δ) guarantee, degenerate cases and incremental estimator state. *)

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
module Q = Rational
module Gen = Pqdb_workload.Gen

(* What a claim states about a request at (ε, δ): its relative ε and
   whether it met the request. *)
let achieved = Guarantee.eps

let complete ~eps ~delta claim =
  Guarantee.meets claim (Guarantee.pass ~eps ~delta)

(* Force a few resident pool workers so the parallel path is exercised even
   on single-core CI machines (where the pool would otherwise stay inline).
   Must run before the first [Pool.run]. *)
let () = Unix.putenv "PQDB_POOL_WORKERS" "3"

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* A fixed mid-size DNF with known structure: three Bernoulli variables,
   clauses {x=1}, {y=1, z=0}, {x=0, z=1}. *)
let fixture () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 3 10; Q.of_ints 7 10 ] in
  let y = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let z = Wtable.add_var w [ Q.of_ints 4 5; Q.of_ints 1 5 ] in
  let clauses =
    [
      Assignment.singleton x 1;
      Assignment.of_list [ (y, 1); (z, 0) ];
      Assignment.of_list [ (x, 0); (z, 1) ];
    ]
  in
  (w, clauses)

(* The fixed-budget FPRAS of Proposition 4.2: the Chernoff count of
   estimator calls, averaged. *)
let fpras rng dnf ~eps ~delta =
  let est = Estimator.create dnf in
  Estimator.batch rng est
    (Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps ~delta);
  Estimator.estimate est

(* The estimates of the whole batch run as one shard. *)
let batch_run ?nworkers ?compile_fuel rng w clause_sets ~eps ~delta =
  (Batch.whole ?nworkers ?compile_fuel rng w clause_sets ~eps ~delta)
    .Shard.estimates

(* The unbudgeted adaptive schedule as (estimate, trials). *)
let adaptive rng dnf ~eps ~delta =
  let p = Karp_luby.adaptive_partial rng dnf ~eps ~delta in
  (p.Karp_luby.p_estimate, p.Karp_luby.p_trials)

let test_dnf_structure () =
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  check int_c "|F| = 3" 3 (Dnf.clause_count dnf);
  check bool_c "not trivial" false
    (Dnf.is_trivially_false dnf || Dnf.is_trivially_true dnf);
  (* M = 0.7 + 0.5*0.8 + 0.3*0.2 = 1.16 *)
  check (Alcotest.float 1e-9) "M" 1.16 (Dnf.total_weight dnf);
  check int_c "3 variables" 3 (Array.length (Dnf.packed dnf).vars)

let test_estimator_unbiased () =
  (* Mean of many estimator evaluations times M approximates p. *)
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let p = Q.to_float (Dnf.exact dnf) in
  let rng = Rng.create ~seed:99 in
  let trials = 60_000 in
  let sum = ref 0 in
  for _ = 1 to trials do
    sum := !sum + Dnf.sample_estimator rng dnf
  done;
  let estimate =
    float_of_int !sum *. Dnf.total_weight dnf /. float_of_int trials
  in
  check bool_c
    (Printf.sprintf "estimate %.4f near exact %.4f" estimate p)
    true
    (Float.abs (estimate -. p) < 0.01)

let test_exact_value () =
  (* P(x=1 or (y=1 and z=0) or (x=0 and z=1))
     = 1 - P(none): complementary via enumeration is checked in test_urel;
     here pin the known value.
     Worlds where none holds: x=0 and not(y=1,z=0) and not(z=1)
       => x=0, z=0, y=0 : 0.3*0.5*0.8 = 0.12
     p = 1 - 0.12 = 0.88. *)
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  check (Alcotest.float 1e-9) "exact p" 0.88 (Q.to_float (Dnf.exact dnf))

let test_fpras_guarantee () =
  (* Empirical failure frequency of the (ε, δ) scheme stays ≤ δ (with slack
     for randomness: binomial with 400 runs). *)
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let p = Q.to_float (Dnf.exact dnf) in
  let eps = 0.08 and delta = 0.1 in
  let rng = Rng.create ~seed:7 in
  let runs = 400 in
  let tally = Stats.tally () in
  for _ = 1 to runs do
    let p_hat = fpras rng dnf ~eps ~delta in
    Stats.record tally (Float.abs (p_hat -. p) < eps *. p)
  done;
  let rate = Stats.error_rate tally in
  check bool_c
    (Printf.sprintf "failure rate %.3f <= delta %.3f (+slack)" rate delta)
    true
    (rate <= delta +. 0.05)

let test_trials_formula () =
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let m =
    Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps:0.1 ~delta:0.05
  in
  (* m = ceil(3 * 3 * ln(40) / 0.01) = ceil(900 * 3.68888) = 3320 *)
  check int_c "m formula" 3320 m

let test_degenerate_dnfs () =
  let w = Wtable.create () in
  let rng = Rng.create ~seed:1 in
  let empty = Dnf.prepare w [] in
  check bool_c "empty is false" true (Dnf.is_trivially_false empty);
  check (Alcotest.float 0.) "p = 0" 0. (fpras rng empty ~eps:0.1 ~delta:0.1);
  let certain = Dnf.prepare w [ Assignment.empty ] in
  check bool_c "empty clause is true" true (Dnf.is_trivially_true certain);
  check (Alcotest.float 0.) "p = 1" 1.
    (fpras rng certain ~eps:0.1 ~delta:0.1);
  check int_c "no trials needed" 0
    (Estimator.trials_to_reach (Estimator.create certain) ~eps:0.1 ~delta:0.1)

let test_estimator_state () =
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let est = Estimator.create dnf in
  let rng = Rng.create ~seed:5 in
  check int_c "starts empty" 0 (Estimator.trials est);
  check (Alcotest.float 0.) "delta bound 1 before trials" 1.
    (Estimator.delta_bound est ~eps:0.2);
  Estimator.step_round rng est;
  check int_c "one round = |F| trials" 3 (Estimator.trials est);
  let d1 = Estimator.delta_bound est ~eps:0.2 in
  Estimator.batch rng est 300;
  let d2 = Estimator.delta_bound est ~eps:0.2 in
  check bool_c "bound decreases with trials" true (d2 < d1);
  let missing = Estimator.trials_to_reach est ~eps:0.2 ~delta:0.05 in
  Estimator.batch rng est missing;
  check bool_c "target met after top-up" true
    (Estimator.delta_bound est ~eps:0.2 <= 0.05 +. 1e-12)

(* A negative batch is refused before it can lower the trial count: 10
   trials then [-7] used to leave 3 trials and an estimate above 1. *)
let test_estimator_negative_batch () =
  let w, clauses = fixture () in
  let est = Estimator.create (Dnf.prepare w clauses) in
  let rng = Rng.create ~seed:5 in
  Estimator.batch rng est 10;
  let estimate = Estimator.estimate est in
  Alcotest.check_raises "negative batch rejected"
    (Invalid_argument "Estimator.batch: negative trial count") (fun () ->
      Estimator.batch rng est (-7));
  check int_c "trial count unchanged" 10 (Estimator.trials est);
  check (Alcotest.float 0.) "estimate unchanged" estimate
    (Estimator.estimate est);
  Estimator.batch rng est 0;
  check int_c "an empty batch adds nothing" 10 (Estimator.trials est)

let test_estimator_convergence () =
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let p = Q.to_float (Dnf.exact dnf) in
  let est = Estimator.create dnf in
  let rng = Rng.create ~seed:11 in
  Estimator.batch rng est 50_000;
  check bool_c "estimate near p" true
    (Float.abs (Estimator.estimate est -. p) < 0.02)

(* Property: on random DNFs the FPRAS lands within 3ε of exact at least 90%
   of the time with δ = 0.05 (loose statistical smoke test). *)
let prop_fpras_tracks_exact =
  QCheck.Test.make ~name:"fpras tracks exact confidence" ~count:25
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let vars =
        Array.init 4 (fun _ ->
            let num = 1 + Rng.int rng 9 in
            Wtable.add_var w [ Q.of_ints num 10; Q.of_ints (10 - num) 10 ])
      in
      let clause () =
        let v = vars.(Rng.int rng 4) in
        Assignment.singleton v (Rng.int rng 2)
      in
      let clauses = List.init (1 + Rng.int rng 3) (fun _ -> clause ()) in
      let dnf = Dnf.prepare w clauses in
      let p = Q.to_float (Dnf.exact dnf) in
      let p_hat = fpras rng dnf ~eps:0.1 ~delta:0.05 in
      Float.abs (p_hat -. p) <= 0.3 *. p +. 1e-9)

(* ------------------------------------------------------------------ *)
(* More estimator / DNF behaviours                                     *)
(* ------------------------------------------------------------------ *)

let test_sample_empty_dnf_raises () =
  let w = Wtable.create () in
  let dnf = Dnf.prepare w [] in
  let rng = Rng.create ~seed:2 in
  Alcotest.check_raises "empty DNF"
    (Invalid_argument "Dnf.sample_estimator: empty DNF") (fun () ->
      ignore (Dnf.sample_estimator rng dnf))

let test_dnf_variable_dedup () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let dnf =
    Dnf.prepare w [ Assignment.singleton x 0; Assignment.singleton x 1 ]
  in
  check int_c "one variable across clauses" 1 (Array.length (Dnf.packed dnf).vars)

(* Definition 4.1 transcribed over a variable -> slot hash table and
   [Assignment] lookups: the oracle the flat kernel must match draw for
   draw. *)
module Oracle = struct
  type t = {
    clauses : Assignment.t array;
    dist : Rng.Alias.dist;
    vars : int array;
    var_alias : Rng.Alias.dist array;
    slot_of_var : (int, int) Hashtbl.t;
  }

  let prepare w clause_list =
    let clauses = Array.of_list clause_list in
    let weights = Array.map (Assignment.weight_float w) clauses in
    let vars =
      Array.of_list
        (List.sort_uniq compare (List.concat_map Assignment.vars clause_list))
    in
    let slot_of_var = Hashtbl.create (Array.length vars) in
    Array.iteri (fun i v -> Hashtbl.replace slot_of_var v i) vars;
    {
      clauses;
      dist = Rng.Alias.of_weights weights;
      vars;
      var_alias = Array.map (Wtable.alias w) vars;
      slot_of_var;
    }

  let sample rng t =
    let i = Rng.Alias.sample rng t.dist in
    let f = t.clauses.(i) in
    let total = Array.make (Array.length t.vars) 0 in
    Array.iteri
      (fun slot v ->
        match Assignment.value f v with
        | Some x -> total.(slot) <- x
        | None -> total.(slot) <- Rng.Alias.sample rng t.var_alias.(slot))
      t.vars;
    let lookup v = total.(Hashtbl.find t.slot_of_var v) in
    let rec smallest j =
      if j >= i then true
      else if Assignment.extended_by lookup t.clauses.(j) then false
      else smallest (j + 1)
    in
    if smallest 0 then 1 else 0
end

(* One generated DNF of a given shape (case mod 6): general, a single
   clause, duplicate clauses, an empty clause among others, clauses over
   pairwise disjoint variables, and long clauses.  Variables have 2-4
   values, and unused variables are interleaved so ids are not
   contiguous. *)
let kernel_case rng case =
  let w = Wtable.create () in
  let nvars = 1 + Rng.int rng 7 in
  let ids =
    Array.init nvars (fun _ ->
        if Rng.bool rng then ignore (Wtable.add_var w [ Q.half; Q.half ]);
        let nums = List.init (2 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 9) in
        let den = List.fold_left ( + ) 0 nums in
        Wtable.add_var w (List.map (fun n -> Q.of_ints n den) nums))
  in
  let clause_over vars len =
    let chosen = ref [] in
    for _ = 1 to len do
      let v = vars.(Rng.int rng (Array.length vars)) in
      if not (List.mem_assoc v !chosen) then
        chosen := (v, Rng.int rng (Wtable.domain_size w v)) :: !chosen
    done;
    Assignment.of_list !chosen
  in
  let random_clauses ~len =
    List.init (2 + Rng.int rng 6) (fun _ -> clause_over ids (1 + Rng.int rng len))
  in
  let clauses =
    match case mod 6 with
    | 0 -> random_clauses ~len:3
    | 1 -> [ clause_over ids (1 + Rng.int rng 3) ]
    | 2 ->
        let cs = random_clauses ~len:3 in
        cs @ List.filteri (fun i _ -> i mod 2 = 0) cs
    | 3 ->
        let cs = random_clauses ~len:3 in
        let at = Rng.int rng (List.length cs + 1) in
        List.filteri (fun i _ -> i < at) cs
        @ (Assignment.empty :: List.filteri (fun i _ -> i >= at) cs)
    | 4 ->
        List.init nvars (fun i ->
            Assignment.singleton ids.(i) (Rng.int rng (Wtable.domain_size w ids.(i))))
    | _ -> random_clauses ~len:nvars
  in
  (w, clauses)

let test_kernel_matches_oracle () =
  let gen = Rng.create ~seed:415 in
  for case = 0 to 299 do
    let w, clauses = kernel_case gen case in
    let dnf = Dnf.prepare w clauses and oracle = Oracle.prepare w clauses in
    let seed = Rng.int gen 1_000_000 in
    let r_kernel = Rng.create ~seed and r_oracle = Rng.create ~seed in
    let r_pass = Rng.create ~seed in
    let kernel = List.init 200 (fun _ -> Dnf.sample_estimator r_kernel dnf) in
    let expected = List.init 200 (fun _ -> Oracle.sample r_oracle oracle) in
    (* One scratch world reused by a whole pass, as the estimator loops do. *)
    let world = Dnf.scratch dnf in
    let pass = List.init 200 (fun _ -> Dnf.trial r_pass dnf world) in
    check (Alcotest.list int_c)
      (Printf.sprintf "case %d: trial sequence" case)
      expected kernel;
    check (Alcotest.list int_c)
      (Printf.sprintf "case %d: trial sequence on one scratch world" case)
      expected pass;
    (* The same draws consumed: the streams continue identically. *)
    let next r = List.init 4 (fun _ -> Rng.int r (1 lsl 30 - 1)) in
    let after = next r_oracle in
    check (Alcotest.list int_c)
      (Printf.sprintf "case %d: RNG state after the trials" case)
      after (next r_kernel);
    check (Alcotest.list int_c)
      (Printf.sprintf "case %d: RNG state after the pass" case)
      after (next r_pass)
  done

let test_single_clause_estimator_is_exact () =
  (* With one clause, the estimator always fires, so p-hat = M = p_f
     exactly after any number of trials. *)
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 3 10; Q.of_ints 7 10 ] in
  let dnf = Dnf.prepare w [ Assignment.singleton x 1 ] in
  let est = Estimator.create dnf in
  Estimator.batch (Rng.create ~seed:3) est 5;
  check (Alcotest.float 1e-12) "exact after 5 trials" 0.7
    (Estimator.estimate est)

let test_disjoint_clauses_value () =
  (* Disjoint-variable clauses: p = 1 - (1-p1)(1-p2). *)
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 4 5; Q.of_ints 1 5 ] in
  let y = Wtable.add_var w [ Q.of_ints 2 5; Q.of_ints 3 5 ] in
  let dnf =
    Dnf.prepare w [ Assignment.singleton x 1; Assignment.singleton y 1 ]
  in
  check (Alcotest.float 1e-12) "exact" (1. -. (0.8 *. 0.4))
    (Q.to_float (Dnf.exact dnf));
  let rng = Rng.create ~seed:4 in
  let est = Estimator.create dnf in
  Estimator.batch rng est 40_000;
  check bool_c "estimator converges" true
    (Float.abs (Estimator.estimate est -. 0.68) < 0.02)

let test_estimator_degenerate_values () =
  let w = Wtable.create () in
  let certain = Estimator.create (Dnf.prepare w [ Assignment.empty ]) in
  let impossible = Estimator.create (Dnf.prepare w []) in
  check bool_c "both degenerate" true
    (Estimator.is_degenerate certain && Estimator.is_degenerate impossible);
  check (Alcotest.float 0.) "certain = 1" 1. (Estimator.estimate certain);
  check (Alcotest.float 0.) "impossible = 0" 0. (Estimator.estimate impossible);
  check int_c "no trials needed" 0
    (Estimator.trials_to_reach certain ~eps:0.1 ~delta:0.1);
  let rng = Rng.create ~seed:5 in
  Estimator.batch rng certain 100;
  check int_c "batches are no-ops" 0 (Estimator.trials certain)

let prop_estimate_within_bound_often =
  (* The Chernoff bound at the achieved trial count holds empirically. *)
  QCheck.Test.make ~name:"delta_bound is a valid failure bound" ~count:20
    (QCheck.int_range 0 1000) (fun seed ->
      let rng = Rng.create ~seed in
      let w, clauses = fixture () in
      let dnf = Dnf.prepare w clauses in
      let p = Q.to_float (Dnf.exact dnf) in
      let eps = 0.15 in
      let failures = ref 0 and runs = 30 in
      for _ = 1 to runs do
        let est = Estimator.create dnf in
        Estimator.batch rng est 2000;
        if Float.abs (Estimator.estimate est -. p) >= eps *. p then
          incr failures
      done;
      let bound =
        Stats.karp_luby_delta ~trials:2000 ~clauses:(Dnf.clause_count dnf)
          ~eps
      in
      float_of_int !failures /. float_of_int runs <= bound +. 0.15)

(* ------------------------------------------------------------------ *)
(* The batched confidence engine                                        *)
(* ------------------------------------------------------------------ *)

let test_batch_deterministic_across_pool_sizes () =
  (* The batch engine's stronger contract: estimates depend on the parent
     RNG state only — not on the pool size, not on scheduling. *)
  let w, clause_sets = Batch.fixture () in
  let run nworkers =
    batch_run ~nworkers (Rng.create ~seed:61) w clause_sets ~eps:0.1
      ~delta:0.1
  in
  let reference = run 1 in
  List.iter
    (fun nworkers ->
      let got = run nworkers in
      Array.iteri
        (fun i v ->
          check (Alcotest.float 0.)
            (Printf.sprintf "tuple %d identical with %d workers" i nworkers)
            reference.(i) v)
        got)
    [ 1; 2; 4 ]

let test_batch_matches_exact () =
  let w, clause_sets = Batch.fixture () in
  let exact =
    Array.map
      (fun clauses -> Q.to_float (Lineage.exact w clauses))
      clause_sets
  in
  let estimates =
    batch_run ~nworkers:2 (Rng.create ~seed:71) w clause_sets ~eps:0.05
      ~delta:0.05
  in
  check int_c "one estimate per clause set" (Array.length clause_sets)
    (Array.length estimates);
  check (Alcotest.float 0.) "certain tuple exact" 1. estimates.(2);
  check (Alcotest.float 0.) "impossible tuple exact" 0. estimates.(3);
  Array.iteri
    (fun i p ->
      check bool_c
        (Printf.sprintf "tuple %d: %.4f near %.4f" i estimates.(i) p)
        true
        (Float.abs (estimates.(i) -. p) <= 0.05 *. p +. 1e-9))
    exact

let test_batch_trials_accounting () =
  let w, clause_sets = Batch.fixture () in
  let batch = Confidence.prepare w clause_sets in
  let expected =
    Array.fold_left
      (fun acc clauses ->
        acc
        + Estimator.trials_to_reach
            (Estimator.create (Dnf.prepare w clauses))
            ~eps:0.1 ~delta:0.1)
      0 clause_sets
  in
  check int_c "total_trials sums per-tuple budgets" expected
    (Confidence.total_trials batch ~eps:0.1 ~delta:0.1);
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Confidence.open_run: eps and delta must be positive")
    (fun () ->
      ignore (batch_run (Rng.create ~seed:1) w clause_sets ~eps:0. ~delta:0.1));
  check int_c "empty batch"
    0
    (Array.length (batch_run (Rng.create ~seed:1) w [||] ~eps:0.1 ~delta:0.1))

(* ------------------------------------------------------------------ *)
(* Lineage compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* [Lineage.decompose] of a clause list, packed and normalized once. *)
let decompose ?fuel ops w clauses =
  Lineage.decompose ?fuel ops w (Lineage.of_clauses clauses)

(* Residual [r] of [dag] as clauses, in its packed order. *)
let residual (dag : _ Lineage.dag) r =
  Lineage.to_clauses
    { (dag.Lineage.clauses :> Lineage.packed) with clauses = dag.residuals.(r) }

(* The float DAG [Compile.compile ~fuel] builds, for inspection. *)
let float_dag ~fuel w clauses =
  decompose ~fuel
    { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
      complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }
    w clauses

(* The float DAG evaluated with every residual at its exact probability,
   in the order [Compile] evaluates it. *)
let dag_at_exact_residuals w (dag : float Lineage.dag) =
  let nodes = dag.Lineage.nodes in
  let v = Array.make (Array.length nodes) 0. in
  Array.iteri
    (fun i node ->
      v.(i) <-
        (match node with
        | Lineage.Const p -> p
        | Res r -> Q.to_float (Lineage.exact w (residual dag r))
        | Sum bs -> Array.fold_left (fun acc (p, c) -> acc +. (p *. v.(c))) 0. bs
        | IndepOr cs ->
            1. -. Array.fold_left (fun acc c -> acc *. (1. -. v.(c))) 1. cs))
    nodes;
  v.(Array.length nodes - 1)

let test_compile_fixture_exact () =
  (* The three-clause fixture decomposes completely: Shannon on x, then
     trivial branches.  No residuals, exact value 0.88. *)
  let w, clauses = fixture () in
  let c = Compile.compile w clauses in
  check bool_c "exact" true (Compile.is_exact c);
  check int_c "one constant node" 1 (Compile.size c);
  (match Compile.exact_value c with
  | Some p -> check (Alcotest.float 1e-9) "p = 0.88" 0.88 p
  | None -> Alcotest.fail "expected exact value");
  (* solve on an exact tree spends nothing. *)
  let o = Compile.solve (Rng.create ~seed:5) c ~eps:0.1 ~delta:0.1 in
  check int_c "0 trials" 0 o.Compile.trials;
  check bool_c "an exact claim" true (o.Compile.claim = Guarantee.Exact);
  check (Alcotest.float 1e-9) "solve = exact" 0.88 o.Compile.value;
  check (Alcotest.float 0.) "no residual mass" 0. o.Compile.residual_mass

let test_compile_trivial_and_normalization () =
  let w, _ = fixture () in
  check (Alcotest.option (Alcotest.float 0.)) "empty DNF = 0" (Some 0.)
    (Compile.exact_value (Compile.compile w []));
  check (Alcotest.option (Alcotest.float 0.)) "empty clause = 1" (Some 1.)
    (Compile.exact_value (Compile.compile w [ Assignment.empty ]));
  (* Subsumption: {x=1} absorbs {x=1, y=1}; dedup absorbs the copy. *)
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let y = Wtable.add_var w [ Q.half; Q.half ] in
  let c =
    Compile.compile w
      [
        Assignment.singleton x 1;
        Assignment.of_list [ (x, 1); (y, 1) ];
        Assignment.singleton x 1;
      ]
  in
  check (Alcotest.option (Alcotest.float 1e-12)) "normalized to {x=1}"
    (Some 0.5) (Compile.exact_value c)

let test_compile_independent_components () =
  (* Disjoint singletons combine by the product rule, no sampling. *)
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  let y = Wtable.add_var w [ Q.of_ints 1 4; Q.of_ints 3 4 ] in
  let c =
    Compile.compile w [ Assignment.singleton x 1; Assignment.singleton y 1 ]
  in
  check bool_c "exact" true (Compile.is_exact c);
  check (Alcotest.option (Alcotest.float 1e-12)) "1 - (1/2)(1/4) = 7/8"
    (Some 0.875) (Compile.exact_value c)

let test_compile_fuel_zero_is_residual () =
  (* fuel = 0 turns any multi-clause set into one residual leaf: the
     pure-FPRAS baseline. *)
  let w, clauses = fixture () in
  let c = Compile.compile ~fuel:0 w clauses in
  check bool_c "not exact" false (Compile.is_exact c);
  (match float_dag ~fuel:0 w clauses with
  | { Lineage.nodes = [| Lineage.Res 0 |]; residuals = [| r |]; _ } ->
      check int_c "residual keeps all clauses" 3 (Array.length r)
  | _ -> Alcotest.fail "expected the root to be the one residual");
  check int_c "the whole DNF is sampled" 3
    (Dnf.clause_count (Option.get (Compile.sampled_dnf c)));
  let o = Compile.solve (Rng.create ~seed:5) c ~eps:0.1 ~delta:0.05 in
  check bool_c "one complete pass claims (eps, 2 delta)" true
    (o.Compile.trials > 0
    && o.Compile.claim = Guarantee.Sampled { eps = 0.1; delta = 0.1 });
  (* Single clauses stay exact even without fuel. *)
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  check bool_c "single clause exact at fuel 0" true
    (Compile.is_exact (Compile.compile ~fuel:0 w [ Assignment.singleton x 1 ]))

let test_compile_solve_accuracy () =
  (* The sampling path still lands inside the (eps, delta) band on the
     fixture when compilation is disabled. *)
  let w, clauses = fixture () in
  let c = Compile.compile ~fuel:0 w clauses in
  let o = Compile.solve (Rng.create ~seed:11) c ~eps:0.05 ~delta:0.01 in
  check bool_c
    (Printf.sprintf "estimate %.4f near 0.88" o.Compile.value)
    true
    (Float.abs (o.Compile.value -. 0.88) <= 0.05 *. 0.88);
  check bool_c "spent trials" true (o.Compile.trials > 0);
  check bool_c "residual mass covers the estimate" true
    (Float.abs (o.Compile.residual_mass -. o.Compile.value) <= 1e-9)

let prop_compile_matches_exact =
  QCheck.Test.make ~name:"compiled confidence = exact solver" ~count:120
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let clauses =
        Gen.random_dnf rng w ~vars:8 ~clauses:6 ~clause_len:3
      in
      let c = Compile.compile ~fuel:1_000_000 w clauses in
      if not (Compile.is_exact c) then false
      else
        let got = Option.get (Compile.exact_value c) in
        let expect = Q.to_float (Lineage.exact w clauses) in
        Float.abs (got -. expect) <= 1e-6)

let prop_compile_residual_path_tracks_exact =
  (* Even at tiny fuel the solve must stay within the requested relative
     band (generously slacked: one qcheck failure would need the sampler to
     leave a 3-sigma-equivalent bound). *)
  QCheck.Test.make ~name:"residual path tracks exact" ~count:40
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create ~seed in
      let w = Wtable.create () in
      let clauses =
        Gen.random_dnf rng w ~vars:10 ~clauses:8 ~clause_len:3
      in
      let expect = Q.to_float (Lineage.exact w clauses) in
      let c = Compile.compile ~fuel:8 w clauses in
      let o =
        Compile.solve (Rng.create ~seed:(seed + 1)) c ~eps:0.1 ~delta:0.01
      in
      Float.abs (o.Compile.value -. expect) <= (0.2 *. expect) +. 1e-9)

let prop_weight_aware_budgets_sound =
  (* Across random DNFs and fuels — including fuel levels that leave
     several residuals, whose bracket the sampled interval is cut to — the
     certified interval brackets the exact probability and a complete
     outcome keeps the relative-ε contract.
     Fixed seeds keep the run deterministic; per-case failure probability
     is δ = 0.01, so a failure here is a 3-sigma-equivalent event. *)
  QCheck.Test.make ~name:"weight-aware residual budgets stay sound" ~count:60
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create ~seed:(seed + 17) in
      let w = Wtable.create () in
      let clauses =
        Gen.random_dnf rng w ~vars:10 ~clauses:8 ~clause_len:3
      in
      let expect = Q.to_float (Lineage.exact w clauses) in
      let fuel = [| 0; 4; 8; 16; 64 |].(seed mod 5) in
      let eps = [| 0.3; 0.1; 0.05 |].(seed mod 3) in
      let c = Compile.compile ~fuel w clauses in
      let o =
        Compile.solve (Rng.create ~seed:(seed + 1)) c ~eps ~delta:0.01
      in
      let bracketed = o.Compile.lo -. 1e-9 <= expect && expect <= o.Compile.hi +. 1e-9 in
      let relative_ok =
        (not (complete ~eps ~delta:0.01 o.Compile.claim))
        || Float.abs (o.Compile.value -. expect) <= (eps *. expect) +. 1e-9
      in
      let interval_sane =
        o.Compile.lo <= o.Compile.value && o.Compile.value <= o.Compile.hi
      in
      bracketed && relative_ok && interval_sane)

(* A value samples its whole normalized DNF even when the DAG has folded
   part of it.  Here the root is IndepOr [Const c; Res 0]: the first
   component {x=1,y=1} ∨ {x=0,z=1} ∨ {y=1,z=1} spends the single unit of
   fuel on a Shannon step on x and folds to a constant, the second (an
   8-cycle) is reached with no fuel left.  [solve] samples all 11 clauses,
   not the 8-clause residual, so its outcome rests entirely on sampling
   (residual_mass = value), inside the compiled bracket. *)
let test_fallback_past_constant_sibling () =
  let w = Wtable.create () in
  let bern () = Wtable.add_var w [ Q.of_ints 2 5; Q.of_ints 3 5 ] in
  let x = bern () and y = bern () and z = bern () in
  let ring = Array.init 8 (fun _ -> bern ()) in
  let clauses =
    [
      Assignment.of_list [ (x, 1); (y, 1) ];
      Assignment.of_list [ (x, 0); (z, 1) ];
      Assignment.of_list [ (y, 1); (z, 1) ];
    ]
    @ List.init 8 (fun i ->
          Assignment.of_list [ (ring.(i), 1); (ring.((i + 1) mod 8), 1) ])
  in
  (match float_dag ~fuel:1 w clauses with
  | { Lineage.nodes; residuals = [| r |]; _ } ->
      check int_c "the residual is the 8-cycle" 8 (Array.length r);
      check bool_c "the root is not the residual" true
        (nodes.(Array.length nodes - 1) <> Lineage.Res 0)
  | _ -> Alcotest.fail "expected one residual");
  let c = Compile.compile ~fuel:1 w clauses in
  check int_c "the whole DNF is sampled" 11
    (Dnf.clause_count (Option.get (Compile.sampled_dnf c)));
  let eps = 0.1 and delta = 0.5 in
  let o = Compile.solve (Rng.create ~seed:3) c ~eps ~delta in
  let expect = Q.to_float (Lineage.exact w clauses) in
  check bool_c "sampled" true (o.Compile.trials > 0);
  check (Alcotest.float 0.) "the value rests on sampling"
    o.Compile.value o.Compile.residual_mass;
  let lo, hi = Compile.vacuous_interval c in
  check bool_c "inside the compiled bracket" true
    (lo <= o.Compile.lo && o.Compile.hi <= hi);
  check bool_c "bracket holds the exact value" true
    (o.Compile.lo <= expect && expect <= o.Compile.hi)

(* Random DNFs over variables of 2-4 values with uneven rational weights —
   the multi-valued counterpart of [Gen.random_dnf]. *)
let multi_dnf rng w ~vars ~clauses =
  let ids =
    Array.init vars (fun _ ->
        let nums = List.init (2 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 9) in
        let den = List.fold_left ( + ) 0 nums in
        Wtable.add_var w (List.map (fun n -> Q.of_ints n den) nums))
  in
  List.init clauses (fun _ ->
      let chosen = ref [] in
      for _ = 1 to 1 + Rng.int rng 3 do
        let v = ids.(Rng.int rng vars) in
        if not (List.mem_assoc v !chosen) then
          chosen := (v, Rng.int rng (Wtable.domain_size w v)) :: !chosen
      done;
      Assignment.of_list !chosen)

(* The rounding lemma of compile.mli, restated: (D + 4)·(2V − 1)·2⁻⁵² over
   the normalized DNF's V variables of at most D values. *)
let rounding_bound w clauses =
  let vars =
    List.sort_uniq Int.compare
      (List.concat_map Assignment.vars (Lineage.normalize clauses))
  in
  let d = List.fold_left (fun m v -> max m (Wtable.domain_size w v)) 1 vars in
  let k = (d + 4) * ((2 * List.length vars) - 1) in
  Q.(of_int k * of_float 0x1p-52)

(* On DAGs that compile exactly the float value is nothing but the
   decomposer's constant folding, so it must lie within the lemma's bound
   of the rational truth. *)
let test_rounding_lemma_on_exact_dags () =
  let gen = Rng.create ~seed:2608 in
  let checked = ref 0 in
  for case = 0 to 59 do
    let w = Wtable.create () in
    let clauses =
      if case mod 2 = 0 then Gen.random_dnf gen w ~vars:14 ~clauses:14 ~clause_len:3
      else multi_dnf gen w ~vars:10 ~clauses:14
    in
    match Compile.exact_value (Compile.compile ~fuel:max_int w clauses) with
    | Some p when List.length (Lineage.normalize clauses) > 1 ->
        incr checked;
        let err = Q.(abs (of_float p - Lineage.exact w clauses)) in
        check bool_c
          (Printf.sprintf "case %d: float error %g within the lemma's %g" case
             (Q.to_float err) (Q.to_float (rounding_bound w clauses)))
          true
          Q.(err <= rounding_bound w clauses)
    | _ -> ()
  done;
  check bool_c "most cases are multi-clause" true (!checked >= 50)

(* Pairwise-disjoint clauses — each binds [x] to its own value — so the
   DNF's probability is exactly the clause-weight sum M: at fuel 0 the
   root is the residual, and the bracket's upper end min(1, M̂) is tight
   up to the rounding of M̂. *)
let disjoint_dnf rng w =
  let d = 3 + Rng.int rng 6 in
  let x =
    Wtable.add_var w (List.init d (fun i -> Q.of_ints ((2 * i) + 1) (d * d)))
  in
  let ys = Array.init 6 (fun _ -> Wtable.add_var w [ Q.of_ints 3 7; Q.of_ints 4 7 ]) in
  List.init (d - 1) (fun i ->
      Assignment.of_list
        ((x, i)
        :: List.filter_map
             (fun y -> if Rng.bool rng then Some (y, Rng.int rng 2) else None)
             (Array.to_list ys)))

exception Lane_forced

(* The zero-trial certificate, checked against the rational truth.  At low
   fuel every inexact DAG's bracket must contain [Lineage.exact] (also
   where its upper end is tight, see [disjoint_dnf]); a tuple
   whose bracket proves ε (recomputed here from the bracket) must answer
   without asking for its lane, with 0 trials, [complete], an estimate
   within relative ε of the truth, and the same answer under an exhausted
   budget; any other tuple must ask for its lane. *)
let test_bracket_certificate () =
  let certified = ref 0 and sampled = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      for case = 0 to 11 do
        let w = Wtable.create () in
        let clauses, fuel =
          match case mod 4 with
          | 2 -> (multi_dnf rng w ~vars:12 ~clauses:16, 8)
          | 3 -> (disjoint_dnf rng w, 0)
          | _ -> (Gen.random_dnf rng w ~vars:16 ~clauses:16 ~clause_len:3, 8)
        in
        let c = Compile.compile ~fuel w clauses in
        if not (Compile.is_exact c) then begin
          let what = Printf.sprintf "seed %d case %d" seed case in
          let exact = Lineage.exact w clauses in
          let lo, hi = Compile.vacuous_interval c in
          check bool_c (what ^ ": the widened bracket holds the truth") true
            Q.(of_float lo <= exact && exact <= of_float hi);
          List.iter
            (fun eps ->
              let what = Printf.sprintf "%s eps %g" what eps in
              let proves =
                lo > 0. && ((hi -. lo) /. (hi +. lo)) +. 0x1p-49 <= eps
              in
              let exhausted = Budget.create ~max_trials:1 () in
              Budget.spend exhausted 1;
              match
                ( Compile.solve_lane (fun () -> raise Lane_forced) c ~eps
                    ~delta:0.05,
                  Compile.solve_lane ~budget:exhausted
                    (fun () -> raise Lane_forced)
                    c ~eps ~delta:0.05 )
              with
              | o, o' ->
                  incr certified;
                  check bool_c (what ^ ": the bracket proves eps") true proves;
                  check int_c (what ^ ": no trials") 0 o.Compile.trials;
                  check bool_c (what ^ ": complete") true
                    (complete ~eps ~delta:0.05 o.Compile.claim);
                  check bool_c (what ^ ": the bracket is reported") true
                    (o.Compile.lo = lo && o.Compile.hi = hi);
                  check bool_c (what ^ ": certain, at most eps") true
                    (match o.Compile.claim with
                    | Guarantee.Certain e -> e <= eps
                    | _ -> false);
                  check bool_c (what ^ ": within relative eps of the truth")
                    true
                    Q.(
                      abs (of_float o.Compile.value - exact)
                      <= of_float eps * exact);
                  check bool_c (what ^ ": an exhausted budget changes nothing")
                    true (o = o')
              | exception Lane_forced ->
                  incr sampled;
                  check bool_c (what ^ ": the bracket does not prove eps") false
                    proves)
            [ 0.05; 0.1; 0.2 ]
        end
      done)
    [ 1; 2; 3; 4; 5; 6 ];
  check bool_c
    (Printf.sprintf "both paths exercised (%d certified, %d sampled)"
       !certified !sampled)
    true
    (!certified >= 10 && !sampled >= 10)

(* [Compile.cost_cap] is what a batch shard deals a trial cap by, so it
   must be 0 exactly for the values that answer without a trial (exact, or
   a bracket that certifies ε, the ones that never ask for their lane) and
   the one pass's Chernoff cap, never exceeded, for the rest. *)
let test_cost_cap_zero_iff_no_trial () =
  let free = ref 0 and sampling = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      for case = 0 to 11 do
        let w = Wtable.create () in
        let clauses, fuel =
          match case mod 4 with
          | 1 -> (Gen.random_dnf rng w ~vars:8 ~clauses:6 ~clause_len:3, 4096)
          | 2 -> (multi_dnf rng w ~vars:12 ~clauses:16, 8)
          | 3 -> (disjoint_dnf rng w, 0)
          | _ -> (Gen.random_dnf rng w ~vars:16 ~clauses:16 ~clause_len:3, 8)
        in
        let c = Compile.compile ~fuel w clauses in
        List.iter
          (fun eps ->
            let what = Printf.sprintf "seed %d case %d eps %g" seed case eps in
            let cap = Compile.cost_cap c ~eps ~delta:0.05 in
            match
              Compile.solve_lane (fun () -> raise Lane_forced) c ~eps
                ~delta:0.05
            with
            | _ ->
                incr free;
                check int_c (what ^ ": no trial, no cost") 0 cap
            | exception Lane_forced ->
                incr sampling;
                let clauses =
                  Dnf.clause_count (Option.get (Compile.sampled_dnf c))
                in
                check int_c (what ^ ": the pass's Chernoff cap")
                  (Stats.karp_luby_trials ~clauses ~eps ~delta:0.05)
                  cap;
                if eps >= 0.2 then
                  check bool_c (what ^ ": the pass spends at most its cap")
                    true
                    ((Compile.solve (Rng.create ~seed:case) c ~eps
                        ~delta:0.05)
                       .Compile.trials <= cap))
          [ 0.05; 0.1; 0.2 ]
      done)
    [ 1; 2; 3 ];
  check bool_c
    (Printf.sprintf "both kinds seen (%d free, %d sampling)" !free !sampling)
    true
    (!free >= 10 && !sampling >= 10)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Compilation is a function of the clause set: a shuffled list with
   duplicated clauses compiles to the same DAG, bit for bit, so solving it
   from the same RNG state spends the same trials on the same answer. *)
let test_compile_is_a_set_function () =
  for seed = 1 to 30 do
    let rng = Rng.create ~seed in
    let w = Wtable.create () in
    let clauses = Gen.random_dnf rng w ~vars:20 ~clauses:20 ~clause_len:3 in
    let variant =
      shuffle rng (clauses @ List.filteri (fun i _ -> i mod 3 = 0) clauses)
    in
    let fuel = [| Some 8; Some 64; None |].(seed mod 3) in
    let a = Compile.compile ?fuel w clauses
    and b = Compile.compile ?fuel w variant in
    let what = Printf.sprintf "seed %d" seed in
    check int_c (what ^ ": size") (Compile.size a) (Compile.size b);
    let bracket c =
      let lo, hi = Compile.vacuous_interval c in
      Printf.sprintf "%h %h" lo hi
    in
    check Alcotest.string (what ^ ": bracket") (bracket a) (bracket b);
    let solve c =
      let o = Compile.solve (Rng.create ~seed:(seed + 100)) c ~eps:0.1 ~delta:0.05 in
      Printf.sprintf "%h %h %h %d" o.Compile.value o.Compile.lo o.Compile.hi
        o.Compile.trials
    in
    check Alcotest.string (what ^ ": outcome bits") (solve a) (solve b)
  done

(* A chain of overlapping 2-clause blocks, [x_i = x_{i+1}] for i < n: the
   decomposition reaches the same sub-DNFs along many paths.  Counting the
   expanded decision tree — a [decompose] over (probability, tree nodes)
   pairs, where a cache hit brings its whole subtree's count — shows it
   growing exponentially, while fuel n² (which bounds distinct Shannon
   expansions) already compiles the DNF exactly and a quarter of that
   leaves a DAG of at most 2n distinct nodes. *)
let test_shared_chain_dag_is_polynomial () =
  let counting w =
    let pair f (p, a) (q, b) = (f p q, a +. b) in
    { Lineage.zero = (0., 1.); one = (1., 1.); add = pair ( +. );
      mul = pair ( *. );
      complement = (fun (p, n) -> (1. -. p, n));
      prob = (fun v x -> (Wtable.prob_float w v x, 0.)) }
  in
  List.iter
    (fun n ->
      let w = Wtable.create () in
      let xs =
        Array.init (n + 1) (fun i ->
            Wtable.add_var w [ Q.of_ints ((i mod 3) + 1) 5; Q.of_ints (4 - (i mod 3)) 5 ])
      in
      let clauses =
        List.concat
          (List.init n (fun i ->
               List.map
                 (fun b -> Assignment.of_list [ (xs.(i), b); (xs.(i + 1), b) ])
                 [ 0; 1 ]))
      in
      let expect = Q.to_float (Lineage.exact w clauses) in
      let close what got =
        if Float.abs (got -. expect) > 1e-12 *. expect then
          Alcotest.failf "n = %d, %s: %h, exact %h" n what got expect
      in
      let tree =
        match (decompose (counting w) w clauses).Lineage.nodes with
        | [| Lineage.Const (p, nodes) |] ->
            close "counting walk" p;
            nodes
        | _ -> Alcotest.fail "unbounded decomposition left a residual"
      in
      if tree < Float.pow 2. (float_of_int n /. 4.) then
        Alcotest.failf "n = %d: expanded tree of %.0f nodes is not exponential" n tree;
      let c = Compile.compile ~fuel:(n * n) w clauses in
      (match Compile.exact_value c with
      | Some p -> close "fuel n²" p
      | None -> Alcotest.failf "n = %d: fuel n² did not compile exactly" n);
      let c = Compile.compile ~fuel:(n * n / 4) w clauses in
      if Compile.size c > 2 * n then
        Alcotest.failf "n = %d: %d DAG nodes at fuel n²/4" n (Compile.size c);
      close "fuel n²/4 at exact residuals"
        (dag_at_exact_residuals w (float_dag ~fuel:(n * n / 4) w clauses)))
    [ 16; 32; 64; 128 ]

(* ------------------------------------------------------------------ *)
(* The decomposer kernel                                                *)
(* ------------------------------------------------------------------ *)

(* The oracle for conditioning: [set | v = x] built clause by clause, then
   normalized from scratch (sorted, deduplicated, subsumed clauses
   dropped).  Flat clauses are sorted arrays of packed literals
   [(v lsl bits) lor x]; polymorphic [compare] on int arrays is "shorter
   first, then lexicographic", the decomposer's clause order. *)
let normal_form_oracle clauses =
  let subset a b = Array.for_all (fun lit -> Array.mem lit b) a in
  let sorted = List.sort_uniq compare clauses in
  if List.mem [||] sorted then [| [||] |]
  else
    Array.of_list
      (List.filter
         (fun c -> not (List.exists (fun d -> d <> c && subset d c) sorted))
         sorted)

let condition_oracle ~bits set v x =
  normal_form_oracle
    (List.filter_map
       (fun c ->
         match List.partition (fun lit -> lit lsr bits = v) (Array.to_list c) with
         | [], _ -> Some c
         | [ lit ], rest when lit land ((1 lsl bits) - 1) = x ->
             Some (Array.of_list rest)
         | _ -> None)
       (Array.to_list set))

(* A random minimal flat set over up to five variables of 2–4 values each
   (values packed in 2 bits), and a binding [v = x] to condition it on.
   Biased towards the cases the incremental conditioning has to get right:
   a unit clause [v = x] (the result is [[|[||]|]]) and a clause
   [v = x] ∪ d for d a proper part of another clause (its shrunk form
   subsumes that untouched clause).  Two shrunk clauses never coincide: in
   a minimal set t₁ − (v = x) = t₂ − (v = x) forces t₁ = t₂. *)
let minimal_flat_case seed =
  let rng = Rng.create ~seed in
  let bits = 2 in
  let nv = 1 + Rng.int rng 5 in
  let dom = Array.init nv (fun _ -> 2 + Rng.int rng 3) in
  let v = Rng.int rng nv in
  let x = Rng.int rng dom.(v) in
  let pack u y = (u lsl bits) lor y in
  let clause () =
    let len = 1 + Rng.int rng (min 4 nv) in
    let vs = ref [] in
    while List.length !vs < len do
      let u = Rng.int rng nv in
      if not (List.mem u !vs) then vs := u :: !vs
    done;
    let lits = List.map (fun u -> pack u (Rng.int rng dom.(u))) !vs in
    Array.of_list (List.sort compare lits)
  in
  let raw = List.init (1 + Rng.int rng 9) (fun _ -> clause ()) in
  let with_v d =
    Array.of_list
      (List.sort compare (pack v x :: List.filter (fun lit -> lit lsr bits <> v) d))
  in
  let extra =
    List.concat
      [
        (if Rng.int rng 4 = 0 then [ [| pack v x |] ] else []);
        (match raw with
        | c :: _ when Array.length c >= 2 && Rng.bool rng ->
            [ with_v (Array.to_list (Array.sub c 1 (Array.length c - 1))) ]
        | _ -> []);
      ]
  in
  (bits, normal_form_oracle (raw @ extra), v, x)

let check_condition_case seed =
  let bits, set, v, x = minimal_flat_case seed in
  let got = Lineage.condition_flat ~bits set v x in
  if got <> condition_oracle ~bits set v x then
    Alcotest.failf "seed %d: [set | %d = %d] differs from the from-scratch normal form"
      seed v x;
  (set, v, got)

let prop_condition_matches_oracle =
  QCheck.Test.make ~name:"conditioning a minimal set = normalize from scratch"
    ~count:500 (QCheck.int_range 0 1_000_000) (fun seed ->
      ignore (check_condition_case seed);
      true)

(* Every binding of [a] is a binding of [b]: [b] is redundant next to [a]. *)
let subsumes a b =
  List.for_all (fun x -> List.mem x (Assignment.bindings b)) (Assignment.bindings a)

(* The Assignment-level normalization the packed normalizer replaced, kept
   as its reference: sort by [Assignment.compare], deduplicate, collapse on
   an empty clause, and drop subsumed clauses up to the 512-clause cap. *)
let reference_normalize = function
  | ([] | [ _ ]) as clauses -> clauses
  | clauses -> (
      match List.sort_uniq Assignment.compare clauses with
      | c :: _ when Assignment.is_empty c -> [ c ]
      | cs when List.length cs > 512 -> cs
      | cs ->
          List.filter
            (fun b ->
              not
                (List.exists
                   (fun a -> (not (Assignment.equal a b)) && subsumes a b)
                   cs))
            cs)

(* A [Gen] DNF with, now and then, duplicate, empty and subsumed clauses —
   a subsumed one binding a fresh variable to a wide value, so that keeping
   its variable or its width in the table would show — or above the cap. *)
let normalizer_case seed =
  let rng = Rng.create ~seed in
  let w = Wtable.create () in
  let n = if seed mod 10 = 0 then 520 + Rng.int rng 80 else 2 + Rng.int rng 14 in
  let base = Gen.random_dnf rng w ~vars:(4 + Rng.int rng 12) ~clauses:n ~clause_len:3 in
  let pick () = List.nth base (Rng.int rng (List.length base)) in
  let wide = Wtable.add_var w (List.init 40 (fun _ -> Q.of_ints 1 40)) in
  let extra =
    List.concat
      [ (if Rng.bool rng then [ pick (); pick () ] else []);
        (if Rng.int rng 6 = 0 then [ Assignment.empty ] else []);
        (if Rng.bool rng then
           match Assignment.union (pick ()) (Assignment.singleton wide 37) with
           | Some c -> [ c ]
           | None -> []
         else []) ]
  in
  (rng, base @ extra)

let marshal (l : Lineage.t) = Marshal.to_string l [ Marshal.No_sharing ]

let prop_normalize_matches_reference =
  QCheck.Test.make ~name:"packed normalization = Assignment-level reference"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng, clauses = normalizer_case seed in
      let canonical = marshal (Lineage.of_clauses clauses) in
      Lineage.normalize clauses = reference_normalize clauses
      && String.equal canonical (marshal (Lineage.of_clauses (shuffle rng clauses)))
      && String.equal canonical
           (marshal (Lineage.of_clauses (reference_normalize clauses))))

(* The same check over fixed seeds, counting that each case of the
   conditioning lemma occurs: the empty-clause collapse, an untouched clause
   dropped by a shrunk one, and a 3- or 4-valued pivot. *)
let test_condition_lemma_cases () =
  let emptied = ref 0 and dropped = ref 0 and wide = ref 0 in
  for seed = 0 to 1999 do
    let set, v, got = check_condition_case seed in
    let binds_v c = Array.exists (fun lit -> lit lsr 2 = v) c in
    if got = [| [||] |] then begin
      if set <> [| [||] |] then incr emptied
    end
    else if Array.exists (fun c -> not (binds_v c || Array.mem c got)) set then
      incr dropped;
    if Array.exists (Array.exists (fun lit -> lit lsr 2 = v && lit land 3 >= 2)) set
    then incr wide
  done;
  if !emptied = 0 || !dropped = 0 || !wide = 0 then
    Alcotest.failf "cases not covered: emptied %d, dropped %d, wide %d" !emptied
      !dropped !wide

(* Above the subsumption cap the root is only sorted and deduplicated, so a
   component may hold a redundant clause that is its only link: here
   {a = 1, b = 1} joins {a = 1} and {b = 1} beside 520 independent unit
   clauses.  Normalizing the component drops the link, and the two clauses
   left must be split again as independent components, not Shannon-expanded.
   Over an arithmetic that counts additions, a DAG without [Sum] folds to a
   constant that used none. *)
let test_renormalized_component_is_split () =
  let w = Wtable.create () in
  let half () = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let a = half () and b = half () in
  let zs = List.init 520 (fun _ -> half ()) in
  let clauses =
    Assignment.of_list [ (a, 1); (b, 1) ]
    :: Assignment.singleton a 1 :: Assignment.singleton b 1
    :: List.map (fun z -> Assignment.singleton z 1) zs
  in
  let counting =
    let pair f (p, m) (q, n) = (f p q, m + n) in
    { Lineage.zero = (0., 0); one = (1., 0);
      add = (fun (p, m) (q, n) -> (p +. q, m + n + 1));
      mul = pair ( *. );
      complement = (fun (p, n) -> (1. -. p, n));
      prob = (fun v x -> (Wtable.prob_float w v x, 0)) }
  in
  (match (decompose counting w clauses).Lineage.nodes with
  | [| Lineage.Const (_, adds) |] ->
      check int_c "no Shannon sum in the folded DAG" 0 adds
  | _ -> Alcotest.fail "unbounded decomposition left a residual");
  let expect = Lineage.exact w clauses in
  check bool_c "exact = 1 − 2⁻⁵²²" true
    (Q.equal expect (Q.sub Q.one (Q.pow (Q.of_ints 1 2) 522)));
  match Compile.exact_value (Compile.compile w clauses) with
  | Some p -> check (Alcotest.float 0.) "compiled = exact" (Q.to_float expect) p
  | None -> Alcotest.fail "default fuel left a residual"

(* The pinned compile set: 30 batch-shaped 30-variable, 30-clause random
   DNFs (several of them exhaust the default fuel), the per-tag lineage of
   [project[tag](events)] over a generated uncertain db, and four DNFs over
   3- and 4-valued variables. *)
let pinned_lineages () =
  let rng = Rng.create ~seed:19 in
  let w = Wtable.create () in
  let batch =
    List.init 30 (fun _ -> Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)
  in
  let udb = Gen.uncertain_db (Rng.create ~seed:23) ~tuples:90 ~clauses:3 in
  let events = Pqdb_urel.Udb.find udb "events" in
  let by_tag =
    List.map
      (fun tag ->
        List.filter_map
          (fun (cond, t) ->
            if Pqdb_relational.(Tuple.get t 1 = Value.Str tag) then Some cond
            else None)
          (Urelation.rows events))
      [ "alpha"; "beta"; "gamma"; "delta" ]
  in
  let wide =
    List.init 4 (fun k ->
        let xs =
          Array.init 12 (fun i ->
              let d = 3 + ((i + k) mod 2) in
              Wtable.add_var w
                (List.init d (fun j -> Q.of_ints (j + 1) (d * (d + 1) / 2))))
        in
        List.init 24 (fun _ ->
            let a = Rng.int rng 12 and b = Rng.int rng 12 in
            let bind v = (xs.(v), Rng.int rng (Wtable.domain_size w xs.(v))) in
            Assignment.of_list (if a = b then [ bind a ] else [ bind a; bind b ])))
  in
  [ (w, batch @ wide); (Udb.wtable udb, by_tag) ]

let float_arith ?(prob = Fun.id) w =
  { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
    complement = (fun p -> 1. -. p); prob = prob (Wtable.prob_float w) }

let add_clauses b set =
  List.iter
    (fun c ->
      List.iter (fun (v, x) -> Printf.bprintf b "%d=%d," v x) (Assignment.bindings c);
      Buffer.add_char b '|')
    set

(* A float DAG (constants as [%h]) and every residual's clauses. *)
let add_dag b (dag : float Lineage.dag) =
  Array.iter
    (function
      | Lineage.Const p -> Printf.bprintf b "C%h;" p
      | Res r -> Printf.bprintf b "R%d;" r
      | Sum bs -> Array.iter (fun (p, c) -> Printf.bprintf b "S%h:%d," p c) bs
      | IndepOr cs -> Array.iter (fun c -> Printf.bprintf b "I%d," c) cs)
    dag.Lineage.nodes;
  Array.iteri
    (fun r _ ->
      add_clauses b (residual dag r);
      Buffer.add_char b '/')
    dag.Lineage.residuals

(* Digest of what [Compile.compile] builds at default fuel.  [prob] wraps
   each table's [Wtable.prob_float], to run the same walks under a test
   arith. *)
let compiled_digest ?prob () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (w, lineages) ->
      let ops = float_arith ?prob w in
      List.iter
        (fun clauses ->
          add_dag b (decompose ~fuel:Compile.default_fuel ops w clauses);
          Buffer.add_char b '\n')
        lineages)
    (pinned_lineages ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digest = "ed054606fc1bb5c315e271c86915e3a5"

let test_compiled_output_pinned () =
  check Alcotest.string "compiled DAGs and residuals" pinned_digest
    (compiled_digest ())

(* Digest of the float DAGs [Lineage.decompose] builds at [fuel]. *)
let dags_digest ~fuel (w, lineages) =
  let b = Buffer.create 65536 in
  let ops = float_arith w in
  List.iter
    (fun clauses ->
      add_dag b (decompose ~fuel ops w clauses);
      Buffer.add_char b '\n')
    lineages;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The next three digests were pinned before each node's split and
   conditioning were cut to fewer passes; the DAGs must not move.  First,
   128 DNFs of the shape a serve miss compiles: 12 variables, 12
   clauses. *)
let test_serve_shaped_pinned () =
  let rng = Rng.create ~seed:29 in
  let w = Wtable.create () in
  let dnfs =
    List.init 128 (fun _ -> Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3)
  in
  check Alcotest.string "serve-shaped DAGs at fuel 4096"
    "15121e5963aa90af077759e9ea33dd4d"
    (dags_digest ~fuel:4096 (w, dnfs))

(* The pinned set at fuel 64: most walks stop early, so the digest holds
   residuals cut at every depth of the split. *)
let test_low_fuel_pinned () =
  let digests =
    List.map (dags_digest ~fuel:64) (pinned_lineages ()) |> String.concat ","
  in
  check Alcotest.string "pinned set at fuel 64"
    "8d88098a43652555cb9363d840b71e26,b2ce022fc2340fa441b59c5683d351c9" digests

(* A DNF above the 512-clause subsumption cap: 600 random clauses over 40
   variables (one to three literals each, so some duplicate or subsume
   others), the link {a = 1, b = 1} between {a = 1} and {b = 1}, and a
   10-clause DNF over its own variables.  The root is only sorted and
   deduplicated; its components are normalized one by one, the link's
   component loses its link and is split again, and the 600-clause
   component stays above the cap through its first expansions, which
   condition and normalize from scratch.  It stays inexact at the default
   fuel. *)
let test_over_cap_pinned () =
  let rng = Rng.create ~seed:31 in
  let w = Wtable.create () in
  let big = Gen.random_dnf rng w ~vars:40 ~clauses:600 ~clause_len:3 in
  let a = Wtable.add_var w [ Q.of_ints 2 3; Q.of_ints 1 3 ] in
  let b = Wtable.add_var w [ Q.of_ints 5 7; Q.of_ints 2 7 ] in
  let link =
    [ Assignment.of_list [ (a, 1); (b, 1) ]; Assignment.singleton a 1;
      Assignment.singleton b 1 ]
  in
  let small = Gen.random_dnf rng w ~vars:6 ~clauses:10 ~clause_len:2 in
  let clauses = big @ link @ small in
  let dag =
    decompose ~fuel:Compile.default_fuel (float_arith w) w clauses
  in
  check bool_c "inexact at the default fuel" true
    (Array.length dag.Lineage.residuals > 0);
  check bool_c "a residual above the cap" true
    (Array.exists (fun r -> Array.length r > 512) dag.Lineage.residuals);
  check Alcotest.string "over-cap DAG" "d4cf8f93caa112f60fc936975e15f501"
    (dags_digest ~fuel:Compile.default_fuel (w, [ clauses ]))

(* Small lineages, the shape an aconf over a join compiles once per output
   tuple: 1–3 clauses of 1–3 literals over eight variables of 2–4 values,
   plus now and then a duplicate clause, a subsumed one (a clause with one
   more literal) or the empty clause. *)
let small_lineages () =
  let rng = Rng.create ~seed:41 in
  let w = Wtable.create () in
  let xs =
    Array.init 8 (fun i ->
        let d = 2 + (i mod 3) in
        Wtable.add_var w (List.init d (fun j -> Q.of_ints (j + 1) (d * (d + 1) / 2))))
  in
  let bind v = (xs.(v), Rng.int rng (Wtable.domain_size w xs.(v))) in
  let clause len =
    let vs = ref [] in
    while List.length !vs < len do
      let v = Rng.int rng 8 in
      if not (List.mem v !vs) then vs := v :: !vs
    done;
    List.map bind !vs
  in
  let dnf () =
    let base = List.init (1 + Rng.int rng 3) (fun _ -> clause (1 + Rng.int rng 3)) in
    let pick () = List.nth base (Rng.int rng (List.length base)) in
    let extra =
      match Rng.int rng 8 with
      | 0 | 1 -> [ pick () ]
      | 2 | 3 -> (
          let c = pick () in
          let free v = not (List.mem_assoc xs.(v) c) in
          match List.filter free (List.init 8 Fun.id) with
          | [] -> []
          | free -> [ bind (List.nth free (Rng.int rng (List.length free))) :: c ])
      | 4 -> [ [] ]
      | _ -> []
    in
    List.map Assignment.of_list (base @ extra)
  in
  (w, List.init 600 (fun _ -> dnf ()))

(* Digest of [Lineage.decompose] over the small lineages: the normalized
   clauses and the float DAG at fuel 0, 2 and the default, and the exact
   rational value. *)
let small_digest () =
  let w, lineages = small_lineages () in
  let b = Buffer.create 65536 in
  let ops = float_arith w in
  List.iter
    (fun clauses ->
      List.iter
        (fun fuel ->
          let dag = decompose ~fuel ops w clauses in
          add_clauses b (Lineage.to_clauses (dag.Lineage.clauses :> Lineage.packed));
          Buffer.add_char b '#';
          add_dag b dag;
          Buffer.add_char b ';')
        [ 0; 2; Compile.default_fuel ];
      Printf.bprintf b "%s\n" (Q.to_string (Lineage.exact w clauses)))
    lineages;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned before the walk entry was made closure-free; the cases counted
   must all occur. *)
let test_small_lineages_pinned () =
  check Alcotest.string "small lineages' DAGs" "5cc0f51b4af66a74ab5bd6439312e7ca"
    (small_digest ());
  let w, lineages = small_lineages () in
  let ops = float_arith w in
  let count p = List.length (List.filter p lineages) in
  let nodes fuel cs = (decompose ~fuel ops w cs).Lineage.nodes in
  let has_res = Array.exists (function Lineage.Res _ -> true | _ -> false) in
  let cases =
    [ ("collapsed by an empty clause",
       count (fun cs -> Lineage.normalize cs = [ Assignment.empty ]));
      ("shrunk by normalization",
       count (fun cs -> List.length (Lineage.normalize cs) < List.length cs));
      ("of three clauses after normalization",
       count (fun cs -> List.length (Lineage.normalize cs) = 3));
      ("walked, then left a residual at fuel 2",
       count (fun cs ->
           let n = nodes 2 cs in
           Array.length n > 1 && has_res n)) ]
  in
  List.iter (fun (what, k) -> if k = 0 then Alcotest.failf "no lineage %s" what) cases

(* Minor words [Compile.compile] allocates over the pinned set, measured on
   a second pass so one-time allocations (sampling tables) are not counted.
   Deterministic for a given build. *)
let compile_minor_words () =
  let sets = pinned_lineages () in
  let run () =
    List.iter (fun (w, ls) -> List.iter (fun cs -> ignore (Compile.compile w cs)) ls) sets
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  Gc.minor_words () -. before

(* Before the allocation-light kernel, compiling the pinned set allocated
   7 989 503 minor words, 874 799 before each node's split and
   conditioning were cut to fewer passes, 865 110 before a list was
   packed once and normalized packed, and 862 483 while the residuals were
   unpacked into clause lists; it reads 848 497 since.  The bound is that
   reading plus 10%: a kernel that allocates closures or fresh
   scratch per clause or per node again would pass the digest but fail
   it. *)
let test_compile_allocation_guard () =
  let bound = 933_347. in
  let words = compile_minor_words () in
  if words > bound then
    Alcotest.failf "compiling the pinned set allocated %.0f minor words (bound %.0f)"
      words bound

(* The query-aconf lineages at seed 1 ([project[id, tag](events join tags)]
   over 1 500 events) that keep two or more clauses after normalization. *)
let aconf_lineages () =
  let udb = Gen.uncertain_db (Rng.create ~seed:1) ~tuples:1500 ~clauses:3 in
  let joined = Translate.join (Udb.find udb "events") (Udb.find udb "tags") in
  let groups =
    Urelation.clauses_by_tuple (Translate.project_attrs [ "id"; "tag" ] joined)
  in
  ( Udb.wtable udb,
    List.filter
      (fun cs -> List.length (Lineage.normalize cs) >= 2)
      (List.map snd groups) )

(* Minor words per [Compile.compile] of a small lineage, over a second
   pass.  Before the walk entry was made closure-free (no closure per
   clause in [flatten], no [Fun.protect], no node buffer before the first
   push) it read 368 words; most of that was paid before the walk began.
   It read 163 (bound 221) while a list was normalized as a list, then
   flattened; packed once and normalized packed it read 141 (bound 199,
   the same margin), and 149 since the packer copies the list into an
   array first. *)
let test_small_compile_allocation_guard () =
  let w, lineages = aconf_lineages () in
  let run () = List.iter (fun cs -> ignore (Compile.compile w cs)) lineages in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per = (Gc.minor_words () -. before) /. float_of_int (List.length lineages) in
  check int_c "multi-clause lineages" 1007 (List.length lineages);
  if per > 199. then
    Alcotest.failf "a small compile allocated %.1f minor words (bound 199)" per

(* Words [Compile.compile] promotes, and words it allocates directly in the
   major heap, per DNF over a second pass of 60 batch-shaped DNFs, under the
   default minor heap.  The counters of other domains (the resident pool
   workers) are sampled at collections, so a full major collection at each
   end of the pass settles every domain's counters before they are read. *)
let compile_gc_words () =
  let rng = Rng.create ~seed:1 in
  let w = Wtable.create () in
  let dnfs =
    List.init 60 (fun _ -> Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3)
  in
  let run () = List.iter (fun cs -> ignore (Compile.compile w cs)) dnfs in
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  run ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  run ();
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  ((s1.Gc.major_words -. s0.Gc.major_words -. promoted) /. 60., promoted /. 60.)

(* A walk's cache grows past the minor heap's size limit.  Allocated fresh
   per walk, its bucket array lands in the major heap, and the next minor
   collection promotes every key and value stored into it, dead or not:
   957 direct major words and about 12 800 promoted words per DNF. *)
let test_compile_gc_guard () =
  let direct, promoted = compile_gc_words () in
  check (Alcotest.float 0.) "direct major words per DNF" 0. direct;
  if promoted > 4000. then
    Alcotest.failf "compiling promoted %.0f words per DNF (bound 4000)" promoted

(* Walks that overlap in one domain (systhreads) and across domains: each
   [prob] call yields, so the two threads of the main domain interleave in
   mid-walk (counted as [switches]), and one of them must build its own
   workspace. *)
let test_concurrent_walks () =
  let switches = Atomic.make 0 and last = Atomic.make (-1) in
  let yielding ~count prob v x =
    (if count then
       let self = Thread.id (Thread.self ()) in
       if Atomic.exchange last self <> self then Atomic.incr switches);
    Thread.yield ();
    prob v x
  in
  let digest ~count () = compiled_digest ~prob:(yielding ~count) () in
  let domains = List.init 2 (fun _ -> Domain.spawn (digest ~count:false)) in
  let results = Array.make 2 "" in
  let threads =
    List.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- digest ~count:true ()) ())
  in
  List.iter Thread.join threads;
  let from_domains = List.map Domain.join domains in
  List.iteri
    (fun i d -> check Alcotest.string (Printf.sprintf "thread %d" i) pinned_digest d)
    (Array.to_list results);
  List.iteri
    (fun i d -> check Alcotest.string (Printf.sprintf "domain %d" i) pinned_digest d)
    from_domains;
  check bool_c "the walks interleaved" true (Atomic.get switches > 10);
  check Alcotest.string "sequential" pinned_digest (compiled_digest ())

(* A walk that raises leaves nothing behind: after a [prob] that raises on
   its k-th call, the next walks build the pinned DAGs, and they take the
   domain's workspace again (a workspace left taken would make every later
   walk build a fresh table in the major heap). *)
let test_raising_walk_leaves_no_state () =
  let rng = Rng.create ~seed:1 in
  let w = Wtable.create () in
  let clauses = Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3 in
  List.iter
    (fun k ->
      let calls = ref 0 in
      let ops =
        { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
          complement = (fun p -> 1. -. p);
          prob =
            (fun v x ->
              incr calls;
              if !calls = k then raise Exit;
              Wtable.prob_float w v x) }
      in
      (match decompose ~fuel:Compile.default_fuel ops w clauses with
      | _ -> Alcotest.failf "call %d did not raise" k
      | exception Exit -> ());
      check Alcotest.string
        (Printf.sprintf "pinned DAGs after a raise at call %d" k)
        pinned_digest (compiled_digest ()))
    [ 1; 9; 120; 700 ];
  check (Alcotest.float 0.) "direct major words per DNF after the raises" 0.
    (fst (compile_gc_words ()));
  (* Small walks: a raise at every [prob] call of a 2- and a 3-clause walk,
     and a clause binding a negative value, which [Lineage.pack] refuses.  A
     workspace left taken would make the next walk build a fresh one, so
     a clean walk must then allocate exactly what it did before. *)
  let w = Wtable.create () in
  let var d = Wtable.add_var w (List.init d (fun _ -> Q.of_ints 1 d)) in
  let x = var 2 and y = var 3 and z = var 4 in
  let dnfs =
    [ [ Assignment.singleton x 1; Assignment.singleton y 2 ];
      [ Assignment.of_list [ (x, 1); (y, 1) ]; Assignment.of_list [ (y, 0); (z, 3) ];
        Assignment.of_list [ (x, 0); (z, 2) ] ] ]
  in
  let walk_words ops clauses =
    ignore (decompose ops w clauses);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (decompose ops w clauses));
    Gc.minor_words () -. before
  in
  let plain = float_arith w in
  List.iter
    (fun clauses ->
      let words = walk_words plain clauses in
      let calls = ref 0 in
      let counting p v a =
        incr calls;
        p v a
      in
      ignore (decompose (float_arith ~prob:counting w) w clauses);
      for k = 1 to !calls do
        let n = ref 0 in
        let raising p v a =
          incr n;
          if !n = k then raise Exit;
          p v a
        in
        (match decompose (float_arith ~prob:raising w) w clauses with
        | _ -> Alcotest.failf "call %d of %d did not raise" k !calls
        | exception Exit -> ());
        check (Alcotest.float 0.)
          (Printf.sprintf "%d-clause walk after a raise at call %d"
             (List.length clauses) k)
          words (walk_words plain clauses)
      done)
    dnfs;
  let words = walk_words plain (List.nth dnfs 1) in
  Alcotest.check_raises "negative value"
    (Invalid_argument "Lineage: negative value in a clause") (fun () ->
      ignore
        (decompose plain w
           [ Assignment.singleton x (-1); Assignment.singleton y 1 ]));
  check (Alcotest.float 0.) "a walk after the refusal" words
    (walk_words plain (List.nth dnfs 1))

(* Walks past the workspace's size bounds: a 40x60 DNF at unbounded fuel
   caches about 23 000 sets, and 5 000 one-literal clauses need scratch for
   5 000 clauses and variables.  Release drops what they grew, and the next
   walks grow it again and build the pinned DAGs. *)
let test_huge_walks_leave_a_working_workspace () =
  let rng = Rng.create ~seed:3 in
  let w = Wtable.create () in
  let ops =
    { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
      complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }
  in
  let dense = Gen.random_dnf rng w ~vars:40 ~clauses:60 ~clause_len:3 in
  (match (decompose ops w dense).Lineage.nodes with
  | [| Lineage.Const _ |] -> ()
  | _ -> Alcotest.fail "unbounded fuel left a DAG");
  let wide =
    List.init 5000 (fun _ ->
        Assignment.singleton (Wtable.add_var w [ Q.of_ints 9 10; Q.of_ints 1 10 ]) 1)
  in
  check (Alcotest.float 1e-9) "5 000 independent clauses" (1. -. (0.9 ** 5000.))
    (match (decompose ops w wide).Lineage.nodes with
    | [| Lineage.Const p |] -> p
    | _ -> Alcotest.fail "a wide DNF left a DAG");
  check Alcotest.string "pinned DAGs after the huge walks" pinned_digest
    (compiled_digest ())

(* P(X ≥ k) for X ~ Binomial(n, p), summed from k up. *)
let binomial_upper_tail ~n ~p k =
  let log_choose = ref 0. and tail = ref 0. in
  for i = 0 to n do
    if i > 0 then
      log_choose :=
        !log_choose +. log (float_of_int (n - i + 1)) -. log (float_of_int i);
    if i >= k then
      tail :=
        !tail
        +. exp
             (!log_choose +. (float_of_int i *. log p)
             +. (float_of_int (n - i) *. log (1. -. p)))
  done;
  Float.min 1. !tail

(* Does some residual of the DAG [Compile.compile ~fuel] builds lie on two
   or more root paths? *)
let shares_a_residual ~fuel w clauses =
  let ops =
    { Lineage.zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
      complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }
  in
  let nodes = (decompose ~fuel ops w clauses).Lineage.nodes in
  let n = Array.length nodes in
  let paths = Array.make n 0 in
  paths.(n - 1) <- 1;
  let shared = ref false in
  for i = n - 1 downto 0 do
    match nodes.(i) with
    | Lineage.Sum bs -> Array.iter (fun (_, c) -> paths.(c) <- paths.(c) + paths.(i)) bs
    | IndepOr cs -> Array.iter (fun c -> paths.(c) <- paths.(c) + paths.(i)) cs
    | Res _ -> if paths.(i) >= 2 then shared := true
    | Const _ -> ()
  done;
  !shared

(* Case [seed] of the shared-residual family: 14 clauses over 14
   three-valued variables, every literal binding value 2, so the branches
   v = 0 and v = 1 of any expansion are the same sub-DNF and residuals are
   shared — at fuels {0, 4, 16, 64} and ε ∈ {0.05, 0.1, 0.3}. *)
let shared_residual_case seed =
  let rng = Rng.create ~seed:(seed + 7000) in
  let w = Wtable.create () in
  let xs =
    Array.init 14 (fun _ ->
        let a = 1 + Rng.int rng 4 and b = 1 + Rng.int rng 4 in
        Wtable.add_var w [ Q.of_ints a 10; Q.of_ints b 10; Q.of_ints (10 - a - b) 10 ])
  in
  let clauses =
    List.init 14 (fun _ ->
        let a = Rng.int rng 14 in
        let b = (a + 1 + Rng.int rng 13) mod 14 in
        Assignment.of_list [ (xs.(a), 2); (xs.(b), 2) ])
  in
  (w, clauses, [| 0; 4; 16; 64 |].(seed mod 4), [| 0.05; 0.1; 0.3 |].(seed / 4 mod 3))

(* The family member where the Chernoff cap binds: 8 clauses x=1 ∧ yᵢ=1
   with P(x) = ½ and P(yᵢ) = 99/100, at fuel 0 (one residual) and ε = 0.3.
   Its mean μ = p/M ≈ 0.126 is so low that the stopping rule's success
   target costs more trials than the fixed Chernoff count, so the cap ends
   nearly every run. *)
let cap_binding_case () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let clauses =
    List.init 8 (fun _ ->
        let y = Wtable.add_var w [ Q.of_ints 1 100; Q.of_ints 99 100 ] in
        Assignment.of_list [ (x, 1); (y, 1) ])
  in
  (w, clauses, 0, 0.3)

(* The (ε, δ) contract of Compile.solve, checked as a miss rate over 480
   fixed seeds of the shared-residual family and 480 runs of the
   cap-binding member.  Every case also reruns under a trial budget of half
   what its unbudgeted run spent, which cuts it.  A run misses when
   [lo, hi] excludes the exact value or a complete outcome leaves relative
   ε.  Each of the four groups (family or cap member, unbudgeted or cut)
   keeps its own count, which must be plausible under Binomial(480, δ): an
   upper tail below 1e-6 fails.  The proven bound per run is only 2δ (the
   stopping rule and its cap may each fail with δ); the cap-binding member
   measures that branch against δ. *)
let test_solve_miss_rate_with_shared_residuals () =
  let seeds = 480 and delta = 0.05 in
  let shared = ref 0 and capped = ref 0 in
  (* misses of the shared family and the cap member, unbudgeted and cut *)
  let family = ref 0 and family_cut = ref 0 in
  let cap_member = ref 0 and cap_member_cut = ref 0 in
  let check_case ~seed ~misses ~cut_misses (w, clauses, fuel, eps) =
    let c = Compile.compile ~fuel w clauses in
    let expect = Q.to_float (Lineage.exact w clauses) in
    let run ?budget ~misses seed =
      let o = Compile.solve ?budget (Rng.create ~seed) c ~eps ~delta in
      let bracketed =
        o.Compile.lo -. 1e-9 <= expect && expect <= o.Compile.hi +. 1e-9
      in
      let relative =
        (not (complete ~eps ~delta o.Compile.claim))
        || Float.abs (o.Compile.value -. expect) <= (eps *. expect) +. 1e-9
      in
      if not (bracketed && relative) then incr misses;
      o
    in
    let o = run ~misses seed in
    ignore
      (run ~misses:cut_misses
         ~budget:(Budget.create ~max_trials:(max 1 (o.Compile.trials / 2)) ())
         (seed + 100_000));
    o
  in
  let cap =
    let _, clauses, _, eps = cap_binding_case () in
    Stats.karp_luby_trials ~clauses:(List.length clauses) ~eps ~delta
  in
  for seed = 1 to seeds do
    let ((w, clauses, fuel, _) as case) = shared_residual_case seed in
    if shares_a_residual ~fuel w clauses then incr shared;
    ignore (check_case ~seed ~misses:family ~cut_misses:family_cut case);
    let o =
      check_case ~seed:(seed + 200_000) ~misses:cap_member
        ~cut_misses:cap_member_cut (cap_binding_case ())
    in
    if o.Compile.trials = cap then incr capped
  done;
  if 4 * !shared < seeds then
    Alcotest.failf "only %d of %d cases share a residual" !shared seeds;
  if 2 * !capped < seeds then
    Alcotest.failf "the cap ended only %d of %d cap-binding runs" !capped seeds;
  List.iter
    (fun (what, misses) ->
      let tail = binomial_upper_tail ~n:seeds ~p:delta misses in
      if tail < 1e-6 then
        Alcotest.failf "%s: %d misses in %d runs: P(X >= %d | δ = %g) = %g"
          what misses seeds misses delta tail)
    [ ("shared residuals", !family);
      ("shared residuals, budget cut", !family_cut);
      ("cap binds", !cap_member);
      ("cap binds, budget cut", !cap_member_cut) ]

(* Case [seed] of a family whose values sample: 2–4 independent rings of
   4–7 clauses yᵢ=1 ∧ yᵢ₊₁=1, at fuel 1 (one Shannon step, in the first
   ring; every other ring is left as one residual) and
   ε ∈ {0.05, 0.3, 0.7}.  Nothing compiles exactly, so the compiled
   bracket stays too wide to certify ε and [solve] samples the whole
   DNF. *)
let sampling_case seed =
  let rng = Rng.create ~seed:(seed + 9000) in
  let w = Wtable.create () in
  let var () =
    let a = 1 + Rng.int rng 8 in
    Wtable.add_var w [ Q.of_ints a 10; Q.of_ints (10 - a) 10 ]
  in
  let ring () =
    let ys = Array.init (4 + Rng.int rng 4) (fun _ -> var ()) in
    let n = Array.length ys in
    List.init n (fun i -> Assignment.of_list [ (ys.(i), 1); (ys.((i + 1) mod n), 1) ])
  in
  let rings = List.concat (List.init (2 + Rng.int rng 3) (fun _ -> ring ())) in
  (w, rings, [| 0.05; 0.3; 0.7 |].(seed mod 3))

(* A budget only stops the sampler early, so one that never binds changes
   no bit, here on values that really sample (the batch-level check is in
   test_serve). *)
let test_non_binding_budget_on_sampled_values () =
  let delta = 0.05 in
  let show o =
    Printf.sprintf "%h %h %h %d %h %h %h" o.Compile.value o.lo o.hi o.trials
      o.residual_mass (achieved o.claim) (Guarantee.delta o.claim)
  in
  for seed = 1 to 48 do
    let w, clauses, eps = sampling_case seed in
    let c = Compile.compile ~fuel:1 w clauses in
    let solve budget = Compile.solve ?budget (Rng.create ~seed) c ~eps ~delta in
    let plain = solve None in
    if plain.Compile.trials = 0 then
      Alcotest.failf "seed %d: the value did not sample" seed;
    check Alcotest.string
      (Printf.sprintf "seed %d, trial budget" seed)
      (show plain)
      (show (solve (Some (Budget.create ~max_trials:1_000_000_000 ()))));
    check Alcotest.string
      (Printf.sprintf "seed %d, deadline" seed)
      (show plain)
      (show (solve (Some (Budget.create ~deadline_s:3600. ()))))
  done

(* The DAG is exact where its residuals are: at fuels that leave shared
   residuals, evaluating it with every residual at its exact probability
   gives the exact confidence. *)
let test_dag_at_exact_residuals () =
  for seed = 1 to 480 do
    let w, clauses, fuel, _ = shared_residual_case seed in
    let v = dag_at_exact_residuals w (float_dag ~fuel w clauses) in
    let expect = Q.to_float (Lineage.exact w clauses) in
    if Float.abs (v -. expect) > 1e-12 then
      Alcotest.failf "seed %d: DAG at exact residuals %h, exact %h" seed v expect
  done

(* Every reported estimate lies in its own reported bracket, and the
   bracket in [0, 1]: across many seeds, fuels (0 = pure FPRAS, small ones
   leaving several residuals, the default), ε on both sides of ½, and
   trial budgets that stop sampling part-way — through Compile.solve
   directly and through the streaming batch engine. *)
let test_estimates_inside_own_bracket () =
  let inside what (v, lo, hi) =
    if not (0. <= lo && lo <= v && v <= hi && hi <= 1.) then
      Alcotest.failf "%s: estimate %h outside [%h, %h] or bracket not in [0, 1]"
        what v lo hi
  in
  let solved = ref 0 in
  for seed = 1 to 40 do
    let rng = Rng.create ~seed in
    let w = Wtable.create () in
    let sets =
      Array.init 6 (fun i ->
          let vars = 8 + (((seed * 7) + i) mod 17) in
          Gen.random_dnf rng w ~vars ~clauses:(6 + ((seed + i) mod 12))
            ~clause_len:3)
    in
    let fuel = [| Some 0; Some 2; Some 6; Some 24; None |].(seed mod 5) in
    let eps = [| 0.1; 0.3; 0.2; 0.6 |].(seed mod 4) in
    let delta = 0.05 in
    Array.iteri
      (fun i clauses ->
        let c = Compile.compile ?fuel w clauses in
        let budget =
          if seed mod 3 = 0 then
            Some (Budget.create ~max_trials:(40 * (i + 1)) ())
          else None
        in
        let o =
          Compile.solve ?budget (Rng.create ~seed:((100 * seed) + i)) c ~eps
            ~delta
        in
        incr solved;
        inside
          (Printf.sprintf "solve seed %d tuple %d" seed i)
          (o.Compile.value, o.Compile.lo, o.Compile.hi))
      sets;
    let options =
      { Confidence.default_stream_options with shard_cost = 20_000 }
    in
    ignore
      (Confidence.run_stream ?compile_fuel:fuel ~options (Rng.create ~seed) w
         sets ~eps ~delta ~emit:(fun o ->
           Array.iteri
             (fun j v ->
               let lo, hi = o.Shard.intervals.(j) in
               inside
                 (Printf.sprintf "run_stream seed %d tuple %d" seed
                    (o.Shard.shard.Shard.first + j))
                 (v, lo, hi))
             o.Shard.estimates))
  done;
  check int_c "tuples solved" 240 !solved

(* ------------------------------------------------------------------ *)
(* Adaptive stopping rule                                               *)
(* ------------------------------------------------------------------ *)

let test_adaptive_degenerate () =
  let w, _ = fixture () in
  let rng = Rng.create ~seed:3 in
  check (Alcotest.pair (Alcotest.float 0.) int_c) "false -> (0, 0)" (0., 0)
    (adaptive rng (Dnf.prepare w []) ~eps:0.1 ~delta:0.1);
  check (Alcotest.pair (Alcotest.float 0.) int_c) "true -> (1, 0)" (1., 0)
    (adaptive rng
       (Dnf.prepare w [ Assignment.empty ])
       ~eps:0.1 ~delta:0.1);
  let x = Wtable.add_var w [ Q.of_ints 3 10; Q.of_ints 7 10 ] in
  let p, n =
    adaptive rng
      (Dnf.prepare w [ Assignment.singleton x 1 ])
      ~eps:0.1 ~delta:0.1
  in
  check (Alcotest.float 1e-9) "single clause exact" 0.7 p;
  check int_c "single clause free" 0 n;
  check bool_c "invalid eps rejected" true
    (try
       ignore
         (adaptive rng (Dnf.prepare w [ Assignment.singleton x 1 ])
            ~eps:0. ~delta:0.1);
       false
     with Invalid_argument _ -> true)

let test_adaptive_guarantee_and_savings () =
  (* Statistical check of the DKLR schedule on the fixture (p = 0.88,
     M = 1.16): over many runs the empirical failure rate must stay near
     delta, and the mean trial count must undercut the fixed Chernoff
     budget. *)
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let eps = 0.1 and delta = 0.05 in
  let fixed = Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps ~delta in
  let runs = 200 in
  let failures = ref 0 and total_trials = ref 0 in
  for seed = 1 to runs do
    let p, n = adaptive (Rng.create ~seed) dnf ~eps ~delta in
    total_trials := !total_trials + n;
    if Float.abs (p -. 0.88) > eps *. 0.88 then incr failures
  done;
  let mean_trials = float_of_int !total_trials /. float_of_int runs in
  check bool_c
    (Printf.sprintf "failure rate %d/%d within delta + slack" !failures runs)
    true
    (float_of_int !failures /. float_of_int runs <= delta +. 0.05);
  check bool_c
    (Printf.sprintf "mean trials %.0f < fixed budget %d" mean_trials fixed)
    true
    (mean_trials < float_of_int fixed)

let test_adaptive_deterministic () =
  let w, clauses = fixture () in
  let dnf = Dnf.prepare w clauses in
  let a = adaptive (Rng.create ~seed:77) dnf ~eps:0.2 ~delta:0.1 in
  let b = adaptive (Rng.create ~seed:77) dnf ~eps:0.2 ~delta:0.1 in
  check (Alcotest.pair (Alcotest.float 0.) int_c) "same seed, same outcome" a b

(* Digest of what the sampler returns, every float as [%h]:
   [Karp_luby.adaptive_partial] on 42 generated DNFs (every shape of
   [kernel_case]) with no budget, trial caps of 1, 20, 500 and 1e8, and a
   cancelled budget; [Compile.solve] at fuel 0 and the default with and
   without a cap; and the outcomes [Confidence.run_stream] emits over the
   same sets (each sampling tuple under its own slice of its shard's cap).
   ε covers both sides of ½.  A change to any draw, stopping decision or
   interval changes it. *)
let sampled_digest () =
  let b = Buffer.create 65536 in
  let epss = [ 0.05; 0.2; 0.5; 0.7; 1.5 ] and delta = 0.1 in
  let budgets () =
    let cancelled = Budget.create () in
    Budget.cancel cancelled;
    None
    :: Some cancelled
    :: List.map
         (fun max_trials -> Some (Budget.create ~max_trials ()))
         [ 1; 20; 500; 100_000_000 ]
  in
  let gen = Rng.create ~seed:4242 in
  let cases = List.init 42 (kernel_case gen) in
  List.iteri
    (fun case (w, clauses) ->
      let dnf = Dnf.prepare w clauses in
      List.iteri
        (fun k eps ->
          List.iteri
            (fun j budget ->
              let p =
                Karp_luby.adaptive_partial ?budget
                  (Rng.create ~seed:((1000 * case) + (10 * k) + j))
                  dnf ~eps ~delta
              in
              Printf.bprintf b "P%h %h %h %d %h %b;" p.Karp_luby.p_estimate
                p.p_lo p.p_hi p.p_trials (achieved p.p_claim)
                (complete ~eps ~delta p.p_claim))
            (budgets ()))
        epss;
      Buffer.add_char b '\n')
    cases;
  let w = Wtable.create () in
  let sets =
    Array.init 8 (fun i ->
        Gen.random_dnf gen w ~vars:(10 + (2 * i)) ~clauses:(6 + i) ~clause_len:3)
  in
  List.iter
    (fun fuel ->
      Array.iteri
        (fun i clauses ->
          let c = Compile.compile ?fuel w clauses in
          List.iteri
            (fun k eps ->
              List.iteri
                (fun j budget ->
                  let o =
                    Compile.solve ?budget
                      (Rng.create ~seed:((1000 * i) + (10 * k) + j))
                      c ~eps ~delta
                  in
                  Printf.bprintf b "S%h %h %h %d %h %h %b;" o.Compile.value
                    o.lo o.hi o.trials o.residual_mass (achieved o.claim)
                    (complete ~eps ~delta o.claim))
                (budgets ()))
            epss;
          Buffer.add_char b '\n')
        sets;
      List.iter
        (fun eps ->
          List.iter
            (fun budget ->
              let o, summary =
                Batch.stream ?budget ~nworkers:1 ?compile_fuel:fuel
                  (Rng.create ~seed:17) w sets ~eps ~delta
              in
              Array.iteri
                (fun i v ->
                  let lo, hi = o.Shard.intervals.(i) in
                  Printf.bprintf b "B%h %h %h %d %h;" v lo hi o.trials.(i)
                    o.achieved.(i))
                o.estimates;
              Printf.bprintf b "%h %b\n" (Batch.exact_fraction o)
                summary.Confidence.stream_complete)
            (budgets ()))
        epss)
    [ Some 0; None ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_sampled_output_pinned () =
  check Alcotest.string "adaptive_partial, Compile.solve and run_stream bits"
    "1f838318ce0be6734e1d78ccfced49d0" (sampled_digest ())

(* ------------------------------------------------------------------ *)
(* Resident pool                                                        *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse_and_results () =
  (* The resident pool survives across calls and every task runs exactly
     once, whatever the pool size. *)
  let pool = Pool.create 4 in
  for round = 1 to 3 do
    let n = 97 in
    let hits = Array.make n 0 in
    Pool.run pool ~ntasks:n (fun i -> hits.(i) <- hits.(i) + 1);
    check bool_c
      (Printf.sprintf "round %d: each task ran once" round)
      true
      (Array.for_all (fun h -> h = 1) hits)
  done;
  Pool.run pool ~ntasks:0 (fun _ -> Alcotest.fail "no tasks to run");
  check bool_c "negative ntasks rejected" true
    (try
       Pool.run pool ~ntasks:(-1) ignore;
       false
     with Invalid_argument _ -> true)

let test_pool_exception_propagates () =
  let pool = Pool.create 4 in
  check bool_c "task failure reraised with index" true
    (try
       Pool.run pool ~ntasks:10 (fun i -> if i = 7 then failwith "boom");
       false
     with
    | Pqdb_runtime.Pqdb_error.Error (Task_failure { index = 7; inner }) ->
        (match inner with Failure msg -> msg = "boom" | _ -> false));
  (* The pool must still be usable after a failed job. *)
  let ok = Array.make 8 false in
  Pool.run pool ~ntasks:8 (fun i -> ok.(i) <- true);
  check bool_c "pool alive after failure" true (Array.for_all Fun.id ok)

let test_batch_compiled_deterministic_across_pool_sizes () =
  (* The compiled sampling path keeps the batch determinism contract: with
     compilation disabled every tuple samples, and the estimates still
     depend only on the parent RNG state — not on the pool size. *)
  let w, clause_sets = Batch.fixture () in
  let run nworkers =
    batch_run ~nworkers ~compile_fuel:0 (Rng.create ~seed:83) w clause_sets
      ~eps:0.1 ~delta:0.1
  in
  let reference = run 1 in
  List.iter
    (fun nworkers ->
      let got = run nworkers in
      Array.iteri
        (fun i v ->
          check (Alcotest.float 0.)
            (Printf.sprintf "tuple %d identical with %d workers" i nworkers)
            reference.(i) v)
        got)
    [ 1; 2; 4 ]

let test_batch_stats () =
  let w, clause_sets = Batch.fixture () in
  (* Default fuel: everything in the fixture compiles exactly. *)
  let o = Batch.whole (Rng.create ~seed:29) w clause_sets ~eps:0.1 ~delta:0.1 in
  check (Alcotest.float 1e-9) "fully exact" 1. (Batch.exact_fraction o);
  check bool_c "no trials spent" true
    (Array.for_all (fun n -> n = 0) o.Shard.trials);
  check (Alcotest.float 1e-9) "tuple 0 exact" 0.88 o.estimates.(0);
  (* fuel 0: the multi-clause tuple samples, the trivial ones stay free. *)
  let o0 =
    Batch.whole ~compile_fuel:0 (Rng.create ~seed:29) w clause_sets ~eps:0.1
      ~delta:0.1
  in
  check bool_c "multi-clause tuple sampled" true (o0.Shard.trials.(0) > 0);
  check int_c "certain tuple free" 0 o0.trials.(2);
  check int_c "impossible tuple free" 0 o0.trials.(3);
  let fraction = Batch.exact_fraction o0 in
  check bool_c "exact fraction strictly between 0 and 1" true
    (fraction > 0. && fraction < 1.)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "montecarlo"
    [
      ( "dnf",
        [
          Alcotest.test_case "structure" `Quick test_dnf_structure;
          Alcotest.test_case "exact value" `Quick test_exact_value;
          Alcotest.test_case "degenerate cases" `Quick test_degenerate_dnfs;
        ] );
      ( "karp-luby",
        [
          Alcotest.test_case "estimator unbiased" `Slow
            test_estimator_unbiased;
          Alcotest.test_case "(eps,delta) guarantee" `Slow
            test_fpras_guarantee;
          Alcotest.test_case "trial-count formula" `Quick test_trials_formula;
          qcheck prop_fpras_tracks_exact;
        ] );
      ( "more behaviours",
        [
          Alcotest.test_case "sampling empty DNF" `Quick
            test_sample_empty_dnf_raises;
          Alcotest.test_case "variable dedup" `Quick test_dnf_variable_dedup;
          Alcotest.test_case "kernel matches Definition 4.1 oracle" `Quick
            test_kernel_matches_oracle;
          Alcotest.test_case "single clause is exact" `Quick
            test_single_clause_estimator_is_exact;
          Alcotest.test_case "disjoint clauses" `Quick
            test_disjoint_clauses_value;
          Alcotest.test_case "degenerate estimators" `Quick
            test_estimator_degenerate_values;
          qcheck prop_estimate_within_bound_often;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "incremental state" `Quick test_estimator_state;
          Alcotest.test_case "negative batch rejected" `Quick
            test_estimator_negative_batch;
          Alcotest.test_case "convergence" `Slow test_estimator_convergence;
        ] );
      ( "batch confidence",
        [
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_batch_deterministic_across_pool_sizes;
          Alcotest.test_case "matches exact" `Slow test_batch_matches_exact;
          Alcotest.test_case "trials accounting" `Quick
            test_batch_trials_accounting;
          Alcotest.test_case "compiled path deterministic" `Quick
            test_batch_compiled_deterministic_across_pool_sizes;
          Alcotest.test_case "trial and exactness stats" `Quick
            test_batch_stats;
        ] );
      ( "compile",
        [
          Alcotest.test_case "fixture compiles exactly" `Quick
            test_compile_fixture_exact;
          Alcotest.test_case "normalization" `Quick
            test_compile_trivial_and_normalization;
          Alcotest.test_case "independent components" `Quick
            test_compile_independent_components;
          Alcotest.test_case "fuel 0 = pure FPRAS" `Quick
            test_compile_fuel_zero_is_residual;
          Alcotest.test_case "residual solve accuracy" `Slow
            test_compile_solve_accuracy;
          qcheck prop_compile_matches_exact;
          qcheck prop_compile_residual_path_tracks_exact;
          qcheck prop_weight_aware_budgets_sound;
          Alcotest.test_case "estimates inside their own bracket" `Quick
            test_estimates_inside_own_bracket;
          Alcotest.test_case "rounding lemma on exact DAGs" `Quick
            test_rounding_lemma_on_exact_dags;
          Alcotest.test_case "zero-trial bracket certificate" `Quick
            test_bracket_certificate;
          Alcotest.test_case "cost cap is 0 exactly without a trial" `Quick
            test_cost_cap_zero_iff_no_trial;
          Alcotest.test_case "fallback past a constant sibling" `Quick
            test_fallback_past_constant_sibling;
          Alcotest.test_case "a function of the clause set" `Quick
            test_compile_is_a_set_function;
          Alcotest.test_case "shared chain: exponential tree, small DAG" `Quick
            test_shared_chain_dag_is_polynomial;
          Alcotest.test_case "miss rate under delta, shared residuals" `Quick
            test_solve_miss_rate_with_shared_residuals;
          Alcotest.test_case "DAG at exact residuals is exact" `Quick
            test_dag_at_exact_residuals;
          Alcotest.test_case "a budget that never binds changes no bit" `Quick
            test_non_binding_budget_on_sampled_values;
        ] );
      ( "decomposer kernel",
        [
          qcheck prop_condition_matches_oracle;
          qcheck prop_normalize_matches_reference;
          Alcotest.test_case "conditioning lemma cases" `Quick
            test_condition_lemma_cases;
          Alcotest.test_case "renormalized component is split again" `Quick
            test_renormalized_component_is_split;
          Alcotest.test_case "compiled output pinned" `Quick
            test_compiled_output_pinned;
          Alcotest.test_case "small lineages pinned" `Quick
            test_small_lineages_pinned;
          Alcotest.test_case "serve-shaped DAGs pinned" `Quick
            test_serve_shaped_pinned;
          Alcotest.test_case "fuel-64 DAGs pinned" `Quick test_low_fuel_pinned;
          Alcotest.test_case "over-cap DAG pinned" `Quick test_over_cap_pinned;
          Alcotest.test_case "compile allocation guard" `Quick
            test_compile_allocation_guard;
          Alcotest.test_case "small compile allocation guard" `Quick
            test_small_compile_allocation_guard;
          Alcotest.test_case "compile GC guard" `Quick test_compile_gc_guard;
          Alcotest.test_case "concurrent walks" `Quick test_concurrent_walks;
          Alcotest.test_case "a raising walk leaves no state" `Quick
            test_raising_walk_leaves_no_state;
          Alcotest.test_case "huge walks leave a working workspace" `Quick
            test_huge_walks_leave_a_working_workspace;
        ] );
      ( "adaptive stopping",
        [
          Alcotest.test_case "degenerate cases" `Quick test_adaptive_degenerate;
          Alcotest.test_case "(eps,delta) guarantee and savings" `Slow
            test_adaptive_guarantee_and_savings;
          Alcotest.test_case "deterministic" `Quick test_adaptive_deterministic;
          Alcotest.test_case "sampled output pinned" `Quick
            test_sampled_output_pinned;
        ] );
      ( "pool",
        [
          Alcotest.test_case "resident reuse" `Quick test_pool_reuse_and_results;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
        ] );
    ]
