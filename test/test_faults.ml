(* Fault-injection tests: every Faultpoint site must degrade gracefully —
   a typed error at a boundary, containment inside the engine, never a
   whole-batch crash.  The suite is written to also pass under an
   environment-armed fault (the CI matrix runs it with
   PQDB_FAULTPOINTS=<site> for every site): the smoke test below runs
   first, against whatever the environment armed, and each later test
   clears the registry before arming its own site. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
open Pqdb_montecarlo
module Q = Rational
module FP = Pqdb_runtime.Faultpoint
module E = Pqdb_runtime.Pqdb_error

(* Exercise the parallel path even on single-core machines. *)
let () = Unix.putenv "PQDB_POOL_WORKERS" "3"

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* Clear every arm — programmatic and environment — so a test controls
   exactly which site fires.  (FP.reset would re-apply PQDB_FAULTPOINTS.) *)
let clear_all () = List.iter FP.disarm (FP.armed ())

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqdb_faults_%d_%d" (Unix.getpid ()) !temp_counter)
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

let write_file dir name body =
  let oc = open_out (Filename.concat dir name) in
  output_string oc body;
  close_out oc

let small_udb () =
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let x = Wtable.add_var ~name:"x" w [ Q.half; Q.half ] in
  let u =
    Urelation.make
      (Schema.of_list [ "A" ])
      [
        (Assignment.singleton x 0, Tuple.of_list [ Value.Int 1 ]);
        (Assignment.singleton x 1, Tuple.of_list [ Value.Int 2 ]);
      ]
  in
  Udb.add_urelation udb "R" u;
  udb

(* ------------------------------------------------------------------ *)
(* Smoke: survive whatever PQDB_FAULTPOINTS armed                      *)
(* ------------------------------------------------------------------ *)

let test_env_smoke () =
  (* Runs FIRST, with the environment's arming (if any) intact.  Whatever
     site fires, a batched confidence run must come back with sound
     intervals, and a load must either succeed or fail with the typed
     error — never a crash or a stuck pool. *)
  let w, clause_sets = Batch.fixture () in
  let o =
    Batch.whole ~compile_fuel:0 (Rng.create ~seed:23) w
      clause_sets ~eps:0.1 ~delta:0.1
  in
  Batch.assert_sound "env smoke" w clause_sets o.intervals;
  with_temp_dir (fun dir ->
      let udb = small_udb () in
      Udb_io.save dir udb;
      match Udb_io.load dir with
      | back -> check int_c "load ok" 1 (Wtable.var_count (Udb.wtable back))
      | exception E.Error (E.Injected _) -> ())

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  clear_all ();
  check bool_c "clean registry" true (FP.armed () = []);
  check bool_c "unarmed site never fires" false (FP.should_fail "test.site");
  FP.arm ~count:2 "test.site";
  check bool_c "armed listed" true (List.mem "test.site" (FP.armed ()));
  check bool_c "first shot" true (FP.should_fail "test.site");
  check bool_c "second shot" true (FP.should_fail "test.site");
  check bool_c "shots exhausted" false (FP.should_fail "test.site");
  FP.arm "test.site";
  check bool_c "fire raises typed error" true
    (try
       FP.fire "test.site";
       false
     with E.Error (E.Injected "test.site") -> true);
  FP.disarm "test.site";
  check bool_c "disarmed" false (FP.should_fail "test.site")

let test_env_parsing () =
  let original = Sys.getenv_opt "PQDB_FAULTPOINTS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PQDB_FAULTPOINTS"
        (match original with Some s -> s | None -> "");
      FP.reset ();
      clear_all ())
    (fun () ->
      Unix.putenv "PQDB_FAULTPOINTS" "alpha, beta:2 ,gamma:bogus";
      FP.reset ();
      check bool_c "alpha fires repeatedly" true
        (FP.should_fail "alpha" && FP.should_fail "alpha"
        && FP.should_fail "alpha");
      check bool_c "beta fires twice" true
        (FP.should_fail "beta" && FP.should_fail "beta");
      check bool_c "beta exhausted" false (FP.should_fail "beta");
      (* A malformed count falls back to unlimited rather than dropping
         the entry. *)
      check bool_c "bogus count still armed" true (FP.should_fail "gamma"))

let test_env_mode_parsing () =
  let original = Sys.getenv_opt "PQDB_FAULTPOINTS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PQDB_FAULTPOINTS"
        (match original with Some s -> s | None -> "");
      FP.reset ();
      clear_all ())
    (fun () ->
      Unix.putenv "PQDB_FAULTPOINTS"
        "a@raise, b:2@delay:15 ,c@stall,d@torn,e@nonsense";
      FP.reset ();
      check bool_c "explicit raise" true (FP.check "a" = Some FP.Raise);
      check bool_c "delay mode, ms to s" true
        (FP.check "b" = Some (FP.Delay 0.015));
      check bool_c "delay count honored" true
        (FP.check "b" = Some (FP.Delay 0.015));
      check bool_c "delay exhausted" true (FP.check "b" = None);
      check bool_c "stall mode" true (FP.check "c" = Some FP.Stall);
      check bool_c "torn mode" true (FP.check "d" = Some FP.Torn);
      (* A bad mode warns and falls back to raise rather than dropping the
         entry. *)
      check bool_c "bad mode degrades to raise" true
        (FP.check "e" = Some FP.Raise))

let test_mode_of_string () =
  check bool_c "raise" true (FP.mode_of_string "raise" = Ok FP.Raise);
  check bool_c "stall" true (FP.mode_of_string "stall" = Ok FP.Stall);
  check bool_c "torn" true (FP.mode_of_string "torn" = Ok FP.Torn);
  check bool_c "delay ms" true
    (FP.mode_of_string "delay:250" = Ok (FP.Delay 0.25));
  check bool_c "delay rejects negatives" true
    (match FP.mode_of_string "delay:-3" with Error _ -> true | Ok _ -> false);
  check bool_c "unknown rejected" true
    (match FP.mode_of_string "explode" with Error _ -> true | Ok _ -> false)

(* PQDB_FAULTPOINTS and --faultpoints read an entry through the one
   [FP.parse_spec]: for every valid [site[:count][@mode]] the env registry
   (after [FP.reset]) and the CLI's [FP.arm ?count ~mode site] on the
   parsed parts arm the site alike — [count] shots (unlimited when absent)
   of [mode] ([raise] when absent). *)
let prop_faultpoint_paths_agree =
  let modes =
    [ (FP.Raise, "raise"); (FP.Stall, "stall"); (FP.Torn, "torn");
      (FP.Delay 0., "delay:0"); (FP.Delay 0.015, "delay:15") ]
  in
  let gen =
    QCheck.Gen.(
      quad (oneofl FP.known) (opt (int_range 1 4)) (opt (oneofl modes))
        (oneofl [ ""; " " ]))
  in
  let render (site, count, mode, pad) =
    String.concat pad
      ((site :: Option.fold ~none:[] ~some:(fun n -> [ ":"; string_of_int n ])
                  count)
      @ Option.fold ~none:[] ~some:(fun (_, m) -> [ "@"; m ]) mode)
  in
  QCheck.Test.make ~name:"env and CLI read every valid spec alike" ~count:200
    (QCheck.make ~print:render gen)
    (fun ((site, count, mode, _) as case) ->
      let spec = render case in
      let mode = Option.fold ~none:FP.Raise ~some:fst mode in
      (* The modes the armed site fires with, up to 6 shots. *)
      let shots () =
        let fired = List.filter_map (fun _ -> FP.check site) [ 1; 2; 3; 4; 5; 6 ] in
        clear_all ();
        fired
      in
      let original = Sys.getenv_opt "PQDB_FAULTPOINTS" in
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "PQDB_FAULTPOINTS" (Option.value original ~default:"");
          FP.reset ();
          clear_all ())
        (fun () ->
          let parsed = FP.parse_spec spec in
          clear_all ();
          (match parsed with
          | { FP.site; count = Ok count; mode = Ok mode } ->
              FP.arm ?count ~mode site
          | _ -> ());
          let cli = shots () in
          Unix.putenv "PQDB_FAULTPOINTS" spec;
          FP.reset ();
          let expected =
            List.init (Option.value count ~default:6) (fun _ -> mode)
          in
          parsed = { FP.site; count = Ok count; mode = Ok mode }
          && cli = expected && shots () = expected))

let test_behavioral_fire () =
  clear_all ();
  (* Delay: fire sleeps, returns normally, and consumes the shot. *)
  FP.arm ~count:1 ~mode:(FP.Delay 0.05) "test.behave";
  let t0 = Unix.gettimeofday () in
  FP.fire "test.behave";
  let dt = Unix.gettimeofday () -. t0 in
  check bool_c "delay slept" true (dt >= 0.045);
  check bool_c "delay shot consumed" false (FP.should_fail "test.behave");
  (* Stall: blocks until another thread disarms the registry. *)
  FP.arm ~mode:FP.Stall "test.behave";
  FP.set_stall_cap_s 10.;
  let released = ref false in
  let th =
    Thread.create
      (fun () ->
        FP.fire "test.behave";
        released := true)
      ()
  in
  Thread.delay 0.05;
  check bool_c "stall still blocking" false !released;
  clear_all ();
  Thread.join th;
  check bool_c "disarm released the stall" true !released;
  (* Stall cap: nobody disarms, the cap bounds the block. *)
  FP.set_stall_cap_s 0.1;
  FP.arm ~count:1 ~mode:FP.Stall "test.behave";
  let t0 = Unix.gettimeofday () in
  FP.fire "test.behave";
  let dt = Unix.gettimeofday () -. t0 in
  check bool_c "stall capped" true (dt >= 0.08 && dt < 2.0);
  FP.set_stall_cap_s 2.0;
  clear_all ()

let test_torn_checkpoint_write () =
  clear_all ();
  let module CK = Pqdb_runtime.Checkpoint in
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "journal" in
      let w, prior = CK.open_writer path in
      check int_c "fresh journal" 0 (List.length prior);
      CK.append w "alpha 1";
      FP.arm ~count:1 ~mode:FP.Torn "checkpoint.write";
      check bool_c "torn append raises injected" true
        (try
           CK.append w "beta 2";
           false
         with E.Error (E.Injected "checkpoint.write") -> true);
      CK.close w;
      (* The torn tail is exactly what a crash leaves: resume tolerates and
         truncates it, keeping every record before it. *)
      let recovered = CK.read path in
      check bool_c "torn tail dropped, prior record kept" true
        (recovered = [ "alpha 1" ]);
      let w2, prior2 = CK.open_writer ~resume:true path in
      check bool_c "resume sees the intact prefix" true (prior2 = [ "alpha 1" ]);
      CK.append w2 "beta 2";
      CK.close w2;
      check bool_c "journal heals after the torn write" true
        (CK.read path = [ "alpha 1"; "beta 2" ]))

(* ------------------------------------------------------------------ *)
(* Site: karp_luby.estimator                                           *)
(* ------------------------------------------------------------------ *)

let test_estimator_fault_contained () =
  clear_all ();
  FP.arm "karp_luby.estimator";
  Fun.protect ~finally:clear_all (fun () ->
      let w, clause_sets = Batch.fixture () in
      let o =
        Batch.whole ~compile_fuel:0 (Rng.create ~seed:29) w
          clause_sets ~eps:0.1 ~delta:0.1
      in
      (* Sampling tuples degrade to their a-priori brackets; the batch
         itself survives. *)
      check bool_c "degraded, not crashed" false o.complete;
      Batch.assert_sound "estimator fault" w clause_sets o.intervals;
      check (Alcotest.float 0.) "certain tuple still exact" 1. o.estimates.(2);
      check (Alcotest.float 0.) "impossible tuple still exact" 0.
        o.estimates.(3);
      (* One tuple: the dead sampler leaves only the compiled bracket. *)
      let c = Compile.compile ~fuel:0 w clause_sets.(0) in
      let o = Compile.solve (Rng.create ~seed:29) c ~eps:0.1 ~delta:0.1 in
      check bool_c "a dead sampler claims only its bracket" true
        (o.Compile.claim = Guarantee.Bracket
        && (o.Compile.lo, o.Compile.hi) = Compile.vacuous_interval c));
  (* Disarmed: same batch completes again. *)
  let w, clause_sets = Batch.fixture () in
  let o =
    Batch.whole ~compile_fuel:0 (Rng.create ~seed:29) w
      clause_sets ~eps:0.1 ~delta:0.1
  in
  check bool_c "recovers once disarmed" true o.complete

let test_estimator_fault_under_budget () =
  clear_all ();
  FP.arm "karp_luby.estimator";
  Fun.protect ~finally:clear_all (fun () ->
      let w, clause_sets = Batch.fixture () in
      let b = Budget.create ~max_trials:1000 () in
      let o =
        Batch.whole ~compile_fuel:0 ~budget:b (Rng.create ~seed:31) w
          clause_sets ~eps:0.1 ~delta:0.1
      in
      check bool_c "budget path degrades too" false o.complete;
      Batch.assert_sound "estimator fault + budget" w clause_sets o.intervals)

(* A tuple whose sampler died or whose shard was quarantined keeps only
   its a-priori compiled bracket, with the bracket's floor as its
   estimate.  It must be a suspect unless the floor is within ε of the
   ceiling, however small the bracket's absolute half-width.  All but one
   of the 16 lineages (24 variables, 30 clauses of 6 literals: small
   probabilities) stay inexact at the default fuel; [hard] lists each
   one's bracket. *)
let bracket_only_fixture () =
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let rng = Rng.create ~seed:7 in
  let sets =
    Array.init 16 (fun _ ->
        Pqdb_workload.Gen.random_dnf rng w ~vars:24 ~clauses:30 ~clause_len:6)
  in
  let rows =
    List.concat
      (List.init 16 (fun i ->
           List.map (fun c -> (c, Tuple.of_list [ Value.Int i ])) sets.(i)))
  in
  Udb.add_urelation udb "U" (Urelation.make (Schema.of_list [ "T" ]) rows);
  let hard =
    List.filter_map
      (fun i ->
        let c = Compile.compile w sets.(i) in
        if Compile.is_exact c then None
        else Some (i, Compile.vacuous_interval c))
      (List.init 16 Fun.id)
  in
  (udb, hard)

let tuple_id t = match Tuple.get t 0 with Value.Int i -> i | _ -> -1

(* [Confidence.misses] as it was while [achieved] held an absolute
   half-width on a-priori rows, verbatim, over the record it read. *)
type old_stats = {
  trials_used : int array;
  intervals : (float * float) array;
  achieved_eps : float array;
  complete : bool;
}

let old_misses st estimates ~eps i =
  let lo, hi = st.intervals.(i) and v = estimates.(i) in
  (not st.complete)
  && (st.achieved_eps.(i) > eps
     || st.trials_used.(i) = 0
        && not (v -. lo <= eps *. lo && hi -. v <= eps *. hi))

(* The old record of a run: a row still on its bracket's floor with its
   relative width as [achieved] (what [Confidence] writes for a-priori
   rows) carried the half-width [(hi − lo)/2] instead. *)
let old_stats_of (o : Shard.outcome) summary =
  let achieved_eps =
    Array.mapi
      (fun i a ->
        let lo, hi = o.intervals.(i) in
        if o.trials.(i) = 0 && lo < hi && o.estimates.(i) = lo
           && a = (hi -. lo) /. hi
        then (hi -. lo) /. 2.
        else a)
      o.achieved
  in
  { trials_used = o.trials; intervals = o.intervals; achieved_eps;
    complete = summary.Confidence.stream_complete }

let test_bracket_only_tuples_are_suspects () =
  let eps = 0.1 and delta = 0.05 in
  let query = Pqdb_ast.Ua.approx_conf ~eps ~delta (Pqdb_ast.Ua.table "U") in
  let suspects site ?stream () =
    clear_all ();
    FP.arm site;
    Fun.protect ~finally:clear_all (fun () ->
        let udb, hard = bracket_only_fixture () in
        (* The old rule over the same batch, in aconf's tuple order: no
           tuple samples (shards quarantined or samplers dead), so the
           seed does not matter. *)
        let groups = Urelation.clauses_by_tuple (Udb.find udb "U") in
        let o, summary =
          Batch.stream ?options:stream (Rng.create ~seed:5) (Udb.wtable udb)
            (Array.of_list (List.map snd groups))
            ~eps ~delta
        in
        let st = old_stats_of o summary in
        let old_flagged =
          List.filteri (fun i _ -> old_misses st o.estimates ~eps i) groups
          |> List.map (fun (t, _) -> tuple_id t)
        in
        let r, _ =
          Pqdb.Eval_approx.eval ?stream ~rng:(Rng.create ~seed:3) udb query
        in
        let flagged = List.map tuple_id r.Pqdb.Eval_approx.suspects in
        check (Alcotest.list int_c)
          (site ^ ": suspects = the old rule's")
          (List.sort compare old_flagged)
          (List.sort compare flagged);
        (hard, flagged))
  in
  let floor_misses (lo, hi) = hi -. lo > eps *. hi in
  let narrow = ref 0 in
  let expect what flagged (i, (lo, hi)) =
    if (hi -. lo) /. 2. <= eps then incr narrow;
    check bool_c
      (Printf.sprintf "%s tuple %d in [%g, %g] is a suspect" what i lo hi)
      true (List.mem i flagged)
  in
  let some_narrow what =
    check bool_c
      (Printf.sprintf "%d %s tuples with a half-width within eps" !narrow what)
      true (!narrow >= 1);
    narrow := 0
  in
  (* Quarantine: every shard fails, so every inexact tuple holds only its
     bracket. *)
  let hard, flagged =
    suspects "shard.run"
      ~stream:{ Confidence.default_stream_options with retries = 0 }
      ()
  in
  List.iter
    (fun (i, b) -> if floor_misses b then expect "quarantined" flagged (i, b))
    hard;
  some_narrow "quarantined";
  List.iter
    (fun i ->
      check bool_c (Printf.sprintf "suspect %d is inexact" i) true
        (List.mem_assoc i hard))
    flagged;
  (* Dead samplers: every tuple that samples (its bracket does not
     certify ε) dies and keeps its bracket. *)
  let _, flagged = suspects "karp_luby.estimator" () in
  List.iter
    (fun (i, (lo, hi)) ->
      if (hi -. lo) /. (hi +. lo) +. 0x1p-49 > eps then
        expect "dead sampler" flagged (i, (lo, hi)))
    hard;
  some_narrow "dead-sampler"

(* A row left on its a-priori bracket — its shard quarantined, or its task
   killed — reports the relative ε its floor is proven to, [(hi − lo)/hi],
   in the same unit as a solved row's claim. *)
let test_apriori_rows_report_relative_eps () =
  let check_rows what (o : Shard.outcome) clause_sets w =
    let inexact = ref 0 in
    Array.iteri
      (fun i clauses ->
        let c = Compile.compile w clauses in
        let lo, hi = o.intervals.(i) in
        let expected =
          match Compile.exact_value c with
          | Some _ -> 0.
          | None ->
              incr inexact;
              check bool_c
                (Printf.sprintf "%s: tuple %d keeps its bracket's floor" what i)
                true
                ((lo, hi) = Compile.vacuous_interval c
                && o.estimates.(i) = lo && o.trials.(i) = 0);
              (hi -. lo) /. hi
        in
        check Alcotest.int64
          (Printf.sprintf "%s: tuple %d achieved %h = %h" what i
             o.achieved.(i) expected)
          (Int64.bits_of_float expected)
          (Int64.bits_of_float o.achieved.(i)))
      clause_sets;
    check bool_c (what ^ ": some tuple is inexact") true (!inexact > 0)
  in
  let udb, _ = bracket_only_fixture () in
  let w = Udb.wtable udb in
  let sets =
    Array.of_list
      (List.map snd (Urelation.clauses_by_tuple (Udb.find udb "U")))
  in
  let run site ?options () =
    clear_all ();
    FP.arm site;
    Fun.protect ~finally:clear_all (fun () ->
        fst
          (Batch.stream ?options (Rng.create ~seed:5) w sets ~eps:0.1
             ~delta:0.05))
  in
  let quarantined =
    run "shard.run"
      ~options:{ Confidence.default_stream_options with retries = 0 }
      ()
  in
  check bool_c "shard.run: quarantined" true (quarantined.quarantined <> None);
  check_rows "shard.run" quarantined sets w;
  let dead = run "pool.task" () in
  check bool_c "pool.task: degraded, not quarantined" true
    ((not dead.complete) && dead.quarantined = None);
  check_rows "pool.task" dead sets w

(* ------------------------------------------------------------------ *)
(* Site: pool.task                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_task_fault () =
  clear_all ();
  (* Direct pool use: the injected failure surfaces as the typed
     Task_failure with the injected error inside. *)
  FP.arm ~count:1 "pool.task";
  let pool = Pool.create 4 in
  check bool_c "typed task failure" true
    (try
       Pool.run pool ~ntasks:8 ignore;
       false
     with
    | E.Error (E.Task_failure { inner = E.Error (E.Injected site); _ }) ->
        site = "pool.task");
  (* The shot is consumed: the pool keeps working. *)
  let ok = Array.make 8 false in
  Pool.run pool ~ntasks:8 (fun i -> ok.(i) <- true);
  check bool_c "pool alive after injected failure" true
    (Array.for_all Fun.id ok);
  (* Batch engine: an unlimited pool.task fault degrades every sampling
     tuple, crashes nothing. *)
  FP.arm "pool.task";
  Fun.protect ~finally:clear_all (fun () ->
      let w, clause_sets = Batch.fixture () in
      let o =
        Batch.whole ~compile_fuel:0 (Rng.create ~seed:37) w
          clause_sets ~eps:0.1 ~delta:0.1
      in
      check bool_c "batch degraded" false o.complete;
      Batch.assert_sound "pool.task fault" w clause_sets o.intervals)

(* ------------------------------------------------------------------ *)
(* Site: pool.spawn                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_spawn_fault_degrades_inline () =
  clear_all ();
  Pool.reset ();
  FP.arm "pool.spawn";
  Fun.protect
    ~finally:(fun () ->
      clear_all ();
      Pool.reset ())
    (fun () ->
      check int_c "no resident workers under spawn fault" 0
        (Pool.resident_workers ());
      (* Work still completes — inline. *)
      let pool = Pool.create 4 in
      let ok = Array.make 16 false in
      Pool.run pool ~ntasks:16 (fun i -> ok.(i) <- true);
      check bool_c "tasks ran inline" true (Array.for_all Fun.id ok);
      (* And a whole batch still computes correct estimates. *)
      let w, clause_sets = Batch.fixture () in
      let o =
        Batch.whole ~compile_fuel:0 (Rng.create ~seed:41) w
          clause_sets ~eps:0.1 ~delta:0.1
      in
      check bool_c "batch completes inline" true o.complete;
      Batch.assert_sound "pool.spawn fault" w clause_sets o.intervals);
  (* After reset without the fault, workers come back. *)
  check bool_c "workers respawn once disarmed" true
    (Pool.resident_workers () > 0)

(* ------------------------------------------------------------------ *)
(* Site: udb_io.wtable                                                 *)
(* ------------------------------------------------------------------ *)

let test_udb_io_fault () =
  clear_all ();
  with_temp_dir (fun dir ->
      let udb = small_udb () in
      Udb_io.save dir udb;
      FP.arm ~count:1 "udb_io.wtable";
      check bool_c "load fails with the injected error" true
        (try
           ignore (Udb_io.load dir);
           false
         with E.Error (E.Injected site) -> site = "udb_io.wtable");
      (* Shot consumed: the very next load succeeds. *)
      let back = Udb_io.load dir in
      check int_c "load recovers" 1 (Wtable.var_count (Udb.wtable back)))

(* ------------------------------------------------------------------ *)
(* Malformed inputs reach the loader as typed errors                   *)
(* ------------------------------------------------------------------ *)

let load_error dir =
  match Udb_io.load dir with
  | _ -> Alcotest.fail "expected the load to be rejected"
  | exception E.Error e -> e

let write_db dir ~wtable =
  Sys.mkdir dir 0o755;
  write_file dir "wtable.csv" wtable;
  write_file dir "manifest.csv" "Ord,Name,Complete\n0,R,false\n";
  write_file dir "rel_R.csv" "D,A\nx0=0,1\n"

let test_malformed_wtable_inputs () =
  clear_all ();
  let is_malformed = function E.Malformed_input _ -> true | _ -> false in
  let is_invalid_prob = function
    | E.Invalid_probability _ -> true
    | _ -> false
  in
  let cases =
    [
      ("negative probability", "Var,Name,Dom,P\n0,x,0,3/2\n0,x,1,-1/2\n",
       is_invalid_prob);
      ("mass over 1", "Var,Name,Dom,P\n0,x,0,2/3\n0,x,1,2/3\n",
       is_invalid_prob);
      ("unparseable probability", "Var,Name,Dom,P\n0,x,0,zebra\n0,x,1,1/2\n",
       is_malformed);
      (* Relations are sets, so the conflicting duplicate must differ in
         probability to survive CSV loading. *)
      ( "duplicate (var, value) row",
        "Var,Name,Dom,P\n0,x,0,1/2\n0,x,0,1/3\n0,x,1,1/2\n",
        is_malformed );
      ("truncated row", "Var,Name,Dom,P\n0,x,0\n", is_malformed);
      ("sparse variable ids", "Var,Name,Dom,P\n1,x,0,1/2\n1,x,1,1/2\n",
       is_malformed);
      ("sparse domain values", "Var,Name,Dom,P\n0,x,0,1/2\n0,x,2,1/2\n",
       is_malformed);
    ]
  in
  List.iter
    (fun (name, wtable, classify) ->
      with_temp_dir (fun dir ->
          write_db dir ~wtable;
          let e = load_error dir in
          check bool_c
            (Printf.sprintf "%s: %s" name (E.to_string e))
            true (classify e)))
    cases

let test_malformed_relation_inputs () =
  clear_all ();
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      write_file dir "wtable.csv" "Var,Name,Dom,P\n0,x,0,1/2\n0,x,1,1/2\n";
      write_file dir "manifest.csv" "Ord,Name,Complete\n0,R,false\n";
      (* Condition referencing nothing parseable. *)
      write_file dir "rel_R.csv" "D,A\nnot-a-condition,1\n";
      check bool_c "bad condition is malformed input" true
        (match load_error dir with
        | E.Malformed_input { source; _ } ->
            Filename.basename source = "rel_R.csv"
        | _ -> false));
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      write_file dir "wtable.csv" "Var,Name,Dom,P\n0,x,0,1/2\n0,x,1,1/2\n";
      (* Manifest names a relation with no file. *)
      write_file dir "manifest.csv" "Ord,Name,Complete\n0,Ghost,true\n";
      check bool_c "missing relation file is malformed input" true
        (match load_error dir with E.Malformed_input _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Round-trip property                                                 *)
(* ------------------------------------------------------------------ *)

let prop_save_load_roundtrip =
  QCheck.Test.make ~name:"save/load round-trips confidences" ~count:30
    (QCheck.int_range 0 100_000) (fun seed ->
      clear_all ();
      let rng = Rng.create ~seed in
      let udb = Udb.create () in
      let w = Udb.wtable udb in
      let u =
        Pqdb_workload.Gen.tuple_independent rng w ~attrs:[ "A"; "B" ]
          ~rows:(1 + Rng.int rng 5) ~domain:3
      in
      Udb.add_urelation udb "U" u;
      with_temp_dir (fun dir ->
          Udb_io.save dir udb;
          let back = Udb_io.load dir in
          let conf db =
            Pqdb.Eval_exact.all_confidences (Udb.wtable db)
              (Udb.find db "U")
          in
          List.for_all2
            (fun (t, p) (t', p') -> Tuple.equal t t' && Q.equal p p')
            (conf udb) (conf back)
          && Wtable.var_count (Udb.wtable udb)
             = Wtable.var_count (Udb.wtable back)))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "faults"
    [
      ( "smoke",
        [ Alcotest.test_case "survive env faults" `Quick test_env_smoke ] );
      ( "registry",
        [
          Alcotest.test_case "arm/disarm/count" `Quick test_registry;
          Alcotest.test_case "env parsing" `Quick test_env_parsing;
          Alcotest.test_case "env mode parsing" `Quick test_env_mode_parsing;
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
          QCheck_alcotest.to_alcotest prop_faultpoint_paths_agree;
          Alcotest.test_case "behavioral fire" `Quick test_behavioral_fire;
          Alcotest.test_case "torn checkpoint write" `Quick
            test_torn_checkpoint_write;
        ] );
      ( "sites",
        [
          Alcotest.test_case "karp_luby.estimator contained" `Quick
            test_estimator_fault_contained;
          Alcotest.test_case "karp_luby.estimator under budget" `Quick
            test_estimator_fault_under_budget;
          Alcotest.test_case "bracket-only tuples are suspects" `Quick
            test_bracket_only_tuples_are_suspects;
          Alcotest.test_case "a-priori rows report relative eps" `Quick
            test_apriori_rows_report_relative_eps;
          Alcotest.test_case "pool.task" `Quick test_pool_task_fault;
          Alcotest.test_case "pool.spawn degrades inline" `Quick
            test_pool_spawn_fault_degrades_inline;
          Alcotest.test_case "udb_io.wtable" `Quick test_udb_io_fault;
        ] );
      ( "malformed inputs",
        [
          Alcotest.test_case "wtable corruption" `Quick
            test_malformed_wtable_inputs;
          Alcotest.test_case "relation corruption" `Quick
            test_malformed_relation_inputs;
        ] );
      ("round-trip", [ qcheck prop_save_load_roundtrip ]);
    ]
