(* pqdb — command-line front end.

   Subcommands:
     run                 evaluate a UA query/program over CSV or stored tables
     topk                rank a query's answers, return the k most probable
     explain             evaluate exactly and print each answer's provenance
     parse               parse a query and print the algebra tree
     demo                run a built-in scenario (coin | cleaning | sensors)
     repl                interactive session: load tables, define views, query
     batch               streaming sharded confidence over raw lineage
     worker              shard worker behind batch --workers/--connect
     gen                 generate a synthetic uncertain database
     convert             convert between text and binary (.udbb) databases
     serve               resident daemon answering conf over a socket
     query               send one request to a serve daemon
     checkpoint compact  rewrite a crash-recovery journal

   Examples:
     pqdb run --table Coins=coins.csv \
       "conf(project[CoinType](repairkey[@Count](Coins)))"
     pqdb run --approx --delta 0.05 --query-file pipeline.ua \
       --table Dirty=dirty.csv
     pqdb demo coin *)

open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua
module Qparser = Pqdb_lang.Qparser
module Rng = Pqdb_numeric.Rng
module Budget = Pqdb_montecarlo.Budget
module Guarantee = Pqdb_montecarlo.Guarantee
module Compile = Pqdb_montecarlo.Compile
module Cset = Pqdb_conditioning.Constraint_set
module Condition = Pqdb_conditioning.Condition
module Pqdb_error = Pqdb_runtime.Pqdb_error

(* The one exception-to-exit-code mapping.  Every subcommand body runs
   inside it: a typed failure becomes one line on stderr and exit 1, never
   cmdliner's "internal error" (exit 125). *)
let guard ?(prefix = "error") body =
  try body () with
  | Failure msg | Invalid_argument msg | Sys_error msg ->
      Format.eprintf "%s: %s@." prefix msg;
      1
  | Pqdb_error.Error e ->
      Format.eprintf "%s: %s@." prefix (Pqdb_error.to_string e);
      1
  | Qparser.Error (msg, off) ->
      Format.eprintf "parse error at offset %d: %s@." off msg;
      1
  | Pqdb_lang.Lexer.Error (msg, off) ->
      Format.eprintf "lex error at offset %d: %s@." off msg;
      1
  | Pqdb.Eval_exact.Unsupported msg | Pqdb.Epsilon.Unsupported msg ->
      Format.eprintf "unsupported: %s@." msg;
      1
  | Unix.Unix_error (err, fn, arg) ->
      Format.eprintf "%s: %s: %s %s@." prefix fn (Unix.error_message err) arg;
      1

let load_tables ?db specs =
  let udb =
    match db with None -> Udb.create () | Some dir -> Udb_io.load dir
  in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None ->
          failwith
            (Printf.sprintf "--table expects NAME=FILE.csv, got %S" spec)
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          Udb.add_complete udb name (Csv.load path))
    specs;
  udb

let read_query query query_file =
  match (query, query_file) with
  | Some q, None -> q
  | None, Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
  | Some _, Some _ -> failwith "give either a query or --query-file, not both"
  | None, None -> failwith "no query given (positional argument or --query-file)"

let final_query = function
  | Some q -> q
  | None -> failwith "the program has no final query expression"

(* A command's conditioning context: repeatable --assert flags (each one
   constraint in the ASSERT grammar) plus any assert/condition statements in
   the program text, validated into one set — the conjunction. *)
let constraint_set_of ~asserts ~stmts =
  List.fold_left Cset.add Cset.empty
    (stmts @ List.map Qparser.parse_constraint asserts)

(* The program loader of run and topk: tables, then the program's final
   query and its constraint set. *)
let load_program ?db tables ~asserts query query_file =
  let udb = load_tables ?db tables in
  let prog = Qparser.parse_program_full (read_query query query_file) in
  ( udb,
    final_query prog.Qparser.query,
    constraint_set_of ~asserts ~stmts:prog.Qparser.constraints )

let stored_inputs path name =
  let udb = Udb_io.load path in
  let sets = Udb.relation_sets udb name in
  (Udb.wtable udb, sets)

(* Boundary validation: turn bad parameters into friendly messages before
   they reach the engine as cryptic Invalid_argument/assert failures. *)
let check_unit_interval name v =
  if not (v > 0. && v < 1.) then
    failwith (Printf.sprintf "--%s must be strictly between 0 and 1, got %g" name v)

let check_positive_float name = function
  | None -> ()
  | Some v ->
      if not (v > 0. && Float.is_finite v) then
        failwith
          (Printf.sprintf "--%s must be a positive number of seconds, got %g"
             name v)

let check_positive_int name = function
  | None -> ()
  | Some v ->
      if v <= 0 then
        failwith (Printf.sprintf "--%s must be a positive integer, got %d" name v)

let check_nonneg_int name = function
  | None -> ()
  | Some v ->
      if v < 0 then
        failwith (Printf.sprintf "--%s must be non-negative, got %d" name v)

let check_pool_workers_env () =
  match Sys.getenv_opt "PQDB_POOL_WORKERS" with
  | None -> ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> ()
      | _ ->
          failwith
            (Printf.sprintf
               "PQDB_POOL_WORKERS must be a positive integer, got %S" s))

(* --faultpoints mirrors PQDB_FAULTPOINTS: comma-separated
   name[:count][@mode] entries, validated against the registry so a typo'd
   site or a bad mode fails loudly instead of silently never firing. *)
let apply_faultpoints specs =
  let module FP = Pqdb_runtime.Faultpoint in
  List.iter
    (fun spec ->
      List.iter
        (fun entry ->
          let entry = String.trim entry in
          if entry <> "" then begin
            let { FP.site; count; mode } = FP.parse_spec entry in
            let mode =
              match mode with
              | Ok mode -> mode
              | Error msg ->
                  failwith (Printf.sprintf "--faultpoints: in %S: %s" entry msg)
            in
            let count =
              match count with
              | Ok count -> count
              | Error _ ->
                  failwith
                    (Printf.sprintf
                       "--faultpoints: count in %S must be a positive integer"
                       entry)
            in
            if not (List.mem site FP.known) then
              failwith
                (Printf.sprintf
                   "--faultpoints: unknown fault point %S (known: %s)" site
                   (String.concat ", " FP.known));
            FP.arm ?count ~mode site
          end)
        (String.split_on_char ',' spec))
    specs

(* The engine options run, topk, batch and worker share.  [engine_term]
   yields a thunk that validates them, arms the fault points and checks
   PQDB_POOL_WORKERS; commands force it inside [guard], so a bad value is
   an ordinary exit-1 error. *)
type engine = {
  seed : int;
  delta : float;
  fuel : int option;
  budget : Budget.t option;  (** from --deadline / --max-trials *)
  faultpoints : string list;
}

let make_engine seed delta fuel deadline max_trials faultpoints () =
  check_unit_interval "delta" delta;
  check_nonneg_int "compile-fuel" fuel;
  check_positive_float "deadline" deadline;
  check_positive_int "max-trials" max_trials;
  check_pool_workers_env ();
  apply_faultpoints faultpoints;
  let budget =
    match (deadline, max_trials) with
    | None, None -> None
    | _ -> Some (Budget.create ?deadline_s:deadline ?max_trials ())
  in
  { seed; delta; fuel; budget; faultpoints }

(* Streaming options for the shard engine, shared by run and batch.  The
   resume journal doubles as the checkpoint path; naming both only works
   when they agree. *)
let make_stream ~shard_size ~checkpoint ~resume ~retries =
  check_positive_int "shard-size" shard_size;
  check_nonneg_int "retries" retries;
  match (shard_size, checkpoint, resume, retries) with
  | None, None, None, None -> None
  | _ ->
      let checkpoint =
        match (checkpoint, resume) with
        | Some c, Some r when c <> r ->
            failwith "--checkpoint and --resume must name the same journal"
        | Some c, _ -> Some c
        | None, Some r -> Some r
        | None, None -> None
      in
      let d = Pqdb_montecarlo.Confidence.default_stream_options in
      Some
        {
          Pqdb_montecarlo.Confidence.shard_cost =
            Option.value shard_size
              ~default:d.Pqdb_montecarlo.Confidence.shard_cost;
          retries =
            Option.value retries ~default:d.Pqdb_montecarlo.Confidence.retries;
          checkpoint;
          resume = resume <> None;
        }

(* Peak resident set from the kernel, when the platform exposes it. *)
let report_rss () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | contents ->
      List.iter
        (fun line ->
          if String.length line >= 6 && String.sub line 0 6 = "VmHWM:" then
            Format.eprintf "-- peak rss %s@." (String.trim (String.sub line 6 (String.length line - 6))))
        (String.split_on_char '\n' contents)
  | exception _ -> ()

let report_budget ?(ppf = Format.std_formatter) = function
  | None -> ()
  | Some b ->
      Format.fprintf ppf "-- budget: %d trials spent%s@."
        (Budget.spent b)
        (if Budget.exhausted b then
           ", exhausted (result degraded but sound)"
         else "")

let print_result_urel u =
  if Urelation.is_complete_rep u then
    Format.printf "%a@." Relation.pp (Urelation.to_relation u)
  else Format.printf "%a@." Urelation.pp u

let run_cmd engine db tables query_file approx optimize eps0 shard_size
    checkpoint resume retries asserts query () =
  let { seed; delta; budget; _ } = engine () in
  check_unit_interval "eps0" eps0;
  let stream = make_stream ~shard_size ~checkpoint ~resume ~retries in
  if stream <> None && not approx then
    failwith
      "--shard-size/--checkpoint/--resume/--retries only apply to \
       --approx runs";
  let udb, q, cset = load_program ?db tables ~asserts query query_file in
  let q = if optimize then Pqdb.Optimizer.optimize_for udb q else q in
  if not (Cset.is_empty cset) then begin
    (* Conditioned mode: the answer is Pr(t ∈ q | constraints) per
       possible tuple — exact where the lineage admits it, else anytime
       brackets sound for the ratio (Condition).  Sharded streaming does
       not compose with the shared renormalizing denominator. *)
    if stream <> None then
      failwith
        "--assert conditioning does not compose with \
         --shard-size/--checkpoint/--resume/--retries";
    let compiled = Condition.compile udb cset in
    Format.printf "-- conditioned on: %a@." Cset.pp cset;
    if approx then begin
      let estimates =
        Condition.approx_confidences ?budget ~seed ~eps:eps0 ~delta udb
          compiled q
      in
      List.iter
        (fun (t, (e : Compile.outcome)) ->
          Format.printf "%a  ~%.6f in [%.6f, %.6f]%s@." Tuple.pp t e.value
            e.lo e.hi
            (if e.claim = Guarantee.Exact then " (exact)"
             else Printf.sprintf " (%d trials)" e.trials))
        estimates;
      report_budget budget
    end
    else
      List.iter
        (fun (t, p) ->
          Format.printf "%a  %a@." Tuple.pp t Pqdb_numeric.Rational.pp p)
        (Condition.exact_confidences udb compiled q)
  end
  else if approx then begin
    let rng = Rng.create ~seed in
    let result, stats, rounds =
      Pqdb.Eval_approx.eval_with_guarantee ?budget ?stream ~eps0 ~rng ~delta
        udb q
    in
    print_result_urel result.Pqdb.Eval_approx.urel;
    Format.printf "-- per-tuple error bounds (target %.4g):@." delta;
    List.iter
      (fun (t, e) -> Format.printf "--   %a: <= %.6f@." Tuple.pp t e)
      result.Pqdb.Eval_approx.errors;
    if result.Pqdb.Eval_approx.suspects <> [] then begin
      Format.printf "-- singularity suspects:@.";
      List.iter
        (fun t -> Format.printf "--   %a@." Tuple.pp t)
        result.Pqdb.Eval_approx.suspects
    end;
    Format.printf
      "-- %d sigma-hat decisions, %d estimator calls, round budget %d@."
      stats.Pqdb.Eval_approx.decisions
      stats.Pqdb.Eval_approx.estimator_calls rounds;
    report_budget budget
  end
  else print_result_urel (Pqdb.Eval_exact.eval udb q);
  0

let parse_cmd query () =
  let q = Qparser.parse_query query in
  Format.printf "%a@." Ua.pp q;
  Format.printf "positive: %b, sigma-hat depth: %d, size: %d@."
    (Ua.is_positive q) (Ua.nesting_depth q) (Ua.size q);
  0

let demo_cmd which seed () =
  let rng = Rng.create ~seed in
  match which with
  | "coin" ->
      let udb = Pqdb_workload.Scenarios.coin_db () in
      let q = Pqdb_workload.Scenarios.coin_queries in
      Format.printf "posterior given two heads:@.%a@." Relation.pp
        (Pqdb.Eval_exact.eval_relation udb q.Pqdb_workload.Scenarios.u);
      0
  | "cleaning" ->
      let udb = Pqdb_workload.Scenarios.cleaning_db rng ~customers:5 ~max_dups:3 in
      Format.printf "marginals after key repair:@.%a@." Relation.pp
        (Pqdb.Eval_exact.eval_relation udb
           (Ua.conf
              (Ua.project [ "Id"; "Name" ] Pqdb_workload.Scenarios.cleaned)));
      0
  | "sensors" ->
      let udb = Pqdb_workload.Scenarios.sensor_db rng ~sensors:4 in
      Format.printf "P(hot) per sensor:@.%a@." Relation.pp
        (Pqdb.Eval_exact.eval_relation udb
           (Ua.conf
              (Ua.project [ "Sensor" ]
                 (Ua.select
                    Predicate.(
                      Expr.attr "Level" = Expr.const (Value.Str "hot"))
                    Pqdb_workload.Scenarios.sensor_readings))));
      0
  | other ->
      Format.eprintf "unknown demo %S (coin | cleaning | sensors)@." other;
      1

(* The result and the leaves each result tuple depends on; [explain] adds
   a header and the count of maximal sigma-hat subexpressions. *)
let print_provenance ?(summary = false) prov =
  let result = Pqdb.Provenance.result prov in
  print_result_urel result;
  if summary then
    Format.printf "-- provenance (leaves each result tuple depends on):@.";
  List.iter
    (fun t ->
      Format.printf "--   %a <- %a@." Tuple.pp t
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
           Pqdb.Provenance.pp_leaf)
        (Pqdb.Provenance.leaves prov t))
    (Urelation.possible_tuples result);
  if summary && Pqdb.Provenance.sigma_hat_count prov > 0 then
    Format.printf "-- %d maximal sigma-hat subexpression(s)@."
      (Pqdb.Provenance.sigma_hat_count prov)

(* explain takes no assert statements: parse_program refuses them rather
   than explaining an unconditioned answer. *)
let explain_cmd db tables query_file query () =
  let udb = load_tables ?db tables in
  let _views, final = Qparser.parse_program (read_query query query_file) in
  print_provenance ~summary:true
    (Pqdb.Provenance.compute udb (final_query final));
  0

let topk_cmd engine db tables query_file k asserts query () =
  let { seed; delta; fuel; budget; _ } = engine () in
  if k <= 0 then
    failwith (Printf.sprintf "--k must be a positive integer, got %d" k);
  let udb, q, cset = load_program ?db tables ~asserts query query_file in
  if not (Cset.is_empty cset) then begin
    (* Ranking by conditioned probability: the FD that deduplicates a
       dirty table can reorder the top-k (a tuple sharing its key loses
       mass to the renormalization). *)
    let compiled = Condition.compile udb cset in
    Format.printf "-- conditioned on: %a@." Cset.pp cset;
    let ranked =
      Condition.topk ?budget ?fuel ~seed ~delta ~k udb compiled q
    in
    List.iteri
      (fun i (t, (e : Compile.outcome)) ->
        Format.printf "%d. %a  (~%.4f in [%.4f, %.4f])@." (i + 1) Tuple.pp
          t e.value e.lo e.hi)
      ranked
  end
  else begin
    let rng = Rng.create ~seed in
    let r =
      Pqdb.Topk.query ?budget ?compile_fuel:fuel ~rng ~delta ~k udb q
    in
    List.iteri
      (fun i (t, p) ->
        Format.printf "%d. %a  (~%.4f)@." (i + 1) Tuple.pp t p)
      r.Pqdb.Topk.ranked;
    Format.printf "-- certified: %b, %d estimator calls, %d rounds@."
      (Pqdb.Topk.certified r) r.Pqdb.Topk.estimator_calls r.Pqdb.Topk.rounds
  end;
  report_budget budget;
  0

(* --- batch ------------------------------------------------------------ *)

(* Streaming batch confidence over raw lineage, without a query in front.
   stdout carries exactly one line per tuple ("index est lo hi trials",
   floats in %h so runs can be compared bit-for-bit with cmp); everything
   diagnostic goes to stderr.  This is the surface the crash-recovery CI
   job drives: kill a checkpointed run, resume it, cmp the outputs. *)
let batch_inputs ~db ~relation ~gen ~gen_seed =
  match (gen, db, relation) with
  | Some n, None, None ->
      check_positive_int "gen" gen;
      let module Q = Pqdb_numeric.Rational in
      let rng = Rng.create ~seed:gen_seed in
      let w = Wtable.create () in
      (* Mostly easy singleton lineage with a hard DNF minority, the same
         shape as the confidence microbenchmarks: planning sees wildly
         uneven shard costs, which is the interesting case. *)
      let sets =
        Array.init n (fun i ->
            if i mod 10 = 9 then
              Pqdb_workload.Gen.random_dnf rng w ~vars:12 ~clauses:12
                ~clause_len:3
            else
              let num = 1 + Rng.int rng 9 in
              let v =
                Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ]
              in
              [ Assignment.singleton v 1 ])
      in
      (w, sets)
  | None, Some path, Some name -> stored_inputs path name
  | _ ->
      failwith
        "give either --gen N (synthetic lineage) or --db PATH --relation NAME"

(* The batch output contract: one line per tuple, "%h" floats, one flush
   per shard — a kill leaves whole-shard prefixes on stdout, matching what
   the journal holds.  Shared verbatim by the in-process and distributed
   paths; byte-identical output is the distributed mode's acceptance
   test. *)
let emit_batch_outcome o =
  let buf = Buffer.create 256 in
  Pqdb_montecarlo.Shard.add_outcome buf o;
  Buffer.output_buffer stdout buf;
  flush stdout

let report_stream_summary ~tuples (summary : Pqdb_montecarlo.Confidence.stream_summary) =
  let module C = Pqdb_montecarlo.Confidence in
  Format.eprintf
    "-- %d tuples, %d shards (%d resumed), %d quarantined, %d trials@."
    tuples summary.C.shards summary.C.resumed_shards
    (List.length summary.C.quarantined)
    summary.C.stream_trials;
  if not summary.C.stream_complete then
    Format.eprintf
      "-- incomplete: some tuples report a-priori brackets (sound, wider \
       than the (eps, delta) contract)@.";
  if not summary.C.journal_ok then
    Format.eprintf
      "-- journaling abandoned mid-run; results unaffected, resume will \
       recompute the missing shards@.";
  List.iter
    (fun (i, e) ->
      Format.eprintf "-- quarantined shard %d: %s@." i
        (Pqdb_runtime.Pqdb_error.to_string e))
    summary.C.quarantined

(* Worker argv for --workers: re-spawn this executable's [worker]
   subcommand with every parameter that feeds the shard plan, the RNG lanes
   or the sampling — the handshake (meta payload + RNG probe) re-checks
   that nothing drifted in flight.  Floats go through "%.17g" so they
   re-parse to the same bits. *)
let worker_argv (e : engine) ~gen ~gen_seed ~eps ~shard_cost
    ~heartbeat_interval =
  Array.of_list
    (List.concat
       [
         [ Sys.executable_name; "worker" ];
         (* A stored --db source is deliberately absent: it travels in the
            coordinator's greeting Hello instead, so every worker loads the
            same path the coordinator used (and a .udbb db is one shared
            read-only mapping across the fleet). *)
         (match gen with
         | Some n -> [ "--gen"; string_of_int n; "--gen-seed"; string_of_int gen_seed ]
         | None -> []);
         [ "--eps"; Printf.sprintf "%.17g" eps ];
         [ "--delta"; Printf.sprintf "%.17g" e.delta ];
         [ "--seed"; string_of_int e.seed ];
         (match e.fuel with
         | Some f -> [ "--compile-fuel"; string_of_int f ]
         | None -> []);
         [ "--shard-size"; string_of_int shard_cost ];
         [ "--heartbeat-interval"; Printf.sprintf "%.17g" heartbeat_interval ];
         List.concat_map (fun s -> [ "--faultpoints"; s ]) e.faultpoints;
       ])

(* Remote endpoints: "HOST:PORT", or a bare "PORT" meaning loopback.  The
   rightmost colon splits, so a purely numeric argument is a port. *)
let parse_endpoint ~flag s =
  let host, port_s =
    match String.rindex_opt s ':' with
    | None -> ("127.0.0.1", s)
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let host = if host = "" then "127.0.0.1" else host in
  match int_of_string_opt port_s with
  | Some p when p >= 0 && p <= 65535 -> (host, p)
  | _ ->
      failwith
        (Printf.sprintf "--%s %s: expected HOST:PORT or PORT (0-65535)" flag
           s)

(* interval < ttl < io-timeout, or the machinery fights itself: a
   heartbeat that cannot land several times per lease window makes every
   healthy worker look partitioned, and an I/O deadline shorter than the
   lease declares workers dead before the lease logic gets a say. *)
let check_liveness_cadence ~heartbeat_interval ~lease_ttl ~io_timeout_s =
  check_positive_float "heartbeat-interval" (Some heartbeat_interval);
  check_positive_float "lease-ttl" (Some lease_ttl);
  if heartbeat_interval >= lease_ttl then
    failwith
      (Printf.sprintf
         "--heartbeat-interval (%gs) must be smaller than --lease-ttl \
          (%gs): a lease has to survive a few missed ticks, or every \
          healthy worker looks partitioned"
         heartbeat_interval lease_ttl);
  match io_timeout_s with
  | Some t when lease_ttl >= t ->
      failwith
        (Printf.sprintf
           "--lease-ttl (%gs) must be smaller than --io-timeout (%gs): \
            the lease must expire (and suspend the worker) before the I/O \
            deadline declares it dead"
           lease_ttl t)
  | _ -> ()


(* Conditioned batch: same one-line-per-tuple "%h" output contract, with
   every confidence renormalized by the shared Pr(constraints) denominator. *)
let batch_conditioned (e : engine) ~db ~relation ~gen ~eps ~asserts =
  let db_path, name =
    match (gen, db, relation) with
    | None, Some p, Some r -> (p, r)
    | Some _, _, _ ->
        failwith
          "--assert needs stored tables (--db/--relation); constraints \
           cannot reference --gen synthetic lineage"
    | _ -> failwith "give --db PATH --relation NAME with --assert"
  in
  let udb = Udb_io.load db_path in
  let sets = Udb.relation_sets udb name in
  let cset = constraint_set_of ~asserts ~stmts:[] in
  let compiled = Condition.compile udb cset in
  let den, _ =
    Condition.solve_batch ?budget:e.budget ?fuel:e.fuel ~seed:e.seed
      (Udb.wtable udb) compiled sets ~eps ~delta:e.delta
      ~emit:emit_batch_outcome
  in
  Format.eprintf
    "-- %d tuples conditioned on %a: Pr(c) in [%h, %h], %d denominator \
     trials@."
    (Array.length sets) Cset.pp cset den.Compile.lo den.hi den.trials

let batch_cmd engine db relation gen gen_seed eps shard_size checkpoint
    resume retries workers connect lease_ttl heartbeat_interval reconnects
    io_timeout_s asserts () =
  let ({ seed; delta; fuel = compile_fuel; budget; _ } as e) = engine () in
  check_unit_interval "eps" eps;
  check_nonneg_int "workers" (Some workers);
  check_nonneg_int "reconnects" reconnects;
  check_positive_float "io-timeout" io_timeout_s;
  check_liveness_cadence ~heartbeat_interval ~lease_ttl ~io_timeout_s;
  let endpoints = List.map (parse_endpoint ~flag:"connect") connect in
  let workers =
    match endpoints with
    | [] -> workers
    | eps ->
        let n = List.length eps in
        if workers <> 0 && workers <> n then
          failwith
            (Printf.sprintf
               "--workers %d disagrees with %d --connect endpoints; the \
                fleet size is the endpoint count, drop --workers"
               workers n);
        n
  in
  let options = make_stream ~shard_size ~checkpoint ~resume ~retries in
  if asserts <> [] then begin
    (* The denominator couples all tuples, so the sharded / checkpointed /
       distributed machinery (whose unit is an independent shard) does not
       compose — refuse loudly rather than emit bytes that silently mean
       something else. *)
    if workers <> 0 || endpoints <> [] then
      failwith "--assert does not compose with --workers/--connect";
    if options <> None then
      failwith
        "--assert does not compose with \
         --shard-size/--checkpoint/--resume/--retries";
    batch_conditioned e ~db ~relation ~gen ~eps ~asserts
  end
  else begin
    let w, sets = batch_inputs ~db ~relation ~gen ~gen_seed in
    let rng = Rng.create ~seed in
    let module C = Pqdb_montecarlo.Confidence in
    if workers = 0 then begin
      let summary =
        C.run_stream ?budget ?compile_fuel ?options rng w sets ~eps ~delta
          ~emit:emit_batch_outcome
      in
      report_stream_summary ~tuples:(Array.length sets) summary
    end
    else begin
      let module D = Pqdb_distrib.Coordinator in
      let opts = Option.value options ~default:C.default_stream_options in
      let argv =
        worker_argv e ~gen ~gen_seed ~eps ~shard_cost:opts.C.shard_cost
          ~heartbeat_interval
      in
      let source =
        match (db, relation) with
        | Some d, Some r -> Some (d, r)
        | _ -> None
      in
      let endpoint = Array.of_list endpoints in
      let spawn =
        if endpoint = [||] then fun _ ->
          D.process_transport ?io_timeout_s argv
        else fun id ->
          (* Listeners may still be starting (or restarting after a kill):
             dial patiently, the backoff is jittered per connection. *)
          let host, port = endpoint.(id mod Array.length endpoint) in
          D.tcp_transport ?io_timeout_s ~retries:40 ~retry_delay_s:0.1 ~host
            ~port ()
      in
      let max_reconnects =
        match reconnects with
        | Some n -> n
        | None -> if endpoint <> [||] then 3 else 0
      in
      let summary =
        D.run ?budget ?compile_fuel ~options:opts ~lease_ttl_s:lease_ttl
          ~max_reconnects ?source ~workers ~spawn rng w sets ~eps ~delta
          ~emit:emit_batch_outcome
      in
      report_stream_summary ~tuples:(Array.length sets) summary.D.stream;
      Format.eprintf
        "-- distrib: %d workers (%d lost, %d reconnected), %d shards \
         reassigned (%d leases expired, %d late deliveries dropped), %d \
         solved in-process%s@."
        summary.D.workers_spawned summary.D.workers_lost summary.D.reconnects
        summary.D.reassigned summary.D.leases_expired summary.D.late_drops
        summary.D.fallback_shards
        (match summary.D.compacted with
        | Some (kept, dropped) ->
            Printf.sprintf ", journal compacted (%d kept, %d dropped)" kept
              dropped
        | None -> "")
    end
  end;
  report_budget ~ppf:Format.err_formatter budget;
  report_rss ();
  0

(* --- worker ----------------------------------------------------------- *)

let worker_cmd engine db relation gen gen_seed eps shard_size listen
    heartbeat_interval sessions () =
  let { seed; delta; fuel = compile_fuel; _ } = engine () in
  check_unit_interval "eps" eps;
  check_positive_int "shard-size" shard_size;
  check_positive_float "heartbeat-interval" (Some heartbeat_interval);
  check_positive_int "sessions" sessions;
  (* Local data arguments pin the source; without them it is the one the
     coordinator's greeting Hello names. *)
  let resolve src =
    match (gen, db, relation, src) with
    | None, None, None, Some (d, r) -> stored_inputs d r
    | None, None, None, None ->
        failwith
          "coordinator greeting names no data source; give --gen N or \
           --db/--relation"
    | _ -> batch_inputs ~db ~relation ~gen ~gen_seed
  in
  match listen with
  | Some endpoint ->
      (* Remote listener: serve coordinator dials on a TCP socket.  The
         data source is resolved lazily from each session's greeting
         Hello (and cached), unless local data arguments pin it; run
         parameters stay operator-provided — the handshake refuses a
         coordinator they drifted from. *)
      let host, port = parse_endpoint ~flag:"listen" endpoint in
      Pqdb_distrib.Worker.listen ?compile_fuel ?shard_cost:shard_size
        ~heartbeat_s:heartbeat_interval ?max_sessions:sessions
        ~ready:(fun p ->
          Printf.printf "pqdb-worker listening on tcp:%s:%d\n%!" host p)
        ~make_rng:(fun () -> Rng.create ~seed)
        ~resolve ~host ~port ~eps ~delta ();
      0
  | None ->
      let source =
        if gen <> None || db <> None || relation <> None then None
        else
          (* Bare worker: the coordinator's greeting Hello (the first
             frame on stdin) names the stored data source, so the path
             is stated once — on the coordinator's command line —
             instead of being duplicated into every worker's argv or
             regenerated from a seed.  Worker.serve ignores any later
             greeting replays.  Read off the fd, not the channel:
             Worker.serve reads orders with fd-level deadlines and
             channel read-ahead would steal bytes from it. *)
          match
            Pqdb_distrib.Protocol.read_fd_frame ~timeout_s:30. Unix.stdin
          with
          | Some (Pqdb_distrib.Protocol.Hello { source; _ }) -> source
          | Some _ | None ->
              failwith "expected a coordinator greeting on stdin"
      in
      let w, sets = resolve source in
      let rng = Rng.create ~seed in
      (* stdout belongs to the protocol: everything human goes to
         stderr. *)
      Pqdb_distrib.Worker.serve ?compile_fuel ?shard_cost:shard_size
        ~heartbeat_s:heartbeat_interval rng w sets ~eps ~delta ~input:stdin
        ~output:stdout;
      0

(* --- convert / gen ---------------------------------------------------- *)

(* Format conversion dispatches on extension: a path ending in .udbb is the
   binary columnar format, anything else the text directory format.
   --verify re-loads both sides and compares their canonical binary images
   byte for byte — the binary encoder is deterministic (sorted row sets,
   var-id order), so equality means the conversion lost nothing. *)
let canonical_image udb =
  let tmp =
    Filename.temp_file "pqdb-verify" Pqdb_urel.Udb_binary.extension
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Pqdb_urel.Udb_binary.save tmp udb;
      In_channel.with_open_bin tmp In_channel.input_all)

let convert_cmd verify src dst () =
  let udb = Udb_io.load src in
  Udb_io.save dst udb;
  if verify then begin
    let a = canonical_image (Udb_io.load src) in
    let b = canonical_image (Udb_io.load dst) in
    if not (String.equal a b) then
      failwith
        (Printf.sprintf
           "round-trip verification failed: %s and %s decode to different \
            databases"
           src dst);
    Format.eprintf "-- verified: %s and %s are canonically identical@." src
      dst
  end;
  Format.printf "converted %s -> %s@." src dst;
  0

let gen_db_cmd tuples clauses gen_seed dirty max_dups dest () =
  check_positive_int "tuples" (Some tuples);
  check_positive_int "clauses" (Some clauses);
  check_nonneg_int "gen-seed" (Some gen_seed);
  check_nonneg_int "dirty" (Some dirty);
  check_positive_int "max-dups" (Some max_dups);
  let dir = Filename.dirname dest in
  if not (Sys.file_exists dir) then
    failwith
      (Printf.sprintf
         "destination directory %S does not exist (create it first)" dir);
  let rng = Rng.create ~seed:gen_seed in
  let udb = Pqdb_workload.Gen.uncertain_db rng ~tuples ~clauses in
  if dirty > 0 then
    Pqdb_workload.Gen.add_dirty_people rng udb ~entities:dirty ~max_dups;
  Udb_io.save dest udb;
  Format.printf "wrote %s: %d tuples in relation events%s@." dest tuples
    (if dirty > 0 then
       Printf.sprintf
         ", plus %d entities (up to %d duplicates each) in relation people"
         dirty max_dups
     else "");
  0

(* --- serve / query ---------------------------------------------------- *)

(* Endpoint validation shared by the daemon and the client: exactly one of
   --socket/--port, a port in range, a socket path that a bind (or connect)
   could actually use — caught here as friendly messages instead of
   surfacing as EINVAL/ENAMETOOLONG from deep inside the socket layer. *)
let listen_of ~socket ~port =
  let module Server = Pqdb_serve.Server in
  match (socket, port) with
  | None, None ->
      failwith "give --socket PATH or --port N to name the endpoint"
  | Some _, Some _ ->
      failwith "give exactly one of --socket and --port, not both"
  | Some path, None ->
      if String.trim path = "" then failwith "--socket path must not be empty";
      if String.length path > 100 then
        failwith
          (Printf.sprintf
             "--socket path is %d bytes; Unix socket paths are limited to \
              about 100"
             (String.length path));
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        failwith
          (Printf.sprintf "--socket: directory %S does not exist" dir);
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> ()
      | _ ->
          failwith
            (Printf.sprintf
               "--socket: %S exists and is not a socket; refusing to \
                replace it"
               path)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      Server.Unix_socket path
  | None, Some p ->
      if p < 1 || p > 65535 then
        failwith (Printf.sprintf "--port must be in 1..65535, got %d" p);
      Server.Tcp p

let serve_cmd db socket port cache_entries session_trials session_deadline_s
    io_timeout_s idle_timeout_s max_sessions watchdog_s faultpoints () =
  let module Server = Pqdb_serve.Server in
  apply_faultpoints faultpoints;
  check_positive_int "cache-entries" (Some cache_entries);
  check_positive_int "session-trials" session_trials;
  check_positive_float "session-deadline" session_deadline_s;
  check_positive_float "io-timeout" io_timeout_s;
  check_positive_float "idle-timeout" idle_timeout_s;
  check_positive_int "max-sessions" max_sessions;
  check_positive_float "watchdog" watchdog_s;
  if not (Sys.file_exists db) then
    failwith (Printf.sprintf "database %S does not exist" db);
  let listen = listen_of ~socket ~port in
  let config =
    {
      Server.db_path = db;
      listen;
      cache_entries;
      session_trials;
      session_deadline_s;
      io_timeout_s;
      idle_timeout_s;
      max_sessions;
      watchdog_s;
    }
  in
  let server = Server.create config in
  let stats =
    Server.run server ~ready:(fun () ->
        (* The readiness line scripts wait for before connecting. *)
        Format.printf "pqdb-serve listening on %s@." (Server.pp_listen listen))
  in
  let c = stats.Server.cache in
  Format.eprintf
    "-- served %d sessions, %d queries (%d errors, %d dropped, %d shed, \
     %d reaped)@."
    stats.Server.sessions stats.Server.queries stats.Server.errors
    stats.Server.dropped stats.Server.shed stats.Server.reaped;
  Format.eprintf "-- cache: %d hits, %d misses, %d evictions, %d entries \
                  resident (cap %d)@."
    c.Pqdb_montecarlo.Memo.hits c.Pqdb_montecarlo.Memo.misses
    c.Pqdb_montecarlo.Memo.evictions c.Pqdb_montecarlo.Memo.entries
    cache_entries;
  0

let query_cmd socket port retries retry_delay_s timeout_s asserts spec_words
    () =
  let module Client = Pqdb_serve.Client in
  check_nonneg_int "retries" (Some retries);
  check_positive_float "retry-delay" retry_delay_s;
  check_positive_float "timeout" timeout_s;
  let listen = listen_of ~socket ~port in
  let spec = String.concat " " spec_words in
  if String.trim spec = "" then
    failwith
      "no request given; try e.g.: pqdb query --socket S conf events";
  (* Constraint state is per serve session: each --assert is sent as its
     own request on the same connection, before the query, so a conf
     reply is conditioned on their conjunction.  Parsed locally first —
     a typo fails here, without a round trip. *)
  List.iter (fun a -> ignore (Qparser.parse_constraint a)) asserts;
  (* --timeout T budgets the query end to end: conf requests carry
     [deadline=T] to the server, whose anytime engine answers by the
     cutoff with the sound brackets reached so far (the degraded answer),
     while the client arms a slightly larger socket deadline that turns a
     genuinely wedged daemon into a typed Timeout instead of a hang. *)
  let spec, io_timeout_s =
    match timeout_s with
    | None -> (spec, None)
    | Some t ->
        let spec =
          let has_deadline =
            List.exists
              (fun w -> String.length w >= 9 && String.sub w 0 9 = "deadline=")
              (String.split_on_char ' ' spec)
          in
          if
            String.length spec >= 5
            && String.sub spec 0 5 = "conf "
            && not has_deadline
          then Printf.sprintf "%s deadline=%g" spec t
          else spec
        in
        (spec, Some ((t *. 1.5) +. 1.0))
  in
  let c =
    Client.connect ~retries
      ?retry_delay_s
      ?io_timeout_s listen
  in
  let ok, body =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let rec with_asserts = function
          | [] -> Client.query c spec
          | a :: rest -> (
              match Client.query c ("assert " ^ a) with
              | true, _ -> with_asserts rest
              | (false, _) as err -> err)
        in
        with_asserts asserts)
  in
  if ok then begin
    print_string body;
    flush stdout;
    0
  end
  else begin
    Format.eprintf "error: %s@." body;
    1
  end

(* --- checkpoint ------------------------------------------------------- *)

let compact_cmd path () =
  let kept, dropped = Pqdb_montecarlo.Shard.compact_journal path in
  Format.printf "compacted %s: %d records kept, %d dropped@." path kept
    dropped;
  0

(* --- repl ------------------------------------------------------------- *)

let repl_help =
  {|commands:
  \load NAME FILE.csv   load a complete base table from CSV
  \save DIR             persist the session database (tables only)
  \open DIR             import complete relations from a saved database
  \tables               list tables and views
  \approx on|off        toggle approximate evaluation (default off)
  \delta X              target error bound for approximate runs (default 0.05)
  \plan QUERY;          show the (optimized) algebra instead of evaluating
  \explain QUERY;       evaluate exactly and print tuple provenance
  \help                 this message
  \quit                 leave
statements (terminated by ';'):
  let NAME = QUERY;     define a view
  QUERY;                evaluate and print|}

let repl_cmd seed () =
  let udb = Udb.create () in
  let views = ref [] in
  let approx = ref false in
  let delta = ref 0.05 in
  let rng = Rng.create ~seed in
  let buffer = Buffer.create 256 in
  Format.printf "pqdb repl — \\help for help@.";
  let substitute text =
    (* Prepend accumulated view definitions so references resolve. *)
    let defs =
      String.concat ""
        (List.rev_map
           (fun (name, src) -> Printf.sprintf "let %s = %s;\n" name src)
           !views)
    in
    defs ^ text
  in
  let strip_semi text =
    if String.length text > 0 && text.[String.length text - 1] = ';' then
      String.sub text 0 (String.length text - 1)
    else text
  in
  let evaluate text =
    match Qparser.parse_program (substitute text) with
    | _, None -> ()
    | _, Some q ->
        if !approx then begin
          let result, stats, budget =
            Pqdb.Eval_approx.eval_with_guarantee ~rng ~delta:!delta
              (Udb.copy udb) q
          in
          print_result_urel result.Pqdb.Eval_approx.urel;
          List.iter
            (fun (t, e) ->
              Format.printf "--   %a: error <= %.6f@." Tuple.pp t e)
            result.Pqdb.Eval_approx.errors;
          Format.printf "-- %d decisions, %d estimator calls, budget %d@."
            stats.Pqdb.Eval_approx.decisions
            stats.Pqdb.Eval_approx.estimator_calls budget
        end
        else print_result_urel (Pqdb.Eval_exact.eval (Udb.copy udb) q)
  in
  let handle_statement text =
    let trimmed = String.trim text in
    if trimmed = "" then ()
    else begin
      (* A let-statement defines a view; remember its source. *)
      match Qparser.parse_program (substitute text) with
      | new_views, None ->
          (* Record only the textual definition of the *new* statement. *)
          let prefix = "let " in
          let t = String.trim text in
          if String.length t > 4 && String.lowercase_ascii (String.sub t 0 4) = prefix
          then begin
            match String.index_opt t '=' with
            | Some i ->
                let name = String.trim (String.sub t 4 (i - 4)) in
                let body =
                  strip_semi
                    (String.trim (String.sub t (i + 1) (String.length t - i - 1)))
                in
                views := (name, body) :: List.remove_assoc name !views;
                Format.printf "view %s defined@." name
            | None -> ignore new_views
          end
      | _, Some _ -> evaluate text
    end
  in
  (* \explain and \plan take the rest of the line as a query. *)
  let with_query rest f =
    match
      Qparser.parse_program (substitute (strip_semi (String.concat " " rest)))
    with
    | _, Some q -> f q
    | _, None -> Format.printf "no query@."
  in
  let handle_command line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "\\quit" ] | [ "\\q" ] -> raise Exit
    | [ "\\help" ] -> Format.printf "%s@." repl_help
    | [ "\\tables" ] ->
        List.iter (fun n -> Format.printf "table %s@." n) (Udb.names udb);
        List.iter (fun (n, _) -> Format.printf "view %s@." n) (List.rev !views)
    | [ "\\approx"; "on" ] ->
        approx := true;
        Format.printf "approximate evaluation on (delta = %g)@." !delta
    | [ "\\approx"; "off" ] ->
        approx := false;
        Format.printf "approximate evaluation off@."
    | [ "\\delta"; x ] -> begin
        match float_of_string_opt x with
        | Some d when d > 0. && d < 1. ->
            delta := d;
            Format.printf "delta = %g@." d
        | _ -> Format.printf "expected a delta in (0, 1)@."
      end
    | [ "\\open"; dir ] -> begin
        match Udb_io.load dir with
        | fresh ->
            List.iter
              (fun name ->
                if not (Udb.mem udb name) then begin
                  let u = Udb.find fresh name in
                  (* Conditions refer to the fresh W table; only complete
                     relations can be imported into the session database. *)
                  if Urelation.is_complete_rep u then
                    Udb.add_complete udb name (Urelation.to_relation u)
                  else
                    Format.printf
                      "skipping uncertain %s (use --db on the run command)@."
                      name
                end)
              (Udb.names fresh);
            Format.printf "opened %s@." dir
        | exception Sys_error msg -> Format.printf "cannot open: %s@." msg
        | exception Invalid_argument msg -> Format.printf "bad db: %s@." msg
        | exception Pqdb_error.Error e ->
            Format.printf "bad db: %s@." (Pqdb_error.to_string e)
      end
    | [ "\\save"; dir ] -> begin
        match Udb_io.save dir udb with
        | () -> Format.printf "saved to %s@." dir
        | exception Sys_error msg -> Format.printf "cannot save: %s@." msg
      end
    | "\\load" :: name :: path :: [] -> begin
        match Csv.load path with
        | rel ->
            Udb.add_complete udb name rel;
            Format.printf "loaded %s (%d tuples)@." name
              (Relation.cardinality rel)
        | exception Sys_error msg -> Format.printf "cannot load: %s@." msg
        | exception Invalid_argument msg -> Format.printf "bad csv: %s@." msg
      end
    | [ "\\explain" ] -> Format.printf "usage: \\explain QUERY;@."
    | "\\explain" :: rest ->
        with_query rest (fun q ->
            print_provenance (Pqdb.Provenance.compute (Udb.copy udb) q))
    | [ "\\plan" ] -> Format.printf "usage: \\plan QUERY;@."
    | "\\plan" :: rest ->
        with_query rest (fun q ->
            let optimized = Pqdb.Optimizer.optimize_for udb q in
            Format.printf "%s@." (Pqdb_lang.Pretty.query_to_string optimized))
    | _ -> Format.printf "unknown command; \\help for help@."
  in
  (* A bad command or statement is reported and the session goes on. *)
  let report f =
    try f () with
    | Qparser.Error (msg, off) -> Format.printf "parse error at %d: %s@." off msg
    | Pqdb_lang.Lexer.Error (msg, off) ->
        Format.printf "lex error at %d: %s@." off msg
    | Pqdb.Eval_exact.Unsupported msg | Pqdb.Epsilon.Unsupported msg ->
        Format.printf "unsupported: %s@." msg
    | Invalid_argument msg | Failure msg -> Format.printf "error: %s@." msg
    | Pqdb_error.Error e ->
        Format.printf "error: %s@." (Pqdb_error.to_string e)
  in
  (try
     while true do
       if Buffer.length buffer = 0 then Format.printf "pqdb> @?"
       else Format.printf "  ... @?";
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line ->
           if Buffer.length buffer = 0 && String.length (String.trim line) > 0
              && (String.trim line).[0] = '\\'
           then report (fun () -> handle_command line)
           else begin
             Buffer.add_string buffer line;
             Buffer.add_char buffer '\n';
             if String.contains line ';' then begin
               let text = Buffer.contents buffer in
               Buffer.clear buffer;
               report (fun () -> handle_statement text)
             end
           end
     done
   with Exit -> Format.printf "bye@.");
  0

(* --- cmdliner wiring -------------------------------------------------- *)

open Cmdliner

(* Every subcommand body runs inside [guard]. *)
let guarded ?prefix info term = Cmd.v info Term.(const (guard ?prefix) $ term)

let db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"PATH"
        ~doc:
          "Load a saved U-relational database: a text directory, or a \
           binary columnar $(b,.udbb) file (memory-mapped, relations \
           decoded lazily).")

let tables_arg =
  Arg.(
    value & opt_all string []
    & info [ "table"; "t" ] ~docv:"NAME=FILE"
        ~doc:"Load a complete base table from a CSV file (repeatable).")

let query_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "query-file"; "f" ] ~docv:"FILE"
        ~doc:"Read the query program from a file.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize"; "O" ]
        ~doc:"Run the logical optimizer (selection push-down etc.) first.")

let approx_arg =
  Arg.(
    value & flag
    & info [ "approx"; "a" ]
        ~doc:
          "Evaluate approximately: Karp-Luby confidence and Figure-3 \
           approximate selection with the Theorem 6.7 doubling driver.")

let delta_arg =
  Arg.(
    value & opt float 0.05
    & info [ "delta" ] ~docv:"DELTA"
        ~doc:
          "Target error bound for approximate evaluation.  A sampled \
           Karp-Luby confidence interval is proven to hold with probability \
           at least 1-2*DELTA: its stopping rule and its trial cap may \
           each fail with probability DELTA.")

let eps0_arg =
  Arg.(
    value & opt float 0.05
    & info [ "eps0" ] ~docv:"EPS0"
        ~doc:"Relative-width floor of the predicate approximation.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Anytime mode: wall-clock budget in seconds for the sampling \
           layers.  On expiry the engine stops sampling and reports what \
           the trials so far certify (wider intervals, degraded but sound).")

let max_trials_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-trials" ] ~docv:"N"
        ~doc:
          "Anytime mode: cap the total number of Monte Carlo estimator \
           trials across the whole run.")

let compile_fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "compile-fuel" ] ~docv:"FUEL"
        ~doc:
          "Lineage-compilation fuel per candidate (0 disables compilation \
           and recovers pure-sampling multisimulation).")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (runs are reproducible).")

let query_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"The UA query (or program with let views).")

let faultpoints_arg =
  Arg.(
    value & opt_all string []
    & info [ "faultpoints" ] ~docv:"SITE[:N][@MODE][,...]"
        ~doc:
          "Arm fault-injection sites for robustness drills (comma-separated, \
           repeatable), like the PQDB_FAULTPOINTS environment variable.  \
           Each entry names a known site, optionally with a shot count and \
           a behavior: $(b,@raise) (default), $(b,@delay:MS), \
           $(b,@stall) (block until disarmed, capped), or $(b,@torn) \
           (truncated write).")

(* run has no --compile-fuel and worker no --deadline/--max-trials; a knob
   a command lacks stays unset. *)
let engine_term ?(fuel = true) ?(budget = true) () =
  let unset = Term.const None in
  Term.(
    const make_engine $ seed_arg $ delta_arg
    $ (if fuel then compile_fuel_arg else unset)
    $ (if budget then deadline_arg else unset)
    $ (if budget then max_trials_arg else unset)
    $ faultpoints_arg)

let shard_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-size" ] ~docv:"COST"
        ~doc:
          "Streaming: worst-case-trial cost ceiling per shard.  Bounds \
           resident memory and the work a crash can lose.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Streaming: append every completed shard to this crash-safe \
           journal (CRC-framed, fsync'd before the shard is reported).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from the journal of an interrupted run (implies \
           $(b,--checkpoint) $(docv)): completed shards are replayed \
           bit-identically, computation restarts at the first gap.")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Streaming: attempts after a shard's first failure before it is \
           quarantined (reported with sound a-priori brackets and the typed \
           error).")

let asserts_arg =
  Arg.(
    value & opt_all string []
    & info [ "assert" ] ~docv:"CONSTRAINT"
        ~doc:
          "Condition answers on an integrity constraint (repeatable; the \
           active set is the conjunction): $(b,fd[K -> D](table)) — a \
           functional dependency, $(b,empty(q)) — a denial (q has no \
           answer), or $(b,(q)) — q has some answer.  Confidences become \
           Pr(tuple | constraints), renormalized by Pr(constraints); an \
           unsatisfiable constraint set is a typed error, never a division \
           by zero.")

let run_term =
  Term.(
    const run_cmd $ engine_term ~fuel:false () $ db_arg $ tables_arg
    $ query_file_arg $ approx_arg $ optimize_arg $ eps0_arg $ shard_size_arg
    $ checkpoint_arg $ resume_arg $ retries_arg $ asserts_arg $ query_arg)

let run_cmd_info =
  Cmd.info "run" ~doc:"Evaluate a UA query over CSV base tables."

let parse_term =
  Term.(
    const parse_cmd
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"QUERY" ~doc:"The query to parse."))

let parse_cmd_info = Cmd.info "parse" ~doc:"Parse a query, print the algebra."

let demo_term =
  Term.(
    const demo_cmd
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"NAME" ~doc:"coin | cleaning | sensors")
    $ seed_arg)

let demo_cmd_info = Cmd.info "demo" ~doc:"Run a built-in scenario."

let k_arg =
  Arg.(
    value & opt int 3
    & info [ "k" ] ~docv:"K" ~doc:"How many tuples to return (default 3).")

let topk_term =
  Term.(
    const topk_cmd $ engine_term () $ db_arg $ tables_arg $ query_file_arg
    $ k_arg $ asserts_arg $ query_arg)

let topk_cmd_info =
  Cmd.info "topk"
    ~doc:
      "Rank the query's possible tuples by confidence (interval-pruning \
       multisimulation) and return the k most probable."

let explain_term =
  Term.(const explain_cmd $ db_arg $ tables_arg $ query_file_arg $ query_arg)

let explain_cmd_info =
  Cmd.info "explain"
    ~doc:
      "Evaluate exactly and print each result tuple's provenance (the \
       precedes-relation of Section 6)."

let gen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "gen" ] ~docv:"N"
        ~doc:
          "Generate N synthetic lineage sets (mostly Bernoulli singletons \
           with a hard random-DNF minority) instead of loading a database.")

let gen_seed_arg =
  Arg.(
    value & opt int 209
    & info [ "gen-seed" ] ~docv:"SEED"
        ~doc:"Seed for the synthetic $(b,--gen) workload.")

let relation_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "relation" ] ~docv:"NAME"
        ~doc:
          "With $(b,--db): compute confidence for every possible tuple of \
           this stored relation.")

let eps_arg =
  Arg.(
    value & opt float 0.1
    & info [ "eps" ] ~docv:"EPS"
        ~doc:"Additive error target of each confidence interval.")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Distributed mode: deal shards to N worker processes (spawned \
           from this executable's $(b,worker) subcommand) and reconcile \
           their answers, surviving worker crashes by reassignment.  0 \
           (default) runs in-process.  stdout is byte-identical either \
           way.")

let connect_arg =
  Arg.(
    value & opt_all string []
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Remote mode: instead of forking local workers, dial a \
           $(b,pqdb worker --listen) endpoint (repeatable; a bare PORT \
           means 127.0.0.1).  One worker per occurrence unless \
           $(b,--workers) asks for more, in which case endpoints are dealt \
           round-robin.  Remote links are partition-tolerant: an expired \
           lease suspends the worker and requeues its shard; lost \
           connections are redialed ($(b,--reconnects)); stdout stays \
           byte-identical throughout.")

let lease_ttl_arg =
  Arg.(
    value & opt float 30.
    & info [ "lease-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Lease granted to each admitted worker, renewed by its \
           heartbeats: a worker silent past the TTL has its in-flight \
           shard reassigned even if the socket still looks alive.  Must \
           exceed $(b,--heartbeat-interval) and sit below \
           $(b,--io-timeout) when one is set.")

let heartbeat_interval_arg =
  Arg.(
    value & opt float 0.25
    & info [ "heartbeat-interval" ] ~docv:"SECONDS"
        ~doc:
          "Worker heartbeat cadence, i.e. the bound on inter-frame silence \
           from a healthy worker.  Must be below $(b,--lease-ttl); workers \
           clamp their own cadence if a coordinator's lease would outpace \
           it.")

let reconnects_arg =
  Arg.(
    value & opt (some int) None
    & info [ "reconnects" ] ~docv:"N"
        ~doc:
          "Redial a lost remote connection up to N times per worker slot, \
           with capped jittered backoff; the fresh connection \
           re-handshakes before rejoining.  Default: 3 when \
           $(b,--connect) is given, else 0.")

let batch_term =
  Term.(
    const batch_cmd $ engine_term () $ db_arg $ relation_arg $ gen_arg
    $ gen_seed_arg $ eps_arg $ shard_size_arg $ checkpoint_arg $ resume_arg
    $ retries_arg $ workers_arg $ connect_arg $ lease_ttl_arg
    $ heartbeat_interval_arg $ reconnects_arg
    $ Arg.(
        value
        & opt (some float) None
        & info [ "io-timeout" ] ~docv:"SECONDS"
            ~doc:
              "Deadline on every coordinator-side worker send/recv \
               (select-guarded): a worker wedged mid-frame is treated as \
               lost and its shard reassigned, instead of hanging the run.  \
               Pick it above the worker heartbeat interval and the lease \
               TTL.  Default: block.")
    $ asserts_arg)

let batch_cmd_info =
  Cmd.info "batch"
    ~doc:
      "Streaming sharded batch confidence: per-tuple (eps, delta) intervals \
       over raw lineage, with optional crash-safe checkpointing, resume, \
       retry/quarantine containment, budget-aware shard scheduling and \
       multi-process execution ($(b,--workers)).  stdout is one \
       bit-reproducible line per tuple; diagnostics go to stderr."

let worker_term =
  Term.(
    const worker_cmd $ engine_term ~budget:false () $ db_arg $ relation_arg
    $ gen_arg $ gen_seed_arg $ eps_arg $ shard_size_arg
    $ Arg.(
        value
        & opt (some string) None
        & info [ "listen" ] ~docv:"HOST:PORT"
            ~doc:
              "Serve coordinator connections on a TCP socket instead of \
               stdin/stdout (a bare PORT binds 127.0.0.1; port 0 picks an \
               ephemeral port, reported on stdout).  Sessions are served \
               one at a time; compiled lineage is cached across sessions \
               per data source.  Survives coordinator restarts: each \
               session re-handshakes with the same drift-refusal probe.")
    $ heartbeat_interval_arg
    $ Arg.(
        value
        & opt (some int) None
        & info [ "sessions" ] ~docv:"N"
            ~doc:
              "With $(b,--listen): exit after serving N coordinator \
               sessions.  Default: serve forever."))

let worker_cmd_info =
  Cmd.info "worker"
    ~doc:
      "Shard worker for $(b,batch --workers): speaks the coordinator \
       protocol on stdin/stdout (orders in, bit-exact shard outcomes out), \
       or on a TCP socket with $(b,--listen) for $(b,batch --connect).  \
       Takes the same input parameters as $(b,batch); the handshake refuses \
       a coordinator whose parameters or seed drifted.  Not intended for \
       interactive use."

let convert_term =
  Term.(
    const convert_cmd
    $ Arg.(
        value & flag
        & info [ "verify" ]
            ~doc:
              "After converting, re-load both sides and compare their \
               canonical binary images byte for byte.")
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"SRC"
            ~doc:"Source database (text directory or $(b,.udbb) file).")
    $ Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"DST"
            ~doc:
              "Destination; a $(b,.udbb) suffix selects the binary columnar \
               format, anything else the text directory format."))

let convert_cmd_info =
  Cmd.info "convert"
    ~doc:
      "Convert a stored database between the text directory format and the \
       binary columnar $(b,.udbb) format (either direction, dispatched on \
       the destination's extension).  Binary databases memory-map on load: \
       cold start touches only the pages it needs, and concurrent \
       $(b,batch --workers) processes share one read-only mapping through \
       the page cache."

let gen_db_term =
  Term.(
    const gen_db_cmd
    $ Arg.(
        value & opt int 1000
        & info [ "tuples" ] ~docv:"N"
            ~doc:"Uncertain tuples in the generated $(b,events) relation.")
    $ Arg.(
        value & opt int 3
        & info [ "clauses" ] ~docv:"K"
            ~doc:"Maximum clause rows per tuple (capped at 3).")
    $ gen_seed_arg
    $ Arg.(
        value & opt int 0
        & info [ "dirty" ] ~docv:"N"
            ~doc:
              "Also generate a duplicate-heavy $(b,people) relation: N \
               entities, each with up to $(b,--max-dups) independent \
               candidate tuples sharing the key $(b,id) — the \
               deduplication fixture for conditioning on \
               $(b,fd[id -> name](people)).  Default: 0 (omit it).")
    $ Arg.(
        value & opt int 3
        & info [ "max-dups" ] ~docv:"K"
            ~doc:"Duplicate candidates per $(b,--dirty) entity (1 to K).")
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"DEST"
            ~doc:
              "Where to write the database ($(b,.udbb) for binary, \
               otherwise a text directory)."))

let gen_db_cmd_info =
  Cmd.info "gen"
    ~doc:
      "Generate a synthetic uncertain database (relation $(b,events) with \
       exact-rational Bernoulli lineage, plus a complete $(b,tags) \
       relation) and store it — the fixture behind the storage CI job and \
       the $(b,convert --verify) round-trip."

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket endpoint (exclusive with $(b,--port)).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "TCP endpoint on 127.0.0.1 (exclusive with $(b,--socket)).")

let serve_term =
  Term.(
    const serve_cmd
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"DB"
            ~doc:
              "The database to serve ($(b,.udbb) file or text directory); \
               a binary database stays resident as one shared read-only \
               mapping.")
    $ socket_arg $ port_arg
    $ Arg.(
        value
        & opt int Pqdb_montecarlo.Memo.default_entries
        & info [ "cache-entries" ] ~docv:"N"
            ~doc:
              "Compiled-lineage cache capacity in entries (LRU beyond it).")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "session-trials" ] ~docv:"N"
            ~doc:
              "Admission control: estimator-trial allowance per session; \
               queries degrade anytime-style as it drains and are refused \
               once it is spent.  Default: unlimited (bit-identical \
               replies).")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "session-deadline" ] ~docv:"SECONDS"
            ~doc:
              "Admission control: wall-clock allowance per session.  \
               Default: unlimited.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "io-timeout" ] ~docv:"SECONDS"
            ~doc:
              "Deadline on every session frame write (select-guarded); a \
               peer that stops reading gets its session closed instead of \
               wedging a thread.  Default: block.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "idle-timeout" ] ~docv:"SECONDS"
            ~doc:
              "Reap sessions idle (no request) longer than this.  \
               Default: $(b,--io-timeout), else never.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "max-sessions" ] ~docv:"N"
            ~doc:
              "In-flight session cap: beyond it new connections are shed \
               with an immediate typed busy reply instead of queueing \
               (counted in $(b,stats)).  Default: unbounded.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "watchdog" ] ~docv:"SECONDS"
            ~doc:
              "Wedged-session watchdog: a single request executing longer \
               than this gets its socket shut down, unblocking the peer.  \
               Default: off.")
    $ faultpoints_arg)

let serve_cmd_info =
  Cmd.info "serve"
    ~doc:
      "Resident daemon: load the database once, serve $(b,conf) queries \
       over a socket, and answer repeated or equivalent queries from a \
       shared compiled-lineage cache (normalization and compilation \
       skipped; replies byte-identical to cold runs).  Stop it with \
       $(b,pqdb query ... shutdown)."

let query_term =
  Term.(
    const query_cmd $ socket_arg $ port_arg
    $ Arg.(
        value & opt int 25
        & info [ "retries" ] ~docv:"N"
            ~doc:
              "Connection attempts before giving up — lets scripts query a \
               daemon they just forked, and waits out a daemon shedding \
               load.  Attempt $(i,k) backs off exponentially from \
               $(b,--retry-delay) (capped at 2s, deterministic jitter).  \
               Default 25.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "retry-delay" ] ~docv:"SECONDS"
            ~doc:
              "Base delay between connection attempts (doubles per \
               attempt, capped).  Default 0.2.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "timeout" ] ~docv:"SECONDS"
            ~doc:
              "End-to-end budget for the query: $(b,conf) requests carry \
               $(b,deadline=)$(docv) so the server answers by the cutoff \
               with the sound anytime brackets reached so far (a degraded \
               but correct answer), and the client turns a wedged daemon \
               into a typed timeout error slightly after.  Default: wait \
               forever.")
    $ asserts_arg
    $ Arg.(
        value & pos_all string []
        & info [] ~docv:"REQUEST"
            ~doc:
              "The request, e.g.: $(b,conf events eps=0.05 seed=7), \
               $(b,stats), $(b,shutdown).  Words are joined with spaces."))

let query_cmd_info =
  Cmd.info "query"
    ~doc:
      "Submit one request to a running $(b,pqdb serve) daemon and print \
       the reply body ($(b,conf) output is the batch per-tuple line format, \
       bit-exact; under $(b,trials=N) it is one-shard $(b,pqdb batch) \
       output under $(b,--max-trials) N)."

let compact_term =
  Term.(
    const compact_cmd
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"The checkpoint journal to compact."))

let checkpoint_group =
  Cmd.group
    (Cmd.info "checkpoint"
       ~doc:"Maintain crash-recovery journals written by $(b,--checkpoint).")
    [
      guarded
        (Cmd.info "compact"
           ~doc:
             "Rewrite a journal keeping only the latest record per shard \
              (atomic, crash-safe): a journal grown across many partial \
              runs resumes in O(live shards).  Conflicting duplicates fail \
              typed, exactly as resume would.")
        compact_term;
    ]

let repl_term = Term.(const repl_cmd $ seed_arg)

let repl_cmd_info =
  Cmd.info "repl" ~doc:"Interactive session: load CSVs, define views, query."

let main =
  Cmd.group
    (Cmd.info "pqdb" ~version:"1.0.0"
       ~doc:
         "Probabilistic database with approximate predicates and expressive \
          queries (Koch, PODS 2008).")
    [
      guarded run_cmd_info run_term;
      guarded parse_cmd_info parse_term;
      guarded demo_cmd_info demo_term;
      guarded repl_cmd_info repl_term;
      guarded explain_cmd_info explain_term;
      guarded topk_cmd_info topk_term;
      guarded batch_cmd_info batch_term;
      guarded ~prefix:"worker error" worker_cmd_info worker_term;
      guarded convert_cmd_info convert_term;
      guarded gen_db_cmd_info gen_db_term;
      guarded serve_cmd_info serve_term;
      guarded query_cmd_info query_term;
      checkpoint_group;
    ]

let () = exit (Cmd.eval' main)
