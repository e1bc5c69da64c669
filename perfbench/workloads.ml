(* The four workloads: inputs generated from the seed, one timed operation,
   its output check, and the traced replay that calls each layer's public
   functions in pipeline order. *)

open Perfbench_core
open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Mc = Pqdb_montecarlo
module Ua = Pqdb_ast.Ua
module Gen = Pqdb_workload.Gen
module Server = Pqdb_serve.Server
module Client = Pqdb_serve.Client
module H = Harness

let names = [ "query-aconf"; "query-sigma"; "batch"; "serve" ]

(* Generated inputs, sockets and span dumps live here, under the directory
   the benchmark is started from. *)
let run_dir = "_perfbench"

(* The engine's RNG seed, as [pqdb run --seed] defaults to: the workload
   seed picks the data, this one the sampling, so every op of a run does
   identical work. *)
let eval_seed = 42

(* Sizes.  Changing any of them changes what the benchmark measures. *)
let aconf_tuples = 1500
let aconf_text = "aconf[0.05, 0.01](project[id, tag](events join tags))"
let sigma_dbs = 30
let sigma_pool = 1000
let sigma_near = 4
let sigma_far = 36
let sigma_text = "aselect[$1 >= 0.5 | conf[id]](events)"
let setup_repeats = 5 (* set-ups at start; then one every [setup_every] s *)
let setup_every = 2.
let run_delta = 0.05 (* pqdb run's --delta default *)
let eps0 = 0.05 (* pqdb run's --eps0 default *)
let batch_runs = 48
let batch_tuples = 300
let batch_heavy = 30
let batch_eps = 0.1 (* pqdb batch's --eps default *)
let batch_delta = 0.05
let serve_relations = 8
let serve_tuples = 128
let serve_zipf_s = 2.0
let serve_cache = Mc.Memo.default_entries

(* Every per-layer metric, in report order.  A layer a workload does not
   run reports 0. *)
let layer_units =
  [
    ("Udb_binary.load_ms", "ms");
    ("Qparser.parse_ms", "ms");
    ("Translate.eval_ms", "ms");
    ("Translate.rows", "count");
    ("Urelation.group_ms", "ms");
    ("Urelation.tuples", "count");
    ("Urelation.clauses", "count");
    ("Lineage.normalize_ms", "ms");
    ("Lineage.kept_ratio", "ratio");
    ("Compile.compile_ms", "ms");
    ("Compile.nodes", "count");
    ("Compile.exact_share", "ratio");
    ("Compile.solve_ms", "ms");
    ("Karp_luby.trials", "count");
    ("Karp_luby.trials_vs_fixed", "ratio");
    ("Compile.exact_fraction", "ratio");
    ("Confidence.shards", "count");
    ("Eval_approx.self_ms", "ms");
    ("Predicate_approx.decide_ms", "ms");
    ("Predicate_approx.decisions", "count");
    ("Predicate_approx.estimator_calls", "count");
    ("Predicate_approx.round_limit_hits", "count");
    ("Eval_approx.sigma_self_ms", "ms");
    ("Memo.hit_ms", "ms");
    ("Memo.miss_ms", "ms");
    ("Memo.hits", "count");
    ("Memo.misses", "count");
    ("Memo.evictions", "count");
    ("Memo.hit_ratio", "ratio");
    ("Server.dispatch_ms", "ms");
    ("Protocol.wire_ms", "ms");
    ("Protocol.reply_bytes", "bytes");
    ("Gc.alloc_mb_per_op", "MB");
    ("Gc.major_per_op", "count");
    ("Trace.overhead_ms", "ms");
  ]

type report = {
  metrics : H.metric list;
  lines : string list;
  tally : H.tally;
  digest : string;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers.                                                      *)

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

let render_value = function
  | Value.Float f -> Printf.sprintf "%h" f
  | v -> Value.to_string v

let render_tuple t = String.concat "," (List.map render_value (Tuple.to_list t))

let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let urel_digest u =
  digest_lines (List.map (fun (_, t) -> render_tuple t) (Urelation.rows u))

(* Holds the first digest a run produced; later ops must match it. *)
let digest_gate () =
  let first = ref None in
  let check d =
    match !first with
    | None ->
        first := Some d;
        true
    | Some f -> String.equal f d
  in
  let get () = Option.value ~default:"-" !first in
  (check, get)

let parse text =
  match (Pqdb_lang.Qparser.parse_program_full text).Pqdb_lang.Qparser.query with
  | Some q -> q
  | None -> failwith "benchmark query has no final expression"

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* Allocation and major collections of [f], as per-op accumulators. *)
type gc_acc = { mutable words : float; mutable major : int; mutable ops : int }

let gc_acc () = { words = 0.; major = 0; ops = 0 }

let with_gc acc f =
  let w0 = alloc_words () and m0 = majors () in
  let r = f () in
  acc.words <- acc.words +. alloc_words () -. w0;
  acc.major <- acc.major + majors () - m0;
  acc.ops <- acc.ops + 1;
  r

let gc_metrics acc =
  let ops = float_of_int (max 1 acc.ops) in
  [
    ( "Gc.alloc_mb_per_op",
      acc.words *. float_of_int (Sys.word_size / 8) /. 1048576. /. ops );
    ("Gc.major_per_op", float_of_int acc.major /. ops);
  ]

let median_or_zero xs = if Array.length xs = 0 then 0. else Bstats.median xs

let layer_metrics values =
  List.map
    (fun (name, unit) ->
      H.m name (Option.value ~default:0. (List.assoc_opt name values)) unit)
    layer_units

let self_rss () = H.vm_hwm_mb "self"

(* ------------------------------------------------------------------ *)
(* Lineage solving, stage by stage.                                     *)

(* What [Confidence.run_stream ~nworkers:1] computes, replayed through
   Shard.plan, Lineage.normalize, Compile.compile and Compile.solve with
   one span per stage per shard.  Tuple i draws only on lane i, so the
   estimates are bit-identical to the engine's. *)
type solved = {
  est : float array;
  lo : float array;
  hi : float array;
  trials : int array;
  mass : float array;
  raw_clauses : int;
  kept_clauses : int;
  nodes : int;
  exact : int;
  shards : int;
}

let solve_stages sp ~op ~parent w sets ~eps ~delta =
  let n = Array.length sets in
  let est = Array.make n 0. and lo = Array.make n 0. and hi = Array.make n 0. in
  let trials = Array.make n 0 and mass = Array.make n 0. in
  let raw = ref 0 and kept = ref 0 and nodes = ref 0 and exact = ref 0 in
  let plan =
    Mc.Shard.plan ~eps ~delta
      ~max_cost:Mc.Confidence.default_stream_options.Mc.Confidence.shard_cost
      sets
  in
  let lanes = if n = 0 then [||] else Rng.split_n (Rng.create ~seed:eval_seed) n in
  Array.iter
    (fun (sh : Mc.Shard.t) ->
      Spans.record sp ~op ~parent "shard" (fun sid ->
          let idx = Array.init sh.count (fun j -> sh.first + j) in
          let normed =
            Spans.record sp ~op ~parent:sid "normalize" (fun _ ->
                Array.map (fun i -> Mc.Lineage.normalize sets.(i)) idx)
          in
          Array.iteri
            (fun j cs ->
              raw := !raw + List.length sets.(idx.(j));
              kept := !kept + List.length cs)
            normed;
          let comps =
            Spans.record sp ~op ~parent:sid "compile" (fun _ ->
                Array.map (Mc.Compile.compile w) normed)
          in
          Spans.record sp ~op ~parent:sid "solve" (fun _ ->
              Array.iteri
                (fun j comp ->
                  let i = idx.(j) in
                  nodes := !nodes + Mc.Compile.size comp;
                  match Mc.Compile.exact_value comp with
                  | Some p ->
                      incr exact;
                      est.(i) <- p;
                      lo.(i) <- p;
                      hi.(i) <- p
                  | None ->
                      let o =
                        Mc.Compile.solve (Rng.copy lanes.(i)) comp ~eps ~delta
                      in
                      est.(i) <- o.Mc.Compile.value;
                      lo.(i) <- o.Mc.Compile.lo;
                      hi.(i) <- o.Mc.Compile.hi;
                      trials.(i) <- o.Mc.Compile.trials;
                      mass.(i) <- o.Mc.Compile.residual_mass)
                comps)))
    plan;
  {
    est;
    lo;
    hi;
    trials;
    mass;
    raw_clauses = !raw;
    kept_clauses = !kept;
    nodes = !nodes;
    exact = !exact;
    shards = Array.length plan;
  }

let sum_int = Array.fold_left ( + ) 0
let sum_float = Array.fold_left ( +. ) 0.

(* Per-layer counts of a solved batch; [fixed] is Confidence.total_trials. *)
let solved_counts s ~fixed =
  let n = Array.length s.est in
  let trials = sum_int s.trials in
  let total = sum_float s.est in
  [
    ("Urelation.tuples", float_of_int n);
    ("Urelation.clauses", float_of_int s.raw_clauses);
    ( "Lineage.kept_ratio",
      float_of_int s.kept_clauses /. float_of_int (max 1 s.raw_clauses) );
    ("Compile.nodes", float_of_int s.nodes);
    ("Compile.exact_share", float_of_int s.exact /. float_of_int (max 1 n));
    ("Karp_luby.trials", float_of_int trials);
    ( "Karp_luby.trials_vs_fixed",
      float_of_int trials /. float_of_int (max 1 fixed) );
    ( "Compile.exact_fraction",
      if total <= 0. then 1. else Float.max 0. (1. -. (sum_float s.mass /. total))
    );
    ("Confidence.shards", float_of_int s.shards);
  ]

(* Per count name, the median over ops. *)
let median_counts per_op =
  match per_op with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          ( name,
            Bstats.median
              (Array.of_list (List.map (fun c -> List.assoc name c) per_op)) ))
        first

(* Median per op of the spans called [name]. *)
let stage_ms sp name = median_or_zero (Spans.per_op_ms sp name)

(* ------------------------------------------------------------------ *)
(* query-aconf and query-sigma: pqdb run --approx.                      *)

let eval_query udb q =
  Pqdb.Eval_approx.eval_with_guarantee ~eps0 ~rng:(Rng.create ~seed:eval_seed)
    ~delta:run_delta udb q

(* Exact confidence per result tuple, keyed by its rendering. *)
let exact_table udb q =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (t, p) -> Hashtbl.replace tbl (render_tuple t) (Rational.to_float p))
    (Pqdb.Eval_exact.confidences (Udb.copy udb) q);
  tbl

(* The aconf output's P column equals the exact confidences to float
   rounding (every tuple compiles exactly). *)
let check_aconf exact (r : Pqdb.Eval_approx.result) =
  let rows = Urelation.rows r.Pqdb.Eval_approx.urel in
  List.length rows = Hashtbl.length exact
  && List.for_all
       (fun (_, t) ->
         match List.rev (Tuple.to_list t) with
         | Value.Float p :: rest -> (
             let key = render_tuple (Tuple.of_list (List.rev rest)) in
             match Hashtbl.find_opt exact key with
             | Some e -> Float.abs (p -. e) <= 1e-9
             | None -> false)
         | _ -> false)
       rows

(* A Figure-3 decision may err only near the threshold: no selected tuple
   has exact confidence below 0.4, none above 0.6 is left out. *)
let check_sigma exact (r : Pqdb.Eval_approx.result) =
  let selected = Hashtbl.create 1024 in
  List.iter
    (fun (_, t) -> Hashtbl.replace selected (render_tuple t) ())
    (Urelation.rows r.Pqdb.Eval_approx.urel);
  Hashtbl.fold
    (fun key p ok ->
      let sel = Hashtbl.mem selected key in
      ok && not ((sel && p < 0.4) || ((not sel) && p > 0.6)))
    exact true
  && Hashtbl.fold (fun key () ok -> ok && Hashtbl.mem exact key) selected true

(* Eval_approx's active-domain size, the n of Theorem 6.7's round cap. *)
let active_domain_size udb =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun name ->
      List.iter
        (fun t ->
          List.iter
            (fun v -> Hashtbl.replace seen (Value.to_string v) ())
            (Tuple.to_list t))
        (Urelation.possible_tuples (Udb.find udb name)))
    (Udb.names udb);
  max 2 (Hashtbl.length seen)

type sigma_counts = {
  mutable decisions : int;
  mutable calls : int;
  mutable limit_hits : int;
}

(* Eval_approx.eval_with_guarantee on σ̂ over a base table, replayed: the
   Theorem 6.7 doubling loop, each attempt translating the input, grouping
   candidates and running Figure 3 per candidate on the shared RNG. *)
let replay_sigma sp ~op ~parent udb q =
  let phi, conf_args, input =
    match q with
    | Ua.ApproxSelect { Ua.phi; conf_args; input } -> (phi, conf_args, input)
    | _ -> failwith "query-sigma expects an aselect query"
  in
  let k = max 1 (Ua.max_conf_width q) and d = max 1 (Ua.nesting_depth q) in
  let n = active_domain_size udb in
  let l_cap = Stats.theorem_6_7_rounds ~eps0 ~delta:run_delta ~k ~d ~n in
  let rng = Rng.create ~seed:eval_seed in
  let counts = { decisions = 0; calls = 0; limit_hits = 0 } in
  let rec attempt l sigma_delta =
    let u = Udb.copy udb in
    let w = Udb.wtable u in
    let urel =
      Spans.record sp ~op ~parent "translate" (fun _ ->
          Pqdb.Eval_exact.eval u input)
    in
    let branches, candidates, arg_positions =
      Spans.record sp ~op ~parent "group" (fun _ ->
          let branches =
            List.map (fun attrs -> Translate.project_attrs attrs urel) conf_args
          in
          let candidates =
            match List.map Translate.poss branches with
            | [] -> invalid_arg "aselect with no conf arguments"
            | first :: rest -> List.fold_left Algebra.join first rest
          in
          let schema = Relation.schema candidates in
          ( branches,
            candidates,
            List.map (List.map (Schema.index schema)) conf_args ))
    in
    let selected = ref [] and max_err = ref 0. in
    Spans.record sp ~op ~parent "decide" (fun _ ->
        Relation.iter
          (fun cand ->
            let estimators =
              Array.of_list
                (List.map2
                   (fun branch pos ->
                     Urelation.clauses_for branch (Tuple.project cand pos)
                     |> Mc.Dnf.prepare w |> Mc.Estimator.create)
                   branches arg_positions)
            in
            let dec =
              Pqdb.Predicate_approx.decide ~eps0 ~max_rounds:l ~rng
                ~delta:sigma_delta phi estimators
            in
            counts.decisions <- counts.decisions + 1;
            counts.calls <- counts.calls + dec.estimator_calls;
            if dec.hit_round_limit then
              counts.limit_hits <- counts.limit_hits + 1;
            if dec.value then begin
              selected := cand :: !selected;
              max_err := Float.max !max_err (Float.min 0.5 dec.error_bound)
            end)
          candidates);
    if !max_err <= run_delta || l >= l_cap then !selected
    else attempt (min l_cap (2 * l)) (sigma_delta /. 2.)
  in
  let selected = attempt 1 run_delta in
  (digest_lines (List.map render_tuple selected), counts)

let save_db ~name ~seed k udb =
  let path =
    Filename.concat run_dir (Printf.sprintf "%s-%d-%d.udbb" name seed k)
  in
  Udb_binary.save path udb;
  path

(* A database holding [base]'s W table (same variable ids) and one
   relation, events, made of [rows] of base's events. *)
let with_events base rows =
  let udb = Udb.create () in
  let bw = Udb.wtable base and w = Udb.wtable udb in
  List.iter
    (fun v ->
      ignore
        (Wtable.add_var ~name:(Wtable.name bw v) w
           (List.init (Wtable.domain_size bw v) (Wtable.prob bw v))))
    (Wtable.vars bw);
  Udb.add_urelation udb "events"
    (Urelation.make (Urelation.schema (Udb.find base "events")) rows);
  udb

(* One query-sigma database: the [sigma_near] two-clause events whose exact
   confidence lies closest to the 0.5 threshold (Figure 3 runs such
   decisions to the round cap, at a cost set by their clause count) and
   [sigma_far] events at least 0.15 away from it, drawn from a seeded
   Gen.uncertain_db.  Fixing how many decisions are hard, and how hard,
   keeps the cost of a database nearly the same from seed to seed. *)
let sigma_db rng =
  let base = Gen.uncertain_db rng ~tuples:sigma_pool ~clauses:3 in
  let events = Udb.find base "events" in
  let exact = exact_table base (Ua.project [ "id" ] (Ua.table "events")) in
  let near = ref [] and far = ref [] in
  List.iter
    (fun (t, cs) ->
      let key = render_tuple t in
      let gap = Float.abs (Hashtbl.find exact key -. 0.5) in
      if List.length cs = 2 then near := (gap, key) :: !near
      else if gap >= 0.15 then far := key :: !far)
    (Urelation.clauses_by_tuple (Translate.project_attrs [ "id" ] events));
  let take k l =
    if List.length l < k then failwith "sigma pool too small";
    List.filteri (fun i _ -> i < k) l
  in
  let keep = Hashtbl.create 64 in
  List.iter
    (fun key -> Hashtbl.replace keep key ())
    (List.map snd (take sigma_near (List.sort compare !near))
    @ take sigma_far (List.rev !far));
  with_events base
    (List.filter
       (fun (_, t) ->
         Hashtbl.mem keep (render_value (List.hd (Tuple.to_list t))))
       (Urelation.rows events))

let run_query ~name ~seed ~seconds ~trace =
  let aconf = name = "query-aconf" in
  let text = if aconf then aconf_text else sigma_text in
  let paths =
    if aconf then
      [|
        save_db ~name ~seed 0
          (Gen.uncertain_db (Rng.create ~seed) ~tuples:aconf_tuples ~clauses:3);
      |]
    else
      Array.mapi
        (fun k rng -> save_db ~name ~seed k (sigma_db rng))
        (Rng.split_n (Rng.create ~seed) sigma_dbs)
  in
  let load_ms = ref [] and parse_ms = ref [] in
  let setup, setup_s =
    H.setup_sampler (fun () ->
        let udbs, l = H.time_ms (fun () -> Array.map Udb_binary.load paths) in
        let q, p = H.time_ms (fun () -> parse text) in
        load_ms := l :: !load_ms;
        parse_ms := p :: !parse_ms;
        (udbs, q))
  in
  for _ = 2 to setup_repeats do
    ignore (setup ())
  done;
  let udbs, q = setup () in
  let m = Array.length udbs in
  let aconf_parts =
    match q with
    | Ua.ApproxConf ({ Ua.eps; delta }, inner) -> Some (eps, delta, inner)
    | _ -> None
  in
  let checks =
    Array.map
      (fun udb ->
        match aconf_parts with
        | Some (_, _, inner) -> check_aconf (exact_table udb inner)
        | None ->
            check_sigma
              (exact_table udb (Ua.project [ "id" ] (Ua.table "events"))))
      udbs
  in
  let gates = Array.map (fun _ -> digest_gate ()) udbs in
  (* The first input is always run, so its digest names the run's output
     whatever the run's length. *)
  let digest () = snd gates.(0) () in
  let tally = H.tally () in
  let next = ref 0 in
  let pick () =
    let k = !next mod m in
    incr next;
    k
  in
  let op () =
    let k = pick () in
    Gc.compact ();
    let u = Udb.copy udbs.(k) in
    let (r, _, _), ms = H.time_ms (fun () -> eval_query u q) in
    (ms, checks.(k) r && fst gates.(k) (urel_digest r.Pqdb.Eval_approx.urel))
  in
  let untraced_s = if trace then seconds /. 4. else seconds in
  let op_ms =
    H.closed_loop tally ~warmup:m ~seconds:untraced_s
      ~probe:(setup_every, fun () -> ignore (setup ()))
      op
  in
  let tuples_per_op = if aconf then aconf_tuples else sigma_near + sigma_far in
  let metrics, lines =
    H.end_to_end ~setup:(setup_s ()) ~ops:op_ms ~tuples_per_op
      ~peak_rss_mb:(self_rss ())
  in
  let lines =
    lines
    @ [
        Printf.sprintf "%d database(s) of %d events, query %s" m
          (if aconf then aconf_tuples else sigma_near + sigma_far)
          text;
      ]
  in
  if not trace then { metrics; lines; tally; digest = digest () }
  else begin
    let sp = Spans.create () in
    let gc = gc_acc () in
    let fixed = Array.make m 0 in
    let sigma = ref [] and counts = ref [] in
    let next_op = ref 0 in
    let traced () =
      let op = !next_op in
      incr next_op;
      let k = pick () in
      let udb = udbs.(k) in
      Gc.compact ();
      let u = Udb.copy udb in
      let t0 = Spans.now () in
      Spans.record sp ~op "op" (fun root ->
          let r, stats, _ =
            Spans.record sp ~op ~parent:root "eval" (fun _ ->
                with_gc gc (fun () -> eval_query u q))
          in
          let d = urel_digest r.Pqdb.Eval_approx.urel in
          let replay_d, same_stats =
            Spans.record sp ~op ~parent:root "replay" (fun rid ->
                ignore
                  (Spans.record sp ~op ~parent:rid "parse" (fun _ -> parse text));
                match aconf_parts with
                | Some (eps, delta, inner) ->
                    let u = Udb.copy udb in
                    let urel =
                      Spans.record sp ~op ~parent:rid "translate" (fun _ ->
                          Pqdb.Eval_exact.eval u inner)
                    in
                    let groups =
                      Spans.record sp ~op ~parent:rid "group" (fun _ ->
                          Urelation.clauses_by_tuple urel)
                    in
                    let sets = Array.of_list (List.map snd groups) in
                    let w = Udb.wtable u in
                    if fixed.(k) = 0 then
                      fixed.(k) <-
                        Mc.Confidence.total_trials
                          (Mc.Confidence.prepare w sets)
                          ~eps ~delta;
                    let s = solve_stages sp ~op ~parent:rid w sets ~eps ~delta in
                    counts :=
                      (("Translate.rows", float_of_int (Urelation.size urel))
                      :: solved_counts s ~fixed:fixed.(k))
                      :: !counts;
                    ( List.mapi
                        (fun i (t, _) ->
                          render_tuple
                            (Tuple.concat t (Tuple.of_list [ Value.Float s.est.(i) ])))
                        groups
                      |> digest_lines,
                      true )
                | None ->
                    let d, c = replay_sigma sp ~op ~parent:rid udb q in
                    sigma :=
                      [
                        ("Predicate_approx.decisions", float_of_int c.decisions);
                        ("Predicate_approx.estimator_calls", float_of_int c.calls);
                        ( "Predicate_approx.round_limit_hits",
                          float_of_int c.limit_hits );
                      ]
                      :: !sigma;
                    ( d,
                      stats.Pqdb.Eval_approx.decisions = c.decisions
                      && stats.Pqdb.Eval_approx.estimator_calls = c.calls
                      && stats.Pqdb.Eval_approx.round_limit_hits = c.limit_hits ))
          in
          ( H.ms_since t0,
            checks.(k) r && fst gates.(k) d && String.equal d replay_d
            && same_stats ))
    in
    ignore (H.closed_loop tally ~warmup:0 ~seconds:(seconds -. untraced_s) traced);
    (* Eval_approx's own time, per op: the eval call minus the stages the
       replay ran (the replay's children other than parse). *)
    let replay = Spans.per_op sp "replay"
    and replay_self = Spans.self_per_op sp "replay"
    and parse_ms = Spans.per_op sp "parse" in
    let get tbl op = Option.value ~default:0. (Hashtbl.find_opt tbl op) in
    let self =
      Hashtbl.fold
        (fun op e acc ->
          (e -. (get replay op -. get replay_self op -. get parse_ms op)) :: acc)
        (Spans.per_op sp "eval") []
      |> Array.of_list
    in
    let stages =
      [
        ("Udb_binary.load_ms", median_or_zero (Array.of_list !load_ms));
        ("Qparser.parse_ms", stage_ms sp "parse");
        ("Translate.eval_ms", stage_ms sp "translate");
        ("Urelation.group_ms", stage_ms sp "group");
        ( "Trace.overhead_ms",
          median_or_zero (Spans.per_op_ms sp "eval") -. Bstats.median (H.raw op_ms) );
      ]
      @ gc_metrics gc
    in
    let by_query =
      if aconf then
        [
          ("Lineage.normalize_ms", stage_ms sp "normalize");
          ("Compile.compile_ms", stage_ms sp "compile");
          ("Compile.solve_ms", stage_ms sp "solve");
          ("Eval_approx.self_ms", median_or_zero self);
        ]
        @ median_counts !counts
      else
        [
          ("Predicate_approx.decide_ms", stage_ms sp "decide");
          ("Eval_approx.sigma_self_ms", median_or_zero self);
        ]
        @ median_counts !sigma
    in
    ensure_run_dir ();
    Spans.write sp
      (Filename.concat run_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed));
    {
      metrics = layer_metrics (stages @ by_query);
      lines = lines @ [ Printf.sprintf "traced ops: %d" !next_op ];
      tally;
      digest = digest ();
    }
  end

(* ------------------------------------------------------------------ *)
(* batch: the pqdb batch engine, Confidence.run_stream.                 *)

(* [batch_runs] batches of [batch_tuples] lineages each: [batch_heavy]
   random 30-variable, 30-clause DNFs (about a third of them exhaust the
   default compilation fuel, so Karp-Luby samples their residues) at
   seed-chosen positions, the rest single-clause tuples.  Successive ops
   cycle through the batches, so a run's median spans [batch_runs] draws
   of heavy lineage rather than one. *)
let batch_inputs seed =
  let rng = Rng.create ~seed in
  let w = Wtable.create () in
  let one_batch _ =
    let heavy = Array.init batch_tuples (fun i -> i < batch_heavy) in
    for i = batch_tuples - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let h = heavy.(i) in
      heavy.(i) <- heavy.(j);
      heavy.(j) <- h
    done;
    Array.map
      (fun h ->
        if h then Gen.random_dnf rng w ~vars:30 ~clauses:30 ~clause_len:3
        else Gen.random_dnf rng w ~vars:1 ~clauses:1 ~clause_len:1)
      heavy
  in
  (w, Array.init batch_runs one_batch)

let batch_line i est lo hi trials = Printf.sprintf "%d %h %h %h %d" i est lo hi trials

(* The bracket [lo, hi] holds the true confidence and the estimate is
   within relative eps of it (each with probability 1 - delta), so the
   estimate must lie in [(1 - eps) lo, (1 + eps) hi]; single-clause tuples
   come back exact.  The engine does not promise the estimate inside its
   own bracket, and sampled ones often fall outside: [outside] counts them. *)
let outside = ref 0

let check_batch w sets est lo hi =
  let ok = ref true in
  Array.iteri
    (fun i cs ->
      if not (lo.(i) <= est.(i) && est.(i) <= hi.(i)) then incr outside;
      if
        not
          (lo.(i) <= hi.(i)
          && (1. -. batch_eps) *. lo.(i) <= est.(i)
          && est.(i) <= (1. +. batch_eps) *. hi.(i))
      then ok := false;
      match cs with
      | [ c ] ->
          let p = Assignment.weight_float w c in
          if not (est.(i) = p && lo.(i) = p && hi.(i) = p) then ok := false
      | _ -> ())
    sets;
  !ok

let run_stream w sets =
  let n = Array.length sets in
  let est = Array.make n 0. and lo = Array.make n 0. and hi = Array.make n 0. in
  let trials = Array.make n 0 in
  let summary =
    Mc.Confidence.run_stream ~nworkers:1 (Rng.create ~seed:eval_seed) w sets
      ~eps:batch_eps ~delta:batch_delta ~emit:(fun (o : Mc.Shard.outcome) ->
        let f = o.shard.Mc.Shard.first and c = o.shard.Mc.Shard.count in
        Array.blit o.estimates 0 est f c;
        Array.iteri
          (fun j (l, h) ->
            lo.(f + j) <- l;
            hi.(f + j) <- h)
          o.intervals;
        Array.blit o.trials 0 trials f c)
  in
  let lines = List.init n (fun i -> batch_line i est.(i) lo.(i) hi.(i) trials.(i)) in
  (summary, est, lo, hi, digest_lines lines)

let run_batch ~seed ~seconds ~trace =
  let setup, setup_s = H.setup_sampler (fun () -> batch_inputs seed) in
  for _ = 2 to setup_repeats do
    ignore (setup ())
  done;
  let w, batches = setup () in
  let tally = H.tally () in
  let gates = Array.map (fun _ -> digest_gate ()) batches in
  let next = ref 0 in
  let pick () =
    let b = !next mod batch_runs in
    incr next;
    b
  in
  let op () =
    let b = pick () in
    let sets = batches.(b) in
    Gc.compact ();
    let (summary, est, lo, hi, d), ms = H.time_ms (fun () -> run_stream w sets) in
    ( ms,
      summary.Mc.Confidence.quarantined = []
      && check_batch w sets est lo hi
      && fst gates.(b) d )
  in
  let untraced_s = if trace then seconds /. 4. else seconds in
  let op_ms =
    H.closed_loop tally ~warmup:3 ~seconds:untraced_s
      ~probe:(setup_every, fun () -> ignore (setup ()))
      op
  in
  let metrics, lines =
    H.end_to_end ~setup:(setup_s ()) ~ops:op_ms ~tuples_per_op:batch_tuples
      ~peak_rss_mb:(self_rss ())
  in
  let lines =
    lines
    @ [
        Printf.sprintf
          "%d batches of %d tuples (%d random 30x30 DNFs each), eps %g delta %g"
          batch_runs batch_tuples batch_heavy batch_eps batch_delta;
        Printf.sprintf
          "estimates outside their own [lo, hi]: %d of %d checked (inside the \
           eps-widened bracket: all, or the op failed)"
          !outside (tally.H.attempted * batch_tuples);
      ]
  in
  (* The first input is always run, so its digest names the run's output
     whatever the run's length. *)
  let digest () = snd gates.(0) () in
  if not trace then { metrics; lines; tally; digest = digest () }
  else begin
    let sp = Spans.create () in
    let gc = gc_acc () in
    let fixed =
      Array.map
        (fun sets ->
          lazy
            (Mc.Confidence.total_trials (Mc.Confidence.prepare w sets)
               ~eps:batch_eps ~delta:batch_delta))
        batches
    in
    let counts = ref [] and next_op = ref 0 in
    let traced () =
      let op = !next_op in
      incr next_op;
      let b = pick () in
      let sets = batches.(b) in
      Gc.compact ();
      let t0 = Spans.now () in
      Spans.record sp ~op "op" (fun root ->
          let _, est, lo, hi, d =
            Spans.record sp ~op ~parent:root "run_stream" (fun _ ->
                with_gc gc (fun () -> run_stream w sets))
          in
          let s =
            Spans.record sp ~op ~parent:root "replay" (fun rid ->
                solve_stages sp ~op ~parent:rid w sets ~eps:batch_eps
                  ~delta:batch_delta)
          in
          counts := solved_counts s ~fixed:(Lazy.force fixed.(b)) :: !counts;
          let replay_d =
            digest_lines
              (List.init (Array.length sets) (fun i ->
                   batch_line i s.est.(i) s.lo.(i) s.hi.(i) s.trials.(i)))
          in
          ( H.ms_since t0,
            check_batch w sets est lo hi && fst gates.(b) d
            && String.equal d replay_d ))
    in
    ignore (H.closed_loop tally ~warmup:0 ~seconds:(seconds -. untraced_s) traced);
    ensure_run_dir ();
    Spans.write sp (Filename.concat run_dir (Printf.sprintf "spans-batch-%d.jsonl" seed));
    let stream_ms = Spans.per_op_ms sp "run_stream" in
    {
      metrics =
        layer_metrics
          ([
             ("Lineage.normalize_ms", stage_ms sp "normalize");
             ("Compile.compile_ms", stage_ms sp "compile");
             ("Compile.solve_ms", stage_ms sp "solve");
             ("Trace.overhead_ms", median_or_zero stream_ms -. Bstats.median (H.raw op_ms));
           ]
          @ median_counts !counts @ gc_metrics gc);
      lines = lines @ [ Printf.sprintf "traced ops: %d" !next_op ];
      tally;
      digest = digest ();
    }
  end

(* ------------------------------------------------------------------ *)
(* serve: a forked Server daemon and one client connection.             *)

let relation k = Printf.sprintf "r%d" k
let request k = "conf " ^ relation k

(* [serve_relations] relations of [serve_tuples] tuples, each tuple's
   lineage a random 12-variable, 12-clause DNF over fresh variables: it
   compiles exactly, and compiling costs several times a cache hit. *)
let serve_db seed =
  let rng = Rng.create ~seed in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  for r = 0 to serve_relations - 1 do
    let rows =
      List.concat
        (List.init serve_tuples (fun i ->
             let t = Tuple.of_list [ Value.Int i ] in
             List.map
               (fun c -> (c, t))
               (Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3)))
    in
    Udb.add_urelation udb (relation r)
      (Urelation.make (Schema.of_list [ "id" ]) rows)
  done;
  let path = Filename.concat run_dir (Printf.sprintf "serve-%d.udbb" seed) in
  Udb_binary.save path udb;
  path

(* What the daemon answers to [conf r<k>] with default options: the
   per-tuple batch lines of Server.run_conf, computed here without a
   cache. *)
let expected_reply udb k =
  let w = Udb.wtable udb in
  let sets =
    Array.of_list
      (List.map snd (Urelation.clauses_by_tuple (Udb.find udb (relation k))))
  in
  let rngs = Rng.split_n (Rng.create ~seed:42) (Array.length sets) in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i cs ->
      let o = Mc.Compile.solve rngs.(i) (Mc.Compile.compile w cs) ~eps:0.05 ~delta:0.01 in
      Printf.bprintf buf "%d %h %h %h %d\n" i o.Mc.Compile.value o.Mc.Compile.lo
        o.Mc.Compile.hi o.Mc.Compile.trials)
    sets;
  Buffer.contents buf

let serve_config db sock =
  {
    Server.db_path = db;
    listen = Server.Unix_socket sock;
    cache_entries = serve_cache;
    session_trials = None;
    session_deadline_s = None;
    io_timeout_s = None;
    idle_timeout_s = None;
    max_sessions = None;
    watchdog_s = None;
  }

type daemon = { pid : int; client : Client.t }

let live_daemons = ref []

(* Stop a daemon: polite shutdown, then SIGKILL if it has not exited within
   ten seconds; always reaped. *)
let stop_daemon d =
  (try ignore (Client.query ~timeout_s:10. d.client "shutdown") with _ -> ());
  (try Client.close d.client with _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        reap (tries - 1)
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 1000;
  live_daemons := List.filter (fun p -> p <> d.pid) !live_daemons

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

(* Fork a Server.serve daemon; return once the client has its greeting. *)
let start_daemon db sock =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      Unix.dup2 Unix.stderr Unix.stdout;
      let ready () =
        ignore (Unix.write_substring wr "r" 0 1);
        Unix.close wr
      in
      let code =
        match Server.serve ~ready (serve_config db sock) with
        | _ -> 0
        | exception e ->
            prerr_endline ("daemon: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      live_daemons := pid :: !live_daemons;
      Unix.close wr;
      let b = Bytes.create 1 in
      let got = try Unix.read rd b 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close rd;
      if got <> 1 then failwith "serve daemon exited before it was ready";
      { pid; client = Client.connect (Server.Unix_socket sock) }

let stats_counter body key =
  List.find_map
    (fun line ->
      let words = String.split_on_char ' ' line in
      let rec find = function
        | k :: v :: _ when k = key -> int_of_string_opt v
        | _ :: rest -> find rest
        | [] -> None
      in
      if List.mem "cache" words then find words else None)
    (String.split_on_char '\n' body)
  |> Option.value ~default:(-1)

let run_serve ~seed ~seconds ~trace =
  let db = serve_db seed in
  let sock = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let seq = Bstats.zipf_sequence ~seed ~k:serve_relations ~s:serve_zipf_s ~len:1_000_000 in
  let local = Udb_binary.load db in
  let expected = Array.init serve_relations (expected_reply local) in
  let setup, setup_s = H.setup_sampler (fun () -> start_daemon db sock) in
  for _ = 2 to setup_repeats do
    stop_daemon (setup ())
  done;
  let d = setup () in
  (* Later set-up samples fork a second daemon on its own socket. *)
  let probe_sock = sock ^ ".probe" in
  let probe_setup, probe_s =
    H.setup_sampler (fun () -> start_daemon db probe_sock)
  in
  let tally = H.tally () in
  let next = ref 0 in
  let op () =
    let k = seq.(!next) in
    incr next;
    let (ok, body), ms = H.time_ms (fun () -> Client.query d.client (request k)) in
    (ms, ok && String.equal body expected.(k))
  in
  let untraced_s = if trace then seconds /. 4. else seconds in
  let op_ms =
    H.closed_loop ~min_ops:200 tally ~warmup:300 ~seconds:untraced_s
      ~probe:(setup_every, fun () -> stop_daemon (probe_setup ()))
      op
  in
  let setup_s = Array.append (setup_s ()) (probe_s ()) in
  let peak = H.vm_hwm_mb (string_of_int d.pid) in
  let _, st = Client.query d.client "stats" in
  stop_daemon d;
  let metrics, lines =
    H.end_to_end ~setup:setup_s ~ops:op_ms ~tuples_per_op:serve_tuples ~peak_rss_mb:peak
  in
  let lines =
    lines
    @ [
        Printf.sprintf
          "%d relations x %d tuples of 12x12 DNF, cache %d, Zipf s=%g; daemon cache \
           hits %d misses %d evictions %d over %d requests"
          serve_relations serve_tuples serve_cache serve_zipf_s
          (stats_counter st "hits") (stats_counter st "misses")
          (stats_counter st "evictions") !next;
      ]
  in
  let digest = digest_lines (Array.to_list expected) in
  if not trace then { metrics; lines; tally; digest }
  else begin
    (* Fresh daemon, in-process server and replay cache, fed the same
       request sequence from its start: all three see the same hits and
       misses, and must answer byte-identically. *)
    let d = start_daemon db sock in
    let srv = Server.create (serve_config db sock) in
    let memo = Mc.Memo.create ~entries:serve_cache () in
    let w = Udb.wtable local in
    let sp = Spans.create () in
    let gc = gc_acc () in
    let hit_ms = ref [] and miss_ms = ref [] in
    let rt = Hashtbl.create 4096 and dispatch = Hashtbl.create 4096 in
    let nodes = ref 0 and raw = ref 0 and kept = ref 0 and exact = ref 0 in
    let next = ref 0 and bytes = ref 0 in
    let group_tuples = ref 0 and group_clauses = ref 0 in
    let traced () =
      let op = !next in
      incr next;
      let k = seq.(op) in
      let t0 = Spans.now () in
      Spans.record sp ~op "op" (fun root ->
          let (ok, body), rt_ms =
            Spans.record sp ~op ~parent:root "round_trip" (fun _ ->
                H.time_ms (fun () -> Client.query d.client (request k)))
          in
          let local_body, d_ms =
            Spans.record sp ~op ~parent:root "dispatch" (fun _ ->
                H.time_ms (fun () -> with_gc gc (fun () -> Server.dispatch srv (request k))))
          in
          Hashtbl.replace rt op rt_ms;
          Hashtbl.replace dispatch op d_ms;
          let replay_body =
            Spans.record sp ~op ~parent:root "replay" (fun rid ->
                let sets =
                  Spans.record sp ~op ~parent:rid "group" (fun _ ->
                      Array.of_list
                        (List.map snd
                           (Urelation.clauses_by_tuple (Udb.find local (relation k)))))
                in
                group_tuples := Array.length sets;
                group_clauses := Array.fold_left (fun a cs -> a + List.length cs) 0 sets;
                let trees =
                  Array.map
                    (fun cs ->
                      let before = (Mc.Memo.stats memo).Mc.Memo.hits in
                      let tree, ms =
                        Spans.record sp ~op ~parent:rid "memo" (fun _ ->
                            H.time_ms (fun () -> Mc.Memo.find_or_compile memo w cs))
                      in
                      if (Mc.Memo.stats memo).Mc.Memo.hits > before then
                        hit_ms := ms :: !hit_ms
                      else begin
                        miss_ms := ms :: !miss_ms;
                        (* A miss normalized and compiled inside the cache;
                           redo both outside it to split their times. *)
                        let normed =
                          Spans.record sp ~op ~parent:rid "normalize" (fun _ ->
                              Mc.Lineage.normalize cs)
                        in
                        let c =
                          Spans.record sp ~op ~parent:rid "compile" (fun _ ->
                              Mc.Compile.compile w normed)
                        in
                        raw := !raw + List.length cs;
                        kept := !kept + List.length normed;
                        nodes := !nodes + Mc.Compile.size c;
                        if Mc.Compile.is_exact c then incr exact
                      end;
                      tree)
                    sets
                in
                let rngs = Rng.split_n (Rng.create ~seed:42) (Array.length sets) in
                Spans.record sp ~op ~parent:rid "solve" (fun _ ->
                    let buf = Buffer.create 4096 in
                    Array.iteri
                      (fun i tree ->
                        let o = Mc.Compile.solve rngs.(i) tree ~eps:0.05 ~delta:0.01 in
                        Printf.bprintf buf "%d %h %h %h %d\n" i o.Mc.Compile.value
                          o.Mc.Compile.lo o.Mc.Compile.hi o.Mc.Compile.trials)
                      trees;
                    Buffer.contents buf))
          in
          bytes := String.length body;
          ( H.ms_since t0,
            ok
            && String.equal body expected.(k)
            && String.equal body local_body
            && String.equal body replay_body ))
    in
    ignore
      (H.closed_loop ~min_ops:200 tally ~warmup:0 ~seconds:(seconds -. untraced_s)
         traced);
    let _, st = Client.query d.client "stats" in
    stop_daemon d;
    let hits = stats_counter st "hits" and misses = stats_counter st "misses" in
    let evictions = stats_counter st "evictions" in
    let ms = Mc.Memo.stats memo and ss = (Server.stats srv).Server.cache in
    let counters_agree =
      ms.Mc.Memo.hits = hits && ms.Mc.Memo.misses = misses
      && ms.Mc.Memo.evictions = evictions
      && ss.Mc.Memo.hits = hits && ss.Mc.Memo.misses = misses
    in
    if not counters_agree then begin
      tally.H.failed <- tally.H.failed + 1;
      prerr_endline "serve: daemon, in-process and replay cache counters differ"
    end;
    let wire =
      Hashtbl.fold
        (fun op r acc -> (r -. Hashtbl.find dispatch op) :: acc)
        rt []
      |> Array.of_list
    in
    let rt_ms = Hashtbl.fold (fun _ r acc -> r :: acc) rt [] |> Array.of_list in
    ensure_run_dir ();
    Spans.write sp (Filename.concat run_dir (Printf.sprintf "spans-serve-%d.jsonl" seed));
    let lookups = hits + misses in
    {
      metrics =
        layer_metrics
          ([
             ("Udb_binary.load_ms",
              median_or_zero
                (Array.init 5 (fun _ -> snd (H.time_ms (fun () -> Udb_binary.load db)))));
             ("Urelation.group_ms", stage_ms sp "group");
             ("Urelation.tuples", float_of_int !group_tuples);
             ("Urelation.clauses", float_of_int !group_clauses);
             ("Lineage.normalize_ms", median_or_zero (Spans.durations_ms sp "normalize"));
             ("Lineage.kept_ratio", float_of_int !kept /. float_of_int (max 1 !raw));
             ("Compile.compile_ms", median_or_zero (Spans.durations_ms sp "compile"));
             ("Compile.nodes", float_of_int !nodes /. float_of_int (max 1 misses));
             ("Compile.exact_share", float_of_int !exact /. float_of_int (max 1 misses));
             ("Compile.solve_ms", stage_ms sp "solve");
             ("Memo.hit_ms", median_or_zero (Array.of_list !hit_ms));
             ("Memo.miss_ms", median_or_zero (Array.of_list !miss_ms));
             ("Memo.hits", float_of_int hits);
             ("Memo.misses", float_of_int misses);
             ("Memo.evictions", float_of_int evictions);
             ("Memo.hit_ratio", float_of_int hits /. float_of_int (max 1 lookups));
             ("Server.dispatch_ms", median_or_zero (Spans.per_op_ms sp "dispatch"));
             ("Protocol.wire_ms", median_or_zero wire);
             ("Protocol.reply_bytes", float_of_int !bytes);
             ("Trace.overhead_ms", median_or_zero rt_ms -. Bstats.median (H.raw op_ms));
           ]
          @ gc_metrics gc);
      lines = lines @ [ Printf.sprintf "traced requests: %d" !next ];
      tally;
      digest;
    }
  end

let run ~name ~seed ~seconds ~trace =
  ensure_run_dir ();
  match name with
  | "query-aconf" | "query-sigma" -> run_query ~name ~seed ~seconds ~trace
  | "batch" -> run_batch ~seed ~seconds ~trace
  | "serve" -> run_serve ~seed ~seconds ~trace
  | _ -> invalid_arg ("unknown workload " ^ name)
