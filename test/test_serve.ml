(* The pqdb serve daemon and its compiled-lineage cache: canonical
   fingerprints (permutation / duplication / subsumption invariance,
   W-table-edit sensitivity), LRU bounds and counters, warm-vs-cold
   bit-identity of conf replies, budget admission, the socket round trip,
   and serve.accept fault containment.

   Fork safety is irrelevant here (sessions are threads, not forks), but
   the pool is pinned inline anyway so an environment-armed pool.spawn
   cannot take the whole suite down. *)

let () = Unix.putenv "PQDB_POOL_WORKERS" "1"

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
open Pqdb_serve
module FP = Pqdb_runtime.Faultpoint
module Protocol = Pqdb_distrib.Protocol
module E = Pqdb_runtime.Pqdb_error
module Gen = Pqdb_workload.Gen
module Q = Rational

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let clear_all () = List.iter FP.disarm (FP.armed ())

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* Pull a named counter out of a stats body ("... hits 125 misses 55 ..."):
   the word after the first occurrence of [name]. *)
let counter body name =
  let words =
    String.split_on_char '\n' body
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w -> w <> "")
  in
  let rec go = function
    | k :: v :: rest ->
        if String.equal k name then int_of_string_opt v else go (v :: rest)
    | _ -> None
  in
  go words

let temp_counter = ref 0

let temp_path suffix =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqdb_serve_%d_%d%s" (Unix.getpid ()) !temp_counter
       suffix)

(* Deterministic Fisher-Yates on a list. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fixture ~seed =
  let rng = Rng.create ~seed in
  let w = Wtable.create () in
  let sets =
    Array.init 12 (fun _ -> Gen.random_dnf rng w ~vars:8 ~clauses:6 ~clause_len:3)
  in
  (rng, w, sets)

(* ------------------------------------------------------------------ *)
(* Fingerprint canonicalization.                                       *)

let fingerprint_permutation_invariant =
  QCheck.Test.make ~name:"fingerprint: permutation + duplication invariant"
    ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      clear_all ();
      let rng, w, sets = fixture ~seed in
      Array.for_all
        (fun set ->
          let reference = Memo.fingerprint w set in
          let permuted = shuffle rng set in
          let duplicated =
            match set with [] -> [] | c :: _ -> shuffle rng (c :: set)
          in
          String.equal (Memo.fingerprint w permuted) reference
          && String.equal (Memo.fingerprint w duplicated) reference)
        sets)

let fingerprint_subsumption_invariant =
  QCheck.Test.make ~name:"fingerprint: subsumption-equivalent sets agree"
    ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      clear_all ();
      let _rng, w, sets = fixture ~seed in
      let vars = Wtable.vars w in
      Array.for_all
        (fun set ->
          match set with
          | [] -> true
          | c :: _ -> (
              (* A clause strictly more specific than [c] is subsumed by it
                 and must vanish under normalization. *)
              match
                List.find_opt (fun v -> Assignment.value c v = None) vars
              with
              | None -> true (* c binds every variable; nothing to extend *)
              | Some free -> (
                  match Assignment.union c (Assignment.singleton free 0) with
                  | None -> true
                  | Some subsumed ->
                      String.equal
                        (Memo.fingerprint w (subsumed :: set))
                        (Memo.fingerprint w set))))
        sets)

let test_fingerprint_sensitivity () =
  clear_all ();
  let _rng, w, sets = fixture ~seed:42 in
  let set = sets.(0) in
  let before = Memo.fingerprint w set in
  (* fuel is part of the key *)
  check bool_c "different fuel, different key" false
    (String.equal before (Memo.fingerprint ~fuel:0 w set));
  (* distinct sets get distinct keys *)
  check bool_c "different clauses, different key" false
    (String.equal before (Memo.fingerprint w sets.(1)));
  (* any W-table edit invalidates every key *)
  let _v = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  check bool_c "W-table edit changes the key" false
    (String.equal before (Memo.fingerprint w set));
  (* two tables never share keys, even with identical contents *)
  let w2 = Wtable.create () in
  let _ = Wtable.add_var w2 [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let w3 = Wtable.create () in
  let _ = Wtable.add_var w3 [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let clause = [ Assignment.singleton 0 1 ] in
  check bool_c "distinct tables, distinct keys" false
    (String.equal (Memo.fingerprint w2 clause) (Memo.fingerprint w3 clause))

(* Key injectivity: two fingerprints are equal exactly when their
   (uid, generation, fuel, salt, normalized clause list) are.  Variables
   and values sit at or above 128, so every clause field takes a
   multi-byte varint; salts include single length-prefix-like bytes and,
   as a forging attempt, slices of the other input's own key. *)
let pick rng a = a.(Rng.int rng (Array.length a))

let wide_clause rng =
  let vars = [| 128; 129; 200; 16_383; 16_384 |]
  and values = [| 128; 255; 16_384 |] in
  let rec bind acc k =
    if k = 0 then acc
    else
      let v = pick rng vars in
      bind (if List.mem_assoc v acc then acc else (v, pick rng values) :: acc) (k - 1)
  in
  Assignment.of_list (bind [] (1 + Rng.int rng 3))

let wide_set rng = List.init (Rng.int rng 4) (fun _ -> wide_clause rng)

let fingerprint_injective =
  let tables =
    let edited = Wtable.create () in
    for _ = 1 to 200 do
      ignore (Wtable.add_var edited [ Q.of_ints 1 2; Q.of_ints 1 2 ])
    done;
    [| Wtable.create (); Wtable.create (); edited |]
  in
  let fuels = [| 0; 1; 127; 128; 300; Compile.default_fuel |] in
  let salts = [| ""; "\000"; "\001"; "\128"; "\128\001"; "c1" |] in
  QCheck.Test.make ~name:"fingerprint: injective binary key" ~count:500
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let observe (w, fuel, salt, clauses) =
        ( (Wtable.uid w, Wtable.generation w, fuel, salt, Lineage.normalize clauses),
          Memo.fingerprint ~fuel ~salt w clauses )
      in
      let ((w, fuel, salt, clauses) as a) =
        (pick rng tables, pick rng fuels, pick rng salts, wide_set rng)
      in
      let inputs_a, key_a = observe a in
      let b =
        match Rng.int rng 8 with
        | 0 -> (w, fuel, salt, shuffle rng (clauses @ clauses))
        | 1 -> (pick rng tables, pick rng fuels, pick rng salts, wide_set rng)
        | 2 -> (
            match clauses with
            | [] -> (w, fuel, salt, [ wide_clause rng ])
            | _ :: rest -> (w, fuel, salt, wide_clause rng :: rest))
        | 3 -> (w, pick rng fuels, salt, clauses)
        | 4 ->
            (* regroup: every binding of A as a clause of its own *)
            ( w, fuel, salt,
              List.concat_map
                (fun c ->
                  List.map
                    (fun (v, x) -> Assignment.singleton v x)
                    (Assignment.bindings c))
                clauses )
        | 5 -> (w, fuel, pick rng salts, clauses)
        | 6 ->
            (* forge: the salt carries a tail of A's own key bytes *)
            let k = Rng.int rng (String.length key_a + 1) in
            ( w, fuel,
              salt ^ String.sub key_a k (String.length key_a - k),
              pick rng [| []; clauses |] )
        | _ ->
            (* a later generation of the same table *)
            ignore (Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ]);
            (w, fuel, salt, clauses)
      in
      let (ub, gb, fb, sb, nb), key_b = observe b in
      let ua, ga, fa, sa, na = inputs_a in
      let same_inputs =
        ua = ub && ga = gb && fa = fb && String.equal sa sb
        && List.equal Assignment.equal na nb
      in
      Bool.equal same_inputs (String.equal key_a key_b))

(* ------------------------------------------------------------------ *)
(* Cache behavior: hits, equivalence classes, LRU bound.               *)

let equivalent_variants_hit_same_entry =
  QCheck.Test.make ~name:"cache: permuted/duplicated/subsumed variants hit"
    ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      clear_all ();
      let rng, w, sets = fixture ~seed in
      let memo = Memo.create ~entries:64 () in
      Array.iter (fun set -> ignore (Memo.find_or_compile memo w set)) sets;
      let cold = Memo.stats memo in
      (* every variant of every set must be answered from cache *)
      Array.iter
        (fun set ->
          ignore (Memo.find_or_compile memo w (shuffle rng set));
          match set with
          | [] -> ()
          | c :: _ -> ignore (Memo.find_or_compile memo w (c :: set)))
        sets;
      let warm = Memo.stats memo in
      warm.Memo.misses = cold.Memo.misses
      && warm.Memo.hits = cold.Memo.hits + (2 * Array.length sets)
      && warm.Memo.entries <= Memo.capacity memo)

let test_cache_identical_tree () =
  clear_all ();
  let rng, w, sets = fixture ~seed:7 in
  let memo = Memo.create () in
  let set = sets.(0) in
  let t1 = Memo.find_or_compile memo w set in
  let t2 = Memo.find_or_compile memo w (shuffle rng set) in
  check bool_c "warm hit returns the same tree" true (t1 == t2);
  (* and the cached tree is what a cold compile builds *)
  let cold = Compile.compile w (shuffle rng set) in
  let solve tree = (Compile.solve (Rng.create ~seed:5) tree ~eps:0.2 ~delta:0.1).Compile.value in
  check (Alcotest.float 0.0) "same solve value as a cold compile" (solve cold)
    (solve t1)

let test_lru_bound_and_counters () =
  clear_all ();
  let _rng, w, sets = fixture ~seed:11 in
  let memo = Memo.create ~entries:4 () in
  check int_c "capacity" 4 (Memo.capacity memo);
  Array.iter (fun set -> ignore (Memo.find_or_compile memo w set)) sets;
  let s = Memo.stats memo in
  check int_c "bounded entries" 4 s.Memo.entries;
  check int_c "all distinct sets missed" (Array.length sets) s.Memo.misses;
  check int_c "evictions = misses - capacity" (Array.length sets - 4)
    s.Memo.evictions;
  (* most recent entries are resident; refetching them adds no miss *)
  ignore (Memo.find_or_compile memo w sets.(Array.length sets - 1));
  ignore (Memo.find_or_compile memo w sets.(Array.length sets - 2));
  let s2 = Memo.stats memo in
  check int_c "recent entries hit" (s.Memo.hits + 2) s2.Memo.hits;
  check int_c "no new misses" s.Memo.misses s2.Memo.misses;
  (* the evicted oldest entry recompiles: miss, eviction *)
  ignore (Memo.find_or_compile memo w sets.(0));
  let s3 = Memo.stats memo in
  check int_c "evicted entry misses again" (s.Memo.misses + 1) s3.Memo.misses;
  Memo.clear memo;
  check int_c "clear empties the cache" 0 (Memo.stats memo).Memo.entries

(* A fixed-seed sequence of 2 000 lookups into a 16-entry cache: Zipf(1.1)
   over 48 distinct sets (3x the capacity), each spelled as given,
   permuted, with a duplicated clause or with a subsumed clause added, and
   one lookup in five salted.  Its final counters are pinned to what the
   two-level text-key cache counted on the same sequence: a cache that
   keys differently would still pass the tests above but change these,
   and perfbench's serve replay checks the daemon's counters against its
   own. *)
let test_counters_pinned () =
  clear_all ();
  let rng = Rng.create ~seed:2024 in
  let w = Wtable.create () in
  let sets =
    Array.init 48 (fun _ -> Gen.random_dnf rng w ~vars:8 ~clauses:6 ~clause_len:3)
  in
  let vars = Wtable.vars w in
  let subsumed set =
    match set with
    | [] -> set
    | c :: _ -> (
        match List.find_opt (fun v -> Assignment.value c v = None) vars with
        | None -> set
        | Some free -> (
            match Assignment.union c (Assignment.singleton free 0) with
            | None -> set
            | Some s -> s :: set))
  in
  let cumulative =
    let acc = ref 0. in
    Array.init (Array.length sets) (fun k ->
        acc := !acc +. (1. /. (float_of_int (k + 1) ** 1.1));
        !acc)
  in
  let zipf () =
    let u = Rng.float rng cumulative.(Array.length cumulative - 1) in
    let k = ref 0 in
    while cumulative.(!k) < u do incr k done;
    !k
  in
  let memo = Memo.create ~entries:16 () in
  for _ = 1 to 2_000 do
    let set = sets.(zipf ()) in
    let spelling =
      match Rng.int rng 4 with
      | 0 -> set
      | 1 -> shuffle rng set
      | 2 -> (match set with [] -> set | c :: _ -> shuffle rng (c :: set))
      | _ -> subsumed set
    in
    let salt = if Rng.int rng 5 = 0 then Some "c1" else None in
    ignore (Memo.find_or_compile memo ?salt w spelling)
  done;
  let s = Memo.stats memo in
  check (Alcotest.list int_c) "hits, misses, evictions, entries"
    [ 1119; 881; 865; 16 ]
    [ s.Memo.hits; s.Memo.misses; s.Memo.evictions; s.Memo.entries ]

(* Minor words per hit on 48 cached 12-var/12-clause DNFs, bench/micro's
   cache_sets shape.  The two-level text-key cache allocated 2 610 per hit,
   most of it printing each clause; the bound is half that. *)
let test_hit_allocation_guard () =
  clear_all ();
  let rng = Rng.create ~seed:313 in
  let w = Wtable.create () in
  let sets =
    Array.init 48 (fun _ -> Gen.random_dnf rng w ~vars:12 ~clauses:12 ~clause_len:3)
  in
  let memo = Memo.create ~entries:64 () in
  let pass () = Array.iter (fun set -> ignore (Memo.find_or_compile memo w set)) sets in
  pass ();
  let hits = (Memo.stats memo).Memo.hits in
  let before = Gc.minor_words () in
  pass ();
  let per_hit = (Gc.minor_words () -. before) /. 48. in
  check int_c "the second pass only hits" (hits + 48) (Memo.stats memo).Memo.hits;
  let text_keys = 2_610. in
  if per_hit > text_keys /. 2. then
    Alcotest.failf "a hit allocated %.0f minor words (bound %.0f)" per_hit
      (text_keys /. 2.)

(* ------------------------------------------------------------------ *)
(* The server proper, in-process (no socket): dispatch + fixture db.   *)

let with_fixture_db f =
  let path = temp_path ".udbb" in
  let rng = Rng.create ~seed:99 in
  let udb = Gen.uncertain_db rng ~tuples:40 ~clauses:3 in
  Udb_io.save path udb;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config ?(cache_entries = 64) ?io_timeout_s ?idle_timeout_s ?max_sessions
    ?watchdog_s ~db_path listen =
  {
    Server.db_path;
    listen;
    cache_entries;
    session_trials = None;
    session_deadline_s = None;
    io_timeout_s;
    idle_timeout_s;
    max_sessions;
    watchdog_s;
  }

let test_dispatch_conf_warm_equals_cold () =
  clear_all ();
  with_fixture_db (fun db ->
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let cold = Server.dispatch srv "conf events" in
      let warm = Server.dispatch srv "conf events" in
      check string_c "warm body is byte-identical to cold" cold warm;
      let s = Server.stats srv in
      check bool_c "second run hit the cache" true (s.Server.cache.Memo.hits > 0);
      check int_c "no evictions under capacity" 0 s.Server.cache.Memo.evictions;
      (* every tuple present, batch line format *)
      let lines = String.split_on_char '\n' (String.trim cold) in
      check int_c "one line per tuple" 40 (List.length lines);
      List.iteri
        (fun i line ->
          match String.split_on_char ' ' line with
          | [ idx; _est; _lo; _hi; _trials ] ->
              check string_c "index" (string_of_int i) idx
          | _ -> Alcotest.failf "malformed conf line %S" line)
        lines;
      (* a different seed is a different answer stream, same cache *)
      let other = Server.dispatch srv "conf events seed=7" in
      check bool_c "seed can change sampled output" true
        (String.length other > 0))

let test_dispatch_stats_and_errors () =
  clear_all ();
  with_fixture_db (fun db ->
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      ignore (Server.dispatch srv "conf events");
      let stats_body = Server.dispatch srv "stats" in
      check bool_c "stats names the cache counters" true
        (List.for_all (contains stats_body)
           [ "hits"; "misses"; "evictions"; "capacity" ]);
      check bool_c "stats reports the hits" true
        (match counter stats_body "hits" with Some n -> n >= 0 | None -> false);
      let fails spec expected_fragment =
        match Server.dispatch srv spec with
        | body -> Alcotest.failf "%S succeeded: %s" spec body
        | exception Failure msg ->
            check bool_c
              (Printf.sprintf "%S mentions %S" spec expected_fragment)
              true (contains msg expected_fragment)
      in
      fails "conf nosuch" "unknown relation";
      fails "conf events eps=2" "eps";
      fails "conf events eps=abc" "eps";
      fails "conf events bogus" "key=value";
      fails "conf" "relation";
      fails "frobnicate" "unknown request";
      fails "stats now" "no arguments")

(* A conf request is a one-shard batch run with no retry: a shard that
   fails is quarantined, and the request answers with its error instead of
   the shard's a-priori brackets; the next request is answered again. *)
let test_failed_shard_is_an_error () =
  clear_all ();
  with_fixture_db (fun db ->
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let reply = Server.dispatch srv "conf events" in
      FP.arm ~count:1 "shard.run";
      (match Server.dispatch srv "conf events" with
      | body -> Alcotest.failf "a failed shard answered %S" body
      | exception E.Error (E.Injected site) ->
          check string_c "the shard's error" "shard.run" site);
      check string_c "the next request is answered" reply
        (Server.dispatch srv "conf events"))

let test_budget_admission () =
  clear_all ();
  with_fixture_db (fun db ->
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let budget = Budget.create ~max_trials:1 () in
      (* an un-exhausted budget admits the query *)
      ignore (Server.dispatch srv ~budget "conf events");
      Budget.spend budget 2;
      match Server.dispatch srv ~budget "conf events" with
      | _ -> Alcotest.fail "exhausted session was admitted"
      | exception Failure msg ->
          check bool_c "refusal names the budget" true (contains msg "budget"))

(* ------------------------------------------------------------------ *)
(* Warm requests: a reply costs its probes and its solve.              *)

(* Relations of [tuples] tuples, each tuple's lineage a random DNF over
   fresh variables, saved to a temporary database. *)
let with_dnf_db ~seed relations f =
  let rng = Rng.create ~seed in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  List.iter
    (fun (name, tuples, vars, clauses) ->
      let rows =
        List.concat
          (List.init tuples (fun i ->
               let t = Pqdb_relational.(Tuple.of_list [ Value.Int i ]) in
               List.map
                 (fun c -> (c, t))
                 (Gen.random_dnf rng w ~vars ~clauses ~clause_len:3)))
      in
      Udb.add_urelation udb name
        (Urelation.make (Pqdb_relational.Schema.of_list [ "id" ]) rows))
    relations;
  let path = temp_path ".udbb" in
  Udb_io.save path udb;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* One warm [conf] over 128 tuples of 12x12 DNFs, every probe a hit, and
   the encoding of its reply frame: together they allocated 140 223 +
   98 186 minor words when every request regrouped the relation,
   re-normalized each key and escaped the body byte by byte.  Bound them
   at half of that. *)
let test_warm_request_allocation_guard () =
  clear_all ();
  with_dnf_db ~seed:128 [ ("r", 128, 12, 12) ] (fun db ->
      let srv =
        Server.create (config ~cache_entries:256 ~db_path:db (Server.Tcp 1))
      in
      ignore (Server.dispatch srv "conf r");
      let before = (Server.stats srv).Server.cache in
      let w0 = Gc.minor_words () in
      let body = Server.dispatch srv "conf r" in
      let w1 = Gc.minor_words () in
      let frame =
        Pqdb_distrib.Protocol.encode
          (Pqdb_distrib.Protocol.Reply { id = 1; ok = true; body })
      in
      let w2 = Gc.minor_words () in
      let after = (Server.stats srv).Server.cache in
      check int_c "every probe hit" (before.Memo.hits + 128) after.Memo.hits;
      check int_c "no probe missed" before.Memo.misses after.Memo.misses;
      check bool_c "the reply frame is non-trivial" true
        (String.length frame > String.length body);
      let bound = (140_223. +. 98_186.) /. 2. in
      if w2 -. w0 > bound then
        Alcotest.failf
          "warm dispatch %.0f + encode %.0f minor words (bound %.0f)"
          (w1 -. w0) (w2 -. w1) bound)

(* One cold-cache [conf] over 128 tuples of 12x12 DNFs, the relation's
   groups already built: a one-entry cache makes every probe miss, so each
   set is compiled.  The server compiles a miss from the canonical lineage
   it keeps per W-table generation, normalized once: it reads 176 365
   words.  When a miss normalized and packed its list again, the same
   request allocated 205 368; the bound is the reading plus 8%. *)
let cold_conf_words () =
  clear_all ();
  with_dnf_db ~seed:128 [ ("r", 128, 12, 12) ] (fun db ->
      let srv =
        Server.create (config ~cache_entries:1 ~db_path:db (Server.Tcp 1))
      in
      ignore (Server.dispatch srv "conf r");
      let before = (Server.stats srv).Server.cache in
      let w0 = Gc.minor_words () in
      ignore (Server.dispatch srv "conf r");
      let w1 = Gc.minor_words () in
      let after = (Server.stats srv).Server.cache in
      check int_c "every probe missed" (before.Memo.misses + 128) after.Memo.misses;
      w1 -. w0)

let test_cold_request_allocation_guard () =
  let words = cold_conf_words () in
  let bound = 190_000. in
  if words > bound then
    Alcotest.failf "cold dispatch %.0f minor words (bound %.0f)" words bound

(* What [conf <relation>] must answer, computed without a server or a
   cache: the stored relation grouped by tuple, each set compiled cold and
   solved on its own lane, or the conditioned batch over the same sets. *)
let expected_reply db ?cset ~relation ~seed ?fuel () =
  let udb = Udb_io.load db in
  let w = Udb.wtable udb in
  let sets = Udb.relation_sets udb relation in
  let buf = Buffer.create 4096 in
  (match cset with
  | None ->
      let rngs = Rng.split_n (Rng.create ~seed) (Array.length sets) in
      Array.iteri
        (fun i cs ->
          let o =
            Compile.solve rngs.(i) (Compile.compile ?fuel w cs) ~eps:0.05
              ~delta:0.01
          in
          Printf.bprintf buf "%d %h %h %h %d\n" i o.Compile.value o.Compile.lo
            o.Compile.hi o.Compile.trials)
        sets
  | Some cset ->
      let module C = Pqdb_conditioning.Condition in
      let _, answers =
        C.solve_batch ?fuel ~seed w (C.compile udb cset) sets ~eps:0.05
          ~delta:0.01 ~emit:ignore
      in
      Array.iteri
        (fun i (o : Compile.outcome) ->
          Printf.bprintf buf "%d %h %h %h %d\n" i o.value o.lo o.hi o.trials)
        answers);
  Buffer.contents buf

(* A budget only stops the sampler early; one that never binds changes no
   bit.  Checked at fuel 0 and the default fuel, ε on both sides of ½, for
   Compile.solve, the batch stream and an in-process conf request. *)
let test_non_binding_budget_changes_no_bit () =
  clear_all ();
  with_dnf_db ~seed:24 [ ("r", 6, 30, 30) ] (fun db ->
      let udb = Udb_io.load db in
      let w = Udb.wtable udb in
      let sets = Udb.relation_sets udb "r" in
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      (* At the default fuel some tuple must still sample, or the default
         fuel would compare exact answers only. *)
      check bool_c "default fuel leaves a tuple to sample" true
        (Array.exists (fun cs -> not (Compile.is_exact (Compile.compile w cs))) sets);
      let generous =
        [ ("trials", fun () -> Budget.create ~max_trials:1_000_000_000 ());
          ("deadline", fun () -> Budget.create ~deadline_s:3600. ()) ]
      in
      List.iter
        (fun fuel ->
          List.iter
            (fun eps ->
              let solve budget =
                let b = Buffer.create 256 in
                Array.iteri
                  (fun i cs ->
                    let o =
                      Compile.solve ?budget (Rng.create ~seed:i)
                        (Compile.compile ?fuel w cs) ~eps ~delta:0.05
                    in
                    Printf.bprintf b "%h %h %h %d %h %h %h\n" o.Compile.value
                      o.lo o.hi o.trials o.residual_mass
                      (Guarantee.eps o.claim) (Guarantee.delta o.claim))
                  sets;
                Buffer.contents b
              in
              let stream budget =
                let o, summary =
                  Batch.stream ?budget ~nworkers:1 ?compile_fuel:fuel
                    (Rng.create ~seed:17) w sets ~eps ~delta:0.05
                in
                let b = Buffer.create 256 in
                Array.iteri
                  (fun i v ->
                    let lo, hi = o.Shard.intervals.(i) in
                    Printf.bprintf b "%h %h %h %d %h\n" v lo hi o.trials.(i)
                      o.achieved.(i))
                  o.estimates;
                Printf.bprintf b "%h %b" (Batch.exact_fraction o)
                  summary.Confidence.stream_complete;
                Buffer.contents b
              in
              let request extra =
                Printf.sprintf "conf r eps=%g%s%s" eps
                  (match fuel with Some f -> Printf.sprintf " fuel=%d" f | None -> "")
                  extra
              in
              let label what how =
                Printf.sprintf "%s, fuel %s, eps %g, %s budget" what
                  (match fuel with Some f -> string_of_int f | None -> "default")
                  eps how
              in
              let unbudgeted = (solve None, stream None) in
              List.iter
                (fun (how, budget) ->
                  check string_c (label "Compile.solve" how) (fst unbudgeted)
                    (solve (Some (budget ())));
                  check string_c (label "run_stream outcomes" how)
                    (snd unbudgeted)
                    (stream (Some (budget ()))))
                generous;
              let reply = Server.dispatch srv (request "") in
              check string_c (label "conf" "trials=")
                reply
                (Server.dispatch srv (request " trials=1000000000"));
              check string_c (label "conf" "deadline=")
                reply
                (Server.dispatch srv (request " deadline=3600")))
            [ 0.05; 0.3; 0.7 ])
        [ Some 0; None ])

(* Under a binding trial cap a conf reply is one-shard batch output: the
   cap dealt over the relation's sampling tuples by cost cap, each tuple
   under its own slice, so neither the pool size nor the order the tuples
   run in moves a bit. *)
let test_budgeted_reply_is_one_shard_batch () =
  clear_all ();
  with_fixture_db (fun db ->
      let udb = Udb_io.load db in
      let w = Udb.wtable udb in
      let sets = Udb.relation_sets udb "events" in
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let cap = 20_000 in
      let batch () =
        let o, summary =
          Batch.stream ~nworkers:2 ~compile_fuel:0
            ~budget:(Budget.create ~max_trials:cap ())
            ~options:
              { Confidence.default_stream_options with shard_cost = max_int }
            (Rng.create ~seed:42) w sets ~eps:0.05 ~delta:0.01
        in
        check int_c "one shard" 1 summary.Confidence.shards;
        let b = Buffer.create 4096 in
        Array.iteri
          (fun i v ->
            let lo, hi = o.Shard.intervals.(i) in
            Printf.bprintf b "%d %h %h %h %d\n" i v lo hi o.Shard.trials.(i))
          o.Shard.estimates;
        Buffer.contents b
      in
      let request = Printf.sprintf "conf events fuel=0 trials=%d" cap in
      let at_pool k =
        Unix.putenv "PQDB_POOL_WORKERS" (string_of_int k);
        Pool.reset ();
        (Server.dispatch srv request, batch ())
      in
      let runs =
        Fun.protect
          ~finally:(fun () ->
            Unix.putenv "PQDB_POOL_WORKERS" "1";
            Pool.reset ())
          (fun () -> List.map (fun k -> (k, at_pool k)) [ 1; 2 ])
      in
      List.iter
        (fun (k, (reply, batch)) ->
          let what = Printf.sprintf "pool size %d" k in
          check string_c (what ^ ": the reply is the one-shard batch") batch
            reply;
          check string_c (what ^ ": the same bytes at every pool size")
            (fst (List.assoc 1 runs))
            reply)
        runs;
      check bool_c "the cap binds" true
        (Server.dispatch srv "conf events fuel=0" <> fst (List.assoc 1 runs)))

(* Interleaved requests over several relations, with seed and fuel
   variants and a conditioned session, through an 8-entry cache that
   evicts on nearly every probe: every reply equals the one computed
   without the server. *)
let test_interleaved_replies_match_reference () =
  clear_all ();
  with_dnf_db ~seed:77
    [ ("a", 16, 8, 6); ("b", 12, 10, 8); ("c", 20, 6, 4); ("g", 2, 3, 2) ]
    (fun db ->
      let srv =
        Server.create (config ~cache_entries:8 ~db_path:db (Server.Tcp 1))
      in
      let sess = Server.new_session () in
      let guard = "(g)" in
      check string_c "assert acked" "asserted; 1 active\n"
        (Server.dispatch srv ~session:sess ("assert " ^ guard));
      let cset =
        Pqdb_conditioning.Constraint_set.(
          add empty (Pqdb_lang.Qparser.parse_constraint guard))
      in
      let references = Hashtbl.create 16 in
      let reference ~conditioned relation seed fuel =
        let k = (conditioned, relation, seed, fuel) in
        match Hashtbl.find_opt references k with
        | Some r -> r
        | None ->
            let r =
              expected_reply db
                ?cset:(if conditioned then Some cset else None)
                ~relation ~seed ?fuel ()
            in
            Hashtbl.replace references k r;
            r
      in
      let rng = Rng.create ~seed:5 in
      for _ = 1 to 40 do
        let relation = pick rng [| "a"; "b"; "c"; "a"; "c" |] in
        let seed = pick rng [| 42; 42; 7 |] in
        let fuel = pick rng [| None; None; Some 0; Some 3 |] in
        let conditioned = Rng.int rng 5 = 0 in
        let request =
          Printf.sprintf "conf %s%s%s" relation
            (if seed = 42 then "" else Printf.sprintf " seed=%d" seed)
            (match fuel with
            | Some f -> Printf.sprintf " fuel=%d" f
            | None -> "")
        in
        let reply =
          if conditioned then Server.dispatch srv ~session:sess request
          else Server.dispatch srv request
        in
        check string_c
          (Printf.sprintf "%s%s" request
             (if conditioned then " (conditioned)" else ""))
          (reference ~conditioned relation seed fuel)
          reply
      done;
      check bool_c "the small cache evicted" true
        ((Server.stats srv).Server.cache.Memo.evictions > 0))

(* Constraints that print alike are different constraints: one session
   keeps both [id = 1] and [id = '1'], and two sessions holding one literal
   relation each (both print as [lit(1 tuples)]) never share a cache entry,
   so each conditioned reply equals its own reference. *)
let test_constraints_compare_by_value () =
  clear_all ();
  with_dnf_db ~seed:31 [ ("g", 4, 3, 2) ] (fun db ->
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let assert_in sess guard =
        Server.dispatch srv ~session:sess ("assert " ^ guard)
      in
      let both = Server.new_session () in
      ignore (assert_in both "empty(select[id = 1](g))");
      check string_c "both constraints kept" "asserted; 2 active\n"
        (assert_in both "empty(select[id = '1'](g))");
      List.iter
        (fun guard ->
          let sess = Server.new_session () in
          ignore (assert_in sess guard);
          let cset =
            Pqdb_conditioning.Constraint_set.(
              add empty (Pqdb_lang.Qparser.parse_constraint guard))
          in
          check string_c guard
            (expected_reply db ~cset ~relation:"g" ~seed:42 ())
            (Server.dispatch srv ~session:sess "conf g"))
        [ "empty(g join lit[id]((1)))"; "empty(g join lit[id]((2)))" ])

(* Which way [Compile.solve] answers a tuple: exactly, from a bracket that
   certifies ε with no trial, or by a sampling pass. *)
let solve_path w ?fuel cs ~eps ~delta =
  let t = Compile.compile ?fuel w cs in
  if Compile.is_exact t then `Exact
  else if (Compile.solve (Rng.create ~seed:1) t ~eps ~delta).Compile.trials > 0
  then `Sampled
  else `Certified

(* The conditioned reply under Holds constraints only, materialized:
   [split_n] lanes over n + 1 (the last for Pr(c)), each split in two for
   the conjuncts, every conjunct compiled cold and solved at δ/4, then the
   difference and ratio brackets of Condition. *)
let materialized_conditioned_reply udb cset ~relation ~seed ?fuel ~eps
    ~delta () =
  let module C = Pqdb_conditioning.Condition in
  let w = Udb.wtable udb in
  let sets = Udb.relation_sets udb relation in
  let positive =
    List.fold_left
      (fun acc item ->
        match item with
        | Pqdb_ast.Uconstraint.Holds q ->
            let u = Pqdb.Eval_exact.eval udb (Pqdb_ast.Ua.project [] q) in
            C.conjoin acc
              (Urelation.clauses_for u (Pqdb_relational.Tuple.of_list []))
        | _ -> Alcotest.fail "materialized reference: Holds constraints only")
      [ Assignment.empty ]
      (Pqdb_conditioning.Constraint_set.items cset)
  in
  let joint lane clauses =
    let halves = Rng.split_n lane 2 in
    let pe = C.conjoin clauses positive in
    let o =
      Compile.solve halves.(0) (Compile.compile ?fuel w pe) ~eps
        ~delta:(delta /. 4.)
    in
    let iv =
      Interval.clamp ~lo:0. ~hi:1.
        (Interval.difference
           (Interval.make o.Compile.lo o.Compile.hi)
           (Interval.make 0. 0.))
    in
    ( Float.max iv.Interval.lo (Float.min iv.Interval.hi o.Compile.value),
      iv,
      o.Compile.trials )
  in
  let n = Array.length sets in
  let lanes = Rng.split_n (Rng.create ~seed) (n + 1) in
  let dv, den, _ = joint lanes.(n) [ Assignment.empty ] in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i cs ->
      let v, num, trials = joint lanes.(i) cs in
      let iv = Interval.clamp ~lo:0. ~hi:1. (Interval.ratio ~num ~den) in
      let est =
        Float.max iv.Interval.lo (Float.min iv.Interval.hi (v /. dv))
      in
      Printf.bprintf buf "%d %h %h %h %d\n" i est iv.Interval.lo
        iv.Interval.hi trials)
    sets;
  Buffer.contents buf

(* Lanes on demand and the direct %h writer print what the materialized
   lanes and Printf print, on a relation whose reply mixes exactly compiled,
   bracket-certified and sampled tuples, with and without an asserted
   constraint. *)
let test_mixed_relation_matches_materialized_reference () =
  clear_all ();
  let rng = Rng.create ~seed:31 in
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  (* Each tuple's lineage is one or more random DNFs over fresh variables,
     so separate DNFs are independent components.  At fuel 2 a single
     clause, or a small DNF beside single clauses, compiles exactly; a hard
     DNF alone is expanded once into residuals and sampled whole; and a
     hard DNF beside enough exactly solved single clauses is certified by
     its compiled bracket. *)
  let singles k = List.init k (fun _ -> (1, 1)) in
  let shapes =
    [ [ (3, 1) ]; [ (8, 6) ]; (8, 6) :: singles 6; [ (1, 1) ];
      (12, 12) :: singles 20; (5, 4) :: singles 8; [ (12, 12) ];
      (8, 6) :: singles 12 ]
  in
  let tuple i = Pqdb_relational.(Tuple.of_list [ Value.Int i ]) in
  let rows =
    List.concat
      (List.mapi
         (fun i parts ->
           List.concat_map
             (fun (vars, clauses) ->
               List.map
                 (fun c -> (c, tuple i))
                 (Gen.random_dnf rng w ~vars ~clauses ~clause_len:3))
             parts)
         shapes)
  in
  let schema = Pqdb_relational.Schema.of_list [ "id" ] in
  Udb.add_urelation udb "m" (Urelation.make schema rows);
  (* The constraint relation is one clause, so Pr(c) and the
     single-clause tuples stay exact under [assert (g)]. *)
  Udb.add_urelation udb "g"
    (Urelation.make schema
       (List.map
          (fun c -> (c, tuple 0))
          (Gen.random_dnf rng w ~vars:2 ~clauses:1 ~clause_len:2)));
  Udb.add_urelation udb "e" (Urelation.make schema []);
  let db = temp_path ".udbb" in
  Udb_io.save db udb;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists db then Sys.remove db)
    (fun () ->
      let udb = Udb_io.load db in
      let w = Udb.wtable udb in
      let sets = Udb.relation_sets udb "m" in
      let fuel = 2 and eps = 0.05 and delta = 0.01 in
      let paths =
        Array.map (fun cs -> solve_path w ~fuel cs ~eps ~delta) sets
      in
      List.iter
        (fun (name, p) ->
          check bool_c ("the reply has a tuple that is " ^ name) true
            (Array.exists (( = ) p) paths))
        [ ("exact", `Exact); ("certified", `Certified); ("sampled", `Sampled) ];
      let srv = Server.create (config ~db_path:db (Server.Tcp 1)) in
      let request = Printf.sprintf "conf m fuel=%d" fuel in
      let reference = expected_reply db ~relation:"m" ~seed:42 ~fuel () in
      check string_c "unconditioned reply, cold" reference
        (Server.dispatch srv request);
      check string_c "unconditioned reply, warm" reference
        (Server.dispatch srv request);
      (* No tuple samples, so no lane is drawn: an empty relation answers
         an empty body instead of failing to split zero lanes. *)
      check string_c "an empty relation answers an empty body" ""
        (Server.dispatch srv "conf e");
      let sess = Server.new_session () in
      ignore (Server.dispatch srv ~session:sess "assert (g)");
      let cset =
        Pqdb_conditioning.Constraint_set.(
          add empty (Pqdb_lang.Qparser.parse_constraint "(g)"))
      in
      let conditioned =
        materialized_conditioned_reply udb cset ~relation:"m" ~seed:42 ~fuel
          ~eps ~delta ()
      in
      let trials body =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ _; _; _; _; t ] -> Some (int_of_string t)
            | _ -> None)
          (String.split_on_char '\n' body)
      in
      check bool_c "some conditioned tuple samples" true
        (List.exists (fun t -> t > 0) (trials conditioned));
      check bool_c "some conditioned tuple is exact" true
        (List.exists (fun t -> t = 0) (trials conditioned));
      check string_c "conditioned reply, cold" conditioned
        (Server.dispatch srv ~session:sess request);
      check string_c "conditioned reply, warm" conditioned
        (Server.dispatch srv ~session:sess request))

(* ------------------------------------------------------------------ *)
(* Socket round trip: daemon thread, client queries, clean shutdown.   *)

let test_socket_round_trip () =
  clear_all ();
  with_fixture_db (fun db ->
      let sock = temp_path ".sock" in
      let listen = Server.Unix_socket sock in
      let srv = Server.create (config ~db_path:db listen) in
      let stats = ref None in
      let daemon = Thread.create (fun () -> stats := Some (Server.run srv)) () in
      let c = Client.connect ~retries:50 listen in
      check bool_c "greeting names the db" true
        (contains (Client.greeting c) db);
      let ok1, cold = Client.query c "conf events" in
      let ok2, warm = Client.query c "conf events" in
      check bool_c "cold ok" true ok1;
      check bool_c "warm ok" true ok2;
      check string_c "socket replies byte-identical warm vs cold" cold warm;
      (* errors come back on the same session, which survives *)
      let ok3, err = Client.query c "conf nosuch" in
      check bool_c "bad relation refused" false ok3;
      check bool_c "error mentions the relation" true (contains err "nosuch");
      let ok4, body = Client.query c "stats" in
      check bool_c "stats ok" true ok4;
      check bool_c "cache hits visible over the wire" true
        (match counter body "hits" with Some n -> n > 0 | None -> false);
      let ok5, _ = Client.query c "shutdown" in
      check bool_c "shutdown acknowledged" true ok5;
      Client.close c;
      Thread.join daemon;
      (match !stats with
      | None -> Alcotest.fail "server did not return stats"
      | Some s ->
          check bool_c "served at least one session" true (s.Server.sessions >= 1);
          check bool_c "counted the queries" true (s.Server.queries >= 5);
          check bool_c "cache hits in the final report" true
            (s.Server.cache.Memo.hits > 0));
      check bool_c "socket path cleaned up" false (Sys.file_exists sock))

(* "shutdown" stops the accept loop before its session writes the reply,
   and [pqdb serve] exits as soon as [Server.run] returns.  Two delayed
   sends force the losing interleaving: the client's query and then the
   daemon's reply each sleep 0.3 s.  [run] must not return before the
   reply is on the client's socket. *)
let test_shutdown_reply_before_run_returns () =
  clear_all ();
  with_fixture_db (fun db ->
      let sock = temp_path ".sock" in
      let listen = Server.Unix_socket sock in
      let srv = Server.create (config ~db_path:db listen) in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let reply_ready_at_return = ref None in
      let daemon =
        Thread.create
          (fun () ->
            ignore (Server.run srv);
            let readable, _, _ = Unix.select [ fd ] [] [] 0. in
            reply_ready_at_return := Some (readable <> []))
          ()
      in
      let c = Client.connect ~retries:50 listen in
      Client.close c;
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (match Protocol.read_fd ~timeout_s:5. fd with
          | Some (Protocol.Hello _) -> ()
          | _ -> Alcotest.fail "no greeting");
          FP.arm ~count:2 ~mode:(FP.Delay 0.3) "distrib.send";
          Protocol.write_fd fd (Protocol.Query { id = 1; spec = "shutdown" });
          Thread.join daemon;
          clear_all ();
          check (Alcotest.option bool_c) "reply written before run returned"
            (Some true) !reply_ready_at_return;
          match Protocol.read_fd ~timeout_s:5. fd with
          | Some (Protocol.Reply { id = 1; ok = true; body }) ->
              check string_c "shutdown reply" "shutting down\n" body
          | _ -> Alcotest.fail "shutdown reply lost"))

let test_accept_fault_containment () =
  clear_all ();
  with_fixture_db (fun db ->
      let sock = temp_path ".sock" in
      let listen = Server.Unix_socket sock in
      let srv = Server.create (config ~db_path:db listen) in
      let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
      (* wait for the bind, then arm: the next connection is dropped at
         accept, and the daemon must carry on serving *)
      let probe = Client.connect ~retries:50 listen in
      FP.arm ~count:1 "serve.accept";
      (match Client.connect ~retries:0 listen with
      | c ->
          (* accept raced ahead of the arm consuming a shot is impossible
             (count=1, single accept loop): the greeting must have failed *)
          Client.close c;
          Alcotest.fail "dropped connection still greeted"
      | exception E.Error (E.Malformed_input _) -> ()
      | exception Unix.Unix_error _ -> ());
      clear_all ();
      (* the daemon survived: a fresh session works end to end *)
      let c = Client.connect ~retries:10 listen in
      let ok, _ = Client.query c "conf events" in
      check bool_c "daemon survives an accept fault" true ok;
      let ok_stats, body = Client.query c "stats" in
      check bool_c "stats after fault" true ok_stats;
      check bool_c "dropped connection counted" true
        (match counter body "dropped" with Some n -> n > 0 | None -> false);
      ignore (Client.query c "shutdown");
      Client.close c;
      Client.close probe;
      Thread.join daemon)

(* ------------------------------------------------------------------ *)
(* Stale-socket takeover: a SIGKILL'd daemon leaves its socket path     *)
(* behind; the bind-time connect-probe lets the next daemon reclaim it, *)
(* while a live daemon's socket is refused with a friendly error.       *)

let test_stale_socket_rebind () =
  clear_all ();
  with_fixture_db (fun db ->
      let sock = temp_path ".sock" in
      (* Fake a crashed daemon: bind + listen, then close the listener
         without unlinking — exactly the wreckage SIGKILL leaves. *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.listen fd 1;
      Unix.close fd;
      check bool_c "the corpse's socket path survives" true
        (Sys.file_exists sock);
      let listen = Server.Unix_socket sock in
      let srv = Server.create (config ~db_path:db listen) in
      let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
      let c = Client.connect ~retries:50 listen in
      let ok, _ = Client.query c "conf events" in
      check bool_c "daemon reclaimed the stale socket and serves" true ok;
      ignore (Client.query c "shutdown");
      Client.close c;
      Thread.join daemon)

let test_live_socket_refused () =
  clear_all ();
  with_fixture_db (fun db ->
      let sock = temp_path ".sock" in
      let listen = Server.Unix_socket sock in
      let srv = Server.create (config ~db_path:db listen) in
      let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
      let c = Client.connect ~retries:50 listen in
      (* With the first daemon alive behind the path, a second bind must
         refuse rather than steal the socket out from under it. *)
      let rival = Server.create (config ~db_path:db listen) in
      (match Server.run rival with
      | _ -> Alcotest.fail "second daemon stole a live socket"
      | exception Failure msg ->
          check bool_c "refusal names the running daemon" true
            (contains msg "running daemon"));
      let ok, _ = Client.query c "conf events" in
      check bool_c "original daemon unharmed" true ok;
      ignore (Client.query c "shutdown");
      Client.close c;
      Thread.join daemon)

let test_backoff_salt_spreads () =
  (* Same salt → identical schedule (determinism survives the salting);
     distinct salts → distinct schedules (a fleet retrying together fans
     out); every delay stays inside [capped/2, capped]. *)
  let delays salt =
    List.init 8 (fun k ->
        Pqdb_distrib.Dial.backoff_delay_s ~salt ~retry_delay_s:0.1
          ~max_delay_s:2.0 k)
  in
  check (Alcotest.list (Alcotest.float 0.)) "same salt, same schedule"
    (delays 7) (delays 7);
  check bool_c "distinct salts, distinct schedules" true (delays 7 <> delays 8);
  List.iter
    (fun salt ->
      List.iteri
        (fun k d ->
          let capped = Float.min (0.1 *. (2. ** float_of_int k)) 2.0 in
          check bool_c
            (Printf.sprintf "salt %d attempt %d within [cap/2, cap]" salt k)
            true
            (d >= (capped /. 2.) -. 1e-12 && d <= capped +. 1e-12))
        (delays salt))
    [ 0; 1; 42; 9999 ]

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest fingerprint_permutation_invariant;
          QCheck_alcotest.to_alcotest fingerprint_subsumption_invariant;
          Alcotest.test_case "sensitivity" `Quick test_fingerprint_sensitivity;
          QCheck_alcotest.to_alcotest fingerprint_injective;
        ] );
      ( "cache",
        [
          QCheck_alcotest.to_alcotest equivalent_variants_hit_same_entry;
          Alcotest.test_case "identical tree" `Quick test_cache_identical_tree;
          Alcotest.test_case "lru bound + counters" `Quick
            test_lru_bound_and_counters;
          Alcotest.test_case "counters pinned" `Quick test_counters_pinned;
          Alcotest.test_case "hit allocation guard" `Quick
            test_hit_allocation_guard;
        ] );
      ( "server",
        [
          Alcotest.test_case "warm equals cold" `Quick
            test_dispatch_conf_warm_equals_cold;
          Alcotest.test_case "stats + friendly errors" `Quick
            test_dispatch_stats_and_errors;
          Alcotest.test_case "budget admission" `Quick test_budget_admission;
          Alcotest.test_case "a failed shard is an error reply" `Quick
            test_failed_shard_is_an_error;
          Alcotest.test_case "warm request allocation guard" `Quick
            test_warm_request_allocation_guard;
          Alcotest.test_case "cold request allocation guard" `Quick
            test_cold_request_allocation_guard;
          Alcotest.test_case "interleaved replies match the reference" `Quick
            test_interleaved_replies_match_reference;
          Alcotest.test_case "constraints compare by value" `Quick
            test_constraints_compare_by_value;
          Alcotest.test_case "mixed relation matches the materialized reference"
            `Quick test_mixed_relation_matches_materialized_reference;
          Alcotest.test_case "a budgeted reply is one-shard batch output" `Quick
            test_budgeted_reply_is_one_shard_batch;
          Alcotest.test_case "a budget that never binds changes no bit" `Quick
            test_non_binding_budget_changes_no_bit;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round trip" `Quick test_socket_round_trip;
          Alcotest.test_case "shutdown reply before run returns" `Quick
            test_shutdown_reply_before_run_returns;
          Alcotest.test_case "accept fault containment" `Quick
            test_accept_fault_containment;
          Alcotest.test_case "stale socket reclaimed" `Quick
            test_stale_socket_rebind;
          Alcotest.test_case "live socket refused" `Quick
            test_live_socket_refused;
          Alcotest.test_case "backoff salt spreads the fleet" `Quick
            test_backoff_salt_spreads;
        ] );
    ]
