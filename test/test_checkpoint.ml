(* Streaming, checkpointed batch execution: journal framing, crash/resume
   bit-identity, shard quarantine containment, and budget-aware scheduling.

   Like test_faults, this suite is written to pass under an
   environment-armed fault (the CI matrix runs every suite with
   PQDB_FAULTPOINTS=<site>): the smoke test below runs first against
   whatever the environment armed, and every later test clears the registry
   before arming its own site — the bit-identity assertions only make sense
   on a fault-free engine. *)

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
module Q = Rational
module FP = Pqdb_runtime.Faultpoint
module E = Pqdb_runtime.Pqdb_error
module Checkpoint = Pqdb_runtime.Checkpoint
module Gen = Pqdb_workload.Gen

(* Exercise the parallel path even on single-core machines. *)
let () = Unix.putenv "PQDB_POOL_WORKERS" "3"

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let clear_all () = List.iter FP.disarm (FP.armed ())

let find_sub ~sub s =
  let nl = String.length sub and hl = String.length s in
  let rec go i =
    if i + nl > hl then None
    else if String.sub s i nl = sub then Some i
    else go (i + 1)
  in
  go 0

let contains ~needle hay = find_sub ~sub:needle hay <> None

(* Literal first-occurrence replacement (no Str dependency). *)
let replace_once ~sub ~by s =
  match find_sub ~sub s with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by
      ^ String.sub s
          (i + String.length sub)
          (String.length s - i - String.length sub)

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqdb_ckpt_%d_%d" (Unix.getpid ()) !temp_counter)
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_raw path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Fixture: a mixed batch big enough to plan into several shards.      *)

let eps = 0.35
let delta = 0.2

let fixture () =
  let rng = Rng.create ~seed:4242 in
  let w = Wtable.create () in
  let sets =
    List.init 18 (fun i ->
        match i mod 6 with
        | 0 -> Gen.random_dnf rng w ~vars:8 ~clauses:5 ~clause_len:3
        | 1 ->
            let num = 1 + Rng.int rng 9 in
            let v =
              Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ]
            in
            [ Assignment.singleton v 1 ]
        | 2 -> Gen.random_dnf rng w ~vars:6 ~clauses:4 ~clause_len:2
        | 3 -> [ Assignment.empty ] (* certain *)
        | 4 -> [] (* impossible *)
        | _ -> Gen.random_dnf rng w ~vars:10 ~clauses:6 ~clause_len:3)
  in
  (w, Array.of_list sets)

(* A shard ceiling that cuts the fixture into several shards. *)
let shard_cost_for clause_sets ~target =
  let total =
    Array.fold_left
      (fun acc cs -> acc + Shard.tuple_cost ~eps ~delta cs)
      0 clause_sets
  in
  max 1 (total / target)

let bits = Int64.bits_of_float

let check_floats_bitwise name a b =
  check int_c (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      check Alcotest.int64
        (Printf.sprintf "%s: slot %d" name i)
        (bits x) (bits b.(i)))
    a

let check_intervals_bitwise name a b =
  check int_c (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (lo, hi) ->
      let lo', hi' = b.(i) in
      check Alcotest.int64
        (Printf.sprintf "%s: lo %d" name i)
        (bits lo) (bits lo');
      check Alcotest.int64
        (Printf.sprintf "%s: hi %d" name i)
        (bits hi) (bits hi'))
    a

let check_same_result name (o : Shard.outcome) (o' : Shard.outcome) =
  check_floats_bitwise (name ^ ": estimates") o.estimates o'.estimates;
  check_intervals_bitwise (name ^ ": intervals") o.intervals o'.intervals;
  check_floats_bitwise (name ^ ": achieved") o.achieved o'.achieved;
  check Alcotest.(array int_c) (name ^ ": trials") o.trials o'.trials

let stream_opts ?checkpoint ?(resume = false) ?(retries = 2) ~shard_cost () =
  { Confidence.shard_cost; retries; checkpoint; resume }

let run_stream ?budget ?compile_fuel ~options w clause_sets =
  Batch.stream ?budget ?compile_fuel ~options (Rng.create ~seed:99) w
    clause_sets ~eps ~delta

(* The lane contract itself, materialized: one [Rng.split_n] child of the
   seed per tuple, and each tuple compiled and solved on its own lane. *)
let run_materialized ?compile_fuel w clause_sets =
  let n = Array.length clause_sets in
  let lanes = Rng.split_n (Rng.create ~seed:99) n in
  let os =
    Array.init n (fun i ->
        Compile.solve lanes.(i)
          (Compile.compile ?fuel:compile_fuel w clause_sets.(i))
          ~eps ~delta)
  in
  let per f = Array.map f os in
  {
    Shard.shard = { index = 0; first = 0; count = n; cost = 0 };
    fp = "";
    estimates = per (fun o -> o.Compile.value);
    intervals = per (fun o -> (o.Compile.lo, o.Compile.hi));
    trials = per (fun o -> o.Compile.trials);
    achieved = per (fun o -> Guarantee.eps o.Compile.claim);
    masses = per (fun o -> o.Compile.residual_mass);
    complete =
      Array.for_all
        (fun o -> Guarantee.meets o.Compile.claim (Guarantee.pass ~eps ~delta))
        os;
    resumed = false;
    quarantined = None;
  }

(* ------------------------------------------------------------------ *)
(* 0. Environment smoke: whatever site CI armed, a checkpointed stream
      must stay sound — typed quarantine or degraded journal, never a
      crash or an unsound bracket. *)

let test_env_smoke () =
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let path = Filename.concat dir "smoke.ckpt" in
      let options = stream_opts ~checkpoint:path ~retries:1 ~shard_cost () in
      let o, summary = run_stream ~options w clause_sets in
      Batch.assert_sound "env smoke" w clause_sets o.intervals;
      List.iter
        (fun (_, err) ->
          check bool_c "quarantine error is typed" true
            (String.length (E.to_string err) > 0))
        summary.Confidence.quarantined)

(* ------------------------------------------------------------------ *)
(* 1. Checkpoint journal plumbing. *)

(* CRC-32 against the textbook definition: reflected polynomial
   0xEDB88320, register preset and final xor 0xFFFFFFFF, one bit at a
   time with no table. *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

let test_crc32_known_answer () =
  check Alcotest.int32 "crc32 \"123456789\"" 0xCBF43926l
    (Checkpoint.crc32 "123456789");
  check Alcotest.string "crc32_hex \"123456789\"" "cbf43926"
    (Checkpoint.crc32_hex "123456789");
  check Alcotest.int32 "crc32 of the empty string" 0l (Checkpoint.crc32 "")

let crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 agrees with a bit-by-bit reference"
    ~count:500
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size
            ~gen:(map Char.chr (int_range 0 255))
            (oneof [ return 0; int_range 0 8; int_range 0 2000 ])))
    (fun s -> Int32.equal (Checkpoint.crc32 s) (crc32_bitwise s))

(* The bytewise table CRC-32 the slicing-by-4 loop replaced. *)
let crc32_bytewise =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun s ->
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
      s;
    Int32.of_int (!c lxor 0xFFFFFFFF)

(* Every length from 0 to 64 covers each word/tail split of the four-byte
   loop; [crc32_bytes] at every alignment and 1 MB cover the rest. *)
let test_crc32_matches_bytewise () =
  let rng = Random.State.make [| 2024 |] in
  let random_string n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  for n = 0 to 64 do
    for _ = 1 to 8 do
      let s = random_string n in
      check Alcotest.int32
        (Printf.sprintf "length %d" n)
        (crc32_bytewise s) (Checkpoint.crc32 s);
      for pos = 0 to min 3 n do
        let len = n - pos in
        check Alcotest.int
          (Printf.sprintf "length %d from %d" len pos)
          (Int32.to_int (crc32_bytewise (String.sub s pos len)) land 0xFFFFFFFF)
          (Checkpoint.crc32_bytes (Bytes.of_string s) pos len)
      done
    done
  done;
  let mb = random_string (1 lsl 20) in
  check Alcotest.int32 "1 MB" (crc32_bytewise mb) (Checkpoint.crc32 mb);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d of 4" pos len)
        (Invalid_argument "Checkpoint.crc32_bytes") (fun () ->
          ignore (Checkpoint.crc32_bytes (Bytes.make 4 'x') pos len)))
    [ (-1, 2); (0, 5); (3, 2); (2, -1) ]

let test_journal_framing () =
  clear_all ();
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.ckpt" in
      check
        Alcotest.(list string)
        "missing file reads empty" [] (Checkpoint.read path);
      let wtr, prior = Checkpoint.open_writer path in
      check Alcotest.(list string) "fresh journal" [] prior;
      Checkpoint.append wtr "alpha one";
      Checkpoint.append wtr "beta two";
      Alcotest.check_raises "newline payload rejected"
        (Invalid_argument "Checkpoint.append: payload must be newline-free")
        (fun () -> Checkpoint.append wtr "bad\npayload");
      Checkpoint.close wtr;
      check
        Alcotest.(list string)
        "round trip"
        [ "alpha one"; "beta two" ]
        (Checkpoint.read path);
      let wtr, prior = Checkpoint.open_writer ~resume:true path in
      check
        Alcotest.(list string)
        "resume sees prior records"
        [ "alpha one"; "beta two" ]
        prior;
      Checkpoint.append wtr "gamma";
      Checkpoint.close wtr;
      check int_c "append after resume" 3 (List.length (Checkpoint.read path));
      (* resume:false truncates. *)
      let wtr, prior = Checkpoint.open_writer path in
      check Alcotest.(list string) "truncated on fresh open" [] prior;
      Checkpoint.close wtr)

let test_torn_tail () =
  clear_all ();
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "torn.ckpt" in
      let wtr, _ = Checkpoint.open_writer path in
      Checkpoint.append wtr "first";
      Checkpoint.append wtr "second";
      Checkpoint.close wtr;
      let body = read_file path in
      (* Chop bytes off the tail: every truncation must still read the
         surviving whole records, silently dropping the torn line. *)
      for cut = 1 to 8 do
        write_raw path (String.sub body 0 (String.length body - cut));
        let records = Checkpoint.read path in
        check bool_c
          (Printf.sprintf "cut %d keeps a valid prefix" cut)
          true
          (records = [ "first" ] || records = [ "first"; "second" ])
      done;
      (* A torn tail is also writable: resume truncates it away. *)
      write_raw path (String.sub body 0 (String.length body - 3));
      let wtr, prior = Checkpoint.open_writer ~resume:true path in
      check Alcotest.(list string) "torn record dropped" [ "first" ] prior;
      Checkpoint.append wtr "third";
      Checkpoint.close wtr;
      check
        Alcotest.(list string)
        "journal healed" [ "first"; "third" ] (Checkpoint.read path))

let test_mid_corruption () =
  clear_all ();
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "flip.ckpt" in
      let wtr, _ = Checkpoint.open_writer path in
      Checkpoint.append wtr "first";
      Checkpoint.append wtr "second";
      Checkpoint.append wtr "third";
      Checkpoint.close wtr;
      let body = read_file path in
      (* Flip a byte inside record 1 (not the final line): typed
         Malformed_input naming the path and the record index. *)
      let idx =
        let rec find i = if body.[i] = 'f' then i else find (i + 1) in
        find (String.length Checkpoint.magic)
      in
      let corrupt = Bytes.of_string body in
      Bytes.set corrupt idx 'F';
      write_raw path (Bytes.to_string corrupt);
      (match Checkpoint.read path with
      | _ -> Alcotest.fail "corrupt mid-file record must raise"
      | exception E.Error (E.Malformed_input { source; detail }) ->
          check Alcotest.string "names the journal" path source;
          check bool_c "names the record" true
            (contains ~needle:"record 1" detail));
      (* The same flip in the FINAL record is indistinguishable from a torn
         tail and is dropped, not fatal. *)
      let last_t = String.rindex body 't' in
      let corrupt = Bytes.of_string body in
      Bytes.set corrupt last_t 'T';
      write_raw path (Bytes.to_string corrupt);
      check
        Alcotest.(list string)
        "flipped final record dropped"
        [ "first"; "second" ]
        (Checkpoint.read path);
      (* A corrupt header is always fatal. *)
      write_raw path "not-a-journal\nr 00000000 x\n";
      match Checkpoint.read path with
      | _ -> Alcotest.fail "bad header must raise"
      | exception E.Error (E.Malformed_input { detail; _ }) ->
          check bool_c "header named" true (contains ~needle:"header" detail))

(* ------------------------------------------------------------------ *)
(* 2. Stream = materialized run, bit for bit. *)

let test_stream_matches_run () =
  clear_all ();
  let w, clause_sets = fixture () in
  let reference = run_materialized w clause_sets in
  let shard_cost = shard_cost_for clause_sets ~target:6 in
  let streamed, summary =
    run_stream ~options:(stream_opts ~shard_cost ()) w clause_sets
  in
  check bool_c "plan has several shards" true (summary.Confidence.shards >= 4);
  check bool_c "stream complete" true summary.Confidence.stream_complete;
  check_same_result "stream vs run" reference streamed;
  (* One-shard-per-tuple is the degenerate extreme and must still agree. *)
  let streamed, summary =
    run_stream ~options:(stream_opts ~shard_cost:1 ()) w clause_sets
  in
  check int_c "singleton shards"
    (Array.length clause_sets)
    summary.Confidence.shards;
  check_same_result "singleton stream vs run" reference streamed

(* Fingerprints and journal payloads are only built while a journal is
   live; that must not move a bit.  A journaled run and a journal-free run
   return the same estimates, brackets, trials, masses and summary, the
   journal carries every shard's real data fingerprint, and resuming from
   it passes the fingerprint check and replays the same bits. *)
let test_journal_on_off_identical () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let compile_fuel = 2 in
      let plan = Shard.plan ~eps ~delta ~max_cost:shard_cost clause_sets in
      let run options =
        let outcomes = ref [] in
        let summary =
          Confidence.run_stream ~compile_fuel ~options (Rng.create ~seed:99) w
            clause_sets ~eps ~delta ~emit:(fun o -> outcomes := o :: !outcomes)
        in
        (List.rev !outcomes, summary)
      in
      let same name (a : Shard.outcome list) (b : Shard.outcome list) =
        check int_c (name ^ ": shards") (List.length a) (List.length b);
        List.iter2
          (fun (x : Shard.outcome) (y : Shard.outcome) ->
            let tag = Printf.sprintf "%s: shard %d" name x.shard.Shard.index in
            check bool_c (tag ^ ": geometry") true (x.shard = y.shard);
            check_floats_bitwise (tag ^ ": estimates") x.estimates y.estimates;
            check_intervals_bitwise (tag ^ ": intervals") x.intervals
              y.intervals;
            check Alcotest.(array int_c) (tag ^ ": trials") x.trials y.trials;
            check_floats_bitwise (tag ^ ": achieved") x.achieved y.achieved;
            check_floats_bitwise (tag ^ ": masses") x.masses y.masses;
            check bool_c (tag ^ ": complete") x.complete y.complete)
          a b
      in
      let bare, bare_summary = run (stream_opts ~shard_cost ()) in
      check bool_c "the fixture samples" true
        (List.exists
           (fun (o : Shard.outcome) -> Array.exists (fun t -> t > 0) o.trials)
           bare);
      let path = Filename.concat dir "on-off.ckpt" in
      let journaled, journaled_summary =
        run (stream_opts ~checkpoint:path ~shard_cost ())
      in
      same "journal vs none" bare journaled;
      check bool_c "same summary" true (bare_summary = journaled_summary);
      check bool_c "several shards" true (bare_summary.Confidence.shards >= 4);
      List.iter
        (fun (o : Shard.outcome) ->
          check Alcotest.string
            (Printf.sprintf "shard %d journaled with its data fingerprint"
               o.shard.Shard.index)
            (Shard.fingerprint clause_sets plan.(o.shard.Shard.index))
            o.fp)
        journaled;
      let replayed, summary =
        run (stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
      in
      check int_c "every shard replayed" summary.Confidence.shards
        summary.Confidence.resumed_shards;
      same "replay vs none" bare replayed;
      check int_c "same trials" bare_summary.Confidence.stream_trials
        summary.Confidence.stream_trials)

(* ------------------------------------------------------------------ *)
(* 3. Crash mid-stream, resume, bit-identical. *)

let crash_after ?budget ~k ~options w clause_sets =
  (* Simulate a crash: the consumer dies after [k] shards were computed,
     journaled and emitted.  The journal then holds exactly [k] records. *)
  let rng = Rng.create ~seed:99 in
  let seen = ref 0 in
  match
    Confidence.run_stream ?budget ~options rng w clause_sets ~eps ~delta
      ~emit:(fun _ ->
        incr seen;
        if !seen >= k then raise Exit)
  with
  | _ -> Alcotest.fail "crash simulation must escape run_stream"
  | exception Exit -> ()

let test_crash_resume () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let reference =
        run_stream ~options:(stream_opts ~shard_cost ()) w clause_sets
      in
      let path = Filename.concat dir "crash.ckpt" in
      crash_after ~k:2
        ~options:(stream_opts ~checkpoint:path ~shard_cost ())
        w clause_sets;
      check int_c "journal holds meta + crashed prefix" 3
        (List.length (Checkpoint.read path));
      let resumed, summary =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
          w clause_sets
      in
      check int_c "two shards replayed" 2 summary.Confidence.resumed_shards;
      check bool_c "resume complete" true summary.Confidence.stream_complete;
      check bool_c "journal intact" true summary.Confidence.journal_ok;
      check_same_result "resumed vs cold" (fst reference) resumed;
      check int_c "journal now covers every shard"
        (summary.Confidence.shards + 1)
        (List.length (Checkpoint.read path));
      (* Resuming a COMPLETE journal recomputes nothing at all. *)
      let replayed, summary =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
          w clause_sets
      in
      check int_c "everything replayed" summary.Confidence.shards
        summary.Confidence.resumed_shards;
      check_same_result "pure replay vs cold" (fst reference) replayed)

let test_crash_resume_under_budget () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      (* Size the allowance off the ACTUAL fault-free spend (the compiled
         run spends far less than the a-priori worst case), so the governor
         genuinely runs dry mid-batch. *)
      let free = run_materialized w clause_sets in
      let actual = Array.fold_left ( + ) 0 free.trials in
      let allowance = max 1 (actual * 3 / 10) in
      let fresh_budget () = Budget.create ~max_trials:allowance () in
      let reference =
        run_stream ~budget:(fresh_budget ())
          ~options:(stream_opts ~shard_cost ())
          w clause_sets
      in
      let path = Filename.concat dir "budget.ckpt" in
      crash_after ~budget:(fresh_budget ()) ~k:2
        ~options:(stream_opts ~checkpoint:path ~shard_cost ())
        w clause_sets;
      (* Every shard's trial slice is fixed when the run opens, from the
         allowance left then, so the resumed run's tail gets exactly the
         cold run's slices; resumed shards charge the governor with their
         journaled spend. *)
      let resumed, summary =
        run_stream ~budget:(fresh_budget ())
          ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
          w clause_sets
      in
      check int_c "budget resume replayed the prefix" 2
        summary.Confidence.resumed_shards;
      check_same_result "budget resumed vs cold" (fst reference) resumed;
      Batch.assert_sound "budget resume" w clause_sets resumed.intervals)

(* ------------------------------------------------------------------ *)
(* 4. Quarantine containment and self-healing resume. *)

let test_quarantine_containment () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let reference, ref_summary =
        run_stream ~options:(stream_opts ~shard_cost ()) w clause_sets
      in
      let nshards = ref_summary.Confidence.shards in
      check bool_c "fixture plans >= 4 shards" true (nshards >= 4);
      let retries = 1 in
      (* Each poisoned shard consumes (retries + 1) shots before it is
         quarantined, so count = 2 * (retries + 1) poisons exactly the
         first two shards and leaves every other shard untouched. *)
      FP.arm ~count:(2 * (retries + 1)) "shard.run";
      let path = Filename.concat dir "poison.ckpt" in
      let options = stream_opts ~checkpoint:path ~retries ~shard_cost () in
      let o, summary = run_stream ~options w clause_sets in
      clear_all ();
      check int_c "exactly two shards quarantined" 2
        (List.length summary.Confidence.quarantined);
      check
        Alcotest.(list int_c)
        "the first two shards" [ 0; 1 ]
        (List.map fst summary.Confidence.quarantined);
      List.iter
        (fun (_, err) ->
          match err with
          | E.Injected _ -> ()
          | e ->
              Alcotest.failf "expected typed Injected, got %s" (E.to_string e))
        summary.Confidence.quarantined;
      check bool_c "stream not complete" false
        summary.Confidence.stream_complete;
      (* Every bracket stays sound, quarantined tuples included. *)
      Batch.assert_sound "quarantine" w clause_sets o.intervals;
      (* Tuples outside the poisoned shards are bit-identical to the
         fault-free run; poisoned tuples spent nothing. *)
      let plan = Shard.plan ~eps ~delta ~max_cost:shard_cost clause_sets in
      let poisoned_tuples = plan.(0).Shard.count + plan.(1).Shard.count in
      Array.iteri
        (fun i x ->
          if i >= poisoned_tuples then
            check Alcotest.int64
              (Printf.sprintf "clean tuple %d bit-identical" i)
              (bits reference.Shard.estimates.(i)) (bits x)
          else
            check int_c
              (Printf.sprintf "poisoned tuple %d spent nothing" i)
              0 o.trials.(i))
        o.estimates;
      (* Quarantined shards are NOT journaled, so a resume with the fault
         gone retries exactly them and heals to the fault-free result. *)
      let healed, summary =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
          w clause_sets
      in
      check int_c "healed resume replays the clean shards" (nshards - 2)
        summary.Confidence.resumed_shards;
      check bool_c "healed stream complete" true
        summary.Confidence.stream_complete;
      check_same_result "healed vs fault-free" reference healed)

let test_retry_recovers () =
  clear_all ();
  let w, clause_sets = fixture () in
  let shard_cost = shard_cost_for clause_sets ~target:6 in
  let reference, _ =
    run_stream ~options:(stream_opts ~shard_cost ()) w clause_sets
  in
  (* One transient fault, one retry allowed: the shard must recover on the
     second attempt and — because every attempt runs on fresh copies of the
     tuples' RNG lanes — produce exactly the fault-free stream. *)
  FP.arm ~count:1 "shard.run";
  let streamed, summary =
    run_stream ~options:(stream_opts ~retries:1 ~shard_cost ()) w clause_sets
  in
  clear_all ();
  check int_c "nothing quarantined" 0
    (List.length summary.Confidence.quarantined);
  check bool_c "complete" true summary.Confidence.stream_complete;
  check_same_result "retried vs fault-free" reference streamed

let test_journal_abandoned () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let reference, _ =
        run_stream ~options:(stream_opts ~shard_cost ()) w clause_sets
      in
      (* A persistently failing journal append must degrade journal_ok and
         nothing else: the computation is unaffected. *)
      FP.arm "checkpoint.write";
      let path = Filename.concat dir "dead.ckpt" in
      let streamed, summary =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~retries:1 ~shard_cost ())
          w clause_sets
      in
      clear_all ();
      check bool_c "journal reported broken" false
        summary.Confidence.journal_ok;
      check bool_c "stream still complete" true
        summary.Confidence.stream_complete;
      check_same_result "abandoned journal vs fault-free" reference streamed)

(* ------------------------------------------------------------------ *)
(* 5. Journal corruption corpus against a REAL stream journal. *)

let resume_from ~w ~clause_sets ~shard_cost ~path =
  run_stream
    ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
    w clause_sets

let reframe payload = "r " ^ Checkpoint.crc32_hex payload ^ " " ^ payload
let payload_of_line line = String.sub line 11 (String.length line - 11)

let expect_malformed name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Malformed_input" name
  | exception E.Error (E.Malformed_input { source; detail }) -> (source, detail)

let test_corrupt_corpus () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let path = Filename.concat dir "real.ckpt" in
      let reference, real_summary =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~shard_cost ())
          w clause_sets
      in
      check bool_c "corpus journal complete" true
        real_summary.Confidence.journal_ok;
      let body = read_file path in
      let lines = String.split_on_char '\n' body in
      let meta_line = List.nth lines 1 in
      (* first shard record: header and meta are lines 0 and 1 *)
      let first_record = List.nth lines 2 in
      let payload = payload_of_line first_record in
      (* (a) Truncation anywhere: always resumes cleanly and lands on the
         cold result — truncation only ever hits the tail. *)
      List.iter
        (fun cut ->
          write_raw path (String.sub body 0 (String.length body - cut));
          let resumed, summary = resume_from ~w ~clause_sets ~shard_cost ~path in
          check bool_c
            (Printf.sprintf "truncate %d resumes complete" cut)
            true summary.Confidence.stream_complete;
          check_same_result
            (Printf.sprintf "truncate %d vs cold" cut)
            reference resumed)
        [ 1; 7; String.length body / 2 ];
      (* (b) An identical duplicate record is legitimate (a crash between
         fsync and bookkeeping can replay a shard) and resolves
         first-wins. *)
      write_raw path (body ^ first_record ^ "\n");
      let resumed, _ = resume_from ~w ~clause_sets ~shard_cost ~path in
      check_same_result "identical duplicate vs cold" reference resumed;
      (* (c) A CONFLICTING duplicate — valid frame, different numbers — is
         corruption and must fail typed. *)
      let conflicting =
        if contains ~needle:"complete=1" payload then
          replace_once ~sub:"complete=1" ~by:"complete=0" payload
        else replace_once ~sub:"complete=0" ~by:"complete=1" payload
      in
      write_raw path (body ^ reframe conflicting ^ "\n");
      let _, detail =
        expect_malformed "conflicting duplicate" (fun () ->
            resume_from ~w ~clause_sets ~shard_cost ~path)
      in
      check bool_c "conflict named" true
        (contains ~needle:"conflicting duplicate" detail);
      (* (d) A record claiming a shard outside the plan. *)
      let alien = replace_once ~sub:"shard=0 " ~by:"shard=99 " payload in
      write_raw path (body ^ reframe alien ^ "\n");
      let _, detail =
        expect_malformed "unknown shard" (fun () ->
            resume_from ~w ~clause_sets ~shard_cost ~path)
      in
      check bool_c "unknown shard named" true
        (contains ~needle:"unknown shard" detail);
      (* (e) Geometry drift: same shard index, different first tuple.  The
         journal is rebuilt as header + meta + the doctored record twice,
         so the bad record is never a droppable torn tail. *)
      let drifted = replace_once ~sub:"first=0 " ~by:"first=7 " payload in
      write_raw path
        (Checkpoint.magic ^ "\n" ^ meta_line ^ "\n" ^ reframe drifted ^ "\n"
       ^ reframe drifted ^ "\n");
      let _, detail =
        expect_malformed "geometry drift" (fun () ->
            resume_from ~w ~clause_sets ~shard_cost ~path)
      in
      check bool_c "geometry named" true (contains ~needle:"geometry" detail);
      (* (f) Fingerprint drift: same geometry, foreign data. *)
      let fp_idx =
        match find_sub ~sub:"fp=" payload with
        | Some i -> i + 3
        | None -> Alcotest.fail "payload has no fingerprint"
      in
      let real_fp = String.sub payload fp_idx 8 in
      let fake_fp = if real_fp = "deadbeef" then "deadbee0" else "deadbeef" in
      let refp =
        replace_once ~sub:("fp=" ^ real_fp) ~by:("fp=" ^ fake_fp) payload
      in
      write_raw path
        (Checkpoint.magic ^ "\n" ^ meta_line ^ "\n" ^ reframe refp ^ "\n"
       ^ reframe refp ^ "\n");
      let _, detail =
        expect_malformed "fingerprint drift" (fun () ->
            resume_from ~w ~clause_sets ~shard_cost ~path)
      in
      check bool_c "fingerprint named" true
        (contains ~needle:"fingerprint" detail))

let test_meta_mismatch () =
  clear_all ();
  with_temp_dir (fun dir ->
      let w, clause_sets = fixture () in
      let shard_cost = shard_cost_for clause_sets ~target:6 in
      let path = Filename.concat dir "meta.ckpt" in
      let _ =
        run_stream
          ~options:(stream_opts ~checkpoint:path ~shard_cost ())
          w clause_sets
      in
      (* Same journal, different ε: the shard plan and every stored number
         are meaningless for the new run — typed failure, not a resume. *)
      let rng = Rng.create ~seed:99 in
      match
        Batch.stream
          ~options:(stream_opts ~checkpoint:path ~resume:true ~shard_cost ())
          rng w clause_sets ~eps:(eps /. 2.) ~delta
      with
      | _ -> Alcotest.fail "meta mismatch must raise"
      | exception E.Error (E.Malformed_input { source; detail }) ->
          check Alcotest.string "names the journal" path source;
          check bool_c "names the parameters" true
            (contains ~needle:"parameters" detail))

(* ------------------------------------------------------------------ *)
(* 6. Budget-aware scheduling: the tail degrades evenly. *)

let hard_fixture () =
  let rng = Rng.create ~seed:777 in
  let w = Wtable.create () in
  let sets =
    (* Three hogs and seven small tuples: a one-shard run farms work
       longest-first, so a binding governor is drained by the hogs before
       the small tuples ever run. *)
    List.init 10 (fun i ->
        if i < 3 then Gen.random_dnf rng w ~vars:10 ~clauses:40 ~clause_len:3
        else Gen.random_dnf rng w ~vars:10 ~clauses:4 ~clause_len:3)
  in
  (w, Array.of_list sets)

let test_budget_split_spreads_tail () =
  clear_all ();
  let w, clause_sets = hard_fixture () in
  let n = Array.length clause_sets in
  (* compile_fuel:0 recovers the pure FPRAS: the compiler resolves these
     small formulas exactly otherwise, and the test needs sampling work. *)
  let free = run_materialized ~compile_fuel:0 w clause_sets in
  let needs_sampling = Array.map (fun t -> t > 0) free.trials in
  let sampled_count =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 needs_sampling
  in
  check bool_c "fixture has sampling work" true (sampled_count >= 5);
  let actual = Array.fold_left ( + ) 0 free.trials in
  let allowance = max 1 (actual / 10) in
  (* One shard: the allowance is dealt again over its sampling tuples by
     cost cap, so every one of them makes progress. *)
  let one_shard ?nworkers () =
    fst
      (Batch.stream ?nworkers ~compile_fuel:0
         ~budget:(Budget.create ~max_trials:allowance ())
         ~options:(stream_opts ~shard_cost:max_int ())
         (Rng.create ~seed:99) w clause_sets ~eps ~delta)
  in
  Array.iteri
    (fun i t ->
      if needs_sampling.(i) then
        check bool_c
          (Printf.sprintf "at one shard every sampling tuple makes progress \
                           (tuple %d)" i)
          true (t > 0))
    (one_shard ()).trials;
  (* Each tuple samples under its own slice, so the same allowance gives
     the same bits on one pool domain and on two. *)
  check int_c "the 174-trial probe" 174 allowance;
  let at_pool k =
    Unix.putenv "PQDB_POOL_WORKERS" (string_of_int k);
    Pool.reset ();
    one_shard ~nworkers:2 ()
  in
  let inline, raced =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "PQDB_POOL_WORKERS" "3";
        Pool.reset ())
      (fun () ->
        let inline = at_pool 1 in
        (inline, at_pool 2))
  in
  check_same_result "pool sizes 1 and 2" inline raced;
  (* Static slices, one shard per tuple: every sampling tuple gets its
     cost share of the allowance and makes progress. *)
  let o, summary =
    run_stream ~compile_fuel:0
      ~budget:(Budget.create ~max_trials:allowance ())
      ~options:(stream_opts ~shard_cost:1 ())
      w clause_sets
  in
  check int_c "one shard per tuple" n summary.Confidence.shards;
  Array.iteri
    (fun i t ->
      if needs_sampling.(i) then
        check bool_c (Printf.sprintf "tuple %d made progress" i) true (t > 0))
    o.trials;
  (* Both degraded, both sound. *)
  check bool_c "stream degraded" false summary.Confidence.stream_complete;
  Batch.assert_sound "budget split" w clause_sets o.intervals;
  (* The streamed spend respects the governor: the slices sum to the
     allowance, plus in-flight overshoot. *)
  check bool_c "stream within allowance" true
    (Array.fold_left ( + ) 0 o.trials
    <= allowance + (9 * n))

(* Exact apportionment: adversarial cost vectors where naive proportional
   rounding loses or invents trials, and allowances up to [max_int], where
   a float share rounds past the largest [int]. *)
let alloc_exact =
  QCheck.Test.make ~name:"allocate sums exactly to the allowance" ~count:500
    QCheck.(
      pair (int_range 0 100_000)
        (oneof
           [
             int_range 1 2_000_000;
             map (fun k -> max_int - k) (int_range 0 1_000_000);
             map (fun k -> (max_int / 2) - k) (int_range 0 1_000_000);
           ]))
    (fun (gen, trials) ->
      let rng = Rng.create ~seed:(31_000 + gen) in
      let n = 1 + Rng.int rng 40 in
      let costs =
        Array.init n (fun _ ->
            match Rng.int rng 5 with
            | 0 -> 0
            | 1 -> 1
            | 2 -> Rng.int rng 7
            | 3 -> 1_000_000 + Rng.int rng 1_000_000
            | _ -> Rng.int rng 100_000)
      in
      let shares = Budget.allocate ~trials ~costs in
      Array.length shares = n
      && Array.fold_left ( + ) 0 shares = trials
      && Array.for_all (fun s -> s >= 0) shares
      && (trials < n || Array.for_all (fun s -> s >= 1) shares))

let test_allocate_adversarial () =
  clear_all ();
  let sums trials costs =
    Array.fold_left ( + ) 0 (Budget.allocate ~trials ~costs)
  in
  (* Thirds: floors alone would hand out 0. *)
  check int_c "1 over three equal costs" 1 (sums 1 [| 7; 7; 7 |]);
  (* One giant cost next to dust: dust still gets its minimum. *)
  let shares = Budget.allocate ~trials:10 ~costs:[| 1_000_000; 1; 1 |] in
  check int_c "dominant + dust sums" 10 (Array.fold_left ( + ) 0 shares);
  check bool_c "dust not starved" true (shares.(1) >= 1 && shares.(2) >= 1);
  (* All-zero costs spread evenly. *)
  check (Alcotest.array int_c) "zeros spread" [| 4; 3; 3 |]
    (Budget.allocate ~trials:10 ~costs:[| 0; 0; 0 |]);
  check (Alcotest.array int_c) "empty costs" [||]
    (Budget.allocate ~trials:5 ~costs:[||]);
  (* Ties break to the lowest index, deterministically. *)
  check (Alcotest.array int_c) "tie to low index" [| 1; 1; 0; 0 |]
    (Budget.allocate ~trials:2 ~costs:[| 5; 5; 5; 5 |]);
  Alcotest.check_raises "negative trials rejected"
    (Invalid_argument "Budget.allocate: trials must be >= 0")
    (fun () -> ignore (Budget.allocate ~trials:(-1) ~costs:[| 1 |]))

(* ------------------------------------------------------------------ *)
(* 7. Shard planning and record round-trips. *)

let test_shard_plan () =
  clear_all ();
  let _, clause_sets = fixture () in
  let costs = Array.map (Shard.tuple_cost ~eps ~delta) clause_sets in
  let max_cost = shard_cost_for clause_sets ~target:6 in
  let plan = Shard.plan ~eps ~delta ~max_cost clause_sets in
  (* Covers every tuple exactly once, contiguously and in order. *)
  let next = ref 0 in
  Array.iteri
    (fun i (sh : Shard.t) ->
      check int_c (Printf.sprintf "shard %d index" i) i sh.Shard.index;
      check int_c (Printf.sprintf "shard %d first" i) !next sh.Shard.first;
      check bool_c (Printf.sprintf "shard %d nonempty" i) true
        (sh.Shard.count >= 1);
      let cost = ref 0 in
      for j = sh.Shard.first to sh.Shard.first + sh.Shard.count - 1 do
        cost := !cost + costs.(j)
      done;
      check int_c (Printf.sprintf "shard %d cost" i) !cost sh.Shard.cost;
      check bool_c
        (Printf.sprintf "shard %d under ceiling (or oversize singleton)" i)
        true
        (sh.Shard.cost <= max_cost || sh.Shard.count = 1);
      next := sh.Shard.first + sh.Shard.count)
    plan;
  check int_c "plan covers the batch" (Array.length clause_sets) !next;
  check int_c "empty batch plans empty" 0
    (Array.length (Shard.plan ~eps ~delta ~max_cost [||]));
  Alcotest.check_raises "max_cost must be positive"
    (Invalid_argument "Shard.plan: max_cost must be >= 1") (fun () ->
      ignore (Shard.plan ~eps ~delta ~max_cost:0 clause_sets))

(* [Shard.plan] prices tuples with (ε, δ) taken once per plan; every cost
   and every cut must equal those of a reference plan priced tuple by tuple
   through [Stats.karp_luby_trials], over random clause sets with empty and
   trivially-true tuples, ε down to saturation and any ceiling. *)
let test_shard_plan_matches_reference () =
  let reference_cost ~eps ~delta = function
    | [] -> 1
    | cs when List.exists Assignment.is_empty cs -> 1
    | cs ->
        Stats.saturating_add 1
          (Stats.karp_luby_trials ~clauses:(List.length cs) ~eps ~delta)
  in
  let reference_plan ~eps ~delta ~max_cost sets =
    let shards = ref [] and first = ref 0 and count = ref 0 and cost = ref 0 in
    let flush () =
      if !count > 0 then begin
        shards :=
          { Shard.index = List.length !shards; first = !first; count = !count;
            cost = !cost }
          :: !shards;
        first := !first + !count;
        count := 0;
        cost := 0
      end
    in
    Array.iter
      (fun cs ->
        let c = reference_cost ~eps ~delta cs in
        if !count > 0 && Stats.saturating_add !cost c > max_cost then flush ();
        incr count;
        cost := Stats.saturating_add !cost c)
      sets;
    flush ();
    Array.of_list (List.rev !shards)
  in
  let rng = Rng.create ~seed:2024 in
  let w = Wtable.create () in
  for round = 1 to 200 do
    let sets =
      Array.init (Rng.int rng 40) (fun _ ->
          match Rng.int rng 8 with
          | 0 -> []
          | 1 -> [ Assignment.empty ]
          | k ->
              let cs =
                Gen.random_dnf rng w ~vars:12 ~clauses:(1 + Rng.int rng 30)
                  ~clause_len:3
              in
              if k = 2 then cs @ [ Assignment.empty ] else cs)
    in
    let eps =
      if round mod 50 = 0 then 1e-160 else Rng.float_range rng 0.001 0.9
    in
    let delta = Rng.float_range rng 1e-9 0.5 in
    let max_cost =
      match Rng.int rng 3 with
      | 0 -> max_int
      | 1 -> 1
      | _ -> 1 + Rng.int rng 5_000_000
    in
    let what = Printf.sprintf "round %d (eps %h, delta %h)" round eps delta in
    Array.iter
      (fun cs ->
        check int_c (what ^ ": cost") (reference_cost ~eps ~delta cs)
          (Shard.tuple_cost ~eps ~delta cs))
      sets;
    check bool_c (what ^ ": plan") true
      (reference_plan ~eps ~delta ~max_cost sets
      = Shard.plan ~eps ~delta ~max_cost sets)
  done

let outcome_of_seed seed =
  let rng = Rng.create ~seed in
  let count = 1 + Rng.int rng 5 in
  let fl () =
    match Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> 1.
    | 2 -> Float.infinity
    | 3 -> Rng.float rng 1. /. 3.
    | 4 -> ldexp (Rng.float rng 1.) (-Rng.int rng 1000)
    | _ -> Rng.float rng 1.
  in
  {
    Shard.shard =
      {
        Shard.index = Rng.int rng 100;
        first = Rng.int rng 1000;
        count;
        cost = 1 + Rng.int rng 100_000;
      };
    fp = Checkpoint.crc32_hex (string_of_int seed);
    estimates = Array.init count (fun _ -> fl ());
    intervals = Array.init count (fun _ -> (fl (), fl ()));
    trials = Array.init count (fun _ -> Rng.int rng 1_000_000);
    achieved = Array.init count (fun _ -> fl ());
    masses = Array.init count (fun _ -> fl ());
    complete = Rng.int rng 2 = 0;
    resumed = false;
    quarantined = None;
  }

let outcome_roundtrip =
  QCheck.Test.make ~name:"journal record round-trips bit-exactly" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let o = outcome_of_seed seed in
      let payload = Shard.to_payload o in
      let o' = Shard.of_payload ~source:"qcheck" ~record:1 payload in
      let fa a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun x y -> bits x = bits y) a b
      in
      o'.Shard.shard = o.Shard.shard
      && String.equal o'.Shard.fp o.Shard.fp
      && fa o'.Shard.estimates o.Shard.estimates
      && fa o'.Shard.achieved o.Shard.achieved
      && fa o'.Shard.masses o.Shard.masses
      && o'.Shard.trials = o.Shard.trials
      && Array.for_all2
           (fun (a, b) (c, d) -> bits a = bits c && bits b = bits d)
           o'.Shard.intervals o.Shard.intervals
      && o'.Shard.complete = o.Shard.complete
      && o'.Shard.resumed (* parsed records are marked replayed *)
      && o'.Shard.quarantined = None)

let test_quarantined_not_serializable () =
  clear_all ();
  let o = outcome_of_seed 1 in
  let o = { o with Shard.quarantined = Some (E.Injected "shard.run") } in
  Alcotest.check_raises "quarantined outcomes must not be journaled"
    (Invalid_argument "Shard.to_payload: quarantined outcomes are never journaled")
    (fun () ->
      ignore (Shard.to_payload o))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "checkpoint"
    [
      ( "smoke",
        [
          Alcotest.test_case "env-armed stream stays sound" `Quick
            test_env_smoke;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crc32 known answer" `Quick
            test_crc32_known_answer;
          qcheck crc32_matches_bitwise;
          Alcotest.test_case "crc32 matches the bytewise table" `Quick
            test_crc32_matches_bytewise;
          Alcotest.test_case "framing round-trip" `Quick test_journal_framing;
          Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail;
          Alcotest.test_case "mid-file corruption typed" `Quick
            test_mid_corruption;
        ] );
      ( "stream",
        [
          Alcotest.test_case "journal on/off bit-identical" `Quick
            test_journal_on_off_identical;
          Alcotest.test_case "bit-identical to materialized run" `Quick
            test_stream_matches_run;
          Alcotest.test_case "shard plan geometry" `Quick test_shard_plan;
          Alcotest.test_case "shard plan prices like the reference" `Quick
            test_shard_plan_matches_reference;
        ] );
      ( "resume",
        [
          Alcotest.test_case "crash and resume bit-identical" `Quick
            test_crash_resume;
          Alcotest.test_case "crash and resume under trial budget" `Quick
            test_crash_resume_under_budget;
          Alcotest.test_case "corrupt journal corpus" `Quick
            test_corrupt_corpus;
          Alcotest.test_case "parameter mismatch fails typed" `Quick
            test_meta_mismatch;
        ] );
      ( "containment",
        [
          Alcotest.test_case "poison shards quarantined exactly" `Quick
            test_quarantine_containment;
          Alcotest.test_case "transient fault retried to recovery" `Quick
            test_retry_recovers;
          Alcotest.test_case "dead journal abandoned, results unaffected"
            `Quick test_journal_abandoned;
        ] );
      ( "records",
        [
          qcheck outcome_roundtrip;
          Alcotest.test_case "quarantined records rejected" `Quick
            test_quarantined_not_serializable;
        ] );
      ( "budget",
        [
          Alcotest.test_case "proportional split feeds the tail" `Quick
            test_budget_split_spreads_tail;
          qcheck alloc_exact;
          Alcotest.test_case "allocate: adversarial cost vectors" `Quick
            test_allocate_adversarial;
        ] );
    ]
