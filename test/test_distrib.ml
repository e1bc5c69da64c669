(* Distributed shard execution: protocol framing, coordinator/worker
   bit-identity across worker counts, crash reassignment, cross-worker-count
   resume, quarantine, and static budget slices.

   Like test_checkpoint, the suite passes under an environment-armed fault
   (the CI matrix runs every suite with PQDB_FAULTPOINTS=<site>): the smoke
   test runs first against whatever the environment armed — worker fleets
   may die wholesale there, and the coordinator must still emit every shard
   soundly via its in-process fallback.  Later tests clear the registry.

   Fork safety: this process must never spawn pool domains before forking
   test workers (OCaml 5 forbids fork with live domains), so the pool is
   pinned to inline execution before anything else runs. *)

let () = Unix.putenv "PQDB_POOL_WORKERS" "1"

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
open Pqdb_distrib
module Q = Rational
module FP = Pqdb_runtime.Faultpoint
module E = Pqdb_runtime.Pqdb_error
module Gen = Pqdb_workload.Gen

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let clear_all () = List.iter FP.disarm (FP.armed ())

let temp_counter = ref 0

let temp_path () =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqdb_distrib_%d_%d" (Unix.getpid ()) !temp_counter)

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Fixture: mixed batch planning into several shards.                  *)

let eps = 0.35
let delta = 0.2
let seed = 9091

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
        | 3 -> [ Assignment.empty ]
        | 4 -> []
        | _ -> Gen.random_dnf rng w ~vars:10 ~clauses:6 ~clause_len:3)
  in
  (w, Array.of_list sets)

let shard_cost_for ~eps ~delta clause_sets ~target =
  let total =
    Array.fold_left
      (fun acc cs -> acc + Shard.tuple_cost ~eps ~delta cs)
      0 clause_sets
  in
  max 1 (total / target)

let options ?checkpoint ?(resume = false) ?(retries = 2) shard_cost =
  {
    Confidence.shard_cost;
    retries;
    checkpoint;
    resume;
  }

let reference ?budget ?compile_fuel ~opts w sets =
  let n = Array.length sets in
  let emit, est, lo, hi, tr, order = Batch.collector n in
  let summary =
    Confidence.run_stream ?budget ?compile_fuel ~options:opts
      (Rng.create ~seed) w sets ~eps ~delta ~emit
  in
  ((est, lo, hi, tr), List.rev !order, summary)

(* ------------------------------------------------------------------ *)
(* Transports.                                                         *)

let thread_spawn ?compile_fuel ~shard_cost w sets _id =
  (* Short frame deadline so a torn coordinator frame (env-armed matrix)
     kills the worker in ~2s instead of the 30s default. *)
  Coordinator.thread_transport (fun ~input ~output ->
      Worker.serve ?compile_fuel ~shard_cost ~heartbeat_s:0.05
        ~frame_timeout_s:2.0
        (Rng.create ~seed) w sets ~eps ~delta ~input ~output)

(* A real child process without exec: fork, run the worker loop, _exit.
   Requires the inline pool (set at module load) so no domains are live. *)
let fork_spawn ?(worker_seed = seed) ~shard_cost w sets pids _id =
  let to_w_r, to_w_w = Unix.pipe () in
  let from_w_r, from_w_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close to_w_w;
      Unix.close from_w_r;
      let input = Unix.in_channel_of_descr to_w_r in
      let output = Unix.out_channel_of_descr from_w_w in
      (try
         Worker.serve ~shard_cost ~heartbeat_s:0.05
           (Rng.create ~seed:worker_seed) w sets ~eps ~delta ~input ~output
       with _ -> ());
      (try flush output with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close to_w_r;
      Unix.close from_w_w;
      pids := pid :: !pids;
      Coordinator.fd_transport ~pid
        ~close:(fun () ->
          (try Unix.close to_w_w with _ -> ());
          try Unix.close from_w_r with _ -> ())
        ~in_fd:from_w_r ~out_fd:to_w_w ()

(* ------------------------------------------------------------------ *)
(* Smoke: whatever the environment armed, every shard is emitted with   *)
(* sound brackets — fleets may die, the fallback must not.              *)

let test_env_smoke () =
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  let emit, _est, lo, hi, _tr, order = Batch.collector n in
  let summary =
    Coordinator.run ~options:(options shard_cost) ~workers:2
      ~spawn:(fun _ -> thread_spawn ~shard_cost w sets 0)
      (Rng.create ~seed) w sets ~eps ~delta ~emit
  in
  check int_c "every shard emitted" summary.Coordinator.stream.Confidence.shards
    (List.length !order);
  check bool_c "emitted in plan order" true
    (List.rev !order = List.init (List.length !order) Fun.id);
  Batch.assert_sound "env smoke" w sets (Array.combine lo hi)

(* ------------------------------------------------------------------ *)
(* Protocol framing.                                                   *)

let msg_of_seed seed =
  let rng = Rng.create ~seed:(7_000_000 + seed) in
  let str n =
    String.init (Rng.int rng n) (fun _ ->
        Char.chr (32 + Rng.int rng 95) (* printable ASCII incl. space *))
  in
  match Rng.int rng 9 with
  | 0 ->
      (* Sources exercise the percent-encoding: paths with spaces, percents,
         dashes and empty relation names must survive the space-separated
         hello payload. *)
      let source =
        match Rng.int rng 4 with
        | 0 -> None
        | 1 -> Some ("/tmp/db dir/my%db.udbb", str 10)
        | 2 -> Some ("-", "")
        | _ -> Some (str 30, str 10)
      in
      Protocol.Hello
        { meta = str 60; probe = Printf.sprintf "%h" (Rng.float rng 1.); source }
  | 1 ->
      Protocol.Order
        {
          index = Rng.int rng 1000;
          epoch = Rng.int rng 10_000;
          fp = Printf.sprintf "%08x" (Rng.int rng 0xFFFFFF);
          trials = (if Rng.bool rng then Some (Rng.int rng 100_000) else None);
          deadline_s = (if Rng.bool rng then Some (Rng.float rng 10.) else None);
        }
  | 2 ->
      Protocol.Outcome
        { index = Rng.int rng 1000; epoch = Rng.int rng 10_000; payload = str 200 }
  | 3 ->
      Protocol.Failed
        { index = Rng.int rng 1000; epoch = Rng.int rng 10_000; detail = str 80 }
  | 4 -> Protocol.Heartbeat
  | 5 ->
      (* Specs carry arbitrary printable text (spaces, percents, dashes). *)
      Protocol.Query { id = Rng.int rng 1000; spec = str (1 + Rng.int rng 60) }
  | 6 ->
      (* Bodies are multi-line batch output; embed newlines explicitly since
         [str] only draws printable ASCII. *)
      let body =
        match Rng.int rng 3 with
        | 0 -> str (1 + Rng.int rng 200)
        | 1 -> str 40 ^ "\n" ^ str 40 ^ "\n"
        | _ -> "-"
      in
      Protocol.Reply { id = Rng.int rng 1000; ok = Rng.bool rng; body }
  | 7 ->
      (* Lease TTLs travel as %h hex floats: bit-exact round-trip. *)
      Protocol.Lease { ttl_s = 0.001 +. Rng.float rng 100. }
  | _ -> Protocol.Shutdown

let decode_all bytes =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let rec go acc =
            match Protocol.read_fd fd with
            | Some m -> go (m :: acc)
            | None -> List.rev acc
          in
          go []))

let protocol_roundtrip =
  QCheck.Test.make ~name:"frames round-trip bit-exactly" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      clear_all ();
      let msgs = List.init (1 + (seed mod 4)) (fun k -> msg_of_seed (seed + k)) in
      let bytes = String.concat "" (List.map Protocol.encode msgs) in
      decode_all bytes = msgs)

let test_protocol_corruption () =
  clear_all ();
  let frame =
    Protocol.encode
      (Protocol.Outcome { index = 3; epoch = 1; payload = "0 0 3 12 abc" })
  in
  let typed f =
    match f () with
    | _ -> Alcotest.fail "corrupt frame decoded"
    | exception E.Error (E.Malformed_input _) -> ()
  in
  (* clean EOF at a boundary *)
  check bool_c "clean EOF" true (decode_all "" = []);
  check int_c "whole frame" 1 (List.length (decode_all frame));
  (* torn header *)
  typed (fun () -> decode_all (String.sub frame 0 7));
  (* torn payload *)
  typed (fun () -> decode_all (String.sub frame 0 (String.length frame - 4)));
  (* missing terminator *)
  typed (fun () -> decode_all (String.sub frame 0 (String.length frame - 1)));
  (* flipped payload byte: CRC catches it *)
  let broken = Bytes.of_string frame in
  Bytes.set broken 22 (if Bytes.get broken 22 = 'x' then 'y' else 'x');
  typed (fun () -> decode_all (Bytes.to_string broken));
  (* unknown tag, valid CRC *)
  typed (fun () -> decode_all (Protocol.encode Protocol.Heartbeat ^ "f 00000003 " ^ Pqdb_runtime.Checkpoint.crc32_hex "zzz" ^ " zzz\n"))

(* The percent-encoding corners: free text that collides with the payload
   syntax itself — bare '%', literal "%25", the "-" absent-field marker,
   embedded newlines, empty values — must survive Query.spec and Reply.body
   byte-exactly. *)
let test_pct_encoding_edges () =
  clear_all ();
  let corpus =
    [ "%"; "%%"; "%25"; "%00"; "-"; ""; "a b"; "a\nb"; "\n"; " ";
      "100% done\n"; "%2"; "% -"; "conf events eps=0.1" ]
  in
  List.iter
    (fun s ->
      let q = Protocol.Query { id = 3; spec = s } in
      let r = Protocol.Reply { id = 4; ok = false; body = s } in
      check bool_c
        (Printf.sprintf "query spec %S round-trips" s)
        true
        (decode_all (Protocol.encode q) = [ q ]);
      check bool_c
        (Printf.sprintf "reply body %S round-trips" s)
        true
        (decode_all (Protocol.encode r) = [ r ]))
    corpus;
  (* the hello source fields share the encoder *)
  let h =
    Protocol.Hello
      { meta = "m"; probe = "0x1p-1"; source = Some ("/tmp/a b/c%d.udbb", "-") }
  in
  check bool_c "hello source round-trips" true
    (decode_all (Protocol.encode h) = [ h ]);
  (* An escape is exactly two hex digits: anything else is a typed
     Malformed_input, never a guessed byte.  The frames carry a valid CRC so
     only the escape itself is at fault. *)
  let framed payload =
    Printf.sprintf "f %08x %s %s\n" (String.length payload)
      (Pqdb_runtime.Checkpoint.crc32_hex payload)
      payload
  in
  check bool_c "well-formed hand-made frame decodes" true
    (decode_all (framed "reply 4 err a%41%4a%4Fb")
    = [ Protocol.Reply { id = 4; ok = false; body = "aAJOb" } ]);
  List.iter
    (fun payload ->
      match decode_all (framed payload) with
      | _ -> Alcotest.failf "%S decoded" payload
      | exception E.Error (E.Malformed_input _) -> ())
    [ "reply 4 err a%1_b"; "reply 4 err %g0"; "query 3 a% 1";
      "query 3 a%_1"; "query 3 a%+1"; "query 3 %%41"; "reply 4 ok x%4";
      "reply 4 ok x%"; "hello 0x1p-1 %1_ r meta" ]

(* The bytes on the wire, pinned: an encoder change that moves a single
   byte of these frames breaks every peer built before it. *)
let test_wire_bytes_pinned () =
  clear_all ();
  let md5 m = Digest.to_hex (Digest.string (Protocol.encode m)) in
  List.iter
    (fun (name, m, digest) -> check Alcotest.string name digest (md5 m))
    [
      ( "multi-line reply",
        Protocol.Reply
          {
            id = 17;
            ok = true;
            body = "0 0x1.8p-1 0x1p-1 0x1p+0 0\n1 100% done  twice\n\n";
          },
        "ca48ae4459ba94200586a60bce6f7547" );
      ( "query",
        Protocol.Query { id = 3; spec = "conf events eps=0.1 seed=7" },
        "a01058b835faa762cafdfb38e4f2f605" );
      ( "sourced hello",
        Protocol.Hello
          {
            meta = "pqdb-serve db=/tmp/a b.udbb";
            probe = "serve/1";
            source = Some ("/tmp/db dir/my%db.udbb", "events");
          },
        "f4191755e80d8fd457ecabee57133811" );
      ( "dash body",
        Protocol.Reply { id = 0; ok = false; body = "-" },
        "276d4980d55b0c3a31019ef2d9a55e73" );
      ( "empty body",
        Protocol.Reply { id = 1; ok = true; body = "" },
        "3ff48e0a50e5fd4a1328a7e9cc9e41d8" );
      ( "dash spec",
        Protocol.Query { id = 2; spec = "-" },
        "0cd1b8b37f7f6cdbeb88ca9d41905304" );
    ]

(* Free text of any byte value survives Reply.body and Query.spec: the
   generator above only draws printable ASCII. *)
let any_bytes_roundtrip =
  QCheck.Test.make ~name:"bodies of all 256 byte values round-trip"
    ~count:300
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size
            ~gen:(map Char.chr (int_range 0 255))
            (int_range 0 300)))
    (fun s ->
      clear_all ();
      let msgs =
        [ Protocol.Reply { id = 9; ok = true; body = s };
          Protocol.Query { id = 8; spec = s } ]
      in
      decode_all (String.concat "" (List.map Protocol.encode msgs)) = msgs)

(* The frame encoder as it was before frames were built in one buffer, kept
   as the reference the wire must not drift from: payload text through
   Printf (floats as "%h"), free text percent-encoded byte by byte, and a
   bytewise table CRC-32. *)
module Reference_encoder = struct
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc32 s =
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
      s;
    !c lxor 0xFFFFFFFF

  let pct_encode s =
    if s = "" then "%00"
    else if s = "-" then "%2d"
    else
      String.concat ""
        (List.map
           (function
             | '%' -> "%25" | ' ' -> "%20" | '\n' -> "%0a"
             | c -> String.make 1 c)
           (List.of_seq (String.to_seq s)))

  let escape s = String.concat "\\n" (String.split_on_char '\n' s)

  let payload = function
    | Protocol.Hello { meta; probe; source } ->
        Printf.sprintf "hello %s %s %s" probe
          (match source with
          | None -> "- -"
          | Some (db, rel) ->
              Printf.sprintf "%s %s" (pct_encode db) (pct_encode rel))
          meta
    | Protocol.Order { index; epoch; fp; trials; deadline_s } ->
        Printf.sprintf "order %d %d %s %s %s" index epoch fp
          (match trials with None -> "-" | Some t -> string_of_int t)
          (match deadline_s with
          | None -> "-"
          | Some d -> Printf.sprintf "%h" d)
    | Protocol.Outcome { index; epoch; payload } ->
        Printf.sprintf "outcome %d %d %s" index epoch payload
    | Protocol.Failed { index; epoch; detail } ->
        Printf.sprintf "failed %d %d %s" index epoch (escape detail)
    | Protocol.Lease { ttl_s } -> Printf.sprintf "lease %h" ttl_s
    | Protocol.Heartbeat -> "hb"
    | Protocol.Shutdown -> "bye"
    | Protocol.Query { id; spec } ->
        Printf.sprintf "query %d %s" id (pct_encode spec)
    | Protocol.Reply { id; ok; body } ->
        Printf.sprintf "reply %d %s %s" id
          (if ok then "ok" else "err")
          (pct_encode body)

  let encode msg =
    let p = payload msg in
    Printf.sprintf "f %08x %08x %s\n" (String.length p) (crc32 p) p
end

let encoder_matches_reference =
  QCheck.Test.make ~name:"encode = the reference encoder, and decodes back"
    ~count:500
    QCheck.(
      pair (int_range 0 1_000_000)
        (make ~print:(Printf.sprintf "%S")
           Gen.(
             oneof
               [ return ""; return "-";
                 string_size
                   ~gen:(map Char.chr (int_range 0 255))
                   (int_range 0 400) ])))
    (fun (seed, s) ->
      clear_all ();
      let msgs =
        [ msg_of_seed seed;
          Protocol.Reply { id = seed; ok = seed mod 2 = 0; body = s };
          Protocol.Query { id = seed; spec = s };
          Protocol.Failed { index = 1; epoch = 2; detail = s };
          Protocol.Lease { ttl_s = Int64.float_of_bits (Int64.of_int seed) +. 1. };
          Protocol.Order
            { index = seed; epoch = 0; fp = "00c0ffee"; trials = None;
              deadline_s = Some (float_of_int seed /. 7.) } ]
      in
      List.for_all
        (fun m ->
          let frame = Protocol.encode m in
          String.equal frame (Reference_encoder.encode m)
          && (match m with
             (* A failure detail's newlines are escaped one way only. *)
             | Protocol.Failed _ -> true
             | m -> decode_all frame = [ m ]))
        msgs)

(* The length field is exactly eight hex digits.  [int_of_string] also
   reads '_' as a digit separator, which let "0000_00a" pass for 10. *)
let test_length_field_strict () =
  clear_all ();
  let payload = "query 1 ab" in
  let frame len =
    Printf.sprintf "f %s %08x %s\n" len (Reference_encoder.crc32 payload)
      payload
  in
  check bool_c "a well-formed length decodes" true
    (decode_all (frame "0000000a")
    = [ Protocol.Query { id = 1; spec = "ab" } ]);
  check bool_c "upper-case hex digits decode" true
    (decode_all (frame "0000000A")
    = [ Protocol.Query { id = 1; spec = "ab" } ]);
  List.iter
    (fun len ->
      match decode_all (frame len) with
      | _ -> Alcotest.failf "length field %S decoded" len
      | exception E.Error (E.Malformed_input _) -> ())
    [ "0000_00a"; "_000000a"; "+000000a"; "-000000a"; "0x00000a"; " 000000a";
      "000000a " ]

(* Each behavioral send mode, observed on the wire through a real pipe:
   torn leaves a typed-malformed half frame, delay leaves a whole (late)
   frame, stall blocks until the registry releases it.  The reader side of
   each armed shot is what the chaos soak relies on. *)
let test_behavioral_send_modes () =
  clear_all ();
  let msg = Protocol.Reply { id = 7; ok = true; body = "100% done\n" } in
  let with_pipe f =
    let r, w = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close r with _ -> ());
        try Unix.close w with _ -> ())
      (fun () -> f r w)
  in
  (* torn: the writer dies Injected, the reader gets typed Malformed *)
  with_pipe (fun r w ->
      FP.arm ~count:1 ~mode:FP.Torn "distrib.send";
      (match Protocol.write_fd w msg with
      | () -> Alcotest.fail "torn write returned"
      | exception E.Error (E.Injected _) -> ());
      Unix.close w;
      match Protocol.read_fd r with
      | _ -> Alcotest.fail "torn frame decoded"
      | exception E.Error (E.Malformed_input _) -> ());
  clear_all ();
  (* delay: the frame arrives whole, just late *)
  with_pipe (fun r w ->
      FP.arm ~count:1 ~mode:(FP.Delay 0.02) "distrib.send";
      let t0 = Unix.gettimeofday () in
      Protocol.write_fd w msg;
      check bool_c "delay applied" true (Unix.gettimeofday () -. t0 >= 0.015);
      check bool_c "delayed frame decodes" true
        (Protocol.read_fd ~timeout_s:1.0 r = Some msg));
  clear_all ();
  (* stall: the write blocks until a disarm releases it, then completes *)
  with_pipe (fun r w ->
      FP.arm ~count:1 ~mode:FP.Stall "distrib.send";
      let releaser =
        Thread.create
          (fun () ->
            Unix.sleepf 0.05;
            clear_all ())
          ()
      in
      let t0 = Unix.gettimeofday () in
      Protocol.write_fd w msg;
      check bool_c "stall held the write" true
        (Unix.gettimeofday () -. t0 >= 0.04);
      check bool_c "released frame decodes" true
        (Protocol.read_fd ~timeout_s:1.0 r = Some msg);
      Thread.join releaser)

(* ------------------------------------------------------------------ *)
(* Bit-identity across worker counts (real forked processes).          *)

let test_identity_across_worker_counts () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let opts = options shard_cost in
  let ref_arrays, ref_order, ref_summary = reference ~opts w sets in
  check bool_c "reference plans several shards" true
    (ref_summary.Confidence.shards >= 4);
  List.iter
    (fun workers ->
      let pids = ref [] in
      let emit, est, lo, hi, tr, order = Batch.collector n in
      let summary =
        Coordinator.run ~options:opts ~workers
          ~spawn:(fork_spawn ~shard_cost w sets pids)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      let name = Printf.sprintf "%d workers" workers in
      check int_c (name ^ ": spawned") workers
        summary.Coordinator.workers_spawned;
      check int_c (name ^ ": none lost") 0 summary.Coordinator.workers_lost;
      check bool_c (name ^ ": same emission order") true
        (List.rev !order = ref_order);
      check bool_c (name ^ ": complete") true
        summary.Coordinator.stream.Confidence.stream_complete;
      Batch.check_same name (est, lo, hi, tr) ref_arrays)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Worker death mid-run: reassignment, still bit-identical.            *)

let test_kill_worker_mid_run () =
  clear_all ();
  (* Heavier work per shard so the victim is mid-shard when killed. *)
  let eps = 0.05 in
  let rng = Rng.create ~seed:555 in
  let w = Wtable.create () in
  let sets =
    Array.init 24 (fun _ -> Gen.random_dnf rng w ~vars:10 ~clauses:6 ~clause_len:3)
  in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:8 in
  let opts = options shard_cost in
  let emit_ref, est, lo, hi, tr, _ = Batch.collector n in
  let _ =
    Confidence.run_stream ~options:opts (Rng.create ~seed) w sets ~eps ~delta
      ~emit:emit_ref
  in
  (* The victim, worker 0, sits 5 s in every shard it is given and the
     other worker 50 ms, so both are admitted and dealt work long before
     the run can end, and the victim is mid-shard whenever it is killed:
     at the first emission, or after 0.5 s when the victim holds shard 0
     (emission waits for it). *)
  let victim = ref None in
  let killed = Atomic.make false in
  let kill_victim () =
    if not (Atomic.exchange killed true) then
      Option.iter (fun pid -> Unix.kill pid Sys.sigkill) !victim
  in
  let emit2, est', lo', hi', tr', _ = Batch.collector n in
  let timer = Thread.create (fun () -> Unix.sleepf 0.5; kill_victim ()) () in
  let summary =
    Coordinator.run ~options:opts ~workers:2
      ~spawn:(fun id ->
        let to_w_r, to_w_w = Unix.pipe () in
        let from_w_r, from_w_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            Unix.close to_w_w;
            Unix.close from_w_r;
            FP.arm ~mode:(FP.Delay (if id = 0 then 5. else 0.05)) "shard.run";
            let input = Unix.in_channel_of_descr to_w_r in
            let output = Unix.out_channel_of_descr from_w_w in
            (try
               Worker.serve ~shard_cost ~heartbeat_s:0.05 (Rng.create ~seed) w
                 sets ~eps ~delta ~input ~output
             with _ -> ());
            (try flush output with _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close to_w_r;
            Unix.close from_w_w;
            if id = 0 then victim := Some pid;
            Coordinator.fd_transport ~pid
              ~close:(fun () -> ())
              ~in_fd:from_w_r ~out_fd:to_w_w ())
      (Rng.create ~seed) w sets ~eps ~delta
      ~emit:(fun o ->
        kill_victim ();
        emit2 o)
  in
  Thread.join timer;
  check int_c "one worker lost" 1 summary.Coordinator.workers_lost;
  check bool_c "its shard was reassigned" true
    (summary.Coordinator.reassigned >= 1);
  check bool_c "run complete" true
    summary.Coordinator.stream.Confidence.stream_complete;
  Batch.check_same "after kill" (est', lo', hi', tr') (est, lo, hi, tr)

(* ------------------------------------------------------------------ *)
(* Resume across worker counts, both directions.                       *)

let drop_last_record path =
  match List.rev (read_lines path) with
  | last :: rest when String.length last > 0 ->
      write_lines path (List.rev rest);
      last
  | _ -> Alcotest.fail "journal unexpectedly empty"

let test_resume_across_worker_counts () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let ref_arrays, _, _ = reference ~opts:(options shard_cost) w sets in
  (* distributed writes, sequential resumes *)
  with_temp (fun path ->
      let emit, _, _, _, _, _ = Batch.collector n in
      let s1 =
        Coordinator.run
          ~options:(options ~checkpoint:path shard_cost)
          ~workers:2
          ~spawn:(fun _ -> thread_spawn ~shard_cost w sets 0)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "clean completion compacts" true
        (s1.Coordinator.compacted <> None);
      ignore (drop_last_record path);
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let s2 =
        Confidence.run_stream
          ~options:(options ~checkpoint:path ~resume:true shard_cost)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "stream resumed most shards" true
        (s2.Confidence.resumed_shards >= 1);
      Batch.check_same "distrib journal -> stream resume" (est, lo, hi, tr)
        ref_arrays);
  (* sequential writes, distributed resumes *)
  with_temp (fun path ->
      let emit, _, _, _, _, _ = Batch.collector n in
      let _ =
        Confidence.run_stream
          ~options:(options ~checkpoint:path shard_cost)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      ignore (drop_last_record path);
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let s2 =
        Coordinator.run
          ~options:(options ~checkpoint:path ~resume:true shard_cost)
          ~workers:2
          ~spawn:(fun _ -> thread_spawn ~shard_cost w sets 0)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "coordinator resumed most shards" true
        (s2.Coordinator.stream.Confidence.resumed_shards >= 1);
      Batch.check_same "stream journal -> distrib resume" (est, lo, hi, tr)
        ref_arrays)

(* ------------------------------------------------------------------ *)
(* Quarantine and self-healing.                                        *)

let test_quarantine_and_self_heal () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  with_temp (fun path ->
      FP.arm "shard.run";
      let emit, _, lo, hi, _, order = Batch.collector n in
      let summary =
        Fun.protect ~finally:clear_all (fun () ->
            Coordinator.run
              ~options:(options ~checkpoint:path ~retries:1 shard_cost)
              ~workers:1
              ~spawn:(fun _ -> thread_spawn ~shard_cost w sets 0)
              (Rng.create ~seed) w sets ~eps ~delta ~emit)
      in
      let st = summary.Coordinator.stream in
      check int_c "every shard quarantined" st.Confidence.shards
        (List.length st.Confidence.quarantined);
      check int_c "every shard still emitted" st.Confidence.shards
        (List.length !order);
      check bool_c "incomplete" false st.Confidence.stream_complete;
      check bool_c "no auto-compaction on a dirty run" true
        (summary.Coordinator.compacted = None);
      Batch.assert_sound "quarantined brackets" w sets (Array.combine lo hi);
      (* Quarantined shards were never journaled: a resume with the fault
         gone recomputes them all and lands on the clean run's bits. *)
      let ref_arrays, _, _ = reference ~opts:(options shard_cost) w sets in
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let healed =
        Coordinator.run
          ~options:(options ~checkpoint:path ~resume:true shard_cost)
          ~workers:2
          ~spawn:(fun _ -> thread_spawn ~shard_cost w sets 0)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check int_c "nothing to resume" 0
        healed.Coordinator.stream.Confidence.resumed_shards;
      check bool_c "healed run complete" true
        healed.Coordinator.stream.Confidence.stream_complete;
      Batch.check_same "self-healed" (est, lo, hi, tr) ref_arrays)

(* A worker whose seed drifted is refused at handshake; the run falls back
   in-process and still produces the reference bits. *)
let test_drifted_worker_refused () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  let opts = options shard_cost in
  let ref_arrays, _, _ = reference ~opts w sets in
  let emit, est, lo, hi, tr, _ = Batch.collector n in
  let summary =
    Coordinator.run ~options:opts ~workers:1
      ~spawn:(fun _ ->
        Coordinator.thread_transport (fun ~input ~output ->
            Worker.serve ~shard_cost ~heartbeat_s:0.05
              (Rng.create ~seed:(seed + 1))
              w sets ~eps ~delta ~input ~output))
      (Rng.create ~seed) w sets ~eps ~delta ~emit
  in
  check int_c "drifted worker counted lost" 1 summary.Coordinator.workers_lost;
  check bool_c "all shards fell back in-process" true
    (summary.Coordinator.fallback_shards
     = summary.Coordinator.stream.Confidence.shards);
  Batch.check_same "fallback bits" (est, lo, hi, tr) ref_arrays

(* The in-process fallback retries and quarantines through the stream's
   own loop: a shard that keeps failing there is quarantined with the same
   typed error the stream reports, not a stringified task failure. *)
let test_fallback_quarantines_like_stream () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:3 in
  let retries = 1 in
  let opts = options ~retries shard_cost in
  (* LPT deals the heaviest shard first, lowest index on ties: with costs
     non-increasing along the plan the fallback meets the shards in the
     stream's order, so the same shards meet the poison. *)
  let plan = Shard.plan ~eps ~delta ~max_cost:shard_cost sets in
  check bool_c "several shards" true (Array.length plan >= 3);
  check bool_c "fallback order is plan order" true
    (Array.for_all
       (fun (sh : Shard.t) ->
         sh.index = 0 || sh.cost <= plan.(sh.index - 1).Shard.cost)
       plan);
  (* Per run: enough shots to exhaust the 1 + retries attempts of the
     first two shards. *)
  let poison () = FP.arm ~count:(2 * (retries + 1)) "shard.run" in
  poison ();
  let _, _, stream = reference ~opts w sets in
  poison ();
  let emit, _, _, _, _, _ = Batch.collector n in
  let summary =
    Coordinator.run ~options:opts ~workers:1
      ~spawn:(fun _ ->
        Coordinator.thread_transport (fun ~input ~output ->
            Worker.serve ~shard_cost ~heartbeat_s:0.05
              (Rng.create ~seed:(seed + 1))
              w sets ~eps ~delta ~input ~output))
      (Rng.create ~seed) w sets ~eps ~delta ~emit
  in
  clear_all ();
  check bool_c "all shards fell back in-process" true
    (summary.Coordinator.fallback_shards
     = summary.Coordinator.stream.Confidence.shards);
  check bool_c "the stream quarantined shards 0 and 1 as Injected" true
    (match stream.Confidence.quarantined with
    | [ (0, E.Injected "shard.run"); (1, E.Injected "shard.run") ] -> true
    | _ -> false);
  let show q = List.map (fun (i, e) -> (i, E.to_string e)) q in
  check
    Alcotest.(list (pair int string))
    "fallback quarantine = stream quarantine"
    (show stream.Confidence.quarantined)
    (show summary.Coordinator.stream.Confidence.quarantined);
  check bool_c "same typed errors" true
    (summary.Coordinator.stream.Confidence.quarantined
     = stream.Confidence.quarantined)

(* ------------------------------------------------------------------ *)
(* Static budget slices: deterministic across worker counts.           *)

(* Under a trial budget that binds, every path deals each shard the same
   static slice: the single-process stream, the coordinator with one and
   two workers, and a stream or coordinator resuming a journal that holds
   one shard's record.  The bits, the spend and the soundness agree. *)
let test_budget_slices_deterministic () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  let budget () = Budget.create ~max_trials:400 () in
  let streamed ?checkpoint ?resume () =
    let arrays, _, summary =
      reference ~budget:(budget ()) ~compile_fuel:0
        ~opts:(options ?checkpoint ?resume shard_cost)
        w sets
    in
    (arrays, summary)
  in
  let coordinated ?checkpoint ?resume workers =
    let emit, est, lo, hi, tr, _ = Batch.collector n in
    let summary =
      Coordinator.run ~budget:(budget ()) ~compile_fuel:0
        ~options:(options ?checkpoint ?resume shard_cost)
        ~workers
        ~spawn:(fun _ -> thread_spawn ~compile_fuel:0 ~shard_cost w sets 0)
        (Rng.create ~seed) w sets ~eps ~delta ~emit
    in
    ((est, lo, hi, tr), summary.Coordinator.stream)
  in
  let _, _, free =
    reference ~compile_fuel:0 ~opts:(options shard_cost) w sets
  in
  let a0, s0 = streamed () in
  check bool_c "unbudgeted stream complete" true
    free.Confidence.stream_complete;
  check bool_c "the budget binds" false s0.Confidence.stream_complete;
  let same label (a, (s : Confidence.stream_summary)) =
    Batch.check_same label a a0;
    check int_c (label ^ ": same trial spend") s0.stream_trials
      s.stream_trials
  in
  same "coordinator, 1 worker" (coordinated 1);
  same "coordinator, 2 workers" (coordinated 2);
  with_temp (fun path ->
      ignore (streamed ~checkpoint:path ());
      (* The version line, the meta record, then one record per shard in
         plan order: keep shard 1's only. *)
      let cut =
        match read_lines path with
        | version :: meta :: _ :: shard1 :: _ -> [ version; meta; shard1 ]
        | _ -> Alcotest.fail "journal too short"
      in
      let resumed label run =
        write_lines path cut;
        let a, s = run () in
        check int_c (label ^ ": one shard replayed") 1
          s.Confidence.resumed_shards;
        same label (a, s)
      in
      resumed "stream resume" (fun () ->
          streamed ~checkpoint:path ~resume:true ());
      resumed "coordinator resume" (fun () ->
          coordinated ~checkpoint:path ~resume:true 2));
  let _, lo0, hi0, _ = a0 in
  Batch.assert_sound "budgeted brackets" w sets (Array.combine lo0 hi0)

(* ------------------------------------------------------------------ *)
(* Journal compaction drops stale duplicates.                          *)

let test_compaction_drops_duplicates () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  with_temp (fun path ->
      let emit, _, _, _, _, _ = Batch.collector n in
      let s =
        Confidence.run_stream
          ~options:(options ~checkpoint:path shard_cost)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      (* Duplicate the last record (identical bytes): compaction collapses
         it, resume still validates first-wins. *)
      let lines = read_lines path in
      let last = List.nth lines (List.length lines - 1) in
      write_lines path (lines @ [ last ]);
      let kept, dropped = Shard.compact_journal path in
      check int_c "latest-per-shard kept (plus meta)" (s.Confidence.shards + 1)
        kept;
      check int_c "duplicate dropped" 1 dropped;
      let ref_arrays, _, _ = reference ~opts:(options shard_cost) w sets in
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let s2 =
        Confidence.run_stream
          ~options:(options ~checkpoint:path ~resume:true shard_cost)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check int_c "everything resumes from the compacted journal"
        s.Confidence.shards s2.Confidence.resumed_shards;
      Batch.check_same "compacted resume" (est, lo, hi, tr) ref_arrays)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "distrib"
    [
      ( "smoke",
        [
          Alcotest.test_case "env-armed coordinator stays sound" `Quick
            test_env_smoke;
        ] );
      ( "protocol",
        [
          qcheck protocol_roundtrip;
          Alcotest.test_case "corrupt frames fail typed" `Quick
            test_protocol_corruption;
          Alcotest.test_case "percent-encoding edge cases" `Quick
            test_pct_encoding_edges;
          Alcotest.test_case "wire bytes pinned" `Quick
            test_wire_bytes_pinned;
          qcheck any_bytes_roundtrip;
          Alcotest.test_case "behavioral send modes on the wire" `Quick
            test_behavioral_send_modes;
          qcheck encoder_matches_reference;
          Alcotest.test_case "length field is eight hex digits" `Quick
            test_length_field_strict;
        ] );
      ( "identity",
        [
          Alcotest.test_case "bit-identical for 1/2/4 forked workers" `Quick
            test_identity_across_worker_counts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "SIGKILLed worker reassigned, bits unchanged"
            `Quick test_kill_worker_mid_run;
          Alcotest.test_case "poison shards quarantined then self-heal" `Quick
            test_quarantine_and_self_heal;
          Alcotest.test_case "drifted worker refused at handshake" `Quick
            test_drifted_worker_refused;
          Alcotest.test_case "fallback quarantines like the stream" `Quick
            test_fallback_quarantines_like_stream;
        ] );
      ( "resume",
        [
          Alcotest.test_case "journals interchange across worker counts"
            `Quick test_resume_across_worker_counts;
          Alcotest.test_case "compaction drops stale duplicates" `Quick
            test_compaction_drops_duplicates;
        ] );
      ( "budget",
        [
          Alcotest.test_case "static slices independent of worker count"
            `Quick test_budget_slices_deterministic;
        ] );
    ]
