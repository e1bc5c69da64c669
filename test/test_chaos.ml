(* Chaos soak: behavioral fault modes (raise / delay / stall / torn) armed
   one site at a time across every instrumented serve and distrib I/O site,
   with deadlines everywhere.  The contract under test is the robustness
   tentpole's acceptance bar:

   - every call terminates well inside its deadline — either with a correct
     result or a typed [Pqdb_error] (never a hang, never an untyped crash);
   - the daemon survives every injected fault and keeps serving;
   - fault-free traffic before, between and after armed trials stays
     byte-identical to the reference answer;
   - overload sheds with a typed [Busy], idle and wedged sessions are
     reaped, and both show up in [stats].

   Stall shots are capped short ([Faultpoint.set_stall_cap_s]) so the soak
   stays fast; the cap is restored on every exit path.  Like the other
   suites, every test clears the registry first so the CI fault matrix
   (which arms one site for the whole process) cannot poison the product
   of trials below. *)

let () = Unix.putenv "PQDB_POOL_WORKERS" "1"

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
open Pqdb_distrib
open Pqdb_serve
module FP = Pqdb_runtime.Faultpoint
module E = Pqdb_runtime.Pqdb_error
module Gen = Pqdb_workload.Gen
module Q = Rational

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let clear_all () = List.iter FP.disarm (FP.armed ())

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Pull a named counter out of a stats body: the word after [name]. *)
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

let counter_at_least label body name n =
  check bool_c
    (Printf.sprintf "%s: stats %s >= %d" label name n)
    true
    (match counter body name with Some v -> v >= n | None -> false)

let temp_counter = ref 0

let temp_path suffix =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqdb_chaos_%d_%d%s" (Unix.getpid ()) !temp_counter suffix)

(* Deterministic Fisher-Yates so the trial order is "random" but
   reproducible run to run. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let modes = [ FP.Raise; FP.Delay 0.03; FP.Stall; FP.Torn ]

(* ------------------------------------------------------------------ *)
(* Serve-side soak.                                                    *)

let with_fixture_db f =
  let path = temp_path ".udbb" in
  let rng = Rng.create ~seed:77 in
  let udb = Gen.uncertain_db rng ~tuples:20 ~clauses:3 in
  Udb_io.save path udb;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config ?io_timeout_s ?idle_timeout_s ?max_sessions ?watchdog_s ~db_path
    listen =
  {
    Server.db_path;
    listen;
    cache_entries = 64;
    session_trials = None;
    session_deadline_s = None;
    io_timeout_s;
    idle_timeout_s;
    max_sessions;
    watchdog_s;
  }

let with_daemon cfg f =
  let srv = Server.create cfg in
  let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
  Fun.protect
    ~finally:(fun () ->
      (* Whatever the test left behind, stop the daemon and release any
         stall still holding a session thread. *)
      clear_all ();
      (match Client.connect ~retries:10 ~retry_delay_s:0.05 cfg.Server.listen with
      | c ->
          (try ignore (Client.query ~timeout_s:2.0 c "shutdown") with _ -> ());
          (try Client.close c with _ -> ())
      | exception _ -> ());
      Thread.join daemon)
    (fun () -> f cfg.Server.listen)

(* One armed round trip: connect + query with tight deadlines.  The only
   acceptable outcomes are a clean reference-identical reply, an err reply
   (the daemon rendered the injected fault), or a typed exception. *)
let armed_trial ~label ~reference listen =
  let outcome =
    match
      Client.connect ~retries:3 ~retry_delay_s:0.05 ~io_timeout_s:1.0 listen
    with
    | c ->
        let r =
          match Client.query ~timeout_s:1.5 c "conf events" with
          | true, body -> `Ok body
          | false, _ -> `Typed
          | exception E.Error _ -> `Typed
        in
        (try Client.close c with _ -> ());
        r
    | exception E.Error _ -> `Typed
    | exception Unix.Unix_error _ -> `Typed
  in
  match outcome with
  | `Ok body ->
      check string_c (label ^ ": clean reply is byte-identical") reference body
  | `Typed -> ()

let serve_sites = [ "serve.accept"; "serve.session"; "distrib.send"; "distrib.recv" ]

let test_serve_soak () =
  clear_all ();
  with_fixture_db (fun db ->
      let listen = Server.Unix_socket (temp_path ".sock") in
      let cfg =
        config ~io_timeout_s:2.0 ~max_sessions:16 ~watchdog_s:1.0 ~db_path:db
          listen
      in
      with_daemon cfg (fun listen ->
          Fun.protect
            ~finally:(fun () -> FP.set_stall_cap_s 2.0)
            (fun () ->
              FP.set_stall_cap_s 0.4;
              let reference =
                let c = Client.connect ~retries:50 ~io_timeout_s:2.0 listen in
                let ok, body = Client.query c "conf events" in
                check bool_c "reference query ok" true ok;
                Client.close c;
                body
              in
              let trials =
                List.concat_map
                  (fun site -> List.map (fun m -> (site, m)) modes)
                  serve_sites
                |> shuffle (Rng.create ~seed:2026)
              in
              List.iter
                (fun (site, mode) ->
                  clear_all ();
                  let label =
                    Printf.sprintf "%s@%s" site (FP.mode_to_string mode)
                  in
                  FP.arm ~count:1 ~mode site;
                  let (), elapsed =
                    timed (fun () -> armed_trial ~label ~reference listen)
                  in
                  check bool_c (label ^ ": trial bounded") true (elapsed < 8.0);
                  clear_all ();
                  (* fault-free traffic right after the fault: served, and
                     byte-identical to the reference *)
                  let c =
                    Client.connect ~retries:10 ~retry_delay_s:0.05
                      ~io_timeout_s:2.0 listen
                  in
                  let ok, body = Client.query c "conf events" in
                  check bool_c (label ^ ": daemon survives") true ok;
                  check string_c
                    (label ^ ": fault-free reply byte-identical")
                    reference body;
                  Client.close c)
                trials)))

let test_shed_at_cap () =
  clear_all ();
  with_fixture_db (fun db ->
      let listen = Server.Unix_socket (temp_path ".sock") in
      let cfg = config ~io_timeout_s:2.0 ~max_sessions:1 ~db_path:db listen in
      with_daemon cfg (fun listen ->
          let c1 = Client.connect ~retries:50 ~io_timeout_s:2.0 listen in
          (* the single slot is held: the next connection is shed with a
             typed Busy instead of a hang or a silent close *)
          (match Client.connect ~io_timeout_s:2.0 listen with
          | c2 ->
              Client.close c2;
              Alcotest.fail "second session admitted past the cap"
          | exception E.Error (E.Busy _) -> ());
          let ok, body = Client.query c1 "stats" in
          check bool_c "held session still serves" true ok;
          counter_at_least "shed" body "shed" 1;
          (* freeing the slot lets a backed-off retry in *)
          Client.close c1;
          let c3 =
            Client.connect ~retries:20 ~retry_delay_s:0.05 ~io_timeout_s:2.0
              listen
          in
          let ok, _ = Client.query c3 "conf events" in
          check bool_c "slot freed, retry admitted" true ok;
          Client.close c3))

let test_idle_reap () =
  clear_all ();
  with_fixture_db (fun db ->
      let listen = Server.Unix_socket (temp_path ".sock") in
      let cfg = config ~idle_timeout_s:0.2 ~db_path:db listen in
      with_daemon cfg (fun listen ->
          let c = Client.connect ~retries:50 ~io_timeout_s:2.0 listen in
          let ok, _ = Client.query c "conf events" in
          check bool_c "query before idling" true ok;
          Unix.sleepf 0.6;
          (match Client.query ~timeout_s:1.0 c "conf events" with
          | _ -> Alcotest.fail "reaped session still replied"
          | exception E.Error _ -> ());
          (try Client.close c with _ -> ());
          let c2 = Client.connect ~retries:20 ~retry_delay_s:0.05 listen in
          let ok, body = Client.query c2 "stats" in
          check bool_c "stats after reap" true ok;
          counter_at_least "idle" body "reaped" 1;
          Client.close c2))

let test_watchdog_reaps_wedged () =
  clear_all ();
  with_fixture_db (fun db ->
      let listen = Server.Unix_socket (temp_path ".sock") in
      let cfg = config ~watchdog_s:0.4 ~db_path:db listen in
      with_daemon cfg (fun listen ->
          Fun.protect
            ~finally:(fun () ->
              FP.set_stall_cap_s 2.0;
              clear_all ())
            (fun () ->
              (* a stall far beyond the watchdog: without the watchdog the
                 query would sit for the full cap *)
              FP.set_stall_cap_s 10.0;
              let c = Client.connect ~retries:50 listen in
              FP.arm ~count:1 ~mode:FP.Stall "serve.session";
              let outcome, elapsed =
                timed (fun () ->
                    match Client.query ~timeout_s:3.0 c "conf events" with
                    | r -> `Replied r
                    | exception E.Error _ -> `Typed)
              in
              (match outcome with
              | `Replied _ -> Alcotest.fail "wedged session still replied"
              | `Typed -> ());
              check bool_c "watchdog cut the session well before the stall cap"
                true (elapsed < 3.5);
              (* release the stalled session thread before shutdown *)
              clear_all ();
              (try Client.close c with _ -> ());
              let c2 = Client.connect ~retries:20 ~retry_delay_s:0.05 listen in
              let ok, body = Client.query c2 "stats" in
              check bool_c "stats after watchdog" true ok;
              counter_at_least "watchdog" body "reaped" 1;
              Client.close c2)))

(* ------------------------------------------------------------------ *)
(* Distrib-side soak: coordinator/worker round trips under armed        *)
(* transport faults.  Every shard must still be emitted with sound      *)
(* brackets (reassignment or in-process fallback), and a fault-free     *)
(* distributed run must reproduce the sequential stream bit-exactly.    *)

let eps = 0.35
let delta = 0.2
let dseed = 9091

let dist_fixture () =
  let rng = Rng.create ~seed:4243 in
  let w = Wtable.create () in
  let sets =
    Array.init 12 (fun i ->
        match i mod 4 with
        | 0 -> Gen.random_dnf rng w ~vars:8 ~clauses:5 ~clause_len:3
        | 1 -> Gen.random_dnf rng w ~vars:6 ~clauses:4 ~clause_len:2
        | 2 -> [ Assignment.empty ]
        | _ -> Gen.random_dnf rng w ~vars:7 ~clauses:4 ~clause_len:3)
  in
  (w, sets)

let shard_cost_for ~eps ~delta clause_sets ~target =
  let total =
    Array.fold_left
      (fun acc cs -> acc + Shard.tuple_cost ~eps ~delta cs)
      0 clause_sets
  in
  max 1 (total / target)

let test_distrib_soak () =
  clear_all ();
  let w, sets = dist_fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:4 in
  let opts =
    { Confidence.shard_cost; retries = 3; checkpoint = None; resume = false }
  in
  let reference =
    let emit, est, lo, hi, tr, _ = Batch.collector n in
    let _ =
      Confidence.run_stream ~options:opts (Rng.create ~seed:dseed) w sets ~eps
        ~delta ~emit
    in
    (est, lo, hi, tr)
  in
  let spawn _ =
    (* Tight worker-side frame deadline: a torn coordinator frame must kill
       the worker within ~1s, not leave it wedged-but-heartbeating. *)
    Coordinator.thread_transport ~io_timeout_s:1.0 (fun ~input ~output ->
        Worker.serve ~shard_cost ~heartbeat_s:0.05 ~frame_timeout_s:1.0
          (Rng.create ~seed:dseed) w sets ~eps ~delta ~input ~output)
  in
  Fun.protect
    ~finally:(fun () ->
      FP.set_stall_cap_s 2.0;
      clear_all ())
    (fun () ->
      FP.set_stall_cap_s 0.4;
      List.iter
        (fun (site, mode) ->
          clear_all ();
          let label = Printf.sprintf "%s@%s" site (FP.mode_to_string mode) in
          Printf.eprintf "chaos distrib trial: %s\n%!" label;
          FP.arm ~count:2 ~mode site;
          let (summary, lo, hi, order), elapsed =
            timed (fun () ->
                let emit, _est, lo, hi, _tr, order = Batch.collector n in
                let s =
                  Coordinator.run ~options:opts ~workers:2 ~spawn
                    (Rng.create ~seed:dseed) w sets ~eps ~delta ~emit
                in
                (s, lo, hi, order))
          in
          (* Where a slow trial stood: its summary and the shards it emitted
             in plan order before the first one out of order. *)
          let s = summary.Coordinator.stream in
          let rec in_order k = function
            | i :: rest when i = k -> in_order (k + 1) rest
            | _ -> k
          in
          check bool_c
            (Printf.sprintf
               "%s: run bounded (%.1f s of 30; %d shards, %d resumed, %d \
                quarantined, stream_complete %b, %d of %d emitted in order)"
               label elapsed s.Confidence.shards s.Confidence.resumed_shards
               (List.length s.Confidence.quarantined)
               s.Confidence.stream_complete (in_order 0 (List.rev !order))
               (List.length !order))
            true (elapsed < 30.0);
          check int_c
            (label ^ ": every shard emitted")
            summary.Coordinator.stream.Confidence.shards
            (List.length !order);
          check bool_c (label ^ ": emitted in plan order") true
            (List.rev !order = List.init (List.length !order) Fun.id);
          Batch.assert_sound label w sets (Array.combine lo hi))
        (List.concat_map
           (fun site -> List.map (fun m -> (site, m)) modes)
           [ "distrib.send"; "distrib.recv" ]
        |> shuffle (Rng.create ~seed:2027));
      clear_all ();
      (* disarmed, the distributed run reproduces the sequential bits *)
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let s =
        Coordinator.run ~options:opts ~workers:2 ~spawn (Rng.create ~seed:dseed)
          w sets ~eps ~delta ~emit
      in
      check bool_c "fault-free run complete" true
        s.Coordinator.stream.Confidence.stream_complete;
      Batch.check_same "fault-free distributed bits" (est, lo, hi, tr)
        reference)

let () =
  Alcotest.run "chaos"
    [
      ( "serve",
        [
          Alcotest.test_case "soak: sites x modes, daemon survives" `Quick
            test_serve_soak;
          Alcotest.test_case "overload sheds typed Busy" `Quick
            test_shed_at_cap;
          Alcotest.test_case "idle sessions reaped" `Quick test_idle_reap;
          Alcotest.test_case "watchdog reaps wedged sessions" `Quick
            test_watchdog_reaps_wedged;
        ] );
      ( "distrib",
        [
          Alcotest.test_case "soak: transport modes, shards always emitted"
            `Quick test_distrib_soak;
        ] );
    ]
