(* Remote TCP workers: loopback listeners, bit-identity across fleet
   sizes, redial after a SIGKILLed listener, lease-based liveness with
   late-duplicate dedup, duplicated frames, and a network chaos soak.

   Like test_distrib, the suite passes under an environment-armed fault
   (the CI matrix runs every suite with PQDB_FAULTPOINTS=<site>): the
   smoke test runs first against whatever the environment armed — forked
   listeners inherit the registry state, TCP fleets may die wholesale —
   and the coordinator must still emit every shard soundly via redials or
   its in-process fallback.  Later tests clear the registry before
   forking, so their listeners run fault-free.

   Fork safety: listeners are forked children, so the pool is pinned to
   inline execution before anything else runs (OCaml 5 forbids fork with
   live domains). *)

let () = Unix.putenv "PQDB_POOL_WORKERS" "1"

open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo
open Pqdb_distrib
module Q = Rational
module FP = Pqdb_runtime.Faultpoint
module Gen = Pqdb_workload.Gen

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let clear_all () = List.iter FP.disarm (FP.armed ())

(* ------------------------------------------------------------------ *)
(* Fixture: mixed batch planning into several shards (as test_distrib). *)

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

let options ?(retries = 2) shard_cost =
  { Confidence.shard_cost; retries; checkpoint = None; resume = false }

let reference ~opts w sets =
  let n = Array.length sets in
  let emit, est, lo, hi, tr, order = Batch.collector n in
  let summary =
    Confidence.run_stream ~options:opts (Rng.create ~seed) w sets ~eps ~delta
      ~emit
  in
  ((est, lo, hi, tr), List.rev !order, summary)

(* ------------------------------------------------------------------ *)
(* Listener harness: fork a Worker.listen child on an ephemeral port;   *)
(* the child reports the bound port over a pipe before accepting.       *)

let spawn_listener ?(eps = eps) ?(delta = delta) ?(seed = seed) ~shard_cost w
    sets () =
  let pr, pw = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close pr;
      (try
         Worker.listen ~shard_cost ~heartbeat_s:0.05 ~frame_timeout_s:5.
           ~ready:(fun port ->
             let line = Bytes.of_string (Printf.sprintf "%d\n" port) in
             ignore (Unix.write pw line 0 (Bytes.length line));
             Unix.close pw)
           ~make_rng:(fun () -> Rng.create ~seed)
           ~resolve:(fun _ -> (w, sets))
           ~host:"127.0.0.1" ~port:0 ~eps ~delta ();
         Unix._exit 0
       with e ->
         (* Said, not swallowed: a listener that reported its port and then
            died looks to the coordinator like a refused dial.  Written to
            the fd, so no stderr buffer copied from the parent is flushed
            twice. *)
         let line =
           Printf.sprintf "listener %d died: %s\n" (Unix.getpid ())
             (Printexc.to_string e)
         in
         ignore (Unix.write_substring Unix.stderr line 0 (String.length line));
         Unix._exit 2)
  | pid ->
      Unix.close pw;
      let buf = Buffer.create 8 in
      let b = Bytes.create 1 in
      let rec go () =
        match Unix.read pr b 0 1 with
        | 0 -> ()
        | _ ->
            let c = Bytes.get b 0 in
            if c <> '\n' then begin
              Buffer.add_char buf c;
              go ()
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ();
      Unix.close pr;
      (* A listener that died before binding (possible under env-armed
         faults) yields no port: dial a port nothing listens on, so the
         coordinator's spawn fails fast and the run degrades soundly. *)
      let port =
        match int_of_string_opt (Buffer.contents buf) with
        | Some p -> p
        | None -> 1
      in
      (pid, port)

(* What [waitpid] says of a listener, without waiting for it. *)
let listener_status pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> "running"
  | _, Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | _, Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | _, Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n
  | exception Unix.Unix_error (e, _, _) -> Unix.error_message e

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let dial ports id =
  Coordinator.tcp_transport ~io_timeout_s:10. ~retries:20 ~retry_delay_s:0.05
    ~max_delay_s:0.5 ~host:"127.0.0.1"
    ~port:ports.(id mod Array.length ports)
    ()

(* ------------------------------------------------------------------ *)
(* Smoke: whatever the environment armed, every shard is emitted with   *)
(* sound brackets over a real loopback socket.                          *)

let test_env_smoke () =
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:5 in
  let pid, port = spawn_listener ~shard_cost w sets () in
  Fun.protect
    ~finally:(fun () -> reap pid)
    (fun () ->
      let emit, _est, lo, hi, _tr, order = Batch.collector n in
      let summary =
        Coordinator.run ~options:(options shard_cost) ~workers:1
          ~lease_ttl_s:2.0 ~max_reconnects:1 ~reconnect_delay_s:0.05
          ~spawn:(dial [| port |])
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check int_c "every shard emitted"
        summary.Coordinator.stream.Confidence.shards (List.length !order);
      check bool_c "emitted in plan order" true
        (List.rev !order = List.init (List.length !order) Fun.id);
      Batch.assert_sound "tcp env smoke" w sets (Array.combine lo hi))

(* ------------------------------------------------------------------ *)
(* Bit-identity across fleet sizes over loopback TCP.                   *)

let test_tcp_identity () =
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
      let listeners =
        List.init workers (fun _ -> spawn_listener ~shard_cost w sets ())
      in
      Fun.protect
        ~finally:(fun () -> List.iter (fun (pid, _) -> reap pid) listeners)
        (fun () ->
          let ports = Array.of_list (List.map snd listeners) in
          let emit, est, lo, hi, tr, order = Batch.collector n in
          let summary =
            Coordinator.run ~options:opts ~workers ~spawn:(dial ports)
              (Rng.create ~seed) w sets ~eps ~delta ~emit
          in
          (* Every message names the fleet and the run's counters, so a
             failure says which assertion broke and what the run saw. *)
          let name =
            Printf.sprintf
              "%d tcp workers (ports [%s], listeners [%s], spawned %d, spawn \
               failures [%s], lost %d, reassigned %d, reconnects %d, leases \
               expired %d, late drops %d, fallback shards %d, complete %b)"
              workers
              (String.concat "; " (Array.to_list (Array.map string_of_int ports)))
              (String.concat "; "
                 (List.map (fun (pid, _) -> listener_status pid) listeners))
              summary.Coordinator.workers_spawned
              (String.concat "; " summary.spawn_failures)
              summary.workers_lost summary.reassigned summary.reconnects
              summary.leases_expired summary.late_drops
              summary.fallback_shards
              summary.stream.Confidence.stream_complete
          in
          check int_c (name ^ ": spawned") workers
            summary.Coordinator.workers_spawned;
          check int_c (name ^ ": none lost") 0
            summary.Coordinator.workers_lost;
          check bool_c (name ^ ": same emission order") true
            (List.rev !order = ref_order);
          check bool_c (name ^ ": complete") true
            summary.Coordinator.stream.Confidence.stream_complete;
          Batch.check_same name (est, lo, hi, tr) ref_arrays))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* A listener SIGKILLed mid-shard is replaced by a freshly dialed one:  *)
(* the lost slot redials, re-handshakes, and the bytes never change.    *)

let test_kill_listener_redial () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let opts = options shard_cost in
  let ref_arrays, _, _ = reference ~opts w sets in
  (* The spare is forked up front (forking mid-run, with reader threads
     live, risks inheriting a held lock) and sits idle in accept until the
     coordinator's redial finds it; it is forked BEFORE the victim so it
     does not inherit the victim's armed solve delay. *)
  let spare = spawn_listener ~shard_cost w sets () in
  (* Victim: every solve it runs is held for 0.5s ("shard.run" armed with
     a Delay just across its fork, then disarmed here), so a kill 0.2s in
     lands deterministically mid-shard.  Delay never changes bits. *)
  FP.arm ~mode:(FP.Delay 0.5) "shard.run";
  let victim = spawn_listener ~shard_cost w sets () in
  clear_all ();
  let ports = [| snd victim |] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (pid, _) -> reap pid) [ victim; spare ])
    (fun () ->
      (* With a single worker slot, the redial is the only road to
         completion: in-process fallback stays gated while a redial is
         pending, so the run finishing at all proves reconnect-resume. *)
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.2;
            reap (fst victim);
            ports.(0) <- snd spare)
          ()
      in
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let summary =
        Coordinator.run ~options:opts ~workers:1 ~lease_ttl_s:5.0
          ~max_reconnects:2 ~reconnect_delay_s:0.05
          ~spawn:(fun _ ->
            Coordinator.tcp_transport ~io_timeout_s:10. ~retries:40
              ~retry_delay_s:0.05 ~max_delay_s:0.5 ~host:"127.0.0.1"
              ~port:ports.(0) ())
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      Thread.join killer;
      check int_c "the victim's connection was lost" 1
        summary.Coordinator.workers_lost;
      check int_c "the lost slot redialed the spare" 1
        summary.Coordinator.reconnects;
      check bool_c "the in-flight shard was reassigned" true
        (summary.Coordinator.reassigned >= 1);
      check int_c "the redialed worker resumed the work (no fallback)" 0
        summary.Coordinator.fallback_shards;
      check bool_c "run complete" true
        summary.Coordinator.stream.Confidence.stream_complete;
      (* Bit-identity includes per-tuple trials: a double-ingested outcome
         would double-count trials before it changed any estimate bits. *)
      Batch.check_same "after kill+redial" (est, lo, hi, tr) ref_arrays)

(* ------------------------------------------------------------------ *)
(* Lease expiry, reassignment, late duplicate: a scripted fleet where   *)
(* worker A stops heartbeating mid-shard, B absorbs the reassignment,   *)
(* A's stale outcome (superseded epoch) is drained and deduped, and C   *)
(* holds a shard hostage so the run is still open to observe it all.    *)

module Chan = struct
  type 'a t = { m : Mutex.t; c : Condition.t; q : 'a Queue.t }

  let create () =
    { m = Mutex.create (); c = Condition.create (); q = Queue.create () }

  let push t v =
    Mutex.protect t.m (fun () ->
        Queue.add v t.q;
        Condition.signal t.c)

  let pop t =
    Mutex.protect t.m (fun () ->
        while Queue.is_empty t.q do
          Condition.wait t.c t.m
        done;
        Queue.pop t.q)
end

let test_lease_expiry_late_duplicate () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let opts = options shard_cost in
  let ref_arrays, _, ref_summary = reference ~opts w sets in
  check bool_c "enough shards for three workers" true
    (ref_summary.Confidence.shards >= 3);
  (* Mirror the coordinator's handshake and solve exactly, like a real
     worker would: open the same run from the same seed. *)
  let mirror =
    Confidence.open_run ~options:opts (Rng.create ~seed) w sets ~eps ~delta
      ~emit:ignore
  in
  let probe = Confidence.probe mirror in
  let plan = Shard.plan ~eps ~delta ~max_cost:shard_cost sets in
  let meta = Shard.meta_payload ~n ~eps ~delta ~fuel:None ~shard_cost in
  let solve_payload i =
    let sh = plan.(i) in
    let fp = Shard.fingerprint sets sh in
    Shard.to_payload (Confidence.solve_shard mirror sh ~fp)
  in
  let hello = Protocol.Hello { meta; probe; source = None } in
  (* Worker A: handshakes, takes one order, then goes silent (no
     heartbeats) so its lease expires; when another worker has answered the
     reassigned shard, A delivers its own (correct, but superseded-epoch)
     outcome — whichever of the two the drain meets second is the late
     duplicate. *)
  let a_out : Protocol.msg option Chan.t = Chan.create () in
  let a_order = ref None in
  let a_fired = ref false in
  let a_send = function
    | Protocol.Order { index; epoch; _ } when !a_order = None ->
        a_order := Some (index, epoch)
    | _ -> ()
  in
  Chan.push a_out (Some hello);
  let a_tr =
    {
      Coordinator.send = a_send;
      recv = (fun () -> Chan.pop a_out);
      pid = None;
      remote = true;
      close = (fun () -> Chan.push a_out None);
    }
  in
  let c_released = ref false in
  (* B's and C's reader threads share the trigger and C's held order. *)
  let lock = Mutex.create () in
  (* The moment an outcome for A's shard under a fresh epoch reaches the
     coordinator: A's stale delivery, and shortly after, C's release. *)
  let answered index epoch =
    let fire =
      Mutex.protect lock (fun () ->
          match !a_order with
          | Some (ai, ae) when index = ai && epoch <> ae && not !a_fired ->
              a_fired := true;
              Some (ai, ae)
          | _ -> None)
    in
    match fire with
    | Some (ai, ae) ->
        Chan.push a_out
          (Some (Protocol.Outcome { index = ai; epoch = ae; payload = solve_payload ai }));
        Chan.push a_out (Some Protocol.Shutdown);
        (* Hold C a beat longer so both outcomes for A's shard are
           drained while the run is still open. *)
        ignore
          (Thread.create
             (fun () ->
               Thread.delay 0.25;
               c_released := true)
             ())
    | None -> ()
  in
  (* Worker C: handshakes, then heartbeats without answering — keeping the
     run open — until released; from then on it answers the order it
     holds.  The order it holds is the last one dealt: under load C's own
     0.3 s lease can lapse, its shard is requeued, its next heartbeat
     rejoins it and it may be dealt a second order, which then is the one
     the run waits for.  If that order is A's reassigned shard, C answers
     it at once: the release waits for exactly that answer. *)
  let c_order = ref None in
  let c_closed = ref false in
  let c_greeted = ref false in
  let c_send = function
    | Protocol.Order { index; epoch; _ } ->
        Mutex.protect lock (fun () -> c_order := Some (index, epoch))
    | _ -> ()
  in
  let is_a_shard i =
    match !a_order with Some (ai, _) -> i = ai | None -> false
  in
  let c_recv () =
    if !c_closed then None
    else if not !c_greeted then begin
      c_greeted := true;
      Some hello
    end
    else begin
      Thread.delay 0.04;
      let answer =
        Mutex.protect lock (fun () ->
            match !c_order with
            | Some (i, _) as held when !c_released || is_a_shard i ->
                c_order := None;
                held
            | _ -> None)
      in
      match answer with
      | Some (i, e) ->
          answered i e;
          Some (Protocol.Outcome { index = i; epoch = e; payload = solve_payload i })
      | None -> Some Protocol.Heartbeat
    end
  in
  let c_tr =
    {
      Coordinator.send = c_send;
      recv = c_recv;
      pid = None;
      remote = true;
      close = (fun () -> c_closed := true);
    }
  in
  (* Worker B: a real serving worker; its coordinator-side recv is tapped
     to notice the moment B answers A's reassigned shard. *)
  let make_b () =
    let base =
      Coordinator.thread_transport (fun ~input ~output ->
          Worker.serve ~shard_cost ~heartbeat_s:0.05 (Rng.create ~seed) w sets
            ~eps ~delta ~input ~output)
    in
    {
      base with
      Coordinator.recv =
        (fun () ->
          let m = base.Coordinator.recv () in
          (match m with
          | Some (Protocol.Outcome { index; epoch; _ }) -> answered index epoch
          | _ -> ());
          m)
    }
  in
  let transports = [| (fun () -> a_tr); (fun () -> make_b ()); (fun () -> c_tr) |] in
  let emit, est, lo, hi, tr, _ = Batch.collector n in
  let summary =
    Coordinator.run ~options:opts ~workers:3 ~lease_ttl_s:0.3
      ~spawn:(fun id -> transports.(id) ())
      (Rng.create ~seed) w sets ~eps ~delta ~emit
  in
  check bool_c "a lease expired" true (summary.Coordinator.leases_expired >= 1);
  check bool_c "the expired lease's shard was reassigned" true
    (summary.Coordinator.reassigned >= 1);
  check bool_c "the late duplicate was dropped" true
    (summary.Coordinator.late_drops >= 1);
  check bool_c "run complete" true
    summary.Coordinator.stream.Confidence.stream_complete;
  check int_c "no double-counted trials"
    ref_summary.Confidence.stream_trials
    summary.Coordinator.stream.Confidence.stream_trials;
  Batch.check_same "lease expiry bits" (est, lo, hi, tr) ref_arrays

(* ------------------------------------------------------------------ *)
(* Duplicated frames on the wire: the worker resends its cached reply,  *)
(* first-wins ingestion drops the copy, the bytes never change.         *)

let test_duplicate_frames () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let opts = options shard_cost in
  let ref_arrays, _, _ = reference ~opts w sets in
  let pid, port = spawn_listener ~shard_cost w sets () in
  Fun.protect
    ~finally:(fun () ->
      clear_all ();
      reap pid)
    (fun () ->
      (* Every coordinator-side TCP write is doubled for the first six
         frames: greeting, lease grant, and the first few orders.  A
         duplicated order makes the worker resend its cached outcome; the
         copy must be counted and dropped, not double-ingested. *)
      FP.arm ~count:6 "distrib.tcp.dup";
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let summary =
        Coordinator.run ~options:opts ~workers:1 ~spawn:(dial [| port |])
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "duplicates were dropped" true
        (summary.Coordinator.late_drops >= 1);
      check int_c "no worker lost to duplication" 0
        summary.Coordinator.workers_lost;
      check bool_c "run complete" true
        summary.Coordinator.stream.Confidence.stream_complete;
      Batch.check_same "duplicated frames" (est, lo, hi, tr) ref_arrays)

(* ------------------------------------------------------------------ *)
(* Network chaos soak: connection drops and a half-open stall, bounded  *)
(* termination with sound brackets, then a fault-free rerun that is     *)
(* bit-identical to the single-process reference.                       *)

let test_tcp_chaos_soak () =
  clear_all ();
  let w, sets = fixture () in
  let n = Array.length sets in
  let shard_cost = shard_cost_for ~eps ~delta sets ~target:6 in
  let opts = options shard_cost in
  let ref_arrays, _, _ = reference ~opts w sets in
  let l0 = spawn_listener ~shard_cost w sets () in
  let l1 = spawn_listener ~shard_cost w sets () in
  Fun.protect
    ~finally:(fun () ->
      clear_all ();
      reap (fst l0);
      reap (fst l1))
    (fun () ->
      let ports = [| snd l0; snd l1 |] in
      (* Two dropped connections plus one half-open stall (blocks an I/O
         up to the 2s registry cap — long past the lease) on the
         coordinator side of the sockets.  The listeners survive their
         torn sessions and accept the redials. *)
      FP.arm ~count:2 "distrib.tcp.drop";
      FP.arm ~count:1 ~mode:FP.Stall "distrib.tcp.stall";
      let t0 = Unix.gettimeofday () in
      let emit, _est, lo, hi, _tr, order = Batch.collector n in
      let summary =
        Coordinator.run ~options:opts ~workers:2 ~lease_ttl_s:0.6
          ~max_reconnects:4 ~reconnect_delay_s:0.05 ~spawn:(dial ports)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "terminates in bounded time" true
        (Unix.gettimeofday () -. t0 < 60.);
      check int_c "every shard emitted"
        summary.Coordinator.stream.Confidence.shards (List.length !order);
      check bool_c "emitted in plan order" true
        (List.rev !order = List.init (List.length !order) Fun.id);
      Batch.assert_sound "chaos soak" w sets (Array.combine lo hi);
      (* Fault-free rerun: same inputs, fresh sessions on the surviving
         listeners, byte-identical to the reference stream. *)
      clear_all ();
      let emit, est, lo, hi, tr, _ = Batch.collector n in
      let healed =
        Coordinator.run ~options:opts ~workers:2 ~spawn:(dial ports)
          (Rng.create ~seed) w sets ~eps ~delta ~emit
      in
      check bool_c "fault-free rerun complete" true
        healed.Coordinator.stream.Confidence.stream_complete;
      Batch.check_same "fault-free rerun" (est, lo, hi, tr) ref_arrays)

(* Each case runs under an alarm, so a hung case fails under its own name
   instead of leaving the whole binary to an outer timeout.  The name also
   goes to stderr first, in case the alarm lands on another thread. *)
let case_deadline_s = 120

let case name f =
  let expired _ =
    let msg = Printf.sprintf "%s: still running after %d s" name case_deadline_s in
    prerr_endline msg;
    failwith msg
  in
  Alcotest.test_case name `Quick (fun () ->
      let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle expired) in
      ignore (Unix.alarm case_deadline_s);
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.alarm 0);
          Sys.set_signal Sys.sigalrm previous)
        f)

let () =
  Alcotest.run "remote"
    [
      ( "smoke",
        [ case "env-armed TCP coordinator stays sound" test_env_smoke ] );
      ( "identity",
        [ case "bit-identical for 1/2/4 TCP workers" test_tcp_identity ] );
      ( "faults",
        [
          case "SIGKILLed listener replaced by a fresh dial, bits unchanged"
            test_kill_listener_redial;
          case "lease expiry reassigns; the late duplicate is dropped"
            test_lease_expiry_late_duplicate;
          case "duplicated frames are deduped" test_duplicate_frames;
        ] );
      ( "chaos",
        [ case "drop/stall soak, then bit-identical rerun" test_tcp_chaos_soak ]
      );
    ]
