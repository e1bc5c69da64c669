module Shard = Pqdb_montecarlo.Shard
module Confidence = Pqdb_montecarlo.Confidence
module Faultpoint = Pqdb_runtime.Faultpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error

type transport = {
  send : Protocol.msg -> unit;
  recv : unit -> Protocol.msg option;
  pid : int option;
  remote : bool;
  close : unit -> unit;
}

(* Coordinator-side transports speak frames directly over the pipe fds
   ({!Protocol.read_fd}/{!Protocol.write_fd}) so [io_timeout_s] can bound
   every send and recv with [select] — a worker that wedges mid-frame (or a
   full pipe nobody drains) surfaces as a typed [Timeout] in the reader
   thread, which the event loop treats like any other lost worker.  With no
   timeout the behavior is the old blocking one.  The worker keeps its
   buffered stdin/stdout channels: a dead coordinator is an EOF there, and
   heartbeats cover the idle-but-alive case. *)
let fd_transport ?io_timeout_s ?pid ~close ~in_fd ~out_fd () =
  {
    send = (fun m -> Protocol.write_fd ?timeout_s:io_timeout_s out_fd m);
    recv = (fun () -> Protocol.read_fd ?timeout_s:io_timeout_s in_fd);
    pid;
    remote = false;
    close;
  }

let process_transport ?io_timeout_s argv =
  let to_child_r, to_child_w = Unix.pipe () in
  let from_child_r, from_child_w = Unix.pipe () in
  (* The parent-side ends must not leak into sibling workers: a sibling
     holding a dup of this worker's stdout write end would mask its EOF on
     death.  (create_process dup2s the child-side ends onto 0/1, which
     clears close-on-exec for the child itself.) *)
  List.iter Unix.set_close_on_exec [ to_child_w; from_child_r; to_child_r; from_child_w ];
  let pid = Unix.create_process argv.(0) argv to_child_r from_child_w Unix.stderr in
  Unix.close to_child_r;
  Unix.close from_child_w;
  let close () =
    (try Unix.close to_child_w with Unix.Unix_error _ -> ());
    try Unix.close from_child_r with Unix.Unix_error _ -> ()
  in
  fd_transport ?io_timeout_s ~pid ~close ~in_fd:from_child_r ~out_fd:to_child_w ()

let thread_transport ?io_timeout_s serve =
  let to_w_r, to_w_w = Unix.pipe () in
  let from_w_r, from_w_w = Unix.pipe () in
  let w_in = Unix.in_channel_of_descr to_w_r in
  let w_out = Unix.out_channel_of_descr from_w_w in
  let th =
    Thread.create
      (fun () ->
        (try serve ~input:w_in ~output:w_out with _ -> ());
        (try close_out w_out with _ -> ());
        try close_in w_in with _ -> ())
      ()
  in
  let close () =
    (* Closing the order pipe EOFs the worker loop; join before closing
       our read side so the worker is never writing into a closed pipe. *)
    (try Unix.close to_w_w with Unix.Unix_error _ -> ());
    (try Thread.join th with _ -> ());
    try Unix.close from_w_r with Unix.Unix_error _ -> ()
  in
  fd_transport ?io_timeout_s ~close ~in_fd:from_w_r ~out_fd:to_w_w ()

(* Remote worker over TCP.  I/O goes through the {!Protocol} TCP fault
   wrappers so the network failure modes (drop, half-open stall, duplicate
   delivery) are injectable; [close] shuts the socket down first so a
   reader thread blocked in [recv] wakes with EOF instead of leaking. *)
let tcp_transport ?io_timeout_s ?(retries = 0) ?(retry_delay_s = 0.2)
    ?(max_delay_s = 2.0) ~host ~port () =
  let addr = Unix.ADDR_INET (Dial.resolve_host host, port) in
  let fd = Dial.connect ~retries ~retry_delay_s ~max_delay_s addr in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    send = (fun m -> Protocol.tcp_write_fd ?timeout_s:io_timeout_s fd m);
    recv = (fun () -> Protocol.tcp_read_fd ?timeout_s:io_timeout_s fd);
    pid = None;
    remote = true;
    close =
      (fun () ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ());
  }

type summary = {
  stream : Confidence.stream_summary;
  workers_spawned : int;
  spawn_failures : string list;
  workers_lost : int;
  reassigned : int;
  reconnects : int;
  leases_expired : int;
  late_drops : int;
  fallback_shards : int;
  compacted : (int * int) option;
}

(* A shard assignment is identified by its lease epoch: every (re)issue of
   a shard draws a fresh epoch, so an outcome names exactly the order that
   requested it and late deliveries from superseded leases are legible. *)
type assignment = { shard : int; epoch : int }

(* [Suspended] is the partition-tolerance state: a remote worker whose
   lease expired.  Its in-flight shard (if any) was requeued, it is not
   dealt further work, but its socket is left alone — any traffic from it
   renews the lease and returns it to [Idle].  Process workers are killed
   instead (PR 5 behavior): their liveness is local, so a silent one is
   dead, not partitioned. *)
type wstate = Starting | Idle | Busy of assignment | Suspended | Dead

type worker = {
  key : int;  (* unique per connection — reconnects get a fresh key *)
  id : int;  (* logical spawn slot, stable across reconnects *)
  tr : transport;
  mutable state : wstate;
  mutable last_seen : float;
}

type event = Msg of Protocol.msg | Gone

let run ?budget ?nworkers ?compile_fuel
    ?(options = Confidence.default_stream_options) ?(lease_ttl_s = 30.)
    ?(max_reconnects = 0) ?(reconnect_delay_s = 0.25) ?source ~workers:nw
    ~spawn rng w clause_sets ~eps ~delta ~emit =
  if nw < 1 then invalid_arg "Coordinator.run: workers must be >= 1";
  if lease_ttl_s <= 0. then
    invalid_arg "Coordinator.run: lease_ttl_s must be positive";
  if max_reconnects < 0 then
    invalid_arg "Coordinator.run: max_reconnects must be >= 0";
  if reconnect_delay_s <= 0. then
    invalid_arg "Coordinator.run: reconnect_delay_s must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let run =
    Confidence.open_run ?budget ?nworkers ?compile_fuel ~options rng w
      clause_sets ~eps ~delta ~emit
  in
  let plan = Confidence.plan run in
  let meta = Confidence.meta run and probe = Confidence.probe run in
  let fp i = Confidence.fingerprint run plan.(i) in
  let nshards = Array.length plan in
  (* Pending queue: LPT — deal the heaviest shards first (lowest index on
     ties) so the tail of the run is small shards that balance across
     workers. *)
  let lpt =
    List.sort (fun a b ->
        match compare plan.(b).Shard.cost plan.(a).Shard.cost with
        | 0 -> compare a b
        | c -> c)
  in
  let pending =
    ref
      (lpt
         (List.filter
            (fun i -> not (Confidence.resolved run i))
            (List.init nshards Fun.id)))
  in
  let failures : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let workers_lost = ref 0 in
  let reassigned = ref 0 in
  let reconnects = ref 0 in
  let leases_expired = ref 0 in
  let late_drops = ref 0 in
  let fallback_shards = ref 0 in
  (* Lease epochs: a global counter stamps every order; [current_epoch]
     remembers the latest epoch issued per shard so ingestion can tell a
     late-but-genuine delivery (epoch ≤ current, first-wins) from
     corruption (an epoch never issued). *)
  let epoch_counter = ref 0 in
  let current_epoch : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let issued index epoch =
    index >= 0 && index < nshards
    &&
    match Hashtbl.find_opt current_epoch index with
    | Some cur -> epoch >= 1 && epoch <= cur
    | None -> false
  in
  let events : (int * event) Queue.t = Queue.create () in
  let elock = Mutex.create () in
  let push ev = Mutex.protect elock (fun () -> Queue.add ev events) in
  let drain () =
    Mutex.protect elock (fun () ->
        let l = List.of_seq (Queue.to_seq events) in
        Queue.clear events;
        l)
  in
  (* The fleet grows over time (redials add fresh connections), so worker
     records carry a unique [key] — the reader thread and event queue speak
     keys, never ids, so a late event from a superseded connection cannot
     be mistaken for its replacement. *)
  let fleet : worker list ref = ref [] in
  let next_key = ref 0 in
  let admit id =
    match
      Faultpoint.fire "distrib.spawn";
      spawn id
    with
    | tr ->
        let key = !next_key in
        incr next_key;
        let wk = { key; id; tr; state = Starting; last_seen = Unix.gettimeofday () } in
        let _reader : Thread.t =
          Thread.create
            (fun () ->
              let rec rloop () =
                match tr.recv () with
                | Some m ->
                    push (key, Msg m);
                    rloop ()
                | None -> push (key, Gone)
                | exception _ -> push (key, Gone)
              in
              rloop ())
            ()
        in
        (* Greeting: tells a bare worker process where the data lives
           ([source]) before it must reconstruct the run.  Workers with
           their own data arguments ignore it; a send failure just means
           the worker is already gone, which the reader will notice. *)
        (try wk.tr.send (Protocol.Hello { meta; probe; source })
         with _ -> ());
        fleet := !fleet @ [ wk ];
        Ok wk
    | exception e -> Error (Printexc.to_string e)
  in
  let admitted = List.map admit (List.init nw Fun.id) in
  let workers_spawned = List.length (List.filter Result.is_ok admitted) in
  let spawn_failures =
    List.filter_map (function Error e -> Some e | Ok _ -> None) admitted
  in
  let find_worker key = List.find (fun wk -> wk.key = key) !fleet in
  let live () = List.filter (fun wk -> wk.state <> Dead) !fleet in
  (* Workers the dealer can still count on: [Suspended] is excluded — a
     partitioned worker may never heal, so it must not delay fallback. *)
  let active () =
    List.filter
      (fun wk ->
        match wk.state with
        | Starting | Idle | Busy _ -> true
        | Suspended | Dead -> false)
      !fleet
  in
  let requeue i =
    (* Reassigned shards go back in cost order; a fresh attempt re-copies
       the shard's lane slice, so whoever picks it up reproduces the
       original stream bit for bit.  A shard a late delivery already
       resolved stays out. *)
    if not (Confidence.resolved run i) then pending := lpt (i :: !pending)
  in
  let reap wk =
    match wk.tr.pid with
    | Some pid -> ( try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | None -> ()
  in
  (* Redial queue: a lost remote connection is re-dialed (the same spawn
     slot, so the same endpoint) after a capped jittered backoff, up to
     [max_reconnects] times per slot.  A successful re-handshake resets
     the slot's attempt count. *)
  let redials : (int * float) list ref = ref [] in
  let redial_attempts : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let schedule_redial id =
    let used = Option.value ~default:0 (Hashtbl.find_opt redial_attempts id) in
    if used < max_reconnects then begin
      Hashtbl.replace redial_attempts id (used + 1);
      let delay =
        Dial.backoff_delay_s
          ~salt:(Unix.getpid () lxor id)
          ~retry_delay_s:reconnect_delay_s
          ~max_delay_s:(16. *. reconnect_delay_s)
          used
      in
      redials := (id, Unix.gettimeofday () +. delay) :: !redials
    end
  in
  let bury ?(reconnect = true) wk =
    if wk.state <> Dead then begin
      (match wk.state with
      | Busy a ->
          incr reassigned;
          requeue a.shard
      | _ -> ());
      wk.state <- Dead;
      incr workers_lost;
      wk.tr.close ();
      reap wk;
      if reconnect && wk.tr.remote then schedule_redial wk.id
    end
  in
  let kill ?reconnect wk =
    (match wk.tr.pid with
    | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | None -> ());
    bury ?reconnect wk
  in
  let shard_failed wid i detail =
    (* One entry per failed attempt (worker ids, duplicates kept): the
       quarantine cap is total attempts — mirroring the sequential stream's
       retry budget — while assignment preference (below) spreads the
       retries over distinct workers whenever the fleet allows it. *)
    let attempts = wid :: Option.value ~default:[] (Hashtbl.find_opt failures i) in
    Hashtbl.replace failures i attempts;
    if Confidence.resolved run i then ()
    else if List.length attempts > options.retries then
      (* A remote failure arrives as a string only. *)
      Confidence.record run
        (Confidence.apriori_outcome run plan.(i) ~fp:(fp i)
           ~error:(Failure detail))
    else requeue i
  in
  (* Idempotent ingestion: the (index, epoch) stamp decides.  An epoch never
     issued is corruption (kill the sender); an already-resolved shard makes
     this a duplicate or superseded delivery (first-wins — count and drop;
     outcomes for a shard are bit-identical whoever computes them, so the
     winner's bytes are THE bytes); otherwise a genuine resolution, even
     when the lease that ordered it has since been superseded. *)
  let ingest_outcome wk ~index ~epoch payload =
    if not (issued index epoch) then kill wk
    else if Confidence.resolved run index then incr late_drops
    else
      match
        Shard.of_payload ~resumed:false
          ~source:(Printf.sprintf "worker-%d" wk.id)
          ~record:index payload
      with
      | o
        when o.Shard.shard = plan.(index) && String.equal o.Shard.fp (fp index)
             && o.Shard.quarantined = None ->
          Confidence.record run o;
          (* A late resolution may race its own reassignment: drop the
             shard from the queue so nobody re-solves it. *)
          pending := List.filter (fun j -> j <> index) !pending
      | _ | (exception Pqdb_error.Error (Pqdb_error.Malformed_input _)) ->
          (* A worker answering with the wrong shard, a drifted
             fingerprint or a torn record is not trustworthy for further
             orders either. *)
          kill wk
  in
  let handle_msg wk msg =
    wk.last_seen <- Unix.gettimeofday ();
    (* Any traffic renews the lease; a suspended worker that speaks again
       has healed its partition and rejoins the pool. *)
    (match (wk.state, msg) with
    | Suspended, (Protocol.Heartbeat | Protocol.Outcome _ | Protocol.Failed _)
      ->
        wk.state <- Idle
    | _ -> ());
    match (wk.state, msg) with
    | Starting, Protocol.Hello { meta = m; probe = p; source = _ } ->
        if String.equal m meta && String.equal p probe then begin
          wk.state <- Idle;
          Hashtbl.remove redial_attempts wk.id;
          (* Grant the liveness lease; a send failure means the worker is
             already gone and the reader will notice. *)
          try wk.tr.send (Protocol.Lease { ttl_s = lease_ttl_s }) with _ -> ()
        end
        else begin
          (* Well-formed but wrong run: the worker would compute plausible
             garbage.  Refuse it at the door — and do not redial it; the
             same endpoint would only drift again.  Say why on stderr: a
             silently shrinking fleet (typically mismatched --eps/--gen/
             --compile-fuel on a remote worker) is miserable to debug. *)
          Printf.eprintf
            "pqdb coordinator: refusing worker %d: handshake %s drift \
             (remote flags must match this run's data and plan)\n%!"
            wk.id
            (if String.equal m meta then "probe" else "meta");
          (try wk.tr.send Protocol.Shutdown with _ -> ());
          kill ~reconnect:false wk
        end
    | (Idle | Busy _), Protocol.Hello { meta = m; probe = p; source = _ } ->
        (* A duplicated greeting frame is benign iff it matches; anything
           else is drift mid-session. *)
        if not (String.equal m meta && String.equal p probe) then kill wk
    | _, Protocol.Heartbeat -> ()
    | (Idle | Busy _), Protocol.Outcome { index; epoch; payload } ->
        (match wk.state with
        | Busy a when a.shard = index && a.epoch = epoch -> wk.state <- Idle
        | _ -> ());
        ingest_outcome wk ~index ~epoch payload
    | (Idle | Busy _), Protocol.Failed { index; epoch; detail } -> (
        match wk.state with
        | Busy a when a.shard = index && a.epoch = epoch ->
            wk.state <- Idle;
            shard_failed wk.id index detail
        | _ ->
            (* A late or duplicated failure from a superseded lease: the
               shard was already requeued (or resolved); count and drop.
               An epoch never issued is corruption. *)
            if issued index epoch then incr late_drops else kill wk)
    | _, Protocol.Shutdown -> bury wk
    | _, (Protocol.Hello _ | Protocol.Order _ | Protocol.Outcome _
         | Protocol.Failed _ | Protocol.Lease _ | Protocol.Query _
         | Protocol.Reply _) ->
        (* Out-of-protocol traffic: treat like corruption. *)
        kill wk
  in
  let assign wk i =
    let trials, deadline_s = Confidence.order_slice run plan.(i) in
    incr epoch_counter;
    let epoch = !epoch_counter in
    Hashtbl.replace current_epoch i epoch;
    match
      wk.tr.send
        (Protocol.Order { index = i; epoch; fp = fp i; trials; deadline_s })
    with
    | () -> wk.state <- Busy { shard = i; epoch }
    | exception _ ->
        requeue i;
        bury wk
  in
  (try
     (* Deal while a worker can still take work: an active one, or a
        redial pending. *)
     while
       Confidence.unresolved run > 0 && (active () <> [] || !redials <> [])
     do
       let evs = drain () in
       List.iter
         (fun (key, ev) ->
           let wk = find_worker key in
           match ev with
           | Msg m -> if wk.state <> Dead then handle_msg wk m
           | Gone -> bury wk)
         evs;
       let now = Unix.gettimeofday () in
       (* Lease watchdog.  A silent process worker is dead: kill it (its
          liveness is local — PR 5 behavior).  A silent remote worker may
          be partitioned or half-open: suspend it — requeue its shard,
          stop dealing to it, leave the socket alone so it can rejoin by
          speaking again.  A remote worker that never completed its
          handshake within the lease is gone (and redialable).  In-thread
          workers are exempt: they cannot be killed, only joined. *)
       List.iter
         (fun wk ->
           if now -. wk.last_seen > lease_ttl_s then
             if wk.tr.pid <> None then kill wk
             else if wk.tr.remote then
               match wk.state with
               | Busy a ->
                   incr leases_expired;
                   incr reassigned;
                   requeue a.shard;
                   wk.state <- Suspended
               | Idle ->
                   incr leases_expired;
                   wk.state <- Suspended
               | Starting -> kill wk
               | Suspended | Dead -> ())
         (live ());
       (* Fire due redials: a fresh connection to the lost slot's endpoint,
          a fresh handshake, a fresh key.  A failed dial re-arms the next
          backoff step until the slot's attempts run out. *)
       (if !redials <> [] then
          let due, later = List.partition (fun (_, d) -> d <= now) !redials in
          redials := later;
          List.iter
            (fun (id, _) ->
              match admit id with
              | Ok _ -> incr reconnects
              | Error _ -> schedule_redial id)
            due);
       let idle = List.filter (fun wk -> wk.state = Idle) (live ()) in
       List.iter
         (fun wk ->
           (* Prefer a shard this worker has not already failed, so retries
              land on distinct workers when the fleet allows; fall back to
              the head rather than stall when it does not. *)
           let fresh i =
             match Hashtbl.find_opt failures i with
             | Some ws -> not (List.mem wk.id ws)
             | None -> true
           in
           let picked =
             match List.find_opt fresh !pending with
             | Some i -> Some i
             | None -> ( match !pending with [] -> None | i :: _ -> Some i)
           in
           match picked with
           | None -> ()
           | Some i ->
               pending := List.filter (fun j -> j <> i) !pending;
               assign wk i)
         idle;
       (* Poll only when this round was quiet; a round that consumed
          events or dealt work re-checks immediately. *)
       if Confidence.unresolved run > 0 && evs = [] then Thread.delay 0.005
     done;
     (* Whatever is left — nothing, or everything once no dealable worker
        and no redial remain — is finished in-process by the stream's own
        loop: same solve, same slices, same outcomes.  Shards still marked
        in-flight were requeued by [bury] or suspension; a partitioned
        worker that might heal later must not delay termination (its late
        outcomes are dedup'd). *)
     fallback_shards := Confidence.unresolved run;
     Confidence.solve_pending run !pending
   with e ->
     List.iter (fun wk -> kill ~reconnect:false wk) (live ());
     ignore (Confidence.close_run run);
     raise e);
  List.iter
    (fun wk ->
      (* No Shutdown for a suspended worker: its link is suspect and an
         unbounded send could wedge the exit; closing the socket EOFs it. *)
      (match wk.state with
      | Suspended -> ()
      | _ -> ( try wk.tr.send Protocol.Shutdown with _ -> ()));
      wk.state <- Dead;
      wk.tr.close ();
      reap wk)
    (live ());
  let stream = Confidence.close_run run in
  let compacted =
    match options.checkpoint with
    | Some path
      when stream.quarantined = [] && stream.journal_ok && nshards > 0 -> (
        try Some (Shard.compact_journal path) with _ -> None)
    | _ -> None
  in
  {
    stream;
    workers_spawned;
    spawn_failures;
    workers_lost = !workers_lost;
    reassigned = !reassigned;
    reconnects = !reconnects;
    leases_expired = !leases_expired;
    late_drops = !late_drops;
    fallback_shards = !fallback_shards;
    compacted;
  }
