module Shard = Pqdb_montecarlo.Shard
module Confidence = Pqdb_montecarlo.Confidence
module Budget = Pqdb_montecarlo.Budget
module Pqdb_error = Pqdb_runtime.Pqdb_error

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* One coordinator session over a pair of raw fds ([in_fd] = [out_fd] for a
   socket).  [tcp] routes the I/O through the {!Protocol} TCP fault
   wrappers and bounds sends with [frame_timeout_s] (a coordinator that
   stops draining a socket for that long is treated as gone; pipe sends to
   a live parent stay unbounded, as before). *)
let serve_session ?compile_fuel ?nworkers
    ?(shard_cost = Confidence.default_stream_options.shard_cost)
    ?(heartbeat_s = 0.25) ?(frame_timeout_s = 30.) ?(tcp = false) rng w
    clause_sets ~eps ~delta ~in_fd ~out_fd () =
  if heartbeat_s <= 0. then
    invalid_arg "Worker.serve: heartbeat_s must be positive";
  if frame_timeout_s <= 0. then
    invalid_arg "Worker.serve: frame_timeout_s must be positive";
  ignore_sigpipe ();
  (* The same run the coordinator opened, rebuilt from this worker's own
     inputs: its meta and probe go out in the Hello for literal comparison.
     A worker only solves; the coordinator records and emits. *)
  let run =
    Confidence.open_run ?nworkers ?compile_fuel
      ~options:{ Confidence.default_stream_options with shard_cost }
      rng w clause_sets ~eps ~delta ~emit:ignore
  in
  let plan = Confidence.plan run in
  let wlock = Mutex.create () in
  let send msg =
    Mutex.protect wlock (fun () ->
        if tcp then Protocol.tcp_write_fd ~timeout_s:frame_timeout_s out_fd msg
        else Protocol.write_fd out_fd msg)
  in
  let stop = Atomic.make false in
  (* The coordinator's Lease grant can clamp this below [heartbeat_s]: a
     heartbeat that cannot renew the lease in time is indistinguishable
     from a partition on the other side. *)
  let hb_delay = Atomic.make heartbeat_s in
  send
    (Protocol.Hello
       {
         meta = Confidence.meta run;
         probe = Confidence.probe run;
         source = None;
       });
  (* Liveness ticks keep flowing while a long solve runs, so the
     coordinator can tell "slow" from "gone".  A failed tick means the
     coordinator hung up; the main loop will see EOF and exit. *)
  let hb =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay (Atomic.get hb_delay);
          if not (Atomic.get stop) then
            try send Protocol.Heartbeat with _ -> Atomic.set stop true
        done)
      ()
  in
  (* A duplicated order frame (the "distrib.tcp.dup" fault, or a
     coordinator retransmit) must not re-solve the shard: the last reply
     is cached per (index, epoch) and resent verbatim. *)
  let last_reply : ((int * int) * Protocol.msg) option ref = ref None in
  let handle_order ~index ~epoch ~fp ~trials ~deadline_s =
    match !last_reply with
    | Some ((i, e), reply) when i = index && e = epoch -> send reply
    | _ ->
        let reply =
          if index < 0 || index >= Array.length plan then
            Protocol.Failed { index; epoch; detail = "unknown shard index" }
          else
            let sh = plan.(index) in
            let own_fp = Confidence.fingerprint run sh in
            if not (String.equal own_fp fp) then
              Protocol.Failed
                {
                  index;
                  epoch;
                  detail =
                    Printf.sprintf
                      "shard fingerprint mismatch (order %s, data %s)" fp
                      own_fp;
                }
            else
              let budget = Budget.slice ~trials ~deadline_s in
              match Confidence.solve_shard ?budget run sh ~fp with
              | o ->
                  Protocol.Outcome
                    { index; epoch; payload = Shard.to_payload o }
              | exception e ->
                  let detail =
                    match e with
                    | Pqdb_error.Error t -> Pqdb_error.to_string t
                    | e -> Printexc.to_string e
                  in
                  Protocol.Failed { index; epoch; detail }
        in
        last_reply := Some ((index, epoch), reply);
        send reply
  in
  (* Orders are read straight off the fd with frame-boundary patience: an
     idle wait between orders is unbounded, but once a frame starts the
     rest must arrive within [frame_timeout_s].  A torn coordinator write
     would otherwise wedge this loop forever while the heartbeat thread
     keeps advertising a live worker — the worst failure shape, a zombie
     that looks healthy. *)
  let read_frame () =
    if tcp then Protocol.tcp_read_fd_frame ~timeout_s:frame_timeout_s in_fd
    else Protocol.read_fd_frame ~timeout_s:frame_timeout_s in_fd
  in
  let rec loop () =
    if Atomic.get stop then ()
    else
      match read_frame () with
      | None | Some Protocol.Shutdown -> ()
      | Some (Protocol.Order { index; epoch; fp; trials; deadline_s }) ->
          handle_order ~index ~epoch ~fp ~trials ~deadline_s;
          loop ()
      | Some (Protocol.Lease { ttl_s }) ->
          (* The grant is advisory except when our cadence cannot renew it:
             then clamp so at least ~3 ticks fit inside every window. *)
          if Atomic.get hb_delay >= ttl_s /. 3. then begin
            let clamped = Float.max 0.01 (ttl_s /. 4.) in
            Printf.eprintf
              "pqdb worker: heartbeat interval %gs cannot renew a %gs \
               lease; clamping to %gs\n\
               %!"
              (Atomic.get hb_delay) ttl_s clamped;
            Atomic.set hb_delay clamped
          end;
          loop ()
      | Some (Protocol.Hello _ | Protocol.Outcome _ | Protocol.Failed _
             | Protocol.Heartbeat | Protocol.Query _ | Protocol.Reply _) ->
          loop ()
  in
  let outcome = try Ok (loop ()) with e -> Error e in
  Atomic.set stop true;
  Thread.join hb;
  match outcome with Ok () -> () | Error e -> raise e

let serve ?compile_fuel ?nworkers ?shard_cost ?heartbeat_s ?frame_timeout_s
    rng w clause_sets ~eps ~delta ~input ~output =
  let in_fd = Unix.descr_of_in_channel input in
  let out_fd = Unix.descr_of_out_channel output in
  serve_session ?compile_fuel ?nworkers ?shard_cost ?heartbeat_s
    ?frame_timeout_s rng w clause_sets ~eps ~delta ~in_fd ~out_fd ();
  try flush output with _ -> ()

(* Remote listener: accept coordinator connections on a TCP socket, one
   session at a time.  Each session starts with the coordinator's greeting
   [Hello]; its [source] field names the data to load, which [resolve]
   maps (and this loop caches) to the worker's inputs.  A lost coordinator
   ends the session with EOF and the listener simply returns to [accept] —
   "reconnect-resume" from the worker's side is surviving to serve the
   next dial with the data already warm. *)
let listen ?compile_fuel ?nworkers ?shard_cost ?heartbeat_s ?frame_timeout_s
    ?max_sessions ?(ready = fun _ -> ()) ~make_rng ~resolve
    ~host ~port ~eps ~delta () =
  ignore_sigpipe ();
  let addr = Unix.ADDR_INET (Dial.resolve_host host, port) in
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let cleanup () = try Unix.close lfd with Unix.Unix_error _ -> () in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd addr;
     Unix.listen lfd 16
   with e ->
     cleanup ();
     raise e);
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  ready bound_port;
  let cache = Hashtbl.create 4 in
  let served = ref 0 in
  let continue () =
    match max_sessions with None -> true | Some cap -> !served < cap
  in
  (try
     while continue () do
       match Unix.accept ~cloexec:true lfd with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | fd, _ ->
           incr served;
           (try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ());
           let session () =
             (* The coordinator speaks first; a peer that is not one (or
                whose greeting never arrives) is dropped without prejudice
                to the listener. *)
             match
               Protocol.tcp_read_fd ~timeout_s:30. fd
             with
             | Some (Protocol.Hello { source; _ }) ->
                 let w, sets =
                   match Hashtbl.find_opt cache source with
                   | Some v -> v
                   | None ->
                       let v = resolve source in
                       Hashtbl.replace cache source v;
                       v
                 in
                 serve_session ?compile_fuel ?nworkers ?shard_cost
                   ?heartbeat_s ?frame_timeout_s ~tcp:true (make_rng ()) w
                   sets ~eps ~delta ~in_fd:fd ~out_fd:fd ()
             | Some _ | None -> ()
           in
           (match session () with
           | () -> ()
           | exception e ->
               (* A faulted or crashed session must not take the listener
                  down; log and go back to accept.  The brief pause keeps a
                  fault storm (e.g. an env-armed CI matrix) from spinning. *)
               Printf.eprintf "pqdb worker: session error: %s\n%!"
                 (match e with
                 | Pqdb_error.Error t -> Pqdb_error.to_string t
                 | e -> Printexc.to_string e);
               Unix.sleepf 0.05);
           (try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ())
     done
   with e ->
     cleanup ();
     raise e);
  cleanup ()
