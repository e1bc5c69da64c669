module Faultpoint = Pqdb_runtime.Faultpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error
module Protocol = Pqdb_distrib.Protocol
module Cset = Pqdb_conditioning.Constraint_set
module Condition = Pqdb_conditioning.Condition
module Qparser = Pqdb_lang.Qparser
open Pqdb_numeric
open Pqdb_urel
open Pqdb_montecarlo

type listen = Unix_socket of string | Tcp of int

let pp_listen = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

type config = {
  db_path : string;
  listen : listen;
  cache_entries : int;
  session_trials : int option;
  session_deadline_s : float option;
  io_timeout_s : float option;
  idle_timeout_s : float option;
  max_sessions : int option;
  watchdog_s : float option;
}

type stats = {
  sessions : int;
  queries : int;
  errors : int;
  dropped : int;
  shed : int;
  reaped : int;
  cache : Memo.stats;
}

(* One live session, as the watchdog and [run]'s shutdown grace see it.
   [busy_since = 0.] means the session is between requests; a positive
   value is the wall-clock start of the request it is executing, until its
   reply is written. *)
type slot = {
  sfd : Unix.file_descr;
  mutable busy_since : float;
  mutable wedged : bool;
}

(* A stored relation's lineage grouped by tuple, each set's canonical
   {!Lineage.t} and its {!Memo.code}, valid while the W table keeps this uid
   and generation: a set is normalized once per generation, and a cache
   miss compiles from its lineage. *)
type groups = {
  uid : int;
  generation : int;
  sets : Assignment.t list array;
  lineages : Lineage.t array;
  codes : string array;
}

type t = {
  config : config;
  udb : Udb.t;
  cache : Memo.t;
  groups : (string, groups) Hashtbl.t;  (* relation -> groups; engine lock *)
  (* Query execution is serialized: the W-table alias cache fills lazily
     during DNF preparation and is not safe under concurrent writers, and
     the target container is single-core anyway.  Sessions stay concurrent
     for connection handling; only the engine is exclusive. *)
  engine : Mutex.t;
  state : Mutex.t;  (* counters, slots and active below *)
  mutable sessions : int;
  mutable queries : int;
  mutable errors : int;
  mutable dropped : int;
  mutable shed : int;
  mutable reaped : int;
  mutable active : int;
  mutable next_sid : int;
  slots : (int, slot) Hashtbl.t;
  running : bool Atomic.t;
  mutable listen_fd : Unix.file_descr option;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let stats t =
  with_lock t.state (fun () ->
      {
        sessions = t.sessions;
        queries = t.queries;
        errors = t.errors;
        dropped = t.dropped;
        shed = t.shed;
        reaped = t.reaped;
        cache = Memo.stats t.cache;
      })

(* ------------------------------------------------------------------ *)
(* Session constraint state.                                           *)

(* The active constraint set is per session, never global: two clients
   conditioning differently share the daemon (and its Memo — entries are
   salted by constraint-set fingerprint, so they never collide) without
   seeing each other's ASSERTs.  [compiled] is the set's lineage against
   the served database, built lazily on the first conditioned [conf] and
   dropped whenever the set changes. *)
type session = {
  mutable cset : Cset.t;
  mutable compiled : Condition.compiled option;
}

let new_session () = { cset = Cset.empty; compiled = None }

(* ------------------------------------------------------------------ *)
(* Request language.                                                   *)

let usage =
  "requests: conf <relation> [eps=F] [delta=F] [seed=N] [fuel=N] \
   [deadline=SECS] [trials=N] | assert <constraint> | retract | stats | \
   shutdown"

let fail fmt = Printf.ksprintf failwith fmt

let parse_kv ~relation args =
  let eps = ref 0.05 and delta = ref 0.01 in
  let seed = ref 42 and fuel = ref None in
  let q_deadline = ref None and q_trials = ref None in
  List.iter
    (fun arg ->
      match String.index_opt arg '=' with
      | None -> fail "bad argument %S (expected key=value); %s" arg usage
      | Some i -> (
          let k = String.sub arg 0 i in
          let v = String.sub arg (i + 1) (String.length arg - i - 1) in
          let float_v () =
            match float_of_string_opt v with
            | Some f when f > 0. && f < 1. -> f
            | _ -> fail "%s must be a float in (0, 1), got %S" k v
          in
          let pos_float_v () =
            match float_of_string_opt v with
            | Some f when f > 0. && Float.is_finite f -> f
            | _ -> fail "%s must be a positive float, got %S" k v
          in
          let int_v ~min =
            match int_of_string_opt v with
            | Some n when n >= min -> n
            | _ -> fail "%s must be an integer >= %d, got %S" k min v
          in
          match k with
          | "eps" -> eps := float_v ()
          | "delta" -> delta := float_v ()
          | "seed" -> seed := int_v ~min:0
          | "fuel" -> fuel := Some (int_v ~min:0)
          | "deadline" -> q_deadline := Some (pos_float_v ())
          | "trials" -> q_trials := Some (int_v ~min:1)
          | _ -> fail "unknown option %S for conf %s" k relation))
    args;
  (!eps, !delta, !seed, !fuel, !q_deadline, !q_trials)

(* The relation's groups, regrouped and re-encoded only when the W table's
   uid or generation moved since they were built.  Must run under the
   engine lock, which guards [t.groups]. *)
let relation_groups t relation =
  let w = Udb.wtable t.udb in
  let uid = Wtable.uid w and generation = Wtable.generation w in
  match Hashtbl.find_opt t.groups relation with
  | Some g when g.uid = uid && g.generation = generation -> g
  | _ ->
      let sets = Udb.relation_sets t.udb relation in
      let lineages = Array.map Lineage.of_clauses sets in
      let g = { uid; generation; sets; lineages; codes = Array.map Memo.code lineages } in
      Hashtbl.replace t.groups relation g;
      g

(* The conf body is one-shard batch output compiled through the cache:
   byte-equal to `pqdb batch` (as one shard under a trial cap; conditioned,
   to `pqdb batch --assert`) and to itself warm or cold.  Conditioned
   entries are salted by the constraint-set fingerprint, so a conditioned
   reply is never served from an unconditioned entry (or vice versa). *)
let run_conf t ?budget ?compiled ~relation ~eps ~delta ~seed ~fuel () =
  let { sets; lineages; codes; _ } = relation_groups t relation in
  let w = Udb.wtable t.udb in
  let buf = Buffer.create (64 * (Array.length sets + 1)) in
  let emit = Shard.add_outcome buf in
  (match compiled with
  | Some c ->
      ignore
        (Condition.solve_batch ?budget ?fuel ~cache:t.cache ~seed w c sets
           ~eps ~delta ~emit)
  | None ->
      Confidence.run_one_shard ?budget
        ~hook:
          (Confidence.compiled ~eps ~delta (fun i ->
               Memo.find t.cache ?fuel ~code:codes.(i) w lineages.(i)))
        (Rng.create ~seed) w sets ~eps ~delta ~emit);
  Buffer.contents buf

let stats_body t =
  let s = stats t in
  let w = Udb.wtable t.udb in
  Printf.sprintf
    "db %s\n\
     relations %d wtable-uid %d wtable-gen %d\n\
     cache capacity %d entries %d hits %d misses %d evictions %d\n\
     sessions %d queries %d errors %d dropped %d shed %d reaped %d\n"
    t.config.db_path
    (List.length (Udb.names t.udb))
    (Wtable.uid w) (Wtable.generation w) (Memo.capacity t.cache)
    s.cache.Memo.entries s.cache.Memo.hits s.cache.Memo.misses
    s.cache.Memo.evictions s.sessions s.queries s.errors s.dropped s.shed
    s.reaped

let stop t =
  Atomic.set t.running false;
  (* Wake the accept loop: shutdown on a listening socket makes a blocked
     accept return immediately (EINVAL on Linux), without the fd-reuse race
     a close from another thread would risk. *)
  match t.listen_fd with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
  | None -> ()

(* One request.  [Ok body] becomes an ok reply; raising becomes an err
   reply with the rendered message — sessions survive their own bad
   requests.  Fires ["serve.session"] per request, so chaos runs can
   delay/stall/fail query handling itself (not just the socket I/O around
   it); an injected raise is just another err reply. *)
let dispatch t ?budget ?session spec =
  Faultpoint.fire "serve.session";
  match String.split_on_char ' ' spec |> List.filter (fun s -> s <> "") with
  | [] -> fail "empty request; %s" usage
  | "stats" :: rest ->
      if rest <> [] then fail "stats takes no arguments";
      stats_body t
  | "shutdown" :: rest ->
      if rest <> [] then fail "shutdown takes no arguments";
      stop t;
      "shutting down\n"
  | "assert" :: rest -> (
      let sess =
        match session with
        | Some s -> s
        | None -> fail "assert needs a session (per-connection state)"
      in
      if rest = [] then fail "assert needs a constraint; %s" usage;
      let text = String.concat " " rest in
      let c =
        match Qparser.parse_constraint text with
        | c -> c
        | exception Qparser.Error (msg, pos) ->
            fail "bad constraint (at offset %d): %s" pos msg
      in
      match Cset.add sess.cset c with
      | set ->
          if not (Cset.equal set sess.cset) then begin
            sess.cset <- set;
            sess.compiled <- None
          end;
          Printf.sprintf "asserted; %d active\n" (Cset.cardinal sess.cset)
      | exception Invalid_argument msg -> fail "bad constraint: %s" msg)
  | "retract" :: rest -> (
      if rest <> [] then
        fail "retract takes no arguments (it clears the session's set)";
      match session with
      | Some sess ->
          sess.cset <- Cset.empty;
          sess.compiled <- None;
          "retracted; 0 active\n"
      | None -> fail "retract needs a session (per-connection state)")
  | "conf" :: relation :: args ->
      (match budget with
      | Some b when Budget.exhausted b ->
          fail "session budget exhausted (admission refused)"
      | _ -> ());
      let eps, delta, seed, fuel, q_deadline, q_trials =
        parse_kv ~relation args
      in
      (* A query-level [deadline=]/[trials=] makes its own budget: the
         anytime machinery returns the sound (possibly a-priori) bracket at
         cutoff instead of failing, which is exactly the degraded answer
         the client's --timeout asks for.  Whatever the query spends is
         then charged to the session's allowance too. *)
      let q_budget =
        match (q_deadline, q_trials) with
        | None, None -> budget
        | deadline_s, max_trials ->
            Some (Budget.create ?deadline_s ?max_trials ())
      in
      (* The session's compiled constraint lineage is built on first
         conditioned use, under the engine lock: compilation evaluates the
         member queries against the shared database.  An empty (or absent)
         constraint set takes the legacy path — same code, same cache keys,
         byte-identical replies to a pre-conditioning daemon. *)
      let body =
        with_lock t.engine (fun () ->
            let compiled =
              match session with
              | Some sess when not (Cset.is_empty sess.cset) ->
                  if Option.is_none sess.compiled then
                    sess.compiled <- Some (Condition.compile t.udb sess.cset);
                  sess.compiled
              | _ -> None
            in
            run_conf t ?budget:q_budget ?compiled ~relation ~eps ~delta ~seed
              ~fuel ())
      in
      (match (budget, q_budget) with
      | Some sb, Some qb when sb != qb -> Budget.spend sb (Budget.spent qb)
      | _ -> ());
      body
  | "conf" :: [] -> fail "conf needs a relation name; %s" usage
  | verb :: _ -> fail "unknown request %S; %s" verb usage

(* ------------------------------------------------------------------ *)
(* Sessions.                                                           *)

let bump t f =
  with_lock t.state (fun () -> f t)

(* Session I/O runs directly over the fd ({!Protocol.read_fd}) so deadlines
   actually bite: [io_timeout_s] bounds every frame write (and the greeting),
   [idle_timeout_s] bounds the wait for the next request — a session silent
   longer than that is reaped.  Closing happens under the state lock, paired
   with slot removal, so the watchdog can never shut down a recycled fd. *)
let session t sid fd =
  bump t (fun t -> t.sessions <- t.sessions + 1);
  let sess = new_session () in
  let slot = { sfd = fd; busy_since = 0.; wedged = false } in
  with_lock t.state (fun () -> Hashtbl.replace t.slots sid slot);
  (* Admission control: each session draws conf trials from its own budget,
     sized by the server configuration.  Unconfigured servers pass no
     budget at all — the bit-identical, never-degrading path. *)
  let budget =
    match (t.config.session_trials, t.config.session_deadline_s) with
    | None, None -> None
    | trials, deadline ->
        Some (Budget.create ?max_trials:trials ?deadline_s:deadline ())
  in
  let io = t.config.io_timeout_s in
  let idle =
    match t.config.idle_timeout_s with Some _ as i -> i | None -> io
  in
  let finally () =
    with_lock t.state (fun () ->
        Hashtbl.remove t.slots sid;
        t.active <- t.active - 1;
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
        try Unix.close fd with _ -> ())
  in
  Fun.protect ~finally (fun () ->
      Protocol.write_fd ?timeout_s:io fd
        (Protocol.Hello
           {
             meta = Printf.sprintf "pqdb-serve db=%s" t.config.db_path;
             probe = "serve/1";
             source = None;
           });
      let rec loop () =
        if Atomic.get t.running then
          match Protocol.read_fd ?timeout_s:idle fd with
          | None | Some Protocol.Shutdown -> ()
          | Some (Protocol.Query { id; spec }) ->
              bump t (fun t -> t.queries <- t.queries + 1);
              slot.busy_since <- Unix.gettimeofday ();
              let reply =
                match dispatch t ?budget ~session:sess spec with
                | body -> Protocol.Reply { id; ok = true; body }
                | exception e ->
                    bump t (fun t -> t.errors <- t.errors + 1);
                    let detail =
                      match e with
                      | Failure m -> m
                      | Pqdb_error.Error err -> Pqdb_error.to_string err
                      | e -> Printexc.to_string e
                    in
                    Protocol.Reply { id; ok = false; body = detail }
              in
              if not slot.wedged then begin
                Protocol.write_fd ?timeout_s:io fd reply;
                slot.busy_since <- 0.;
                loop ()
              end
          | Some
              ( Protocol.Hello _ | Protocol.Order _ | Protocol.Outcome _
              | Protocol.Failed _ | Protocol.Lease _ | Protocol.Reply _ ) ->
              (* Out-of-protocol traffic: drop the session. *)
              ()
          | Some Protocol.Heartbeat -> loop ()
      in
      try loop () with
      | Pqdb_error.Error (Pqdb_error.Timeout _) ->
          (* Idle past the allowance, or a peer wedged mid-frame. *)
          bump t (fun t -> t.reaped <- t.reaped + 1)
      | Pqdb_error.Error
          (Pqdb_error.Malformed_input _ | Pqdb_error.Injected _) ->
          (* Torn or corrupt frame: the peer is gone or broken. *)
          bump t (fun t -> t.errors <- t.errors + 1)
      | Sys_error _ | End_of_file | Unix.Unix_error _ -> ())

(* Graceful shedding: over the in-flight limit the daemon still answers —
   one immediate typed busy reply, then the connection is closed.  Sent
   from a throwaway thread with a short deadline so a shed peer that
   refuses to read cannot wedge the accept loop. *)
let shed_session t fd =
  let cap = Option.value ~default:0 t.config.max_sessions in
  ignore
    (Thread.create
       (fun () ->
         (try
            Protocol.write_fd
              ~timeout_s:(Option.value ~default:1.0 t.config.io_timeout_s)
              fd
              (Protocol.Reply
                 {
                   id = -1;
                   ok = false;
                   body =
                     Printf.sprintf
                       "busy: %d sessions in flight (limit); retry with \
                        backoff"
                       cap;
                 })
          with _ -> ());
         (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
         try Unix.close fd with _ -> ())
       ())

(* ------------------------------------------------------------------ *)
(* Accept loop.                                                        *)

(* Is anyone actually home behind this unix socket?  A SIGKILL'd daemon
   cannot unlink its socket, so the path outlives it and a naive bind gets
   EADDRINUSE forever.  The connect-probe disambiguates: ECONNREFUSED
   means the listener is gone (the socket is stale — safe to unlink and
   rebind), a successful connect means a live daemon owns the path (and
   the probe is closed without speaking).  Only [ECONNREFUSED] proves
   staleness; any other outcome is treated as live/unknown and the path
   is left alone. *)
let socket_stale path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let finish r =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    r
  in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> finish false
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> finish true
  | exception _ -> finish false

let bind_listen = function
  | Unix_socket path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } ->
          if socket_stale path then (
            try Unix.unlink path with Unix.Unix_error _ -> ())
          else
            failwith
              (Printf.sprintf
                 "socket %s is owned by a running daemon; stop it first \
                  (or point --socket elsewhere)"
                 path)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      Unix.listen fd 16;
      fd
  | Tcp port ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with e -> Unix.close fd; raise e);
      Unix.listen fd 16;
      fd

let create config =
  if config.cache_entries < 1 then
    invalid_arg "Server.create: cache_entries must be >= 1";
  let positive name = function
    | Some s when s <= 0. ->
        invalid_arg (Printf.sprintf "Server.create: %s must be positive" name)
    | _ -> ()
  in
  positive "io_timeout_s" config.io_timeout_s;
  positive "idle_timeout_s" config.idle_timeout_s;
  positive "watchdog_s" config.watchdog_s;
  (match config.max_sessions with
  | Some n when n < 1 ->
      invalid_arg "Server.create: max_sessions must be >= 1"
  | _ -> ());
  let udb = Udb_io.load config.db_path in
  {
    config;
    udb;
    cache = Memo.create ~entries:config.cache_entries ();
    groups = Hashtbl.create 8;
    engine = Mutex.create ();
    state = Mutex.create ();
    sessions = 0;
    queries = 0;
    errors = 0;
    dropped = 0;
    shed = 0;
    reaped = 0;
    active = 0;
    next_sid = 0;
    slots = Hashtbl.create 16;
    running = Atomic.make true;
    listen_fd = None;
  }

(* Wedged-session watchdog: a request executing longer than [watchdog_s]
   (a stalled fault, a runaway query) gets its socket shut down, which
   unblocks the peer immediately with an EOF; the session thread itself
   notices on its next write.  Runs only when configured. *)
let watchdog t w =
  ignore
    (Thread.create
       (fun () ->
         let period = Float.max 0.01 (Float.min (w /. 2.) 0.25) in
         while Atomic.get t.running do
           Thread.delay period;
           let now = Unix.gettimeofday () in
           with_lock t.state (fun () ->
               Hashtbl.iter
                 (fun _ slot ->
                   if
                     (not slot.wedged)
                     && slot.busy_since > 0.
                     && now -. slot.busy_since > w
                   then begin
                     slot.wedged <- true;
                     t.reaped <- t.reaped + 1;
                     try Unix.shutdown slot.sfd Unix.SHUTDOWN_ALL
                     with _ -> ()
                   end)
                 t.slots)
         done)
       ())

(* How long [run] waits, once the accept loop has stopped, for sessions
   still mid-request — the one answering "shutdown" among them — to write
   their replies before it returns and the daemon may exit. *)
let shutdown_grace_s = 5.

let run ?(ready = fun () -> ()) t =
  (* A peer that hangs up mid-reply must surface as EPIPE in its session
     thread, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = bind_listen t.config.listen in
  t.listen_fd <- Some listen_fd;
  (match t.config.watchdog_s with Some w -> watchdog t w | None -> ());
  ready ();
  let rec accept_loop () =
    if Atomic.get t.running then begin
      (match Unix.accept ~cloexec:true listen_fd with
      | fd, _ -> (
          (* The CI fault matrix arms this site: an injected fault at
             accept drops that one connection and the server carries on —
             the same containment a transient accept-time error gets. *)
          match Faultpoint.fire "serve.accept" with
          | () -> (
              (* Bounded in-flight sessions: claim a slot under the state
                 lock or shed the connection with a typed busy reply. *)
              let admitted =
                with_lock t.state (fun () ->
                    match t.config.max_sessions with
                    | Some cap when t.active >= cap ->
                        t.shed <- t.shed + 1;
                        None
                    | _ ->
                        t.active <- t.active + 1;
                        let sid = t.next_sid in
                        t.next_sid <- sid + 1;
                        Some sid)
              in
              match admitted with
              | Some sid ->
                  ignore (Thread.create (fun () -> session t sid fd) ())
              | None -> shed_session t fd)
          | exception Pqdb_error.Error (Pqdb_error.Injected _) ->
              bump t (fun t -> t.dropped <- t.dropped + 1);
              try Unix.close fd with _ -> ())
      | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _)
        when not (Atomic.get t.running) ->
          (* stop: shutdown on the listening socket woke us. *)
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with _ -> ());
      match t.config.listen with
      | Unix_socket path ->
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    accept_loop;
  let deadline = Unix.gettimeofday () +. shutdown_grace_s in
  (* A session the watchdog reaped never writes its reply: not worth a wait. *)
  let busy () =
    with_lock t.state (fun () ->
        Hashtbl.fold
          (fun _ slot acc -> acc || (slot.busy_since > 0. && not slot.wedged))
          t.slots false)
  in
  while busy () && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  stats t

let serve ?ready config = run ?ready (create config)
