module Protocol = Pqdb_distrib.Protocol
module Dial = Pqdb_distrib.Dial
module Pqdb_error = Pqdb_runtime.Pqdb_error

type t = {
  fd : Unix.file_descr;
  greeting : string;
  mutable next_id : int;
  io_timeout_s : float option;
}

let sockaddr_of = function
  | Server.Unix_socket path -> Unix.ADDR_UNIX path
  | Server.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let domain_of = function
  | Server.Unix_socket _ -> Unix.PF_UNIX
  | Server.Tcp _ -> Unix.PF_INET

let is_busy body =
  String.length body >= 5 && String.equal (String.sub body 0 5) "busy:"

(* Retries make `pqdb query` usable the moment the daemon is forked
   (ECONNREFUSED / ENOENT just mean the socket is not bound yet) and let a
   shed client wait out an overloaded daemon: a busy reply in place of the
   greeting also burns one retry, after backoff. *)
let connect ?(retries = 0) ?(retry_delay_s = 0.2) ?(max_delay_s = 2.0)
    ?io_timeout_s addr =
  (* A daemon that stops between our frames must surface as EPIPE, not
     SIGPIPE-kill the client. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec attempt k =
    let left = retries - k in
    let fd = Unix.socket ~cloexec:true (domain_of addr) Unix.SOCK_STREAM 0 in
    (* Salt read before [drop] — a closed fd's number may be reused. *)
    let salt = Dial.connection_salt fd in
    let retry e =
      if left > 0 then begin
        Unix.sleepf (Dial.backoff_delay_s ~salt ~retry_delay_s ~max_delay_s k);
        attempt (k + 1)
      end
      else raise e
    in
    let drop () = try Unix.close fd with _ -> () in
    match Unix.connect fd (sockaddr_of addr) with
    | () -> (
        match Protocol.read_fd ?timeout_s:io_timeout_s fd with
        | Some (Protocol.Hello { meta; _ }) ->
            { fd; greeting = meta; next_id = 0; io_timeout_s }
        | Some (Protocol.Reply { ok = false; body; _ }) when is_busy body ->
            (* Shed at the in-flight cap: typed, and worth backing off
               for — the daemon is alive, just full. *)
            drop ();
            retry
              (Pqdb_error.Error
                 (Pqdb_error.Busy { site = "pqdb-serve"; detail = body }))
        | _ ->
            drop ();
            Pqdb_error.malformed ~source:"pqdb-serve-client"
              "server did not greet with a hello frame"
        | exception (Pqdb_error.Error (Pqdb_error.Timeout _) as e) ->
            drop ();
            retry e)
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when left > 0 ->
        drop ();
        Unix.sleepf (Dial.backoff_delay_s ~salt ~retry_delay_s ~max_delay_s k);
        attempt (k + 1)
    | exception e ->
        drop ();
        raise e
  in
  attempt 0

let greeting t = t.greeting

let gone detail =
  Pqdb_error.malformed ~source:"pqdb-serve-client" detail

let query ?timeout_s t spec =
  let timeout_s =
    match timeout_s with Some _ as s -> s | None -> t.io_timeout_s
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  (* The whole round trip shares one deadline; a server wedged mid-reply
     surfaces as a typed [Timeout] rather than a hang.  Connection-level
     failures (reset, EOF mid-frame) come back typed too, so callers only
     ever see [Pqdb_error]. *)
  match
    Protocol.write_fd ?timeout_s t.fd (Protocol.Query { id; spec });
    let rec await () =
      match Protocol.read_fd ?timeout_s t.fd with
      | Some (Protocol.Reply { id = rid; ok; body }) when rid = id ->
          if (not ok) && is_busy body then
            Pqdb_error.error
              (Pqdb_error.Busy { site = "pqdb-serve"; detail = body })
          else (ok, body)
      | Some _ -> await ()
      | None -> gone "server closed the connection before replying"
    in
    await ()
  with
  | r -> r
  | exception (Pqdb_error.Error _ as e) -> raise e
  | exception End_of_file ->
      gone "server closed the connection before replying"
  | exception Unix.Unix_error (e, _, _) ->
      gone
        (Printf.sprintf "connection lost mid-query: %s" (Unix.error_message e))
  | exception Sys_error m ->
      gone (Printf.sprintf "connection lost mid-query: %s" m)

let close t =
  (try Protocol.write_fd ?timeout_s:t.io_timeout_s t.fd Protocol.Shutdown
   with _ -> ());
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close t.fd with _ -> ()
