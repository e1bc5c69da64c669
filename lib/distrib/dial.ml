(* Shared dial/backoff policy for every socket client in the tree: the
   serve-layer Client, the coordinator's TCP worker transport, and the
   coordinator's redial loop all back off through this one module, so a
   fleet of reconnecting peers shares one (salted) jitter law instead of
   each layer growing its own.  Host names resolve here too, for dialers
   and the worker's listener alike. *)

(* On Unix an abstract [Unix.file_descr] is the integer fd; the standard
   trick recovers it so a connection attempt can salt its jitter.  Only
   used for mixing, never round-tripped back into a descriptor. *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

(* Capped exponential backoff with deterministic jitter: attempt [k] waits
   [retry_delay_s * 2^k], capped at [max_delay_s], scaled into [0.5, 1.0)
   by a Weyl-sequence fraction of (salt ⊕ attempt) — no RNG state, so two
   runs of the same script back off identically, while distinct
   connections (distinct pids/fds) spread out instead of thundering in
   lockstep.  [salt = 0] reproduces the historical attempt-only jitter. *)
let backoff_delay_s ?(salt = 0) ~retry_delay_s ~max_delay_s k =
  let base = retry_delay_s *. (2. ** float_of_int (min k 20)) in
  let capped = Float.min base max_delay_s in
  let phi = 0.61803398874989479 in
  let mix = (salt lxor (salt lsr 7) lxor (salt lsr 16)) land 0xFFFF in
  let frac = Float.rem (phi *. float_of_int (k + 1 + mix)) 1. in
  capped *. (0.5 +. (0.5 *. frac))

(* The salt the satellite spec names: pid ⊕ fd ⊕ attempt.  The attempt
   index already walks the Weyl sequence, so the salt proper mixes the
   per-process and per-socket parts. *)
let connection_salt fd = Unix.getpid () lxor fd_int fd

let retriable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.ECONNRESET
  | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EINTR ->
      true
  | _ -> false

(* A dotted address as is, otherwise the host's first DNS address. *)
let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
        invalid_arg (Printf.sprintf "no address for host %S" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
        invalid_arg (Printf.sprintf "unknown host %S" host))

(* Dial [addr], retrying refused/absent/unreachable peers with capped
   jittered backoff.  Returns the connected descriptor (close-on-exec). *)
let connect ?(retries = 0) ?(retry_delay_s = 0.2) ?(max_delay_s = 2.0) addr =
  let domain = Unix.domain_of_sockaddr addr in
  let rec attempt k =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) when retriable e && retries - k > 0
      ->
        let salt = connection_salt fd in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf (backoff_delay_s ~salt ~retry_delay_s ~max_delay_s k);
        attempt (k + 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  attempt 0
