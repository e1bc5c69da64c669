module Faultpoint = Pqdb_runtime.Faultpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error
module Checkpoint = Pqdb_runtime.Checkpoint

type msg =
  | Hello of {
      meta : string;
      probe : string;
      source : (string * string) option;
    }
  | Order of {
      index : int;
      epoch : int;
      fp : string;
      trials : int option;
      deadline_s : float option;
    }
  | Outcome of { index : int; epoch : int; payload : string }
  | Failed of { index : int; epoch : int; detail : string }
  | Lease of { ttl_s : float }
  | Heartbeat
  | Shutdown
  | Query of { id : int; spec : string }
  | Reply of { id : int; ok : bool; body : string }

(* One-line payloads; the frame supplies length and CRC.  Free-text fields
   (meta, shard payloads, failure details) go last so embedded spaces
   survive; newlines are the only byte the framing reserves, and the only
   free-text producer that could carry one (an exception printer) is
   escaped. *)

let escape s =
  if not (String.contains s '\n') then s
  else
    String.concat "\\n" (String.split_on_char '\n' s)

(* Source fields (a database path + relation name) sit in the middle of the
   hello payload, so they are percent-encoded: '%', space and newline are
   the only bytes that could confuse the space-separated payload or the
   line framing.  "-" marks an absent field ("%2d" is a literal dash).
   One counting pass gives the encoded length; one fill pass writes the
   encoding straight into its destination, a plain blit when no byte needs
   escaping. *)
let pct_length s =
  if s = "" || s = "-" then 3
  else begin
    let escapes = ref 0 in
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '%' | ' ' | '\n' -> incr escapes
      | _ -> ()
    done;
    String.length s + (2 * !escapes)
  end

(* Write the [enc_len]-byte encoding of [s] ({!pct_length}) at [off]. *)
let pct_blit s ~enc_len b off =
  let n = String.length s in
  if s = "" then Bytes.blit_string "%00" 0 b off 3
  else if s = "-" then Bytes.blit_string "%2d" 0 b off 3
  else if enc_len = n then Bytes.blit_string s 0 b off n
  else begin
    let j = ref off in
    let put3 e =
      Bytes.blit_string e 0 b !j 3;
      j := !j + 3
    in
    for i = 0 to n - 1 do
      match String.unsafe_get s i with
      | '%' -> put3 "%25"
      | ' ' -> put3 "%20"
      | '\n' -> put3 "%0a"
      | c ->
          Bytes.unsafe_set b !j c;
          incr j
    done
  end

let pct_encode s =
  let enc_len = pct_length s in
  if enc_len = String.length s then s
  else begin
    let b = Bytes.create enc_len in
    pct_blit s ~enc_len b 0;
    Bytes.unsafe_to_string b
  end

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Decode [s.[pos .. stop-1]]: every '%' must be followed by exactly two
   hex digits.  One validating pass counts the escapes, so the fill pass
   writes into bytes of the exact size. *)
let pct_decode_sub ~badf s pos stop =
  let n = stop - pos in
  let escape_at i =
    if i + 2 >= stop then badf "truncated %-escape";
    let hi = hex_digit s.[i + 1] and lo = hex_digit s.[i + 2] in
    if hi < 0 || lo < 0 then
      badf (Printf.sprintf "bad %%-escape in %S" (String.sub s pos n));
    Char.unsafe_chr ((hi lsl 4) lor lo)
  in
  let escapes = ref 0 in
  let i = ref pos in
  while !i < stop do
    if String.unsafe_get s !i = '%' then begin
      ignore (escape_at !i);
      incr escapes;
      i := !i + 3
    end
    else incr i
  done;
  if n = 3 && s.[pos] = '%' && s.[pos + 1] = '0' && s.[pos + 2] = '0' then ""
  else if !escapes = 0 then String.sub s pos n
  else begin
    let b = Bytes.create (n - (2 * !escapes)) in
    let i = ref pos in
    for j = 0 to Bytes.length b - 1 do
      let c = String.unsafe_get s !i in
      if c = '%' then begin
        Bytes.unsafe_set b j (escape_at !i);
        i := !i + 3
      end
      else begin
        Bytes.unsafe_set b j c;
        incr i
      end
    done;
    Bytes.unsafe_to_string b
  end

let pct_decode ~badf s = pct_decode_sub ~badf s 0 (String.length s)

let source_fields = function
  | None -> "- -"
  | Some (db, rel) ->
      Printf.sprintf "%s %s" (pct_encode db) (pct_encode rel)

(* A payload is a plain head and, for the serve frames, a free-text tail
   that travels percent-encoded: spec and body are free text (the body
   typically multi-line), so the payload stays a single space-separated
   line and decodes byte-exactly. *)
let payload_parts = function
  | Hello { meta; probe; source } ->
      (Printf.sprintf "hello %s %s %s" probe (source_fields source) meta, None)
  | Order { index; epoch; fp; trials; deadline_s } ->
      ( Printf.sprintf "order %d %d %s %s %s" index epoch fp
          (match trials with None -> "-" | Some t -> string_of_int t)
          (match deadline_s with
          | None -> "-"
          | Some d -> Pqdb_numeric.Hexfmt.to_string d),
        None )
  | Outcome { index; epoch; payload } ->
      (Printf.sprintf "outcome %d %d %s" index epoch payload, None)
  | Failed { index; epoch; detail } ->
      (Printf.sprintf "failed %d %d %s" index epoch (escape detail), None)
  | Lease { ttl_s } -> ("lease " ^ Pqdb_numeric.Hexfmt.to_string ttl_s, None)
  | Heartbeat -> ("hb", None)
  | Shutdown -> ("bye", None)
  | Query { id; spec } -> (Printf.sprintf "query %d " id, Some spec)
  | Reply { id; ok; body } ->
      (Printf.sprintf "reply %d %s " id (if ok then "ok" else "err"), Some body)

let bad detail = Pqdb_error.malformed ~source:"distrib-protocol" detail

let split_first s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> bad (Printf.sprintf "%s field %S is not an integer" what s)

let epoch_field what s =
  let e = int_field (what ^ " epoch") s in
  if e < 0 then bad (Printf.sprintf "%s epoch must be non-negative" what);
  e

(* The end of the space-separated field that starts at [pos]. *)
let field_end s pos len =
  let i = ref pos in
  while !i < len && String.unsafe_get s !i <> ' ' do
    incr i
  done;
  !i

(* Parse the first [len] bytes of [s] (a frame buffer: the terminator
   follows).  Tag, id and status are read by index, and a serve frame's
   free-text tail is unescaped from its offset in one exact-size copy; the
   other frames split a copy of the text after the tag. *)
let msg_of_payload s len =
  let tag_end = field_end s 0 len in
  let after = min len (tag_end + 1) in
  let rest = lazy (String.sub s after (len - after)) in
  match String.sub s 0 tag_end with
  | "hello" ->
      let rest = Lazy.force rest in
      let probe, rest = split_first rest in
      let db, rest = split_first rest in
      let rel, meta = split_first rest in
      if probe = "" || db = "" || rel = "" then
        bad "hello frame missing probe or source fields";
      let source =
        match (db, rel) with
        | "-", "-" -> None
        | "-", _ | _, "-" -> bad "hello frame with a half-specified source"
        | db, rel -> Some (pct_decode ~badf:bad db, pct_decode ~badf:bad rel)
      in
      Hello { meta; probe; source }
  | "order" -> (
      let rest = Lazy.force rest in
      match String.split_on_char ' ' rest with
      | [ index; epoch; fp; trials; deadline ] ->
          let trials =
            if trials = "-" then None else Some (int_field "order trials" trials)
          in
          let deadline_s =
            if deadline = "-" then None
            else
              match float_of_string_opt deadline with
              | Some d -> Some d
              | None -> bad (Printf.sprintf "order deadline %S is not a float" deadline)
          in
          (match trials with
          | Some t when t < 0 -> bad "order trials must be non-negative"
          | _ -> ());
          Order
            {
              index = int_field "order index" index;
              epoch = epoch_field "order" epoch;
              fp;
              trials;
              deadline_s;
            }
      | _ -> bad (Printf.sprintf "order frame has wrong arity: %S" rest))
  | "outcome" ->
      let index, rest = split_first (Lazy.force rest) in
      let epoch, payload = split_first rest in
      Outcome
        {
          index = int_field "outcome index" index;
          epoch = epoch_field "outcome" epoch;
          payload;
        }
  | "failed" ->
      let index, rest = split_first (Lazy.force rest) in
      let epoch, detail = split_first rest in
      Failed
        {
          index = int_field "failed index" index;
          epoch = epoch_field "failed" epoch;
          detail;
        }
  | "lease" -> (
      let rest = Lazy.force rest in
      match float_of_string_opt rest with
      | Some t when t > 0. && Float.is_finite t -> Lease { ttl_s = t }
      | _ -> bad (Printf.sprintf "lease ttl %S is not a positive float" rest))
  | "hb" -> Heartbeat
  | "bye" -> Shutdown
  | "query" ->
      let id_end = field_end s after len in
      let spec = id_end + 1 in
      if spec >= len then bad "query frame missing spec";
      Query
        {
          id = int_field "query id" (String.sub s after (id_end - after));
          spec = pct_decode_sub ~badf:bad s spec len;
        }
  | "reply" -> (
      let id_end = field_end s after len in
      let st = min len (id_end + 1) in
      let st_end = field_end s st len in
      match String.sub s st (st_end - st) with
      | ("ok" | "err") as status ->
          let body = st_end + 1 in
          if body >= len then bad "reply frame missing body";
          Reply
            {
              id = int_field "reply id" (String.sub s after (id_end - after));
              ok = status = "ok";
              body = pct_decode_sub ~badf:bad s body len;
            }
      | st -> bad (Printf.sprintf "reply status must be ok|err, got %S" st))
  | tag -> bad (Printf.sprintf "unknown frame tag %S" tag)

(* Frame: "f <8-hex payload length> <8-hex CRC-32 of payload> <payload>\n".
   Fixed-width header so the reader can consume it with exact-length reads
   and tell a clean EOF (nothing after a frame boundary) from a torn one. *)

let header_len = 20 (* "f " + 8 hex + " " + 8 hex + " " *)

(* Digit [k] (0 = most significant) of [v] as eight lower-case hex digits,
   the way the header prints the length and the CRC. *)
let hex8_digit v k = "0123456789abcdef".[(v lsr (28 - (4 * k))) land 0xF]

let put_hex8 b off v =
  for k = 0 to 7 do
    Bytes.set b (off + k) (hex8_digit v k)
  done

(* One exact-size buffer: the payload is written (its free-text tail
   escaped in place) behind room for the header, then the header's length
   and CRC go in front of it. *)
let encode msg =
  let head, tail = payload_parts msg in
  let hlen = String.length head in
  let tlen = match tail with None -> 0 | Some t -> pct_length t in
  let len = hlen + tlen in
  if len > 0xFFFF_FFFF then invalid_arg "Protocol.encode: payload over 4 GiB";
  let b = Bytes.create (header_len + len + 1) in
  Bytes.blit_string head 0 b header_len hlen;
  Option.iter (fun t -> pct_blit t ~enc_len:tlen b (header_len + hlen)) tail;
  Bytes.set b (header_len + len) '\n';
  Bytes.blit_string "f " 0 b 0 2;
  put_hex8 b 2 len;
  Bytes.set b 10 ' ';
  put_hex8 b 11 (Checkpoint.crc32_bytes b header_len len);
  Bytes.set b 19 ' ';
  Bytes.unsafe_to_string b

(* [payload] holds the payload's [len] bytes, then the terminator. *)
let decode_frame ~header ~payload ~len =
  if String.length header <> header_len
     || header.[0] <> 'f' || header.[1] <> ' '
     || header.[10] <> ' ' || header.[19] <> ' '
  then bad "corrupt frame header";
  let crc = Checkpoint.crc32_bytes (Bytes.unsafe_of_string payload) 0 len in
  for k = 0 to 7 do
    if header.[11 + k] <> hex8_digit crc k then
      bad "frame CRC mismatch"
  done;
  msg_of_payload payload len

(* Exactly eight hex digits: [int_of_string] would also take '_'. *)
let decode_header_len header =
  if String.length header <> header_len || header.[0] <> 'f' || header.[1] <> ' '
  then bad "corrupt frame header";
  let n = ref 0 in
  for k = 2 to 9 do
    let d = hex_digit header.[k] in
    if d < 0 then bad "corrupt frame length";
    n := (!n lsl 4) lor d
  done;
  !n

(* Behavioral send faults.  [Torn] is implemented here — the peer sees a
   truncated frame (which its reader surfaces as the usual typed
   [Malformed_input]) and the sender dies with [Injected], exactly like a
   crash mid-write.  Other modes delegate to [Faultpoint.act]. *)
let send_fault emit =
  match Faultpoint.check "distrib.send" with
  | None -> ()
  | Some Faultpoint.Torn ->
      emit ();
      Pqdb_error.error (Pqdb_error.Injected "distrib.send")
  | Some m -> Faultpoint.act "distrib.send" m

let torn_prefix frame = String.sub frame 0 (max 1 (String.length frame / 2))

(* Raw-fd transport with select-based deadlines.

   Buffered channels make deadlines unreliable (bytes can sit in the
   channel's buffer where [select] cannot see them), so the serve daemon,
   its client and the coordinator's transports speak frames directly over
   the file descriptor: exact-length reads, each byte guarded by [select]
   against the one deadline set when the call started.  Works on sockets
   and pipes alike — pipes do not honor [SO_RCVTIMEO], which is why this
   is select-based.  No buffering state means an fd can be handed between
   these functions freely. *)

type deadline = float option (* absolute, Unix.gettimeofday scale *)

let deadline_of timeout_s : deadline =
  Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s

let wait_io ~site ~(deadline : deadline) ~for_read fd =
  match deadline with
  | None -> ()
  | Some d ->
      let rec go () =
        let remaining = d -. Unix.gettimeofday () in
        if remaining <= 0. then
          Pqdb_error.error
            (Pqdb_error.Timeout { site; seconds = remaining })
        else
          let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
          match Unix.select r w [] remaining with
          | [], [], _ -> go ()
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()

(* One [Timeout] per call carries the caller's timeout, not the residue. *)
let timeout_err ~site timeout_s =
  Pqdb_error.error
    (Pqdb_error.Timeout
       { site; seconds = (match timeout_s with Some s -> s | None -> 0.) })

let read_exact ~site ~timeout_s ~deadline fd buf off len =
  let rec go off len =
    if len > 0 then begin
      (try wait_io ~site ~deadline ~for_read:true fd
       with Pqdb_error.Error (Pqdb_error.Timeout _) ->
         timeout_err ~site timeout_s);
      match Unix.read fd buf off len with
      | 0 -> raise End_of_file
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
          go off len
    end
  in
  go off len

let write_all ~site ~timeout_s ~deadline fd s =
  let rec go off len =
    if len > 0 then begin
      (try wait_io ~site ~deadline ~for_read:false fd
       with Pqdb_error.Error (Pqdb_error.Timeout _) ->
         timeout_err ~site timeout_s);
      match Unix.write_substring fd s off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
          go off len
    end
  in
  go 0 (String.length s)

let write_fd ?timeout_s fd msg =
  let site = "distrib.send" in
  let deadline = deadline_of timeout_s in
  let frame = encode msg in
  send_fault (fun () ->
      write_all ~site ~timeout_s ~deadline fd (torn_prefix frame));
  write_all ~site ~timeout_s ~deadline fd frame

let read_fd_rest ~site ~timeout_s ~deadline fd header =
  (try read_exact ~site ~timeout_s ~deadline fd header 1 (header_len - 1)
   with End_of_file -> bad "truncated frame header");
  let header = Bytes.to_string header in
  let len = decode_header_len header in
  let payload = Bytes.create (len + 1) in
  (try read_exact ~site ~timeout_s ~deadline fd payload 0 (len + 1)
   with End_of_file -> bad "truncated frame payload");
  if Bytes.get payload len <> '\n' then bad "frame missing terminator";
  (* Read-only from here on. *)
  Some (decode_frame ~header ~payload:(Bytes.unsafe_to_string payload) ~len)

let read_fd ?timeout_s fd =
  let site = "distrib.recv" in
  Faultpoint.fire site;
  let deadline = deadline_of timeout_s in
  let header = Bytes.create header_len in
  (* Clean EOF only before the first header byte; after that a whole frame
     is owed, and EOF or an expired deadline mid-frame is a fault. *)
  match read_exact ~site ~timeout_s ~deadline fd header 0 1 with
  | exception End_of_file -> None
  | () -> read_fd_rest ~site ~timeout_s ~deadline fd header

(* Frame-boundary patience, mid-frame deadline.  A peer that is merely
   quiet (an idle worker waiting for its next order) is normal and may stay
   quiet forever; a peer that starts a frame and stops — a torn write, a
   crash mid-frame — must not wedge the reader.  So the wait for the first
   header byte is unbounded, and [timeout_s] starts once it arrives. *)
let read_fd_frame ?timeout_s fd =
  let site = "distrib.recv" in
  Faultpoint.fire site;
  let header = Bytes.create header_len in
  match
    read_exact ~site ~timeout_s:None ~deadline:None fd header 0 1
  with
  | exception End_of_file -> None
  | () ->
      read_fd_rest ~site ~timeout_s ~deadline:(deadline_of timeout_s) fd
        header

(* Network fault wrappers for the remote-worker path.  Three sites model
   the failure modes a TCP link adds over a pipe to a child process:

   - ["distrib.tcp.drop"]: the connection dies under us — the socket is
     shut down (so the peer sees EOF/RST, exactly like a yanked cable)
     and the caller gets [Injected].
   - ["distrib.tcp.stall"]: a half-open link — armed [stall] blocks the
     I/O until the registry releases it (bounded by the stall cap), long
     enough for a lease to expire while the socket still "looks" alive.
   - ["distrib.tcp.dup"]: the frame is delivered twice — models a
     retransmit-after-timeout duplication; receivers must be idempotent.

   The wrappers compose with the plain ["distrib.send"]/["distrib.recv"]
   sites, which still fire inside the underlying calls. *)

let tcp_fault fd =
  if Faultpoint.should_fail "distrib.tcp.drop" then begin
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Pqdb_error.error (Pqdb_error.Injected "distrib.tcp.drop")
  end;
  Faultpoint.fire "distrib.tcp.stall"

let tcp_write_fd ?timeout_s fd msg =
  tcp_fault fd;
  if Faultpoint.check "distrib.tcp.dup" <> None then
    write_fd ?timeout_s fd msg;
  write_fd ?timeout_s fd msg

let tcp_read_fd ?timeout_s fd =
  tcp_fault fd;
  read_fd ?timeout_s fd

let tcp_read_fd_frame ?timeout_s fd =
  tcp_fault fd;
  read_fd_frame ?timeout_s fd
