let magic = "pqdb-checkpoint/v1"

(* IEEE 802.3 CRC-32, slicing-by-4; hand-rolled so the runtime library
   keeps its no-dependency footprint.  [t0] is the bytewise table; [tk.(n)]
   is the register contribution of byte [n] followed by [k] zero bytes, so
   four bytes read as one little-endian word fold into the register with
   four lookups.  The register is an unboxed [int] holding 32 bits, so the
   loop allocates nothing. *)
type crc_tables = {
  t0 : int array;
  t1 : int array;
  t2 : int array;
  t3 : int array;
}

let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c :=
               if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1)
               else !c lsr 1
           done;
           !c)
     in
     let next t = Array.map (fun c -> t0.(c land 0xFF) lxor (c lsr 8)) t in
     let t1 = next t0 in
     let t2 = next t1 in
     { t0; t1; t2; t3 = next t2 })

let crc32_bytes b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checkpoint.crc32_bytes";
  let { t0; t1; t2; t3 } = Lazy.force crc_tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let words_end = pos + (len land lnot 3) in
  while !i < words_end do
    let x = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    c :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (x lsr 24);
    i := !i + 4
  done;
  for j = words_end to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := Array.unsafe_get t0 ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s =
  Int32.of_int (crc32_bytes (Bytes.unsafe_of_string s) 0 (String.length s))

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

let frame payload = Printf.sprintf "r %s %s" (crc32_hex payload) payload

(* A framed line is "r " ^ 8 hex chars ^ " " ^ payload. *)
let unframe line =
  let n = String.length line in
  if n < 11 || line.[0] <> 'r' || line.[1] <> ' ' || line.[10] <> ' ' then None
  else
    let payload = String.sub line 11 (n - 11) in
    if String.equal (String.sub line 2 8) (crc32_hex payload) then Some payload
    else None

let malformed source detail = Pqdb_error.malformed ~source detail

(* Walk the raw journal text.  Returns the validated payloads (in order) and
   the byte length of the valid prefix — everything past it is a torn tail a
   crash could legitimately have left, safe to truncate away.  Corruption
   strictly before the final line is not crash damage and raises. *)
let validate ~source text =
  let len = String.length text in
  let payloads = ref [] in
  let valid = ref 0 in
  let pos = ref 0 in
  let saw_header = ref false in
  let record = ref 0 in
  (try
     while !pos < len do
       match String.index_from_opt text !pos '\n' with
       | None -> raise Exit (* incomplete final line: torn, drop *)
       | Some nl ->
           let line = String.sub text !pos (nl - !pos) in
           let last = nl + 1 >= len in
           if not !saw_header then
             if String.equal line magic then (
               saw_header := true;
               valid := nl + 1)
             else
               raise
                 (malformed source
                    (Printf.sprintf "bad journal header %S (want %S)" line
                       magic))
           else (
             (match unframe line with
             | Some payload ->
                 payloads := payload :: !payloads;
                 valid := nl + 1
             | None ->
                 if last then raise Exit (* torn/corrupt tail record: drop *)
                 else
                   raise
                     (malformed source
                        (Printf.sprintf
                           "record %d: bad frame or CRC mismatch"
                           (!record + 1))));
             incr record);
           pos := nl + 1
     done
   with Exit -> ());
  (List.rev !payloads, !valid)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path =
  if not (Sys.file_exists path) then []
  else fst (validate ~source:path (read_file path))

type writer = { path : string; fd : Unix.file_descr; mutable oc : out_channel option }

let open_writer ?(resume = false) path =
  let text = if resume && Sys.file_exists path then read_file path else "" in
  let payloads, valid_bytes =
    if text = "" then ([], 0) else validate ~source:path text
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (try
     Unix.ftruncate fd valid_bytes;
     ignore (Unix.lseek fd 0 Unix.SEEK_END)
   with e ->
     Unix.close fd;
     raise e);
  let oc = Unix.out_channel_of_descr fd in
  if valid_bytes = 0 then (
    output_string oc (magic ^ "\n");
    flush oc);
  ({ path; fd; oc = Some oc }, payloads)

let append w payload =
  if String.contains payload '\n' then
    invalid_arg "Checkpoint.append: payload must be newline-free";
  (match Faultpoint.check "checkpoint.write" with
  | None -> ()
  | Some Faultpoint.Torn ->
      (* Simulate a crash mid-record: half the framed line reaches the file
         (flushed, not fsynced) and the writer dies with a typed error.  The
         torn tail is exactly what {!validate} tolerates and truncates on
         resume. *)
      (match w.oc with
      | None -> ()
      | Some oc ->
          let line = frame payload ^ "\n" in
          output_string oc (String.sub line 0 (String.length line / 2));
          flush oc);
      Pqdb_error.error (Pqdb_error.Injected "checkpoint.write")
  | Some m -> Faultpoint.act "checkpoint.write" m);
  match w.oc with
  | None -> failwith (Printf.sprintf "Checkpoint.append: %s is closed" w.path)
  | Some oc ->
      output_string oc (frame payload ^ "\n");
      flush oc;
      Unix.fsync w.fd

let close w =
  match w.oc with
  | None -> ()
  | Some oc ->
      w.oc <- None;
      close_out_noerr oc
