type mode = Raise | Delay of float | Stall | Torn

let known =
  [
    "karp_luby.estimator";
    "pool.task";
    "pool.spawn";
    "udb_io.wtable";
    "udb_binary.load";
    "checkpoint.write";
    "shard.run";
    "distrib.send";
    "distrib.recv";
    "distrib.spawn";
    "distrib.tcp.drop";
    "distrib.tcp.stall";
    "distrib.tcp.dup";
    "serve.accept";
    "serve.session";
  ]

let mode_to_string = function
  | Raise -> "raise"
  | Delay s -> Printf.sprintf "delay:%g" (s *. 1000.)
  | Stall -> "stall"
  | Torn -> "torn"

let mode_of_string spec =
  match spec with
  | "raise" -> Ok Raise
  | "stall" -> Ok Stall
  | "torn" -> Ok Torn
  | _ ->
      let prefix = "delay:" in
      let pl = String.length prefix in
      if
        String.length spec > pl && String.equal (String.sub spec 0 pl) prefix
      then
        match float_of_string_opt (String.sub spec pl (String.length spec - pl)) with
        | Some ms when ms >= 0. && Float.is_finite ms -> Ok (Delay (ms /. 1000.))
        | _ -> Error (Printf.sprintf "bad delay %S (want delay:<ms>)" spec)
      else
        Error
          (Printf.sprintf "unknown mode %S (raise | delay:<ms> | stall | torn)"
             spec)

let table : (string, int * mode) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

(* The hot-path guard: sites check this single atomic before touching the
   table, so an unarmed engine pays one load per instrumented call. *)
let any_armed = Atomic.make false
let env_loaded = ref false

(* Stalled threads poll this generation: any registry mutation (disarm,
   re-arm, reset) bumps it and releases them, so "block until disarmed"
   cannot outlive the test that armed it.  The cap bounds a stall nobody
   ever disarms (an env-armed CI matrix run). *)
let stall_gen = Atomic.make 0
let release_stalls () = Atomic.incr stall_gen
let stall_cap_s = Atomic.make 2.0
let set_stall_cap_s s = if s > 0. then Atomic.set stall_cap_s s

let refresh_flag () = Atomic.set any_armed (Hashtbl.length table > 0)

(* Unknown site names in PQDB_FAULTPOINTS are overwhelmingly typos that
   would otherwise never fire; say so on stderr, once, at first use.  The
   entry is still armed — tests legitimately use synthetic site names. *)
let warned_unknown : (string, unit) Hashtbl.t = Hashtbl.create 4

let warn_unknown name =
  if (not (List.mem name known)) && not (Hashtbl.mem warned_unknown name)
  then begin
    Hashtbl.replace warned_unknown name ();
    Printf.eprintf
      "pqdb: warning: PQDB_FAULTPOINTS names unknown site %S (known: %s)\n%!"
      name
      (String.concat ", " known)
  end

type spec = {
  site : string;
  count : (int option, string) result;
  mode : (mode, string) result;
}

let parse_spec entry =
  (* site[:count][@mode], each part trimmed *)
  let split c s =
    match String.index_opt s c with
    | None -> (String.trim s, None)
    | Some i ->
        ( String.trim (String.sub s 0 i),
          Some (String.trim (String.sub s (i + 1) (String.length s - i - 1))) )
  in
  let base, mode = split '@' entry in
  let site, count = split ':' base in
  {
    site;
    count =
      (match count with
      | None -> Ok None
      | Some c -> (
          match int_of_string_opt c with
          | Some n when n > 0 -> Ok (Some n)
          | _ -> Error (Printf.sprintf "count %S is not a positive integer" c)));
    mode = (match mode with None -> Ok Raise | Some m -> mode_of_string m);
  }

(* A malformed part of an env entry warns and falls back to its default
   (unlimited shots, [raise]) rather than dropping the entry. *)
let load_env () =
  match Sys.getenv_opt "PQDB_FAULTPOINTS" with
  | None | Some "" -> ()
  | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun entry ->
             let entry = String.trim entry in
             if entry <> "" then begin
               let { site; count; mode } = parse_spec entry in
               let or_warn default = function
                 | Ok v -> v
                 | Error msg ->
                     Printf.eprintf
                       "pqdb: warning: PQDB_FAULTPOINTS entry %S: %s\n%!" entry
                       msg;
                     default
               in
               let count = or_warn None count and mode = or_warn Raise mode in
               warn_unknown site;
               Hashtbl.replace table site
                 (Option.value count ~default:max_int, mode)
             end);
      refresh_flag ()

let ensure_env () =
  if not !env_loaded then begin
    env_loaded := true;
    load_env ()
  end

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm ?(count = max_int) ?(mode = Raise) name =
  with_lock (fun () ->
      ensure_env ();
      Hashtbl.replace table name (count, mode);
      refresh_flag ());
  release_stalls ()

let disarm name =
  with_lock (fun () ->
      ensure_env ();
      Hashtbl.remove table name;
      refresh_flag ());
  release_stalls ()

let reset () =
  with_lock (fun () ->
      Hashtbl.reset table;
      load_env ();
      refresh_flag ());
  release_stalls ()

let armed () =
  with_lock (fun () ->
      ensure_env ();
      Hashtbl.fold (fun name _ acc -> name :: acc) table [])

let check name =
  if not (Atomic.get any_armed) && !env_loaded then None
  else
    with_lock (fun () ->
        ensure_env ();
        match Hashtbl.find_opt table name with
        | None -> None
        | Some (n, mode) ->
            if n <= 1 then Hashtbl.remove table name
            else Hashtbl.replace table name (n - 1, mode);
            refresh_flag ();
            Some mode)

let should_fail name = check name <> None

let stall () =
  let g0 = Atomic.get stall_gen in
  let deadline = Unix.gettimeofday () +. Atomic.get stall_cap_s in
  while Atomic.get stall_gen = g0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done

let act name = function
  | Raise | Torn ->
      (* Torn is meaningful only at sites that write frames; everywhere else
         it degrades to the raise behavior, which is still a fault. *)
      Pqdb_error.error (Pqdb_error.Injected name)
  | Delay s -> if s > 0. then Unix.sleepf s
  | Stall -> stall ()

let fire name = match check name with None -> () | Some m -> act name m
