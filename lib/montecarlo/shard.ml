open Pqdb_numeric
open Pqdb_urel
module Checkpoint = Pqdb_runtime.Checkpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error

type t = { index : int; first : int; count : int; cost : int }

(* [log (2/δ)] and [ε²] are taken once per (ε, δ).  The count keeps
   {!Stats.karp_luby_trials}' order, [(3·m)·log(2/δ)/ε²], bit for bit. *)
let tuple_cost ~eps ~delta =
  if eps <= 0. || delta <= 0. then
    invalid_arg "Shard.tuple_cost: eps and delta must be positive";
  let l = log (2. /. delta) and e2 = eps *. eps in
  let rec scan m = function
    | [] ->
        Stats.saturating_add 1
          (Stats.count_of_float (3. *. float_of_int m *. l /. e2))
    | c :: rest -> if Assignment.is_empty c then 1 else scan (m + 1) rest
  in
  scan 0

let plan ~eps ~delta ~max_cost clause_sets =
  if max_cost < 1 then invalid_arg "Shard.plan: max_cost must be >= 1";
  let tuple_cost = tuple_cost ~eps ~delta in
  let n = Array.length clause_sets in
  let shards = ref [] in
  let nshards = ref 0 in
  let first = ref 0 in
  let count = ref 0 in
  let cost = ref 0 in
  let flush () =
    if !count > 0 then begin
      shards :=
        { index = !nshards; first = !first; count = !count; cost = !cost }
        :: !shards;
      incr nshards;
      first := !first + !count;
      count := 0;
      cost := 0
    end
  in
  for i = 0 to n - 1 do
    let c = tuple_cost clause_sets.(i) in
    if !count > 0 && Stats.saturating_add !cost c > max_cost then flush ();
    incr count;
    cost := Stats.saturating_add !cost c
  done;
  flush ();
  Array.of_list (List.rev !shards)

let fingerprint clause_sets sh =
  let buf = Buffer.create 256 in
  for i = sh.first to sh.first + sh.count - 1 do
    List.iter
      (fun a ->
        Buffer.add_string buf (Udb_io.condition_to_string a);
        Buffer.add_char buf '|')
      clause_sets.(i);
    Buffer.add_char buf '/'
  done;
  Checkpoint.crc32_hex (Buffer.contents buf)

type outcome = {
  shard : t;
  fp : string;
  estimates : float array;
  intervals : (float * float) array;
  trials : int array;
  achieved : float array;
  masses : float array;
  complete : bool;
  resumed : bool;
  quarantined : Pqdb_error.t option;
}

(* --- serialization ------------------------------------------------------ *)

let add_batch_line buf i est lo hi trials =
  Hexfmt.add_int buf i;
  Buffer.add_char buf ' ';
  Hexfmt.add_float buf est;
  Buffer.add_char buf ' ';
  Hexfmt.add_float buf lo;
  Buffer.add_char buf ' ';
  Hexfmt.add_float buf hi;
  Buffer.add_char buf ' ';
  Hexfmt.add_int buf trials;
  Buffer.add_char buf '\n'

let add_outcome buf o =
  Array.iteri
    (fun j est ->
      let lo, hi = o.intervals.(j) in
      add_batch_line buf (o.shard.first + j) est lo hi o.trials.(j))
    o.estimates

let csv add a =
  let buf = Buffer.create (24 * Array.length a) in
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    a;
  Buffer.contents buf

let floats_csv = csv Hexfmt.add_float
let ints_csv = csv Hexfmt.add_int

let to_payload o =
  if o.quarantined <> None then
    invalid_arg "Shard.to_payload: quarantined outcomes are never journaled";
  let lo = Array.map fst o.intervals and hi = Array.map snd o.intervals in
  Printf.sprintf
    "shard=%d first=%d count=%d cost=%d fp=%s complete=%d est=%s lo=%s \
     hi=%s tr=%s ae=%s ms=%s"
    o.shard.index o.shard.first o.shard.count o.shard.cost o.fp
    (if o.complete then 1 else 0)
    (floats_csv o.estimates) (floats_csv lo) (floats_csv hi)
    (ints_csv o.trials) (floats_csv o.achieved) (floats_csv o.masses)

let of_payload ?(resumed = true) ~source ~record s =
  let fail detail =
    Pqdb_error.malformed ~source (Printf.sprintf "record %d: %s" record detail)
  in
  let kv tok =
    match String.index_opt tok '=' with
    | Some i ->
        (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
    | None -> fail (Printf.sprintf "bad field %S" tok)
  in
  let fields =
    String.split_on_char ' ' s
    |> List.filter (fun t -> t <> "")
    |> List.map kv
  in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> fail ("missing field " ^ k)
  in
  let int_field k =
    match int_of_string_opt (get k) with
    | Some i -> i
    | None -> fail (Printf.sprintf "field %s: not an integer (%S)" k (get k))
  in
  let float_array k n =
    let parts = String.split_on_char ',' (get k) in
    if List.length parts <> n then
      fail (Printf.sprintf "field %s: expected %d values" k n);
    Array.of_list
      (List.map
         (fun v ->
           match float_of_string_opt v with
           | Some f -> f
           | None -> fail (Printf.sprintf "field %s: bad float %S" k v))
         parts)
  in
  let int_array k n =
    let parts = String.split_on_char ',' (get k) in
    if List.length parts <> n then
      fail (Printf.sprintf "field %s: expected %d values" k n);
    Array.of_list
      (List.map
         (fun v ->
           match int_of_string_opt v with
           | Some i -> i
           | None -> fail (Printf.sprintf "field %s: bad integer %S" k v))
         parts)
  in
  let index = int_field "shard" in
  let first = int_field "first" in
  let count = int_field "count" in
  let cost = int_field "cost" in
  if index < 0 || first < 0 || count < 1 || cost < 0 then
    fail "negative or empty shard geometry";
  let fp = get "fp" in
  if String.length fp <> 8 then fail "field fp: expected 8 hex digits";
  let complete =
    match int_field "complete" with
    | 0 -> false
    | 1 -> true
    | _ -> fail "field complete: expected 0 or 1"
  in
  let estimates = float_array "est" count in
  let lo = float_array "lo" count in
  let hi = float_array "hi" count in
  let trials = int_array "tr" count in
  let achieved = float_array "ae" count in
  let masses = float_array "ms" count in
  {
    shard = { index; first; count; cost };
    fp;
    estimates;
    intervals = Array.init count (fun i -> (lo.(i), hi.(i)));
    trials;
    achieved;
    masses;
    complete;
    resumed;
    quarantined = None;
  }

let meta_payload ~n ~eps ~delta ~fuel ~shard_cost =
  Printf.sprintf "meta n=%d eps=%s delta=%s fuel=%s shard_cost=%d" n
    (Hexfmt.to_string eps) (Hexfmt.to_string delta)
    (match fuel with None -> "default" | Some f -> string_of_int f)
    shard_cost

let backoff_s ~attempt =
  if attempt <= 0 then 0.
  else Float.min 0.1 (0.005 *. Float.pow 2. (float_of_int (attempt - 1)))

(* --- journal lifecycle -------------------------------------------------- *)

type journal = {
  mutable jw : Checkpoint.writer option;
  mutable ok : bool;
  retries : int;
}

let null_journal () = { jw = None; ok = true; retries = 0 }

let journal_ok j = j.ok
let journal_live j = Option.is_some j.jw

let journal_append j payload =
  match j.jw with
  | None -> ()
  | Some wtr ->
      let rec go attempt =
        match Checkpoint.append wtr payload with
        | () -> ()
        | exception _ ->
            if attempt >= j.retries then begin
              (* Journaling is an aid, not a contract: a persistently
                 failing journal is abandoned and the computation continues
                 (reported via journal_ok). *)
              j.ok <- false;
              j.jw <- None;
              try Checkpoint.close wtr with _ -> ()
            end
            else begin
              Unix.sleepf (backoff_s ~attempt:(attempt + 1));
              go (attempt + 1)
            end
      in
      go 0

let close_journal j =
  match j.jw with
  | None -> ()
  | Some wtr ->
      j.jw <- None;
      Checkpoint.close wtr

(* The one duplicate policy for journal records, shared by resume and
   compaction so a compacted journal resumes exactly like the original:
   identical duplicates (a crash between fsync and the caller's
   bookkeeping can legitimately replay a shard) resolve first-wins;
   conflicting ones are corruption.  [first] sees each shard's first
   record; the result maps every shard index to its payload. *)
let dedup_records ~source ~first records =
  let seen : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun k payload ->
      let record = k + 1 in
      let o = of_payload ~source ~record payload in
      let idx = o.shard.index in
      match Hashtbl.find_opt seen idx with
      | Some prev ->
          if not (String.equal prev payload) then
            Pqdb_error.malformed ~source
              (Printf.sprintf "record %d: conflicting duplicate of shard %d"
                 record idx)
      | None ->
          first ~record o;
          Hashtbl.add seen idx payload)
    records;
  seen

let validate_records ~source ~plan ~clause_sets records =
  let resumed : (int, outcome) Hashtbl.t = Hashtbl.create 16 in
  let check ~record o =
    let idx = o.shard.index in
    if idx < 0 || idx >= Array.length plan then
      Pqdb_error.malformed ~source
        (Printf.sprintf "record %d: unknown shard %d" record idx);
    let expected = plan.(idx) in
    if expected.first <> o.shard.first || expected.count <> o.shard.count then
      Pqdb_error.malformed ~source
        (Printf.sprintf "record %d: shard %d geometry does not match the plan"
           record idx);
    if not (String.equal (fingerprint clause_sets expected) o.fp) then
      Pqdb_error.malformed ~source
        (Printf.sprintf
           "record %d: shard %d fingerprint does not match the data" record
           idx);
    Hashtbl.add resumed idx o
  in
  ignore (dedup_records ~source ~first:check records);
  resumed

let open_journal ?(retries = 2) ~resume ~meta ~plan ~clause_sets path =
  let wtr, payloads = Checkpoint.open_writer ~resume path in
  let j = { jw = Some wtr; ok = true; retries } in
  match payloads with
  | [] ->
      journal_append j meta;
      (j, Hashtbl.create 1)
  | stored_meta :: records -> (
      match
        if not (String.equal stored_meta meta) then
          Pqdb_error.malformed ~source:path
            (Printf.sprintf
               "journal parameters do not match this run (journal %S, run %S)"
               stored_meta meta);
        validate_records ~source:path ~plan ~clause_sets records
      with
      | resumed -> (j, resumed)
      | exception e ->
          (try close_journal j with _ -> ());
          raise e)

let compact_journal path =
  match Checkpoint.read path with
  | [] ->
      Pqdb_error.malformed ~source:path
        "cannot compact an empty or missing journal"
  | meta :: records ->
      let tbl =
        dedup_records ~source:path ~first:(fun ~record:_ _ -> ()) records
      in
      let idxs = List.sort compare (Hashtbl.fold (fun i _ a -> i :: a) tbl []) in
      let tmp = path ^ ".compact" in
      let wtr, _ = Checkpoint.open_writer tmp in
      (try
         Checkpoint.append wtr meta;
         List.iter (fun i -> Checkpoint.append wtr (Hashtbl.find tbl i)) idxs;
         Checkpoint.close wtr
       with e ->
         (try Checkpoint.close wtr with _ -> ());
         (try Sys.remove tmp with _ -> ());
         raise e);
      Unix.rename tmp path;
      let kept = 1 + List.length idxs in
      (kept, 1 + List.length records - kept)
