open Pqdb_urel

let default_entries = 256

(* One cached compiled tree.  [tick] is the LRU clock value of its last
   touch; [raw_keys] are the alias keys pointing at it, removed with it on
   eviction so the alias table cannot hold dangling references. *)
type node = {
  ckey : string;
  tree : Compile.t;
  mutable tick : int;
  mutable raw_keys : string list;
}

type t = {
  lock : Mutex.t;
  cap : int;
  nodes : (string, node) Hashtbl.t;  (* canonical key -> entry *)
  aliases : (string, string) Hashtbl.t;  (* raw key -> canonical key *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(entries = default_entries) () =
  if entries < 1 then invalid_arg "Memo.create: entries must be >= 1";
  {
    lock = Mutex.create ();
    cap = entries;
    nodes = Hashtbl.create (min entries 64);
    aliases = Hashtbl.create (min entries 64);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

(* Key syntax: "<level>:w<uid>:g<gen>:f<fuel>[:a<len>[<salt>]]:<clauses>"
   with clauses in the canonical D-column syntax, '|'-separated.  The level
   prefix keeps the raw and canonical namespaces from ever colliding (a raw
   key equal to some canonical key would otherwise alias the wrong entry).
   The salt segment — the active constraint-set fingerprint under
   conditioning — is length-prefixed so no salt content can forge another
   key's clause section, and elided entirely when empty so unconditioned
   keys are unchanged. *)
let key_of ~level ~fuel ~salt w rendered =
  let salt_seg =
    if salt = "" then ""
    else Printf.sprintf ":a%d[%s]" (String.length salt) salt
  in
  Printf.sprintf "%c:w%d:g%d:f%d%s:%s" level (Wtable.uid w)
    (Wtable.generation w) fuel salt_seg
    (String.concat "|" rendered)

let fuel_of = function Some f -> f | None -> Compile.default_fuel
let salt_of = function Some s -> s | None -> ""

(* The raw key sorts and dedups the clause renderings itself — cheaper than
   normalization (no subsumption pass) and enough to collapse permuted and
   duplicated clause lists. *)
let raw_key ~fuel ~salt w clauses =
  key_of ~level:'r' ~fuel ~salt w
    (List.sort_uniq String.compare
       (List.map Udb_io.condition_to_string clauses))

(* Lineage.normalize returns its clauses deduplicated and sorted by
   Assignment.compare, so rendering in list order is already canonical. *)
let canonical_key ~fuel ~salt w clauses =
  key_of ~level:'c' ~fuel ~salt w
    (List.map Udb_io.condition_to_string (Lineage.normalize clauses))

let fingerprint ?fuel ?salt w clauses =
  canonical_key ~fuel:(fuel_of fuel) ~salt:(salt_of salt) w clauses

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t node =
  t.clock <- t.clock + 1;
  node.tick <- t.clock

(* O(entries) scan for the oldest tick; runs only on an over-capacity
   insert, and the cap is small (hundreds), so a linked list would buy
   nothing measurable here. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ node best ->
        match best with
        | Some b when b.tick <= node.tick -> best
        | _ -> Some node)
      t.nodes None
  in
  match victim with
  | None -> ()
  | Some node ->
      Hashtbl.remove t.nodes node.ckey;
      List.iter (Hashtbl.remove t.aliases) node.raw_keys;
      t.evictions <- t.evictions + 1

(* Alias-table bound: raw keys accumulate one per distinct non-normalized
   spelling of a cached set.  Past 4x the entry cap we flush the whole
   table — subsequent lookups re-alias through the canonical key, so the
   only cost is one normalization per live spelling. *)
let prune_aliases t =
  if Hashtbl.length t.aliases > 4 * t.cap then begin
    Hashtbl.reset t.aliases;
    Hashtbl.iter (fun _ node -> node.raw_keys <- []) t.nodes
  end

let add_alias t node raw =
  if not (List.mem raw node.raw_keys) then begin
    prune_aliases t;
    Hashtbl.replace t.aliases raw node.ckey;
    node.raw_keys <- raw :: node.raw_keys
  end

let find_or_compile t ?fuel ?salt ?build w clauses =
  let fuel = fuel_of fuel in
  let salt = salt_of salt in
  let raw = raw_key ~fuel ~salt w clauses in
  let fast =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.aliases raw with
        | Some ckey -> (
            match Hashtbl.find_opt t.nodes ckey with
            | Some node ->
                touch t node;
                t.hits <- t.hits + 1;
                Some node.tree
            | None ->
                (* Dangling alias (entry evicted out from under it, which
                   eviction prevents — but self-heal rather than trust). *)
                Hashtbl.remove t.aliases raw;
                None)
        | None -> None)
  in
  match fast with
  | Some tree -> tree
  | None -> (
      (* Normalize outside the lock: the subsumption pass is the expensive
         part of a canonical-key lookup and needs no cache state. *)
      let ckey = canonical_key ~fuel ~salt w clauses in
      let cached =
        with_lock t (fun () ->
            match Hashtbl.find_opt t.nodes ckey with
            | Some node ->
                touch t node;
                t.hits <- t.hits + 1;
                add_alias t node raw;
                Some node.tree
            | None -> None)
      in
      match cached with
      | Some tree -> tree
      | None ->
          (* Compile outside the lock (it can be seconds of work).  Two
             threads racing on the same cold key both compile; compilation
             is deterministic, so whichever inserts second just replaces an
             identical tree.  A caller-supplied [build] must be a pure
             function of the key's inputs (clauses + salt context) for the
             same reason. *)
          let tree =
            match build with
            | Some f -> f ()
            | None -> Compile.compile ~fuel w clauses
          in
          with_lock t (fun () ->
              t.misses <- t.misses + 1;
              (match Hashtbl.find_opt t.nodes ckey with
              | Some node -> touch t node; add_alias t node raw
              | None ->
                  if Hashtbl.length t.nodes >= t.cap then evict_lru t;
                  let node = { ckey; tree; tick = 0; raw_keys = [] } in
                  touch t node;
                  Hashtbl.replace t.nodes ckey node;
                  add_alias t node raw));
          tree)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.nodes;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.nodes;
      Hashtbl.reset t.aliases)
