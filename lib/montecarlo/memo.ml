open Pqdb_urel

let default_entries = 256

(* One cached compiled tree.  [tick] is the LRU clock value of its last
   touch. *)
type node = { key : string; tree : Compile.t; mutable tick : int }

type t = {
  lock : Mutex.t;
  cap : int;
  nodes : (string, node) Hashtbl.t;  (* key -> entry *)
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
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

(* Unsigned LEB128: seven bits per byte, the high bit set on all but the
   last.  [lsr] turns a negative int into a nine-byte code, so the
   encoding is injective over all of [int]. *)
let rec add_varint b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint b (n lsr 7)
  end

(* Clause code: for each clause of the canonical lineage (deduplicated,
   subsumption dropped, sorted) its binding count and its (W variable,
   value) pairs in variable order.  A pure function of the clause set, so a
   caller that asks about the same set again can keep its code. *)
let code (l : Lineage.t) =
  let l = (l :> Lineage.packed) in
  let b = Buffer.create 128 and mask = (1 lsl l.bits) - 1 in
  for i = 0 to Array.length l.clauses - 1 do
    let c = l.clauses.(i) in
    add_varint b (Array.length c);
    for t = 0 to Array.length c - 1 do
      add_varint b l.vars.(c.(t) lsr l.bits);
      add_varint b (c.(t) land mask)
    done
  done;
  Buffer.contents b

(* Key bytes: a header of W-table uid, generation, fuel, salt length and
   the salt, then the clause code.  Every field is self-delimiting, so a
   key decodes to exactly one input: keys are equal exactly when the
   inputs are, and no salt content can forge another key's clauses.  The
   salt is the active constraint-set fingerprint under conditioning; an
   empty one is just a zero length. *)
let key ~fuel ~salt w code =
  let b = Buffer.create (32 + String.length salt + String.length code) in
  add_varint b (Wtable.uid w);
  add_varint b (Wtable.generation w);
  add_varint b fuel;
  add_varint b (String.length salt);
  Buffer.add_string b salt;
  Buffer.add_string b code;
  Buffer.contents b

let fuel_of = function Some f -> f | None -> Compile.default_fuel
let salt_of = function Some s -> s | None -> ""

let fingerprint ?fuel ?salt w clauses =
  key ~fuel:(fuel_of fuel) ~salt:(salt_of salt) w (code (Lineage.of_clauses clauses))

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
      Hashtbl.remove t.nodes node.key;
      t.evictions <- t.evictions + 1

let find t ?fuel ?salt ?code:c ?build w lineage =
  let fuel = fuel_of fuel in
  (* Encode outside the lock: it needs no cache state. *)
  let c = match c with Some c -> c | None -> code lineage in
  let key = key ~fuel ~salt:(salt_of salt) w c in
  let cached =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.nodes key with
        | Some node ->
            touch t node;
            t.hits <- t.hits + 1;
            Some node.tree
        | None -> None)
  in
  match cached with
  | Some tree -> tree
  | None ->
      (* Compile outside the lock (it can be seconds of work).  Two threads
         racing on the same cold key both compile; compilation is
         deterministic, so whichever inserts second just replaces an
         identical tree.  A caller-supplied [build] must be a pure function
         of the key's inputs (clauses + salt context) for the same
         reason. *)
      let tree =
        match build with
        | Some f -> f ()
        | None -> Compile.of_lineage ~fuel w lineage
      in
      with_lock t (fun () ->
          t.misses <- t.misses + 1;
          match Hashtbl.find_opt t.nodes key with
          | Some node -> touch t node
          | None ->
              if Hashtbl.length t.nodes >= t.cap then evict_lru t;
              let node = { key; tree; tick = 0 } in
              touch t node;
              Hashtbl.replace t.nodes key node);
      tree

let find_or_compile t ?fuel ?salt ?code ?build w clauses =
  find t ?fuel ?salt ?code ?build w (Lineage.of_clauses clauses)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.nodes;
      })

let clear t = with_lock t (fun () -> Hashtbl.reset t.nodes)
