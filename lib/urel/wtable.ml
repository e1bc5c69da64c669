open Pqdb_numeric
open Pqdb_relational

type var = int

type entry = {
  var_name : string;
  dist : Rational.t array;
  dist_float : float array;
  mutable alias : Rng.Alias.dist option;  (* lazily built O(1) sampler *)
}

type t = {
  mutable entries : entry array;
  mutable count : int;
  uid : int;  (* distinct per instance, for cache keys *)
  mutable gen : int;  (* bumped on every mutation, for cache invalidation *)
}

(* Process-unique instance ids: two W tables never share a uid, so a cache
   key built from (uid, gen) can never confuse tables — even a copy gets a
   fresh identity (the two diverge on their next add_var, and a key must not
   outlive that). *)
let next_uid = Atomic.make 0

let create () =
  { entries = [||]; count = 0; uid = Atomic.fetch_and_add next_uid 1; gen = 0 }

let reject detail =
  Pqdb_runtime.Pqdb_error.invalid_probability ~context:"Wtable.add_var" detail

let add_var ?name t dist =
  let dist = Array.of_list dist in
  if Array.length dist = 0 then reject "empty distribution";
  Array.iter
    (fun p ->
      if Rational.sign p <= 0 then reject "probabilities must be positive";
      if Rational.compare p Rational.one > 0 then
        reject "probabilities must be at most 1")
    dist;
  let total = Array.fold_left Rational.add Rational.zero dist in
  if not (Rational.equal total Rational.one) then
    reject "probabilities must sum to 1";
  let id = t.count in
  let var_name =
    match name with Some n -> n | None -> "x" ^ string_of_int id
  in
  let entry =
    {
      var_name;
      dist;
      dist_float = Array.map Rational.to_float dist;
      alias = None;
    }
  in
  if id >= Array.length t.entries then begin
    let capacity = max 8 (2 * Array.length t.entries) in
    let entries = Array.make capacity entry in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(id) <- entry;
  t.count <- id + 1;
  t.gen <- t.gen + 1;
  id

(* The entries were checked when they were added and nothing mutates their
   distributions, so a copy shares them: fresh records (the alias cache is
   per table) holding the same arrays and any sampler already built — a
   sampler is a deterministic function of [dist_float], immutable once
   built. *)
let copy t =
  {
    entries =
      Array.init t.count (fun v ->
          let e = t.entries.(v) in
          {
            var_name = e.var_name;
            dist = e.dist;
            dist_float = e.dist_float;
            alias = e.alias;
          });
    count = t.count;
    uid = Atomic.fetch_and_add next_uid 1;
    gen = t.gen;
  }

let uid t = t.uid
let generation t = t.gen
let var_count t = t.count
let vars t = List.init t.count Fun.id

let entry t v =
  if v < 0 || v >= t.count then invalid_arg "Wtable: unknown variable"
  else t.entries.(v)

let name t v = (entry t v).var_name
let domain_size t v = Array.length (entry t v).dist

let prob t v x =
  let e = entry t v in
  if x < 0 || x >= Array.length e.dist then
    invalid_arg "Wtable.prob: value out of domain"
  else e.dist.(x)

let prob_float t v x =
  let e = entry t v in
  if x < 0 || x >= Array.length e.dist_float then
    invalid_arg "Wtable.prob_float: value out of domain"
  else e.dist_float.(x)

let alias t v =
  let e = entry t v in
  match e.alias with
  | Some a -> a
  | None ->
      let a = Rng.Alias.of_weights e.dist_float in
      e.alias <- Some a;
      a

let world_count t =
  let rec go acc v = if v >= t.count then acc else go (acc * domain_size t v) (v + 1) in
  go 1 0

let to_relation t =
  let rows = ref [] in
  for v = t.count - 1 downto 0 do
    let e = t.entries.(v) in
    for x = Array.length e.dist - 1 downto 0 do
      rows :=
        [ Value.Str e.var_name; Value.Int x; Value.Rat e.dist.(x) ] :: !rows
    done
  done;
  Relation.of_rows [ "Var"; "Dom"; "P" ] !rows

let pp fmt t = Relation.pp fmt (to_relation t)
