open Pqdb_relational

type row = Assignment.t * Tuple.t

(* Tuple first, then condition: a tuple's clauses are one run of rows. *)
let compare_row (a1, t1) (a2, t2) =
  match Tuple.compare t1 t2 with 0 -> Assignment.compare a1 a2 | c -> c

(* [rows] ascends strictly by [compare_row]. *)
type t = { schema : Schema.t; rows : row array }

let check_arity schema (_, tuple) =
  if Tuple.arity tuple <> Schema.arity schema then
    invalid_arg "Urelation: tuple arity does not match schema"

(* Stably sorts [rows.(lo) .. rows.(hi - 1)] by condition. *)
let sort_conditions rows lo hi =
  let run = Array.sub rows lo (hi - lo) in
  Array.stable_sort (fun (a1, _) (a2, _) -> Assignment.compare a1 a2) run;
  Array.blit run 0 rows lo (hi - lo)

(* Sorts [rows] in place unless they already ascend strictly, keeping the
   first of equal rows.  When the tuples already ascend, only the runs of
   equal tuples are sorted, by condition: the same order as the stable sort
   by [compare_row], which the other rows get. *)
let normalize rows =
  let n = Array.length rows in
  let strict = ref true and tuples_ascend = ref true and i = ref 1 in
  while !tuples_ascend && !i < n do
    let a0, t0 = rows.(!i - 1) and a1, t1 = rows.(!i) in
    let c = Tuple.compare t0 t1 in
    if c > 0 then tuples_ascend := false
    else if c = 0 && Assignment.compare a0 a1 >= 0 then strict := false;
    incr i
  done;
  if !tuples_ascend && !strict then rows
  else begin
    if not !tuples_ascend then Array.stable_sort compare_row rows
    else begin
      let lo = ref 0 in
      for i = 1 to n do
        if i = n || not (Tuple.equal (snd rows.(!lo)) (snd rows.(i))) then begin
          if i - !lo > 1 then sort_conditions rows !lo i;
          lo := i
        end
      done
    end;
    let k = ref 1 in
    for i = 1 to n - 1 do
      if compare_row rows.(!k - 1) rows.(i) <> 0 then begin
        rows.(!k) <- rows.(i);
        incr k
      end
    done;
    if !k = n then rows else Array.sub rows 0 !k
  end

let of_array schema rows =
  Array.iter (check_arity schema) rows;
  { schema; rows = normalize rows }

let make schema rows = of_array schema (Array.of_list rows)

let of_relation rel =
  make (Relation.schema rel)
    (List.map (fun t -> (Assignment.empty, t)) (Relation.tuples rel))

let schema u = u.schema
let rows u = Array.to_list u.rows
let row u i = u.rows.(i)
let size u = Array.length u.rows
let is_empty u = size u = 0
let is_complete_rep u =
  Array.for_all (fun (a, _) -> Assignment.is_empty a) u.rows

(* [f tuple clauses acc] over the runs, the last first; clauses ascend. *)
let fold_runs f u acc =
  let r = u.rows in
  let acc = ref acc and clauses = ref [] in
  for i = Array.length r - 1 downto 0 do
    clauses := fst r.(i) :: !clauses;
    if i = 0 || not (Tuple.equal (snd r.(i - 1)) (snd r.(i))) then begin
      acc := f (snd r.(i)) !clauses !acc;
      clauses := []
    end
  done;
  !acc

let clauses_by_tuple u = fold_runs (fun t cs acc -> (t, cs) :: acc) u []
let possible_tuples u = fold_runs (fun t _ acc -> t :: acc) u []
let to_relation u = Relation.of_list u.schema (possible_tuples u)

let clauses_for u tuple =
  let r = u.rows in
  (* Binary search for the first row whose tuple is not below [tuple]. *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Tuple.compare (snd r.(mid)) tuple < 0 then first (mid + 1) hi
      else first lo mid
  in
  let rec collect i acc =
    if i < Array.length r && Tuple.equal (snd r.(i)) tuple then
      collect (i + 1) (fst r.(i) :: acc)
    else acc
  in
  collect (first 0 (Array.length r)) []

let variables u =
  List.sort_uniq compare
    (Array.fold_left (fun acc (a, _) -> Assignment.vars a @ acc) [] u.rows)

let filter p u =
  let r = u.rows and k = ref 0 in
  while !k < Array.length r && p r.(!k) do incr k done;
  if !k = Array.length r then u
  else begin
    let out = Array.copy r and m = ref !k in
    for i = !k + 1 to Array.length r - 1 do
      if p r.(i) then (out.(!m) <- r.(i); incr m)
    done;
    { u with rows = Array.sub out 0 !m }
  end

let map_rows schema f u =
  let checked row =
    let row' = f row in
    check_arity schema row';
    row'
  in
  { schema; rows = normalize (Array.map checked u.rows) }

(* A merge walk over two strictly ascending row arrays, the left row kept
   where two are equal: what a stable sort of [Array.append ra rb] and
   [normalize]'s dedup keep. *)
let merge ra rb =
  let la = Array.length ra and lb = Array.length rb in
  if lb = 0 then ra
  else if la = 0 then rb
  else begin
    let out = Array.make (la + lb) ra.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let c = compare_row ra.(!i) rb.(!j) in
      if c <= 0 then begin
        out.(!k) <- ra.(!i);
        incr i;
        if c = 0 then incr j
      end
      else begin
        out.(!k) <- rb.(!j);
        incr j
      end;
      incr k
    done;
    Array.blit ra !i out !k (la - !i);
    Array.blit rb !j out (!k + la - !i) (lb - !j);
    let n = !k + (la - !i) + (lb - !j) in
    if n = la + lb then out else Array.sub out 0 n
  end

let union a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Urelation.union: schema mismatch"
  else { a with rows = merge a.rows b.rows }

(* Printed condition first, then tuple. *)
let pp fmt u =
  let by_condition (a1, t1) (a2, t2) =
    match Assignment.compare a1 a2 with 0 -> Tuple.compare t1 t2 | c -> c
  in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "U%a:@," Schema.pp u.schema;
  List.iter
    (fun (a, t) ->
      Format.fprintf fmt "  %a  %a@," Assignment.pp a Tuple.pp t)
    (List.stable_sort by_condition (rows u));
  Format.pp_close_box fmt ()
