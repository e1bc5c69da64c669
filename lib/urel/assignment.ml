open Pqdb_numeric

(* Sorted-by-variable array of (var, value) pairs; no duplicate vars. *)
type t = (int * int) array

let empty = [||]

let of_list pairs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then invalid_arg "Assignment.of_list: duplicate variable"
        else check rest
    | _ -> ()
  in
  check sorted;
  Array.of_list sorted

let singleton v x = [| (v, x) |]
let is_empty a = Array.length a = 0
let cardinal = Array.length
let bindings a = Array.to_list a
let vars a = Array.to_list (Array.map fst a)

let value a v =
  let n = Array.length a in
  let rec search lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let w, x = a.(mid) in
      if w = v then Some x
      else if w < v then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 n

(* Merge two sorted assignments; detect conflicts on shared variables. *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (0, 0) in
  let rec go i j k ok =
    if not ok then None
    else if i >= la && j >= lb then
      Some (if k = la + lb then out else Array.sub out 0 k)
    else if i >= la then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1) true
    end
    else if j >= lb then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1) true
    end
    else begin
      let va, xa = a.(i) and vb, xb = b.(j) in
      if va < vb then begin
        out.(k) <- a.(i);
        go (i + 1) j (k + 1) true
      end
      else if vb < va then begin
        out.(k) <- b.(j);
        go i (j + 1) (k + 1) true
      end
      else if xa = xb then begin
        out.(k) <- a.(i);
        go (i + 1) (j + 1) (k + 1) true
      end
      else go i j k false
    end
  in
  go 0 0 0 true

let union a b =
  if is_empty a then Some b else if is_empty b then Some a else merge a b

let consistent a b = union a b <> None

let restrict a keep =
  Array.of_list
    (List.filter (fun (v, _) -> List.mem v keep) (Array.to_list a))

let remove a v =
  Array.of_list (List.filter (fun (w, _) -> w <> v) (Array.to_list a))

let extended_by total a = Array.for_all (fun (v, x) -> total v = x) a

let nth (a : t) i = a.(i)

let weight w a =
  Array.fold_left
    (fun acc (v, x) -> Rational.mul acc (Wtable.prob w v x))
    Rational.one a

let weight_float w a =
  Array.fold_left
    (fun acc (v, x) -> acc *. Wtable.prob_float w v x)
    1. a

(* Stdlib.compare's order on these arrays — shorter first, then
   lexicographic on (var, value) — without the polymorphic walk or a
   closure. *)
let rec compare_from (a : t) (b : t) i =
  if i = Array.length a then 0
  else
    let va, xa = a.(i) and vb, xb = b.(i) in
    let c = Int.compare va vb in
    if c <> 0 then c
    else
      let c = Int.compare xa xb in
      if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b 0
let equal (a : t) (b : t) = a = b
let hash (a : t) = Hashtbl.hash a

let pp fmt a =
  if is_empty a then Format.pp_print_string fmt "{}"
  else begin
    Format.pp_print_string fmt "{";
    Array.iteri
      (fun i (v, x) ->
        if i > 0 then Format.pp_print_string fmt ", ";
        Format.fprintf fmt "x%d=%d" v x)
      a;
    Format.pp_print_string fmt "}"
  end

let to_string w a =
  if is_empty a then "{}"
  else begin
    let parts =
      List.map
        (fun (v, x) -> Printf.sprintf "%s=%d" (Wtable.name w v) x)
        (bindings a)
    in
    "{" ^ String.concat ", " parts ^ "}"
  end
