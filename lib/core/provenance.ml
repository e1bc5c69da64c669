open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua

(* Strictly ascending by Tuple.compare. *)
type 'a table = (Tuple.t * 'a) array

let empty = [||]
let is_empty table = Array.length table = 0
let bindings = Array.to_list

let of_ascending table =
  for i = 1 to Array.length table - 1 do
    if Tuple.compare (fst table.(i - 1)) (fst table.(i)) >= 0 then
      invalid_arg "Provenance.of_ascending: tuples must ascend strictly"
  done;
  table

(* The first index from [lo] whose tuple is not below [t]. *)
let rec seek table t lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Tuple.compare (fst table.(mid)) t < 0 then seek table t (mid + 1) hi
    else seek table t lo mid

let entry table i t =
  if i < Array.length table && Tuple.equal (fst table.(i)) t then
    Some (snd table.(i))
  else None

let find_opt table t = entry table (seek table t 0 (Array.length table)) t

let filter_map_along f table tuples =
  let n = Array.length table and j = ref 0 in
  List.filter_map
    (fun t ->
      while !j < n && Tuple.compare (fst table.(!j)) t < 0 do incr j done;
      f t (entry table !j t))
    tuples

(* The table of [pairs], whose annotations meeting at one tuple merge in
   list order, keeping the first tuple: a stable sort, skipped when the
   tuples already ascend strictly, and one fold of each run. *)
let gather ~merge pairs =
  let a = Array.of_list pairs in
  let n = Array.length a in
  let rec ascends i =
    i >= n || (Tuple.compare (fst a.(i - 1)) (fst a.(i)) < 0 && ascends (i + 1))
  in
  if ascends 1 then a
  else begin
    Array.stable_sort (fun (s, _) (t, _) -> Tuple.compare s t) a;
    let k = ref 0 in
    for i = 1 to n - 1 do
      let t, x = a.(!k) and s, y = a.(i) in
      if Tuple.equal t s then a.(!k) <- (t, merge x y)
      else begin
        incr k;
        a.(!k) <- a.(i)
      end
    done;
    Array.sub a 0 (!k + 1)
  end

(* ∪'s walk: entries of both sides, the left's annotation first where
   they meet. *)
let union ~merge a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) a.(0) in
    let rec go i j k =
      if i = na && j = nb then k
      else if j = nb then (out.(k) <- a.(i); go (i + 1) j (k + 1))
      else if i = na then (out.(k) <- b.(j); go i (j + 1) (k + 1))
      else
        let s, x = a.(i) and t, y = b.(j) in
        let c = Tuple.compare s t in
        if c < 0 then (out.(k) <- a.(i); go (i + 1) j (k + 1))
        else if c > 0 then (out.(k) <- b.(j); go i (j + 1) (k + 1))
        else (out.(k) <- (s, merge x y); go (i + 1) (j + 1) (k + 1))
    in
    let k = go 0 0 0 in
    if k = na + nb then out else Array.sub out 0 k
  end

let unary ~merge q (a : _ table Eval_exact.node) =
  if is_empty a.ann then fun _ -> empty
  else
    match q with
    | Ua.Select _ | Ua.Rename _ -> fun _ -> a.ann
    | Ua.Project (cols, _) ->
        let in_schema = Urelation.schema a.urel in
        let exprs = List.map fst cols in
        let out_of t =
          Tuple.of_list (List.map (Expr.eval in_schema t) exprs)
        in
        fun _ ->
          gather ~merge
            (filter_map_along
               (fun t -> Option.map (fun x -> (out_of t, x)))
               a.ann
               (Urelation.possible_tuples a.urel))
    | _ ->
        (* conf, poss, cert and repair-key: an output row's data part (the
           row without a P column) is an input row. *)
        let data = List.init (Schema.arity (Urelation.schema a.urel)) Fun.id in
        fun urel ->
          Array.of_list
            (List.filter_map
               (fun out ->
                 Option.map
                   (fun x -> (out, x))
                   (find_opt a.ann (Tuple.project out data)))
               (Urelation.possible_tuples urel))

let binary ~merge q (a : _ table Eval_exact.node) (b : _ table Eval_exact.node)
    _urel =
  match q with
  | Ua.Product _ | Ua.Join _ ->
      if is_empty a.ann && is_empty b.ann then empty
      else
        gather ~merge
          (List.rev
             (Eval_exact.fold_pairs a.urel b.urel
                (fun ta tb out acc ->
                  match (find_opt a.ann ta, find_opt b.ann tb) with
                  | None, None -> acc
                  | Some x, None | None, Some x -> (out, x) :: acc
                  | Some x, Some y -> (out, merge x y) :: acc)
                []))
  | _ -> union ~merge a.ann b.ann

type leaf =
  | Base of string * Tuple.t
  | Sigma_hat of int * Tuple.t

let leaf_compare a b =
  match (a, b) with
  | Base (na, ta), Base (nb, tb) ->
      let c = String.compare na nb in
      if c <> 0 then c else Tuple.compare ta tb
  | Sigma_hat (ia, ta), Sigma_hat (ib, tb) ->
      let c = compare ia ib in
      if c <> 0 then c else Tuple.compare ta tb
  | Base _, Sigma_hat _ -> -1
  | Sigma_hat _, Base _ -> 1

let pp_leaf fmt = function
  | Base (name, t) -> Format.fprintf fmt "%s%a" name Tuple.pp t
  | Sigma_hat (i, t) -> Format.fprintf fmt "sigma-hat#%d%a" i Tuple.pp t

module LS = Set.Make (struct
  type t = leaf

  let compare = leaf_compare
end)

type t = { root : LS.t table Eval_exact.node; sigma_hats : int }

let compute udb query =
  let counter = ref 0 in
  let leaves urel leaf =
    Array.of_list
      (List.map
         (fun t -> (t, LS.singleton (leaf t)))
         (Urelation.possible_tuples urel))
  in
  let leaf q urel =
    match q with
    | Ua.Table name -> leaves urel (fun t -> Base (name, t))
    | _ -> empty
  in
  let unary q a =
    match q with
    | Ua.ApproxSelect _ ->
        (* Maximal sigma-hat subexpressions are provenance leaves. *)
        let id = !counter in
        incr counter;
        fun urel -> leaves urel (fun t -> Sigma_hat (id, t))
    | _ -> unary ~merge:LS.union q a
  in
  let root =
    Eval_exact.walk
      {
        leaf;
        unary;
        binary = binary ~merge:LS.union;
        aconf = None;
        sigma_hat = None;
      }
      udb query
  in
  { root; sigma_hats = !counter }

let result t = t.root.urel

let leaves t tuple =
  LS.elements (Option.value ~default:LS.empty (find_opt t.root.ann tuple))

let sigma_hat_leaves t tuple =
  List.filter_map
    (function Sigma_hat (i, s) -> Some (i, s) | Base _ -> None)
    (leaves t tuple)

let sigma_hat_count t = t.sigma_hats
