open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua

module TM = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* [x] flows into [key]; two annotations meeting at one key merge. *)
let add ~merge key x map =
  TM.update key
    (function None -> Some x | Some old -> Some (merge old x))
    map

(* Each of [tuples] whose source [from t] is annotated passes that
   annotation on to [into t], in list order. *)
let gather ~merge ann ~from ~into tuples =
  List.fold_left
    (fun acc t ->
      match TM.find_opt (from t) ann with
      | None -> acc
      | Some x -> add ~merge (into t) x acc)
    TM.empty tuples

let unary ~merge q (a : _ TM.t Eval_exact.node) =
  if TM.is_empty a.ann then fun _ -> TM.empty
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
          gather ~merge a.ann ~from:Fun.id ~into:out_of
            (Urelation.possible_tuples a.urel)
    | _ ->
        (* conf, poss, cert and repair-key: an output row's data part (the
           row without a P column) is an input row. *)
        let data = List.init (Schema.arity (Urelation.schema a.urel)) Fun.id in
        fun urel ->
          gather ~merge a.ann
            ~from:(fun out -> Tuple.project out data)
            ~into:Fun.id
            (Urelation.possible_tuples urel)

let binary ~merge q (a : _ TM.t Eval_exact.node) (b : _ TM.t Eval_exact.node)
    _urel =
  match q with
  | Ua.Product _ | Ua.Join _ ->
      if TM.is_empty a.ann && TM.is_empty b.ann then TM.empty
      else
        let join = match q with Ua.Join _ -> true | _ -> false in
        Eval_exact.fold_pairs ~join a.urel b.urel
          (fun ta tb out acc ->
            match (TM.find_opt ta a.ann, TM.find_opt tb b.ann) with
            | None, None -> acc
            | Some x, None | None, Some x -> add ~merge out x acc
            | Some x, Some y -> add ~merge out (merge x y) acc)
          TM.empty
  | _ -> TM.union (fun _ x y -> Some (merge x y)) a.ann b.ann

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

type t = { root : LS.t TM.t Eval_exact.node; sigma_hats : int }

let compute udb query =
  let counter = ref 0 in
  let leaves urel leaf =
    List.fold_left
      (fun acc t -> TM.add t (LS.singleton (leaf t)) acc)
      TM.empty
      (Urelation.possible_tuples urel)
  in
  let leaf q urel =
    match q with
    | Ua.Table name -> leaves urel (fun t -> Base (name, t))
    | _ -> TM.empty
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
  LS.elements (Option.value ~default:LS.empty (TM.find_opt tuple t.root.ann))

let sigma_hat_leaves t tuple =
  List.filter_map
    (function Sigma_hat (i, s) -> Some (i, s) | Base _ -> None)
    (leaves t tuple)

let sigma_hat_count t = t.sigma_hats
