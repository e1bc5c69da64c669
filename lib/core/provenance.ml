open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua

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

module TM = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = { root : LS.t TM.t Eval_exact.node; sigma_hats : int }

let prov_of (node : LS.t TM.t Eval_exact.node) tuple =
  Option.value ~default:LS.empty (TM.find_opt tuple node.ann)

let add_prov map tuple set =
  TM.update tuple
    (function None -> Some set | Some old -> Some (LS.union old set))
    map

let each_tuple urel f =
  List.fold_left f TM.empty (Urelation.possible_tuples urel)

let compute udb query =
  let counter = ref 0 in
  let leaves urel leaf =
    each_tuple urel (fun acc t -> add_prov acc t (LS.singleton (leaf t)))
  in
  let leaf q urel =
    match q with
    | Ua.Table name -> leaves urel (fun t -> Base (name, t))
    | _ -> TM.empty
  in
  let unary q a urel =
    match q with
    | Ua.Select _ | Ua.Rename _ -> a.Eval_exact.ann
    | Ua.Project (cols, _) ->
        let in_schema = Urelation.schema a.urel in
        let exprs = List.map fst cols in
        each_tuple a.urel (fun acc t ->
            let out = Tuple.of_list (List.map (Expr.eval in_schema t) exprs) in
            add_prov acc out (prov_of a t))
    | Ua.ApproxSelect _ ->
        (* Maximal sigma-hat subexpressions are provenance leaves. *)
        let id = !counter in
        incr counter;
        leaves urel (fun t -> Sigma_hat (id, t))
    | _ ->
        (* conf, poss, cert and repair-key: an output row's data part (the
           row without a P column) is an input row. *)
        let data = List.init (Schema.arity (Urelation.schema a.urel)) Fun.id in
        each_tuple urel (fun acc out ->
            add_prov acc out (prov_of a (Tuple.project out data)))
  in
  let binary q a b _urel =
    match q with
    | Ua.Product _ | Ua.Join _ ->
        let join = match q with Ua.Join _ -> true | _ -> false in
        Eval_exact.fold_pairs ~join a.Eval_exact.urel b.Eval_exact.urel
          (fun ta tb out acc ->
            add_prov acc out (LS.union (prov_of a ta) (prov_of b tb)))
          TM.empty
    | _ -> TM.fold (fun t s acc -> add_prov acc t s) b.ann a.ann
  in
  let root =
    Eval_exact.walk
      { leaf; unary; binary; aconf = None; sigma_hat = None }
      udb query
  in
  { root; sigma_hats = !counter }

let result t = t.root.urel

let leaves t tuple = LS.elements (prov_of t.root tuple)

let sigma_hat_leaves t tuple =
  List.filter_map
    (function Sigma_hat (i, s) -> Some (i, s) | Base _ -> None)
    (leaves t tuple)

let sigma_hat_count t = t.sigma_hats
