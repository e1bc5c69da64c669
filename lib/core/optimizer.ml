open Pqdb_relational
module Ua = Pqdb_ast.Ua

(* Attributes of a subquery, or None when inference fails (unknown table,
   malformed query) — in which case the rewrite is skipped. *)
let attrs_of ~lookup q =
  match Ua.output_attributes ~lookup q with
  | attrs -> Some attrs
  | exception Ua.Schema_error _ -> None

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Rewrite every attribute reference of an expression or a predicate. *)
let rec map_expr f = function
  | Expr.Attr a -> f a
  | Expr.Const _ as e -> e
  | Expr.Add (x, y) -> Expr.Add (map_expr f x, map_expr f y)
  | Expr.Sub (x, y) -> Expr.Sub (map_expr f x, map_expr f y)
  | Expr.Mul (x, y) -> Expr.Mul (map_expr f x, map_expr f y)
  | Expr.Div (x, y) -> Expr.Div (map_expr f x, map_expr f y)
  | Expr.Neg x -> Expr.Neg (map_expr f x)

let rec map_pred f = function
  | Predicate.Cmp (op, x, y) -> Predicate.Cmp (op, map_expr f x, map_expr f y)
  | Predicate.And (p, q) -> Predicate.And (map_pred f p, map_pred f q)
  | Predicate.Or (p, q) -> Predicate.Or (map_pred f p, map_pred f q)
  | Predicate.Not p -> Predicate.Not (map_pred f p)
  | (Predicate.True | Predicate.False) as p -> p

(* The expression a projection binds to output column [a]. *)
let bound cols a =
  match List.find_opt (fun (_, name) -> name = a) cols with
  | Some (e, _) -> e
  | None -> Expr.Attr a

(* Substitute projection columns into a predicate: Attr a becomes the
   expression bound to output column a. *)
let substitute_pred cols = map_pred (bound cols)

(* Rename predicate attributes through the *inverse* of a rename mapping
   (the rename maps src -> dst; below the rename the attribute is src). *)
let unrename_pred mapping =
  let inverse = List.map (fun (src, dst) -> (dst, src)) mapping in
  map_pred (fun a ->
      Expr.Attr (Option.value (List.assoc_opt a inverse) ~default:a))

(* Substitute inner projection columns into the outer projection's
   expressions (projection fusion). *)
let fuse_projections outer inner =
  List.map (fun (e, name) -> (map_expr (bound inner) e, name)) outer

let conjuncts pred =
  let rec go acc = function
    | Predicate.And (p, q) -> go (go acc p) q
    | Predicate.True -> acc
    | p -> p :: acc
  in
  List.rev (go [] pred)

let conjoin = function
  | [] -> Predicate.True
  | first :: rest ->
      List.fold_left (fun acc p -> Predicate.And (acc, p)) first rest

let is_identity_project ~lookup cols q =
  match attrs_of ~lookup q with
  | Some attrs ->
      List.length cols = List.length attrs
      && List.for_all2
           (fun (e, name) a ->
             name = a && match e with Expr.Attr x -> x = a | _ -> false)
           cols attrs
  | None -> false

let is_identity_rename mapping =
  List.for_all (fun (src, dst) -> src = dst) mapping

(* One top-down rewrite pass; returns the rewritten query. *)
let rec pass ~lookup q =
  let recur = pass ~lookup in
  match q with
  | Ua.Table _ | Ua.Lit _ -> q
  | Ua.Select (Predicate.True, q) -> recur q
  | Ua.Select (pred, inner) -> begin
      let inner = recur inner in
      match inner with
      | Ua.Select (pred', deeper) ->
          Ua.Select (Predicate.And (pred, pred'), deeper)
      | Ua.Union (a, b) ->
          Ua.Union (Ua.Select (pred, a), Ua.Select (pred, b))
      | Ua.Project (cols, deeper) ->
          (* Pull the condition below the projection by substitution. *)
          Ua.Project (cols, Ua.Select (substitute_pred cols pred, deeper))
      | Ua.Rename (m, deeper) ->
          Ua.Rename (m, Ua.Select (unrename_pred m pred, deeper))
      | (Ua.Conf deeper | Ua.ApproxConf (_, deeper))
        when not (List.mem "P" (Predicate.attributes pred)) -> begin
          match inner with
          | Ua.Conf _ -> Ua.Conf (Ua.Select (pred, deeper))
          | Ua.ApproxConf (p, _) -> Ua.ApproxConf (p, Ua.Select (pred, deeper))
          | _ -> assert false
        end
      | Ua.Product (a, b) | Ua.Join (a, b) -> begin
          let rebuild x y =
            match inner with
            | Ua.Product _ -> Ua.Product (x, y)
            | _ -> Ua.Join (x, y)
          in
          match (attrs_of ~lookup a, attrs_of ~lookup b) with
          | Some la, Some lb ->
              (* Route each conjunct to the side(s) that cover it. *)
              let here, left, right =
                List.fold_left
                  (fun (here, left, right) c ->
                    let needs = Predicate.attributes c in
                    if subset needs la then (here, c :: left, right)
                    else if subset needs lb then (here, left, c :: right)
                    else (c :: here, left, right))
                  ([], [], []) (conjuncts pred)
              in
              let wrap side = function
                | [] -> side
                | cs -> Ua.Select (conjoin (List.rev cs), side)
              in
              let pushed = rebuild (wrap a left) (wrap b right) in
              if here = [] then pushed
              else Ua.Select (conjoin (List.rev here), pushed)
          | _ -> Ua.Select (pred, inner)
        end
      | _ -> Ua.Select (pred, inner)
    end
  | Ua.Project (cols, inner) -> begin
      let inner = recur inner in
      if is_identity_project ~lookup cols inner then inner
      else begin
        match inner with
        | Ua.Project (cols', deeper) ->
            Ua.Project (fuse_projections cols cols', deeper)
        | _ -> Ua.Project (cols, inner)
      end
    end
  | Ua.Rename (m, inner) ->
      let inner = recur inner in
      if is_identity_rename m then inner else Ua.Rename (m, inner)
  | Ua.Product (a, b) -> Ua.Product (recur a, recur b)
  | Ua.Join (a, b) -> Ua.Join (recur a, recur b)
  | Ua.Union (a, b) -> Ua.Union (recur a, recur b)
  | Ua.Diff (a, b) -> Ua.Diff (recur a, recur b)
  | Ua.Conf q -> Ua.Conf (recur q)
  | Ua.ApproxConf (p, q) -> Ua.ApproxConf (p, recur q)
  | Ua.RepairKey { key; weight; query } ->
      Ua.RepairKey { key; weight; query = recur query }
  | Ua.Poss q -> Ua.Poss (recur q)
  | Ua.Cert q -> Ua.Cert (recur q)
  | Ua.ApproxSelect sh ->
      Ua.ApproxSelect { sh with input = recur sh.input }

let optimize ~lookup q =
  let rec fixpoint i q =
    if i >= 10 then q
    else begin
      let q' = pass ~lookup q in
      if q' = q then q else fixpoint (i + 1) q'
    end
  in
  fixpoint 0 q

let optimize_for udb q =
  let lookup name =
    match Pqdb_urel.Udb.find udb name with
    | u ->
        Some (Schema.attributes (Pqdb_urel.Urelation.schema u))
    | exception Not_found -> None
  in
  optimize ~lookup q
