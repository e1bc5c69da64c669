open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua

exception Unsupported of string

let all_confidences w u =
  List.map
    (fun (t, clauses) -> (t, Pqdb_montecarlo.Lineage.exact w clauses))
    (Urelation.clauses_by_tuple u)

let conf_urelation w u =
  if Schema.mem (Urelation.schema u) "P" then
    raise
      (Unsupported "conf: the input already has a P column; rename it first");
  let confs = all_confidences w u in
  let out_schema =
    Schema.of_list (Schema.attributes (Urelation.schema u) @ [ "P" ])
  in
  Urelation.make out_schema
    (List.map
       (fun (t, p) ->
         (Assignment.empty, Tuple.concat t (Tuple.of_list [ Value.Rat p ])))
       confs)

(* Structurally identical subexpressions denote the *same* relation (the
   paper's examples bind intermediate results by name and reuse them), so
   evaluation memoizes on the printed form of the subquery.  This is what
   makes repair-key idempotent across shared subtrees: both occurrences of S
   in Example 2.2's T see the same random variables. *)
let rec eval_memo cache udb (q : Ua.t) =
  let key = Format.asprintf "%a" Ua.pp q in
  match Hashtbl.find_opt cache key with
  | Some u -> u
  | None ->
      let u = eval_raw cache udb q in
      Hashtbl.replace cache key u;
      u

and eval_raw cache udb (q : Ua.t) =
  let eval = eval_memo cache in
  let w = Udb.wtable udb in
  match q with
  | Ua.Table name -> begin
      match Udb.find udb name with
      | u -> u
      | exception Not_found -> raise (Unsupported ("unknown table " ^ name))
    end
  | Ua.Lit rel -> Urelation.of_relation rel
  | Ua.Select (p, q) -> Translate.select p (eval udb q)
  | Ua.Project (cols, q) -> Translate.project cols (eval udb q)
  | Ua.Rename (m, q) -> Translate.rename m (eval udb q)
  | Ua.Product (a, b) -> Translate.product (eval udb a) (eval udb b)
  | Ua.Join (a, b) -> Translate.join (eval udb a) (eval udb b)
  | Ua.Union (a, b) -> Translate.union (eval udb a) (eval udb b)
  | Ua.Diff (a, b) -> begin
      let ua = eval udb a and ub = eval udb b in
      match Translate.diff_complete ua ub with
      | u -> u
      | exception Invalid_argument _ ->
          raise
            (Unsupported
               "difference is only supported on complete relations (use -c)")
    end
  | Ua.Conf q | Ua.ApproxConf (_, q) -> conf_urelation w (eval udb q)
  | Ua.RepairKey { key; weight; query } -> begin
      let u = eval udb query in
      match Translate.repair_key w ~key ~weight u with
      | u -> u
      | exception Invalid_argument msg -> raise (Unsupported msg)
    end
  | Ua.Poss q -> Urelation.of_relation (Translate.poss (eval udb q))
  | Ua.Cert q ->
      let u = eval udb q in
      let certain =
        List.filter_map
          (fun (t, p) -> if Rational.equal p Rational.one then Some t else None)
          (all_confidences w u)
      in
      Urelation.of_relation (Relation.of_list (Urelation.schema u) certain)
  | Ua.ApproxSelect _ -> eval udb (Ua.desugar_sigma_hat q)

let eval udb q = eval_memo (Hashtbl.create 64) udb q

let eval_relation udb q =
  let u = eval udb q in
  if Urelation.is_complete_rep u then Urelation.to_relation u
  else raise (Unsupported "result is uncertain; use eval or confidences")

let confidences udb q =
  all_confidences (Udb.wtable udb) (eval udb q)
