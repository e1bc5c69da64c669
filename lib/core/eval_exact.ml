open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Ua = Pqdb_ast.Ua

exception Unsupported of string

let all_confidences w u =
  List.map
    (fun (t, clauses) -> (t, Pqdb_montecarlo.Lineage.exact w clauses))
    (Urelation.clauses_by_tuple u)

let with_p u rows =
  let out_schema =
    Schema.of_list (Schema.attributes (Urelation.schema u) @ [ "P" ])
  in
  Urelation.of_array out_schema
    (Array.map (fun t -> (Assignment.empty, t)) rows)

let no_p_column u =
  if Schema.mem (Urelation.schema u) "P" then
    raise
      (Unsupported "conf: the input already has a P column; rename it first")

let conf w u =
  no_p_column u;
  with_p u
    (Array.of_list
       (List.map
          (fun (t, p) -> Tuple.concat t (Tuple.of_list [ Value.Rat p ]))
          (all_confidences w u)))

let cert w u =
  let certain =
    List.filter_map
      (fun (t, p) -> if Rational.equal p Rational.one then Some t else None)
      (all_confidences w u)
  in
  Urelation.of_relation (Relation.of_list (Urelation.schema u) certain)

let diff a b =
  match Translate.diff_complete a b with
  | u -> u
  | exception Invalid_argument _ ->
      raise
        (Unsupported
           "difference is only supported on complete relations (use -c)")

let repair_key w ~key ~weight u =
  match Translate.repair_key w ~key ~weight u with
  | u -> u
  | exception Invalid_argument msg -> raise (Unsupported msg)

type 'a node = { urel : Urelation.t; ann : 'a }

type 'a rules = {
  leaf : Ua.t -> Urelation.t -> 'a;
  unary : Ua.t -> 'a node -> Urelation.t -> 'a;
  binary : Ua.t -> 'a node -> 'a node -> Urelation.t -> 'a;
  aconf : (Ua.approx_params -> 'a node -> 'a node) option;
  sigma_hat : (Ua.sigma_hat -> 'a node -> 'a node) option;
}

(* Structurally identical subexpressions denote the *same* relation (the
   paper's examples bind intermediate results by name and reuse them), so
   the walk memoizes on the subquery's value.  This is what
   makes repair-key idempotent across shared subtrees: both occurrences of S
   in Example 2.2's T see the same random variables.  Operands are walked
   left to right, so variable numbering follows the query text. *)
let walk rules udb q =
  let w = Udb.wtable udb in
  let memo = Hashtbl.create 64 in
  let rec go q =
    match Hashtbl.find_opt memo q with
    | Some n -> n
    | None ->
        let n = node q in
        Hashtbl.replace memo q n;
        n
  and unary q a f =
    let a = go a in
    let annotate = rules.unary q a in
    let urel = f a.urel in
    { urel; ann = annotate urel }
  and binary q a b f =
    let a = go a in
    let b = go b in
    let urel = f a.urel b.urel in
    { urel; ann = rules.binary q a b urel }
  and node q =
    match q with
    | Ua.Table name ->
        let urel =
          match Udb.find udb name with
          | u -> u
          | exception Not_found -> raise (Unsupported ("unknown table " ^ name))
        in
        { urel; ann = rules.leaf q urel }
    | Ua.Lit rel ->
        let urel = Urelation.of_relation rel in
        { urel; ann = rules.leaf q urel }
    | Ua.Select (p, a) -> unary q a (Translate.select p)
    | Ua.Project (cols, a) -> unary q a (Translate.project cols)
    | Ua.Rename (m, a) -> unary q a (Translate.rename m)
    | Ua.Product (a, b) -> binary q a b Translate.product
    | Ua.Join (a, b) -> binary q a b Translate.join
    | Ua.Union (a, b) -> binary q a b Translate.union
    | Ua.Diff (a, b) -> binary q a b diff
    | Ua.Conf a -> unary q a (conf w)
    | Ua.ApproxConf (params, a) -> begin
        match rules.aconf with
        | None -> unary q a (conf w)
        | Some override ->
            let a = go a in
            no_p_column a.urel;
            override params a
      end
    | Ua.RepairKey { key; weight; query } ->
        unary q query (repair_key w ~key ~weight)
    | Ua.Poss a -> unary q a (fun u -> Urelation.of_relation (Translate.poss u))
    | Ua.Cert a -> unary q a (cert w)
    | Ua.ApproxSelect sh -> begin
        match rules.sigma_hat with
        | None ->
            let composite = go (Ua.desugar_sigma_hat q) in
            { composite with ann = rules.unary q composite composite.urel }
        | Some override -> override sh (go sh.input)
      end
  in
  go q

let fold_pairs a b f acc =
  let _, probe = Translate.matches a b in
  List.fold_left
    (fun acc ta ->
      List.fold_left
        (fun acc (m : Translate.run) ->
          f ta m.tuple (Tuple.concat ta m.own) acc)
        acc (probe ta))
    acc
    (Urelation.possible_tuples a)

let exact_rules =
  {
    leaf = (fun _ _ -> ());
    unary = (fun _ _ _ -> ());
    binary = (fun _ _ _ _ -> ());
    aconf = None;
    sigma_hat = None;
  }

let eval udb q = (walk exact_rules udb q).urel

let eval_relation udb q =
  let u = eval udb q in
  if Urelation.is_complete_rep u then Urelation.to_relation u
  else raise (Unsupported "result is uncertain; use eval or confidences")

let confidences udb q =
  all_confidences (Udb.wtable udb) (eval udb q)
