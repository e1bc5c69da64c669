open Pqdb_numeric
open Pqdb_relational
module Ua = Pqdb_ast.Ua

exception Not_complete of string

(* Annotated query tree.  repair-key nodes are replaced by references into a
   registry of repair distributions (computed bottom-up at annotation time,
   which is sound because repair-key arguments must be complete), and conf
   nodes carry the list of repair ids occurring beneath them — the enumeration
   scope that their aggregation must close over. *)
type aq =
  | ATable of string
  | ALit of Relation.t
  | ASelect of Predicate.t * aq
  | AProject of (Expr.t * string) list * aq
  | ARename of (string * string) list * aq
  | AProduct of aq * aq
  | AJoin of aq * aq
  | AUnion of aq * aq
  | ADiff of aq * aq
  | AConf of conf_node
  | ARepair of int

and conf_node = {
  scope : int list;
  body : aq;
  mode : [ `Conf | `Poss | `Cert ];
  mutable cache : Relation.t option;
}

type repair_dist = (Relation.t * Rational.t) list
(* Per repair id: the weighted list of repaired relations. *)

type env = {
  pdb : Pdb.t;
  repairs : (int, repair_dist) Hashtbl.t;
  annotations : (Ua.t, aq * int list) Hashtbl.t;
      (* structurally identical subexpressions denote the same relation, so
         they share one annotation (and hence one set of repair variables) *)
  mutable next_repair : int;
}

let merge_scopes a b = List.sort_uniq compare (a @ b)

(* All combinations of repair choices for the given scope, as a lookup
   function (repair id -> chosen relation) paired with the combination's
   probability. *)
let rec combinations env = function
  | [] -> [ ((fun _ -> raise Not_found), Rational.one) ]
  | id :: rest ->
      let dist =
        match Hashtbl.find_opt env.repairs id with
        | Some d -> d
        | None -> assert false
      in
      let tails = combinations env rest in
      List.concat_map
        (fun (rel, p) ->
          List.map
            (fun (lookup, q) ->
              let lookup' i = if i = id then rel else lookup i in
              (lookup', Rational.mul p q))
            tails)
        dist

let rec eval_in_world env world lookup = function
  | ATable name -> Pdb.find world name
  | ALit r -> r
  | ASelect (p, q) -> Algebra.select p (eval_in_world env world lookup q)
  | AProject (cols, q) -> Algebra.project cols (eval_in_world env world lookup q)
  | ARename (m, q) -> Algebra.rename m (eval_in_world env world lookup q)
  | AProduct (a, b) ->
      Algebra.product (eval_in_world env world lookup a)
        (eval_in_world env world lookup b)
  | AJoin (a, b) ->
      Algebra.join (eval_in_world env world lookup a)
        (eval_in_world env world lookup b)
  | AUnion (a, b) ->
      Algebra.union (eval_in_world env world lookup a)
        (eval_in_world env world lookup b)
  | ADiff (a, b) ->
      Algebra.diff (eval_in_world env world lookup a)
        (eval_in_world env world lookup b)
  | ARepair id -> lookup id
  | AConf node -> conf_value env node

(* conf/poss/cert close the possible-worlds semantics: aggregate over all
   base worlds x all repair choices in the node's scope.  The value is
   world-independent, hence cached. *)
and conf_value env node =
  match node.cache with
  | Some r -> r
  | None ->
      let results =
        List.concat_map
          (fun (world, p) ->
            List.map
              (fun (lookup, q) ->
                (eval_in_world env world lookup node.body, Rational.mul p q))
              (combinations env node.scope))
          (Pdb.worlds env.pdb)
      in
      let prel = Pdb.normalize_prel results in
      let confs = Pdb.confidence prel in
      let body_schema =
        match results with
        | (r, _) :: _ -> Relation.schema r
        | [] -> assert false
      in
      let value =
        match node.mode with
        | `Conf ->
            let out_schema =
              Schema.of_list (Schema.attributes body_schema @ [ "P" ])
            in
            Relation.of_list out_schema
              (List.map
                 (fun (t, p) -> Tuple.concat t (Tuple.of_list [ Value.Rat p ]))
                 confs)
        | `Poss -> Relation.of_list body_schema (List.map fst confs)
        | `Cert ->
            Relation.of_list body_schema
              (List.filter_map
                 (fun (t, p) ->
                   if Rational.equal p Rational.one then Some t else None)
                 confs)
      in
      node.cache <- Some value;
      value

(* Evaluate a scope-free subquery that must be complete: same value in every
   base world. *)
let eval_complete env what aq =
  let values =
    List.map
      (fun (world, _) ->
        eval_in_world env world (fun _ -> raise Not_found) aq)
      (Pdb.worlds env.pdb)
  in
  match values with
  | [] -> assert false
  | first :: rest ->
      if List.for_all (Relation.equal first) rest then first
      else raise (Not_complete what)

let register_repair env ~key ~weight rel =
  let id = env.next_repair in
  env.next_repair <- id + 1;
  Hashtbl.replace env.repairs id (Pdb.repair_key ~key ~weight rel);
  id

(* Bottom-up annotation; returns the annotated tree and the repair ids in the
   subtree that are still "open" (not closed by a conf above them). *)
let rec annotate env (q : Ua.t) : aq * int list =
  match Hashtbl.find_opt env.annotations q with
  | Some result -> result
  | None ->
      let result = annotate_raw env q in
      Hashtbl.replace env.annotations q result;
      result

and annotate_raw env (q : Ua.t) : aq * int list =
  match q with
  | Ua.Table n -> (ATable n, [])
  | Ua.Lit r -> (ALit r, [])
  | Ua.Select (p, q) ->
      let aq, scope = annotate env q in
      (ASelect (p, aq), scope)
  | Ua.Project (cols, q) ->
      let aq, scope = annotate env q in
      (AProject (cols, aq), scope)
  | Ua.Rename (m, q) ->
      let aq, scope = annotate env q in
      (ARename (m, aq), scope)
  | Ua.Product (a, b) ->
      let aa, sa = annotate env a and ab, sb = annotate env b in
      (AProduct (aa, ab), merge_scopes sa sb)
  | Ua.Join (a, b) ->
      let aa, sa = annotate env a and ab, sb = annotate env b in
      (AJoin (aa, ab), merge_scopes sa sb)
  | Ua.Union (a, b) ->
      let aa, sa = annotate env a and ab, sb = annotate env b in
      (AUnion (aa, ab), merge_scopes sa sb)
  | Ua.Diff (a, b) ->
      let aa, sa = annotate env a and ab, sb = annotate env b in
      (ADiff (aa, ab), merge_scopes sa sb)
  | Ua.Conf q | Ua.ApproxConf (_, q) ->
      let body, scope = annotate env q in
      (AConf { scope; body; mode = `Conf; cache = None }, [])
  | Ua.Poss q ->
      let body, scope = annotate env q in
      (AConf { scope; body; mode = `Poss; cache = None }, [])
  | Ua.Cert q ->
      let body, scope = annotate env q in
      (AConf { scope; body; mode = `Cert; cache = None }, [])
  | Ua.RepairKey { key; weight; query } ->
      let body, scope = annotate env query in
      if scope <> [] then
        raise (Not_complete "repair-key argument contains open uncertainty");
      let arg = eval_complete env "repair-key argument" body in
      let id = register_repair env ~key ~weight arg in
      (ARepair id, [ id ])
  | Ua.ApproxSelect _ -> assert false (* desugared before annotation *)

let prepare pdb query =
  let env =
    {
      pdb;
      repairs = Hashtbl.create 16;
      annotations = Hashtbl.create 64;
      next_repair = 0;
    }
  in
  let query = Ua.desugar_sigma_hat query in
  let aq, scope = annotate env query in
  (env, aq, scope)

let eval pdb query =
  let env, aq, scope = prepare pdb query in
  let results =
    List.concat_map
      (fun (world, p) ->
        List.map
          (fun (lookup, q) ->
            (eval_in_world env world lookup aq, Rational.mul p q))
          (combinations env scope))
      (Pdb.worlds pdb)
  in
  Pdb.normalize_prel results

let eval_confidence pdb query = Pdb.confidence (eval pdb query)

let eval_certain pdb query =
  match eval pdb query with
  | [ (r, _) ] -> r
  | _ -> raise (Not_complete "query result is uncertain")
