open Pqdb_numeric
open Pqdb_relational

let select pred u =
  let schema = Urelation.schema u in
  Predicate.check schema pred;
  Urelation.filter (fun (_, t) -> Predicate.eval schema t pred) u

let project cols u =
  let in_schema = Urelation.schema u in
  List.iter (fun (e, _) -> Expr.check in_schema e) cols;
  let out_schema = Schema.of_list (List.map snd cols) in
  let exprs = List.map fst cols in
  Urelation.map_rows out_schema
    (fun (a, t) ->
      (a, Tuple.of_list (List.map (Expr.eval in_schema t) exprs)))
    u

let project_attrs names u =
  project (List.map (fun a -> (Expr.attr a, a)) names) u

let rename mapping u =
  let out_schema = Schema.rename (Urelation.schema u) mapping in
  Urelation.map_rows out_schema (fun row -> row) u

let join a b =
  let sa = Urelation.schema a and sb = Urelation.schema b in
  let shared = Schema.common sa sb in
  let sb_only =
    List.filter (fun x -> not (List.mem x shared)) (Schema.attributes sb)
  in
  let out_schema = Schema.of_list (Schema.attributes sa @ sb_only) in
  let sa_shared = List.map (Schema.index sa) shared in
  let sb_shared = List.map (Schema.index sb) shared in
  let sb_only_pos = List.map (Schema.index sb) sb_only in
  (* Hash b's rows by their shared-attribute key tuple; Tuple.Table's
     Value-aware equality makes probes exact, so no re-check is needed. *)
  let index = Tuple.Table.create (max 16 (Urelation.size b)) in
  List.iter
    (fun (fb, tb) ->
      Tuple.Table.add index (Tuple.project tb sb_shared) (fb, tb))
    (Urelation.rows b);
  let rows =
    List.concat_map
      (fun (fa, ta) ->
        List.filter_map
          (fun (fb, tb) ->
            match Assignment.union fa fb with
            | Some f ->
                Some (f, Tuple.concat ta (Tuple.project tb sb_only_pos))
            | None -> None)
          (Tuple.Table.find_all index (Tuple.project ta sa_shared)))
      (Urelation.rows a)
  in
  Urelation.make out_schema rows

(* Schema.concat refuses shared attributes, and a join on none pairs every
   row with every row. *)
let product a b =
  ignore (Schema.concat (Urelation.schema a) (Urelation.schema b));
  join a b

let union = Urelation.union

let diff_complete a b =
  if not (Urelation.is_complete_rep a && Urelation.is_complete_rep b) then
    invalid_arg "Translate.diff_complete: arguments must be complete"
  else
    Urelation.of_relation
      (Relation.diff (Urelation.to_relation a) (Urelation.to_relation b))

let poss = Urelation.to_relation

let bad_weight detail =
  Pqdb_runtime.Pqdb_error.invalid_probability ~context:"Translate.repair_key"
    detail

let weight_of value =
  match Value.to_rational_opt value with
  | Some r when Rational.sign r > 0 -> r
  | Some _ -> bad_weight "weight must be positive"
  | None -> begin
      match value with
      | Value.Float f when Float.is_nan f -> bad_weight "weight is NaN"
      | Value.Float f when f > 0. && Float.is_finite f -> Rational.of_float f
      | _ -> bad_weight "weight must be a positive finite number"
    end

let repair_key w ~key ~weight u =
  if not (Urelation.is_complete_rep u) then
    invalid_arg "Translate.repair_key: input must be complete";
  let rel = Urelation.to_relation u in
  let schema = Relation.schema rel in
  let weight_idx = Schema.index schema weight in
  let groups = Algebra.group_by key rel in
  let rows =
    List.concat_map
      (fun (group_key, group) ->
        let tuples = Relation.tuples group in
        match tuples with
        | [ t ] ->
            (* Single alternative: certain, no variable (Figure 1(b)). *)
            [ (Assignment.empty, t) ]
        | _ ->
            let weights =
              List.map (fun t -> weight_of (Tuple.get t weight_idx)) tuples
            in
            let total = Rational.sum weights in
            let dist = List.map (fun p -> Rational.div p total) weights in
            let name =
              Format.asprintf "%a" Pqdb_relational.Tuple.pp group_key
            in
            let var = Wtable.add_var ~name w dist in
            List.mapi (fun i t -> (Assignment.singleton var i, t)) tuples)
      groups
  in
  Urelation.make (Urelation.schema u) rows
