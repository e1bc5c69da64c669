type projection = Expr.t * string

let select pred r =
  Predicate.check (Relation.schema r) pred;
  Relation.filter (fun t -> Predicate.eval (Relation.schema r) t pred) r

let project cols r =
  let in_schema = Relation.schema r in
  List.iter (fun (e, _) -> Expr.check in_schema e) cols;
  let out_schema = Schema.of_list (List.map snd cols) in
  let exprs = List.map fst cols in
  Relation.map out_schema
    (fun t -> Tuple.of_list (List.map (Expr.eval in_schema t) exprs))
    r

let project_attrs names r = project (List.map (fun a -> (Expr.attr a, a)) names) r

let rename mapping r =
  let out_schema = Schema.rename (Relation.schema r) mapping in
  (* Positions are unchanged; only the schema header moves. *)
  Relation.map out_schema (fun t -> t) r

let product a b =
  let out_schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  Relation.fold
    (fun ta acc ->
      Relation.fold
        (fun tb acc -> Relation.add acc (Tuple.concat ta tb))
        b acc)
    a (Relation.empty out_schema)

let join a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared = Schema.common sa sb in
  let sb_only =
    List.filter (fun x -> not (List.mem x shared)) (Schema.attributes sb)
  in
  let out_schema = Schema.of_list (Schema.attributes sa @ sb_only) in
  let sa_shared = List.map (Schema.index sa) shared in
  let sb_shared = List.map (Schema.index sb) shared in
  let sb_only_positions = List.map (Schema.index sb) sb_only in
  (* Hash b's tuples by their shared-attribute key tuple.  Tuple.Table
     compares keys with Value-aware equality, so no re-check is needed. *)
  let index = Tuple.Table.create (max 16 (Relation.cardinality b)) in
  Relation.iter
    (fun tb -> Tuple.Table.add index (Tuple.project tb sb_shared) tb)
    b;
  Relation.fold
    (fun ta acc ->
      List.fold_left
        (fun acc tb ->
          Relation.add acc
            (Tuple.concat ta (Tuple.project tb sb_only_positions)))
        acc
        (Tuple.Table.find_all index (Tuple.project ta sa_shared)))
    a (Relation.empty out_schema)

let union = Relation.union
let diff = Relation.diff
let inter = Relation.inter

let group_by keys r =
  let schema = Relation.schema r in
  let positions = List.map (Schema.index schema) keys in
  let table = Tuple.Table.create 64 in
  let order = ref [] in
  Relation.iter
    (fun t ->
      let k = Tuple.project t positions in
      match Tuple.Table.find_opt table k with
      | Some group -> Tuple.Table.replace table k (Relation.add group t)
      | None ->
          order := k :: !order;
          Tuple.Table.add table k (Relation.add (Relation.empty schema) t))
    r;
  List.rev_map (fun k -> (k, Tuple.Table.find table k)) !order
