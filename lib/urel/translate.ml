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
  (* Plain attributes are resolved to positions once; only computed
     columns go through [Expr.eval]. *)
  let columns =
    List.map
      (function
        | Expr.Attr a, _ -> Ok (Schema.index in_schema a)
        | e, _ -> Error e)
      cols
  in
  let positions = List.filter_map Result.to_option columns in
  let plain = List.compare_lengths positions columns = 0 in
  let column t = function
    | Ok i -> Tuple.get t i
    | Error e -> Expr.eval in_schema t e
  in
  (* The rows of a run often share one tuple, whose image is then computed
     once and shared too. *)
  let last = ref None in
  let image t =
    match !last with
    | Some (s, image) when s == t -> image
    | _ ->
        let image =
          if plain then Tuple.project t positions
          else Tuple.of_list (List.map (column t) columns)
        in
        last := Some (t, image);
        image
  in
  Urelation.map_rows out_schema (fun (a, t) -> (a, image t)) u

let project_attrs names u =
  project (List.map (fun a -> (Expr.attr a, a)) names) u

let rename mapping u =
  let out_schema = Schema.rename (Urelation.schema u) mapping in
  Urelation.map_rows out_schema (fun row -> row) u

type run = { tuple : Tuple.t; own : Tuple.t; clauses : Assignment.t list }

let matches a b =
  let sa = Urelation.schema a and sb = Urelation.schema b in
  let shared = Schema.common sa sb in
  let sb_only =
    List.filter (fun x -> not (List.mem x shared)) (Schema.attributes sb)
  in
  let out_schema = Schema.of_list (Schema.attributes sa @ sb_only) in
  let sa_shared = List.map (Schema.index sa) shared in
  let sb_shared = List.map (Schema.index sb) shared in
  let sb_only_pos = List.map (Schema.index sb) sb_only in
  (* b's runs by their shared-attribute key tuple; Tuple.Table's
     Value-aware equality makes probes exact, so no re-check is needed.
     The fold visits the last run first, so each key's list ascends. *)
  let index = Tuple.Table.create (max 16 (Urelation.size b)) in
  let find key = Option.value ~default:[] (Tuple.Table.find_opt index key) in
  Urelation.fold_runs
    (fun tuple clauses () ->
      let key = Tuple.project tuple sb_shared in
      Tuple.Table.replace index key
        ({ tuple; own = Tuple.project tuple sb_only_pos; clauses } :: find key))
    b ();
  (out_schema, fun ta -> find (Tuple.project ta sa_shared))

(* The end of the run of [u]'s rows with tuple [t] that reaches [i]. *)
let rec run_end u t i =
  if i < Urelation.size u && Tuple.equal (snd (Urelation.row u i)) t then
    run_end u t (i + 1)
  else i

let rows_of runs = List.fold_left (fun n m -> n + List.length m.clauses) 0 runs

let join a b =
  let out_schema, probe = matches a b in
  let n = Urelation.size a in
  (* Each run [i, j) of a meets each matching run of b in one output tuple,
     which takes every consistent union of a condition of the first and one
     of the second: the output tuples ascend, and only each run's
     conditions are left for Urelation to sort.  A first pass probes and
     counts, so the rows go straight into one array of the right size. *)
  let matched = Array.make n [] and total = ref 0 in
  let i = ref 0 in
  while !i < n do
    let ta = snd (Urelation.row a !i) in
    let j = run_end a ta (!i + 1) in
    matched.(!i) <- probe ta;
    total := !total + ((j - !i) * rows_of matched.(!i));
    i := j
  done;
  let out = Array.make !total (Assignment.empty, Tuple.of_list []) in
  let k = ref 0 in
  let rec pair fa t = function
    | [] -> ()
    | fb :: rest ->
        (match Assignment.union fa fb with
        | Some f ->
            out.(!k) <- (f, t);
            incr k
        | None -> ());
        pair fa t rest
  in
  let rec meet i j = function
    | [] -> ()
    | m :: rest ->
        let t = Tuple.concat (snd (Urelation.row a i)) m.own in
        for r = i to j - 1 do
          pair (fst (Urelation.row a r)) t m.clauses
        done;
        meet i j rest
  in
  i := 0;
  while !i < n do
    let j = run_end a (snd (Urelation.row a !i)) (!i + 1) in
    meet !i j matched.(!i);
    i := j
  done;
  Urelation.of_array out_schema
    (if !k = !total then out else Array.sub out 0 !k)

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
