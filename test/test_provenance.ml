(* Tests for the provenance module (the ≺ relation of Section 6) and the
   vertical decomposition of attribute-level uncertainty. *)

open Pqdb_relational
open Pqdb_urel
module V = Value
module Q = Pqdb_numeric.Rational
module Ua = Pqdb_ast.Ua
module Apred = Pqdb_ast.Apred
module Provenance = Pqdb.Provenance

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let q_testable = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

let small_db () =
  let udb = Udb.create () in
  Udb.add_complete udb "R"
    (Relation.of_rows [ "A"; "B" ]
       [ [ V.Int 1; V.Int 10 ]; [ V.Int 2; V.Int 10 ]; [ V.Int 3; V.Int 20 ] ]);
  Udb.add_complete udb "S"
    (Relation.of_rows [ "B"; "C" ]
       [ [ V.Int 10; V.Str "x" ]; [ V.Int 20; V.Str "y" ] ]);
  udb

let test_select_preserves () =
  let udb = small_db () in
  let p =
    Provenance.compute udb
      (Ua.select Predicate.(Expr.attr "A" >= Expr.int 2) (Ua.table "R"))
  in
  let t = Tuple.of_list [ V.Int 2; V.Int 10 ] in
  (match Provenance.leaves p t with
  | [ Provenance.Base ("R", r) ] -> check bool_c "same tuple" true (Tuple.equal r t)
  | _ -> Alcotest.fail "expected exactly the base tuple");
  check int_c "no sigma-hats" 0 (Provenance.sigma_hat_count p)

let test_projection_fanin () =
  (* π_B(R): output (10) depends on the two input tuples with B = 10. *)
  let udb = small_db () in
  let p = Provenance.compute udb (Ua.project [ "B" ] (Ua.table "R")) in
  let leaves = Provenance.leaves p (Tuple.of_list [ V.Int 10 ]) in
  check int_c "fan-in of 2" 2 (List.length leaves);
  let leaves20 = Provenance.leaves p (Tuple.of_list [ V.Int 20 ]) in
  check int_c "fan-in of 1" 1 (List.length leaves20)

let test_join_unions_components () =
  let udb = small_db () in
  let p = Provenance.compute udb (Ua.join (Ua.table "R") (Ua.table "S")) in
  let out = Tuple.of_list [ V.Int 1; V.Int 10; V.Str "x" ] in
  let leaves = Provenance.leaves p out in
  check int_c "two components" 2 (List.length leaves);
  let names =
    List.filter_map
      (function Provenance.Base (n, _) -> Some n | _ -> None)
      leaves
  in
  check (Alcotest.list Alcotest.string) "both tables" [ "R"; "S" ]
    (List.sort compare names)

let test_union_merges () =
  let udb = small_db () in
  let q =
    Ua.union
      (Ua.project [ "B" ] (Ua.table "R"))
      (Ua.project [ "B" ] (Ua.table "S"))
  in
  let p = Provenance.compute udb q in
  let leaves = Provenance.leaves p (Tuple.of_list [ V.Int 10 ]) in
  (* Two R tuples and one S tuple project to B=10. *)
  check int_c "both occurrences" 3 (List.length leaves)

let test_sigma_hat_is_leaf () =
  let udb = small_db () in
  let w = Udb.wtable udb in
  (* Add an uncertain relation to make sigma-hat meaningful. *)
  let x = Wtable.add_var w [ Q.half; Q.half ] in
  Udb.add_urelation udb "U"
    (Urelation.make (Schema.of_list [ "A" ])
       [
         (Assignment.singleton x 1, Tuple.of_list [ V.Int 1 ]);
         (Assignment.empty, Tuple.of_list [ V.Int 2 ]);
       ]);
  let sigma =
    Ua.approx_select
      (Apred.ge (Apred.var 0) (Apred.const 0.4))
      [ [ "A" ] ] (Ua.table "U")
  in
  let q = Ua.join sigma (Ua.table "R") in
  let p = Provenance.compute udb q in
  check int_c "one sigma-hat" 1 (Provenance.sigma_hat_count p);
  let out = Tuple.of_list [ V.Int 1; V.Int 10 ] in
  let sh = Provenance.sigma_hat_leaves p out in
  check int_c "depends on one sigma-hat tuple" 1 (List.length sh);
  (match sh with
  | [ (0, t) ] -> check bool_c "the A=1 decision" true
      (Tuple.equal t (Tuple.of_list [ V.Int 1 ]))
  | _ -> Alcotest.fail "unexpected sigma-hat leaves");
  (* The base side is still tracked. *)
  let bases =
    List.filter_map
      (function Provenance.Base (n, _) -> Some n | _ -> None)
      (Provenance.leaves p out)
  in
  check (Alcotest.list Alcotest.string) "R contributes" [ "R" ] bases

let test_provenance_result_matches_exact () =
  let udb = small_db () in
  let q = Ua.conf (Ua.project [ "B" ] (Ua.table "R")) in
  let p = Provenance.compute udb q in
  let via_exact = Pqdb.Eval_exact.eval (small_db ()) q in
  check bool_c "same result" true
    (Relation.equal
       (Urelation.to_relation (Provenance.result p))
       (Urelation.to_relation via_exact))

let test_example_6_5_shape () =
  (* Example 6.5: pi_A over n independent tuples — the single output tuple's
     provenance is the entire input. *)
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let n = 5 in
  let rows =
    List.init n (fun i ->
        let x = Wtable.add_var w [ Q.half; Q.half ] in
        (Assignment.singleton x 1, Tuple.of_list [ V.Str "a"; V.Int i ]))
  in
  Udb.add_urelation udb "U" (Urelation.make (Schema.of_list [ "A"; "B" ]) rows);
  let sigma =
    Ua.approx_select
      (Apred.ge (Apred.var 0) (Apred.const 0.3))
      [ [ "A"; "B" ] ] (Ua.table "U")
  in
  let p = Provenance.compute udb (Ua.project [ "A" ] sigma) in
  let leaves = Provenance.sigma_hat_leaves p (Tuple.of_list [ V.Str "a" ]) in
  check int_c "provenance is the whole input" n (List.length leaves)

(* ------------------------------------------------------------------ *)
(* Vertical decomposition                                               *)
(* ------------------------------------------------------------------ *)

let spec_row name_alts city_alts =
  [
    name_alts;
    city_alts;
  ]

let test_vertical_sizes () =
  let w = Wtable.create () in
  let alts vs = List.map (fun v -> (V.Str v, Q.of_ints 1 (List.length vs))) vs in
  let rows =
    [
      spec_row (alts [ "ann"; "anne" ]) (alts [ "vienna"; "ithaca" ]);
      spec_row (alts [ "bob" ]) (alts [ "vienna"; "ithaca"; "berlin" ]);
    ]
  in
  let v = Vertical.build w ~tid:"#id" ~attrs:[ "Name"; "City" ] ~rows in
  check int_c "tuples" 2 (Vertical.tuple_count v);
  (* Component rows: (2+2) + (1+3) = 8; expanded: 2*2 + 1*3 = 7.  With more
     uncertain attributes the gap is exponential. *)
  check int_c "component size" 8 (Vertical.component_size v);
  check int_c "expanded size" 7 (Vertical.expanded_size v);
  check int_c "expanded matches prediction" 7 (Urelation.size (Vertical.expanded v))

let test_vertical_exponential_gap () =
  let w = Wtable.create () in
  let k = 8 in
  let alts = [ (V.Int 0, Q.half); (V.Int 1, Q.half) ] in
  let attrs = List.init k (fun i -> "A" ^ string_of_int i) in
  let rows = [ List.init k (fun _ -> alts) ] in
  let v = Vertical.build w ~tid:"#id" ~attrs ~rows in
  check int_c "linear components" (2 * k) (Vertical.component_size v);
  check int_c "exponential expansion" (1 lsl k) (Vertical.expanded_size v)

let test_vertical_semantics () =
  (* Marginals computed on the expanded relation match the per-attribute
     distributions. *)
  let w = Wtable.create () in
  let rows =
    [
      [
        [ (V.Str "ann", Q.of_ints 3 4); (V.Str "anne", Q.of_ints 1 4) ];
        [ (V.Str "vienna", Q.one) ];
      ];
    ]
  in
  let v = Vertical.build w ~tid:"#id" ~attrs:[ "Name"; "City" ] ~rows in
  let expanded = Vertical.expanded v in
  let p =
    Pqdb_montecarlo.Lineage.exact w
      (Urelation.clauses_for expanded
         (Tuple.of_list [ V.Str "ann"; V.Str "vienna" ]))
  in
  check q_testable "P(ann, vienna) = 3/4" (Q.of_ints 3 4) p;
  (* Components decode consistently: the Name component holds both
     alternatives conditioned on the same variable. *)
  let name_comp = List.assoc "Name" (Vertical.components v) in
  check int_c "name component rows" 2 (Urelation.size name_comp);
  let joined =
    Translate.join (List.assoc "Name" (Vertical.components v))
      (List.assoc "City" (Vertical.components v))
  in
  (* Joining components on the tid reconstructs the expanded relation. *)
  let reconstructed =
    Translate.project_attrs [ "Name"; "City" ] joined
  in
  check bool_c "join of components = expansion" true
    (List.for_all2
       (fun (a1, t1) (a2, t2) ->
         Assignment.equal a1 a2 && Tuple.equal t1 t2)
       (Urelation.rows reconstructed)
       (Urelation.rows expanded))

let test_vertical_validation () =
  let w = Wtable.create () in
  check bool_c "tid clash rejected" true
    (try
       ignore (Vertical.build w ~tid:"A" ~attrs:[ "A" ] ~rows:[]);
       false
     with Invalid_argument _ -> true);
  check bool_c "arity mismatch rejected" true
    (try
       ignore
         (Vertical.build w ~tid:"#id" ~attrs:[ "A"; "B" ]
            ~rows:[ [ [ (V.Int 1, Q.one) ] ] ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The annotation table against the balanced-map rules                  *)
(* ------------------------------------------------------------------ *)

(* The ≺ rules and Lemma 6.4 annotations over a [Map] keyed by tuple, as
   they were written before the annotation table, with the all-pairs ⋈ fold:
   the reference that [Provenance] and [Eval_approx] must agree with bit for
   bit. *)
module Map_rules = struct
  module Eval_exact = Pqdb.Eval_exact
  module Predicate_approx = Pqdb.Predicate_approx

  module TM = Map.Make (struct
    type t = Tuple.t

    let compare = Tuple.compare
  end)

  let add ~merge key x map =
    TM.update key
      (function None -> Some x | Some old -> Some (merge old x))
      map

  let gather ~merge ann ~from ~into tuples =
    List.fold_left
      (fun acc t ->
        match TM.find_opt (from t) ann with
        | None -> acc
        | Some x -> add ~merge (into t) x acc)
      TM.empty tuples

  let fold_pairs ~join a b f acc =
    let sa = Urelation.schema a and sb = Urelation.schema b in
    let shared = Schema.common sa sb in
    let sa_shared = List.map (Schema.index sa) shared
    and sb_shared = List.map (Schema.index sb) shared in
    let sb_only =
      List.filter_map
        (fun x -> if List.mem x shared then None else Some (Schema.index sb x))
        (Schema.attributes sb)
    in
    let tbs = Urelation.possible_tuples b in
    List.fold_left
      (fun acc ta ->
        List.fold_left
          (fun acc tb ->
            if not join then f ta tb (Tuple.concat ta tb) acc
            else if
              Tuple.equal (Tuple.project ta sa_shared)
                (Tuple.project tb sb_shared)
            then f ta tb (Tuple.concat ta (Tuple.project tb sb_only)) acc
            else acc)
          acc tbs)
      acc
      (Urelation.possible_tuples a)

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
          let data =
            List.init (Schema.arity (Urelation.schema a.urel)) Fun.id
          in
          fun urel ->
            gather ~merge a.ann
              ~from:(fun out -> Tuple.project out data)
              ~into:Fun.id
              (Urelation.possible_tuples urel)

  let binary ~merge q (a : _ TM.t Eval_exact.node)
      (b : _ TM.t Eval_exact.node) _urel =
    match q with
    | Ua.Product _ | Ua.Join _ ->
        if TM.is_empty a.ann && TM.is_empty b.ann then TM.empty
        else
          let join = match q with Ua.Join _ -> true | _ -> false in
          fold_pairs ~join a.urel b.urel
            (fun ta tb out acc ->
              match (TM.find_opt ta a.ann, TM.find_opt tb b.ann) with
              | None, None -> acc
              | Some x, None | None, Some x -> add ~merge out x acc
              | Some x, Some y -> add ~merge out (merge x y) acc)
            TM.empty
    | _ -> TM.union (fun _ x y -> Some (merge x y)) a.ann b.ann

  module LS = Set.Make (struct
    type t = Provenance.leaf

    let compare = Provenance.leaf_compare
  end)

  (* [Provenance.compute]'s leaf sets; the root's table. *)
  let leaves udb query =
    let counter = ref 0 in
    let leaves urel leaf =
      List.fold_left
        (fun acc t -> TM.add t (LS.singleton (leaf t)) acc)
        TM.empty
        (Urelation.possible_tuples urel)
    in
    let leaf q urel =
      match q with
      | Ua.Table name -> leaves urel (fun t -> Provenance.Base (name, t))
      | _ -> TM.empty
    in
    let unary q a =
      match q with
      | Ua.ApproxSelect _ ->
          let id = !counter in
          incr counter;
          fun urel -> leaves urel (fun t -> Provenance.Sigma_hat (id, t))
      | _ -> unary ~merge:LS.union q a
    in
    (Eval_exact.walk
       {
         leaf;
         unary;
         binary = binary ~merge:LS.union;
         aconf = None;
         sigma_hat = None;
       }
       udb query)
      .ann

  (* [Eval_approx.eval]'s μ and suspect cells, without budget or stream. *)
  type cell = { mu : float; suspect : bool }

  let cap x = Float.min 0.5 x
  let merge x y = { mu = cap (x.mu +. y.mu); suspect = x.suspect || y.suspect }
  let positions schema attrs = List.map (Schema.index schema) attrs

  let sigma_hat ~compile_fuel ~max_rounds ~sigma_delta ~rng w
      { Ua.phi; conf_args; input = _ } (input : cell TM.t Eval_exact.node) :
      cell TM.t Eval_exact.node =
    let u = input.urel in
    let schema = Urelation.schema u in
    let branches =
      List.map (fun attrs -> Translate.project_attrs attrs u) conf_args
    in
    let candidates =
      match List.map Translate.poss branches with
      | [] -> invalid_arg "sigma-hat with no conf arguments"
      | first :: rest -> List.fold_left Algebra.join first rest
    in
    let cand_schema = Relation.schema candidates in
    let arg_positions =
      List.map (fun attrs -> positions cand_schema attrs) conf_args
    in
    let selected = ref [] and cells = ref TM.empty in
    Relation.iter
      (fun cand ->
        let keys = List.map (Tuple.project cand) arg_positions in
        let estimators =
          Array.of_list
            (List.map2
               (fun branch key ->
                 Pqdb_montecarlo.Estimator.create
                   (Pqdb_montecarlo.Dnf.prepare w
                      (Urelation.clauses_for branch key)))
               branches keys)
        in
        let decision =
          Predicate_approx.decide ~compile_fuel ~eps0:0.05 ~max_rounds ~rng
            ~delta:sigma_delta phi estimators
        in
        let input_contrib = ref 0. and inherited_suspect = ref false in
        List.iter2
          (fun attrs key ->
            let in_pos = positions schema attrs in
            List.iter
              (fun s ->
                if Tuple.equal (Tuple.project s in_pos) key then
                  match TM.find_opt s input.ann with
                  | None -> ()
                  | Some c ->
                      input_contrib := !input_contrib +. c.mu;
                      if c.suspect then inherited_suspect := true)
              (Urelation.possible_tuples u))
          conf_args keys;
        let err = cap (decision.error_bound +. !input_contrib) in
        let suspect =
          decision.hit_round_limit || decision.used_floor || !inherited_suspect
        in
        let mu = if decision.value then err else 0. in
        if mu > 0. || suspect then cells := TM.add cand { mu; suspect } !cells;
        if decision.value then
          selected := (Assignment.empty, cand) :: !selected)
      candidates;
    { urel = Urelation.make cand_schema !selected; ann = !cells }

  let aconf ~compile_fuel ~rng w { Ua.eps; delta }
      (a : cell TM.t Eval_exact.node) : cell TM.t Eval_exact.node =
    let groups = Urelation.clauses_by_tuple a.urel in
    let estimates = Array.make (List.length groups) 0. in
    let summary =
      Pqdb_montecarlo.Confidence.run_stream ~compile_fuel rng w
        (Array.of_list (List.map snd groups))
        ~eps ~delta
        ~emit:(fun (o : Pqdb_montecarlo.Shard.outcome) ->
          Array.blit o.estimates 0 estimates o.shard.first o.shard.count)
    in
    assert summary.Pqdb_montecarlo.Confidence.stream_complete;
    let rows =
      List.mapi
        (fun i (t, _) ->
          Tuple.concat t (Tuple.of_list [ V.Float estimates.(i) ]))
        groups
    in
    let cells =
      List.fold_left2
        (fun cells (t, _) row ->
          let input = TM.find_opt t a.ann in
          let mu =
            match input with
            | Some c when c.mu > 0. -> cap (c.mu +. delta)
            | _ -> delta
          in
          let suspect = match input with Some c -> c.suspect | None -> false in
          TM.add row { mu; suspect } cells)
        TM.empty groups rows
    in
    { urel = Eval_exact.with_p a.urel (Array.of_list rows); ann = cells }

  (* Errors along the result's possible tuples, and the suspects. *)
  let eval ~compile_fuel ~max_rounds ~sigma_delta ~seed udb q =
    let rng = Pqdb_numeric.Rng.create ~seed in
    let w = Udb.wtable udb in
    let a =
      Eval_exact.walk
        {
          leaf = (fun _ _ -> TM.empty);
          unary = unary ~merge;
          binary = binary ~merge;
          aconf = Some (aconf ~compile_fuel ~rng w);
          sigma_hat =
            Some (sigma_hat ~compile_fuel ~max_rounds ~sigma_delta ~rng w);
        }
        udb q
    in
    ( List.map
        (fun t ->
          (t, match TM.find_opt t a.ann with Some c -> c.mu | None -> 0.))
        (Urelation.possible_tuples a.urel),
      List.filter_map
        (fun (t, c) -> if c.suspect then Some t else None)
        (TM.bindings a.ann) )
end

(* Random queries over an [events(id, tag, score)], [tags(tag, weight)]
   database: σ, π, ⋈, ×, ∪, conf, σ̂ and aconf, each node's schema
   tracked so every query is well formed. *)
let query_gen =
  let open QCheck.Gen in
  let subset attrs =
    map
      (fun keep ->
        match List.filteri (fun i _ -> List.nth keep i) attrs with
        | [] -> [ List.hd attrs ]
        | some -> some)
      (list_repeat (List.length attrs) bool)
  in
  let primed = List.map (fun a -> (a, a ^ "2")) in
  (* A selection that keeps some tuples and drops others. *)
  let restrict q attrs =
    if List.mem "tag" attrs then
      Ua.select Predicate.(Expr.attr "tag" <> Expr.const (V.Str "alpha")) q
    else if List.mem "score" attrs then
      Ua.select Predicate.(Expr.attr "score" >= Expr.const (V.Float 0.5)) q
    else q
  in
  let rec go depth =
    let leaf =
      oneofl
        [
          (Ua.table "events", [ "id"; "tag"; "score" ]);
          (Ua.table "tags", [ "tag"; "weight" ]);
        ]
    in
    if depth = 0 then leaf
    else
      let sub = go (depth - 1) in
      frequency
        [
          (1, leaf);
          (2, map (fun (q, attrs) -> (restrict q attrs, attrs)) sub);
          ( 3,
            sub >>= fun (q, attrs) ->
            map (fun keep -> (Ua.project keep q, keep)) (subset attrs) );
          ( 3,
            map2
              (fun (a, sa) (b, sb) ->
                ( Ua.join a b,
                  sa @ List.filter (fun x -> not (List.mem x sa)) sb ))
              sub sub );
          ( 1,
            map2
              (fun (a, sa) (b, sb) ->
                if List.exists (fun x -> List.mem (x ^ "2") sa) sb then (a, sa)
                else
                  ( Ua.product a (Ua.rename (primed sb) b),
                    sa @ List.map (fun x -> x ^ "2") sb ))
              sub sub );
          ( 3,
            (* Two subqueries over one schema, so ∪ meets annotations from
               both sides. *)
            sub >>= fun (q, attrs) ->
            map
              (fun keep ->
                ( Ua.union (Ua.project keep q)
                    (Ua.project keep (restrict q attrs)),
                  keep ))
              (subset attrs) );
          ( 1,
            map
              (fun (q, attrs) ->
                if List.mem "P" attrs then (q, attrs)
                else (Ua.conf q, attrs @ [ "P" ]))
              sub );
          ( 2,
            sub >>= fun (q, attrs) ->
            map2
              (fun keep threshold ->
                ( Ua.approx_select
                    (Apred.ge (Apred.var 0) (Apred.const threshold))
                    [ keep ] q,
                  keep ))
              (subset attrs)
              (oneofl [ 0.3; 0.5; 0.7 ]) );
          ( 2,
            (* Distinct δs, so three bounds meeting at one tuple add to
               different bits in different orders. *)
            map2
              (fun (q, attrs) delta ->
                if List.mem "P" attrs then (q, attrs)
                else (Ua.approx_conf ~eps:0.2 ~delta q, attrs @ [ "P" ]))
              sub
              (oneofl [ 0.011; 0.023; 0.037; 0.0041 ]) );
        ]
  in
  go 3

let float_bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Round caps: 2 leaves suspects, some of them rejected; 300 at a small δ
   gives decisions small, distinct bounds, so three meeting at one π output
   add to different bits in different orders. *)
let prop_table_matches_map_rules =
  QCheck.Test.make ~name:"annotation table = balanced-map rules" ~count:300
    (QCheck.make
       ~print:(fun (seed, max_rounds, (q, _)) ->
         Format.asprintf "seed %d, %d rounds: %a" seed max_rounds Ua.pp q)
       QCheck.Gen.(triple (int_range 0 10_000) (oneofl [ 2; 300 ]) query_gen))
    (fun (seed, max_rounds, (q, _)) ->
      let udb =
        Pqdb_workload.Gen.uncertain_db
          (Pqdb_numeric.Rng.create ~seed)
          ~tuples:(2 + (seed mod 7)) ~clauses:3
      in
      match Provenance.compute (Udb.copy udb) q with
      | exception Pqdb.Eval_exact.Unsupported _ -> QCheck.assume_fail ()
      | p ->
          let reference = Map_rules.leaves (Udb.copy udb) q in
          let tuples = Urelation.possible_tuples (Provenance.result p) in
          let same_leaves =
            List.for_all
              (fun t ->
                List.equal
                  (fun x y -> Provenance.leaf_compare x y = 0)
                  (Provenance.leaves p t)
                  (Map_rules.LS.elements
                     (Option.value ~default:Map_rules.LS.empty
                        (Map_rules.TM.find_opt t reference))))
              tuples
          in
          let compile_fuel = 0 and sigma_delta = 0.003 in
          let r, _ =
            Pqdb.Eval_approx.eval ~compile_fuel ~max_rounds ~sigma_delta
              ~rng:(Pqdb_numeric.Rng.create ~seed) (Udb.copy udb) q
          in
          let errors, suspects =
            Map_rules.eval ~compile_fuel ~max_rounds ~sigma_delta ~seed
              (Udb.copy udb) q
          in
          same_leaves
          && List.equal
               (fun (s, e) (t, f) -> Tuple.equal s t && float_bits_equal e f)
               r.errors errors
          && List.equal Tuple.equal r.suspects suspects)

(* π over σ̂ on [id, tag] gathers several selected ids' small, distinct
   bounds into each tag: three or more of them add to different bits in
   different orders, so these runs pin the order the rules promise. *)
let test_projection_sums_in_order () =
  let q =
    Ua.project [ "tag" ]
      (Ua.approx_select
         (Apred.ge (Apred.var 0) (Apred.const 0.5))
         [ [ "id"; "tag" ] ] (Ua.table "events"))
  in
  for seed = 0 to 19 do
    let udb =
      Pqdb_workload.Gen.uncertain_db
        (Pqdb_numeric.Rng.create ~seed)
        ~tuples:16 ~clauses:3
    in
    let compile_fuel = 0 and max_rounds = 300 and sigma_delta = 0.003 in
    let r, _ =
      Pqdb.Eval_approx.eval ~compile_fuel ~max_rounds ~sigma_delta
        ~rng:(Pqdb_numeric.Rng.create ~seed) (Udb.copy udb) q
    in
    let errors, _ =
      Map_rules.eval ~compile_fuel ~max_rounds ~sigma_delta ~seed
        (Udb.copy udb) q
    in
    check bool_c (Printf.sprintf "seed %d: same bits" seed) true
      (List.equal
         (fun (s, e) (t, f) -> Tuple.equal s t && float_bits_equal e f)
         r.errors errors)
  done

(* Every word [f] allocates, minor heap and major heap alike. *)
let allocated_words f =
  let minor = Gc.minor_words () and before = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  let after = Gc.quick_stat () in
  Gc.minor_words () -. minor
  +. (after.major_words -. before.major_words)
  -. (after.promoted_words -. before.promoted_words)

let test_table_allocation () =
  (* 1 500 ascending base tuples, each joined with one of ten rows. *)
  let rows = 1500 in
  let udb = Udb.create () in
  Udb.add_complete udb "R"
    (Relation.of_rows [ "A"; "B" ]
       (List.init rows (fun i -> [ V.Int i; V.Int (i mod 10) ])));
  Udb.add_complete udb "S"
    (Relation.of_rows [ "B"; "C" ]
       (List.init 10 (fun j -> [ V.Int j; V.Int (100 + j) ])));
  let per_row q =
    allocated_words (fun () -> Provenance.compute udb q) /. float_of_int rows
  in
  let leaves = per_row (Ua.table "R") in
  let join = per_row (Ua.join (Ua.table "R") (Ua.table "S")) in
  (* A leaf table is one entry per tuple, its set and its leaf (20 words
     per row); the join adds the translated join, the index probe, the
     joined tuple and the merged set (101).  A balanced map's path copies
     per insertion and an all-pairs fold exceed these: about 90 and 605
     words per row. *)
  check bool_c (Printf.sprintf "leaf table: %.1f words per row" leaves) true
    (leaves <= 40.);
  check bool_c (Printf.sprintf "annotated join: %.1f words per row" join) true
    (join <= 120.)

let () =
  Alcotest.run "provenance"
    [
      ( "lineage (Section 6)",
        [
          Alcotest.test_case "select preserves" `Quick test_select_preserves;
          Alcotest.test_case "projection fan-in" `Quick test_projection_fanin;
          Alcotest.test_case "join unions components" `Quick
            test_join_unions_components;
          Alcotest.test_case "union merges occurrences" `Quick
            test_union_merges;
          Alcotest.test_case "sigma-hat leaves" `Quick test_sigma_hat_is_leaf;
          Alcotest.test_case "result matches exact eval" `Quick
            test_provenance_result_matches_exact;
          Alcotest.test_case "Example 6.5 whole-input provenance" `Quick
            test_example_6_5_shape;
        ] );
      ( "annotation table",
        [
          QCheck_alcotest.to_alcotest prop_table_matches_map_rules;
          Alcotest.test_case "π sums bounds in input order" `Quick
            test_projection_sums_in_order;
          Alcotest.test_case "allocation guard" `Quick test_table_allocation;
        ] );
      ( "vertical decomposition",
        [
          Alcotest.test_case "sizes" `Quick test_vertical_sizes;
          Alcotest.test_case "exponential gap" `Quick
            test_vertical_exponential_gap;
          Alcotest.test_case "semantics" `Quick test_vertical_semantics;
          Alcotest.test_case "validation" `Quick test_vertical_validation;
        ] );
    ]
