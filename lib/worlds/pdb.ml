open Pqdb_numeric
open Pqdb_relational

type world = (string * Relation.t) list

type t = {
  complete : string list;
  worlds : (world * Rational.t) list;
}

let sort_world w = List.sort (fun (a, _) (b, _) -> String.compare a b) w

let of_complete rels =
  let w = sort_world rels in
  { complete = List.map fst w; worlds = [ (w, Rational.one) ] }

let validate complete worlds =
  (match worlds with
  | [] -> invalid_arg "Pdb: no possible worlds"
  | _ -> ());
  let total =
    List.fold_left
      (fun acc (_, p) ->
        if Rational.sign p <= 0 then
          invalid_arg "Pdb: world probability must be positive"
        else Rational.add acc p)
      Rational.zero worlds
  in
  if not (Rational.equal total Rational.one) then
    invalid_arg "Pdb: world probabilities must sum to 1";
  let first = fst (List.hd worlds) in
  let names = List.map fst first in
  List.iter
    (fun (w, _) ->
      if List.map fst w <> names then
        invalid_arg "Pdb: worlds disagree on relation names";
      List.iter2
        (fun (_, r0) (_, r) ->
          if not (Schema.equal (Relation.schema r0) (Relation.schema r)) then
            invalid_arg "Pdb: worlds disagree on a relation schema")
        first w)
    worlds;
  List.iter
    (fun c ->
      if not (List.mem c names) then
        invalid_arg ("Pdb: unknown complete relation " ^ c);
      let r0 = List.assoc c first in
      List.iter
        (fun (w, _) ->
          if not (Relation.equal (List.assoc c w) r0) then
            invalid_arg ("Pdb: complete relation " ^ c ^ " differs across worlds"))
        worlds)
    complete

let of_worlds ~complete worlds =
  let worlds = List.map (fun (w, p) -> (sort_world w, p)) worlds in
  validate complete worlds;
  { complete = List.sort String.compare complete; worlds }

let worlds t = t.worlds
let relation_names t = List.map fst (fst (List.hd t.worlds))
let world_count t = List.length t.worlds
let is_complete t name = List.mem name t.complete
let find w name = match List.assoc_opt name w with
  | Some r -> r
  | None -> raise Not_found

let tensor a b =
  let names_a = relation_names a and names_b = relation_names b in
  List.iter
    (fun n ->
      if List.mem n names_a then
        invalid_arg ("Pdb.tensor: relation name clash on " ^ n))
    names_b;
  let worlds =
    List.concat_map
      (fun (wa, pa) ->
        List.map
          (fun (wb, pb) -> (sort_world (wa @ wb), Rational.mul pa pb))
          b.worlds)
      a.worlds
  in
  { complete = List.sort String.compare (a.complete @ b.complete); worlds }

let compare_world (a : world) (b : world) =
  let c = Stdlib.compare (List.map fst a) (List.map fst b) in
  if c <> 0 then c
  else
    List.fold_left2
      (fun acc (_, ra) (_, rb) ->
        if acc <> 0 then acc else Relation.compare ra rb)
      0 a b

let normalize t =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare_world a b) t.worlds
  in
  let rec merge = function
    | [] -> []
    | (w, p) :: rest -> begin
        match merge rest with
        | (w', p') :: tail when compare_world w w' = 0 ->
            (w, Rational.add p p') :: tail
        | tail -> (w, p) :: tail
      end
  in
  { t with worlds = merge sorted }

type prel = (Relation.t * Rational.t) list

let normalize_prel prel =
  let sorted = List.sort (fun (a, _) (b, _) -> Relation.compare a b) prel in
  let rec merge = function
    | [] -> []
    | (r, p) :: (r', p') :: rest when Relation.compare r r' = 0 ->
        merge ((r, Rational.add p p') :: rest)
    | x :: rest -> x :: merge rest
  in
  List.filter (fun (_, p) -> Rational.sign p > 0) (merge sorted)

let equal_prel a b =
  let a = normalize_prel a and b = normalize_prel b in
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa) (rb, pb) ->
         Relation.compare ra rb = 0 && Rational.equal pa pb)
       a b

let confidence prel =
  let table = Tuple.Table.create 64 in
  let order = ref [] in
  List.iter
    (fun (r, p) ->
      Relation.iter
        (fun t ->
          match Tuple.Table.find_opt table t with
          | Some (t0, acc) ->
              Tuple.Table.replace table t (t0, Rational.add acc p)
          | None ->
              order := t :: !order;
              Tuple.Table.add table t (t, p))
        r)
    prel;
  List.rev_map (fun t -> Tuple.Table.find table t) !order

let confidence_of prel tuple =
  List.fold_left
    (fun acc (r, p) -> if Relation.mem r tuple then Rational.add acc p else acc)
    Rational.zero prel

let weight_of value =
  match Value.to_rational_opt value with
  | Some r when Rational.sign r > 0 -> r
  | Some _ -> invalid_arg "repair-key: weight must be positive"
  | None -> begin
      match value with
      | Value.Float f when f > 0. -> Rational.of_float f
      | _ -> invalid_arg "repair-key: weight must be a positive number"
    end

let repair_key ~key ~weight rel =
  let schema = Relation.schema rel in
  let weight_idx = Schema.index schema weight in
  let groups = Algebra.group_by key rel in
  let group_choices =
    List.map
      (fun (_, group) ->
        let tuples = Relation.tuples group in
        let total =
          Rational.sum (List.map (fun t -> weight_of (Tuple.get t weight_idx)) tuples)
        in
        List.map
          (fun t ->
            (t, Rational.div (weight_of (Tuple.get t weight_idx)) total))
          tuples)
      groups
  in
  (* Cartesian product: one choice per group. *)
  let empty = Relation.empty schema in
  let init = [ (empty, Rational.one) ] in
  let repairs =
    List.fold_left
      (fun acc choices ->
        List.concat_map
          (fun (r, p) ->
            List.map
              (fun (t, pt) -> (Relation.add r t, Rational.mul p pt))
              choices)
          acc)
      init group_choices
  in
  normalize_prel repairs
