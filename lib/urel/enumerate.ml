open Pqdb_numeric
open Pqdb_relational
open Pqdb_worlds

let total_assignments w vars =
  let rec go bound prob = function
    | [] ->
        let table = bound in
        let lookup v =
          match List.assoc_opt v table with
          | Some x -> x
          | None -> invalid_arg "Enumerate: variable not in scope"
        in
        [ (lookup, prob) ]
    | v :: rest ->
        let n = Wtable.domain_size w v in
        List.concat
          (List.init n (fun x ->
               go ((v, x) :: bound) (Rational.mul prob (Wtable.prob w v x)) rest))
  in
  go [] Rational.one vars

let world_of_assignment lookup u =
  Urelation.to_relation
    (Urelation.filter (fun (f, _) -> Assignment.extended_by lookup f) u)

let decode w u =
  let vars = Urelation.variables u in
  let assignments = total_assignments w vars in
  Pdb.normalize_prel
    (List.map
       (fun (lookup, p) -> (world_of_assignment lookup u, p))
       assignments)

let to_pdb udb =
  let w = Udb.wtable udb in
  let vars = Wtable.vars w in
  let assignments = total_assignments w vars in
  let worlds =
    List.map
      (fun (lookup, p) ->
        let rels =
          List.map
            (fun name -> (name, world_of_assignment lookup (Udb.find udb name)))
            (Udb.names udb)
        in
        (rels, p))
      assignments
  in
  let complete = List.filter (Udb.is_complete udb) (Udb.names udb) in
  Pdb.of_worlds ~complete worlds

let of_pdb pdb =
  let udb = Udb.create () in
  let worlds = Pdb.worlds pdb in
  match worlds with
  | [] -> udb
  | (first, _) :: _ ->
      let names = List.map fst first in
      let uncertain =
        List.filter (fun n -> not (Pdb.is_complete pdb n)) names
      in
      let selector =
        if uncertain = [] then None
        else
          Some
            (Wtable.add_var ~name:"world" (Udb.wtable udb)
               (List.map snd worlds))
      in
      List.iter
        (fun name ->
          if Pdb.is_complete pdb name then
            Udb.add_complete udb name (Pdb.find first name)
          else begin
            let var =
              match selector with Some v -> v | None -> assert false
            in
            let rows =
              List.concat
                (List.mapi
                   (fun i (world, _) ->
                     List.map
                       (fun t -> (Assignment.singleton var i, t))
                       (Relation.tuples (Pdb.find world name)))
                   worlds)
            in
            let schema = Relation.schema (Pdb.find first name) in
            Udb.add_urelation udb name (Urelation.make schema rows)
          end)
        names;
      udb
