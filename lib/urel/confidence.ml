open Pqdb_numeric

(* ------------------------------------------------------------------ *)
(* Brute force: enumerate total assignments of the variables of F.     *)
(* ------------------------------------------------------------------ *)

let by_enumeration w clauses =
  if List.exists Assignment.is_empty clauses then Rational.one
  else begin
    let vars =
      List.sort_uniq compare (List.concat_map Assignment.vars clauses)
    in
    let rec go acc bound = function
      | [] ->
          let lookup v = List.assoc v bound in
          if
            List.exists
              (fun f -> Assignment.extended_by lookup f)
              clauses
          then
            Rational.add acc
              (List.fold_left
                 (fun p (v, x) -> Rational.mul p (Wtable.prob w v x))
                 Rational.one bound)
          else acc
      | v :: rest ->
          let n = Wtable.domain_size w v in
          let rec each acc x =
            if x >= n then acc
            else each (go acc ((v, x) :: bound) rest) (x + 1)
          in
          each acc 0
    in
    if clauses = [] then Rational.zero else go Rational.zero [] vars
  end
