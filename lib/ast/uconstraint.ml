type t =
  | Fd of { table : string; key : string list; determined : string list }
  | Denial of Ua.t
  | Holds of Ua.t

let fd ~table ~key ~determined =
  if key = [] then invalid_arg "Uconstraint.fd: empty key";
  if determined = [] then invalid_arg "Uconstraint.fd: empty determined list";
  Fd { table; key; determined }

(* Constraints must denote events over the *current* world set: positive
   queries with no confidence computation, no approximation and no
   uncertainty introduction.  Anything else either is outside the fragment
   the Theorem 4.4 rewriting covers (Diff) or would change / sample the
   very distribution being conditioned (RepairKey, Conf, aconf, aselect). *)
let rec check_query q =
  let recurse = check_query in
  match q with
  | Ua.Table _ | Ua.Lit _ -> ()
  | Ua.Select (_, q) | Ua.Project (_, q) | Ua.Rename (_, q) -> recurse q
  | Ua.Product (a, b) | Ua.Join (a, b) | Ua.Union (a, b) ->
      recurse a;
      recurse b
  | Ua.Diff _ -> invalid_arg "constraint queries must be positive (no minus)"
  | Ua.Conf _ | Ua.ApproxConf _ ->
      invalid_arg "constraint queries must not compute confidences"
  | Ua.RepairKey _ ->
      invalid_arg "constraint queries must not introduce uncertainty"
  | Ua.Poss _ | Ua.Cert _ ->
      invalid_arg "constraint queries must not collapse the world set"
  | Ua.ApproxSelect _ ->
      invalid_arg "constraint queries must not approximate"

let validate = function
  | Fd { key; determined; _ } ->
      if key = [] || determined = [] then
        invalid_arg "Uconstraint: fd needs nonempty key and determined lists"
  | Denial q | Holds q -> check_query q

let equal (a : t) (b : t) = a = b

let pp fmt = function
  | Fd { table; key; determined } ->
      Format.fprintf fmt "fd[%s -> %s](%s)" (String.concat ", " key)
        (String.concat ", " determined)
        table
  | Denial q -> Format.fprintf fmt "empty(%a)" Ua.pp q
  | Holds q -> Format.fprintf fmt "(%a)" Ua.pp q

let to_string c = Format.asprintf "%a" pp c
