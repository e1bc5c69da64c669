type comparison = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | Cmp of comparison * Expr.t * Expr.t
  | And of t * t
  | Or of t * t
  | Not of t
  | True
  | False

let eval_cmp op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec eval schema tuple = function
  | Cmp (op, x, y) ->
      eval_cmp op (Expr.eval schema tuple x) (Expr.eval schema tuple y)
  | And (p, q) -> eval schema tuple p && eval schema tuple q
  | Or (p, q) -> eval schema tuple p || eval schema tuple q
  | Not p -> not (eval schema tuple p)
  | True -> true
  | False -> false

let attributes p =
  let rec go acc = function
    | Cmp (_, x, y) ->
        List.fold_left
          (fun acc a -> if List.mem a acc then acc else a :: acc)
          acc
          (Expr.attributes x @ Expr.attributes y)
    | And (p, q) | Or (p, q) -> go (go acc p) q
    | Not p -> go acc p
    | True | False -> acc
  in
  List.rev (go [] p)

let check schema p =
  List.iter (fun a -> ignore (Schema.index schema a)) (attributes p)

let cmp_symbol = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp fmt = function
  | Cmp (op, x, y) ->
      Format.fprintf fmt "%a %s %a" Expr.pp x (cmp_symbol op) Expr.pp y
  | And (p, q) -> Format.fprintf fmt "(%a and %a)" pp p pp q
  | Or (p, q) -> Format.fprintf fmt "(%a or %a)" pp p pp q
  | Not p -> Format.fprintf fmt "(not %a)" pp p
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"

let negate_cmp = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let rec nnf = function
  | Cmp _ as atom -> atom
  | And (p, q) -> And (nnf p, nnf q)
  | Or (p, q) -> Or (nnf p, nnf q)
  | True -> True
  | False -> False
  | Not p -> begin
      match p with
      | Cmp (op, x, y) -> Cmp (negate_cmp op, x, y)
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b))
      | Not q -> nnf q
      | True -> False
      | False -> True
    end

(* Infix constructors last, so the shadowed Stdlib operators stay available
   to the implementations above. *)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Neq, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
