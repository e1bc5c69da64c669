module Uconstraint = Pqdb_ast.Uconstraint

(* Insertion order is kept for display; semantics, equality and the
   fingerprint are order- and duplicate-insensitive, and read the
   constraints' values, never their printed form. *)
type t = Uconstraint.t list

let empty = []
let is_empty t = t = []

let add t c =
  Uconstraint.validate c;
  if List.exists (Uconstraint.equal c) t then t else t @ [ c ]

let of_list cs = List.fold_left add empty cs
let items t = t
let cardinal = List.length
let canonical t = List.sort_uniq compare t

let fingerprint t =
  match canonical t with
  | [] -> ""
  | cs -> Marshal.to_string cs [ Marshal.No_sharing ]

let equal a b = compare (canonical a) (canonical b) = 0

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
    Uconstraint.pp fmt t

let to_string t = Format.asprintf "%a" pp t
