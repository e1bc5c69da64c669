open Pqdb_numeric

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Rat of Rational.t

let int n = Int n
let float f = Float f
let str s = Str s
let bool b = Bool b
let rat r = Rat r
let of_ints n d = Rat (Rational.of_ints n d)

let pp fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%s" s
  | Bool b -> Format.pp_print_bool fmt b
  | Rat r -> Rational.pp fmt r

let to_string v = Format.asprintf "%a" pp v

let parse s =
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> begin
      match String.index_opt s '/' with
      | Some _ -> ( try Rat (Rational.of_string s) with _ -> Str s)
      | None -> begin
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> begin
              match bool_of_string_opt s with
              | Some b -> Bool b
              | None -> Str s
            end
        end
    end

let to_float_opt = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | Rat r -> Some (Rational.to_float r)
  | Str _ | Bool _ -> None

let to_rational_opt = function
  | Int n -> Some (Rational.of_int n)
  | Rat r -> Some r
  | Float _ | Str _ | Bool _ -> None

(* Rank used to order values of different type families. *)
let rank = function
  | Int _ | Float _ | Rat _ -> 0
  | Str _ -> 1
  | Bool _ -> 2

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Rat x, Rat y -> Rational.compare x y
  | Int x, Rat y -> Rational.compare (Rational.of_int x) y
  | Rat x, Int y -> Rational.compare x (Rational.of_int y)
  | (Float _ | Int _ | Rat _), (Float _ | Int _ | Rat _) -> begin
      match (to_float_opt a, to_float_opt b) with
      | Some x, Some y -> Stdlib.compare x y
      | _ -> assert false
    end
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Equality is numeric across Int/Float/Rat (Int 1 = Float 1. = Rat 1/1), so
   numeric values must hash through a representation-independent image: their
   float value.  Rationals are kept in lowest terms, so equal rationals have
   identical floats; ints beyond 2^53 may collide with neighbours, which is
   harmless for hashing. *)
let hash v =
  match v with
  | Int _ | Float _ | Rat _ -> begin
      match to_float_opt v with
      | Some f -> Hashtbl.hash f
      | None -> assert false
    end
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

let numeric_error op = invalid_arg ("Value." ^ op ^ ": non-numeric operand")

(* Apply a binary arithmetic operation with tower promotion. *)
let arith op fi fr ff a b =
  match (a, b) with
  | Int x, Int y -> fi x y
  | Rat x, Rat y -> Rat (fr x y)
  | Int x, Rat y -> Rat (fr (Rational.of_int x) y)
  | Rat x, Int y -> Rat (fr x (Rational.of_int y))
  | (Float _ | Int _ | Rat _), (Float _ | Int _ | Rat _) -> begin
      match (to_float_opt a, to_float_opt b) with
      | Some x, Some y -> Float (ff x y)
      | _ -> assert false
    end
  | _ -> numeric_error op

let add = arith "add" (fun x y -> Int (x + y)) Rational.add ( +. )
let sub = arith "sub" (fun x y -> Int (x - y)) Rational.sub ( -. )
let mul = arith "mul" (fun x y -> Int (x * y)) Rational.mul ( *. )

let div =
  arith "div"
    (fun x y ->
      if y = 0 then raise Division_by_zero
      else Rat (Rational.of_ints x y))
    Rational.div
    (fun x y -> x /. y)

let neg = function
  | Int n -> Int (-n)
  | Float f -> Float (-.f)
  | Rat r -> Rat (Rational.neg r)
  | Str _ | Bool _ -> numeric_error "neg"
