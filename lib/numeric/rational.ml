(* Rationals in lowest terms with positive denominator. *)

type t = { n : Bigint.t; d : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then { n = Bigint.zero; d = Bigint.one }
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    { n = Bigint.div num g; d = Bigint.div den g }
  end

let zero = { n = Bigint.zero; d = Bigint.one }
let one = { n = Bigint.one; d = Bigint.one }
let half = make Bigint.one (Bigint.of_int 2)
let of_int n = { n = Bigint.of_int n; d = Bigint.one }
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)
let num x = x.n
let den x = x.d
let sign x = Bigint.sign x.n
let is_zero x = Bigint.is_zero x.n
let neg x = { x with n = Bigint.neg x.n }
let abs x = { x with n = Bigint.abs x.n }

let inv x =
  if is_zero x then raise Division_by_zero
  else if Bigint.sign x.n < 0 then { n = Bigint.neg x.d; d = Bigint.neg x.n }
  else { n = x.d; d = x.n }

let add a b =
  make
    (Bigint.add (Bigint.mul a.n b.d) (Bigint.mul b.n a.d))
    (Bigint.mul a.d b.d)

let sub a b =
  make
    (Bigint.sub (Bigint.mul a.n b.d) (Bigint.mul b.n a.d))
    (Bigint.mul a.d b.d)

let mul a b = make (Bigint.mul a.n b.n) (Bigint.mul a.d b.d)
let div a b = mul a (inv b)

let pow x k =
  if k >= 0 then { n = Bigint.pow x.n k; d = Bigint.pow x.d k }
  else begin
    let y = inv x in
    { n = Bigint.pow y.n (-k); d = Bigint.pow y.d (-k) }
  end

(* Denominators are positive: over a common one the numerators decide. *)
let compare a b =
  if Bigint.equal a.d b.d then Bigint.compare a.n b.n
  else Bigint.compare (Bigint.mul a.n b.d) (Bigint.mul b.n a.d)

let equal a b = Bigint.equal a.n b.n && Bigint.equal a.d b.d
let hash x = (Bigint.hash x.n * 31) + Bigint.hash x.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sum = List.fold_left add zero
let product = List.fold_left mul one

let to_float x =
  (* For large operands, divide at bigint level first to preserve the
     leading 53 bits; small operands convert exactly. *)
  if Bigint.num_bits x.n <= 52 && Bigint.num_bits x.d <= 52 then
    Bigint.to_float x.n /. Bigint.to_float x.d
  else begin
    let shift = Stdlib.max 0 (64 + Bigint.num_bits x.d - Bigint.num_bits x.n) in
    let scaled = Bigint.div (Bigint.shift_left x.n shift) x.d in
    Bigint.to_float scaled /. (2. ** float_of_int shift)
  end

let to_string x =
  if Bigint.equal x.d Bigint.one then Bigint.to_string x.n
  else Bigint.to_string x.n ^ "/" ^ Bigint.to_string x.d

let pp fmt x = Format.pp_print_string fmt (to_string x)

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float: not finite"
  else if f = 0. then zero
  else begin
    let m, e = Float.frexp f in
    (* f = m * 2^e with 0.5 <= |m| < 1; scale mantissa to an integer. *)
    let mi = Int64.to_int (Int64.of_float (m *. 9007199254740992.)) in
    (* 2^53 *)
    let e = e - 53 in
    let n = Bigint.of_int mi in
    if e >= 0 then make (Bigint.shift_left n e) Bigint.one
    else make n (Bigint.shift_left Bigint.one (-e))
  end

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let n = Bigint.of_string (String.sub s 0 i) in
      let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make n d
  | None -> begin
      match String.index_opt s '.' with
      | None -> { n = Bigint.of_string s; d = Bigint.one }
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          let digits = String.length frac in
          let whole =
            Bigint.of_string
              (if int_part = "" || int_part = "-" || int_part = "+" then
                 int_part ^ "0"
               else int_part)
          in
          let negative = String.length s > 0 && s.[0] = '-' in
          let scale = Bigint.pow (Bigint.of_int 10) digits in
          let frac_num =
            if digits = 0 then Bigint.zero else Bigint.of_string frac
          in
          let mag =
            Bigint.add (Bigint.mul (Bigint.abs whole) scale) frac_num
          in
          make (if negative then Bigint.neg mag else mag) scale
    end

let is_proper_probability x = sign x >= 0 && compare x one <= 0
let complement x = sub one x
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
