(* Sign-magnitude arbitrary-precision integers over base-2^30 limbs.

   Representation invariants:
   - [mag] is little-endian, each limb in [0, 2^30), no trailing zero limb;
   - [sign] is -1, 0 or 1, and [sign = 0] iff [mag] is empty.

   Limb products fit OCaml's 63-bit native ints: 2^30 * 2^30 + carries < 2^62. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let k = top n in
  if k = 0 then zero
  else if k = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 k }

let of_int n =
  if n = 0 then zero
  else begin
    (* Accumulate on the negative side: [abs min_int] overflows, but every
       native int has a representable negation-free path via [m <= 0]. *)
    let sign = if n < 0 then -1 else 1 in
    let rec limbs acc m =
      if m = 0 then acc else limbs (-(m mod base) :: acc) (m / base)
    in
    let m = if n < 0 then n else -n in
    let mag_list = List.rev (limbs [] m) in
    normalize sign (Array.of_list mag_list)
  end

let one = of_int 1
let is_zero x = x.sign = 0
let sign x = x.sign

(* Compare magnitudes only. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then cmp_mag x.mag y.mag
  else cmp_mag y.mag x.mag

let equal x y = compare x y = 0

let hash x =
  Array.fold_left (fun h limb -> (h * 31) + limb) (x.sign + 7) x.mag
  land max_int

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then normalize x.sign (add_mag x.mag y.mag)
  else begin
    match cmp_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> normalize x.sign (sub_mag x.mag y.mag)
    | _ -> normalize y.sign (sub_mag y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else begin
    let la = Array.length x.mag and lb = Array.length y.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = x.mag.(i) in
      for j = 0 to lb - 1 do
        let t = (ai * y.mag.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land base_mask;
        carry := t lsr base_bits
      done;
      (* Propagate the final carry, which may itself exceed one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land base_mask;
        carry := t lsr base_bits;
        incr k
      done
    done;
    normalize (x.sign * y.sign) r
  end

let num_bits x =
  let n = Array.length x.mag in
  if n = 0 then 0
  else begin
    let top = x.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0
  end

let bit_at mag i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

(* Binary long division on magnitudes: O(bits(a) * limbs(b)).  Numbers in
   this codebase stay small (probability numerators of a few hundred bits),
   so the simple algorithm is the right trade-off against Knuth D. *)
let divmod_mag a b =
  let nb = num_bits { sign = 1; mag = a } in
  let q = Array.make (Array.length a) 0 in
  (* Remainder as a mutable little-endian buffer with explicit length. *)
  let r = Array.make (Array.length b + 1) 0 in
  let shift_in_bit bit =
    (* r := r*2 + bit *)
    let carry = ref bit in
    for i = 0 to Array.length r - 1 do
      let t = (r.(i) lsl 1) lor !carry in
      r.(i) <- t land base_mask;
      carry := t lsr base_bits
    done;
    assert (!carry = 0)
  in
  let r_ge_b () =
    let lb = Array.length b in
    let rec go i =
      if i < 0 then true
      else begin
        let ri = if i < Array.length r then r.(i) else 0 in
        let bi = if i < lb then b.(i) else 0 in
        if ri <> bi then ri > bi else go (i - 1)
      end
    in
    go (Array.length r - 1)
  in
  let r_sub_b () =
    let borrow = ref 0 in
    for i = 0 to Array.length r - 1 do
      let bi = if i < Array.length b then b.(i) else 0 in
      let d = r.(i) - bi - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    assert (!borrow = 0)
  in
  for i = nb - 1 downto 0 do
    shift_in_bit (bit_at a i);
    if r_ge_b () then begin
      r_sub_b ();
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
  done;
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) q in
    let r = normalize a.sign r in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left"
  else if n = 0 || is_zero x then x
  else begin
    let limbs = n / base_bits and off = n mod base_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let t = x.mag.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (t land base_mask);
      r.(i + limbs + 1) <- t lsr base_bits
    done;
    normalize x.sign r
  end

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right"
  else if n = 0 || is_zero x then x
  else begin
    let limbs = n / base_bits and off = n mod base_bits in
    let la = Array.length x.mag in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = x.mag.(i + limbs) lsr off in
        let hi =
          if off = 0 || i + limbs + 1 >= la then 0
          else (x.mag.(i + limbs + 1) lsl (base_bits - off)) land base_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize x.sign r
    end
  end

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow"
  else begin
    let rec go acc b n =
      if n = 0 then acc
      else begin
        let acc = if n land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (n lsr 1)
      end
    in
    go one x n
  end

let to_int_opt x =
  if num_bits x <= 62 then begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end
  else None

let to_float x =
  let m =
    Array.fold_right
      (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
      x.mag 0.
  in
  if x.sign < 0 then -.m else m

(* Decimal conversion via repeated division by 10^9 (fits one limb pair). *)
let chunk = 1_000_000_000

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 32 in
    let chunks = ref [] in
    let cur = ref (abs x) in
    let big_chunk = of_int chunk in
    while not (is_zero !cur) do
      let q, r = divmod !cur big_chunk in
      let r = match to_int_opt r with Some v -> v | None -> assert false in
      chunks := r :: !chunks;
      cur := q
    done;
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> assert false
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_sign then neg !acc else !acc

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
