let digits = "0123456789abcdef"

(* Digits of a non-positive [k], most significant first: working on the
   negative side keeps [min_int] in range. *)
let rec add_neg_digits buf k =
  if k <> 0 then begin
    add_neg_digits buf (k / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (k mod 10)))
  end

let add_int buf n =
  if n = 0 then Buffer.add_char buf '0'
  else if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let mantissa_mask = (1 lsl 52) - 1

(* The layout of OCaml's ["%h"]: sign, ["0x"], the lead digit (0 only for
   zero and subnormals), the 52-bit mantissa as hex digits with trailing
   zeros dropped (no point when none are left), then ["p"] and the signed
   decimal binary exponent; non-finite values print as [infinity] and
   [nan] after the sign. *)
let add_float buf x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land mantissa_mask in
  if e = 0x7ff then Buffer.add_string buf (if m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if e = 0 then "0x0" else "0x1");
    if m <> 0 then begin
      Buffer.add_char buf '.';
      let r = ref m in
      while !r <> 0 do
        Buffer.add_char buf (String.unsafe_get digits (!r lsr 48));
        r := (!r lsl 4) land mantissa_mask
      done
    end;
    Buffer.add_char buf 'p';
    let exp = if e <> 0 then e - 1023 else if m = 0 then 0 else -1022 in
    if exp >= 0 then Buffer.add_char buf '+';
    add_int buf exp
  end

let to_string x =
  let buf = Buffer.create 24 in
  add_float buf x;
  Buffer.contents buf
