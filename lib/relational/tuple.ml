type t = Value.t array

let of_list = Array.of_list
let of_array = Array.copy
let to_list = Array.to_list
let arity = Array.length
let get t i = t.(i)
let rec fill out t i = function
  | [] -> out
  | p :: ps ->
      out.(i) <- t.(p);
      fill out t (i + 1) ps

let project t positions =
  match positions with
  | [] -> [||]
  | p :: _ -> fill (Array.make (List.length positions) t.(p)) t 0 positions
let concat = Array.append

(* Top-level, so a comparison allocates no closure.  Value.compare x x = 0
   for every x (NaN too), so values shared by two tuples skip it. *)
let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = if a.(i) == b.(i) then 0 else Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb else compare_from a b 0

let equal a b = compare a b = 0

let hash t =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t land max_int

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp fmt t =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
       Value.pp)
    (to_list t)
