type t =
  | Exact
  | Certain of float
  | Sampled of { eps : float; delta : float }
  | Bracket

let eps = function
  | Exact -> 0.
  | Certain e | Sampled { eps = e; _ } -> e
  | Bracket -> Float.infinity

let delta = function Sampled { delta; _ } -> delta | _ -> 0.

let split delta n =
  if n < 1 then invalid_arg "Guarantee.split";
  delta /. float_of_int n

(* The stopping rule and the Chernoff cap each fail with probability δ. *)
let pass ~eps ~delta = Sampled { eps; delta = 2. *. delta }

(* Two claims composed into one with relative error [e]: their failure
   probabilities add, and a finite ε with none is certain. *)
let compose a b e =
  let d = delta a +. delta b in
  if a = Exact && b = Exact then Exact
  else if d > 0. then Sampled { eps = e; delta = d }
  else if e < Float.infinity then Certain e
  else Bracket

let union a b = compose a b (Float.max (eps a) (eps b))

(* p̂ ∈ [(1−εp)p, (1+εp)p] and q̂ ∈ [(1−εq)q, (1+εq)q] only bound p̂ − q̂
   within an absolute εp·p + εq·q of p − q.  A zero operand contributes
   nothing, whatever its ε. *)
let difference ~p a ~q b =
  if not (p >= 0. && q >= 0.) then invalid_arg "Guarantee.difference";
  let term x c = if x = 0. then 0. else eps c *. x in
  compose a b
    (if p <= q then Float.infinity else (term p a +. term q b) /. (p -. q))

(* The worst quotient of the two brackets is (1+εn)/(1−εd) times the
   truth. *)
let ratio n d =
  let en = eps n and ed = eps d in
  compose n d
    (if ed >= 1. then Float.infinity else (en +. ed) /. (1. -. ed))

let meets c target =
  (c = Exact || target <> Exact)
  && eps c <= eps target
  && delta c <= delta target
