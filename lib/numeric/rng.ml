type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66d |]
let split t = Random.State.make [| Random.State.bits t; Random.State.bits t |]

type lanes = { a : int; b : int; count : int }

let draw_lanes t count =
  let a = Random.State.bits t and b = Random.State.bits t in
  { a; b; count }

let lanes t n =
  if n <= 0 then invalid_arg "Rng.lanes: n must be positive";
  draw_lanes t n

let lane l i =
  if i < 0 || i >= l.count then invalid_arg "Rng.lane: index out of range";
  Random.State.make [| l.a; l.b; i; 0x9e3779b9 |]

let split_n t n =
  if n <= 0 then invalid_arg "Rng.split_n: n must be positive";
  let l = draw_lanes t n in
  Array.init n (lane l)
let copy = Random.State.copy
let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let float_range t lo hi = lo +. Random.State.float t (hi -. lo)
let bool t = Random.State.bool t

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float t 1. < p

module Discrete = struct
  type dist = { cumulative : float array; total : float }

  let of_weights weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Rng.Discrete.of_weights: empty";
    let cumulative = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      if weights.(i) < 0. then
        invalid_arg "Rng.Discrete.of_weights: negative weight";
      acc := !acc +. weights.(i);
      cumulative.(i) <- !acc
    done;
    if !acc <= 0. then invalid_arg "Rng.Discrete.of_weights: zero total";
    { cumulative; total = !acc }

  let total d = d.total
  let size d = Array.length d.cumulative

  let sample t d =
    let x = Random.State.float t d.total in
    (* Smallest index with cumulative.(i) > x. *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if d.cumulative.(mid) > x then search lo mid else search (mid + 1) hi
      end
    in
    search 0 (Array.length d.cumulative - 1)
end

module Alias = struct
  type dist = { prob : float array; alias : int array; total : float }

  (* Vose's stable construction: scale weights to mean 1, then pair each
     deficient column with a surplus one. *)
  let of_weights weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Rng.Alias.of_weights: empty";
    let total = ref 0. in
    Array.iter
      (fun w ->
        if w < 0. then invalid_arg "Rng.Alias.of_weights: negative weight";
        total := !total +. w)
      weights;
    if !total <= 0. then invalid_arg "Rng.Alias.of_weights: zero total";
    let scale = float_of_int n /. !total in
    let scaled = Array.map (fun w -> w *. scale) weights in
    let prob = Array.make n 1. in
    let alias = Array.init n Fun.id in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri
      (fun i p -> Stack.push i (if p < 1. then small else large))
      scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small and l = Stack.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) -. (1. -. scaled.(s));
      Stack.push l (if scaled.(l) < 1. then small else large)
    done;
    (* Leftover columns are 1 up to rounding; prob is already 1 there. *)
    { prob; alias; total = !total }

  let total d = d.total
  let size d = Array.length d.prob

  (* For a power-of-two [n], [Random.State.int t n] takes one [bits] draw
     and never rejects it, so its low bits are the same draw. *)
  let sample t d =
    let n = Array.length d.prob in
    let i =
      if n land (n - 1) = 0 then Random.State.bits t land (n - 1)
      else Random.State.int t n
    in
    if Random.State.float t 1. < d.prob.(i) then i else d.alias.(i)
end
