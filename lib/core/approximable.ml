open Pqdb_numeric
module Estimator = Pqdb_montecarlo.Estimator

type kind =
  | Karp_luby of Estimator.t
  | Exact of float
  | Sampler of sampler

and sampler = {
  values : float array;
  range : float;  (* max - min of the population *)
  lower_bound : float;
  batch : int;
  mutable sum : float;
  mutable draws : int;
}

type t = kind

let of_karp_luby est =
  if Estimator.is_degenerate est then Exact (Estimator.estimate est)
  else Karp_luby est

let constant v = Exact v

let of_sampler ?(batch = 16) ~lower_bound ~values () =
  if Array.length values = 0 then
    invalid_arg "Approximable.of_sampler: empty population";
  if lower_bound <= 0. then
    invalid_arg "Approximable.of_sampler: lower bound must be positive";
  if batch < 1 then invalid_arg "Approximable.of_sampler: batch must be positive";
  let lo = Array.fold_left Float.min values.(0) values in
  let hi = Array.fold_left Float.max values.(0) values in
  if hi -. lo <= 0. then Exact lo
  else
    Sampler
      { values; range = hi -. lo; lower_bound; batch; sum = 0.; draws = 0 }

let refine_by rng t n =
  match t with
  | Exact _ -> ()
  | Karp_luby est -> Estimator.batch rng est n
  | Sampler s ->
      for _ = 1 to n do
        s.sum <- s.sum +. s.values.(Rng.int rng (Array.length s.values));
        s.draws <- s.draws + 1
      done

let refine rng t =
  match t with
  | Exact _ -> ()
  | Karp_luby est -> Estimator.step_round rng est
  | Sampler s -> refine_by rng t s.batch

let estimate = function
  | Exact v -> v
  | Karp_luby est -> Estimator.estimate est
  | Sampler s -> if s.draws = 0 then 0. else s.sum /. float_of_int s.draws

let steps = function
  | Exact _ -> 0
  | Karp_luby est -> Estimator.trials est
  | Sampler s -> s.draws

let delta_bound t ~eps =
  match t with
  | Exact _ -> 0.
  | Karp_luby est -> Estimator.delta_bound est ~eps
  | Sampler s ->
      if s.draws = 0 then 1.
      else begin
        (* Hoeffding on the absolute error t = eps * lower_bound:
           P(|mean_hat - mean| >= t) <= 2 exp(-2 n t^2 / range^2). *)
        let t_abs = eps *. s.lower_bound in
        Float.min 1.
          (2.
          *. exp
               (-2. *. float_of_int s.draws *. t_abs *. t_abs
               /. (s.range *. s.range)))
      end

let is_exact = function Exact _ -> true | _ -> false
