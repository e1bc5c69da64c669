open Pqdb_numeric
module Apred = Pqdb_ast.Apred

let safe_eval phi point =
  match Apred.eval point phi with
  | v -> Some v
  | exception _ -> None

let corners_agree phi ~point ~eps =
  match safe_eval phi point with
  | None -> false
  | Some center ->
      let orthotope = Interval.orthotope_relative ~eps point in
      Seq.for_all
        (fun corner ->
          Array.for_all Float.is_finite corner
          &&
          match safe_eval phi corner with
          | Some v -> v = center
          | None -> false)
        (Interval.corners orthotope)

let epsilon_search ?(iterations = 40) phi point =
  let eps_max = Linear_eps.eps_max in
  if corners_agree phi ~point ~eps:eps_max then eps_max
  else begin
    (* Invariant: corners agree at [lo], disagree at [hi]. *)
    let lo = ref 0. and hi = ref eps_max in
    for _ = 1 to iterations do
      let mid = (!lo +. !hi) /. 2. in
      if corners_agree phi ~point ~eps:mid then lo := mid else hi := mid
    done;
    !lo
  end

let homogeneous_on_samples rng phi ~point ~eps ~samples =
  match safe_eval phi point with
  | None -> false
  | Some center ->
      let orthotope = Interval.orthotope_relative ~eps point in
      let draw lo hi = Rng.float_range rng lo hi in
      let rec go n =
        if n = 0 then true
        else begin
          let x = Interval.sample draw orthotope in
          match safe_eval phi x with
          | Some v when v = center -> go (n - 1)
          | _ -> false
        end
      in
      go samples
