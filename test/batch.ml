(* Batch confidence runs for the tests: a small shared batch, the
   [Shard.outcome]s [Confidence.run_stream] (or a coordinator) emits joined
   in plan order into one outcome over the whole batch or collected into
   per-tuple arrays, their bitwise comparison, and the soundness check of
   the brackets against exact confidences. *)

open Pqdb_urel
open Pqdb_montecarlo
module Q = Pqdb_numeric.Rational

(* A 3-clause DNF (p = 0.88), a single Bernoulli clause (p = 0.5), a
   certain and an impossible tuple. *)
let fixture () =
  let w = Wtable.create () in
  let x = Wtable.add_var w [ Q.of_ints 3 10; Q.of_ints 7 10 ] in
  let y = Wtable.add_var w [ Q.of_ints 1 2; Q.of_ints 1 2 ] in
  let z = Wtable.add_var w [ Q.of_ints 4 5; Q.of_ints 1 5 ] in
  let clause_sets =
    [|
      [
        Assignment.singleton x 1;
        Assignment.of_list [ (y, 1); (z, 0) ];
        Assignment.of_list [ (x, 0); (z, 1) ];
      ];
      [ Assignment.singleton y 1 ];
      [ Assignment.empty ];
      [];
    |]
  in
  (w, clause_sets)

(* Per-tuple arrays concatenated in batch order; complete when every shard
   was, and the first quarantine, if any. *)
let join (os : Shard.outcome list) : Shard.outcome =
  let cat f = Array.concat (List.map f os) in
  let estimates = cat (fun o -> o.Shard.estimates) in
  {
    shard =
      {
        index = 0;
        first = 0;
        count = Array.length estimates;
        cost = List.fold_left (fun acc o -> acc + o.Shard.shard.cost) 0 os;
      };
    fp = "";
    estimates;
    intervals = cat (fun o -> o.intervals);
    trials = cat (fun o -> o.trials);
    achieved = cat (fun o -> o.achieved);
    masses = cat (fun o -> o.masses);
    complete = List.for_all (fun o -> o.Shard.complete) os;
    resumed = false;
    quarantined = List.find_map (fun o -> o.Shard.quarantined) os;
  }

let bits = Int64.bits_of_float

(* An [emit] that materializes the emitted outcomes into per-tuple arrays
   (estimate, lo, hi, trials) plus the emission order (shard indexes, last
   first), so runs can be compared bitwise. *)
let collector n =
  let est = Array.make n nan in
  let lo = Array.make n nan in
  let hi = Array.make n nan in
  let tr = Array.make n (-1) in
  let order = ref [] in
  let emit (o : Shard.outcome) =
    order := o.Shard.shard.Shard.index :: !order;
    Array.iteri
      (fun j e ->
        let i = o.Shard.shard.Shard.first + j in
        est.(i) <- e;
        tr.(i) <- o.Shard.trials.(j);
        let l, h = o.Shard.intervals.(j) in
        lo.(i) <- l;
        hi.(i) <- h)
      o.Shard.estimates
  in
  (emit, est, lo, hi, tr, order)

(* Two collected runs agree bit for bit. *)
let check_same name (est, lo, hi, tr) (est', lo', hi', tr') =
  let fcmp what a b =
    Array.iteri
      (fun i x ->
        Alcotest.check Alcotest.int64
          (Printf.sprintf "%s: %s slot %d" name what i)
          (bits x) (bits b.(i)))
      a
  in
  fcmp "estimate" est est';
  fcmp "lo" lo lo';
  fcmp "hi" hi hi';
  Alcotest.check (Alcotest.array Alcotest.int) (name ^ ": trials") tr tr'

let stream ?budget ?nworkers ?compile_fuel ?options rng w clause_sets ~eps
    ~delta =
  let os = ref [] in
  let summary =
    Confidence.run_stream ?budget ?nworkers ?compile_fuel ?options rng w
      clause_sets ~eps ~delta ~emit:(fun o -> os := o :: !os)
  in
  (join (List.rev !os), summary)

(* The whole batch as one shard: one pool run under one governor. *)
let whole ?budget ?nworkers ?compile_fuel rng w clause_sets ~eps ~delta =
  let options =
    { Confidence.default_stream_options with shard_cost = max_int }
  in
  fst
    (stream ?budget ?nworkers ?compile_fuel ~options rng w clause_sets ~eps
       ~delta)

(* Share of the batch's probability mass resolved in closed form:
   [1 − Σ residual mass / Σ estimate], [1] when the estimates sum to 0. *)
let exact_fraction (o : Shard.outcome) =
  let total = Array.fold_left ( +. ) 0. o.estimates in
  let sampled = Array.fold_left ( +. ) 0. o.masses in
  if total <= 0. then 1. else Float.max 0. (1. -. (sampled /. total))

let exact_probs w clause_sets =
  Array.map (fun clauses -> Q.to_float (Lineage.exact w clauses)) clause_sets

(* Every bracket is ordered and holds the tuple's exact confidence. *)
let assert_sound name w clause_sets (intervals : (float * float) array) =
  Array.iteri
    (fun i p ->
      let lo, hi = intervals.(i) in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: tuple %d exact %.4f inside ordered [%g, %g]" name
           i p lo hi)
        true
        (lo <= hi +. 1e-12 && lo -. 1e-9 <= p && p <= hi +. 1e-9))
    (exact_probs w clause_sets)
