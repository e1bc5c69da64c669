(* Tests of the benchmark's own arithmetic: tail-percentile selection,
   quartiles, the Zipf request mix and span self time. *)

open Perfbench_core

let close = Alcotest.float 1e-9

let test_tail_percentile () =
  let tp = Alcotest.(option (float 1e-9)) in
  Alcotest.check tp "10 samples" None (Bstats.tail_percentile 10);
  Alcotest.check tp "20 samples" (Some 50.) (Bstats.tail_percentile 20);
  Alcotest.check tp "40 samples" (Some 75.) (Bstats.tail_percentile 40);
  Alcotest.check tp "100 samples" (Some 90.) (Bstats.tail_percentile 100);
  Alcotest.check tp "200 samples" (Some 95.) (Bstats.tail_percentile 200);
  Alcotest.check tp "capped at p95" (Some 95.) (Bstats.tail_percentile 50000);
  (* The chosen rank leaves at least ten samples beyond it, and exactly
     ten below the cap. *)
  for n = 11 to 3000 do
    match Bstats.tail_percentile n with
    | Some p ->
        let beyond = n - Bstats.rank n p in
        assert (beyond >= 10);
        if p < 95. then assert (beyond = 10)
    | None -> assert false
  done

let test_percentile_values () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p90 of 1..100" 90. (Bstats.percentile xs 90.);
  Alcotest.check close "p50 of 1..100" 50. (Bstats.percentile xs 50.);
  Alcotest.check close "median of 1..100" 50.5 (Bstats.median xs)

let test_quartiles () =
  (* statistics.quantiles([1, 2, ..., 10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Bstats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Bstats.quartiles [| 3.; 1.; 2. |] in
  Alcotest.check close "q1 of 3" 1. q1;
  Alcotest.check close "q2 of 3" 2. q2;
  Alcotest.check close "q3 of 3" 3. q3

let test_zipf_deterministic () =
  let a = Bstats.zipf_sequence ~seed:7 ~k:32 ~s:1.2 ~len:5000 in
  let b = Bstats.zipf_sequence ~seed:7 ~k:32 ~s:1.2 ~len:5000 in
  let c = Bstats.zipf_sequence ~seed:8 ~k:32 ~s:1.2 ~len:5000 in
  Alcotest.(check (array int)) "same seed, same sequence" a b;
  Alcotest.(check bool) "another seed, another sequence" false (a = c);
  Array.iter (fun r -> assert (r >= 0 && r < 32)) a;
  (* Rank 0 is the most frequent and outweighs rank 31 by far. *)
  let count r = Array.fold_left (fun n x -> if x = r then n + 1 else n) 0 a in
  Alcotest.(check bool) "head heavier than tail" true (count 0 > 10 * count 31)

let span id ?parent a b =
  {
    Spans.id;
    name = "s";
    op = 0;
    parent;
    start_ns = Int64.of_int (a * 1_000_000);
    stop_ns = Int64.of_int (b * 1_000_000);
  }

let test_self_time () =
  let p = span 0 0 100 in
  Alcotest.check close "no children" 100. (Spans.self_ms p []);
  Alcotest.check close "disjoint children" 70.
    (Spans.self_ms p [ span 1 ~parent:0 10 20; span 2 ~parent:0 50 70 ]);
  (* Overlapping children are counted once. *)
  Alcotest.check close "overlapping children" 60.
    (Spans.self_ms p [ span 1 ~parent:0 10 30; span 2 ~parent:0 20 50 ]);
  (* A child reaching outside its parent is clipped to it. *)
  Alcotest.check close "clipped child" 80.
    (Spans.self_ms p [ span 1 ~parent:0 90 130; span 2 ~parent:0 (-5) 10 ])

let test_recorder () =
  let t = Spans.create () in
  let r =
    Spans.record t ~op:3 "outer" (fun id ->
        Spans.record t ~op:3 ~parent:id "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "value passes through" 42 r;
  let self = Spans.self_per_op t "outer" and total = Spans.per_op t "outer" in
  let inner = Spans.per_op t "inner" in
  Alcotest.check (Alcotest.float 1e-6) "self = outer - inner"
    (Hashtbl.find total 3 -. Hashtbl.find inner 3)
    (Hashtbl.find self 3)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile selection" `Quick
            test_tail_percentile;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick
            test_quartiles;
          Alcotest.test_case "zipf sequence per seed" `Quick
            test_zipf_deterministic;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time arithmetic" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
    ]
