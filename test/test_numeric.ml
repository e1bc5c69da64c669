(* Unit and property tests for the numeric substrate: bigints, rationals,
   intervals, RNG and the Chernoff-bound helpers. *)

open Pqdb_numeric
module B = Bigint
module Q = Rational

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bigint units                                                        *)
(* ------------------------------------------------------------------ *)

let test_bigint_of_int_roundtrip () =
  List.iter
    (fun n ->
      check (Alcotest.option int_c) (string_of_int n) (Some n)
        (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) + 17; max_int; min_int + 1 ]

let test_bigint_min_int () =
  (* min_int has no positive counterpart; make sure we neither crash nor
     corrupt the magnitude. *)
  let x = B.of_int min_int in
  check string_c "to_string" "-4611686018427387904" (B.to_string x);
  check bool_c "neg roundtrip" true
    (B.equal (B.neg (B.neg x)) x)

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check string_c s s (B.to_string (B.of_string s)))
    [
      "0";
      "1";
      "-1";
      "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "1000000000000000000000000000000000000000000";
    ]

let test_bigint_add_sub () =
  let a = B.of_string "123456789123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check string_c "add" "123456790111111111111111110"
    (B.to_string (B.add a b));
  check string_c "sub" "123456788135802467135802468"
    (B.to_string (B.sub a b));
  check bool_c "a - a = 0" true (B.is_zero (B.sub a a))

let test_bigint_mul () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check string_c "mul" "121932631356500531347203169112635269"
    (B.to_string (B.mul a b))

let test_bigint_divmod () =
  let a = B.of_string "1000000000000000000000000000007" in
  let b = B.of_string "123456789" in
  let q, r = B.divmod a b in
  check bool_c "q*b + r = a" true B.(equal (add (mul q b) r) a);
  check bool_c "0 <= r < b" true
    (B.sign r >= 0 && B.compare r b < 0);
  (* Negative dividend: truncated division, remainder keeps sign of a. *)
  let q', r' = B.divmod (B.neg a) b in
  check bool_c "neg dividend" true
    B.(equal (add (mul q' b) r') (neg a));
  check bool_c "remainder sign" true (B.sign r' <= 0)

let test_bigint_gcd () =
  let g =
    B.gcd (B.of_string "12345678901234567890") (B.of_string "9876543210")
  in
  check string_c "gcd" "90" (B.to_string g);
  check string_c "gcd with zero" "17" (B.to_string (B.gcd (B.of_int 17) B.zero))

let test_bigint_pow_shift () =
  check string_c "2^100" "1267650600228229401496703205376"
    (B.to_string (B.pow (B.of_int 2) 100));
  check string_c "shift_left" "1267650600228229401496703205376"
    (B.to_string (B.shift_left B.one 100));
  check string_c "shift_right" "1"
    (B.to_string (B.shift_right (B.shift_left B.one 100) 100))

let test_bigint_num_bits () =
  check int_c "bits of 0" 0 (B.num_bits B.zero);
  check int_c "bits of 1" 1 (B.num_bits B.one);
  check int_c "bits of 2^100" 101 (B.num_bits (B.shift_left B.one 100))

(* Property tests: agreement with native int arithmetic on safe ranges. *)
let small_int = QCheck.int_range (-1000000) 1000000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_opt (B.add (B.of_int a) (B.of_int b)) = Some (a + b))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_opt (B.mul (B.of_int a) (B.of_int b)) = Some (a * b))

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint divmod matches int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.to_int_opt q = Some (a / b) && B.to_int_opt r = Some (a mod b))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40)
       (QCheck.int_range 0 9)) (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let canonical =
        let rec strip i =
          if i < String.length s - 1 && s.[i] = '0' then strip (i + 1) else i
        in
        let i = strip 0 in
        String.sub s i (String.length s - i)
      in
      B.to_string (B.of_string s) = canonical)

let prop_mul_distributes =
  QCheck.Test.make ~name:"bigint a*(b+c) = a*b + a*c" ~count:300
    (QCheck.triple small_int small_int small_int) (fun (a, b, c) ->
      let a = B.of_int a and b = B.of_int b and c = B.of_int c in
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

(* ------------------------------------------------------------------ *)
(* Rational units                                                      *)
(* ------------------------------------------------------------------ *)

let q_testable =
  Alcotest.testable Q.pp Q.equal

let test_rational_normalization () =
  check q_testable "6/8 = 3/4" (Q.of_ints 3 4) (Q.of_ints 6 8);
  check q_testable "-6/-8 = 3/4" (Q.of_ints 3 4) (Q.of_ints (-6) (-8));
  check q_testable "6/-8 = -3/4" (Q.of_ints (-3) 4) (Q.of_ints 6 (-8));
  check string_c "print" "-3/4" (Q.to_string (Q.of_ints 6 (-8)));
  check string_c "integer prints bare" "5" (Q.to_string (Q.of_ints 10 2))

let test_rational_arith () =
  let third = Q.of_ints 1 3 and quarter = Q.of_ints 1 4 in
  check q_testable "1/3 + 1/4" (Q.of_ints 7 12) (Q.add third quarter);
  check q_testable "1/3 - 1/4" (Q.of_ints 1 12) (Q.sub third quarter);
  check q_testable "1/3 * 1/4" (Q.of_ints 1 12) (Q.mul third quarter);
  check q_testable "(1/3) / (1/4)" (Q.of_ints 4 3) (Q.div third quarter);
  check q_testable "pow" (Q.of_ints 1 27) (Q.pow third 3);
  check q_testable "pow neg" (Q.of_int 27) (Q.pow third (-3))

let test_rational_coin_example () =
  (* The probabilities of Example 2.2: 2/3 * 1/4 = 1/6 and the conditional
     (1/6) / (1/2) = 1/3. *)
  let p = Q.mul (Q.of_ints 2 3) (Q.of_ints 1 4) in
  check q_testable "world prob" (Q.of_ints 1 6) p;
  check q_testable "conditional" (Q.of_ints 1 3) (Q.div p Q.half)

let test_rational_of_float () =
  check q_testable "0.5" Q.half (Q.of_float 0.5);
  check q_testable "0.25" (Q.of_ints 1 4) (Q.of_float 0.25);
  check q_testable "-1.75" (Q.of_ints (-7) 4) (Q.of_float (-1.75));
  check q_testable "0" Q.zero (Q.of_float 0.);
  check bool_c "0.1 roundtrips through float" true
    (Q.to_float (Q.of_float 0.1) = 0.1)

let test_rational_of_string () =
  check q_testable "n/d" (Q.of_ints 22 7) (Q.of_string "22/7");
  check q_testable "decimal" (Q.of_ints 5 4) (Q.of_string "1.25");
  check q_testable "neg decimal" (Q.of_ints (-1) 2) (Q.of_string "-0.5");
  check q_testable "int" (Q.of_int 42) (Q.of_string "42")

let test_rational_compare () =
  check bool_c "1/3 < 1/2" true Q.(of_ints 1 3 < half);
  check bool_c "probability check" true
    (Q.is_proper_probability (Q.of_ints 1 6));
  check bool_c "3/2 not probability" false
    (Q.is_proper_probability (Q.of_ints 3 2));
  check q_testable "complement" (Q.of_ints 5 6)
    (Q.complement (Q.of_ints 1 6))

let rational_gen =
  QCheck.map
    (fun (n, d) -> Q.of_ints n d)
    (QCheck.pair (QCheck.int_range (-500) 500) (QCheck.int_range 1 500))

let prop_rational_add_comm =
  QCheck.Test.make ~name:"rational addition commutes" ~count:300
    (QCheck.pair rational_gen rational_gen) (fun (a, b) ->
      Q.equal (Q.add a b) (Q.add b a))

let prop_rational_mul_inverse =
  QCheck.Test.make ~name:"rational x * (1/x) = 1" ~count:300 rational_gen
    (fun x ->
      QCheck.assume (not (Q.is_zero x));
      Q.equal (Q.mul x (Q.inv x)) Q.one)

let prop_rational_add_assoc =
  QCheck.Test.make ~name:"rational addition associates" ~count:300
    (QCheck.triple rational_gen rational_gen rational_gen) (fun (a, b, c) ->
      Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c))

let prop_rational_float_of_float_exact =
  QCheck.Test.make ~name:"of_float is exact" ~count:300
    (QCheck.float_range (-1000.) 1000.) (fun f ->
      Q.to_float (Q.of_float f) = f)

(* ------------------------------------------------------------------ *)
(* Interval / orthotope units                                          *)
(* ------------------------------------------------------------------ *)

let test_interval_relative () =
  (* Example 5.4: p̂ = 1/2, ε = 1/3 gives [3/8, 3/4]. *)
  let iv = Interval.relative ~eps:(1. /. 3.) 0.5 in
  check (Alcotest.float 1e-12) "lo" 0.375 iv.Interval.lo;
  check (Alcotest.float 1e-12) "hi" 0.75 iv.Interval.hi

let test_orthotope_corners () =
  let o = Interval.orthotope_relative ~eps:(1. /. 3.) [| 0.5; 0.5 |] in
  let corners = List.of_seq (Interval.corners o) in
  check int_c "corner count" 4 (List.length corners);
  check int_c "corner_count fn" 4 (Interval.corner_count o);
  List.iter
    (fun c -> check bool_c "corner in orthotope" true (Interval.mem_point c o))
    corners

let test_interval_membership () =
  let iv = Interval.make 1. 2. in
  check bool_c "mem" true (Interval.mem 1.5 iv);
  check bool_c "not mem" false (Interval.mem 2.5 iv);
  check bool_c "intersects" true
    (Interval.intersects iv (Interval.make 1.9 3.));
  check bool_c "contains" true
    (Interval.contains iv (Interval.make 1.2 1.8))

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list int_c) "same seed, same stream" xs ys

let test_rng_discrete () =
  let rng = Rng.create ~seed:42 in
  let dist = Rng.Discrete.of_weights [| 1.; 0.; 3. |] in
  check (Alcotest.float 1e-9) "total" 4. (Rng.Discrete.total dist);
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.Discrete.sample rng dist in
    counts.(i) <- counts.(i) + 1
  done;
  check int_c "zero-weight index never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  check bool_c "ratio near 3" true (ratio > 2.5 && ratio < 3.5)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:1 in
  check bool_c "p=0" false (Rng.bernoulli rng 0.);
  check bool_c "p=1" true (Rng.bernoulli rng 1.)

let test_rng_alias_frequencies () =
  (* Alias sampling reproduces the weights: chi-square-ish tolerance over
     50k draws on an uneven 4-point distribution. *)
  let rng = Rng.create ~seed:42 in
  let weights = [| 1.; 0.; 3.; 4. |] in
  let dist = Rng.Alias.of_weights weights in
  check (Alcotest.float 1e-9) "total" 8. (Rng.Alias.total dist);
  check int_c "size" 4 (Rng.Alias.size dist);
  let draws = 50_000 in
  let counts = Array.make 4 0 in
  for _ = 1 to draws do
    let i = Rng.Alias.sample rng dist in
    counts.(i) <- counts.(i) + 1
  done;
  check int_c "zero-weight index never drawn" 0 counts.(1);
  Array.iteri
    (fun i w ->
      let expected = w /. 8. in
      let observed = float_of_int counts.(i) /. float_of_int draws in
      check bool_c
        (Printf.sprintf "index %d: observed %.4f near %.4f" i observed
           expected)
        true
        (Float.abs (observed -. expected) < 0.01))
    weights

(* A uniform table's columns all have probability 1, so a sample is its
   index draw.  A power-of-two size draws the index from [bits] directly;
   that must be [Rng.int]'s ([Random.State.int]'s) draw, leaving the same
   state. *)
let prop_alias_draw_matches_int =
  let tables =
    lazy
      (List.map
         (fun n -> (n, Rng.Alias.of_weights (Array.make n 1.)))
         (List.init 21 (fun k -> 1 lsl k) @ [ 3; 5; 6; 7; 12; 100; 1000; 65_537 ]))
  in
  QCheck.Test.make ~name:"alias index draw = Rng.int" ~count:100
    (QCheck.int_range 0 1_000_000) (fun seed ->
      List.for_all
        (fun (n, dist) ->
          let a = Rng.create ~seed in
          let b = Rng.copy a in
          let same = ref true in
          for _ = 1 to 8 do
            let i = Rng.Alias.sample a dist in
            let j = Rng.int b n in
            ignore (Rng.float b 1.);
            if i <> j then same := false
          done;
          !same && Rng.int a 1_000_000 = Rng.int b 1_000_000)
        (Lazy.force tables))

let test_rng_alias_matches_discrete_stats () =
  (* Alias and cumulative-scan sampling draw from the same distribution. *)
  let weights = [| 0.2; 0.5; 0.1; 0.15; 0.05 |] in
  let alias = Rng.Alias.of_weights weights in
  let discrete = Rng.Discrete.of_weights weights in
  let freq sample =
    let rng = Rng.create ~seed:77 in
    let counts = Array.make 5 0 in
    for _ = 1 to 30_000 do
      let i = sample rng in
      counts.(i) <- counts.(i) + 1
    done;
    Array.map (fun c -> float_of_int c /. 30_000.) counts
  in
  let fa = freq (fun rng -> Rng.Alias.sample rng alias) in
  let fd = freq (fun rng -> Rng.Discrete.sample rng discrete) in
  Array.iteri
    (fun i a ->
      check bool_c
        (Printf.sprintf "index %d: alias %.4f vs discrete %.4f" i a fd.(i))
        true
        (Float.abs (a -. fd.(i)) < 0.015))
    fa

let test_rng_alias_singleton () =
  let rng = Rng.create ~seed:9 in
  let dist = Rng.Alias.of_weights [| 2.5 |] in
  for _ = 1 to 100 do
    check int_c "only index" 0 (Rng.Alias.sample rng dist)
  done

let test_rng_alias_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.Alias.of_weights: empty") (fun () ->
      ignore (Rng.Alias.of_weights [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Rng.Alias.of_weights: negative weight") (fun () ->
      ignore (Rng.Alias.of_weights [| 1.; -1. |]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Rng.Alias.of_weights: zero total") (fun () ->
      ignore (Rng.Alias.of_weights [| 0.; 0. |]))

let test_rng_split_n_deterministic () =
  (* Children are a pure function of the parent state: two identically
     seeded parents produce identical child streams. *)
  let draw rng = List.init 10 (fun _ -> Rng.int rng 1_000_000) in
  let c1 = Rng.split_n (Rng.create ~seed:13) 4 in
  let c2 = Rng.split_n (Rng.create ~seed:13) 4 in
  Array.iteri
    (fun i a ->
      check (Alcotest.list int_c)
        (Printf.sprintf "child %d reproducible" i)
        (draw a) (draw c2.(i)))
    c1;
  (* Distinct children diverge. *)
  let c3 = Rng.split_n (Rng.create ~seed:13) 2 in
  check bool_c "children differ" true (draw c3.(0) <> draw c3.(1));
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Rng.split_n: n must be positive") (fun () ->
      ignore (Rng.split_n (Rng.create ~seed:1) 0))

(* ------------------------------------------------------------------ *)
(* Stats / Chernoff bounds                                             *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "variance" (5. /. 3.) (Stats.variance xs);
  let lo, hi = Stats.min_max xs in
  check (Alcotest.float 1e-9) "min" 1. lo;
  check (Alcotest.float 1e-9) "max" 4. hi;
  check (Alcotest.float 1e-9) "q0" 1. (Stats.quantile xs 0.);
  check (Alcotest.float 1e-9) "q1" 4. (Stats.quantile xs 1.)

let test_chernoff_consistency () =
  (* m = 3|F| log(2/δ)/ε² trials should give back a bound of at most δ. *)
  let clauses = 10 and eps = 0.1 and delta = 0.05 in
  let m = Stats.karp_luby_trials ~clauses ~eps ~delta in
  let d = Stats.karp_luby_delta ~trials:m ~clauses ~eps in
  check bool_c "delta bound achieved" true (d <= delta +. 1e-12);
  (* One fewer round of |F| samples should not be enough (ceiling tightness
     within one batch). *)
  let d' = Stats.karp_luby_delta ~trials:(m - clauses) ~clauses ~eps in
  check bool_c "near-tight" true (d' >= delta *. 0.9)

let test_delta'_rounds () =
  let eps = 0.2 and delta = 0.01 in
  let l = Stats.rounds_for ~eps ~delta in
  check bool_c "rounds_for achieves delta" true
    (Stats.delta' ~eps ~rounds:l <= delta);
  check bool_c "rounds_for minimal" true
    (Stats.delta' ~eps ~rounds:(l - 1) > delta)

let test_theorem_6_7_rounds () =
  let l = Stats.theorem_6_7_rounds ~eps0:0.1 ~delta:0.05 ~k:2 ~d:2 ~n:10 in
  (* l0 >= 3 ln(2*k*d*n^(kd)/δ)/ε0²; sanity: positive and monotone in n. *)
  check bool_c "positive" true (l > 0);
  let l' = Stats.theorem_6_7_rounds ~eps0:0.1 ~delta:0.05 ~k:2 ~d:2 ~n:100 in
  check bool_c "monotone in n" true (l' > l)

let test_error_tally () =
  let t = Stats.tally () in
  Stats.record t true;
  Stats.record t false;
  Stats.record t false;
  Stats.record t true;
  check (Alcotest.float 1e-9) "error rate" 0.5 (Stats.error_rate t)

(* ------------------------------------------------------------------ *)
(* Additional edge cases and order/algebra properties                  *)
(* ------------------------------------------------------------------ *)

let test_bigint_of_string_invalid () =
  List.iter
    (fun s ->
      check bool_c s true
        (try
           ignore (B.of_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "-"; "+"; "12a"; "1 2" ]

let test_bigint_shift_errors () =
  Alcotest.check_raises "negative left shift"
    (Invalid_argument "Bigint.shift_left") (fun () ->
      ignore (B.shift_left B.one (-1)));
  Alcotest.check_raises "negative right shift"
    (Invalid_argument "Bigint.shift_right") (fun () ->
      ignore (B.shift_right B.one (-1)));
  Alcotest.check_raises "negative exponent" (Invalid_argument "Bigint.pow")
    (fun () -> ignore (B.pow B.one (-1)))

let test_bigint_division_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let prop_compare_matches_int =
  QCheck.Test.make ~name:"bigint compare matches int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      compare a b = B.compare (B.of_int a) (B.of_int b))

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift left then right is identity" ~count:200
    (QCheck.pair small_int (QCheck.int_range 0 100)) (fun (a, n) ->
      let x = B.of_int a in
      (* Truncated right shift of negatives rounds toward zero, so only the
         magnitude survives exactly; test on absolute values. *)
      B.equal (B.shift_right (B.shift_left (B.abs x) n) n) (B.abs x))

let prop_pow_is_repeated_mul =
  QCheck.Test.make ~name:"pow = repeated multiplication" ~count:100
    (QCheck.pair (QCheck.int_range (-9) 9) (QCheck.int_range 0 12))
    (fun (a, n) ->
      let x = B.of_int a in
      let rec repeat acc i = if i = 0 then acc else repeat (B.mul acc x) (i - 1) in
      B.equal (B.pow x n) (repeat B.one n))

let prop_hash_respects_equal =
  QCheck.Test.make ~name:"equal bigints hash equally" ~count:200 small_int
    (fun a ->
      let via_string = B.of_string (string_of_int a) in
      B.hash (B.of_int a) = B.hash via_string)

let test_rational_min_max_sum_product () =
  let a = Q.of_ints 1 3 and b = Q.of_ints 1 4 in
  check q_testable "min" b (Q.min a b);
  check q_testable "max" a (Q.max a b);
  check q_testable "sum" (Q.of_ints 7 12) (Q.sum [ a; b ]);
  check q_testable "product" (Q.of_ints 1 12) (Q.product [ a; b ]);
  check q_testable "empty sum" Q.zero (Q.sum []);
  check q_testable "empty product" Q.one (Q.product [])

let test_rational_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Q.inv Q.zero));
  Alcotest.check_raises "make with zero denominator" Division_by_zero
    (fun () -> ignore (Q.make B.one B.zero))

let test_rational_pow_zero () =
  check q_testable "x^0 = 1" Q.one (Q.pow (Q.of_ints 7 3) 0);
  check q_testable "0^5 = 0" Q.zero (Q.pow Q.zero 5)

let prop_rational_order_antisymmetric =
  QCheck.Test.make ~name:"rational order is antisymmetric" ~count:300
    (QCheck.pair rational_gen rational_gen) (fun (a, b) ->
      let c = Q.compare a b and c' = Q.compare b a in
      (c = 0 && c' = 0) || c * c' < 0)

let prop_rational_mul_distributes =
  QCheck.Test.make ~name:"rational multiplication distributes" ~count:300
    (QCheck.triple rational_gen rational_gen rational_gen) (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let test_interval_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make")
    (fun () -> ignore (Interval.make 2. 1.))

let test_interval_absolute_relative () =
  let iv = Interval.absolute_relative ~eps:0.1 0.5 in
  check (Alcotest.float 1e-12) "lo" 0.45 iv.Interval.lo;
  check (Alcotest.float 1e-12) "hi" 0.55 iv.Interval.hi;
  (* Negative center still yields a valid interval. *)
  let iv = Interval.absolute_relative ~eps:0.1 (-0.5) in
  check bool_c "ordered" true (iv.Interval.lo <= iv.Interval.hi)

let prop_orthotope_sample_within =
  QCheck.Test.make ~name:"orthotope samples stay inside" ~count:200
    (QCheck.pair (QCheck.float_range 0.05 0.5) (QCheck.float_range 0.1 0.9))
    (fun (eps, p) ->
      let rng = Rng.create ~seed:9 in
      let o = Interval.orthotope_relative ~eps [| p; p |] in
      let draw lo hi = Rng.float_range rng lo hi in
      let x = Interval.sample draw o in
      Interval.mem_point x o)

let test_rng_split_diverges () =
  let parent = Rng.create ~seed:3 in
  let a = Rng.split parent in
  let b = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  check bool_c "streams differ" true (xs <> ys)

let test_rng_float_range_bounds () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.float_range rng 2. 3. in
    check bool_c "in range" true (x >= 2. && x <= 3.)
  done

let test_rng_discrete_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.Discrete.of_weights: empty") (fun () ->
      ignore (Rng.Discrete.of_weights [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Rng.Discrete.of_weights: negative weight") (fun () ->
      ignore (Rng.Discrete.of_weights [| 1.; -1. |]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Rng.Discrete.of_weights: zero total") (fun () ->
      ignore (Rng.Discrete.of_weights [| 0.; 0. |]))

let test_stats_quantile_interpolation () =
  let xs = [| 10.; 20.; 30. |] in
  check (Alcotest.float 1e-9) "q(0.25)" 15. (Stats.quantile xs 0.25);
  check (Alcotest.float 1e-9) "q(0.75)" 25. (Stats.quantile xs 0.75)

let test_stats_invalid_args () =
  Alcotest.check_raises "bad eps" (Invalid_argument "Stats.karp_luby_trials")
    (fun () -> ignore (Stats.karp_luby_trials ~clauses:1 ~eps:0. ~delta:0.1));
  Alcotest.check_raises "bad delta" (Invalid_argument "Stats.rounds_for")
    (fun () -> ignore (Stats.rounds_for ~eps:0.1 ~delta:0.))

let test_independent_or_bound () =
  let deltas = [ 0.1; 0.2 ] in
  check (Alcotest.float 1e-12) "1 - 0.9*0.8" 0.28
    (Stats.independent_or_bound deltas);
  check bool_c "tighter than the sum" true
    (Stats.independent_or_bound deltas <= List.fold_left ( +. ) 0. deltas);
  check (Alcotest.float 0.) "empty product" 0.
    (Stats.independent_or_bound []);
  check (Alcotest.float 1e-12) "clamps" 1.
    (Stats.independent_or_bound [ 2.0 ])

let test_theorem_6_7_monotonicity () =
  let base = Stats.theorem_6_7_rounds ~eps0:0.1 ~delta:0.05 ~k:2 ~d:2 ~n:10 in
  check bool_c "monotone in k" true
    (Stats.theorem_6_7_rounds ~eps0:0.1 ~delta:0.05 ~k:3 ~d:2 ~n:10 > base);
  check bool_c "monotone in d" true
    (Stats.theorem_6_7_rounds ~eps0:0.1 ~delta:0.05 ~k:2 ~d:3 ~n:10 > base);
  check bool_c "anti-monotone in eps0" true
    (Stats.theorem_6_7_rounds ~eps0:0.2 ~delta:0.05 ~k:2 ~d:2 ~n:10 < base)

(* ------------------------------------------------------------------ *)
(* RNG lanes on demand                                                 *)
(* ------------------------------------------------------------------ *)

(* A lane built on demand streams what the materialized [split_n] child
   streams, in any build order, and drawing the lanes advances the parent
   exactly as [split_n] does. *)
let test_rng_lanes_match_split_n () =
  let draw rng = List.init 20 (fun _ -> Rng.int rng 1_000_000) in
  List.iter
    (fun (seed, n) ->
      let p1 = Rng.create ~seed and p2 = Rng.create ~seed in
      let l = Rng.lanes p1 n and children = Rng.split_n p2 n in
      List.iter
        (fun i ->
          check (Alcotest.list int_c)
            (Printf.sprintf "seed %d: lane %d of %d" seed i n)
            (draw children.(i)) (draw (Rng.lane l i)))
        (List.rev (List.init n Fun.id));
      check (Alcotest.list int_c)
        (Printf.sprintf "seed %d, %d lanes: parents end alike" seed n)
        (draw p2) (draw p1);
      check (Alcotest.list int_c) "a lane is built fresh every time"
        (draw (Rng.lane l 0)) (draw (Rng.lane l 0)))
    [ (1, 1); (42, 3); (7, 128) ];
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Rng.lanes: n must be positive") (fun () ->
      ignore (Rng.lanes (Rng.create ~seed:1) 0));
  let l = Rng.lanes (Rng.create ~seed:1) 2 in
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "lane %d of 2" i)
        (Invalid_argument "Rng.lane: index out of range") (fun () ->
          ignore (Rng.lane l i)))
    [ -1; 2 ]

(* ------------------------------------------------------------------ *)
(* The %h / %d writer                                                  *)
(* ------------------------------------------------------------------ *)

let hexfmt x =
  let b = Buffer.create 24 in
  Hexfmt.add_float b x;
  Buffer.contents b

let hexfmt_int n =
  let b = Buffer.create 24 in
  Hexfmt.add_int b n;
  Buffer.contents b

let prop_hexfmt_bit_patterns =
  QCheck.Test.make ~name:"%h writer = Printf over int64 bit patterns"
    ~count:20_000 QCheck.int64 (fun bits ->
      let x = Int64.float_of_bits bits in
      String.equal (hexfmt x) (Printf.sprintf "%h" x))

let prop_hexfmt_uniforms =
  QCheck.Test.make ~name:"%h writer = Printf over uniforms on [0, 1]"
    ~count:20_000 (QCheck.float_bound_inclusive 1.) (fun x ->
      String.equal (hexfmt x) (Printf.sprintf "%h" x)
      && String.equal (Hexfmt.to_string x) (Printf.sprintf "%h" x))

let prop_hexfmt_ints =
  QCheck.Test.make ~name:"%d writer = string_of_int" ~count:20_000 QCheck.int
    (fun n -> String.equal (hexfmt_int n) (string_of_int n))

let test_hexfmt_fixed () =
  let floats =
    [ 0.; -0.; infinity; neg_infinity; nan; -.nan;
      Int64.float_of_bits 0x7FF0_0000_0000_0001L;
      Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL;
      Int64.float_of_bits 0xFFF4_0000_0000_0000L;
      Int64.float_of_bits 1L; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL;
      -.Int64.float_of_bits 1L; Float.min_float; -.Float.min_float;
      Float.max_float; -.Float.max_float; 0.5; Float.pred 0.5;
      Float.succ 0.5; 1.; Float.pred 1.; Float.succ 1.; 3.; 1e300; 1e-300;
      0.1; -2.5 ]
  in
  List.iter
    (fun x ->
      let want = Printf.sprintf "%h" x in
      check string_c want want (hexfmt x))
    floats;
  check string_c "smallest subnormal" "0x0.0000000000001p-1022"
    (hexfmt (Int64.float_of_bits 1L));
  check string_c "negative zero" "-0x0p+0" (hexfmt (-0.));
  List.iter
    (fun n -> check string_c (string_of_int n) (string_of_int n) (hexfmt_int n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1;
      min_int + 1 ]

let prop_add_batch_line =
  QCheck.Test.make ~name:"add_batch_line = Printf \"%d %h %h %h %d\\n\""
    ~count:5_000
    QCheck.(
      pair (pair int int64) (pair (pair int64 (float_bound_inclusive 1.)) int))
    (fun ((i, est), ((lo, hi), trials)) ->
      let est = Int64.float_of_bits est and lo = Int64.float_of_bits lo in
      let b = Buffer.create 64 in
      Pqdb_montecarlo.Shard.add_batch_line b i est lo hi trials;
      String.equal (Buffer.contents b)
        (Printf.sprintf "%d %h %h %h %d\n" i est lo hi trials))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick
            test_bigint_of_int_roundtrip;
          Alcotest.test_case "min_int" `Quick test_bigint_min_int;
          Alcotest.test_case "string roundtrip" `Quick
            test_bigint_string_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_bigint_add_sub;
          Alcotest.test_case "mul" `Quick test_bigint_mul;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "pow/shift" `Quick test_bigint_pow_shift;
          Alcotest.test_case "num_bits" `Quick test_bigint_num_bits;
          qcheck prop_add_matches_int;
          qcheck prop_mul_matches_int;
          qcheck prop_divmod_matches_int;
          qcheck prop_string_roundtrip;
          qcheck prop_mul_distributes;
        ] );
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick
            test_rational_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rational_arith;
          Alcotest.test_case "coin probabilities" `Quick
            test_rational_coin_example;
          Alcotest.test_case "of_float" `Quick test_rational_of_float;
          Alcotest.test_case "of_string" `Quick test_rational_of_string;
          Alcotest.test_case "compare/probability" `Quick
            test_rational_compare;
          qcheck prop_rational_add_comm;
          qcheck prop_rational_mul_inverse;
          qcheck prop_rational_add_assoc;
          qcheck prop_rational_float_of_float_exact;
        ] );
      ( "interval",
        [
          Alcotest.test_case "relative interval (Example 5.4)" `Quick
            test_interval_relative;
          Alcotest.test_case "orthotope corners" `Quick test_orthotope_corners;
          Alcotest.test_case "membership" `Quick test_interval_membership;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "discrete distribution" `Quick test_rng_discrete;
          Alcotest.test_case "bernoulli extremes" `Quick
            test_rng_bernoulli_extremes;
          Alcotest.test_case "alias frequencies" `Quick
            test_rng_alias_frequencies;
          Alcotest.test_case "alias matches discrete" `Quick
            test_rng_alias_matches_discrete_stats;
          Alcotest.test_case "alias singleton" `Quick test_rng_alias_singleton;
          qcheck prop_alias_draw_matches_int;
          Alcotest.test_case "split_n deterministic" `Quick
            test_rng_split_n_deterministic;
          Alcotest.test_case "lanes on demand match split_n" `Quick
            test_rng_lanes_match_split_n;
        ] );
      ( "hexfmt",
        [
          Alcotest.test_case "fixed values" `Quick test_hexfmt_fixed;
          qcheck prop_hexfmt_bit_patterns;
          qcheck prop_hexfmt_uniforms;
          qcheck prop_hexfmt_ints;
          qcheck prop_add_batch_line;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "bigint of_string invalid" `Quick
            test_bigint_of_string_invalid;
          Alcotest.test_case "bigint shift/pow errors" `Quick
            test_bigint_shift_errors;
          Alcotest.test_case "bigint division by zero" `Quick
            test_bigint_division_by_zero;
          qcheck prop_compare_matches_int;
          qcheck prop_shift_roundtrip;
          qcheck prop_pow_is_repeated_mul;
          qcheck prop_hash_respects_equal;
          Alcotest.test_case "rational min/max/sum/product" `Quick
            test_rational_min_max_sum_product;
          Alcotest.test_case "rational division by zero" `Quick
            test_rational_division_by_zero;
          Alcotest.test_case "rational pow edge" `Quick test_rational_pow_zero;
          qcheck prop_rational_order_antisymmetric;
          qcheck prop_rational_mul_distributes;
          Alcotest.test_case "interval invalid" `Quick test_interval_invalid;
          Alcotest.test_case "absolute-relative interval" `Quick
            test_interval_absolute_relative;
          qcheck prop_orthotope_sample_within;
          Alcotest.test_case "rng split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "rng float_range bounds" `Quick
            test_rng_float_range_bounds;
          Alcotest.test_case "rng discrete invalid" `Quick
            test_rng_discrete_invalid;
          Alcotest.test_case "rng alias invalid" `Quick test_rng_alias_invalid;
          Alcotest.test_case "quantile interpolation" `Quick
            test_stats_quantile_interpolation;
          Alcotest.test_case "stats invalid args" `Quick
            test_stats_invalid_args;
          Alcotest.test_case "independence bound" `Quick
            test_independent_or_bound;
          Alcotest.test_case "theorem 6.7 monotonicity" `Quick
            test_theorem_6_7_monotonicity;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats_basic;
          Alcotest.test_case "chernoff consistency" `Quick
            test_chernoff_consistency;
          Alcotest.test_case "delta'/rounds_for" `Quick test_delta'_rounds;
          Alcotest.test_case "theorem 6.7 rounds" `Quick
            test_theorem_6_7_rounds;
          Alcotest.test_case "error tally" `Quick test_error_tally;
        ] );
    ]
