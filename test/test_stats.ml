module Stats = Dq_util.Stats

let feed xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let test_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.percentile s 50.))

let test_single () =
  let s = feed [ 4.2 ] in
  check_float "mean" 4.2 (Stats.mean s);
  check_float "min" 4.2 (Stats.min s);
  check_float "max" 4.2 (Stats.max s);
  check_float "median" 4.2 (Stats.median s);
  check_float "stddev" 0. (Stats.stddev s)

let test_mean_sum () =
  let s = feed [ 1.; 2.; 3.; 4. ] in
  check_float "mean" 2.5 (Stats.mean s);
  check_float "sum" 10. (Stats.sum s);
  Alcotest.(check int) "count" 4 (Stats.count s)

let test_stddev () =
  (* Sample stddev of [2;4;4;4;5;5;7;9] is sqrt(32/7). *)
  let s = feed [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_float "stddev" (sqrt (32. /. 7.)) (Stats.stddev s)

let test_percentiles () =
  let s = feed [ 10.; 20.; 30.; 40.; 50. ] in
  check_float "p0" 10. (Stats.percentile s 0.);
  check_float "p25" 20. (Stats.percentile s 25.);
  check_float "p50" 30. (Stats.percentile s 50.);
  check_float "p100" 50. (Stats.percentile s 100.);
  (* Interpolation between ranks. *)
  check_float "p10" 14. (Stats.percentile s 10.)

let test_percentile_after_add () =
  (* The sorted cache must be invalidated by new samples. *)
  let s = feed [ 1.; 2.; 3. ] in
  check_float "median before" 2. (Stats.median s);
  Stats.add s 100.;
  check_float "median after" 2.5 (Stats.median s)

let test_min_max () =
  let s = feed [ 3.; -1.; 7.; 0. ] in
  check_float "min" (-1.) (Stats.min s);
  check_float "max" 7. (Stats.max s)

let test_merge () =
  let a = feed [ 1.; 2. ] in
  let b = feed [ 3.; 4. ] in
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 4 (Stats.count m);
  check_float "mean" 2.5 (Stats.mean m)

let test_to_list_order () =
  let s = feed [ 3.; 1.; 2. ] in
  Alcotest.(check (list (float 0.))) "insertion order" [ 3.; 1.; 2. ] (Stats.to_list s)

let prop_mean_within_bounds =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = feed xs in
      Stats.mean s >= Stats.min s -. 1e-6 && Stats.mean s <= Stats.max s +. 1e-6)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 50) (float_range (-1e3) 1e3))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let s = feed xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile s lo <= Stats.percentile s hi +. 1e-9)

(* The list-based definition the unboxed sample buffer replaced:
   samples as a list in insertion order, sums accumulated in that
   order, percentiles over the samples sorted newest first. *)
module Model = struct
  let count = List.length

  let sum xs = List.fold_left ( +. ) 0. xs

  let mean = function [] -> nan | xs -> sum xs /. float_of_int (count xs)

  let stddev xs =
    if count xs < 2 then 0.
    else
      let n = float_of_int (count xs) in
      let total = sum xs in
      let total_sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      sqrt (Float.max 0. ((total_sq -. (total *. total /. n)) /. (n -. 1.)))

  let extreme better = function
    | [] -> nan
    | x :: rest -> List.fold_left (fun acc y -> if better y acc then y else acc) x rest

  let min = extreme ( < )
  let max = extreme ( > )

  let percentile xs p =
    match xs with
    | [] -> nan
    | _ :: _ ->
      let a = Array.of_list (List.rev xs) in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo_idx = int_of_float (Float.floor rank) in
        let hi_idx = Stdlib.min (lo_idx + 1) (n - 1) in
        let frac = rank -. float_of_int lo_idx in
        (a.(lo_idx) *. (1. -. frac)) +. (a.(hi_idx) *. frac)
end

(* Bit-identical, except that any two NaNs agree. *)
let same_bits a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let matches_model s xs =
  List.equal same_bits (Stats.to_list s) xs
  && Stats.count s = Model.count xs
  && same_bits (Stats.sum s) (Model.sum xs)
  && same_bits (Stats.mean s) (Model.mean xs)
  && same_bits (Stats.stddev s) (Model.stddev xs)
  && same_bits (Stats.min s) (Model.min xs)
  && same_bits (Stats.max s) (Model.max xs)
  && List.for_all
       (fun p -> same_bits (Stats.percentile s p) (Model.percentile xs p))
       [ 0.; 50.; 99.; 100. ]

(* Samples from a small pool (so duplicates and both zeros are common),
   the finite extremes, and a wide range. Lengths include 0 and 1. *)
let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0.; -0.; 1.; 2.; 2.5; 1000. ]);
        ( 1,
          oneofl
            [
              Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float; Float.epsilon;
            ] );
        (4, float_range (-1e9) 1e9);
      ])

let samples_arb =
  QCheck.make ~print:QCheck.Print.(list float)
    QCheck.Gen.(
      frequency
        [
          (1, return []);
          (1, map (fun x -> [ x ]) sample_gen);
          (8, list_size (int_range 0 80) sample_gen);
        ])

let prop_matches_list_model =
  QCheck.Test.make ~name:"stats equal the list-based definition, bit for bit" ~count:500
    (QCheck.pair samples_arb samples_arb)
    (fun (xs, ys) ->
      let a = feed xs and b = feed ys in
      matches_model a xs && matches_model b ys && matches_model (Stats.merge a b) (xs @ ys))

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "mean and sum" `Quick test_mean_sum;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile cache invalidation" `Quick test_percentile_after_add;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "to_list order" `Quick test_to_list_order;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mean_within_bounds; prop_percentile_monotone; prop_matches_list_model ] );
    ]
