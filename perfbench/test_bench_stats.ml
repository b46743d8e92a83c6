let feq = Alcotest.float 1e-9
let range n = Array.init n (fun i -> float_of_int (i + 1))

let percentiles () =
  Alcotest.check feq "p50 of [1;2] is the lower rank" 1.
    (Bench_stats.percentile [| 1.; 2. |] 0.5);
  Alcotest.check feq "p99 of 1..1000" 990. (Bench_stats.percentile (range 1000) 0.99);
  Alcotest.check feq "p100 is the max" 7. (Bench_stats.percentile (range 7) 1.0);
  Alcotest.check feq "p0 clamps to the min" 1. (Bench_stats.percentile (range 7) 0.);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Bench_stats.percentile [||] 0.5));
  (* same rank as the histogram reference on every q of a ragged sample *)
  let s = range 37 in
  List.iter
    (fun q ->
      Alcotest.check feq "agrees with Obs" (Obs.Histogram.nearest_rank s q)
        (Bench_stats.percentile s q))
    [ 0.01; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]

let tail_rule () =
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "1000 samples support p99" (Some 0.99) (Bench_stats.tail_q 1000);
  Alcotest.check opt "999 samples leave 9 beyond p99" (Some 0.95)
    (Bench_stats.tail_q 999);
  Alcotest.check opt "10000 samples support p99.9" (Some 0.999)
    (Bench_stats.tail_q 10000);
  Alcotest.check opt "54 samples support p75" (Some 0.75) (Bench_stats.tail_q 54);
  Alcotest.check opt "20 samples support the median" (Some 0.5)
    (Bench_stats.tail_q 20);
  Alcotest.check opt "19 samples support nothing" None (Bench_stats.tail_q 19);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Bench_stats.beyond 1000 0.99);
  Alcotest.(check int) "beyond p50 of 5" 2 (Bench_stats.beyond 5 0.5);
  Alcotest.(check string)
    "describe prints the count beside the percentile"
    "n=1000 p50=500 p99=990 (10 beyond)"
    (Bench_stats.describe (range 1000))

let geomean () =
  Alcotest.check feq "geomean [1;4]" 2. (Bench_stats.geomean [ 1.; 4. ]);
  Alcotest.check feq "geomean [2;8;4]" 4. (Bench_stats.geomean [ 2.; 8.; 4. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Bench_stats.geomean: value <= 0")
    (fun () -> ignore (Bench_stats.geomean [ 1.; 0. ]));
  Alcotest.check_raises "empty" (Invalid_argument "Bench_stats.geomean: empty")
    (fun () -> ignore (Bench_stats.geomean []));
  Alcotest.check feq "median [3;1;2]" 2. (Bench_stats.median [ 3.; 1.; 2. ])

let () =
  Alcotest.run "bench_stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "geometric mean and median" `Quick geomean;
        ] );
    ]
