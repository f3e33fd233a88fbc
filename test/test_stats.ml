module Stats = Hbn_ref.Stats

let feq ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %f <> %f" what a b

let test_mean () =
  feq "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.mean []))

let test_stddev () =
  feq "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  feq "two-point" 1. (Stats.stddev [ 1.; 3. ])

let test_median () =
  feq "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  feq "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.median []))

let test_percentile () =
  let xs = List.init 101 float_of_int in
  feq "p0" 0. (Stats.percentile 0. xs);
  feq "p50" 50. (Stats.percentile 50. xs);
  feq "p100" 100. (Stats.percentile 100. xs);
  feq "p25 interpolated" 0.75 (Stats.percentile 75. [ 0.; 1. ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.; -1.; 7. ] in
  feq "min" (-1.) lo;
  feq "max" 7. hi

let test_pearson () =
  feq "perfect" 1. (Stats.pearson [ (1., 2.); (2., 4.); (3., 6.) ]);
  feq "anti" (-1.) (Stats.pearson [ (1., 3.); (2., 2.); (3., 1.) ]);
  Alcotest.(check bool) "constant marginal" true
    (Float.is_nan (Stats.pearson [ (1., 1.); (2., 1.) ]))

let test_spearman () =
  (* Monotone but nonlinear: rank correlation is exactly 1. *)
  feq "monotone" 1. (Stats.spearman [ (1., 1.); (2., 8.); (3., 27.) ]);
  feq "ties handled" 1.
    (Stats.spearman [ (1., 1.); (1., 1.); (2., 2.) ])
    ~eps:1e-6

let test_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  feq "slope" 2. slope;
  feq "intercept" 1. intercept

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 0.1; 0.9; 1.0 ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "counts total" 4 (c0 + c1);
  Alcotest.(check int) "low bin" 2 c0

let prop_percentile_bounds seed =
  let prng = Hbn_prng.Prng.create seed in
  let xs =
    List.init
      (1 + Hbn_prng.Prng.int prng 50)
      (fun _ -> Hbn_prng.Prng.float prng 100.)
  in
  let lo, hi = Stats.min_max xs in
  let p = Stats.percentile (Hbn_prng.Prng.float prng 100.) xs in
  p >= lo -. 1e-9 && p <= hi +. 1e-9

let prop_stddev_nonneg seed =
  let prng = Hbn_prng.Prng.create seed in
  let xs =
    List.init
      (1 + Hbn_prng.Prng.int prng 50)
      (fun _ -> Hbn_prng.Prng.float prng 10. -. 5.)
  in
  Stats.stddev xs >= 0.

let suite =
  [
    Helpers.tc "mean" test_mean;
    Helpers.tc "stddev" test_stddev;
    Helpers.tc "median" test_median;
    Helpers.tc "percentile" test_percentile;
    Helpers.tc "min_max" test_min_max;
    Helpers.tc "pearson" test_pearson;
    Helpers.tc "spearman" test_spearman;
    Helpers.tc "linear_fit" test_linear_fit;
    Helpers.tc "histogram" test_histogram;
    Helpers.qt "percentile within bounds" Helpers.seed_arb prop_percentile_bounds;
    Helpers.qt "stddev nonnegative" Helpers.seed_arb prop_stddev_nonneg;
  ]
