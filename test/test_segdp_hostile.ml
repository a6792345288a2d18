open Tiered

(* Adversarial corpus for the Segdp ladder (DESIGN.md §11): every
   fixture is built to stress one rung — the region-wise D&C on
   decomposed clamped logit, the SMAWK rung on Monge-violating but
   totally monotone layers, and the quadratic backstop on layers no
   fast rung can certify — and every one is pinned cut-for-cut against
   [solve_quadratic]. The per-path stats assertions keep the corpus
   honest: if a kernel change reroutes a fixture onto a different rung,
   the test fails loudly instead of silently testing nothing. *)

let cuts_testable = Alcotest.(list int)

let stats (r : Numerics.Segdp.result) = r.Numerics.Segdp.stats

let check_same name (fast : Numerics.Segdp.result)
    (exact : Numerics.Segdp.result) =
  Alcotest.check cuts_testable (name ^ " cuts") exact.Numerics.Segdp.cuts
    fast.Numerics.Segdp.cuts;
  Alcotest.(check int)
    (name ^ " segments")
    exact.Numerics.Segdp.segments fast.Numerics.Segdp.segments;
  Alcotest.(check bool)
    (name ^ " value")
    true
    (Float.equal exact.Numerics.Segdp.value fast.Numerics.Segdp.value)

(* --- hostile logit markets (region decomposition rung) ----------------- *)

(* Build a logit market with explicit valuations and costs
   ([Market.of_parameters] bypasses fitting), run the exact
   (seg_value, regions) the Optimal strategy would, and pin the
   decomposed fast path against the quadratic reference. *)
let check_decomposed_logit name ~valuations ~costs =
  let n = Array.length valuations in
  let flows =
    Fixtures.flows_of_spec
      (List.init n (fun i -> (10. +. float_of_int i, 100.)))
  in
  let m =
    Market.of_parameters
      ~spec:(Market.Logit { s0 = 0.2 })
      ~alpha:1.1 ~p0:20. ~valuations ~costs flows
  in
  let _order, seg_value, regions = Strategy.dp_inputs m in
  Alcotest.(check bool)
    (name ^ " decomposed into several regions")
    true
    (Array.length regions > 1);
  List.iter
    (fun b ->
      let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
      let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value in
      check_same (Printf.sprintf "%s B=%d" name b) fast exact;
      Alcotest.(check int)
        (Printf.sprintf "%s B=%d ran decomposed" name b)
        (Array.length regions)
        (stats fast).Numerics.Segdp.regions;
      Alcotest.(check int)
        (Printf.sprintf "%s B=%d no backstop" name b)
        0
        (stats fast).Numerics.Segdp.fallback_layers)
    [ 2; 3; 6 ]

let test_clamped_logit_underflow_and_saturation () =
  (* Positions 20..39 carry valuations 800 below the maximum, so their
     shifted weights exp(alpha (v - vmax)) underflow to exactly 0 and
     the prefix sums go flat; positions 60.. jump to costs ~1000 above
     the minimum, past the exp(-alpha (c - cmin)) saturation point.
     Both used to trip the Monge spot-check and cost an O(n^2) layer. *)
  let n = 120 in
  let valuations =
    Array.init n (fun k -> if k >= 20 && k < 40 then 50. -. 800. else 50.)
  in
  let costs =
    Array.init n (fun k ->
        if k < 60 then 1. +. float_of_int k else 1000. +. float_of_int k)
  in
  check_decomposed_logit "clamped logit" ~valuations ~costs

let test_absorbed_weights () =
  (* Valuations only 40 below the maximum: the weights are ~e^-44 —
     positive, but below one ulp of the running prefix sum, so they are
     absorbed (w.(k+1) = w.(k) in floating point) without ever
     underflowing to zero. The flat range must still be split out. *)
  let n = 100 in
  let valuations =
    Array.init n (fun k -> if k >= 70 && k < 90 then 50. -. 40. else 50.)
  in
  let costs = Array.init n (fun k -> 1. +. (0.5 *. float_of_int k)) in
  check_decomposed_logit "absorbed weights" ~valuations ~costs

(* --- SMAWK rung (totally monotone, not inverse Monge) ------------------- *)

let test_smawk_rung () =
  (* seg i j = (1 + j) * b(i) with b alternating: the base layer is
     identically 0, so layer 1's candidate matrix IS this product —
     totally monotone (the column order of every row is the order of
     b(i), independent of j) but wildly non-Monge (adjacent quadruple
     deltas alternate sign). The Monge probe must kick it off the D&C
     rung and SMAWK must accept it, leftmost ties included. *)
  let b_of i = if i land 1 = 0 then 2. else 1. in
  let seg i j = if i = 0 then 0. else (1. +. float_of_int j) *. b_of i in
  let n = 80 in
  let fast = Numerics.Segdp.solve ~n ~n_bundles:2 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles:2 seg in
  check_same "smawk" fast exact;
  Alcotest.(check int) "smawk rung accepted the layer" 1
    (stats fast).Numerics.Segdp.smawk_layers;
  Alcotest.(check int) "no backstop" 0
    (stats fast).Numerics.Segdp.fallback_layers

(* --- quadratic backstop (no structure at all) --------------------------- *)

(* Deterministic pseudo-random seg_value: splitmix-style avalanche of
   (i, j) into [0, 1). No monotone structure survives, so both fast
   rungs must be rejected by their probes and the exact quadratic row
   must carry the layer — and the result is still, by construction,
   cut-for-cut the quadratic DP's. *)
let chaotic_seg n i j =
  let z = Int64.of_int ((i * n) + j + 1) in
  let z = Int64.mul z 0x9E3779B97F4A7C15L in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_float (Int64.logand z 0xFFFFFFL) /. 16777216.

let test_backstop_rung () =
  let n = 80 in
  let seg = chaotic_seg n in
  let fast = Numerics.Segdp.solve ~n ~n_bundles:4 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles:4 seg in
  check_same "chaotic" fast exact;
  Alcotest.(check bool)
    "backstop exercised" true
    ((stats fast).Numerics.Segdp.fallback_layers >= 1)

let test_nan_adjacent_plateau () =
  (* A zero plateau glued to a NaN range: segments longer than 25
     positions evaluate to NaN. NaN candidates lose every strict-[>]
     comparison in the exact row, and any NaN reaching a probe rejects
     the fast rung — so the ladder must land on the backstop and agree
     with the quadratic reference exactly. *)
  let seg i j = if j - i > 25 then Float.nan else 0. in
  let n = 60 in
  let fast = Numerics.Segdp.solve ~n ~n_bundles:4 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles:4 seg in
  check_same "nan plateau" fast exact;
  Alcotest.(check bool)
    "backstop exercised" true
    ((stats fast).Numerics.Segdp.fallback_layers >= 1)

(* --- plateaus and degenerate shapes ------------------------------------- *)

let test_constant_rows () =
  (* Identically-zero seg_value: every partition ties at 0 and the
     matrix is trivially totally monotone, so the SMAWK rung (first on
     a single-region layer) must keep every layer, and the strict-[>]
     tie-breaks must keep the single segment. *)
  let seg _ _ = 0. in
  let fast = Numerics.Segdp.solve ~n:64 ~n_bundles:5 seg in
  check_same "constant" fast (Numerics.Segdp.solve_quadratic ~n:64 ~n_bundles:5 seg);
  Alcotest.check cuts_testable "single segment" [] fast.Numerics.Segdp.cuts;
  Alcotest.(check int) "smawk on every layer" 4
    (stats fast).Numerics.Segdp.smawk_layers;
  Alcotest.(check int) "no backstop" 0
    (stats fast).Numerics.Segdp.fallback_layers;
  Alcotest.(check int) "undecomposed" 1 (stats fast).Numerics.Segdp.regions

let test_single_flow_chaotic () =
  let seg = chaotic_seg 1 in
  let fast = Numerics.Segdp.solve ~n:1 ~n_bundles:8 seg in
  check_same "n=1" fast (Numerics.Segdp.solve_quadratic ~n:1 ~n_bundles:8 seg)

let test_n_equals_bundles () =
  (* n = B: every flow can be its own segment; layers shrink to
     single-column ranges where every rung degenerates. *)
  let n = 6 in
  let seg = chaotic_seg n in
  let fast = Numerics.Segdp.solve ~n ~n_bundles:n seg in
  check_same "n=B" fast (Numerics.Segdp.solve_quadratic ~n ~n_bundles:n seg)

let test_two_flows_one_bundle () =
  let seg = chaotic_seg 2 in
  let fast = Numerics.Segdp.solve ~n:2 ~n_bundles:1 seg in
  check_same "n=2 B=1" fast (Numerics.Segdp.solve_quadratic ~n:2 ~n_bundles:1 seg)

let test_malformed_regions_rejected () =
  List.iter
    (fun (name, regions) ->
      Alcotest.check_raises name
        (Invalid_argument
           (if Array.length regions = 0 || regions.(0) <> 0 then
              "Segdp: regions must start with 0"
            else "Segdp: regions must be strictly increasing within [0, n)"))
        (fun () ->
          ignore
            (Numerics.Segdp.solve ~regions ~n:10 ~n_bundles:2 (fun _ _ -> 0.))))
    [
      ("empty", [||]);
      ("missing leading 0", [| 1; 4 |]);
      ("not increasing", [| 0; 5; 5 |]);
      ("start out of range", [| 0; 10 |]);
    ]

(* --- solve_curve on the corpus ------------------------------------------- *)

(* Every fixture above, solved once at B_max: entry b must be
   [solve ~n_bundles:b] exactly, whichever rung carried each layer. *)
let test_curve_matches_solve () =
  let check name ?regions ~n ~max_bundles seg =
    let curve = Numerics.Segdp.solve_curve ?regions ~n ~max_bundles seg in
    Alcotest.(check int) (name ^ " entries") max_bundles (Array.length curve);
    Array.iteri
      (fun i c ->
        check_same
          (Printf.sprintf "%s b=%d" name (i + 1))
          c
          (Numerics.Segdp.solve ?regions ~n ~n_bundles:(i + 1) seg))
      curve
  in
  let logit name ~valuations ~costs =
    let n = Array.length valuations in
    let m =
      Market.of_parameters
        ~spec:(Market.Logit { s0 = 0.2 })
        ~alpha:1.1 ~p0:20. ~valuations ~costs
        (Fixtures.flows_of_spec (List.init n (fun i -> (10. +. float_of_int i, 100.))))
    in
    let _order, seg, regions = Strategy.dp_inputs m in
    check name ~regions ~n ~max_bundles:6 seg
  in
  logit "clamped logit"
    ~valuations:(Array.init 120 (fun k -> if k >= 20 && k < 40 then -750. else 50.))
    ~costs:
      (Array.init 120 (fun k ->
           if k < 60 then 1. +. float_of_int k else 1000. +. float_of_int k));
  logit "absorbed weights"
    ~valuations:(Array.init 100 (fun k -> if k >= 70 && k < 90 then 10. else 50.))
    ~costs:(Array.init 100 (fun k -> 1. +. (0.5 *. float_of_int k)));
  let b_of i = if i land 1 = 0 then 2. else 1. in
  check "smawk" ~n:80 ~max_bundles:3 (fun i j ->
      if i = 0 then 0. else (1. +. float_of_int j) *. b_of i);
  check "chaotic" ~n:80 ~max_bundles:6 (chaotic_seg 80);
  check "nan plateau" ~n:60 ~max_bundles:6 (fun i j ->
      if j - i > 25 then Float.nan else 0.);
  check "constant" ~n:64 ~max_bundles:6 (fun _ _ -> 0.);
  check "n=1" ~n:1 ~max_bundles:8 (chaotic_seg 1);
  check "n=B" ~n:6 ~max_bundles:6 (chaotic_seg 6);
  check "B > n" ~n:4 ~max_bundles:7 (chaotic_seg 4)

let suite =
  [
    Alcotest.test_case "clamped logit: underflow + saturation" `Quick
      test_clamped_logit_underflow_and_saturation;
    Alcotest.test_case "absorbed weights decompose" `Quick
      test_absorbed_weights;
    Alcotest.test_case "smawk rung (TM, non-Monge)" `Quick test_smawk_rung;
    Alcotest.test_case "backstop rung (chaotic seg)" `Quick test_backstop_rung;
    Alcotest.test_case "nan-adjacent plateau" `Quick test_nan_adjacent_plateau;
    Alcotest.test_case "constant rows" `Quick test_constant_rows;
    Alcotest.test_case "single flow, chaotic" `Quick test_single_flow_chaotic;
    Alcotest.test_case "n = n_bundles" `Quick test_n_equals_bundles;
    Alcotest.test_case "two flows, one bundle" `Quick test_two_flows_one_bundle;
    Alcotest.test_case "malformed regions rejected" `Quick
      test_malformed_regions_rejected;
    Alcotest.test_case "solve_curve = solve on the corpus" `Quick
      test_curve_matches_solve;
  ]
