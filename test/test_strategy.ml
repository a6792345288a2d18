open Tiered

let test_names_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check bool) (Strategy.name s) true (Strategy.of_name (Strategy.name s) = s))
    Strategy.all;
  Alcotest.check_raises "unknown" (Invalid_argument "Strategy.of_name: unknown strategy x")
    (fun () -> ignore (Strategy.of_name "x"))

let test_token_bucket_paper_example () =
  (* The paper's worked example: demands 30, 10, 10, 10 into two bundles
     puts the big flow alone. *)
  let weights = [| 30.; 10.; 10.; 10. |] in
  let bundles = Strategy.token_bucket ~weights ~order:[| 0; 1; 2; 3 |] ~n_bundles:2 in
  Alcotest.(check int) "two bundles" 2 (Bundle.count bundles);
  let groups = (bundles :> int array array) in
  Alcotest.(check (array int)) "big flow alone" [| 0 |] groups.(0);
  Alcotest.(check (array int)) "rest together" [| 1; 2; 3 |] groups.(1)

let test_token_bucket_overdraft_carries () =
  (* One huge flow overdrafts its budget; the deficit carries forward, so
     the middle bundle only gets one flow (the "empty bundle accepts one"
     rule) and the tail collects in the last bundle. *)
  let weights = [| 100.; 1.; 1.; 1. |] in
  let bundles = Strategy.token_bucket ~weights ~order:[| 0; 1; 2; 3 |] ~n_bundles:3 in
  let groups = (bundles :> int array array) in
  Alcotest.(check int) "three bundles" 3 (Bundle.count bundles);
  Alcotest.(check (array int)) "giant alone" [| 0 |] groups.(0);
  Alcotest.(check (array int)) "single flow despite deficit" [| 1 |] groups.(1);
  Alcotest.(check (array int)) "tail" [| 2; 3 |] groups.(2)

let test_token_bucket_equal_weights () =
  let weights = Array.make 6 1. in
  let bundles = Strategy.token_bucket ~weights ~order:[| 0; 1; 2; 3; 4; 5 |] ~n_bundles:3 in
  Alcotest.(check (array int)) "even split" [| 2; 2; 2 |] (Bundle.sizes bundles)

let test_all_strategies_valid_partitions () =
  List.iter
    (fun m ->
      List.iter
        (fun strategy ->
          List.iter
            (fun b ->
              let bundles = Strategy.apply strategy m ~n_bundles:b in
              (* Validity is enforced by Bundle's smart constructor; check
                 bundle count within limit. *)
              Alcotest.(check bool)
                (Strategy.name strategy ^ " count")
                true
                (Bundle.count bundles <= b || b > Market.n_flows m))
            [ 1; 2; 3; 5; 8 ])
        Strategy.all)
    [ Fixtures.ced_market (); Fixtures.logit_market () ]

let test_cost_division_ranges () =
  let m = Fixtures.ced_market () in
  let bundles = Strategy.apply Strategy.Cost_division m ~n_bundles:2 in
  let cmax = Numerics.Stats.max m.Market.costs in
  let groups = (bundles :> int array array) in
  Array.iter
    (fun group ->
      let costs = Array.map (fun i -> m.Market.costs.(i)) group in
      let lo = Numerics.Stats.min costs and hi = Numerics.Stats.max costs in
      (* All members fall in the same half of [0, cmax]. *)
      Alcotest.(check bool) "same range" true
        (Float.floor (lo /. (cmax /. 2.) -. 1e-12) >= Float.floor (hi /. (cmax /. 2.) -. 1e-12) -. 1e-9))
    groups

let test_index_division_equal_ranks () =
  let m = Fixtures.ced_market () in
  let bundles = Strategy.apply Strategy.Index_division m ~n_bundles:4 in
  Alcotest.(check (array int)) "equal rank groups" [| 2; 2; 2; 2 |] (Bundle.sizes bundles)

let test_optimal_beats_heuristics () =
  List.iter
    (fun m ->
      let profit strategy b =
        (Pricing.evaluate m (Strategy.apply strategy m ~n_bundles:b)).Pricing.profit
      in
      List.iter
        (fun b ->
          let best = profit Strategy.Optimal b in
          List.iter
            (fun s ->
              if profit s b > best +. 1e-9 *. abs_float best then
                Alcotest.failf "%s beats optimal at B=%d" (Strategy.name s) b)
            Strategy.all)
        [ 2; 3; 4 ])
    [ Fixtures.ced_market (); Fixtures.logit_market () ]

(* The Optimal strategy now runs on the divide-and-conquer Segdp kernel;
   on the exhaustive fixture markets also pin it cut-for-cut against the
   exact quadratic DP so the cross-check covers the fast path too. *)
let check_kernels_agree m ~n_bundles =
  let _order, seg_value, regions = Strategy.dp_inputs m in
  let n = Market.n_flows m in
  let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles seg_value in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles seg_value in
  Alcotest.(check (list int))
    (Printf.sprintf "kernel cuts B=%d" n_bundles)
    exact.Numerics.Segdp.cuts fast.Numerics.Segdp.cuts

let test_optimal_matches_exhaustive_ced () =
  (* The DP's contiguity-in-cost argument is exact for CED: cross-check
     against true exhaustive set-partition search. *)
  let flows =
    Fixtures.flows_of_spec [ (50., 5.); (20., 60.); (10., 300.); (5., 1200.); (80., 15.) ]
  in
  let m = Fixtures.ced_market ~flows () in
  List.iter
    (fun b ->
      let dp = (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b)).Pricing.profit in
      let ex = (Pricing.evaluate m (Strategy.exhaustive_optimal m ~n_bundles:b)).Pricing.profit in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "B=%d" b) ex dp;
      check_kernels_agree m ~n_bundles:b)
    [ 1; 2; 3 ]

let test_optimal_close_to_exhaustive_logit () =
  let flows =
    Fixtures.flows_of_spec [ (50., 5.); (20., 60.); (10., 300.); (5., 1200.); (80., 15.) ]
  in
  let m = Fixtures.logit_market ~flows () in
  List.iter
    (fun b ->
      let dp = (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b)).Pricing.profit in
      let ex = (Pricing.evaluate m (Strategy.exhaustive_optimal m ~n_bundles:b)).Pricing.profit in
      if (ex -. dp) /. abs_float ex > 1e-6 then
        Alcotest.failf "logit DP off at B=%d: %f vs %f" b dp ex)
    [ 1; 2; 3 ]

let test_exhaustive_guard () =
  let flows =
    Array.init 13 (fun id -> Flow.make ~id ~demand_mbps:1. ~distance_miles:10. ())
  in
  let m = Fixtures.ced_market ~flows () in
  Alcotest.check_raises "too many flows"
    (Invalid_argument "Strategy.exhaustive_optimal: too many flows (max 12)") (fun () ->
      ignore (Strategy.exhaustive_optimal m ~n_bundles:2))

let test_class_aware_never_mixes_classes () =
  let m =
    Market.fit ~spec:Market.Ced ~alpha:1.1 ~p0:20.
      ~cost_model:(Cost_model.destination_type ~theta:0.3)
      (Fixtures.flows ())
  in
  let bundles = Strategy.apply Strategy.Profit_weighted_classes m ~n_bundles:4 in
  let groups = (bundles :> int array array) in
  Array.iter
    (fun group ->
      let classes =
        Array.map
          (fun i -> Cost_model.is_on_net ~theta:0.3 m.Market.flows.(i).Flow.id)
          group
      in
      let first = classes.(0) in
      Array.iter
        (fun c -> if c <> first then Alcotest.fail "mixed on/off-net bundle")
        classes)
    groups

let test_n_bundles_validation () =
  let m = Fixtures.ced_market () in
  Alcotest.check_raises "zero" (Invalid_argument "Strategy.apply: n_bundles < 1")
    (fun () -> ignore (Strategy.apply Strategy.Optimal m ~n_bundles:0))

let test_single_bundle_all_equal () =
  (* With one bundle every strategy produces the same (blended) result. *)
  let m = Fixtures.ced_market () in
  let blended = (Pricing.blended m).Pricing.profit in
  List.iter
    (fun s ->
      let profit = (Pricing.evaluate m (Strategy.apply s m ~n_bundles:1)).Pricing.profit in
      Alcotest.(check (float 1e-9)) (Strategy.name s) blended profit)
    Strategy.all

let prop_optimal_monotone_in_bundles =
  QCheck.Test.make ~name:"optimal profit monotone in bundle count" ~count:30
    QCheck.(
      list_of_size Gen.(3 -- 9)
        (pair (float_range 1. 50.) (float_range 1. 2000.)))
    (fun spec ->
      let m = Fixtures.ced_market ~flows:(Fixtures.flows_of_spec spec) () in
      let profit b =
        (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b)).Pricing.profit
      in
      let p2 = profit 2 and p3 = profit 3 and p4 = profit 4 in
      p2 <= p3 +. 1e-9 && p3 <= p4 +. 1e-9)

let test_dp_inputs_presorted () =
  (* A cost-sorted market (ties in index order) yields the identity
     cost order; a shuffled copy of it solves to the same cuts. *)
  let n = 40 in
  let costs = Array.init n (fun k -> 1. +. (0.37 *. float_of_int k)) in
  costs.(8) <- costs.(7);
  let valuations = Array.init n (fun k -> 10. +. float_of_int (k * 7 mod 13)) in
  (* The tied pair is also equal in valuation, so whichever of the two
     a cost order puts first, the segment values are the same. *)
  valuations.(8) <- valuations.(7);
  let flows =
    Array.init n (fun k ->
        Flow.make ~id:k ~demand_mbps:(1. +. float_of_int k)
          ~distance_miles:(100. +. float_of_int k) ())
  in
  let market perm =
    let pick a = Array.map (fun i -> a.(i)) perm in
    Market.of_parameters ~spec:Market.Ced ~alpha:1.1 ~p0:20.
      ~valuations:(pick valuations) ~costs:(pick costs) (pick flows)
  in
  let sorted = market (Array.init n Fun.id) in
  let order, seg, regions = Strategy.dp_inputs sorted in
  Alcotest.(check (array int)) "identity order" (Array.init n Fun.id) order;
  (* 17 is coprime to 40, so this is a permutation. *)
  let shuffle = Array.init n (fun k -> k * 17 mod n) in
  let order', seg', regions' = Strategy.dp_inputs (market shuffle) in
  Alcotest.(check bool) "shuffled order is not the identity" false
    (order' = Array.init n Fun.id);
  let solve seg regions = Numerics.Segdp.solve ~regions ~n ~n_bundles:4 seg in
  let a = solve seg regions and b = solve seg' regions' in
  Alcotest.(check (list int)) "same cuts" a.Numerics.Segdp.cuts
    b.Numerics.Segdp.cuts;
  Alcotest.(check bool) "same value" true
    (Float.equal a.Numerics.Segdp.value b.Numerics.Segdp.value)

(* --- Optimal is exact for logit ------------------------------------------ *)

(* Random logit markets of at most 10 flows, in two shapes: fitted from
   random flows, and built from explicit valuations and costs biased
   toward the clamp and underflow boundaries of the hostile corpus
   (test_segdp_hostile.ml): shifted weights that underflow
   (alpha dv below -745) or are absorbed by the prefix sums (dv near
   -40), and cost spreads past the exp saturation point. *)
type logit_case =
  | Fitted of { alpha : float; s0 : float; flows : (float * float) list }
  | Built of { alpha : float; flows : (float * float) list }

let logit_case_market = function
  | Fitted { alpha; s0; flows } ->
      Fixtures.logit_market ~alpha ~s0 ~flows:(Fixtures.flows_of_spec flows) ()
  | Built { alpha; flows } ->
      let valuations = Array.of_list (List.map (fun (dv, _) -> 800. +. dv) flows) in
      let costs = Array.of_list (List.map snd flows) in
      Market.of_parameters
        ~spec:(Market.Logit { s0 = 0.2 })
        ~alpha ~p0:20. ~valuations ~costs
        (Fixtures.flows_of_spec
           (List.mapi (fun i _ -> (10. +. float_of_int i, 100.)) flows))

let small_logit_arb =
  let open QCheck in
  let alpha = Gen.oneofl [ 0.5; 1.1; 2.; 5. ] in
  let fitted =
    Gen.map3
      (fun alpha s0 flows -> Fitted { alpha; s0; flows })
      alpha (Gen.float_range 0.15 0.9)
      Gen.(list_size (1 -- 10) (pair (float_range 1. 120.) (float_range 1. 2500.)))
  in
  let voff =
    Gen.oneof
      [
        Gen.float_range (-800.) 0.;
        Gen.float_range (-700.) (-650.);
        Gen.float_range (-45.) (-35.);
        Gen.return 0.;
      ]
  in
  let cost =
    Gen.oneof
      [ Gen.float_range 1. 1500.; Gen.float_range 600. 660.; Gen.float_range 1. 50. ]
  in
  let built =
    Gen.map2
      (fun alpha flows -> Built { alpha; flows })
      alpha
      Gen.(list_size (1 -- 10) (pair voff cost))
  in
  let print = function
    | Fitted { alpha; s0; flows } ->
        Printf.sprintf "fitted alpha=%g s0=%g %s" alpha s0
          (Print.(list (pair float float)) flows)
    | Built { alpha; flows } ->
        Printf.sprintf "built alpha=%g %s" alpha (Print.(list (pair float float)) flows)
  in
  make ~print (Gen.oneof [ fitted; built ])

let prop_logit_dp_exact =
  QCheck.Test.make ~name:"logit: exhaustive profit <= DP profit (1 + 1e-12)"
    ~count:60 small_logit_arb (fun case ->
      let m = logit_case_market case in
      let profit bundles = (Pricing.evaluate m bundles).Pricing.profit in
      List.for_all
        (fun b ->
          let dp = profit (Strategy.apply Strategy.Optimal m ~n_bundles:b) in
          let ex = profit (Strategy.exhaustive_optimal m ~n_bundles:b) in
          ex <= dp *. (1. +. 1e-12)
          || QCheck.Test.fail_reportf "B=%d: exhaustive %.17g > DP %.17g" b ex dp)
        [ 1; 2; 3; 4 ])

(* --- curve = apply per B ------------------------------------------------- *)

let curve_arb =
  let open QCheck in
  let spec =
    Gen.oneofl
      [ Market.Ced; Market.Logit { s0 = 0.2 }; Market.Linear { epsilon = 1.8 } ]
  in
  let cost_model =
    Gen.oneofl
      [
        Cost_model.linear ~theta:0.2;
        Cost_model.concave ~theta:0.3;
        Cost_model.regional ~theta:1.1;
        Cost_model.destination_type ~theta:0.3;
      ]
  in
  make
    ~print:(fun (spec, _, max_bundles, flows) ->
      Printf.sprintf "%s B_max=%d %s" (Market.demand_spec_name spec) max_bundles
        (Print.(list (pair float float)) flows))
    Gen.(
      quad spec cost_model (1 -- 8)
        (list_size (1 -- 40) (pair (float_range 1. 120.) (float_range 1. 2500.))))

let prop_curve_equals_apply =
  QCheck.Test.make ~name:"curve entry b = apply ~n_bundles:b, every strategy"
    ~count:60 curve_arb (fun (spec, cost_model, max_bundles, flows) ->
      let m =
        Market.fit ~spec ~alpha:1.1 ~p0:20. ~cost_model (Fixtures.flows_of_spec flows)
      in
      List.for_all
        (fun s ->
          let curve = Strategy.curve s m ~max_bundles in
          Array.length curve = max_bundles
          && List.for_all
               (fun b ->
                 (curve.(b - 1) :> int array array)
                 = (Strategy.apply s m ~n_bundles:b :> int array array)
                 || QCheck.Test.fail_reportf "%s differs at B=%d" (Strategy.name s) b)
               (List.init max_bundles (fun i -> i + 1)))
        Strategy.all)

let test_curve_validation () =
  Alcotest.check_raises "zero" (Invalid_argument "Strategy.curve: max_bundles < 1")
    (fun () ->
      ignore (Strategy.curve Strategy.Optimal (Fixtures.ced_market ()) ~max_bundles:0))

let suite =
  [
    Alcotest.test_case "names roundtrip" `Quick test_names_roundtrip;
    Alcotest.test_case "token bucket paper example" `Quick test_token_bucket_paper_example;
    Alcotest.test_case "token bucket overdraft" `Quick test_token_bucket_overdraft_carries;
    Alcotest.test_case "token bucket equal weights" `Quick test_token_bucket_equal_weights;
    Alcotest.test_case "all strategies valid" `Quick test_all_strategies_valid_partitions;
    Alcotest.test_case "cost division ranges" `Quick test_cost_division_ranges;
    Alcotest.test_case "index division ranks" `Quick test_index_division_equal_ranks;
    Alcotest.test_case "optimal beats heuristics" `Quick test_optimal_beats_heuristics;
    Alcotest.test_case "optimal = exhaustive (CED)" `Slow test_optimal_matches_exhaustive_ced;
    Alcotest.test_case "optimal ~ exhaustive (logit)" `Slow test_optimal_close_to_exhaustive_logit;
    Alcotest.test_case "exhaustive size guard" `Quick test_exhaustive_guard;
    Alcotest.test_case "class-aware never mixes" `Quick test_class_aware_never_mixes_classes;
    Alcotest.test_case "n_bundles validation" `Quick test_n_bundles_validation;
    Alcotest.test_case "single bundle equivalence" `Quick test_single_bundle_all_equal;
    QCheck_alcotest.to_alcotest prop_optimal_monotone_in_bundles;
    Alcotest.test_case "dp_inputs pre-sorted is the identity" `Quick
      test_dp_inputs_presorted;
    QCheck_alcotest.to_alcotest prop_logit_dp_exact;
    QCheck_alcotest.to_alcotest prop_curve_equals_apply;
    Alcotest.test_case "curve validation" `Quick test_curve_validation;
  ]
