open Tiered

(* The divide-and-conquer tier-DP kernel (DESIGN.md §11) must be
   cut-for-cut identical to the exact quadratic reference, ties
   included — the Optimal strategy, golden experiment grids, and the
   kernel grid (test_dp_grid.ml) all lean on that equality. *)

let cuts_testable = Alcotest.(list int)

let check_same name (fast : Numerics.Segdp.result)
    (exact : Numerics.Segdp.result) =
  Alcotest.check cuts_testable (name ^ " cuts") exact.Numerics.Segdp.cuts
    fast.Numerics.Segdp.cuts;
  Alcotest.(check int)
    (name ^ " segments")
    exact.Numerics.Segdp.segments fast.Numerics.Segdp.segments;
  (* Identical cuts imply identical (not merely close) values: both
     solvers sum the same seg_value calls over the same segments. *)
  Alcotest.(check bool)
    (name ^ " value")
    true
    (Float.equal exact.Numerics.Segdp.value fast.Numerics.Segdp.value)

let test_validation () =
  List.iter
    (fun (n, b, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "n=%d b=%d" n b)
        (Invalid_argument msg)
        (fun () ->
          ignore (Numerics.Segdp.solve ~n ~n_bundles:b (fun _ _ -> 0.))))
    [
      (0, 1, "Segdp: n must be positive");
      (-2, 3, "Segdp: n must be positive");
      (1, 0, "Segdp: n_bundles must be positive");
    ]

let test_single_flow () =
  let r = Numerics.Segdp.solve ~n:1 ~n_bundles:5 (fun _ _ -> 7.5) in
  Alcotest.check cuts_testable "no cuts" [] r.Numerics.Segdp.cuts;
  Alcotest.(check int) "one segment" 1 r.Numerics.Segdp.segments;
  Alcotest.(check (float 0.)) "value" 7.5 r.Numerics.Segdp.value

let test_single_bundle () =
  (* b = 1 admits only the trivial partition. *)
  let seg i j = float_of_int ((10 * i) + j) in
  let r = Numerics.Segdp.solve ~n:6 ~n_bundles:1 seg in
  Alcotest.check cuts_testable "no cuts" [] r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" (seg 0 5) r.Numerics.Segdp.value

let test_additive_prefers_fewest_segments () =
  (* Purely additive seg_value: every partition scores the same total, so
     the strict-[>] tie-breaks must keep the single segment. *)
  let seg i j = float_of_int (j - i + 1) in
  let r = Numerics.Segdp.solve ~n:9 ~n_bundles:4 seg in
  Alcotest.check cuts_testable "ties keep one segment" []
    r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" 9. r.Numerics.Segdp.value

let test_known_optimum () =
  (* Concave reward for splitting at position 3: seg_value pays a bonus
     for the exact segments [0..2] and [3..5]. *)
  let seg i j = if (i = 0 && j = 2) || (i = 3 && j = 5) then 10. else 1. in
  let r = Numerics.Segdp.solve ~n:6 ~n_bundles:2 seg in
  Alcotest.check cuts_testable "splits at 3" [ 3 ] r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" 20. r.Numerics.Segdp.value;
  check_same "known optimum" r
    (Numerics.Segdp.solve_quadratic ~n:6 ~n_bundles:2 seg)

let test_forced_fallback () =
  (* Convex segment value: seg i j = (j - i)^2 violates the adjacent
     inverse-Monge condition everywhere (2 d^2 < (d-1)^2 + (d+1)^2), so
     the Monge spot-check must kick the layer off the D&C rung, and
     whichever later rung accepts it (SMAWK or the quadratic backstop)
     must still return the quadratic DP's exact cuts. The optimum here
     is a single huge segment, but intermediate layers are hostile. *)
  let seg i j = float_of_int ((j - i) * (j - i)) in
  let n = 40 and n_bundles = 5 in
  let fast = Numerics.Segdp.solve ~n ~n_bundles seg in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles seg in
  Alcotest.(check bool)
    "spot-check tripped" true
    (fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers
     + fast.Numerics.Segdp.stats.Numerics.Segdp.smawk_layers
    >= 1);
  check_same "fallback" fast exact

let test_fallback_disabled_sampling_still_exact_on_monge () =
  (* samples = 0 disables validation; on a genuinely inverse-Monge
     matrix the D&C answer must nonetheless match exactly. Concave
     f(len): seg i j = sqrt (j - i + 1) is submodular. *)
  let seg i j = sqrt (float_of_int (j - i + 1)) in
  let fast = Numerics.Segdp.solve ~samples:0 ~n:60 ~n_bundles:6 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n:60 ~n_bundles:6 seg in
  Alcotest.(check int)
    "no fallback" 0
    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
  check_same "monge" fast exact

let test_dandc_cheaper_than_quadratic () =
  (* The point of the kernel: strictly fewer seg_value evaluations than
     the quadratic reference on a well-behaved instance big enough for
     the log factor to win. *)
  let seg i j = sqrt (float_of_int (j - i + 1)) in
  let fast = Numerics.Segdp.solve ~n:400 ~n_bundles:8 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n:400 ~n_bundles:8 seg in
  check_same "big monge" fast exact;
  Alcotest.(check bool)
    "fewer evaluations" true
    (fast.Numerics.Segdp.stats.Numerics.Segdp.evaluations
    < exact.Numerics.Segdp.stats.Numerics.Segdp.evaluations / 4)

(* Random-market cut equality, per demand spec (the ISSUE's headline
   property): build the same (order, seg_value) the Optimal strategy
   uses and pin solve = solve_quadratic cut-for-cut. *)

let spec_gen =
  QCheck.(
    list_of_size Gen.(3 -- 50)
      (pair (float_range 1. 120.) (float_range 1. 2500.)))

let market_of ~demand flows =
  match demand with
  | `Ced -> Fixtures.ced_market ~flows ()
  | `Logit -> Fixtures.logit_market ~flows ()
  | `Linear ->
      Market.fit ~spec:(Market.Linear { epsilon = 1.8 }) ~alpha:1.1 ~p0:20.
        ~cost_model:(Cost_model.linear ~theta:0.2) flows

let all_bundle_counts = List.init 10 (fun i -> i + 1)

let prop_cuts_equal name demand =
  QCheck.Test.make
    ~name:(Printf.sprintf "solve = solve_quadratic cuts (%s)" name)
    ~count:25 spec_gen
    (fun spec ->
      let m = market_of ~demand (Fixtures.flows_of_spec spec) in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      let n = Market.n_flows m in
      List.for_all
        (fun b ->
          let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
          let exact =
            Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value
          in
          fast.Numerics.Segdp.cuts = exact.Numerics.Segdp.cuts
          && Float.equal fast.Numerics.Segdp.value
               exact.Numerics.Segdp.value)
        all_bundle_counts)

(* Hostile logit generator: valuation offsets and costs biased toward
   the clamp/underflow boundaries where the pre-ladder kernel used to
   trip — weight underflow near alpha*dv = -745, prefix-sum absorption
   near dv = -40, exp saturation near alpha*dc = 690 — mixed with
   benign draws so region boundaries land mid-array. Offsets hang off
   a base valuation of 800 so the top flows keep a real profit scale:
   the no-backstop guarantee is about *clamped* markets, not about
   surfaces that have collapsed below one ulp wholesale (there the
   rounded dp+seg candidates can flip argmaxes at noise scale, the
   probes rightly notice, and the backstop carrying the layer is the
   ladder working as designed — cut equality still holds and is
   asserted for every draw). *)
let hostile_logit_arb =
  let open QCheck in
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
      [
        Gen.float_range 1. 1500.;
        Gen.float_range 600. 660.;
        Gen.float_range 1. 50.;
      ]
  in
  make
    ~print:Print.(list (pair float float))
    Gen.(list_size (5 -- 40) (pair voff cost))

let prop_hostile_logit_decomposed =
  QCheck.Test.make
    ~name:"hostile logit: cuts equal, decomposed => no backstop" ~count:50
    hostile_logit_arb
    (fun spec ->
      let n = List.length spec in
      let valuations =
        Array.of_list (List.map (fun (dv, _) -> 800. +. dv) spec)
      in
      let costs = Array.of_list (List.map (fun (_, c) -> c) spec) in
      let flows =
        Fixtures.flows_of_spec
          (List.mapi (fun i _ -> (10. +. float_of_int i, 100.)) spec)
      in
      let m =
        Market.of_parameters
          ~spec:(Market.Logit { s0 = 0.2 })
          ~alpha:1.1 ~p0:20. ~valuations ~costs flows
      in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      List.for_all
        (fun b ->
          let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
          let exact =
            Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value
          in
          fast.Numerics.Segdp.cuts = exact.Numerics.Segdp.cuts
          && Float.equal fast.Numerics.Segdp.value exact.Numerics.Segdp.value
          (* The whole point of the decomposition: once the clamped
             ranges are split out, no layer may pay the O(n^2) row. *)
          && (Array.length regions = 1
             || fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers = 0))
        all_bundle_counts)

let prop_evals_monotone_in_n =
  (* Work must grow with the instance: the same spec replicated 8x has
     to cost strictly more seg_value evaluations at every bundle
     count. Guards against validation accidentally scaling with
     something other than n (or a rung silently re-running layers). *)
  QCheck.Test.make ~name:"evaluations monotone in n" ~count:15 spec_gen
    (fun spec ->
      let evals m b =
        let _order, seg_value, regions = Strategy.dp_inputs m in
        let n = Market.n_flows m in
        let r = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
        r.Numerics.Segdp.stats.Numerics.Segdp.evaluations
      in
      let small = market_of ~demand:`Ced (Fixtures.flows_of_spec spec) in
      let big_spec = List.concat (List.init 8 (fun _ -> spec)) in
      let big = market_of ~demand:`Ced (Fixtures.flows_of_spec big_spec) in
      List.for_all (fun b -> evals small b < evals big b) [ 2; 5; 10 ])

let prop_cuts_valid =
  (* Structural sanity on the returned partition itself. *)
  QCheck.Test.make ~name:"cuts ascending, in range, within budget"
    ~count:25 spec_gen
    (fun spec ->
      let m = Fixtures.ced_market ~flows:(Fixtures.flows_of_spec spec) () in
      let _order, seg_value, _regions = Strategy.dp_inputs m in
      let n = Market.n_flows m in
      List.for_all
        (fun b ->
          let r = Numerics.Segdp.solve ~n ~n_bundles:b seg_value in
          let cuts = r.Numerics.Segdp.cuts in
          let ascending =
            let rec go = function
              | a :: (c :: _ as rest) -> a < c && go rest
              | _ -> true
            in
            go cuts
          in
          ascending
          && List.for_all (fun c -> c >= 1 && c <= n - 1) cuts
          && r.Numerics.Segdp.segments = List.length cuts + 1
          && r.Numerics.Segdp.segments <= Stdlib.min b n)
        [ 1; 2; 4; 8 ])

(* --- Warm start (the streaming service's incremental solves) ------------ *)

(* Concave-of-additive segment values off a per-position weight array:
   inverse Monge, and mutating a position suffix perturbs exactly the
   segments that touch it — the shape of a re-tier's dirty window. *)
let seg_of_weights w =
  let n = Array.length w in
  let prefix = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. w.(i)
  done;
  fun lo hi -> sqrt (prefix.(hi + 1) -. prefix.(lo))

let base_weights n = Array.init n (fun i -> 1. +. (float_of_int (i mod 7) /. 3.))

let test_state_matches_solve () =
  let n = 80 and n_bundles = 6 in
  let seg = seg_of_weights (base_weights n) in
  let from_state, _ = Numerics.Segdp.solve_with_state ~n ~n_bundles seg in
  check_same "with_state" from_state (Numerics.Segdp.solve ~n ~n_bundles seg)

let test_warm_suffix_matches_cold () =
  let n = 80 and n_bundles = 6 and d = 55 in
  let w = base_weights n in
  let _, st = Numerics.Segdp.solve_with_state ~n ~n_bundles (seg_of_weights w) in
  for i = d to n - 1 do
    w.(i) <- w.(i) +. 2.5
  done;
  let seg = seg_of_weights w in
  let warm, how = Numerics.Segdp.solve_warm st ~dirty_from:d seg in
  Alcotest.(check bool) "warm path" true (how = `Warm);
  Alcotest.(check int)
    "no fallback" 0 warm.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
  let cold = Numerics.Segdp.solve ~n ~n_bundles seg in
  check_same "warm = cold" warm cold;
  Alcotest.(check bool)
    "suffix recompute is cheaper" true
    (warm.Numerics.Segdp.stats.Numerics.Segdp.evaluations
    < cold.Numerics.Segdp.stats.Numerics.Segdp.evaluations)

let test_warm_smawk_suffix () =
  (* A single-region warm suffix recomputes on the SMAWK rung, every
     layer, from the last clean column's argmax — exact, and cheaper
     than the cold solve it replaces. *)
  let n = 2000 and n_bundles = 6 and d = 1500 in
  let w = base_weights n in
  let _, st = Numerics.Segdp.solve_with_state ~n ~n_bundles (seg_of_weights w) in
  for i = d to n - 1 do
    w.(i) <- w.(i) +. 1.5
  done;
  let seg = seg_of_weights w in
  let warm, how = Numerics.Segdp.solve_warm st ~dirty_from:d seg in
  Alcotest.(check bool) "warm path" true (how = `Warm);
  Alcotest.(check int) "every layer on smawk" (n_bundles - 1)
    warm.Numerics.Segdp.stats.Numerics.Segdp.smawk_layers;
  check_same "warm smawk = quadratic" warm
    (Numerics.Segdp.solve_quadratic ~n ~n_bundles seg);
  let cold = Numerics.Segdp.solve ~n ~n_bundles seg in
  Alcotest.(check bool) "suffix cheaper than cold" true
    (warm.Numerics.Segdp.stats.Numerics.Segdp.evaluations
    < cold.Numerics.Segdp.stats.Numerics.Segdp.evaluations)

let test_cold_smawk_first () =
  (* CED and linear layers are single-region: each one runs on SMAWK
     (no D&C, no backstop) and the solve is still the quadratic DP's,
     bit for bit. *)
  List.iter
    (fun (name, spec) ->
      let m = Experiment.market ~spec "eu_isp@2000" in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      let n = Market.n_flows m and n_bundles = 4 in
      let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles seg_value in
      Alcotest.(check int) (name ^ " one region") 1 (Array.length regions);
      Alcotest.(check int) (name ^ " smawk on every layer") (n_bundles - 1)
        fast.Numerics.Segdp.stats.Numerics.Segdp.smawk_layers;
      Alcotest.(check int) (name ^ " no backstop") 0
        fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
      check_same name fast
        (Numerics.Segdp.solve_quadratic ~n ~n_bundles seg_value))
    [ ("ced", Market.Ced); ("linear", Market.Linear { epsilon = 1.8 }) ]

let test_warm_dirty_zero_full_recompute () =
  let n = 60 and n_bundles = 5 in
  let w = base_weights n in
  let _, st = Numerics.Segdp.solve_with_state ~n ~n_bundles (seg_of_weights w) in
  Array.iteri (fun i v -> w.(i) <- v *. 1.7) (Array.copy w);
  let seg = seg_of_weights w in
  let warm, _ = Numerics.Segdp.solve_warm st ~dirty_from:0 seg in
  check_same "dirty 0" warm (Numerics.Segdp.solve ~n ~n_bundles seg)

let test_warm_unchanged_replay () =
  let n = 50 and n_bundles = 4 in
  let seg = seg_of_weights (base_weights n) in
  let first, st = Numerics.Segdp.solve_with_state ~n ~n_bundles seg in
  let replay, how = Numerics.Segdp.solve_warm st ~dirty_from:n seg in
  Alcotest.(check bool) "warm tag" true (how = `Warm);
  Alcotest.(check int)
    "zero evaluations" 0 replay.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
  check_same "replay" replay first

let test_warm_force_fallback () =
  let n = 50 and n_bundles = 4 in
  let w = base_weights n in
  let _, st = Numerics.Segdp.solve_with_state ~n ~n_bundles (seg_of_weights w) in
  w.(30) <- w.(30) +. 9.;
  let seg = seg_of_weights w in
  let warm, how =
    Numerics.Segdp.solve_warm ~force_fallback:true st ~dirty_from:30 seg
  in
  Alcotest.(check bool) "took the cold path" true (how = `Cold);
  check_same "forced" warm (Numerics.Segdp.solve ~n ~n_bundles seg);
  (* The state is usable again after the drill. *)
  let again, how = Numerics.Segdp.solve_warm st ~dirty_from:n seg in
  Alcotest.(check bool) "replay after drill" true (how = `Warm);
  check_same "post-drill replay" again warm

let test_warm_genuine_divergence () =
  (* Hostile convex base (the same shape [test_forced_fallback] uses):
     the warm suffix recompute's spot-check must trip and the cold
     fallback must still match the exact quadratic DP. *)
  let n = 40 and n_bundles = 5 and d = 20 in
  let bump = Array.make n 0. in
  let seg_with bump lo hi =
    let extra = ref 0. in
    for x = lo to hi do
      extra := !extra +. bump.(x)
    done;
    float_of_int ((hi - lo) * (hi - lo)) +. !extra
  in
  let _, st =
    Numerics.Segdp.solve_with_state ~n ~n_bundles (seg_with bump)
  in
  for i = d to n - 1 do
    bump.(i) <- 3.
  done;
  let seg = seg_with bump in
  let warm, how = Numerics.Segdp.solve_warm st ~dirty_from:d seg in
  Alcotest.(check bool) "diverged to cold" true (how = `Cold);
  check_same "divergence" warm
    (Numerics.Segdp.solve_quadratic ~n ~n_bundles seg)

let test_warm_validation () =
  let n = 10 in
  let seg = seg_of_weights (base_weights n) in
  let _, st = Numerics.Segdp.solve_with_state ~n ~n_bundles:3 seg in
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "dirty_from=%d" d)
        (Invalid_argument "Segdp.solve_warm: dirty_from out of [0, n]")
        (fun () -> ignore (Numerics.Segdp.solve_warm st ~dirty_from:d seg)))
    [ -1; n + 1 ]

(* --- solve_curve --------------------------------------------------------- *)

(* One fill at B_max against a fresh solve per b: cuts, segment counts
   and bitwise values must all agree. *)
let curve_agrees ?regions ~n ~max_bundles seg_value =
  let curve = Numerics.Segdp.solve_curve ?regions ~n ~max_bundles seg_value in
  Array.length curve = max_bundles
  && List.for_all
       (fun b ->
         let r = Numerics.Segdp.solve ?regions ~n ~n_bundles:b seg_value in
         let c = curve.(b - 1) in
         (c.Numerics.Segdp.cuts = r.Numerics.Segdp.cuts
         && c.Numerics.Segdp.segments = r.Numerics.Segdp.segments
         && Float.equal c.Numerics.Segdp.value r.Numerics.Segdp.value)
         || QCheck.Test.fail_reportf "entry %d differs from solve" b)
       (List.init max_bundles (fun i -> i + 1))

let prop_curve_equals_solve name demand =
  QCheck.Test.make
    ~name:(Printf.sprintf "solve_curve entry b = solve ~n_bundles:b (%s)" name)
    ~count:25 spec_gen
    (fun spec ->
      let m = market_of ~demand (Fixtures.flows_of_spec spec) in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      curve_agrees ~regions ~n:(Market.n_flows m) ~max_bundles:10 seg_value)

let prop_curve_hostile_logit =
  QCheck.Test.make ~name:"solve_curve entry b = solve (hostile logit)" ~count:50
    hostile_logit_arb
    (fun spec ->
      let valuations =
        Array.of_list (List.map (fun (dv, _) -> 800. +. dv) spec)
      in
      let costs = Array.of_list (List.map (fun (_, c) -> c) spec) in
      let flows =
        Fixtures.flows_of_spec
          (List.mapi (fun i _ -> (10. +. float_of_int i, 100.)) spec)
      in
      let m =
        Market.of_parameters
          ~spec:(Market.Logit { s0 = 0.2 })
          ~alpha:1.1 ~p0:20. ~valuations ~costs flows
      in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      curve_agrees ~regions ~n:(List.length spec) ~max_bundles:10 seg_value)

(* The certificate's exact columns are shared by every layer and
   checked in one sweep, so four more layers cost four more SMAWK
   passes, not four more certificates. Layer 1 alone (B = 2, less the
   base layer) pays one SMAWK pass plus one full certificate, about 6n
   and 4n evaluations on the serve daemon's re-tier market: three of
   those bound four SMAWK passes (about 25n) but not four passes that
   each re-pay the certificate (about 41n). *)
let test_certificate_once_per_solve () =
  let m =
    Experiment.market ~alpha:2. ~cost_model:(Cost_model.concave ~theta:0.5)
      ~spec:Market.Ced "eu_isp@20000"
  in
  let _order, seg_value, regions = Strategy.dp_inputs m in
  let n = Market.n_flows m in
  let evals b =
    (Numerics.Segdp.solve ~samples:8 ~regions ~n ~n_bundles:b seg_value)
      .Numerics.Segdp.stats
      .Numerics.Segdp.evaluations
  in
  let e2 = evals 2 and e4 = evals 4 and e8 = evals 8 in
  Alcotest.(check bool)
    (Printf.sprintf "evals(B=8) - evals(B=4) = %d < 3 (evals(B=2) - n) = %d"
       (e8 - e4)
       (3 * (e2 - n)))
    true
    (e8 - e4 < 3 * (e2 - n))

let suite =
  [
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "single flow" `Quick test_single_flow;
    Alcotest.test_case "single bundle" `Quick test_single_bundle;
    Alcotest.test_case "additive ties keep fewest segments" `Quick
      test_additive_prefers_fewest_segments;
    Alcotest.test_case "known optimum" `Quick test_known_optimum;
    Alcotest.test_case "forced fallback (convex seg_value)" `Quick
      test_forced_fallback;
    Alcotest.test_case "monge exact without validation" `Quick
      test_fallback_disabled_sampling_still_exact_on_monge;
    Alcotest.test_case "d&c beats quadratic eval count" `Quick
      test_dandc_cheaper_than_quadratic;
    Alcotest.test_case "state solve matches solve" `Quick test_state_matches_solve;
    Alcotest.test_case "warm suffix matches cold" `Quick test_warm_suffix_matches_cold;
    Alcotest.test_case "warm dirty 0 = full recompute" `Quick
      test_warm_dirty_zero_full_recompute;
    Alcotest.test_case "warm unchanged replay" `Quick test_warm_unchanged_replay;
    Alcotest.test_case "warm forced fallback" `Quick test_warm_force_fallback;
    Alcotest.test_case "warm genuine divergence" `Quick test_warm_genuine_divergence;
    Alcotest.test_case "warm validation" `Quick test_warm_validation;
    Alcotest.test_case "warm suffix on smawk" `Quick test_warm_smawk_suffix;
    Alcotest.test_case "cold ced/linear smawk first" `Quick test_cold_smawk_first;
    QCheck_alcotest.to_alcotest (prop_cuts_equal "ced" `Ced);
    QCheck_alcotest.to_alcotest (prop_cuts_equal "logit" `Logit);
    QCheck_alcotest.to_alcotest (prop_cuts_equal "linear" `Linear);
    QCheck_alcotest.to_alcotest prop_hostile_logit_decomposed;
    QCheck_alcotest.to_alcotest prop_evals_monotone_in_n;
    QCheck_alcotest.to_alcotest prop_cuts_valid;
    QCheck_alcotest.to_alcotest (prop_curve_equals_solve "ced" `Ced);
    QCheck_alcotest.to_alcotest (prop_curve_equals_solve "logit" `Logit);
    QCheck_alcotest.to_alcotest (prop_curve_equals_solve "linear" `Linear);
    QCheck_alcotest.to_alcotest prop_curve_hostile_logit;
    Alcotest.test_case "certificate paid once per solve" `Quick
      test_certificate_once_per_solve;
  ]
