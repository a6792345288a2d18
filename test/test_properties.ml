(* Cross-module property tests on randomly generated markets: the
   invariants every component combination must satisfy, regardless of the
   flow mix. *)
open Tiered

let market_gen =
  (* 3-12 flows with demands over three orders of magnitude and
     distances from metro to intercontinental. *)
  QCheck.Gen.(
    let flow = pair (float_range 0.5 500.) (float_range 1. 8000.) in
    list_size (3 -- 12) flow)

let arb_spec = QCheck.make ~print:QCheck.Print.(list (pair float float)) market_gen

let markets_of spec =
  let flows = Fixtures.flows_of_spec spec in
  [
    Market.fit ~spec:Market.Ced ~alpha:1.3 ~p0:20.
      ~cost_model:(Cost_model.linear ~theta:0.2) flows;
    Market.fit ~spec:(Market.Logit { s0 = 0.2 }) ~alpha:1.3 ~p0:20.
      ~cost_model:(Cost_model.linear ~theta:0.2) flows;
    Market.fit ~spec:(Market.Linear { epsilon = 1.8 }) ~alpha:1.3 ~p0:20.
      ~cost_model:(Cost_model.linear ~theta:0.2) flows;
  ]

let for_all_markets f spec = List.for_all f (markets_of spec)

let prop_capture_bounds =
  QCheck.Test.make ~name:"optimal capture lies in [0, 1]" ~count:60 arb_spec
    (for_all_markets (fun m ->
         let ctx = Capture.context m in
         List.for_all
           (fun b ->
             let c =
               Capture.value ctx
                 (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
                   .Pricing.profit
             in
             c >= -1e-9 && c <= 1. +. 1e-9)
           [ 1; 2; 3 ]))

let prop_profit_chain =
  QCheck.Test.make ~name:"blended <= optimal B2 <= optimal B3 <= max" ~count:60
    arb_spec
    (for_all_markets (fun m ->
         let profit b =
           (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
             .Pricing.profit
         in
         let blended = Pricing.original_profit m in
         let maximum = Pricing.max_profit m in
         let tol = 1e-9 *. (1. +. abs_float maximum) in
         blended <= profit 2 +. tol
         && profit 2 <= profit 3 +. tol
         && profit 3 <= maximum +. tol))

let prop_every_strategy_below_optimal =
  QCheck.Test.make ~name:"no heuristic beats optimal" ~count:40 arb_spec
    (for_all_markets (fun m ->
         let profit s =
           (Pricing.evaluate m (Strategy.apply s m ~n_bundles:3)).Pricing.profit
         in
         let best = profit Strategy.Optimal in
         let tol = 1e-9 *. (1. +. abs_float best) in
         List.for_all (fun s -> profit s <= best +. tol) Strategy.all))

let prop_welfare_identity =
  QCheck.Test.make ~name:"welfare identity on random markets" ~count:60 arb_spec
    (for_all_markets (fun m ->
         let a = Welfare.of_strategy m Strategy.Optimal ~n_bundles:2 in
         let tol = 1e-6 *. (1. +. abs_float a.Welfare.first_best_welfare) in
         abs_float (a.Welfare.welfare -. (a.Welfare.profit +. a.Welfare.consumer_surplus))
         <= tol
         && a.Welfare.efficiency <= 1. +. 1e-9))

let prop_blended_demand_recovered =
  QCheck.Test.make ~name:"blended pricing reproduces observed demand" ~count:60
    arb_spec
    (for_all_markets (fun m ->
         let o = Pricing.blended m in
         Array.for_all2
           (fun (f : Flow.t) q ->
             abs_float (q -. f.Flow.demand_mbps) <= 1e-6 *. (1. +. f.Flow.demand_mbps))
           m.Market.flows o.Pricing.flow_demands))

let prop_bundle_prices_between_flow_optima_ced =
  QCheck.Test.make ~name:"CED bundle prices within member optima" ~count:60 arb_spec
    (fun spec ->
      let m = List.hd (markets_of spec) in
      let bundles = Strategy.apply Strategy.Optimal m ~n_bundles:2 in
      let o = Pricing.evaluate m bundles in
      Array.for_all2
        (fun group price ->
          let optima =
            Array.map
              (fun i -> Ced.optimal_price ~alpha:m.Market.alpha ~c:m.Market.costs.(i))
              group
          in
          price >= Numerics.Stats.min optima -. 1e-6
          && price <= Numerics.Stats.max optima +. 1e-6)
        (bundles :> int array array)
        o.Pricing.bundle_prices)

let prop_cost_model_invariance =
  (* Scaling every distance by a constant leaves relative costs, hence
     capture, unchanged under the linear model with theta=0. *)
  QCheck.Test.make ~name:"capture invariant to distance rescaling" ~count:40
    QCheck.(pair arb_spec (float_range 0.5 20.))
    (fun (spec, scale) ->
      let scaled = List.map (fun (q, d) -> (q, d *. scale)) spec in
      let capture s =
        let m =
          Market.fit ~spec:Market.Ced ~alpha:1.3 ~p0:20.
            ~cost_model:(Cost_model.linear ~theta:0.)
            (Fixtures.flows_of_spec s)
        in
        Sensitivity.capture_at m Strategy.Optimal ~n_bundles:2
      in
      abs_float (capture spec -. capture scaled) <= 1e-6)

let prop_tier_count_net_profit_bounded =
  QCheck.Test.make ~name:"net profit <= gross profit" ~count:40 arb_spec
    (for_all_markets (fun m ->
         let o = Tier_count.overhead ~fixed:1. ~per_tier:2. ~per_flow:0.1 () in
         List.for_all
           (fun p -> p.Tier_count.net_profit <= p.Tier_count.gross_profit)
           (Tier_count.series m Strategy.Optimal o ~max_bundles:4)))

let prop_ced_capture_monotone =
  (* §4.2: under CED demand, adding tiers can only help the optimal
     partition — capture stays in [0,1] and is non-decreasing in the
     tier count. *)
  QCheck.Test.make ~name:"CED capture in [0,1] and monotone in tier count"
    ~count:40 arb_spec (fun spec ->
      let m = List.hd (markets_of spec) in
      let ctx = Capture.context m in
      let capture b =
        Capture.value ctx
          (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
            .Pricing.profit
      in
      let cs = List.map capture [ 1; 2; 3; 4 ] in
      let rec monotone = function
        | a :: (b :: _ as tl) -> a <= b +. 1e-9 && monotone tl
        | _ -> true
      in
      List.for_all (fun c -> c >= -1e-9 && c <= 1. +. 1e-9) cs && monotone cs)

let prop_strategies_partition =
  (* Whatever the strategy and market, the bundles form a partition of
     the flow indices: non-empty, pairwise disjoint and covering. *)
  QCheck.Test.make ~name:"every strategy yields a partition of the flows"
    ~count:40 arb_spec
    (for_all_markets (fun m ->
         let n = Array.length m.Market.flows in
         List.for_all
           (fun s ->
             List.for_all
               (fun b ->
                 let b = min b n in
                 let groups =
                   (Strategy.apply s m ~n_bundles:b :> int array array)
                 in
                 Array.for_all (fun g -> Array.length g > 0) groups
                 &&
                 let all = Array.concat (Array.to_list groups) in
                 Array.sort compare all;
                 Array.length all = n
                 && Array.for_all2 (fun i j -> i = j) all (Array.init n Fun.id))
               [ 1; 2; 4 ])
           Strategy.all))

let arb_capture_grid =
  (* Random sub-grids of the fig8-class experiment shape: a non-empty
     subset of networks and bundle counts, a demand spec, and evaluation
     parameters. *)
  let gen rand =
    let open QCheck.Gen in
    let nonempty_sub xs =
      let chosen = List.filter (fun _ -> bool rand) xs in
      if chosen = [] then [ List.nth xs (int_bound (List.length xs - 1) rand) ]
      else chosen
    in
    let networks = nonempty_sub Experiment.Defaults.networks in
    let bundle_counts = nonempty_sub Experiment.Defaults.bundle_counts in
    let spec = if bool rand then Market.Ced else Market.Logit { s0 = 0.2 } in
    let alpha = float_range 1.1 2.0 rand in
    let p0 = float_range 10. 30. rand in
    (networks, bundle_counts, spec, alpha, p0)
  in
  QCheck.make
    ~print:(fun (ns, bs, spec, alpha, p0) ->
      Printf.sprintf "networks=[%s] bundles=[%s] spec=%s alpha=%.3f p0=%.3f"
        (String.concat ";" ns)
        (String.concat ";" (List.map string_of_int bs))
        (match spec with
        | Market.Ced -> "ced"
        | Market.Logit { s0 } -> Printf.sprintf "logit(s0=%.2f)" s0
        | Market.Linear { epsilon } -> Printf.sprintf "linear(eps=%.2f)" epsilon)
        alpha p0)
    gen

let prop_cell_decomposition =
  (* For any grid shape, assembling the cell outputs on the calling
     domain equals the pooled run, which schedules the same cells on
     worker domains (structural equality of the report lists implies
     identical rendering). *)
  QCheck.Test.make ~name:"cell decomposition: assemble (map compute) = pooled run"
    ~count:6 arb_capture_grid (fun (networks, bundle_counts, spec, alpha, p0) ->
      let e =
        Experiment.capture_experiment ~alpha ~p0 ~id:"prop-grid"
          ~description:"randomized capture grid"
          ~title_of:(fun n -> "profit capture on " ^ n)
          ~spec ~networks ~bundle_counts ()
      in
      let pooled = Runner.run_experiments ~jobs:2 [ e ] in
      List.map (fun r -> r.Runner.tables) pooled = [ Experiment.run_cells e ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_capture_bounds;
      prop_profit_chain;
      prop_every_strategy_below_optimal;
      prop_welfare_identity;
      prop_blended_demand_recovered;
      prop_bundle_prices_between_flow_optima_ced;
      prop_cost_model_invariance;
      prop_tier_count_net_profit_bounded;
      prop_ced_capture_monotone;
      prop_strategies_partition;
      prop_cell_decomposition;
    ]
