(* The ablations of DESIGN.md §5: each one checks a modelling or
   algorithmic choice the reproduction rests on -- the paper's CV
   claims (§4.2.2), robustness to the demand family, the contiguous DP
   against exhaustive search, the logit closed form against numeric
   ascent, class-aware profit weighting (§4.3.1), and packet sampling.
   Deterministic; the printed tables are pinned by ablations.expected.

   Run with: dune exec examples/ablations.exe *)

open Tiered

let ppf = Format.std_formatter

let ablation_dp_vs_exhaustive () =
  (* Sub-sample a real market to 10 flows so exhaustive search is
     feasible, then compare the production DP against it. *)
  let w = Experiment.workload "internet2" in
  let all_flows = Dataset.of_workload w in
  let flows =
    Array.init 10 (fun i ->
        let f = all_flows.(i * (Array.length all_flows / 10)) in
        Flow.make ~locality:f.Flow.locality ~on_net:f.Flow.on_net ~id:i
          ~demand_mbps:f.Flow.demand_mbps ~distance_miles:f.Flow.distance_miles ())
  in
  let rows =
    List.concat_map
      (fun spec ->
        let m =
          Market.fit ~spec ~alpha:Experiment.Defaults.alpha ~p0:Experiment.Defaults.p0
            ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
            flows
        in
        List.map
          (fun b ->
            let dp =
              (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
                .Pricing.profit
            in
            let ex =
              (Pricing.evaluate m (Strategy.exhaustive_optimal m ~n_bundles:b))
                .Pricing.profit
            in
            [
              Market.demand_spec_name m.Market.spec;
              string_of_int b;
              Report.cell_f dp;
              Report.cell_f ex;
              Report.cell_pct ((ex -. dp) /. ex);
            ])
          [ 2; 3; 4 ])
      [ Market.Ced; Market.Logit { s0 = Experiment.Defaults.s0 } ]
  in
  Report.print ppf
    (Report.make ~title:"Ablation: contiguous-DP optimal vs exhaustive set partitions"
       ~header:[ "demand"; "bundles"; "DP profit"; "exhaustive"; "gap" ]
       rows
       ~notes:[ "the DP is provably exact for CED and logit (DESIGN.md §2); -0.0% is rounding" ])

let ablation_logit_pricing () =
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  let rows =
    List.map
      (fun b ->
        let bundles = Strategy.apply Strategy.Optimal m ~n_bundles:b in
        let closed = Pricing.evaluate m bundles in
        (* Numeric check: ascend profit directly over bundle prices. *)
        let profit prices = (Pricing.evaluate_at_prices m bundles prices).Pricing.profit in
        let numeric =
          Numerics.Gradient.ascent ~step0:0.1 ~max_iter:5000 ~f:profit
            ~grad:(Numerics.Gradient.numeric_grad profit)
            closed.Pricing.bundle_prices
        in
        [
          string_of_int b;
          Report.cell_f closed.Pricing.profit;
          Report.cell_f numeric.Numerics.Gradient.value;
          Report.cell_pct
            ((numeric.Numerics.Gradient.value -. closed.Pricing.profit)
            /. closed.Pricing.profit);
        ])
      [ 2; 3; 4 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: logit closed-form margin (Eqs. 9-11) vs numeric gradient ascent"
       ~header:[ "bundles"; "closed-form profit"; "ascended profit"; "gain" ]
       rows
       ~notes:[ "a positive gain would falsify the common-margin optimality" ])

let ablation_class_aware () =
  let m =
    Experiment.market ~spec:Market.Ced
      ~cost_model:(Cost_model.destination_type ~theta:0.1) "eu_isp"
  in
  let ctx = Capture.context m in
  let capture strategy b =
    Capture.value ctx
      (Pricing.evaluate m (Strategy.apply strategy m ~n_bundles:b)).Pricing.profit
  in
  let rows =
    List.map
      (fun b ->
        [
          string_of_int b;
          Report.cell_f (capture Strategy.Profit_weighted b);
          Report.cell_f (capture Strategy.Profit_weighted_classes b);
        ])
      Experiment.Defaults.bundle_counts
  in
  Report.print ppf
    (Report.make
       ~title:
         "Ablation: plain vs class-aware profit weighting (destination-type cost, theta=0.1)"
       ~header:[ "bundles"; "plain"; "class-aware" ]
       rows
       ~notes:
         [
           "the paper's Section 4.3.1 fix: never group on-net and off-net \
            flows in one bundle";
         ])

let ablation_sampling () =
  (* Methodology robustness: how much does packet sampling distort the
     fitted capture curve? *)
  let w = Experiment.workload "eu_isp" in
  let capture_at_rate rate =
    let flows =
      if rate = 1 then Dataset.of_workload w else Dataset.via_netflow ~sampling_rate:rate w
    in
    let m =
      Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
        ~p0:Experiment.Defaults.p0
        ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
        flows
    in
    Sensitivity.capture_at m Strategy.Optimal ~n_bundles:4
  in
  let rows =
    List.map
      (fun rate -> [ string_of_int rate; Report.cell_f (capture_at_rate rate) ])
      [ 1; 100; 1000; 10000 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: packet-sampling rate vs fitted optimal capture (EU ISP, B=4)"
       ~header:[ "1-in-N sampling"; "capture" ]
       rows
       ~notes:[ "rate 1 = ground truth; the paper's traces were sampled NetFlow" ])

let ablation_cv_claims () =
  (* Two side claims from the paper's 4.2.2: (1) "given fixed demand, a
     high CV of distance (cost) leads to higher absolute profits";
     (2) "networks with higher coefficient of variation of demand need
     more bundles to extract maximum profit". *)
  let rows =
    List.map
      (fun (network, theta) ->
        let m =
          Experiment.market ~spec:Market.Ced
            ~cost_model:(Cost_model.linear ~theta) network
        in
        let cost_cv = Numerics.Stats.cv m.Market.costs in
        let demand_cv = Numerics.Stats.cv (Flow.demands m.Market.flows) in
        let ctx = Capture.context m in
        let headroom_share = Capture.headroom ctx /. ctx.Capture.original in
        let bundles_to_90 =
          let rec search b =
            if b > 16 then 16
            else if
              Capture.value ctx
                (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
                  .Pricing.profit
              >= 0.9
            then b
            else search (b + 1)
          in
          search 1
        in
        [
          Printf.sprintf "%s theta=%.2f" network theta;
          Report.cell_f cost_cv;
          Report.cell_pct headroom_share;
          Report.cell_f demand_cv;
          string_of_int bundles_to_90;
        ])
      [
        ("eu_isp", 0.05); ("eu_isp", 0.2); ("eu_isp", 0.5); ("internet2", 0.2);
        ("cdn", 0.2);
      ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: the paper's CV claims (4.2.2), CED demand"
       ~header:
         [ "network"; "CV of cost"; "headroom / blended profit"; "CV of demand";
           "bundles to 90% capture" ]
       rows
       ~notes:
         [
           "claim 1: headroom should increase with cost CV; claim 2: \
            bundles-to-90% should increase with demand CV";
         ])

let ablation_demand_families () =
  (* Robustness to the demand family itself: the paper argues its
     results hold because CED and logit agree; linear demand (extension)
     is a third, independent family. *)
  let specs =
    [
      Market.Ced; Market.Logit { s0 = Experiment.Defaults.s0 };
      Market.Linear { epsilon = 1.8 };
    ]
  in
  let markets = List.map (fun spec -> Experiment.market ~spec "eu_isp") specs in
  let rows =
    List.map
      (fun b ->
        string_of_int b
        :: List.map
             (fun m ->
               Report.cell_f (Sensitivity.capture_at m Strategy.Optimal ~n_bundles:b))
             markets)
      Experiment.Defaults.bundle_counts
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: optimal capture across demand families (EU ISP)"
       ~header:("bundles" :: List.map Market.demand_spec_name specs)
       rows
       ~notes:
         [
           "linear demand is an extension (common point elasticity 1.8 at \
            p0); the 3-4 tier conclusion must not hinge on the demand \
            family";
         ])

let () =
  ablation_cv_claims ();
  ablation_demand_families ();
  ablation_dp_vs_exhaustive ();
  ablation_logit_pricing ();
  ablation_class_aware ();
  ablation_sampling ();
  Format.fprintf ppf "@."
