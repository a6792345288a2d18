(* The reproduction harness: regenerates every table and figure of the
   paper (see DESIGN.md's experiment index), runs the ablations called
   out there, and finishes with Bechamel micro-benchmarks of the core
   algorithms.

   Usage: dune exec bench/main.exe [section ...]
   with sections among: experiments fig2 fig17 ablations extensions
   dp serve micro (default: all). A specific experiment id (e.g. fig8)
   also works.

   The experiments section executes on the Engine pool
   ([--backend=procs] switches it to worker subprocesses). Sweep wall
   time and pool dispatch cost are measured, with repeats, by
   benchmark/benchmark.exe. *)

open Tiered

let ppf = Format.std_formatter
let section title = Format.fprintf ppf "@.@.######## %s ########@." title

(* --- paper experiments --------------------------------------------------- *)

let run_experiment (e : Experiment.t) =
  Format.fprintf ppf "@.---- %s: %s ----@." e.Experiment.id e.Experiment.description;
  List.iter (Report.print ppf) (e.Experiment.run ())

let print_result (r : Runner.result) =
  Format.fprintf ppf "@.---- %s: %s ----@." r.Runner.id r.Runner.description;
  List.iter (Report.print ppf) r.Runner.tables

let run_experiments ~backend () =
  section "Paper tables and figures";
  (* The whole registry goes through the engine pool; results are
     merged in submission order, so the output is identical to the
     historical serial walk at any job count or backend. *)
  let metrics = Engine.Metrics.create () in
  let results = Runner.run_experiments ~backend ~metrics Experiment.all in
  List.iter print_result results;
  List.iter (Report.print ppf) (Runner.metrics_reports (Engine.Metrics.snapshot metrics))

(* --- Figure 2: the direct-peering bypass -------------------------------- *)

let run_fig2 () =
  section "Figure 2: blended rates push customers to direct peering";
  let isp_cost = 5.0 and isp_margin = 0.3 and accounting_overhead = 0.5 in
  let blended_rate = 20. in
  let rows =
    List.map
      (fun direct_cost ->
        let v =
          Routing.Policy.Bypass.decide
            {
              Routing.Policy.Bypass.blended_rate;
              direct_cost;
              isp_cost;
              isp_margin;
              accounting_overhead;
            }
        in
        [
          Printf.sprintf "$%.0f" direct_cost;
          (if v.Routing.Policy.Bypass.customer_bypasses then "yes" else "no");
          Printf.sprintf "$%.2f" v.Routing.Policy.Bypass.tiered_price;
          (if v.Routing.Policy.Bypass.market_failure then "market failure" else "-");
          Report.cell_f v.Routing.Policy.Bypass.customer_saving;
        ])
      [ 4.; 7.; 10.; 15.; 19.; 25. ]
  in
  Report.print ppf
    (Report.make
       ~title:
         (Printf.sprintf
            "CDN bypass decision (blended R=$%.0f, ISP cost $%.1f, margin %.0f%%, overhead $%.1f)"
            blended_rate isp_cost (100. *. isp_margin) accounting_overhead)
       ~header:[ "c_direct"; "bypasses?"; "tier price"; "efficiency"; "saving" ]
       rows
       ~notes:
         [
           "bypass with c_direct above the tier price is the Fig. 2 market \
            failure: a tiered offer would have kept the traffic";
         ])

(* --- Figure 17: accounting architectures --------------------------------- *)

let run_fig17 () =
  section "Figure 17: link-based vs flow-based tier accounting";
  let w = Experiment.workload "eu_isp" in
  let flows = Dataset.of_workload w in
  let market =
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      flows
  in
  let bundles = Strategy.apply Strategy.Optimal market ~n_bundles:3 in
  let outcome = Pricing.evaluate market bundles in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows market) in
  (* Tag one route per workload flow with its tier. *)
  let assignments =
    List.map
      (fun (f : Flowgen.Workload.flow) ->
        {
          Routing.Tagging.dst_prefix = Flowgen.Ipv4.prefix f.Flowgen.Workload.dst_addr 24;
          tier = owner.(f.Flowgen.Workload.id);
          next_hop = f.Flowgen.Workload.entry.Netsim.Node.id;
        })
      w.Flowgen.Workload.flows
  in
  let rib = Routing.Tagging.build_rib ~asn:65000 assignments in
  let rng = Numerics.Rng.create 99 in
  let records = Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w) in
  let records = Flowgen.Dedup.dedup records in
  let snmp = Routing.Accounting.Snmp.create ~n_tiers:(Bundle.count bundles) () in
  Routing.Accounting.Snmp.observe snmp ~rib records;
  let link_usage = Routing.Accounting.Snmp.usage snmp in
  let flow_usage = Routing.Accounting.flow_based ~rib records in
  let rows =
    List.map2
      (fun (tier, link_bytes) (_, flow_bytes) ->
        [
          string_of_int tier;
          Printf.sprintf "$%.2f" outcome.Pricing.bundle_prices.(tier);
          Printf.sprintf "%.2f" (link_bytes /. 1e12);
          Printf.sprintf "%.2f" (flow_bytes /. 1e12);
          Report.cell_pct (abs_float (link_bytes -. flow_bytes) /. flow_bytes);
        ])
      link_usage.Routing.Accounting.tier_bytes flow_usage.Routing.Accounting.tier_bytes
  in
  Report.print ppf
    (Report.make ~title:"Per-tier accounted volume, EU ISP, 3 optimal tiers"
       ~header:[ "tier"; "price"; "link-based (TB)"; "flow-based (TB)"; "divergence" ]
       rows
       ~notes:[ "both architectures must account the same wire traffic" ])

(* --- ablations ------------------------------------------------------------ *)

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
       ~notes:[ "the DP is provably exact for CED; near-exact for logit" ])

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

let run_ablations () =
  section "Ablations";
  ablation_cv_claims ();
  ablation_demand_families ();
  ablation_dp_vs_exhaustive ();
  ablation_logit_pricing ();
  ablation_class_aware ();
  ablation_sampling ()

(* --- extensions ----------------------------------------------------------- *)

let extension_welfare () =
  let rows_for spec =
    let m = Experiment.market ~spec "eu_isp" in
    List.map
      (fun b ->
        let a = Welfare.of_strategy m Strategy.Optimal ~n_bundles:b in
        [
          Market.demand_spec_name m.Market.spec;
          string_of_int b;
          Report.cell_f a.Welfare.profit;
          Report.cell_f a.Welfare.consumer_surplus;
          Report.cell_pct a.Welfare.efficiency;
          Report.cell_f a.Welfare.deadweight_loss;
        ])
      [ 1; 2; 3; 4; 6 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: welfare decomposition vs tier count (EU ISP, optimal bundling)"
       ~header:[ "demand"; "bundles"; "profit"; "surplus"; "efficiency"; "DWL" ]
       (rows_for Market.Ced @ rows_for (Market.Logit { s0 = Experiment.Defaults.s0 }))
       ~notes:
         [
           "efficiency = welfare / first-best (marginal-cost) welfare; \
            tiering helps both sides (Section 2.2.1 writ large)";
         ])

let extension_dynamics () =
  let truth = Experiment.market ~spec:Market.Ced "eu_isp" in
  let rows =
    List.map
      (fun est ->
        let rounds =
          Dynamics.simulate
            {
              Dynamics.truth;
              estimated_alpha = est;
              strategy = Strategy.Optimal;
              n_bundles = 3;
              rounds = 12;
              damping = 0.7;
            }
        in
        let capture_at i = (List.nth rounds i).Dynamics.capture in
        let blended = (List.hd rounds).Dynamics.true_profit in
        let final = List.nth rounds (List.length rounds - 1) in
        [
          Printf.sprintf "%.2f" est;
          Report.cell_f (capture_at 1);
          Report.cell_f (Dynamics.final_capture rounds);
          Report.cell_pct (final.Dynamics.true_profit /. blended);
          (if Dynamics.converged ~tol:1e-4 rounds then "yes" else "no");
        ])
      [ 1.05; 1.1; 1.5; 2.5; 4.0 ]
  in
  let calibrated_row =
    let rounds =
      Estimate.calibrated_dynamics ~noise_cv:0.02 ~truth ~strategy:Strategy.Optimal
        ~n_bundles:3 ~rounds:12 ()
    in
    let blended = (List.hd rounds).Dynamics.true_profit in
    let final = List.nth rounds (List.length rounds - 1) in
    [
      "probe-calibrated";
      Report.cell_f (List.nth rounds 1).Dynamics.capture;
      Report.cell_f (Dynamics.final_capture rounds);
      Report.cell_pct (final.Dynamics.true_profit /. blended);
      (if Dynamics.converged ~tol:1e-4 rounds then "yes" else "no");
    ]
  in
  let rows = rows @ [ calibrated_row ] in
  Report.print ppf
    (Report.make
       ~title:
         "Extension: repricing dynamics under elasticity misestimation (true alpha = 1.1)"
       ~header:[ "believed alpha"; "capture r1"; "final capture"; "profit vs blended"; "converged" ]
       rows
       ~notes:
         [
           "the ISP re-fits demand from observations each round with its \
            own alpha belief; misestimating elasticity costs orders of \
            magnitude more profit than coarse tiering ever does (capture \
            is relative to the small tiering headroom, hence the large \
            negative values). The probe-calibrated row estimates alpha \
            from a wide-spread price experiment first (Tiered.Estimate)";
         ])

let extension_competition () =
  (* A stylized transit duopoly over the market's fitted valuations. *)
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  (* Thin to 100 flows to keep the table readable cheaply. *)
  let idx = Array.init 100 (fun i -> i * (Market.n_flows m / 100)) in
  let valuations = Array.map (fun i -> m.Market.valuations.(i)) idx in
  let costs_a = Array.map (fun i -> m.Market.costs.(i)) idx in
  let incumbent = Competition.firm ~name:"incumbent" ~costs:costs_a in
  let entrant_at scale =
    Competition.firm ~name:"entrant"
      ~costs:(Array.map (fun c -> c *. scale) costs_a)
  in
  let alpha = m.Market.alpha in
  let mono = Competition.monopoly ~alpha ~valuations incumbent in
  let rows =
    ([
       "monopoly"; Report.cell_f mono.Competition.margins.(0); "-";
       Report.cell_f mono.Competition.shares.(0); "-";
       Report.cell_f mono.Competition.profits.(0); "-";
     ]
    :: List.map
         (fun (label, scale) ->
           let eq = Competition.nash ~alpha ~valuations [| incumbent; entrant_at scale |] in
           [
             label;
             Report.cell_f eq.Competition.margins.(0);
             Report.cell_f eq.Competition.margins.(1);
             Report.cell_f eq.Competition.shares.(0);
             Report.cell_f eq.Competition.shares.(1);
             Report.cell_f eq.Competition.profits.(0);
             Report.cell_f eq.Competition.profits.(1);
           ])
         [
           ("entrant @ 100% cost", 1.0); ("entrant @ 70% (year 1)", 0.7);
           ("entrant @ 49% (year 2)", 0.49); ("entrant @ 34% (year 3)", 0.34);
         ])
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: Bertrand-logit duopoly; entrant costs fall 30%/year"
       ~header:
         [ "scenario"; "margin A"; "margin B"; "share A"; "share B"; "profit A"; "profit B" ]
       rows
       ~notes:
         [
           "margins compress as the entrant's cost advantage grows -- the \
            Section 1 story of transit prices falling ~30%/year under \
            competition";
         ])

let extension_commit () =
  (* Volume tiering over a heterogeneous customer population. *)
  let rng = Numerics.Rng.create 7001 in
  let alpha = 2.0 and unit_cost = 2.0 in
  let valuations =
    Array.init 500 (fun _ -> Numerics.Dist.lognormal_of_mean_cv rng ~mean:10. ~cv:1.2)
  in
  let menu_row label menu =
    let o = Commit.evaluate ~alpha ~unit_cost ~valuations menu in
    [
      label;
      String.concat " "
        (Array.to_list
           (Array.map
              (fun t -> Printf.sprintf "%.0f@$%.2f" t.Commit.commit_mbps t.Commit.rate)
              menu));
      Report.cell_f o.Commit.profit;
      Report.cell_f o.Commit.consumer_surplus;
      string_of_int o.Commit.opted_out;
    ]
  in
  let rows =
    List.map
      (fun n ->
        let commits = Commit.commit_quantiles ~alpha ~p0:4. ~valuations ~n in
        let menu = Commit.optimize_rates ~alpha ~unit_cost ~valuations ~commits in
        menu_row (Printf.sprintf "%d commit tier(s)" n) menu)
      [ 1; 2; 3; 4 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: volume (commit) tiering -- the other axis of Section 2.1"
       ~header:[ "menu"; "tiers (commit@rate)"; "profit"; "surplus"; "opt-outs" ]
       rows
       ~notes:
         [
           "under CED the single usage rate is already the monopoly \
            optimum for every customer, so menus gain only through commit \
            floors (second-degree discrimination) -- a structural reason \
            volume discounts alone are weak, supporting the paper's focus \
            on destination tiers";
         ])

let extension_peak () =
  (* A higher elasticity makes margins thin enough that peak-load costs
     bite; at the default alpha = 1.1 the 11x markup drowns them. *)
  let m = Experiment.market ~alpha:3.0 ~spec:Market.Ced "eu_isp" in
  let shape = Flowgen.Netflow.default_shape in
  let rows =
    List.concat_map
      (fun premium ->
        List.map
          (fun (label, periods) ->
            let o = Peak.evaluate ~congestion_premium:premium m Strategy.Optimal ~n_bundles:3 periods in
            [
              Printf.sprintf "%.1f" premium;
              label;
              Report.cell_f o.Peak.single_price_profit;
              Report.cell_f o.Peak.per_period_profit;
              Report.cell_pct o.Peak.gain;
            ])
          [
            ("peak/off-peak", Array.to_list (Peak.peak_offpeak shape) |> Array.of_list);
            ("6 periods", Peak.periods_of_shape shape ~n_periods:6);
          ])
      [ 0.0; 0.5; 1.0 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: time-of-day pricing under peak-load delivery costs (EU ISP, alpha=3)"
       ~header:[ "cost premium"; "periods"; "single-price"; "per-period"; "gain" ]
       rows
       ~notes:
         [
           "with flat costs (premium 0) CED's scale invariance makes \
            time-of-day pricing worthless; gains appear only through \
            peak-load cost";
         ])

let extension_how_many_tiers () =
  (* The title question, answered: net profit once each tier carries an
     explicit monthly overhead (extra sessions, links, billing plumbing). *)
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  let headroom = Capture.headroom (Capture.context m) in
  let rows =
    List.map
      (fun share ->
        let per_tier = share *. headroom in
        let o = Tier_count.overhead ~per_tier () in
        let best = Tier_count.optimal m Strategy.Optimal o ~max_bundles:8 in
        [
          Printf.sprintf "%.0f%% of headroom" (100. *. share);
          Printf.sprintf "$%.0f" per_tier;
          string_of_int best.Tier_count.n_bundles;
          Report.cell_f best.Tier_count.net_profit;
        ])
      [ 0.001; 0.01; 0.03; 0.1; 0.3 ]
  in
  let break_even b =
    Tier_count.break_even_overhead m Strategy.Optimal ~from_bundles:b ~to_bundles:(b + 1)
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: how many tiers? net-optimal tier count vs per-tier overhead (EU ISP, logit)"
       ~header:[ "per-tier overhead"; "$/month"; "optimal #tiers"; "net profit" ]
       rows
       ~notes:
         [
           Printf.sprintf
             "marginal value of the 2nd/3rd/4th tier: $%.0f / $%.0f / $%.0f per \
              month -- overhead above these caps the tier count, which is why \
              real contracts stop at 2-4 tiers"
             (break_even 1) (break_even 2) (break_even 3);
         ])

let extension_failures () =
  (* Operational robustness: when a backbone link fails, flow distances
     (and with them the cost model) shift. How many destinations would a
     distance-defined tier sheet re-classify, and what does serving the
     new distances at the stale tier prices cost? *)
  let topo = Netsim.Presets.internet2 () in
  let w = Experiment.workload "internet2" in
  let fit flows =
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      flows
  in
  let baseline_flows = Dataset.of_workload w in
  let baseline = fit baseline_flows in
  let bundles = Strategy.apply Strategy.Optimal baseline ~n_bundles:3 in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows baseline) in
  let stale_prices = (Pricing.evaluate baseline bundles).Pricing.bundle_prices in
  let all_links = Netsim.Graph.links topo.Netsim.Topology.graph in
  let nodes = Array.to_list (Netsim.Graph.nodes topo.Netsim.Topology.graph) in
  let reroute_flows failed =
    let remaining = List.filter (fun l -> l != failed) all_links in
    match Netsim.Topology.of_nodes_links ~name:"degraded" nodes remaining with
    | exception Invalid_argument _ -> None (* bridge link: network splits *)
    | degraded ->
        let dist =
          let cache = Hashtbl.create 16 in
          fun src ->
            match Hashtbl.find_opt cache src with
            | Some d -> d
            | None ->
                let d =
                  Netsim.Graph.shortest_path_lengths degraded.Netsim.Topology.graph
                    ~src
                in
                Hashtbl.add cache src d;
                d
        in
        Some
          (Array.of_list
             (List.map
                (fun (f : Flowgen.Workload.flow) ->
                  let dst_pop =
                    Netsim.Topology.pop_by_city degraded
                      f.Flowgen.Workload.dst_city.Netsim.Cities.name
                  in
                  let base = f.Flowgen.Workload.distance_miles in
                  let old_path =
                    match
                      Netsim.Graph.path_distance_miles topo.Netsim.Topology.graph
                        ~src:f.Flowgen.Workload.entry.Netsim.Node.id
                        ~dst:dst_pop.Netsim.Node.id
                    with
                    | Some d -> d
                    | None -> 0.
                  in
                  let new_path = (dist f.Flowgen.Workload.entry.Netsim.Node.id).(dst_pop.Netsim.Node.id) in
                  (* Keep the flow's local tail, swap the backbone leg. *)
                  Flow.make ~id:f.Flowgen.Workload.id
                    ~demand_mbps:f.Flowgen.Workload.mbps
                    ~distance_miles:(Float.max 0. (base -. old_path) +. new_path)
                    ())
                w.Flowgen.Workload.flows))
  in
  let rows =
    List.filter_map
      (fun (failed : Netsim.Link.t) ->
        match reroute_flows failed with
        | None -> None
        | Some flows ->
            let degraded_market = fit flows in
            let reassigned =
              let fresh = Strategy.apply Strategy.Optimal degraded_market ~n_bundles:3 in
              let fresh_owner =
                Bundle.member_of fresh ~n_flows:(Market.n_flows degraded_market)
              in
              Array.fold_left ( + ) 0
                (Array.mapi (fun i o -> if o <> fresh_owner.(i) then 1 else 0) owner)
            in
            let stale_profit =
              (Pricing.evaluate_at_prices degraded_market bundles stale_prices)
                .Pricing.profit
            in
            let fresh_profit =
              (Pricing.evaluate degraded_market
                 (Strategy.apply Strategy.Optimal degraded_market ~n_bundles:3))
                .Pricing.profit
            in
            let a = Netsim.Graph.node topo.Netsim.Topology.graph failed.Netsim.Link.a in
            let b = Netsim.Graph.node topo.Netsim.Topology.graph failed.Netsim.Link.b in
            Some
              [
                Printf.sprintf "%s-%s" a.Netsim.Node.city.Netsim.Cities.name
                  b.Netsim.Node.city.Netsim.Cities.name;
                string_of_int reassigned;
                Report.cell_pct ((fresh_profit -. stale_profit) /. fresh_profit);
              ])
      all_links
  in
  Report.print ppf
    (Report.make
       ~title:
         "Extension: Internet2 link failures -- tier churn and the cost of stale prices"
       ~header:[ "failed link"; "flows re-tiered"; "profit left on stale sheet" ]
       rows
       ~notes:
         [
           "flows re-routed over longer paths shift cost classes; the last \
            column is the profit gap between re-optimized and stale tier \
            prices on the degraded network";
         ])

let extension_tomogravity () =
  (* Run the whole evaluation from SNMP link counters only: estimate the
     traffic matrix by tomogravity, fit the market from the estimate,
     and compare tier structure quality against ground truth. *)
  let topo = Netsim.Presets.internet2 () in
  let w = Experiment.workload "internet2" in
  let pops = Array.of_list topo.Netsim.Topology.pops in
  let n = Array.length pops in
  let index_of_node =
    let table = Hashtbl.create 16 in
    Array.iteri (fun i (p : Netsim.Node.t) -> Hashtbl.add table p.Netsim.Node.id i) pops;
    Hashtbl.find table
  in
  (* Ground-truth PoP-level demands from the workload. *)
  let truth = Array.make_matrix n n 0. in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      let i = index_of_node f.Flowgen.Workload.entry.Netsim.Node.id in
      let dst = Netsim.Topology.pop_by_city topo f.Flowgen.Workload.dst_city.Netsim.Cities.name in
      let j = index_of_node dst.Netsim.Node.id in
      if i <> j then truth.(i).(j) <- truth.(i).(j) +. f.Flowgen.Workload.mbps)
    w.Flowgen.Workload.flows;
  let demands = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if truth.(i).(j) > 0. then demands := (i, j, truth.(i).(j)) :: !demands
    done
  done;
  let obs = Flowgen.Tomogravity.observe topo !demands in
  let estimated = Flowgen.Tomogravity.estimate topo obs in
  let quality = Flowgen.Tomogravity.compare_to_truth ~truth estimated in
  (* Fit a market from each matrix and compare capture at 3 tiers. *)
  let market_of matrix =
    let flows = ref [] in
    let id = ref 0 in
    let dist = Netsim.Topology.distance_matrix topo in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && matrix.(i).(j) > 0.01 then begin
          flows :=
            Flow.make ~id:!id ~demand_mbps:matrix.(i).(j)
              ~distance_miles:dist.(i).(j) ()
            :: !flows;
          incr id
        end
      done
    done;
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      (Array.of_list (List.rev !flows))
  in
  let capture_of m = Sensitivity.capture_at m Strategy.Optimal ~n_bundles:3 in
  Report.print ppf
    (Report.make
       ~title:"Extension: evaluation from SNMP link counters only (tomogravity, Internet2)"
       ~header:[ "quantity"; "value" ]
       [
         [ "TM correlation vs truth"; Report.cell_f quality.Flowgen.Tomogravity.correlation ];
         [ "TM mean relative error"; Report.cell_pct quality.Flowgen.Tomogravity.mean_relative_error ];
         [ "capture@3 from true TM"; Report.cell_f (capture_of (market_of truth)) ];
         [ "capture@3 from estimated TM"; Report.cell_f (capture_of (market_of estimated)) ];
       ]
       ~notes:
         [
           "the capture from the estimated matrix is computed against the \
            estimated market's own headroom -- the point is that tier \
            design survives NetFlow-less measurement";
         ])

let extension_loading () =
  let w = Experiment.workload "eu_isp" in
  let report = Flowgen.Loading.of_workload w in
  Format.fprintf ppf "@.Extension: link loading of the EU ISP workload@.";
  Flowgen.Loading.pp ppf report

let run_extensions () =
  section "Extensions (beyond the paper)";
  extension_welfare ();
  extension_dynamics ();
  extension_competition ();
  extension_commit ();
  extension_peak ();
  extension_how_many_tiers ();
  extension_tomogravity ();
  extension_failures ();
  extension_loading ()

(* --- dp: tier-DP kernel, quadratic vs divide-and-conquer ------------------- *)

(* Times [Numerics.Segdp.solve] (the region-wise D&C / SMAWK /
   quadratic-backstop ladder) against [Numerics.Segdp.solve_quadratic]
   (the exact O(B n^2) reference) on the exact (seg_value, regions) the
   Optimal strategy runs ([Strategy.dp_inputs]), across demand specs
   and synthetic market sizes built from the eu_isp calibration via the
   Workload scale suffix (eu_isp@N). Every cell is checked against the
   reference — the run aborts otherwise: cells up to [--dp-max-exact]
   flows run the full quadratic leg; larger cells re-solve up to 64
   deterministically sampled columns of every retained layer with exact
   scans ([Segdp.verify_columns], untimed), so no cell ships unchecked.
   The run also aborts if any cell needed a quadratic-backstop layer:
   the default grid is certified fast-path-only, and a regression
   reintroducing the O(n^2) cliff fails CI here rather than surfacing
   in a later full-size run. *)

type dp_case = {
  dc_spec : string;
  dc_n : int;
  dc_bundles : int;
  dc_fast_s : float;
  dc_fast_evals : int;
  dc_smawk_layers : int;
  dc_fallback_layers : int;
  dc_regions : int;
  dc_quad_s : float option;
  dc_quad_evals : int option;
  dc_speedup : float option;
  dc_check : string;
  dc_cuts_identical : bool;
}

(* Wall-clock one run; re-run small cases until ~0.2 s total so the
   per-solve figure is not timer noise. *)
let dp_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 0.2 then (r, dt)
  else begin
    let reps = max 1 (int_of_float (Float.ceil (0.2 /. Float.max 1e-6 dt))) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let total = dt +. (Unix.gettimeofday () -. t0) in
    (r, total /. float_of_int (reps + 1))
  end

let run_dp_bench ~sizes ~bundle_counts ~max_exact () =
  section "DP: tier-partition kernel, quadratic vs divide-and-conquer";
  let specs =
    [
      ("ced", Market.Ced);
      ("logit", Market.Logit { s0 = Experiment.Defaults.s0 });
      ("linear", Market.Linear { epsilon = 1.8 });
    ]
  in
  let cases =
    List.concat_map
      (fun (spec_name, spec) ->
        List.concat_map
          (fun n ->
            let m = Experiment.market ~spec (Printf.sprintf "eu_isp@%d" n) in
            let n = Market.n_flows m in
            let _order, seg_value, regions = Strategy.dp_inputs m in
            List.map
              (fun b ->
                Format.fprintf ppf "  %s n=%d B=%d...@?" spec_name n b;
                let fast, fast_s =
                  dp_time (fun () ->
                      Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value)
                in
                let quad =
                  if n > max_exact then None
                  else
                    Some
                      (dp_time (fun () ->
                           Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value))
                in
                let check, cuts_identical =
                  match quad with
                  | Some ((q : Numerics.Segdp.result), _) ->
                      ( "exact",
                        q.Numerics.Segdp.cuts = fast.Numerics.Segdp.cuts
                        && Float.equal q.Numerics.Segdp.value
                             fast.Numerics.Segdp.value )
                  | None ->
                      (* Too big for the full quadratic leg: re-solve the
                         same instance into a retained state and check up
                         to 64 sampled columns of every layer with exact
                         scans, bit-for-bit (untimed). *)
                      let from_state, st =
                        Numerics.Segdp.solve_with_state ~regions ~n
                          ~n_bundles:b seg_value
                      in
                      ( "sampled-columns",
                        from_state.Numerics.Segdp.cuts
                        = fast.Numerics.Segdp.cuts
                        && Float.equal from_state.Numerics.Segdp.value
                             fast.Numerics.Segdp.value
                        && Numerics.Segdp.verify_columns ~samples:64 st
                             seg_value )
                in
                if not cuts_identical then
                  failwith
                    (Printf.sprintf
                       "bench dp: fast-path cuts diverged from the exact \
                        reference (%s, n=%d, B=%d, check=%s)"
                       spec_name n b check);
                if fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers > 0
                then
                  failwith
                    (Printf.sprintf
                       "bench dp: quadratic-backstop layer on the default \
                        grid (%s, n=%d, B=%d) — the fast rungs regressed"
                       spec_name n b);
                let speedup =
                  Option.map (fun (_, quad_s) -> quad_s /. fast_s) quad
                in
                Format.fprintf ppf " %.4fs fast%s@." fast_s
                  (match quad with
                  | None -> ", quadratic skipped"
                  | Some (_, quad_s) -> Printf.sprintf ", %.4fs quadratic" quad_s);
                {
                  dc_spec = spec_name;
                  dc_n = n;
                  dc_bundles = b;
                  dc_fast_s = fast_s;
                  dc_fast_evals = fast.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
                  dc_smawk_layers =
                    fast.Numerics.Segdp.stats.Numerics.Segdp.smawk_layers;
                  dc_fallback_layers =
                    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
                  dc_regions = fast.Numerics.Segdp.stats.Numerics.Segdp.regions;
                  dc_quad_s = Option.map snd quad;
                  dc_quad_evals =
                    Option.map
                      (fun ((q : Numerics.Segdp.result), _) ->
                        q.Numerics.Segdp.stats.Numerics.Segdp.evaluations)
                      quad;
                  dc_speedup = speedup;
                  dc_check = check;
                  dc_cuts_identical = cuts_identical;
                })
              bundle_counts)
          sizes)
      specs
  in
  let opt_cell f = function None -> "-" | Some v -> f v in
  Report.print ppf
    (Report.make
       ~title:
         (Printf.sprintf
            "Tier-DP kernel wall clock (eu_isp@@N synthetic markets, exact leg \
             up to n=%d)"
            max_exact)
       ~header:
         [ "demand"; "n"; "B"; "fast (s)"; "evals"; "smawk"; "backstop";
           "quadratic (s)"; "speedup"; "check"; "cuts =" ]
       (List.map
          (fun c ->
            [
              c.dc_spec;
              string_of_int c.dc_n;
              string_of_int c.dc_bundles;
              Printf.sprintf "%.4f" c.dc_fast_s;
              string_of_int c.dc_fast_evals;
              string_of_int c.dc_smawk_layers;
              string_of_int c.dc_fallback_layers;
              opt_cell (Printf.sprintf "%.4f") c.dc_quad_s;
              opt_cell (Printf.sprintf "%.1fx") c.dc_speedup;
              c.dc_check;
              (if c.dc_cuts_identical then "yes" else "NO");
            ])
          cases)
       ~notes:
         [
           "both solvers run the (seg_value, regions) of Strategy.dp_inputs; \
            every cell is checked against the exact reference (full \
            quadratic leg up to max_exact_n, 64 sampled columns per layer \
            above) and must finish without quadratic-backstop layers";
         ]);
  Json_out.(
    write ppf "BENCH_dp.json"
      [
        ("grid", Str "tier-dp");
        ("workload", Str "eu_isp@N (scale suffix over the eu_isp calibration)");
        ("max_exact_n", Int max_exact);
        ( "cases",
          Arr
            (List.map
               (fun c ->
                 Obj
                   [
                     ("spec", Str c.dc_spec);
                     ("n", Int c.dc_n);
                     ("bundles", Int c.dc_bundles);
                     ("fast_s", num "%.6f" c.dc_fast_s);
                     ("fast_evals", Int c.dc_fast_evals);
                     ("smawk_layers", Int c.dc_smawk_layers);
                     ("fallback_layers", Int c.dc_fallback_layers);
                     ("regions", Int c.dc_regions);
                     ("quadratic_s", opt (num "%.6f") c.dc_quad_s);
                     ("quadratic_evals", opt (fun v -> Int v) c.dc_quad_evals);
                     ("speedup", opt (num "%.4f") c.dc_speedup);
                     ("check", Str c.dc_check);
                     ("cuts_identical", Bool c.dc_cuts_identical);
                   ])
               cases) );
      ])

(* --- serve: streaming ingest + incremental re-tiering ---------------------- *)

(* The streaming service under load, end to end from the wire: a
   NetFlow stream synthesized from the eu_isp calibration (scale
   suffix, [days] days of duplicated per-router records, with a churn
   cohort of flows absent on odd days so windows see genuine arrivals
   and departures) is encoded to a binary NetFlow v5/IPFIX file, then
   replayed through the framed reader into the sharded daemon — per-
   shard streaming dedup + sliding 24h windows, deterministic merge,
   re-tier every [every_s] stream seconds. Two legs run on the same
   file: [--serve-shards] shards on a domain pool, and an unsharded
   golden leg; posted tiers must be bitwise-identical between them.
   The sharded leg's windows are then re-verified cut-for-cut against
   from-scratch solves, and the solve mix is pinned: arrivals and
   departures must warm-start, so cold solves number exactly
   1 + (actual solves / cold_every) — the first window plus the drill.
   Any violation fails the bench like a sweep divergence would.
   BENCH_serve.json records throughput, latency histogram, shard
   equality, wire counters and steady-state RSS. *)

let rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmRSS:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" (fun kb -> Some (float_of_int kb /. 1024.))
                else go ()
          in
          go ())

let run_serve_bench ~flows ~days ~every_s ~shards () =
  section "Streaming serve: wire ingest throughput and re-tier latency";
  let host_domains = Domain.recommended_domain_count () in
  (* The multi-shard leg drains shards on a domain pool; on a host that
     reports a single domain it would only measure multiplexing on the
     submitter's core, so it is skipped (the golden-equality leg then
     trivially compares the 1-shard run against itself) and the JSON
     says why instead of shipping a meaningless speedup. *)
  let requested_shards = shards in
  let shards = if host_domains <= 1 then 1 else shards in
  let name = Printf.sprintf "eu_isp@%d" flows in
  let w = Flowgen.Workload.preset name in
  let bin_s = 3600 and bins = 24 in
  let wp = { Serve.Window.bin_s; bins; decay = Serve.Window.No_decay } in
  let make_retier () =
    Serve.Retier.create
      {
        Serve.Retier.spec = Market.Ced;
        alpha = 2.0;
        p0 = 30.;
        n_bundles = 4;
        cost_model = Cost_model.concave ~theta:0.5;
        samples = 8;
        cold_every = 24;  (* one forced divergence drill per stream day *)
        use_cache = false;
      }
      ~meta_of:(Serve.Retier.meta_of_workload w)
  in
  (* One synthesized day, emission-stable sort by first_s (the wire file
     must honor the daemon's nondecreasing-first_s contract). *)
  let template =
    let rng = Numerics.Rng.create 11 in
    List.stable_sort
      (fun (a : Flowgen.Netflow.record) b ->
        Int.compare a.Flowgen.Netflow.first_s b.Flowgen.Netflow.first_s)
      (Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w))
  in
  (* Churn cohort: every 11th flow id is dark on odd days, so day
     boundaries produce windows whose flow *set* changes — the
     structural-delta path — while the rest of each day exercises
     plain suffix-dirty warm starts. *)
  let churn = Hashtbl.create 256 in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      if f.Flowgen.Workload.id mod 11 = 0 then
        Hashtbl.replace churn
          ( Flowgen.Ipv4.to_int f.Flowgen.Workload.src_addr,
            Flowgen.Ipv4.to_int f.Flowgen.Workload.dst_addr )
          ())
    w.Flowgen.Workload.flows;
  let stream =
    List.concat_map
      (fun day ->
        let shift = day * Flowgen.Netflow.day_seconds in
        List.filter_map
          (fun (r : Flowgen.Netflow.record) ->
            let dark =
              day mod 2 = 1
              && Hashtbl.mem churn
                   ( Flowgen.Ipv4.to_int r.Flowgen.Netflow.src,
                     Flowgen.Ipv4.to_int r.Flowgen.Netflow.dst )
            in
            if dark then None
            else
              Some
                {
                  r with
                  Flowgen.Netflow.first_s = r.Flowgen.Netflow.first_s + shift;
                  last_s = r.Flowgen.Netflow.last_s + shift;
                })
          template)
      (List.init days Fun.id)
  in
  let wire_file = Filename.temp_file "tiered_bench_serve" ".nf" in
  Flowgen.Netflow.Wire.write_file wire_file stream;
  let wire_bytes = (Unix.stat wire_file).Unix.st_size in
  Format.fprintf ppf "wire file: %d records, %.1f MB@." (List.length stream)
    (float_of_int wire_bytes /. 1e6);
  let run_leg ~shards ~pool =
    let shard_state =
      Serve.Shards.create ~expected:flows ~shards ~dedup:true wp
    in
    let retier = make_retier () in
    let ic = open_in_bin wire_file in
    let posted = ref [] in
    let result =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Serve.Daemon.run
            ~on_retier:(fun snap o -> posted := (snap, o) :: !posted)
            ~clock:(Serve.Clock.of_fn Unix.gettimeofday)
            ?pool ~shards:shard_state ~retier
            { Serve.Daemon.every_s }
            (Serve.Ingest.of_reader (Flowgen.Netflow.Wire.of_channel ic)))
    in
    (result, List.rev !posted, retier)
  in
  let result, posted, retier =
    if shards > 1 then
      Engine.Pool.with_pool ~jobs:shards (fun pool ->
          run_leg ~shards ~pool:(Some pool))
    else run_leg ~shards ~pool:None
  in
  let rss = rss_mb () in
  let result1, posted1, _ = run_leg ~shards:1 ~pool:None in
  Sys.remove wire_file;
  let s = result.Serve.Daemon.r_stats in
  let run = result.Serve.Daemon.r_run in
  let outcome_matches (o : Serve.Retier.outcome) (c : Serve.Retier.outcome) =
    List.equal Int.equal o.Serve.Retier.o_cuts c.Serve.Retier.o_cuts
    && Array.length o.Serve.Retier.o_prices
       = Array.length c.Serve.Retier.o_prices
    && Array.for_all2 Float.equal o.Serve.Retier.o_prices
         c.Serve.Retier.o_prices
    && Float.equal o.Serve.Retier.o_profit c.Serve.Retier.o_profit
  in
  (* Golden leg: the sharded run's posted tiers must match the 1-shard
     run's bitwise, window for window. *)
  let shards_identical =
    List.length posted = List.length posted1
    && List.for_all2 (fun (_, o) (_, o1) -> outcome_matches o o1) posted
         posted1
  in
  let verified =
    List.for_all
      (fun (snap, o) -> outcome_matches o (Serve.Retier.solve_cold retier snap))
      posted
  in
  (* Arrival/departure-only windows must warm-start: cold solves are
     exactly the first window plus the cold_every drills (the drill
     fires on every 24th actual solve; solve #1 is the ordinary cold
     start, never a drill). *)
  let actual_solves = s.Serve.Stats.warm + s.Serve.Stats.cold in
  let cold_expected = 1 + (actual_solves / 24) in
  let drills_only = s.Serve.Stats.cold = cold_expected in
  (* Shard speedup: 1-shard ingest wall over the sharded leg's. Only
     meaningful when the sharded leg actually ran on >1 shard. *)
  let shard_speedup =
    if shards > 1 && run.Serve.Stats.wall_s > 0. then
      Some (result1.Serve.Daemon.r_run.Serve.Stats.wall_s /. run.Serve.Stats.wall_s)
    else None
  in
  Report.print ppf (Serve.Stats.report s run);
  Format.fprintf ppf "windows verified against cold solve: %d (%s)@."
    s.Serve.Stats.retiers
    (if verified then "cut-for-cut identical" else "DIVERGED");
  Format.fprintf ppf "%d-shard vs 1-shard posted tiers: %s@." shards
    (if shards_identical then "bitwise identical" else "DIVERGED");
  Format.fprintf ppf "cold solves: %d (expected %d = 1 + drills)@."
    s.Serve.Stats.cold cold_expected;
  Json_out.(
    write ppf "BENCH_serve.json"
      [
        ("grid", Str "serve");
        ("workload", Str name);
        ("days", Int days);
        ("every_s", Int every_s);
        ("bin_s", Int bin_s);
        ("bins", Int bins);
        ("flows", Int result.Serve.Daemon.r_flows);
        ("host_domains", Int host_domains);
        ("shards", Int shards);
        ("requested_shards", Int requested_shards);
        ("shard_speedup", opt (num "%.3f") shard_speedup);
        ( "shard_note",
          Str
            (if shards = requested_shards then
               "multi-shard leg drained on a domain pool"
             else
               "host reports a single domain: multi-shard leg skipped, \
                speedup not measurable") );
        ("wire_bytes", Int wire_bytes);
        ("seq_gaps", Int run.Serve.Stats.seq_gaps);
        ("malformed", Int run.Serve.Stats.malformed);
        ("rss_mb", opt (num "%.1f") rss);
        ("daemon", Raw (Serve.Stats.to_json s run));
        ( "daemon_1shard",
          Raw
            (Serve.Stats.to_json result1.Serve.Daemon.r_stats
               result1.Serve.Daemon.r_run) );
        ("windows_verified", Int s.Serve.Stats.retiers);
        ("warm_equals_cold", Bool verified);
        ("shards_identical", Bool shards_identical);
        ("cold_only_drills", Bool drills_only);
      ]);
  if not verified then
    failwith "serve: warm-started tiers diverged from the cold solve";
  if not shards_identical then
    failwith "serve: sharded posted tiers diverged from the 1-shard run";
  if not drills_only then
    failwith "serve: flow churn forced cold solves outside the drill cadence"

(* --- micro-benchmarks ----------------------------------------------------- *)

let run_micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let ced = Experiment.market ~spec:Market.Ced "eu_isp" in
  let logit = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  let topo = Netsim.Presets.eu_isp () in
  let strategy_bench name m =
    List.map
      (fun s ->
        Test.make
          ~name:(Printf.sprintf "%s %s B=4" name (Strategy.name s))
          (Staged.stage (fun () -> ignore (Strategy.apply s m ~n_bundles:4))))
      [ Strategy.Optimal; Strategy.Profit_weighted; Strategy.Cost_division ]
  in
  let tests =
    Test.make_grouped ~name:"tiered-pricing"
      [
        Test.make_grouped ~name:"strategies (600 flows)"
          (strategy_bench "ced" ced @ strategy_bench "logit" logit);
        Test.make_grouped ~name:"pricing"
          [
            Test.make ~name:"ced evaluate B=4"
              (Staged.stage
                 (let b = Strategy.apply Strategy.Optimal ced ~n_bundles:4 in
                  fun () -> ignore (Pricing.evaluate ced b)));
            Test.make ~name:"logit evaluate B=4"
              (Staged.stage
                 (let b = Strategy.apply Strategy.Optimal logit ~n_bundles:4 in
                  fun () -> ignore (Pricing.evaluate logit b)));
            Test.make ~name:"logit margin solve"
              (Staged.stage (fun () ->
                   ignore (Logit.optimal_margin ~alpha:1.1 ~ln_s:25.)));
          ];
        Test.make_grouped ~name:"substrates"
          [
            Test.make ~name:"dijkstra (eu_isp)"
              (Staged.stage (fun () ->
                   ignore
                     (Netsim.Graph.shortest_path_lengths topo.Netsim.Topology.graph
                        ~src:0)));
            Test.make ~name:"market fit (600 flows)"
              (Staged.stage
                 (let flows = Dataset.of_workload (Experiment.workload "eu_isp") in
                  fun () ->
                    ignore
                      (Market.fit ~spec:Market.Ced ~alpha:1.1 ~p0:20.
                         ~cost_model:(Cost_model.linear ~theta:0.2) flows)));
          ];
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun instance ->
      let results = Analyze.all ols instance raw in
      let rows = ref [] in
      Hashtbl.iter
        (fun name result ->
          let cell =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.sprintf "%.1f" est
            | Some _ | None -> "-"
          in
          rows := [ name; cell ] :: !rows)
        results;
      Report.print ppf
        (Report.make ~title:"Wall-clock cost of the core algorithms"
           ~header:[ "benchmark"; "ns/run" ]
           (List.sort compare !rows)))
    instances

(* --- driver ---------------------------------------------------------------- *)

let () =
  (* Must come first: when this executable is re-invoked as an engine
     worker subprocess (--backend=procs), serve tasks and exit before
     any driver logic runs. *)
  Engine.Proc.maybe_run_worker ();
  let raw_args = List.tl (Array.to_list Sys.argv) in
  (* Flags mirror tiered-cli: [--cache] turns on the content-addressed
     disk tier under _cas/, [--cache-max-bytes=N] additionally bounds
     it (implying [--cache]), [--backend=procs] runs the experiments
     section on worker subprocesses. Everything else selects sections
     or experiment ids. *)
  let cache_max_bytes =
    List.fold_left
      (fun acc a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--cache-max-bytes" ->
            int_of_string_opt
              (String.sub a (i + 1) (String.length a - i - 1))
        | _ -> acc)
      None raw_args
  in
  (* dp-section knobs: --dp-sizes=1000,10000 --dp-bundles=3,10
     --dp-max-exact=50000 (the CI smoke shrinks all three). *)
  let flag_value name =
    List.fold_left
      (fun acc a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = name ->
            Some (String.sub a (i + 1) (String.length a - i - 1))
        | _ -> acc)
      None raw_args
  in
  let int_list_flag name default =
    match flag_value name with
    | None -> default
    | Some v ->
        let parts = String.split_on_char ',' v in
        let ints = List.filter_map int_of_string_opt parts in
        if List.length ints <> List.length parts || ints = [] then
          failwith (name ^ ": expected a comma-separated list of ints")
        else ints
  in
  let int_flag name default =
    match flag_value name with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> failwith (name ^ ": expected an int"))
  in
  let dp_sizes = int_list_flag "--dp-sizes" [ 1_000; 10_000; 50_000; 200_000 ] in
  let dp_bundles = int_list_flag "--dp-bundles" [ 3; 10 ] in
  let dp_max_exact = int_flag "--dp-max-exact" 50_000 in
  (* serve-section knobs: --serve-flows=N (eu_isp@N), --serve-days=D,
     --serve-every=S, --serve-shards=K (the CI smoke shrinks the first
     two; the shard count is still >= 2 there so the golden-equality
     leg always runs). *)
  let serve_flows = int_flag "--serve-flows" 2_000 in
  let serve_days = int_flag "--serve-days" 6 in
  let serve_every = int_flag "--serve-every" 3_600 in
  let serve_shards = int_flag "--serve-shards" 2 in
  let use_cache = List.mem "--cache" raw_args || cache_max_bytes <> None in
  if use_cache then
    Engine.Cache.enable_disk ?max_bytes:cache_max_bytes ~dir:"_cas" ();
  let backend =
    if List.mem "--backend=procs" raw_args then Engine.Pool.Procs
    else Engine.Pool.Domains
  in
  let args =
    List.filter
      (fun a -> String.length a < 2 || String.sub a 0 2 <> "--")
      raw_args
  in
  let want name = args = [] || List.mem name args in
  let experiment_filter = List.filter (fun a -> List.mem a (Experiment.ids ())) args in
  if experiment_filter <> [] then
    List.iter (fun id -> run_experiment (Experiment.find id)) experiment_filter
  else begin
    if want "experiments" then run_experiments ~backend ();
    if want "fig2" then run_fig2 ();
    if want "fig17" then run_fig17 ();
    if want "ablations" then run_ablations ();
    if want "extensions" then run_extensions ();
    if want "dp" then
      run_dp_bench ~sizes:dp_sizes ~bundle_counts:dp_bundles
        ~max_exact:dp_max_exact ();
    if want "serve" then
      run_serve_bench ~flows:serve_flows ~days:serve_days
        ~every_s:serve_every ~shards:serve_shards ();
    if want "micro" then run_micro ()
  end;
  Format.fprintf ppf "@."
