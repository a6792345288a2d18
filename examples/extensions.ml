(* Studies beyond the paper (DESIGN.md §6): the welfare decomposition
   of tiering, probe-calibrated repricing, volume (commit) tiers,
   time-of-day pricing under peak-load costs, evaluation from SNMP link
   counters only (tomogravity), single link failures on Internet2, and
   the link loading of the EU ISP workload. Deterministic; the printed
   tables are pinned by extensions.expected.

   Run with: dune exec examples/extensions.exe *)

open Tiered

let ppf = Format.std_formatter

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

let extension_probe_estimate () =
  (* Repricing when alpha is estimated from a price experiment first,
     rather than believed (examples/price_war.ml has the believed rows). *)
  let truth = Experiment.market ~spec:Market.Ced "eu_isp" in
  let rounds =
    Estimate.calibrated_dynamics ~noise_cv:0.02 ~truth ~strategy:Strategy.Optimal
      ~n_bundles:3 ~rounds:12 ()
  in
  let blended = (List.hd rounds).Dynamics.true_profit in
  let final = List.nth rounds (List.length rounds - 1) in
  Report.print ppf
    (Report.make
       ~title:"Extension: probe-calibrated repricing (true alpha = 1.1)"
       ~header:[ "alpha"; "capture r1"; "final capture"; "profit vs blended"; "converged" ]
       [
         [
           "probe-calibrated";
           Report.cell_f (List.nth rounds 1).Dynamics.capture;
           Report.cell_f (Dynamics.final_capture rounds);
           Report.cell_pct (final.Dynamics.true_profit /. blended);
           (if Dynamics.converged ~tol:1e-4 rounds then "yes" else "no");
         ];
       ]
       ~notes:
         [
           "alpha is estimated from a wide-spread price experiment \
            (Tiered.Estimate, noise CV 2%) before the re-fit/re-price \
            loop starts";
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

let () =
  extension_welfare ();
  extension_probe_estimate ();
  extension_commit ();
  extension_peak ();
  extension_tomogravity ();
  extension_failures ();
  extension_loading ();
  Format.fprintf ppf "@."
