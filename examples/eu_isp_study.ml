(* The full measurement-to-pricing pipeline on the EU ISP preset:

     1. generate the calibrated workload (Table 1 statistics);
     2. synthesize a day of sampled NetFlow at every on-path router;
     3. run the collector pipeline: sampling, dedup, aggregation;
     4. fit the CED and logit markets from the measured demands;
     5. compare bundling strategies and print a recommended tier sheet.

   Run with: dune exec examples/eu_isp_study.exe *)

open Tiered

let () =
  Format.printf "== 1. Workload ==@.";
  let w = Flowgen.Workload.preset "eu_isp" in
  Format.printf "  %a@." Flowgen.Workload.pp_stats (Flowgen.Workload.stats w);

  Format.printf "@.== 2-3. NetFlow pipeline (1-in-1000 sampling) ==@.";
  let measured = Dataset.via_netflow ~sampling_rate:1000 w in
  let truth = Dataset.of_workload w in
  Format.printf "  ground truth: %d flows, %.1f Gbps@." (Array.length truth)
    (Flow.total_demand_mbps truth /. 1000.);
  Format.printf "  measured:     %d flows, %.1f Gbps@." (Array.length measured)
    (Flow.total_demand_mbps measured /. 1000.);

  Format.printf "@.== 4. Model fitting (alpha=1.1, P0=$20, linear cost theta=0.2) ==@.";
  let cost_model = Cost_model.linear ~theta:0.2 in
  let ced = Market.fit ~spec:Market.Ced ~alpha:1.1 ~p0:20. ~cost_model measured in
  let logit =
    Market.fit ~spec:(Market.Logit { s0 = 0.2 }) ~alpha:1.1 ~p0:20. ~cost_model measured
  in
  Format.printf "  %a@.  %a@." Market.pp ced Market.pp logit;

  Format.printf "@.== 5. Strategy comparison (profit capture) ==@.";
  let strategies =
    [ Strategy.Optimal; Strategy.Cost_weighted; Strategy.Profit_weighted;
      Strategy.Index_division; Strategy.Cost_division ]
  in
  let header =
    "bundles" :: List.map Strategy.name strategies
  in
  let bundle_counts = [ 1; 2; 3; 4; 5; 6 ] in
  let table market =
    let context = Capture.context market in
    let columns =
      List.map
        (fun s -> Capture.series ~context market s ~bundle_counts)
        strategies
    in
    List.mapi
      (fun i b ->
        string_of_int b
        :: List.map
             (fun column -> Report.cell_f (List.nth column i).Capture.capture)
             columns)
      bundle_counts
  in
  Report.print Format.std_formatter
    (Report.make ~title:"CED demand" ~header (table ced));
  Report.print Format.std_formatter
    (Report.make ~title:"Logit demand" ~header (table logit));

  Format.printf "@.== Recommended 3-tier sheet (CED, optimal bundling) ==@.";
  let bundles = Strategy.apply Strategy.Optimal ced ~n_bundles:3 in
  let outcome = Pricing.evaluate ced bundles in
  Array.iteri
    (fun b group ->
      let costs = Array.map (fun i -> ced.Market.costs.(i)) group in
      let demand =
        Numerics.Stats.sum (Array.map (fun i -> ced.Market.flows.(i).Flow.demand_mbps) group)
      in
      Format.printf
        "  tier %d: $%5.2f/Mbps  (%3d destinations, delivery cost $%.2f-%.2f, %5.1f Gbps)@."
        b
        outcome.Pricing.bundle_prices.(b)
        (Array.length group) (Numerics.Stats.min costs) (Numerics.Stats.max costs)
        (demand /. 1000.))
    (bundles :> int array array);
  let ctx = Capture.context ced in
  Format.printf "  -> captures %s of the attainable profit headroom@."
    (Report.cell_pct (Capture.value ctx outcome.Pricing.profit))
