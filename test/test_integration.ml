(* End-to-end integration checks across every (network, demand family)
   combination, exercising the same path the CLI and benchmarks use. *)
open Tiered

let specs =
  [
    ("ced", Market.Ced);
    ("logit", Market.Logit { s0 = 0.2 });
    ("linear", Market.Linear { epsilon = 1.8 });
  ]

let test_every_network_and_family () =
  List.iter
    (fun network ->
      List.iter
        (fun (label, spec) ->
          let m = Experiment.market ~spec network in
          let ctx = Capture.context m in
          let o = Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:3) in
          let capture = Capture.value ctx o.Pricing.profit in
          if not (capture > 0.5 && capture <= 1. +. 1e-9) then
            Alcotest.failf "%s/%s capture %f out of expected band" network label capture;
          if not (o.Pricing.profit > 0.) then
            Alcotest.failf "%s/%s non-positive profit" network label)
        specs)
    Experiment.Defaults.networks

let test_full_pipeline_to_invoice () =
  (* Workload -> NetFlow -> dedup -> fit -> tiers -> tag -> account ->
     bill: the complete product path in one test. *)
  let params =
    { (Flowgen.Workload.preset_params "internet2") with Flowgen.Workload.n_flows = 50 }
  in
  let w = Flowgen.Workload.generate (Netsim.Presets.internet2 ()) params in
  let flows = Dataset.via_netflow ~sampling_rate:100 w in
  let m =
    Market.fit ~spec:Market.Ced ~alpha:1.1 ~p0:20.
      ~cost_model:(Cost_model.linear ~theta:0.2) flows
  in
  let bundles = Strategy.apply Strategy.Optimal m ~n_bundles:3 in
  let outcome = Pricing.evaluate m bundles in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows m) in
  let flow_index =
    let t = Hashtbl.create 64 in
    Array.iteri (fun i (f : Flow.t) -> Hashtbl.replace t f.Flow.id i) m.Market.flows;
    t
  in
  let assignments =
    List.filter_map
      (fun (f : Flowgen.Workload.flow) ->
        match Hashtbl.find_opt flow_index f.Flowgen.Workload.id with
        | None -> None (* flow vanished under sampling *)
        | Some i ->
            Some
              {
                Routing.Tagging.dst_prefix =
                  Flowgen.Ipv4.prefix f.Flowgen.Workload.dst_addr 24;
                tier = owner.(i);
                next_hop = f.Flowgen.Workload.entry.Netsim.Node.id;
              })
      w.Flowgen.Workload.flows
  in
  let sessions = Routing.Session.plan ~asn:65000 assignments ~n_links:3 in
  Alcotest.(check int) "consistent sessions" 0
    (List.length (Routing.Session.check_consistency sessions));
  let rib = Routing.Session.advertised_rib sessions in
  let rng = Numerics.Rng.create 9 in
  let records =
    Flowgen.Dedup.dedup
      (Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w))
  in
  let usage = Routing.Accounting.flow_based ~rib records in
  let invoice =
    Routing.Billing.of_usage ~rates:outcome.Pricing.bundle_prices
      ~period_s:Flowgen.Netflow.day_seconds usage
  in
  Alcotest.(check bool) "invoice has lines" true (invoice.Routing.Billing.lines <> []);
  Alcotest.(check bool) "positive total" true (invoice.Routing.Billing.total > 0.)

let test_experiment_csv_and_markdown_agree_on_shape () =
  let tables = Experiment.run_cells (Experiment.find "table1") in
  List.iter
    (fun t ->
      let csv_lines =
        String.split_on_char '\n' (Report.to_csv t)
        |> List.filter (fun l -> l <> "")
      in
      (* CSV: header + rows. Markdown: heading, blank, header, separator,
         rows, then notes. *)
      Alcotest.(check int) "csv line count"
        (1 + List.length t.Report.rows)
        (List.length csv_lines);
      let md_lines =
        String.split_on_char '\n' (Report.to_markdown t)
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
      in
      Alcotest.(check int) "md table rows"
        (2 + List.length t.Report.rows)
        (List.length md_lines))
    tables

let suite =
  [
    Alcotest.test_case "every network x demand family" `Slow test_every_network_and_family;
    Alcotest.test_case "workload to invoice" `Slow test_full_pipeline_to_invoice;
    Alcotest.test_case "csv/markdown shape" `Quick test_experiment_csv_and_markdown_agree_on_shape;
  ]
