(* Must come first: the subprocess-backend tests re-invoke this very
   executable as an engine worker (--engine-worker); serve tasks and
   exit before Alcotest parses argv. *)
let () = Engine.Proc.maybe_run_worker ()

let () =
  Alcotest.run "tiered-pricing"
    [
      ("numerics.rng", Test_rng.suite);
      ("numerics.dist", Test_dist.suite);
      ("numerics.stats", Test_stats.suite);
      ("numerics.solve", Test_solve.suite);
      ("numerics.gradient", Test_gradient.suite);
      ("numerics.fit", Test_fit.suite);
      ("numerics.vec", Test_vec.suite);
      ("numerics.segdp", Test_segdp.suite);
      ("numerics.segdp.hostile", Test_segdp_hostile.suite);
      ("netsim.geo", Test_geo.suite);
      ("netsim.cities", Test_cities.suite);
      ("netsim.graph", Test_graph.suite);
      ("netsim.topology", Test_topology.suite);
      ("netsim.presets", Test_presets.suite);
      ("flowgen.ipv4", Test_ipv4.suite);
      ("flowgen.geoip", Test_geoip.suite);
      ("flowgen.netflow", Test_netflow.suite);
      ("flowgen.netflow_wire", Test_netflow_wire.suite);
      ("flowgen.sampling", Test_sampling.suite);
      ("flowgen.dedup", Test_dedup.suite);
      ("flowgen.demand", Test_demand.suite);
      ("flowgen.workload", Test_workload.suite);
      ("routing.community", Test_community.suite);
      ("routing.rib", Test_rib.suite);
      ("routing.accounting", Test_accounting.suite);
      ("routing.billing", Test_billing.suite);
      ("routing.policy", Test_policy.suite);
      ("routing.session", Test_session.suite);
      ("tiered.flow", Test_flow.suite);
      ("tiered.cost_model", Test_cost_model.suite);
      ("tiered.ced", Test_ced.suite);
      ("tiered.logit", Test_logit.suite);
      ("tiered.lin", Test_lin.suite);
      ("tiered.market", Test_market.suite);
      ("tiered.bundle", Test_bundle.suite);
      ("tiered.pricing", Test_pricing.suite);
      ("tiered.strategy", Test_strategy.suite);
      ("tiered.capture", Test_capture.suite);
      ("tiered.dataset", Test_dataset.suite);
      ("tiered.sensitivity", Test_sensitivity.suite);
      ("tiered.report", Test_report.suite);
      ("tiered.experiment", Test_experiment.suite);
      ("engine", Test_engine.suite);
      ("engine.transport", Test_transport.suite);
      ("engine.resume", Test_resume.suite);
      ("golden", Test_golden.suite);
      ("flowgen.loading", Test_loading.suite);
      ("flowgen.trace", Test_trace.suite);
      ("flowgen.tomogravity", Test_tomogravity.suite);
      ("tiered.welfare", Test_welfare.suite);
      ("tiered.dynamics", Test_dynamics.suite);
      ("tiered.competition", Test_competition.suite);
      ("tiered.commit", Test_commit.suite);
      ("tiered.peak", Test_peak.suite);
      ("tiered.tier_count", Test_tier_count.suite);
      ("tiered.estimate", Test_estimate.suite);
      ("cross-module properties", Test_properties.suite);
      ("edge cases", Test_edge_cases.suite);
      ("integration", Test_integration.suite);
      ("serve", Test_serve.suite);
      ("analysis.lint", Test_lint.suite);
      ("analysis.typed", Test_typed_lint.suite);
    ]
