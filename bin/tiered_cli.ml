(* Command-line interface to the tiered-pricing reproduction.

   tiered-cli list
   tiered-cli run [EXPERIMENT...] [--csv DIR] [--jobs N] [--cache] [--metrics]
   tiered-cli dataset NETWORK [--netflow-sample N]
   tiered-cli evaluate NETWORK [--demand ced|logit] [--cost MODEL]
       [--theta T] [--bundles B] [--strategy S] ...
   tiered-cli sweep NETWORK --param alpha|p0|s0 [--strategy S] [--jobs N]
       [--cache]
   tiered-cli serve NETWORK [--days D] [--every SECONDS] [--decay KIND] ...

   Grid-shaped commands (run, sweep) execute on the Engine pool:
   --jobs picks the worker count, --backend picks the execution
   substrate (worker domains in-process or worker subprocesses —
   results are merged in submission order, so any --jobs/--backend
   combination prints byte-identical output) and
   --cache persists calibrated workloads / fitted markets in the
   content-addressed store under _cas/ across invocations. The store
   is also what makes a sweep resumable: with --cache each sweep cell
   is stored the moment it finishes, so a rerun after an interruption
   restores the finished cells and computes only the rest (it reports
   how many of each on stderr). *)

open Cmdliner
open Tiered

let ppf = Format.std_formatter

(* --- shared argument parsers -------------------------------------------- *)

let network_conv =
  (* A network may carry a synthetic scale suffix, e.g. eu_isp@200000:
     the same calibration with n_flows overridden (Workload.preset). *)
  let parse s =
    let base =
      match String.index_opt s '@' with
      | None -> s
      | Some i -> String.sub s 0 i
    in
    if not (List.mem base Netsim.Presets.all_names) then
      Error (`Msg ("unknown network: " ^ s ^ " (expected eu_isp, cdn or internet2, optionally name@N)"))
    else
      match Flowgen.Workload.preset_params s with
      | (_ : Flowgen.Workload.params) -> Ok s
      | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let strategy_conv =
  let parse s =
    match Strategy.of_name s with
    | strategy -> Ok strategy
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Strategy.name s))

let network_arg =
  Arg.(required & pos 0 (some network_conv) None & info [] ~docv:"NETWORK")

let demand_arg =
  Arg.(value
       & opt (enum [ ("ced", `Ced); ("logit", `Logit); ("linear", `Linear) ]) `Ced
       & info [ "demand" ] ~docv:"MODEL" ~doc:"Demand model: ced, logit or linear.")

let cost_arg =
  Arg.(value
       & opt (enum [ ("linear", `Linear); ("concave", `Concave); ("regional", `Regional);
                     ("destination-type", `Destination_type) ])
           `Linear
       & info [ "cost" ] ~docv:"MODEL" ~doc:"Cost model.")

let theta_arg =
  Arg.(value & opt (some float) None
       & info [ "theta" ] ~docv:"T" ~doc:"Cost-model tuning parameter.")

let alpha_arg =
  Arg.(value & opt float Experiment.Defaults.alpha
       & info [ "alpha" ] ~docv:"A" ~doc:"Price sensitivity.")

let p0_arg =
  Arg.(value & opt float Experiment.Defaults.p0
       & info [ "p0" ] ~docv:"P" ~doc:"Observed blended rate, \\$/Mbps/month.")

let s0_arg =
  Arg.(value & opt float Experiment.Defaults.s0
       & info [ "s0" ] ~docv:"S" ~doc:"Logit non-participating share.")

let strategy_arg =
  Arg.(value & opt strategy_conv Strategy.Optimal
       & info [ "strategy" ] ~docv:"S"
           ~doc:"Bundling strategy (optimal, profit-weighted, cost-weighted, \
                 demand-weighted, profit-weighted-classes, cost-division, \
                 index-division).")

let bundles_arg =
  Arg.(value & opt int 3 & info [ "bundles" ] ~docv:"B" ~doc:"Number of pricing tiers.")

let jobs_arg =
  Arg.(value & opt int (Engine.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Workers for grid execution (1 = serial): worker domains \
                 or worker processes, per $(b,--backend). Output is \
                 byte-identical at any value; defaults to the host's core \
                 count minus one.")

let backend_arg =
  Arg.(value
       & opt (enum [ ("domains", Engine.Pool.Domains); ("procs", Engine.Pool.Procs) ])
           Engine.Pool.Domains
       & info [ "backend" ] ~docv:"B"
           ~doc:"Pool backend: $(b,domains) runs worker domains inside this \
                 process; $(b,procs) forks worker processes of this \
                 executable and recovers from worker crashes (requeue on a \
                 surviving worker, bounded retries, replacement spawn). \
                 Output is byte-identical in every case.")

let worker_retries_arg =
  Arg.(value & opt int 2
       & info [ "worker-retries" ] ~docv:"N"
           ~doc:"With --backend procs: how many times a task whose worker \
                 died is re-executed before the run fails.")

let task_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "task-timeout" ] ~docv:"SECONDS"
           ~doc:"With --backend procs: kill and replace a worker whose task \
                 runs longer than $(docv) (the task is retried like a \
                 crash).")

let cache_arg =
  Arg.(value & flag
       & info [ "cache" ]
           ~doc:"Persist expensive artifacts (calibrated workloads, fitted \
                 markets) in the content-addressed store under _cas/ and \
                 reuse them across runs.")

let cache_max_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-max-bytes" ] ~docv:"BYTES"
           ~doc:"Bound the on-disk cache tier at $(docv) payload bytes; \
                 least-recently-used artifacts are evicted first. Implies \
                 --cache.")

let enable_cache cache max_bytes =
  if cache || max_bytes <> None then
    Engine.Cache.enable_disk ?max_bytes ~dir:"_cas" ()

let cost_model_of ~cost ~theta =
  let theta_or default = Option.value ~default theta in
  match cost with
  | `Linear -> Cost_model.linear ~theta:(theta_or Experiment.Defaults.theta)
  | `Concave -> Cost_model.concave ~theta:(theta_or Experiment.Defaults.theta)
  | `Regional -> Cost_model.regional ~theta:(theta_or 1.1)
  | `Destination_type -> Cost_model.destination_type ~theta:(theta_or 0.1)

let spec_of ~demand ~s0 =
  match demand with
  | `Ced -> Market.Ced
  | `Logit -> Market.Logit { s0 }
  | `Linear -> Market.Linear { epsilon = 1.8 }

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Format.fprintf ppf "%-8s %s@." e.Experiment.id e.Experiment.description)
      Experiment.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible experiments.")
    Term.(const run $ const ())

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let csv_arg =
    Arg.(value & opt (some dir) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let md_arg =
    Arg.(value & opt (some dir) None
         & info [ "markdown" ] ~docv:"DIR"
             ~doc:"Also write each table as a Markdown file into $(docv).")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print run metrics (per-task wall time, cache hit/miss \
                   counters, pool utilization) after the tables.")
  in
  let metrics_json_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Dump the run metrics as JSON into $(docv).")
  in
  let run ids csv_dir md_dir backend retries timeout_s jobs cache
      cache_max_bytes show_metrics metrics_json =
    enable_cache cache cache_max_bytes;
    let experiments =
      match ids with
      | [] -> Experiment.all
      | ids ->
          List.map
            (fun id ->
              match Experiment.find id with
              | e -> e
              | exception Not_found ->
                  Format.eprintf
                    "tiered-cli: unknown experiment id %S@.known ids: %s@." id
                    (String.concat ", " (Experiment.ids ()));
                  exit 1)
            ids
    in
    let write dir ext render i id t =
      let path = Filename.concat dir (Printf.sprintf "%s_%d.%s" id i ext) in
      let oc = open_out path in
      output_string oc (render t);
      close_out oc;
      Format.fprintf ppf "  wrote %s@." path
    in
    let metrics = Engine.Metrics.create () in
    let results =
      Runner.run_experiments ~backend ~retries ?timeout_s ~jobs ~metrics
        experiments
    in
    List.iter
      (fun (r : Runner.result) ->
        List.iter (Report.print ppf) r.Runner.tables;
        Option.iter
          (fun dir ->
            List.iteri
              (fun i t -> write dir "csv" Report.to_csv i r.Runner.id t)
              r.Runner.tables)
          csv_dir;
        Option.iter
          (fun dir ->
            List.iteri
              (fun i t -> write dir "md" Report.to_markdown i r.Runner.id t)
              r.Runner.tables)
          md_dir)
      results;
    let snapshot () = Engine.Metrics.snapshot metrics in
    if show_metrics then
      List.iter (Report.print ppf) (Runner.metrics_reports (snapshot ()));
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Engine.Metrics.to_json (snapshot ()));
        close_out oc;
        Format.fprintf ppf "  wrote %s@." path)
      metrics_json
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate paper tables/figures (all by default).")
    Term.(const run $ ids_arg $ csv_arg $ md_arg $ backend_arg
          $ worker_retries_arg $ task_timeout_arg $ jobs_arg $ cache_arg
          $ cache_max_bytes_arg $ metrics_arg $ metrics_json_arg)

(* --- dataset ---------------------------------------------------------------- *)

let dataset_cmd =
  let sample_arg =
    Arg.(value & opt (some int) None
         & info [ "netflow-sample" ] ~docv:"N"
             ~doc:"Also run the 1-in-$(docv) sampled NetFlow pipeline and compare.")
  in
  let run network sample =
    let w = Experiment.workload network in
    let target = Flowgen.Workload.table1_targets network in
    Format.fprintf ppf "%s workload: %a@." network Flowgen.Workload.pp_stats
      (Flowgen.Workload.stats w);
    Format.fprintf ppf
      "paper targets: w-avg dist %.0f mi, CV(dist) %.2f, %.1f Gbps, CV(demand) %.2f@."
      target.Flowgen.Workload.t_w_avg_distance target.Flowgen.Workload.t_cv_distance
      target.Flowgen.Workload.t_aggregate_gbps target.Flowgen.Workload.t_cv_demand;
    match sample with
    | None -> ()
    | Some rate ->
        let measured = Dataset.via_netflow ~sampling_rate:rate w in
        Format.fprintf ppf "measured through 1-in-%d sampling: %d flows, %.1f Gbps@."
          rate (Array.length measured)
          (Flow.total_demand_mbps measured /. 1000.)
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Show a calibrated workload vs its Table 1 targets.")
    Term.(const run $ network_arg $ sample_arg)

(* --- evaluate ----------------------------------------------------------------- *)

let evaluate_cmd =
  let run network demand cost theta alpha p0 s0 strategy bundles =
    let market =
      Experiment.market ~alpha ~p0 ~cost_model:(cost_model_of ~cost ~theta)
        ~spec:(spec_of ~demand ~s0) network
    in
    let partition = Strategy.apply strategy market ~n_bundles:bundles in
    let outcome = Pricing.evaluate market partition in
    let ctx = Capture.context market in
    Format.fprintf ppf "%a@." Market.pp market;
    Array.iteri
      (fun b group ->
        let demand_gbps =
          Numerics.Stats.sum
            (Array.map (fun i -> market.Market.flows.(i).Flow.demand_mbps) group)
          /. 1000.
        in
        Format.fprintf ppf "tier %d: $%.2f/Mbps, %d destinations, %.1f Gbps observed@."
          b outcome.Pricing.bundle_prices.(b) (Array.length group) demand_gbps)
      (partition :> int array array);
    Format.fprintf ppf "profit $%.4g (blended $%.4g, per-flow max $%.4g)@."
      outcome.Pricing.profit ctx.Capture.original ctx.Capture.maximum;
    Format.fprintf ppf "profit capture: %s@."
      (Report.cell_pct (Capture.value ctx outcome.Pricing.profit))
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Price one tier configuration on a network.")
    Term.(const run $ network_arg $ demand_arg $ cost_arg $ theta_arg $ alpha_arg
          $ p0_arg $ s0_arg $ strategy_arg $ bundles_arg)

(* --- sweep ----------------------------------------------------------------------- *)

let sweep_cmd =
  let param_arg =
    Arg.(required
         & opt (some (enum [ ("alpha", `Alpha); ("p0", `P0); ("s0", `S0) ])) None
         & info [ "param" ] ~docv:"P" ~doc:"Parameter to sweep: alpha, p0 or s0.")
  in
  let run network demand s0 strategy param backend retries timeout_s jobs
      cache cache_max_bytes =
    enable_cache cache cache_max_bytes;
    let values, fit =
      match param with
      | `Alpha ->
          ( Sensitivity.alpha_range ~steps:8 ~lo:1.1 ~hi:10. (),
            fun v -> Experiment.market ~alpha:v ~spec:(spec_of ~demand ~s0) network )
      | `P0 ->
          ( Sensitivity.linear_range ~steps:8 ~lo:5. ~hi:30. (),
            fun v -> Experiment.market ~p0:v ~spec:(spec_of ~demand ~s0) network )
      | `S0 ->
          ( Sensitivity.linear_range ~steps:8 ~lo:0.06 ~hi:0.9 (),
            fun v -> Experiment.market ~spec:(Market.Logit { s0 = v }) network )
    in
    (* One grid cell per swept value: fit + capture across the bundle
       counts. Cells are independent, so they go through the pool;
       rows come back in value order regardless of jobs or backend.
       With --cache each finished cell is in the store at once, so an
       interrupted sweep reruns only the cells it had not finished. *)
    let compute v =
      Report.cell_f v
      :: List.map
           (fun (p : Capture.point) -> Report.cell_f p.Capture.capture)
           (Capture.series (fit v) strategy
              ~bundle_counts:Experiment.Defaults.bundle_counts)
    in
    let param_name =
      match param with `Alpha -> "alpha" | `P0 -> "p0" | `S0 -> "s0"
    in
    let demand_name =
      match demand with `Ced -> "ced" | `Logit -> "logit" | `Linear -> "linear"
    in
    (* Everything that determines a cell's bytes, in one key. *)
    let key v =
      ( "sweep-cell", network, demand_name, s0, Strategy.name strategy,
        param_name, v, Experiment.Defaults.bundle_counts )
    in
    let rows, computed =
      Runner.sweep ~backend ~retries ?timeout_s ~jobs ~key ~compute values
    in
    if Engine.Cache.disk_dir () <> None then begin
      let n = List.length values in
      Format.eprintf "sweep: %d cells, %d restored from the store, %d computed@."
        n (n - computed) computed
    end;
    Report.print ppf
      (Report.make
         ~title:(Printf.sprintf "capture on %s while sweeping the parameter" network)
         ~header:("value" :: List.map string_of_int Experiment.Defaults.bundle_counts)
         rows)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep a model parameter and tabulate profit capture.")
    Term.(const run $ network_arg $ demand_arg $ s0_arg $ strategy_arg $ param_arg
          $ backend_arg $ worker_retries_arg $ task_timeout_arg $ jobs_arg
          $ cache_arg $ cache_max_bytes_arg)

(* --- trace ----------------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the trace to $(docv).")
  in
  let sample_arg =
    Arg.(value & opt int 1
         & info [ "sample" ] ~docv:"N" ~doc:"Apply 1-in-$(docv) packet sampling.")
  in
  let seed_arg =
    Arg.(value & opt int 99 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("csv", `Csv); ("wire", `Wire) ]) `Csv
         & info [ "format" ] ~docv:"FMT"
             ~doc:"$(b,csv) (one record per line) or $(b,wire) (binary \
                   NetFlow v5/IPFIX packets, the format $(b,serve --from) \
                   replays).")
  in
  let run network out sample seed format =
    let w = Experiment.workload network in
    let rng = Numerics.Rng.create seed in
    let records = Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w) in
    let records =
      if sample <= 1 then records
      else Flowgen.Sampling.sample rng (Flowgen.Sampling.make sample) records
    in
    (match format with
    | `Csv -> Flowgen.Trace.save ~path:out records
    | `Wire ->
        (* Synthesis emits flow by flow; serve --from needs the stream
           in time order (the ingest contract). *)
        Flowgen.Netflow.Wire.write_file out
          (Flowgen.Netflow.in_time_order records));
    Format.fprintf ppf "wrote %s: %s@." out (Flowgen.Trace.summarize records)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Synthesize a day of NetFlow for a network and dump it as CSV \
             or binary wire packets.")
    Term.(const run $ network_arg $ out_arg $ sample_arg $ seed_arg $ format_arg)

(* --- loading ---------------------------------------------------------------------- *)

let loading_cmd =
  let run network =
    let w = Experiment.workload network in
    let report = Flowgen.Loading.of_workload w in
    Flowgen.Loading.pp ppf report
  in
  Cmd.v
    (Cmd.info "loading" ~doc:"Show link utilization of a network's workload.")
    Term.(const run $ network_arg)

(* --- tiers ------------------------------------------------------------------------ *)

let tiers_cmd =
  let overhead_arg =
    Arg.(value & opt float 0.
         & info [ "overhead" ] ~docv:"X" ~doc:"Per-tier monthly overhead in dollars.")
  in
  let max_arg =
    Arg.(value & opt int 8 & info [ "max" ] ~docv:"B" ~doc:"Largest tier count to consider.")
  in
  let run network demand s0 strategy overhead max_bundles =
    let market = Experiment.market ~spec:(spec_of ~demand ~s0) network in
    let o = Tier_count.overhead ~per_tier:overhead () in
    let series = Tier_count.series market strategy o ~max_bundles in
    let best = Tier_count.optimal market strategy o ~max_bundles in
    List.iter
      (fun (p : Tier_count.point) ->
        Format.fprintf ppf "%s%d tier(s): gross $%.0f, overhead $%.0f, net $%.0f@."
          (if p.Tier_count.n_bundles = best.Tier_count.n_bundles then "* " else "  ")
          p.Tier_count.n_bundles p.Tier_count.gross_profit p.Tier_count.overhead_cost
          p.Tier_count.net_profit)
      series;
    Format.fprintf ppf "answer: %d tier(s)@." best.Tier_count.n_bundles
  in
  Cmd.v
    (Cmd.info "tiers"
       ~doc:"Answer the title question: the net-profit-optimal tier count.")
    Term.(const run $ network_arg $ demand_arg $ s0_arg $ strategy_arg $ overhead_arg
          $ max_arg)

(* --- serve -------------------------------------------------------------------- *)

let serve_cmd =
  let days_arg =
    Arg.(value & opt int 1
         & info [ "days" ] ~docv:"D"
             ~doc:"Stream length: one synthesized day of NetFlow replayed \
                   $(docv) times (timestamps shifted by whole days).")
  in
  let seed_arg =
    Arg.(value & opt int 11
         & info [ "seed" ] ~docv:"N" ~doc:"NetFlow synthesis seed.")
  in
  let bin_arg =
    Arg.(value & opt int 3600
         & info [ "bin-s" ] ~docv:"SECONDS" ~doc:"Window bin width.")
  in
  let bins_arg =
    Arg.(value & opt int 24
         & info [ "bins" ] ~docv:"N" ~doc:"Bins in the sliding window.")
  in
  let every_arg =
    Arg.(value & opt int 3600
         & info [ "every" ] ~docv:"SECONDS"
             ~doc:"Re-tier cadence in stream seconds.")
  in
  let decay_arg =
    Arg.(value
         & opt (enum [ ("none", `None); ("exponential", `Exponential);
                       ("diurnal", `Diurnal) ])
             `None
         & info [ "decay" ] ~docv:"KIND"
             ~doc:"Demand weighting across the window: $(b,none), \
                   $(b,exponential) (see --half-life) or $(b,diurnal) \
                   (see --amplitude / --peak-bin).")
  in
  let half_life_arg =
    Arg.(value & opt float 12.
         & info [ "half-life" ] ~docv:"BINS"
             ~doc:"Exponential decay half-life, in bins.")
  in
  let amplitude_arg =
    Arg.(value & opt float 0.5
         & info [ "amplitude" ] ~docv:"A"
             ~doc:"Diurnal modulation amplitude in [0, 1].")
  in
  let peak_arg =
    Arg.(value & opt int 0
         & info [ "peak-bin" ] ~docv:"N" ~doc:"Diurnal peak bin.")
  in
  let cold_every_arg =
    Arg.(value & opt int 24
         & info [ "cold-every" ] ~docv:"N"
             ~doc:"Force the divergence fallback (a full re-solve through \
                   the exact path) on every $(docv)-th solve; 0 disables \
                   the drill.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the run's counters as JSON to $(docv).")
  in
  let from_arg =
    Arg.(value & opt (some string) None
         & info [ "from" ] ~docv:"FILE"
             ~doc:"Replay binary NetFlow v5/IPFIX packets from $(docv) \
                   ($(b,-) reads stdin, so a socket can be piped in) \
                   instead of synthesizing records; $(b,--days)/$(b,--seed) \
                   are ignored. NETWORK still provides the flow metadata \
                   the calibration joins against. Produce such files with \
                   $(b,tiered-cli trace --format wire).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Partition ingest (dedup + window state) across $(docv) \
                   shards drained by a domain pool; posted tiers are \
                   bitwise-identical at any shard count.")
  in
  let usage fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "serve: %s@." msg;
        exit Cmd.Exit.cli_error)
      fmt
  in
  let run network demand cost theta alpha p0 s0 bundles days seed bin_s bins
      every decay half_life amplitude peak cold_every cache max_bytes json
      from_ shards =
    enable_cache cache max_bytes;
    let spec = spec_of ~demand ~s0 in
    (match spec with
    | Market.Linear _ ->
        usage "linear demand has no parametric rebuild (use ced or logit)"
    | Market.Ced | Market.Logit _ -> ());
    (* Surface bad numeric parameters as CLI errors here; past this
       point the same invalid_arg guards in lib/serve would read as
       internal errors. *)
    if days < 1 then usage "--days must be at least 1";
    if bin_s < 1 then usage "--bin-s must be at least 1";
    if bins < 1 then usage "--bins must be at least 1";
    if every < 1 then usage "--every must be at least 1";
    if bundles < 1 then usage "--bundles must be at least 1";
    if cold_every < 0 then usage "--cold-every must be non-negative";
    if shards < 1 then usage "--shards must be at least 1";
    (match decay with
    | `Exponential when not (half_life > 0. && Float.is_finite half_life) ->
        usage "--half-life must be a positive number of bins"
    | `Diurnal when not (amplitude >= 0. && amplitude <= 1.) ->
        usage "--amplitude must lie in [0, 1]"
    | `None | `Exponential | `Diurnal -> ());
    let w = Flowgen.Workload.preset network in
    let decay =
      match decay with
      | `None -> Serve.Window.No_decay
      | `Exponential -> Serve.Window.Exponential { half_life_bins = half_life }
      | `Diurnal -> Serve.Window.Diurnal { amplitude; peak_bin = peak }
    in
    let shard_state =
      Serve.Shards.create
        ~expected:(List.length w.Flowgen.Workload.flows)
        ~shards ~dedup:true
        { Serve.Window.bin_s; bins; decay }
    in
    let retier =
      Serve.Retier.create
        {
          Serve.Retier.spec;
          alpha;
          p0;
          n_bundles = bundles;
          cost_model = cost_model_of ~cost ~theta;
          samples = 8;
          cold_every;
          use_cache = cache || max_bytes <> None;
        }
        ~meta_of:(Serve.Retier.meta_of_workload w)
    in
    let ingest, cleanup =
      match from_ with
      | None -> (Serve.Ingest.of_workload ~days ~seed w, fun () -> ())
      | Some "-" ->
          ( Serve.Ingest.of_reader (Flowgen.Netflow.Wire.of_channel stdin),
            fun () -> () )
      | Some path -> (
          match open_in_bin path with
          | ic ->
              ( Serve.Ingest.of_reader (Flowgen.Netflow.Wire.of_channel ic),
                fun () -> close_in_noerr ic )
          | exception Sys_error msg -> usage "%s" msg)
    in
    let run_daemon pool =
      Serve.Daemon.run
        ~clock:
          (Serve.Clock.of_fn (fun () ->
               Int64.to_float (Monotonic_clock.now ()) /. 1e9))
        ?pool ~shards:shard_state ~retier
        { Serve.Daemon.every_s = every }
        ingest
    in
    let result =
      if shards > 1 then
        Engine.Pool.with_pool ~jobs:shards (fun pool -> run_daemon (Some pool))
      else run_daemon None
    in
    cleanup ();
    let s = result.Serve.Daemon.r_stats in
    let run_row = result.Serve.Daemon.r_run in
    Report.print ppf (Serve.Stats.report s run_row);
    (match List.rev result.Serve.Daemon.r_outcomes with
    | last :: _ when last.Serve.Retier.o_n_flows > 0 ->
        Format.fprintf ppf "@.posted tiers (final window, %d flows):@."
          last.Serve.Retier.o_n_flows;
        Array.iteri
          (fun i price ->
            Format.fprintf ppf "  tier %d: $%.2f/Mbps/month@." (i + 1) price)
          last.Serve.Retier.o_prices
    | _ -> ());
    match json with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Serve.Stats.to_json s run_row);
        output_string oc "\n";
        close_out oc;
        Format.fprintf ppf "@.wrote %s@." file
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the streaming pricing service on a synthesized NetFlow \
             stream (or a wire file, $(b,--from)): sliding-window demand, \
             incremental re-tiering (a window with the last solved window's \
             flow count warm-starts from its first changed position; a \
             changed flow count solves cold), posted tiers identical to \
             from-scratch solves.")
    Term.(const run $ network_arg $ demand_arg $ cost_arg $ theta_arg
          $ alpha_arg $ p0_arg $ s0_arg $ bundles_arg $ days_arg $ seed_arg
          $ bin_arg $ bins_arg $ every_arg $ decay_arg $ half_life_arg
          $ amplitude_arg $ peak_arg $ cold_every_arg $ cache_arg
          $ cache_max_bytes_arg $ json_arg $ from_arg $ shards_arg)

(* --- main ---------------------------------------------------------------------- *)

let () =
  (* Must come first: when this executable is re-invoked as an engine
     worker subprocess (--backend procs), serve tasks and exit before
     any CLI parsing happens. *)
  Engine.Proc.maybe_run_worker ();
  let info =
    Cmd.info "tiered-cli" ~version:"1.0.0"
      ~doc:"Tiered transit pricing: reproduction of Valancius et al., SIGCOMM 2011."
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; run_cmd; dataset_cmd; evaluate_cmd; sweep_cmd; trace_cmd; loading_cmd;
         tiers_cmd; serve_cmd ]))
