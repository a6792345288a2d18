(* Command-line interface to the tiered-pricing reproduction.

   tiered-cli list
   tiered-cli run [EXPERIMENT...] [--csv DIR] [--jobs N] [--cache] [--metrics]
   tiered-cli dataset NETWORK [--netflow-sample N]
   tiered-cli evaluate NETWORK [--demand ced|logit] [--cost MODEL]
       [--theta T] [--bundles B] [--strategy S] ...
   tiered-cli sweep NETWORK --param alpha|p0|s0 [--strategy S] [--jobs N]
       [--manifest FILE]
   tiered-cli serve NETWORK [--days D] [--every SECONDS] [--decay KIND] ...
   tiered-cli worker --listen PORT

   Grid-shaped commands (run, sweep) execute on the Engine pool:
   --jobs picks the worker count, --backend picks the execution
   substrate (worker domains in-process, worker subprocesses, or a TCP
   worker fleet — results are merged in submission order, so any
   --jobs/--backend combination prints byte-identical output) and
   --cache persists calibrated workloads / fitted markets in the
   content-addressed store under _cas/ across invocations. `sweep
   --manifest FILE` additionally records the grid and each completed
   cell's artifact digest, so an interrupted sweep resumes computing
   only the cells whose artifacts the store is missing. *)

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
           ~doc:"Worker domains for grid execution (1 = serial). Output is \
                 byte-identical at any value; defaults to the host's core \
                 count minus one.")

let backend_arg =
  let kind =
    Arg.(value
         & opt (enum [ ("domains", `Domains); ("procs", `Procs); ("remote", `Remote) ])
             `Domains
         & info [ "backend" ] ~docv:"B"
             ~doc:"Pool backend: $(b,domains) runs worker domains inside this \
                   process; $(b,procs) forks worker processes of this \
                   executable and recovers from worker crashes (requeue on a \
                   surviving worker, bounded retries, replacement spawn); \
                   $(b,remote) drives the worker daemons named by \
                   $(b,--workers) with the same crash recovery plus work \
                   stealing, so a slow host does not serialize the tail. \
                   Output is byte-identical in every case.")
  in
  let workers =
    let parse s = Result.map_error (fun msg -> `Msg msg) (Engine.Remote.parse_spec s) in
    let print fmt addrs =
      Format.pp_print_string fmt
        (String.concat "," (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) addrs))
    in
    Arg.(value & opt (some (conv (parse, print))) None
         & info [ "workers" ] ~docv:"HOST:PORT,..."
             ~doc:"With --backend remote (required there): the addresses of \
                   worker daemons started with $(b,tiered-cli worker --listen \
                   PORT). The fleet size is the number of addresses; \
                   $(b,--jobs) does not apply.")
  in
  let backend kind workers =
    match (kind, workers) with
    | `Domains, None -> Ok Engine.Pool.Domains
    | `Procs, None -> Ok Engine.Pool.Procs
    | `Remote, Some addrs -> Ok (Engine.Pool.Remote addrs)
    | `Remote, None ->
        Error
          "--backend remote needs --workers HOST:PORT,... naming worker \
           daemons; start one on each host with `tiered-cli worker --listen \
           PORT`"
    | (`Domains | `Procs), Some _ -> Error "--workers needs --backend remote"
  in
  Term.(term_result' ~usage:true (const backend $ kind $ workers))

let worker_retries_arg =
  Arg.(value & opt int 2
       & info [ "worker-retries" ] ~docv:"N"
           ~doc:"With --backend procs or remote: how many times a task whose \
                 worker died is re-executed before the run fails.")

let task_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "task-timeout" ] ~docv:"SECONDS"
           ~doc:"With --backend procs or remote: kill and replace a worker \
                 whose task runs longer than $(docv) (the task is retried \
                 like a crash). A $(b,remote) daemon only has its \
                 connection severed: the computation already running on \
                 its host runs to completion, then the daemon rejoins the \
                 fleet; only $(b,procs) workers are actually killed.")

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
  let manifest_arg =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"FILE"
             ~doc:"Write (or resume) a sweep manifest at $(docv): a \
                   deterministic grid file naming every cell with its input \
                   digest, appended with each completed cell's artifact \
                   digest. On re-invocation only cells whose artifacts are \
                   missing from the content-addressed store are scheduled; \
                   the assembled table is byte-identical to an uninterrupted \
                   serial run. Implies --cache.")
  in
  let manifest_chunk_arg =
    (* Validated at parse time: a negative K must be a CLI error, not
       silently read as "no chunk limit". *)
    let nonneg_int =
      let parse s =
        match int_of_string_opt s with
        | Some k when k >= 0 -> Ok k
        | Some _ -> Error (`Msg "--manifest-chunk must be >= 0")
        | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(value & opt (some nonneg_int) None
         & info [ "manifest-chunk" ] ~docv:"K"
             ~doc:"With --manifest: compute at most $(docv) missing cells \
                   this invocation, then stop (without printing the table \
                   unless the grid completed). Lets a long sweep run as a \
                   sequence of resumable slices.")
  in
  let run network demand s0 strategy param backend retries timeout_s jobs
      cache cache_max_bytes manifest chunk =
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
       rows come back in value order regardless of jobs or backend. *)
    let compute v =
      let market = fit v in
      Report.cell_f v
      :: List.map
           (fun b ->
             Report.cell_f
               (Sensitivity.capture_at market strategy ~n_bundles:b))
           Experiment.Defaults.bundle_counts
    in
    let map_cells f cells =
      Engine.Pool.with_pool ~backend ~retries ?timeout_s ~jobs (fun pool ->
          Engine.Pool.map_list pool f cells)
    in
    let print_table rows =
      Report.print ppf
        (Report.make
           ~title:(Printf.sprintf "capture on %s while sweeping the parameter" network)
           ~header:("value" :: List.map string_of_int Experiment.Defaults.bundle_counts)
           rows)
    in
    match manifest with
    | None -> print_table (map_cells compute values)
    | Some path ->
        (* The artifact store is the resume source of truth, so the
           disk tier must be on even without --cache. *)
        if Engine.Cache.disk_dir () = None then
          Engine.Cache.enable_disk ?max_bytes:cache_max_bytes ~dir:"_cas" ();
        let artifacts =
          Engine.Cache.create ~name:"sweep-cell" ~schema:"sweep-cell/1" ()
        in
        let param_name =
          match param with `Alpha -> "alpha" | `P0 -> "p0" | `S0 -> "s0"
        in
        let demand_name =
          match demand with `Ced -> "ced" | `Logit -> "logit" | `Linear -> "linear"
        in
        (* Everything that determines a cell's bytes, in one key. *)
        let cell_key v =
          ( "sweep-cell", network, demand_name, s0, Strategy.name strategy,
            param_name, v, Experiment.Defaults.bundle_counts )
        in
        let cells =
          List.mapi
            (fun i v ->
              { Engine.Manifest.index = i;
                name = Printf.sprintf "%s=%.12g" param_name v;
                input_digest = Engine.Cache.key_digest (cell_key v) })
            values
        in
        let m =
          match Engine.Manifest.load_or_create ~path cells with
          | m -> m
          | exception Failure msg ->
              Format.eprintf "sweep: %s@." msg;
              exit 1
        in
        Fun.protect ~finally:(fun () -> Engine.Manifest.close m) @@ fun () ->
        let varr = Array.of_list values in
        let restored =
          Array.map (fun v -> Engine.Cache.disk_get artifacts ~key:(cell_key v))
            varr
        in
        Array.iteri
          (fun i r ->
            match r with
            | Some (_, digest) ->
                Engine.Manifest.record_done m ~index:i ~artifact:digest
            | None -> ())
          restored;
        let missing =
          List.filter_map
            (fun i -> if restored.(i) = None then Some (i, varr.(i)) else None)
            (List.init (Array.length varr) Fun.id)
        in
        let scheduled =
          match chunk with
          | Some k -> List.filteri (fun j _ -> j < k) missing
          | None -> missing
        in
        let computed =
          match scheduled with
          | [] -> []
          | scheduled -> map_cells (fun (_, v) -> compute v) scheduled
        in
        List.iter2
          (fun (i, v) row ->
            match Engine.Cache.disk_put artifacts ~key:(cell_key v) row with
            | Some digest ->
                Engine.Manifest.record_done m ~index:i ~artifact:digest
            | None -> ())
          scheduled computed;
        let n = Array.length varr in
        let n_restored = n - List.length missing in
        let n_computed = List.length scheduled in
        let n_remaining = List.length missing - n_computed in
        Format.eprintf
          "manifest %s: %d cells, %d restored from the store, %d computed, \
           %d remaining@."
          path n n_restored n_computed n_remaining;
        if n_remaining = 0 then begin
          let rows = Array.map (fun r -> Option.map fst r) restored in
          List.iter2 (fun (i, _) row -> rows.(i) <- Some row) scheduled computed;
          print_table (List.filter_map Fun.id (Array.to_list rows))
        end
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep a model parameter and tabulate profit capture.")
    Term.(const run $ network_arg $ demand_arg $ s0_arg $ strategy_arg $ param_arg
          $ backend_arg $ worker_retries_arg $ task_timeout_arg $ jobs_arg
          $ cache_arg $ cache_max_bytes_arg $ manifest_arg $ manifest_chunk_arg)

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
    | `Wire -> Flowgen.Netflow.Wire.write_file out records);
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
        ~clock:(Serve.Clock.of_fn Unix.gettimeofday)
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
             stream: sliding-window demand, incremental re-tiering with \
             warm-started solves, posted tiers identical to from-scratch \
             solves.")
    Term.(const run $ network_arg $ demand_arg $ cost_arg $ theta_arg
          $ alpha_arg $ p0_arg $ s0_arg $ bundles_arg $ days_arg $ seed_arg
          $ bin_arg $ bins_arg $ every_arg $ decay_arg $ half_life_arg
          $ amplitude_arg $ peak_arg $ cold_every_arg $ cache_arg
          $ cache_max_bytes_arg $ json_arg $ from_arg $ shards_arg)

(* --- worker -------------------------------------------------------------------- *)

let worker_cmd =
  let listen_arg =
    Arg.(required & opt (some int) None
         & info [ "listen" ] ~docv:"PORT" ~doc:"TCP port to listen on.")
  in
  let bind_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "bind" ] ~docv:"ADDR"
             ~doc:"Address to listen on. Defaults to loopback; pass an \
                   interface address (or $(b,0.0.0.0)) to accept external \
                   parents — which additionally requires a shared secret \
                   ($(b,--token-file) or $(b,TIERED_WORKER_TOKEN)), because \
                   task frames execute arbitrary code in this daemon. Only \
                   expose workers on trusted, firewalled networks: the \
                   secret authenticates, it does not encrypt.")
  in
  let token_file_arg =
    Arg.(value & opt (some string) None
         & info [ "token-file" ] ~docv:"FILE"
             ~doc:"Read the shared secret (trailing whitespace trimmed) from \
                   $(docv). The parent presents the same secret, taken from \
                   its $(b,TIERED_WORKER_TOKEN) environment variable, before \
                   any task frame is accepted. Defaults to the daemon's own \
                   $(b,TIERED_WORKER_TOKEN).")
  in
  let run port bind token_file =
    if port < 1 || port > 65535 then begin
      Format.eprintf "worker: --listen must be a port in 1..65535@.";
      exit Cmd.Exit.cli_error
    end;
    let token =
      match token_file with
      | None -> (
          match Sys.getenv_opt Engine.Remote.token_env with
          | Some t -> t
          | None -> "")
      | Some f -> (
          match In_channel.with_open_bin f In_channel.input_all with
          | contents -> String.trim contents
          | exception Sys_error msg ->
              Format.eprintf "worker: cannot read --token-file: %s@." msg;
              exit Cmd.Exit.cli_error)
    in
    try Engine.Remote.serve_forever ~bind ~token ~port with
    | Unix.Unix_error (e, _, _) ->
        (* EADDRINUSE from a daemon already on the port is the common
           operator mistake; report it as a CLI error, not a crash. *)
        Format.eprintf "worker: cannot listen on %s:%d: %s@." bind port
          (Unix.error_message e);
        exit Cmd.Exit.cli_error
    | Failure msg | Engine.Remote.Spawn_failure msg ->
        (* Unresolvable --bind, or a non-loopback bind without a
           secret. *)
        Format.eprintf "worker: %s@." msg;
        exit Cmd.Exit.cli_error
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Run a standalone fleet worker daemon: listen for a parent \
             driving $(b,--backend remote --workers host:port,…) and serve \
             its task and artifact frames, one parent connection at a time, \
             forever. In-memory artifact caches stay warm across \
             connections. Listens on loopback unless $(b,--bind) says \
             otherwise; non-loopback binds require a shared secret and a \
             trusted network (task frames execute arbitrary code).")
    Term.(const run $ listen_arg $ bind_arg $ token_file_arg)

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
         tiers_cmd; serve_cmd; worker_cmd ]))
