module Defaults = struct
  let alpha = 1.1
  let p0 = 20.
  let theta = 0.2
  let s0 = 0.2
  let bundle_counts = [ 1; 2; 3; 4; 5; 6 ]
  let networks = [ "eu_isp"; "internet2"; "cdn" ]
end

(* --- cell-level plans ---------------------------------------------------- *)

(* Grid-shaped experiments (strategy sweeps over networks × bundle
   counts, theta tables, sensitivity envelopes) expose their internal
   grid as a list of independent cells plus a pure [assemble] that folds
   the cell outputs back into the experiment's report list. The runner
   schedules *cells* on the domain pool, so one slow figure no longer
   pins a whole domain; because cells are listed and assembled in
   submission order, the output stays byte-identical at any job count.
   Scalar experiments fall back to a single cell wrapping their whole
   computation. *)

type cell_output =
  | Rows of string list list
      (** Rows contributed to the experiment's tables, in grid order. *)
  | Tables of Report.t list  (** A whole-experiment (scalar) result. *)

type cell = { label : string; compute : unit -> cell_output }

type t = {
  id : string;
  description : string;
  cells : unit -> cell list;
  assemble : cell_output list -> Report.t list;
}

let rows_of = function
  | Rows rows -> rows
  | Tables _ -> invalid_arg "Experiment: expected a Rows cell output"

let run_cells t = t.assemble (List.map (fun c -> c.compute ()) (t.cells ()))

let scalar ~id ~description run =
  {
    id;
    description;
    cells = (fun () -> [ { label = id; compute = (fun () -> Tables (run ())) } ]);
    assemble =
      (function
      | [ Tables tables ] -> tables
      | _ -> invalid_arg (id ^ ": scalar experiments assemble one Tables cell"));
  }

let chunk n xs =
  if n <= 0 then invalid_arg "Experiment.chunk";
  let rec take k xs =
    match (k, xs) with
    | 0, rest -> ([], rest)
    | _, [] -> ([], [])
    | k, x :: rest ->
        let h, t = take (k - 1) rest in
        (x :: h, t)
  in
  let rec go = function
    | [] -> []
    | xs ->
        let h, t = take n xs in
        h :: go t
  in
  go xs

(* --- shared infrastructure --------------------------------------------- *)

(* Expensive intermediate artifacts are memoized in the engine's keyed
   cache (domain-safe, optional disk tier): calibrated workloads,
   per-network flow arrays, fitted markets and capture contexts. Keys
   are structural — whatever parameters the artifact depends on — so a
   sweep only pays for the cells it has not seen. Schema stamps guard
   the disk tier: bump them when the corresponding type's
   representation changes. *)

let workload_cache : Flowgen.Workload.t Engine.Cache.t =
  Engine.Cache.create ~name:"workload" ~schema:"workload/1" ()

let dataset_cache : Flow.t array Engine.Cache.t =
  Engine.Cache.create ~name:"dataset" ~schema:"dataset/1" ()

let market_cache : Market.t Engine.Cache.t =
  (* market/2: Market.t grew the lazily-filled memo field. *)
  Engine.Cache.create ~name:"market" ~schema:"market/2" ()

let context_cache : Capture.context Engine.Cache.t =
  Engine.Cache.create ~name:"context" ~schema:"context/1" ()

let series_cache : Capture.point list Engine.Cache.t =
  Engine.Cache.create ~name:"series" ~schema:"series/1" ()

let workload name =
  Engine.Cache.find_or_add workload_cache ~key:("workload", name) (fun () ->
      Flowgen.Workload.preset name)

let dataset name =
  Engine.Cache.find_or_add dataset_cache ~key:("dataset", name) (fun () ->
      Dataset.of_workload (workload name))

let market ?(alpha = Defaults.alpha) ?(p0 = Defaults.p0)
    ?(cost_model = Cost_model.linear ~theta:Defaults.theta) ~spec name =
  Engine.Cache.find_or_add market_cache
    ~key:("market", name, alpha, p0, cost_model, spec)
    (fun () -> Market.fit ~spec ~alpha ~p0 ~cost_model (dataset name))

let context ?(alpha = Defaults.alpha) ?(p0 = Defaults.p0)
    ?(cost_model = Cost_model.linear ~theta:Defaults.theta) ~spec name =
  Engine.Cache.find_or_add context_cache
    ~key:("context", name, alpha, p0, cost_model, spec)
    (fun () -> Capture.context (market ~alpha ~p0 ~cost_model ~spec name))

let series ?(alpha = Defaults.alpha) ?(p0 = Defaults.p0)
    ?(cost_model = Cost_model.linear ~theta:Defaults.theta) ~spec ~strategy
    ~bundle_counts name =
  Engine.Cache.find_or_add series_cache
    ~key:
      ( "series", name, alpha, p0, cost_model, spec, Strategy.name strategy,
        bundle_counts )
    (fun () ->
      Capture.series
        ~context:(context ~alpha ~p0 ~cost_model ~spec name)
        (market ~alpha ~p0 ~cost_model ~spec name)
        strategy ~bundle_counts)

(* The point of a series at one bundle count. *)
let point_at points b =
  List.find (fun (p : Capture.point) -> p.Capture.n_bundles = b) points

let spec_name = Market.demand_spec_name
let logit_spec = Market.Logit { s0 = Defaults.s0 }

let int_cell = string_of_int

(* --- Table 1 ------------------------------------------------------------ *)

let table1_row name =
  let target = Flowgen.Workload.table1_targets name in
  let s = Flowgen.Workload.stats (workload name) in
  [
    name;
    Printf.sprintf "%.0f / %.0f" s.w_avg_distance_miles target.t_w_avg_distance;
    Printf.sprintf "%.2f / %.2f" s.cv_distance target.t_cv_distance;
    Printf.sprintf "%.1f / %.1f" s.aggregate_gbps target.t_aggregate_gbps;
    Printf.sprintf "%.2f / %.2f" s.cv_demand target.t_cv_demand;
  ]

let table1_table rows =
  Report.make ~title:"Table 1: data sets (measured / paper)"
    ~header:
      [ "network"; "w-avg dist (mi)"; "CV dist"; "aggregate (Gbps)"; "CV demand" ]
    rows
    ~notes:
      [
        "synthetic workloads calibrated to the paper's Table 1; see \
         Flowgen.Workload";
      ]

let table1 =
  {
    id = "table1";
    description = "data-set statistics vs paper targets";
    cells =
      (fun () ->
        List.map
          (fun name ->
            { label = name; compute = (fun () -> Rows [ table1_row name ]) })
          Defaults.networks);
    assemble = (fun outputs -> [ table1_table (List.concat_map rows_of outputs) ]);
  }

(* --- Figure 1: blended vs tiered toy market ----------------------------- *)

let fig1_market () =
  let flows =
    [|
      Flow.make ~id:0 ~demand_mbps:1. ~distance_miles:200. ();
      Flow.make ~id:1 ~demand_mbps:2. ~distance_miles:50. ();
    |]
  in
  Market.of_parameters ~spec:Market.Ced ~alpha:2.0 ~valuations:[| 1.7; 2.1 |]
    ~costs:[| 1.0; 0.5 |] flows

let run_fig1 () =
  let market = fig1_market () in
  let blended = Pricing.blended market in
  let tiered = Pricing.evaluate market (Bundle.singletons ~n_flows:2) in
  let row label (o : Pricing.outcome) =
    [
      label;
      String.concat " "
        (Array.to_list (Array.map (fun p -> Printf.sprintf "$%.2f" p) o.bundle_prices));
      Report.cell_f o.profit;
      Report.cell_f o.consumer_surplus;
      Report.cell_f (Pricing.welfare o);
    ]
  in
  [
    Report.make ~title:"Figure 1: market efficiency loss due to coarse bundling"
      ~header:[ "pricing"; "prices"; "ISP profit"; "consumer surplus"; "welfare" ]
      [ row "blended rate" blended; row "two tiers" tiered ]
      ~notes:
        [
          "two CED flows, costs $1.0 and $0.5; tiered pricing should raise \
           both profit and surplus";
        ];
  ]

(* --- Figures 3-5: demand model shapes ----------------------------------- *)

let run_fig3 () =
  let prices = Sensitivity.linear_range ~steps:16 ~lo:0.25 ~hi:4.0 () in
  let rows =
    List.map
      (fun p ->
        [
          Report.cell_f p;
          Report.cell_f (Ced.demand ~alpha:1.4 ~v:1. p);
          Report.cell_f (Ced.demand ~alpha:3.3 ~v:1. p);
        ])
      prices
  in
  [
    Report.make ~title:"Figure 3: feasible CED demand functions (v = 1)"
      ~header:[ "price"; "Q alpha=1.4"; "Q alpha=3.3" ]
      rows;
  ]

let run_fig4 () =
  let prices = Sensitivity.linear_range ~steps:25 ~lo:1.05 ~hi:7.0 () in
  let rows =
    List.map
      (fun p ->
        [
          Report.cell_f p;
          Report.cell_f (Ced.flow_profit ~alpha:2. ~v:1. ~c:1. p);
          Report.cell_f (Ced.flow_profit ~alpha:2. ~v:1. ~c:2. p);
        ])
      prices
  in
  let p1 = Ced.optimal_price ~alpha:2. ~c:1. in
  let p2 = Ced.optimal_price ~alpha:2. ~c:2. in
  [
    Report.make
      ~title:"Figure 4: profit for two flows with identical demand, different cost"
      ~header:[ "price"; "profit c=1"; "profit c=2" ]
      rows
      ~notes:
        [
          Printf.sprintf "optimal prices: p1* = %.2f, p2* = %.2f (Eq. 4)" p1 p2;
        ];
  ]

let run_fig5 () =
  let valuations = [| 1.6; 1.0 |] in
  let p2s = Sensitivity.linear_range ~steps:17 ~lo:0.0 ~hi:4.0 () in
  let q alpha p2 =
    let s, _ = Logit.shares ~alpha ~valuations ~prices:[| 1.0; p2 |] in
    s.(1)
  in
  let rows =
    List.map
      (fun p2 ->
        [ Report.cell_f p2; Report.cell_f (q 1. p2); Report.cell_f (q 2. p2) ])
      p2s
  in
  [
    Report.make
      ~title:"Figure 5: logit demand for flow 2 (v = [1.6; 1.0], p1 = 1, K = 1)"
      ~header:[ "price p2"; "Q alpha=1"; "Q alpha=2" ]
      rows;
  ]

(* --- Figure 6: concave distance-to-cost fit ------------------------------ *)

let run_fig6 () =
  (* The paper's fitted curves; we sample them with noise and recover the
     parameters, standing in for the unavailable ITU/NTT price sheets. *)
  let sources =
    [ ("ITU", 0.43, 9.43, 0.99); ("NTT", 0.03, 1.12, 1.01) ]
  in
  let rng = Numerics.Rng.create 66 in
  let rows =
    List.map
      (fun (label, a, b, c) ->
        let truth = Numerics.Fit.of_base { Numerics.Fit.a; b; c } in
        let xs =
          Array.init 40 (fun i -> 0.02 +. (0.98 *. float_of_int i /. 39.))
        in
        let ys =
          Array.map
            (fun x ->
              Numerics.Fit.log_curve_eval truth x
              +. Numerics.Dist.normal rng ~mean:0. ~stddev:0.02)
            xs
        in
        let fitted = Numerics.Fit.log_linear ~xs ~ys in
        let back = Numerics.Fit.to_base fitted ~base:b in
        [
          label;
          Printf.sprintf "a=%.2f b=%.2f c=%.2f" a b c;
          Printf.sprintf "a=%.2f b=%.2f c=%.2f" back.Numerics.Fit.a
            back.Numerics.Fit.b back.Numerics.Fit.c;
          Report.cell_f fitted.Numerics.Fit.r2;
        ])
      sources
  in
  [
    Report.make ~title:"Figure 6: concave distance-to-price fit (y = a log_b x + c)"
      ~header:[ "source"; "paper fit"; "recovered fit"; "R^2" ]
      rows
      ~notes:
        [
          "samples drawn from the paper's published curves + Gaussian noise; \
           the base b is fixed during recovery (a log_b x is \
           over-parameterized)";
        ];
  ]

(* --- Figures 8-9: bundling strategies ----------------------------------- *)

let strategy_columns = function
  | Market.Ced | Market.Linear _ ->
      [
        Strategy.Optimal; Strategy.Cost_weighted; Strategy.Profit_weighted;
        Strategy.Demand_weighted; Strategy.Cost_division; Strategy.Index_division;
      ]
  | Market.Logit _ ->
      (* Demand weighting coincides with profit weighting under logit
         (Eq. 13), as in the paper's Figure 9. *)
      [
        Strategy.Optimal; Strategy.Cost_weighted; Strategy.Profit_weighted;
        Strategy.Cost_division; Strategy.Index_division;
      ]

let capture_row ?alpha ?p0 ~spec ~bundle_counts network b =
  int_cell b
  :: List.map
       (fun strategy ->
         let points = series ?alpha ?p0 ~spec ~strategy ~bundle_counts network in
         Report.cell_f (point_at points b).Capture.capture)
       (strategy_columns spec)

let capture_header ~spec = "bundles" :: List.map Strategy.name (strategy_columns spec)

let capture_experiment ?alpha ?p0 ~id ~description ~title_of ~spec ~networks
    ~bundle_counts () =
  let cells () =
    List.concat_map
      (fun network ->
        List.map
          (fun b ->
            {
              label = Printf.sprintf "%s/b=%d" network b;
              compute =
                (fun () ->
                  Rows [ capture_row ?alpha ?p0 ~spec ~bundle_counts network b ]);
            })
          bundle_counts)
      networks
  in
  let assemble outputs =
    let per_network =
      chunk (List.length bundle_counts) (List.concat_map rows_of outputs)
    in
    List.map2
      (fun network rows ->
        Report.make ~title:(title_of network) ~header:(capture_header ~spec) rows)
      networks per_network
  in
  { id; description; cells; assemble }

let fig8 =
  capture_experiment ~id:"fig8" ~description:"bundling strategies, CED demand"
    ~title_of:
      (Printf.sprintf "Figure 8 (%s): profit capture, CED demand")
    ~spec:Market.Ced ~networks:Defaults.networks
    ~bundle_counts:Defaults.bundle_counts ()

let fig9 =
  capture_experiment ~id:"fig9" ~description:"bundling strategies, logit demand"
    ~title_of:
      (Printf.sprintf "Figure 9 (%s): profit capture, logit demand")
    ~spec:logit_spec ~networks:Defaults.networks
    ~bundle_counts:Defaults.bundle_counts ()

(* --- Figures 10-13: cost models ------------------------------------------ *)

(* Normalized profit increase: (pi(B, theta) - pi_orig(theta)) divided by
   the largest headroom across the theta settings, so settings with less
   cost variability visibly plateau lower (the paper's normalization). *)
let theta_row ~spec ~strategy ~cost_of_theta ~thetas network b =
  let contexts =
    List.map
      (fun th ->
        let cost_model = cost_of_theta th in
        ( context ~spec ~cost_model network,
          series ~spec ~cost_model ~strategy
            ~bundle_counts:Defaults.bundle_counts network ))
      thetas
  in
  let max_headroom =
    List.fold_left (fun acc (ctx, _) -> Float.max acc (Capture.headroom ctx)) 0.
      contexts
  in
  int_cell b
  :: List.map
       (fun (ctx, points) ->
         let profit = (point_at points b).Capture.profit in
         Report.cell_f ((profit -. ctx.Capture.original) /. max_headroom))
       contexts

let theta_header ~thetas =
  "bundles" :: List.map (fun th -> Printf.sprintf "theta=%g" th) thetas

let theta_notes = [ "normalized to the largest profit headroom across theta settings" ]

let cost_model_experiment ~id ~description ~figure ~model_name ~cost_of_theta
    ~thetas ~strategy =
  let specs = [ Market.Ced; logit_spec ] in
  let network = "eu_isp" in
  let title spec =
    Printf.sprintf "Figure %s (EU ISP, %s demand): %s cost model" figure
      (spec_name spec) model_name
  in
  let cells () =
    List.concat_map
      (fun spec ->
        List.map
          (fun b ->
            {
              label = Printf.sprintf "%s/b=%d" (spec_name spec) b;
              compute =
                (fun () ->
                  Rows [ theta_row ~spec ~strategy ~cost_of_theta ~thetas network b ]);
            })
          Defaults.bundle_counts)
      specs
  in
  let assemble outputs =
    let per_spec =
      chunk (List.length Defaults.bundle_counts) (List.concat_map rows_of outputs)
    in
    List.map2
      (fun spec rows ->
        Report.make ~title:(title spec) ~header:(theta_header ~thetas) rows
          ~notes:theta_notes)
      specs per_spec
  in
  { id; description; cells; assemble }

let fig10 =
  cost_model_experiment ~id:"fig10" ~description:"linear cost model sensitivity"
    ~figure:"10" ~model_name:"linear"
    ~cost_of_theta:(fun theta -> Cost_model.linear ~theta)
    ~thetas:[ 0.1; 0.2; 0.3 ] ~strategy:Strategy.Profit_weighted

let fig11 =
  cost_model_experiment ~id:"fig11" ~description:"concave cost model sensitivity"
    ~figure:"11" ~model_name:"concave"
    ~cost_of_theta:(fun theta -> Cost_model.concave ~theta)
    ~thetas:[ 0.1; 0.2; 0.3 ] ~strategy:Strategy.Profit_weighted

let fig12 =
  cost_model_experiment ~id:"fig12" ~description:"regional cost model sensitivity"
    ~figure:"12" ~model_name:"regional"
    ~cost_of_theta:(fun theta -> Cost_model.regional ~theta)
    ~thetas:[ 1.0; 1.1; 1.2 ] ~strategy:Strategy.Profit_weighted

let fig13 =
  cost_model_experiment ~id:"fig13"
    ~description:"destination-type cost model sensitivity" ~figure:"13"
    ~model_name:"destination-type"
    ~cost_of_theta:(fun theta -> Cost_model.destination_type ~theta)
    ~thetas:[ 0.05; 0.1; 0.15 ] ~strategy:Strategy.Profit_weighted_classes

(* --- Figures 14-16: parameter sweeps ------------------------------------- *)

let sweep_column ~mode ~markets_of_network spec network =
  let markets = markets_of_network spec network in
  Sensitivity.envelope ~markets ~strategy:Strategy.Profit_weighted
    ~bundle_counts:Defaults.bundle_counts ~mode

let sweep_experiment ~id ~description ~title ~mode ~markets_of_network specs =
  let spec_title spec = Printf.sprintf "%s (%s demand)" title (spec_name spec) in
  let header = "bundles" :: Defaults.networks in
  let cells () =
    List.concat_map
      (fun spec ->
        List.map
          (fun network ->
            {
              label = Printf.sprintf "%s/%s" (spec_name spec) network;
              compute =
                (fun () ->
                  Rows
                    (List.map
                       (fun (_, v) -> [ Report.cell_f v ])
                       (sweep_column ~mode ~markets_of_network spec network)));
            })
          Defaults.networks)
      specs
  in
  let assemble outputs =
    (* One output per (spec, network): a column of single-cell rows,
       transposed back into bundle-count rows. *)
    let columns = List.map (fun o -> List.map List.hd (rows_of o)) outputs in
    let per_spec = chunk (List.length Defaults.networks) columns in
    List.map2
      (fun spec cols ->
        let rows =
          List.mapi
            (fun i b -> int_cell b :: List.map (fun col -> List.nth col i) cols)
            Defaults.bundle_counts
        in
        Report.make ~title:(spec_title spec) ~header rows)
      specs per_spec
  in
  { id; description; cells; assemble }

let fig14 =
  let alphas = Sensitivity.alpha_range ~steps:6 ~lo:1.1 ~hi:10. () in
  sweep_experiment ~id:"fig14" ~description:"robustness to price sensitivity alpha"
    ~title:"Figure 14: minimum profit capture over alpha in [1.1, 10]" ~mode:`Min
    ~markets_of_network:(fun spec network ->
      List.map (fun alpha -> market ~alpha ~spec network) alphas)
    [ Market.Ced; logit_spec ]

let fig15 =
  let p0s = Sensitivity.linear_range ~steps:6 ~lo:5. ~hi:30. () in
  sweep_experiment ~id:"fig15" ~description:"robustness to blended rate P0"
    ~title:"Figure 15: minimum profit capture over P0 in [5, 30]" ~mode:`Min
    ~markets_of_network:(fun spec network ->
      List.map (fun p0 -> market ~p0 ~spec network) p0s)
    [ Market.Ced; logit_spec ]

let fig16 =
  (* s0 below 1/(alpha p0) would imply negative costs; start above it. *)
  let s0s = Sensitivity.linear_range ~steps:6 ~lo:0.06 ~hi:0.9 () in
  sweep_experiment ~id:"fig16" ~description:"robustness to non-participation s0"
    ~title:"Figure 16: maximum profit capture over s0 in (0, 0.9]" ~mode:`Max
    ~markets_of_network:(fun _ network ->
      List.map (fun s0 -> market ~spec:(Market.Logit { s0 }) network) s0s)
    [ logit_spec ]

(* --- registry ------------------------------------------------------------ *)

let all =
  [
    table1;
    scalar ~id:"fig1" ~description:"blended vs tiered toy market" run_fig1;
    scalar ~id:"fig3" ~description:"feasible CED demand functions" run_fig3;
    scalar ~id:"fig4" ~description:"per-flow profit maximization" run_fig4;
    scalar ~id:"fig5" ~description:"logit demand functions" run_fig5;
    scalar ~id:"fig6" ~description:"concave distance-to-cost fit" run_fig6;
    fig8;
    fig9;
    fig10;
    fig11;
    fig12;
    fig13;
    fig14;
    fig15;
    fig16;
  ]

let ids () = List.map (fun e -> e.id) all

let find id =
  match List.find_opt (fun e -> String.equal e.id id) all with
  | Some e -> e
  | None -> raise Not_found
