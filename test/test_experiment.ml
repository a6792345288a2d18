open Tiered

let test_registry_ids () =
  let ids = Experiment.ids () in
  List.iter
    (fun id ->
      if not (List.mem id ids) then Alcotest.failf "missing experiment %s" id)
    [
      "table1"; "fig1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16";
    ];
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Experiment.find "fig99"))

let test_defaults_match_paper () =
  Alcotest.(check (float 0.)) "alpha" 1.1 Experiment.Defaults.alpha;
  Alcotest.(check (float 0.)) "p0" 20. Experiment.Defaults.p0;
  Alcotest.(check (float 0.)) "theta" 0.2 Experiment.Defaults.theta;
  Alcotest.(check (float 0.)) "s0" 0.2 Experiment.Defaults.s0;
  Alcotest.(check (list int)) "bundles" [ 1; 2; 3; 4; 5; 6 ] Experiment.Defaults.bundle_counts

let test_workload_memoized () =
  let a = Experiment.workload "eu_isp" in
  let b = Experiment.workload "eu_isp" in
  Alcotest.(check bool) "same instance" true (a == b)

let test_market_defaults () =
  let m = Experiment.market ~spec:Market.Ced "internet2" in
  Alcotest.(check (float 0.)) "alpha" 1.1 m.Market.alpha;
  Alcotest.(check (float 0.)) "p0" 20. m.Market.p0;
  Alcotest.(check int) "flows" 400 (Market.n_flows m)

let float_of_cell cell =
  match float_of_string_opt cell with
  | Some f -> f
  | None -> Alcotest.failf "cell %S is not numeric" cell

let run id = Experiment.run_cells (Experiment.find id)

let test_fig1_improves_profit_and_welfare () =
  match run "fig1" with
  | [ t ] -> (
      match t.Report.rows with
      | [ [ _; _; profit_b; surplus_b; _ ]; [ _; _; profit_t; surplus_t; _ ] ] ->
          Alcotest.(check bool) "profit up" true
            (float_of_cell profit_t > float_of_cell profit_b);
          Alcotest.(check bool) "surplus up" true
            (float_of_cell surplus_t > float_of_cell surplus_b)
      | _ -> Alcotest.fail "unexpected fig1 rows")
  | _ -> Alcotest.fail "fig1 should be one table"

let test_fig3_demand_monotone () =
  match run "fig3" with
  | [ t ] ->
      let rows = List.map (List.map float_of_cell) t.Report.rows in
      let rec monotone = function
        | [ _; _; q1 ] :: ([ _; _; q2 ] :: _ as rest) ->
            Alcotest.(check bool) "falling demand" true (q2 <= q1);
            monotone rest
        | _ -> ()
      in
      monotone rows
  | _ -> Alcotest.fail "fig3 should be one table"

let test_fig4_peak_at_optimal_prices () =
  match run "fig4" with
  | [ t ] ->
      let rows = List.map (List.map float_of_cell) t.Report.rows in
      let best_price column =
        List.fold_left
          (fun (bp, bv) row ->
            let p = List.nth row 0 and v = List.nth row column in
            if v > bv then (p, v) else (bp, bv))
          (0., neg_infinity) rows
      in
      let p1, _ = best_price 1 and p2, _ = best_price 2 in
      (* Optima at 2 and 4 within grid resolution. *)
      Alcotest.(check bool) "c=1 peak near 2" true (abs_float (p1 -. 2.) < 0.3);
      Alcotest.(check bool) "c=2 peak near 4" true (abs_float (p2 -. 4.) < 0.3)
  | _ -> Alcotest.fail "fig4 should be one table"

let test_fig6_recovers_curves () =
  match run "fig6" with
  | [ t ] ->
      List.iter
        (fun row ->
          match row with
          | [ _; _; _; r2 ] ->
              Alcotest.(check bool) "good fit" true (float_of_cell r2 > 0.9)
          | _ -> Alcotest.fail "unexpected fig6 row")
        t.Report.rows
  | _ -> Alcotest.fail "fig6 should be one table"

let test_fig8_shape () =
  let tables = run "fig8" in
  Alcotest.(check int) "three networks" 3 (List.length tables);
  List.iter
    (fun t ->
      (* Column 1 is the optimal strategy; the B=4 row must capture most
         of the headroom (the paper's 90-95% claim). *)
      let row4 = List.nth t.Report.rows 3 in
      let optimal_capture = float_of_cell (List.nth row4 1) in
      Alcotest.(check bool)
        (t.Report.title ^ " optimal B=4 >= 0.85")
        true (optimal_capture >= 0.85))
    tables

let test_fig9_logit_saturates_fast () =
  let tables = run "fig9" in
  List.iter
    (fun t ->
      let row3 = List.nth t.Report.rows 2 in
      let optimal_capture = float_of_cell (List.nth row3 1) in
      Alcotest.(check bool)
        (t.Report.title ^ " optimal B=3 >= 0.9")
        true (optimal_capture >= 0.9))
    tables

let test_fig10_theta_orders_profit () =
  (* Larger base cost (theta) lowers the attainable normalized profit. *)
  match run "fig10" with
  | [ ced; _logit ] ->
      let last_row = List.nth ced.Report.rows 5 in
      let at i = float_of_cell (List.nth last_row i) in
      Alcotest.(check bool) "theta=0.1 >= theta=0.2" true (at 1 >= at 2);
      Alcotest.(check bool) "theta=0.2 >= theta=0.3" true (at 2 >= at 3)
  | _ -> Alcotest.fail "fig10 should be two tables"

let test_fig12_theta_orders_reversed () =
  (* Regional model: higher theta means more cost variation and more
     normalized profit. *)
  match run "fig12" with
  | [ ced; _ ] ->
      let last_row = List.nth ced.Report.rows 5 in
      let at i = float_of_cell (List.nth last_row i) in
      (* Columns: theta=1.0, 1.1, 1.2. *)
      Alcotest.(check bool) "theta=1.2 >= theta=1.0" true (at 3 >= at 1)
  | _ -> Alcotest.fail "fig12 should be two tables"

let test_all_experiments_produce_tables () =
  List.iter
    (fun e ->
      let tables = Experiment.run_cells e in
      if tables = [] then Alcotest.failf "%s produced no tables" e.Experiment.id;
      List.iter
        (fun t -> if t.Report.rows = [] then Alcotest.failf "%s has an empty table" e.Experiment.id)
        tables)
    Experiment.all

let suite =
  [
    Alcotest.test_case "registry ids" `Quick test_registry_ids;
    Alcotest.test_case "defaults match paper" `Quick test_defaults_match_paper;
    Alcotest.test_case "workload memoized" `Quick test_workload_memoized;
    Alcotest.test_case "market defaults" `Quick test_market_defaults;
    Alcotest.test_case "fig1 improves profit+welfare" `Quick test_fig1_improves_profit_and_welfare;
    Alcotest.test_case "fig3 monotone demand" `Quick test_fig3_demand_monotone;
    Alcotest.test_case "fig4 profit peaks" `Quick test_fig4_peak_at_optimal_prices;
    Alcotest.test_case "fig6 curve recovery" `Quick test_fig6_recovers_curves;
    Alcotest.test_case "fig8 headline shape" `Slow test_fig8_shape;
    Alcotest.test_case "fig9 logit saturation" `Slow test_fig9_logit_saturates_fast;
    Alcotest.test_case "fig10 theta ordering" `Slow test_fig10_theta_orders_profit;
    Alcotest.test_case "fig12 theta ordering" `Slow test_fig12_theta_orders_reversed;
    Alcotest.test_case "all experiments run" `Slow test_all_experiments_produce_tables;
  ]
