(* The tier-DP kernel grid: Segdp's certified ladder against exact
   references on the (seg_value, regions) the Optimal strategy runs
   (Strategy.dp_inputs), for eu_isp@N markets under the three demand
   families. Cells up to [max_exact] flows must equal solve_quadratic
   bitwise in cuts and value. Larger cells are too big for the
   quadratic leg: a re-solve into a retained state must equal [solve],
   and 64 sampled columns of every layer are re-checked with exact
   scans. No cell may fall back to the quadratic backstop, the
   "ced-serve" cells included.

   Its own executable so that dune runs it beside test_main, while
   `make test-segdp` stays the fast loop. *)

open Tiered

let max_exact = 4_000
let sizes = [ 1_000; 4_000; 200_000 ]
let bundle_counts = [ 3; 10 ]

let specs =
  [
    ("ced", Market.Ced);
    ("logit", Market.Logit { s0 = Experiment.Defaults.s0 });
    ("linear", Market.Linear { epsilon = 1.8 });
  ]

let check_same what (a : Numerics.Segdp.result) (b : Numerics.Segdp.result) =
  Alcotest.(check (list int)) (what ^ ": cuts") a.Numerics.Segdp.cuts b.Numerics.Segdp.cuts;
  Alcotest.(check bool)
    (what ^ ": value bitwise")
    true
    (Float.equal a.Numerics.Segdp.value b.Numerics.Segdp.value)

let cell inputs b () =
  let n, seg_value, regions = Lazy.force inputs in
  let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
  Alcotest.(check int) "no quadratic-backstop layers" 0
    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
  if n <= max_exact then
    check_same "solve vs solve_quadratic"
      (Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value)
      fast
  else begin
    let from_state, st =
      Numerics.Segdp.solve_with_state ~regions ~n ~n_bundles:b seg_value
    in
    check_same "solve_with_state vs solve" from_state fast;
    Alcotest.(check bool) "64 sampled columns per layer exact" true
      (Numerics.Segdp.verify_columns ~samples:64 st seg_value)
  end

let inputs_of m =
  let _order, seg_value, regions = Strategy.dp_inputs m in
  (Market.n_flows m, seg_value, regions)

(* The serve daemon's re-tier shape: eu_isp at 20000 flows under CED
   with alpha = 2, concave costs (theta = 0.5) and 8 certificate
   samples. In its flat low-cost region (columns below about 1200) the
   accepted SMAWK rows sit 1-5 ulp under the exact rows, at other
   argmaxes, so a certificate column placed there (by the layer count,
   say) would send a layer to the backstop. Hence no [verify_columns]
   here: its draws land in that region. The optimum itself equals
   [solve_quadratic]'s bitwise at both budgets, a check too slow (about
   45 s) for this grid. *)
let serve_cell b () =
  let m =
    Experiment.market ~alpha:2. ~cost_model:(Cost_model.concave ~theta:0.5)
      ~spec:Market.Ced "eu_isp@20000"
  in
  let n, seg_value, regions = inputs_of m in
  let fast = Numerics.Segdp.solve ~samples:8 ~regions ~n ~n_bundles:b seg_value in
  Alcotest.(check int) "no quadratic-backstop layers" 0
    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
  check_same "solve_with_state vs solve"
    (fst
       (Numerics.Segdp.solve_with_state ~samples:8 ~regions ~n ~n_bundles:b
          seg_value))
    fast

let () =
  Alcotest.run "tier-dp-grid"
    (List.map
       (fun (name, spec) ->
         ( name,
           List.concat_map
             (fun n ->
               let inputs =
                 lazy
                   (inputs_of
                      (Experiment.market ~spec (Printf.sprintf "eu_isp@%d" n)))
               in
               List.map
                 (fun b ->
                   Alcotest.test_case (Printf.sprintf "n=%d B=%d" n b) `Quick
                     (cell inputs b))
                 bundle_counts)
             sizes ))
       specs
    @ [
        ( "ced-serve",
          List.map
            (fun b ->
              Alcotest.test_case (Printf.sprintf "n=20000 B=%d samples=8" b)
                `Quick (serve_cell b))
            [ 4; 8 ] );
      ])
