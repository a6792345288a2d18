(* Two dynamics the paper motivates but does not model, combined:

   1. COMPETITION. Transit prices fall ~30%/year (Section 1). We replay
      that as a Bertrand-logit duopoly where the entrant's unit costs
      fall 30% each year, and watch the incumbent's margin and share.

   2. REPRICING. Between pricing reviews the ISP only sees realized
      demand. If its elasticity estimate is wrong, the quarterly
      re-fit/re-price loop converges to the wrong tariff -- and the
      profit lost to that dwarfs anything tier structure can recover.

   Run with: dune exec examples/price_war.exe *)

open Tiered

let () =
  let market = Experiment.market ~spec:(Market.Logit { s0 = 0.2 }) "eu_isp" in

  (* -- 1. the price war ------------------------------------------------ *)
  Format.printf "== Price war: entrant costs fall 30%%/year ==@.";
  let idx = Array.init 80 (fun i -> i * (Market.n_flows market / 80)) in
  let valuations = Array.map (fun i -> market.Market.valuations.(i)) idx in
  let costs = Array.map (fun i -> market.Market.costs.(i)) idx in
  let incumbent = Competition.firm ~name:"incumbent" ~costs in
  Format.printf "%-8s %-12s %-12s %-12s %s@." "year" "margin A" "margin B" "share A"
    "profit A";
  List.iteri
    (fun year scale ->
      let entrant =
        Competition.firm ~name:"entrant" ~costs:(Array.map (fun c -> c *. scale) costs)
      in
      let eq =
        Competition.nash ~alpha:market.Market.alpha ~k:market.Market.k ~valuations
          [| incumbent; entrant |]
      in
      Format.printf "%-8d $%-11.2f $%-11.2f %-12.2f $%.0f@." year
        eq.Competition.margins.(0) eq.Competition.margins.(1)
        eq.Competition.shares.(0) eq.Competition.profits.(0))
    [ 1.0; 0.7; 0.49; 0.34; 0.24 ];

  (* -- 2. repricing under a wrong elasticity belief --------------------- *)
  Format.printf "@.== Quarterly repricing with a wrong elasticity belief ==@.";
  let truth = Experiment.market ~spec:Market.Ced "eu_isp" in
  List.iter
    (fun believed ->
      let rounds =
        Dynamics.simulate
          {
            Dynamics.truth;
            estimated_alpha = believed;
            strategy = Strategy.Optimal;
            n_bundles = 3;
            rounds = 8;
            damping = 0.7;
          }
      in
      let blended = (List.hd rounds).Dynamics.true_profit in
      let final = List.nth rounds (List.length rounds - 1) in
      Format.printf
        "  believed alpha %.2f (true 1.10): profit settles at %5.1f%% of blended%s@."
        believed
        (100. *. final.Dynamics.true_profit /. blended)
        (if Dynamics.converged ~tol:1e-4 rounds then "" else " (not converged)"))
    [ 1.05; 1.10; 1.50; 2.50; 4.00 ];
  Format.printf
    "@.Moral: get the demand model right before worrying about the fifth tier.@."
