type overhead = {
  fixed : float;
  per_tier : float;
  per_flow : float;
}

let overhead ?(fixed = 0.) ?(per_flow = 0.) ~per_tier () =
  if fixed < 0. || per_tier < 0. || per_flow < 0. then
    invalid_arg "Tier_count.overhead: negative component";
  { fixed; per_tier; per_flow }

let cost o ~n_tiers ~n_flows =
  o.fixed +. (o.per_tier *. float_of_int n_tiers) +. (o.per_flow *. float_of_int n_flows)

type point = {
  n_bundles : int;
  gross_profit : float;
  overhead_cost : float;
  net_profit : float;
}

let gross market bundles = (Pricing.evaluate market bundles).Pricing.profit

let series market strategy o ~max_bundles =
  if max_bundles < 1 then invalid_arg "Tier_count.series: max_bundles < 1";
  let n_flows = Market.n_flows market in
  List.mapi
    (fun i gross_profit ->
      let n_bundles = i + 1 in
      let overhead_cost = cost o ~n_tiers:n_bundles ~n_flows in
      { n_bundles; gross_profit; overhead_cost; net_profit = gross_profit -. overhead_cost })
    (Array.to_list
       (Array.map (gross market) (Strategy.curve strategy market ~max_bundles)))

let optimal market strategy o ~max_bundles =
  match series market strategy o ~max_bundles with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun best p -> if p.net_profit > best.net_profit then p else best)
        first rest

let break_even_overhead market strategy ~from_bundles ~to_bundles =
  if from_bundles < 1 || to_bundles <= from_bundles then
    invalid_arg "Tier_count.break_even_overhead: need 1 <= from < to";
  let curve = Strategy.curve strategy market ~max_bundles:to_bundles in
  let g_from = gross market curve.(from_bundles - 1) in
  let g_to = gross market curve.(to_bundles - 1) in
  (g_to -. g_from) /. float_of_int (to_bundles - from_bundles)
