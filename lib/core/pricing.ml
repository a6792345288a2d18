type outcome = {
  bundles : Bundle.t;
  bundle_prices : float array;
  flow_prices : float array;
  flow_demands : float array;
  profit : float;
  revenue : float;
  delivery_cost : float;
  consumer_surplus : float;
}

let welfare o = o.profit +. o.consumer_surplus

type columns = {
  spec : Market.demand_spec;
  alpha : float;
  k : float;
  valuations : float array;
  weights : float array;
  costs : float array;
}

let columns (market : Market.t) =
  let { Market.spec; alpha; k; valuations; costs; _ } = market in
  let weights =
    match spec with
    | Market.Ced -> Market.pow_valuations market
    | Market.Linear _ -> Market.linear_b market
    | Market.Logit _ -> [||]
  in
  { spec; alpha; k; valuations; weights; costs }

let column_count c =
  let n = Array.length c.costs in
  if n = 0 then invalid_arg "Pricing.columns: no flows";
  let weights_fit =
    match c.spec with
    | Market.Logit _ -> true
    | Market.Ced | Market.Linear _ -> Array.length c.weights = n
  in
  if Array.length c.valuations <> n || not weights_fit then
    invalid_arg "Pricing.columns: column length mismatch";
  n

(* Optimal price of each of [count] bundles; bundle [b] holds the flows
   [member b j] for [j < size b]. Every sum runs over a bundle's
   members in that order, so pricing a gathered copy and pricing in
   place give the same bits. *)
let bundle_prices c ~count ~size ~member =
  let { spec; alpha; valuations; weights; costs; _ } = c in
  let sum b f = Numerics.Stats.sum_init (size b) (fun j -> f (member b j)) in
  match spec with
  | Market.Ced ->
      (* Eq. 5 off the memoized [v^alpha]: no power per call, and the
         same sums as [Ced.bundle_price] on the raw valuations. *)
      Ced.check_alpha alpha;
      Array.init count (fun b ->
          alpha
          *. sum b (fun i -> costs.(i) *. weights.(i))
          /. ((alpha -. 1.) *. sum b (fun i -> weights.(i))))
  | Market.Linear _ ->
      Array.init count (fun b ->
          Lin.bundle_price
            ~a_sum:(sum b (fun i -> valuations.(i)))
            ~b_sum:(sum b (fun i -> weights.(i)))
            ~bc_sum:(sum b (fun i -> weights.(i) *. costs.(i))))
  | Market.Logit _ ->
      let gather b col = Array.init (size b) (fun j -> col.(member b j)) in
      let aggregates =
        Array.init count (fun b ->
            Logit.bundle_aggregate ~alpha ~valuations:(gather b valuations)
              ~costs:(gather b costs))
      in
      let { Logit.prices; _ } =
        Logit.optimize ~alpha ~valuations:(Array.map fst aggregates)
          ~costs:(Array.map snd aggregates)
      in
      prices

(* Every flow's demand at its price, and the revenue and delivery cost
   they bring. Each total is one Kahan sum ([Stats.sum_init]) over the
   flows in column order, the same addends as materializing it. *)
let demands_and_totals c flow_prices =
  let { spec; alpha; k; valuations; weights; costs } = c in
  let n = Array.length flow_prices in
  let flow_demands =
    match spec with
    | Market.Ced ->
        Array.init n (fun i -> Ced.demand ~alpha ~v:valuations.(i) flow_prices.(i))
    | Market.Linear _ ->
        Array.init n (fun i ->
            Lin.demand ~a:valuations.(i) ~b:weights.(i) flow_prices.(i))
    | Market.Logit _ -> Logit.demands_at ~alpha ~k ~valuations ~prices:flow_prices
  in
  let revenue =
    Numerics.Stats.sum_init n (fun i -> flow_prices.(i) *. flow_demands.(i))
  in
  let delivery_cost =
    Numerics.Stats.sum_init n (fun i -> costs.(i) *. flow_demands.(i))
  in
  (flow_demands, revenue, delivery_cost)

let contiguous c ~cuts =
  let n = column_count c in
  let bounds = Array.of_list ((0 :: cuts) @ [ n ]) in
  let count = Array.length bounds - 1 in
  for b = 0 to count - 1 do
    if bounds.(b + 1) <= bounds.(b) then
      invalid_arg "Pricing.contiguous: cuts must be strictly increasing in [1, n-1]"
  done;
  let prices =
    bundle_prices c ~count
      ~size:(fun b -> bounds.(b + 1) - bounds.(b))
      ~member:(fun b j -> bounds.(b) + j)
  in
  let flow_prices = Array.make n 0. in
  for b = 0 to count - 1 do
    Array.fill flow_prices bounds.(b) (bounds.(b + 1) - bounds.(b)) prices.(b)
  done;
  let _, revenue, delivery_cost = demands_and_totals c flow_prices in
  (prices, revenue -. delivery_cost)

(* An outcome at the given bundle prices: the profit terms of
   [demands_and_totals] plus the consumer surplus. *)
let outcome_at market bundles bundle_prices =
  let ({ spec; alpha; k; valuations; weights; _ } as c) = columns market in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows market) in
  let flow_prices = Array.map (fun b -> bundle_prices.(b)) owner in
  let n = Array.length flow_prices in
  let flow_demands, revenue, delivery_cost = demands_and_totals c flow_prices in
  let consumer_surplus =
    match spec with
    | Market.Ced ->
        Numerics.Stats.sum_init n (fun i ->
            Ced.consumer_surplus ~alpha ~v:valuations.(i) flow_prices.(i))
    | Market.Linear _ ->
        Numerics.Stats.sum_init n (fun i ->
            Lin.consumer_surplus ~a:valuations.(i) ~b:weights.(i) flow_prices.(i))
    | Market.Logit _ -> Logit.consumer_surplus ~alpha ~k ~valuations ~prices:flow_prices
  in
  {
    bundles;
    bundle_prices;
    flow_prices;
    flow_demands;
    profit = revenue -. delivery_cost;
    revenue;
    delivery_cost;
    consumer_surplus;
  }

let optimal_bundle_prices market (bundles : Bundle.t) =
  let groups = (bundles :> int array array) in
  bundle_prices (columns market) ~count:(Array.length groups)
    ~size:(fun b -> Array.length groups.(b))
    ~member:(fun b j -> groups.(b).(j))

let evaluate market bundles =
  outcome_at market bundles (optimal_bundle_prices market bundles)

let evaluate_at_prices market bundles prices =
  if Array.length prices <> Bundle.count bundles then
    invalid_arg "Pricing.evaluate_at_prices: one price per bundle required";
  outcome_at market bundles prices

let blended market = evaluate market (Bundle.all_in_one ~n_flows:(Market.n_flows market))

let max_profit market =
  let { Market.alpha; valuations; costs; k; spec; _ } = market in
  match spec with
  | Market.Ced | Market.Linear _ ->
      (* Exactly the per-flow potential-profit array the strategies use;
         share the market's memoized copy instead of recomputing it. *)
      Numerics.Stats.sum (Market.potential_profits market)
  | Market.Logit _ ->
      let { Logit.profit_per_k; _ } = Logit.optimize ~alpha ~valuations ~costs in
      k *. profit_per_k

let original_profit market = (blended market).profit
