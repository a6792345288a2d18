type context = { original : float; maximum : float }

let context market =
  {
    original = Pricing.original_profit market;
    maximum = Pricing.max_profit market;
  }

let headroom ctx = ctx.maximum -. ctx.original

let value ctx profit =
  let room = headroom ctx in
  if room <= 1e-12 *. (1. +. abs_float ctx.maximum) then
    invalid_arg "Capture.value: market has no profit headroom";
  (profit -. ctx.original) /. room

type point = { n_bundles : int; capture : float; profit : float }

let series ?context:ctx market strategy ~bundle_counts =
  if List.exists (fun b -> b < 1) bundle_counts then
    invalid_arg "Capture.series: bundle count < 1";
  match bundle_counts with
  | [] -> []
  | _ ->
      let ctx = match ctx with Some c -> c | None -> context market in
      let curve =
        Strategy.curve strategy market
          ~max_bundles:(List.fold_left Int.max 1 bundle_counts)
      in
      List.map
        (fun n_bundles ->
          let bundles = curve.(n_bundles - 1) in
          let profit = (Pricing.evaluate market bundles).Pricing.profit in
          { n_bundles; capture = value ctx profit; profit })
        bundle_counts

let pp_point ppf p =
  Format.fprintf ppf "B=%d capture=%.3f profit=%.4g" p.n_bundles p.capture p.profit
