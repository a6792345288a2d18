let capture_at market strategy ~n_bundles =
  let ctx = Capture.context market in
  let bundles = Strategy.apply strategy market ~n_bundles in
  Capture.value ctx (Pricing.evaluate market bundles).Pricing.profit

let envelope ~markets ~strategy ~bundle_counts ~mode =
  if markets = [] then invalid_arg "Sensitivity.envelope: no markets";
  let pick = match mode with `Min -> Float.min | `Max -> Float.max in
  let start = match mode with `Min -> infinity | `Max -> neg_infinity in
  List.fold_left
    (fun acc market ->
      List.map2
        (fun (n_bundles, worst) p -> (n_bundles, pick worst p.Capture.capture))
        acc
        (Capture.series market strategy ~bundle_counts))
    (List.map (fun n_bundles -> (n_bundles, start)) bundle_counts)
    markets

let alpha_range ?(steps = 8) ~lo ~hi () =
  if not (lo > 0. && hi > lo) then invalid_arg "Sensitivity.alpha_range: need 0 < lo < hi";
  if steps < 2 then invalid_arg "Sensitivity.alpha_range: need at least 2 steps";
  let ratio = (hi /. lo) ** (1. /. float_of_int (steps - 1)) in
  List.init steps (fun i -> lo *. (ratio ** float_of_int i))

let linear_range ?(steps = 8) ~lo ~hi () =
  if not (hi > lo) then invalid_arg "Sensitivity.linear_range: need lo < hi";
  if steps < 2 then invalid_arg "Sensitivity.linear_range: need at least 2 steps";
  let step = (hi -. lo) /. float_of_int (steps - 1) in
  List.init steps (fun i -> lo +. (step *. float_of_int i))
