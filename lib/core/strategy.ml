type t =
  | Optimal
  | Demand_weighted
  | Cost_weighted
  | Profit_weighted
  | Profit_weighted_classes
  | Cost_division
  | Index_division

let all =
  [
    Optimal; Demand_weighted; Cost_weighted; Profit_weighted;
    Profit_weighted_classes; Cost_division; Index_division;
  ]

let name = function
  | Optimal -> "optimal"
  | Demand_weighted -> "demand-weighted"
  | Cost_weighted -> "cost-weighted"
  | Profit_weighted -> "profit-weighted"
  | Profit_weighted_classes -> "profit-weighted-classes"
  | Cost_division -> "cost-division"
  | Index_division -> "index-division"

let of_name s =
  match List.find_opt (fun t -> String.equal (name t) s) all with
  | Some t -> t
  | None -> invalid_arg ("Strategy.of_name: unknown strategy " ^ s)

(* Indices [0, n) sorted by a per-flow key, decreasing. Ties break by
   index for determinism. Monomorphic comparisons: the keys are floats
   (Float.compare totally orders NaN exactly like the polymorphic
   compare did, so this is behavior-preserving). The index tie-break
   makes the sorted order unique, so a key already in that order — the
   streaming re-tier hands over cost-sorted markets — returns the
   identity after one O(n) scan instead of a sort. *)
let order_by_desc (key : float array) n =
  let idx = Array.init n Fun.id in
  let sorted = ref true and k = ref 1 in
  while !sorted && !k < n do
    sorted := Float.compare key.(!k - 1) key.(!k) >= 0;
    incr k
  done;
  if not !sorted then
    Array.sort
      (fun i j ->
        match Float.compare key.(j) key.(i) with 0 -> Int.compare i j | c -> c)
      idx;
  idx

let token_bucket ~weights ~order ~n_bundles =
  let n = Array.length order in
  if n_bundles < 1 then invalid_arg "Strategy.token_bucket: n_bundles < 1";
  if Array.length weights <> n then
    invalid_arg "Strategy.token_bucket: weights/order length mismatch";
  let total = Numerics.Stats.sum (Array.map (fun i -> weights.(i)) order) in
  let budget = total /. float_of_int n_bundles in
  let budgets = Array.make n_bundles budget in
  let members = Array.make n_bundles [] in
  let current = ref 0 in
  Array.iter
    (fun i ->
      (* Move to the first bundle that is empty or still has budget;
         never move past the last bundle. *)
      while
        !current < n_bundles - 1
        && members.(!current) <> []
        && budgets.(!current) <= 0.
      do
        (* Overdraft carries into the next bundle (the paper's
           t_{j+1} += t_j rule). *)
        if budgets.(!current) < 0. then begin
          budgets.(!current + 1) <- budgets.(!current + 1) +. budgets.(!current);
          budgets.(!current) <- 0.
        end;
        incr current
      done;
      members.(!current) <- i :: members.(!current);
      budgets.(!current) <- budgets.(!current) -. weights.(i))
    order;
  Bundle.of_groups ~n_flows:n (Array.to_list (Array.map List.rev members))

(* Divide [0, max cost] into equal ranges; empty ranges vanish. *)
let cost_division costs ~n_bundles =
  let n = Array.length costs in
  let cmax = Numerics.Stats.max costs in
  let width = cmax /. float_of_int n_bundles in
  let assignment =
    Array.init n (fun i ->
        if width <= 0. then 0
        else
          let b = int_of_float (costs.(i) /. width) in
          if b >= n_bundles then n_bundles - 1 else b)
  in
  Bundle.of_assignment ~n_bundles assignment

let index_division costs ~n_bundles =
  let n = Array.length costs in
  let by_cost = order_by_desc (Array.map (fun c -> -.c) costs) n in
  let b = min n_bundles n in
  let cuts = List.init (b - 1) (fun j -> (j + 1) * n / b) in
  let cuts = List.sort_uniq Int.compare (List.filter (fun c -> c > 0 && c < n) cuts) in
  Bundle.contiguous ~order:by_cost ~cuts

(* The class label used by the class-aware profit weighting: cost classes
   under the active cost model. *)
let flow_class market i =
  let f = market.Market.flows.(i) in
  match market.Market.cost_model with
  | Cost_model.Destination_type { theta } ->
      if Cost_model.is_on_net ~theta f.Flow.id then 0 else 1
  | Cost_model.Regional _ -> (
      match f.Flow.locality with
      | Flow.Metro -> 0
      | Flow.National -> 1
      | Flow.International -> 2)
  | Cost_model.Linear _ | Cost_model.Concave _ -> 0

let profit_weighted_classes market ~n_bundles =
  let n = Market.n_flows market in
  let profits = Market.potential_profits market in
  (* One pass over the cost model up front; the mass/filter loops below
     would otherwise re-derive the class per class per flow. *)
  let cls = Array.init n (flow_class market) in
  let classes = List.sort_uniq Int.compare (Array.to_list cls) in
  let class_count = List.length classes in
  if class_count = 1 || n_bundles < class_count then
    (* One class, or not enough bundles to keep classes apart: plain
       profit weighting within the budget. *)
    token_bucket ~weights:profits ~order:(order_by_desc profits n) ~n_bundles
  else if n_bundles = class_count then begin
    (* Exactly one bundle per class. *)
    let rank c =
      let rec find k = function
        | [] -> assert false
        | c' :: rest -> if c = c' then k else find (k + 1) rest
      in
      find 0 classes
    in
    let assignment = Array.init n (fun i -> rank cls.(i)) in
    Bundle.of_assignment ~n_bundles:class_count assignment
  end
  else begin
    (* Allocate bundles to classes proportionally to their profit mass
       (at least one each), then token-bucket within each class. *)
    let mass =
      List.map
        (fun c ->
          let total = ref 0. in
          for i = 0 to n - 1 do
            if cls.(i) = c then total := !total +. profits.(i)
          done;
          (c, !total))
        classes
    in
    let total_mass = List.fold_left (fun acc (_, m) -> acc +. m) 0. mass in
    let spare = n_bundles - class_count in
    let allocations =
      List.map
        (fun (c, m) ->
          let extra =
            if total_mass <= 0. then 0
            else int_of_float (Float.round (float_of_int spare *. m /. total_mass))
          in
          (c, 1 + extra))
        mass
    in
    (* Rounding can over/under-shoot; trim or pad on the largest class. *)
    let allocated = List.fold_left (fun acc (_, b) -> acc + b) 0 allocations in
    let allocations =
      match allocations with
      | [] -> []
      | (c0, b0) :: rest -> (c0, max 1 (b0 + n_bundles - allocated)) :: rest
    in
    let groups =
      List.concat_map
        (fun (c, bundles_for_class) ->
          let indices =
            List.filter (fun i -> cls.(i) = c) (List.init n Fun.id)
          in
          let idx = Array.of_list indices in
          let w = Array.map (fun i -> profits.(i)) idx in
          let local_order = order_by_desc w (Array.length idx) in
          let sub =
            token_bucket ~weights:w ~order:local_order
              ~n_bundles:(min bundles_for_class (Array.length idx))
          in
          Array.to_list
            (Array.map (fun group -> Array.to_list (Array.map (fun j -> idx.(j)) group))
               (sub :> int array array)))
        allocations
    in
    Bundle.of_groups ~n_flows:n groups
  end

(* --- Optimal: DP over flows sorted by cost ----------------------------- *)

(* The DP inputs: flow indices in ascending-cost order, the closed-form
   segment profit over inclusive positions of that order, and the
   piecewise-region starts for [Numerics.Segdp] (logit only; see
   below). Exposed (see the mli) so the kernel grid test and the
   regression suite can cross-check the kernels on exactly the
   seg_value the strategy runs. The partition itself is delegated to
   [Numerics.Segdp.solve]: certified SMAWK layers (region-wise
   divide-and-conquer first when logit splits the order into regions)
   over an exact quadratic backstop, cut-for-cut identical to the
   historical O(B n^2) DP. Prefix rows are [floatarray]s read through unsafe gets:
   the indices are pinned to [0, n] by construction and the closures
   are the hottest call in the repo. *)
let dp_inputs market =
  let { Market.alpha; valuations; costs; spec; _ } = market in
  let n = Market.n_flows market in
  let order = order_by_desc (Array.map (fun c -> -.c) costs) n in
  let fget = Float.Array.unsafe_get in
  let fset = Float.Array.unsafe_set in
  match spec with
  | Market.Ced ->
      (* Prefix sums of v^alpha and c v^alpha in cost order give O(1)
         segment profits at the closed-form optimal bundle price. *)
      let pva = Market.pow_valuations market in
      let av = Float.Array.make (n + 1) 0. in
      let acv = Float.Array.make (n + 1) 0. in
      for k = 0 to n - 1 do
        let i = order.(k) in
        let w = pva.(i) in
        fset av (k + 1) (fget av k +. w);
        fset acv (k + 1) (fget acv k +. (costs.(i) *. w))
      done;
      let seg lo hi =
        let sum_v = fget av (hi + 1) -. fget av lo in
        let sum_cv = fget acv (hi + 1) -. fget acv lo in
        if sum_v <= 0. then 0.
        else
          let price = alpha *. sum_cv /. ((alpha -. 1.) *. sum_v) in
          (price ** -.alpha) *. ((sum_v *. price) -. sum_cv)
      in
      (order, seg, [| 0 |])
  | Market.Linear _ ->
      (* Prefix sums of a, b, b*c, a*c give O(1) segment profit at the
         closed-form bundle price. The common-elasticity fit makes
         a_i / b_i constant across flows, so the optimal partition is
         again contiguous in cost (the same argument as for CED). *)
      let b_all = Market.linear_b market in
      let sa = Float.Array.make (n + 1) 0. in
      let sb = Float.Array.make (n + 1) 0. in
      let sbc = Float.Array.make (n + 1) 0. in
      let sac = Float.Array.make (n + 1) 0. in
      for k = 0 to n - 1 do
        let i = order.(k) in
        fset sa (k + 1) (fget sa k +. valuations.(i));
        fset sb (k + 1) (fget sb k +. b_all.(i));
        fset sbc (k + 1) (fget sbc k +. (b_all.(i) *. costs.(i)));
        fset sac (k + 1) (fget sac k +. (valuations.(i) *. costs.(i)))
      done;
      let seg lo hi =
        let a_sum = fget sa (hi + 1) -. fget sa lo in
        let b_sum = fget sb (hi + 1) -. fget sb lo in
        let bc_sum = fget sbc (hi + 1) -. fget sbc lo in
        let ac_sum = fget sac (hi + 1) -. fget sac lo in
        if b_sum <= 0. then 0.
        else
          let price = Lin.bundle_price ~a_sum ~b_sum ~bc_sum in
          Float.max 0. (Lin.bundle_profit ~a_sum ~b_sum ~bc_sum ~ac_sum ~price)
      in
      (order, seg, [| 0 |])
  | Market.Logit _ ->
      (* Maximize S = sum_b W_b e^(-alpha c_bar_b); shift exponents so
         the segment terms stay in floating range. *)
      let vmax = Numerics.Stats.max valuations in
      let cmin = Numerics.Stats.min costs in
      let w = Float.Array.make (n + 1) 0. in
      let wc = Float.Array.make (n + 1) 0. in
      for k = 0 to n - 1 do
        let i = order.(k) in
        let wi = exp (alpha *. (valuations.(i) -. vmax)) in
        fset w (k + 1) (fget w k +. wi);
        fset wc (k + 1) (fget wc k +. (wi *. costs.(i)))
      done;
      let seg lo hi =
        let sum_w = fget w (hi + 1) -. fget w lo in
        if sum_w <= 0. then 0.
        else
          let c_bar = (fget wc (hi + 1) -. fget wc lo) /. sum_w in
          sum_w *. exp (-.alpha *. (c_bar -. cmin))
      in
      (* Piecewise decomposition for Segdp's region-wise D&C. The
         shifted weights can underflow to 0 or be absorbed by the
         running prefix sum (wi below one ulp of the accumulator), and
         exp(-alpha (c - cmin)) underflows once the cost spread exceeds
         ~690/alpha; both clamp seg to a plateau, and a plateau glued to
         a smooth range breaks the global Monge property the D&C rides
         on. Region starts mark every transition between "flat" and
         "live" prefix increments plus the exp-saturation point — within
         a region the profit is one smooth branch and inverse Monge
         again. A pathologically fragmented input (>64 regions) is left
         undecomposed; the SMAWK and quadratic rungs still certify it. *)
      let starts = ref [] in
      if n > 1 then begin
        let flat k =
          Float.equal (fget w (k + 1)) (fget w k)
          && Float.equal (fget wc (k + 1)) (fget wc k)
        in
        let prev_flat = ref (flat 0) in
        for k = 1 to n - 1 do
          let f = flat k in
          if f <> !prev_flat then starts := k :: !starts;
          prev_flat := f
        done;
        let sat = ref 0 in
        while
          !sat < n && alpha *. (costs.(order.(!sat)) -. cmin) < 690.
        do
          incr sat
        done;
        if !sat > 0 && !sat < n then starts := !sat :: !starts;
        (* Leading noise stretch: cheap flows whose shifted weights are
           denormal-adjacent junk (nonzero, but negligible against the
           market's total mass) keep the prefix moving — so the flat
           test above never fires — while every segment they span is
           pure rounding noise and its argmax is decided at ulp scale.
           Isolate each pre-mass position as a singleton region: those
           columns degrade to exact scans, the live range keeps the
           monotone D&C. *)
        let total_w = fget w n in
        let mass_start = ref 0 in
        while
          !mass_start < n
          && fget w (!mass_start + 1) < total_w *. 0x1p-53
        do
          incr mass_start
        done;
        for k = 1 to Stdlib.min !mass_start (n - 1) do
          starts := k :: !starts
        done
      end;
      let region_starts = List.sort_uniq Int.compare (0 :: !starts) in
      let regions =
        if List.length region_starts > 64 then [| 0 |]
        else Array.of_list region_starts
      in
      (order, seg, regions)

let optimal_dp market ~n_bundles =
  let order, seg_value, regions = dp_inputs market in
  let n = Market.n_flows market in
  let r = Numerics.Segdp.solve ~regions ~n ~n_bundles seg_value in
  Bundle.contiguous ~order ~cuts:r.Numerics.Segdp.cuts

let rec apply strategy market ~n_bundles =
  if n_bundles < 1 then invalid_arg "Strategy.apply: n_bundles < 1";
  let n = Market.n_flows market in
  let costs = market.Market.costs in
  match strategy with
  | Demand_weighted ->
      let demands = Flow.demands market.Market.flows in
      token_bucket ~weights:demands ~order:(order_by_desc demands n) ~n_bundles
  | Cost_weighted ->
      let inv = Array.map (fun c -> 1. /. c) costs in
      token_bucket ~weights:inv ~order:(order_by_desc inv n) ~n_bundles
  | Profit_weighted ->
      let profits = Market.potential_profits market in
      token_bucket ~weights:profits ~order:(order_by_desc profits n) ~n_bundles
  | Profit_weighted_classes -> profit_weighted_classes market ~n_bundles
  | Cost_division -> cost_division costs ~n_bundles
  | Index_division -> index_division costs ~n_bundles
  | Optimal -> (
      let dp = optimal_dp market ~n_bundles in
      match market.Market.spec with
      | Market.Ced | Market.Linear _ -> dp
      | Market.Logit _ ->
          (* Contiguity in cost is only near-exact for logit; floor the
             DP at the heuristics. Each candidate is priced exactly once
             (the fold carries (bundle, profit) pairs; re-evaluating the
             incumbent per step cost O(candidates * n)). *)
          let candidates =
            List.filter_map
              (fun s ->
                if s = Optimal then None else Some (apply s market ~n_bundles))
              all
          in
          let profit b = (Pricing.evaluate market b).Pricing.profit in
          let best, _ =
            List.fold_left
              (fun (best, best_profit) candidate ->
                let p = profit candidate in
                if p > best_profit then (candidate, p) else (best, best_profit))
              (dp, profit dp) candidates
          in
          best)

(* --- Exhaustive optimal (for tests) ------------------------------------ *)

let exhaustive_optimal market ~n_bundles =
  let n = Market.n_flows market in
  if n > 12 then invalid_arg "Strategy.exhaustive_optimal: too many flows (max 12)";
  if n_bundles < 1 then invalid_arg "Strategy.exhaustive_optimal: n_bundles < 1";
  let best = ref None in
  let consider assignment used =
    let bundles = Bundle.of_assignment ~n_bundles:used (Array.copy assignment) in
    let profit = (Pricing.evaluate market bundles).Pricing.profit in
    match !best with
    | Some (_, p) when p >= profit -> ()
    | _ -> best := Some (bundles, profit)
  in
  let assignment = Array.make n 0 in
  (* Enumerate set partitions in restricted-growth form, capped at
     [n_bundles] blocks. *)
  let rec go i used =
    if i = n then consider assignment used
    else
      for b = 0 to min used (n_bundles - 1) do
        assignment.(i) <- b;
        go (i + 1) (max used (b + 1))
      done
  in
  go 0 0;
  match !best with Some (bundles, _) -> bundles | None -> assert false
