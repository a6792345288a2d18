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
   makes the sorted order unique, so a key already in that order
   returns the identity after one O(n) scan instead of a sort. *)
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

(* The heuristics below are staged: [f market] does the per-market
   work (weights, sorts, classes) once and returns the per-B step, so a
   curve over B = 1..B_max pays for one sort, not B_max of them. *)

(* Divide [0, max cost] into equal ranges; empty ranges vanish. *)
let cost_division costs =
  let n = Array.length costs in
  let cmax = Numerics.Stats.max costs in
  fun ~n_bundles ->
    let width = cmax /. float_of_int n_bundles in
    let assignment =
      Array.init n (fun i ->
          if width <= 0. then 0
          else
            let b = int_of_float (costs.(i) /. width) in
            if b >= n_bundles then n_bundles - 1 else b)
    in
    Bundle.of_assignment ~n_bundles assignment

let index_division costs =
  let n = Array.length costs in
  let by_cost = order_by_desc (Array.map (fun c -> -.c) costs) n in
  fun ~n_bundles ->
    let b = min n_bundles n in
    let cuts = List.init (b - 1) (fun j -> (j + 1) * n / b) in
    let cuts =
      List.sort_uniq Int.compare (List.filter (fun c -> c > 0 && c < n) cuts)
    in
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

(* One cost class: its flows in index order, their profits, the
   profit-descending order of those, and their profit mass. *)
type cost_class = {
  idx : int array;
  w : float array;
  by_w : int array;
  mass : float;
}

let profit_weighted_classes market =
  let n = Market.n_flows market in
  let profits = Market.potential_profits market in
  (* One pass over the cost model up front; the mass/filter loops below
     would otherwise re-derive the class per class per flow. *)
  let cls = Array.init n (flow_class market) in
  let classes = List.sort_uniq Int.compare (Array.to_list cls) in
  let class_count = List.length classes in
  let by_profit = order_by_desc profits n in
  let members =
    List.map
      (fun c ->
        let idx =
          Array.of_list (List.filter (fun i -> cls.(i) = c) (List.init n Fun.id))
        in
        let w = Array.map (fun i -> profits.(i)) idx in
        let mass = Array.fold_left ( +. ) 0. w in
        { idx; w; by_w = order_by_desc w (Array.length idx); mass })
      classes
  in
  fun ~n_bundles ->
    if class_count = 1 || n_bundles < class_count then
      (* One class, or not enough bundles to keep classes apart: plain
         profit weighting within the budget. *)
      token_bucket ~weights:profits ~order:by_profit ~n_bundles
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
      let total_mass = List.fold_left (fun acc k -> acc +. k.mass) 0. members in
      let spare = n_bundles - class_count in
      let allocations =
        List.map
          (fun k ->
            let extra =
              if total_mass <= 0. then 0
              else
                int_of_float (Float.round (float_of_int spare *. k.mass /. total_mass))
            in
            (k, 1 + extra))
          members
      in
      (* Rounding can over/under-shoot; trim or pad on the largest class. *)
      let allocated = List.fold_left (fun acc (_, b) -> acc + b) 0 allocations in
      let allocations =
        match allocations with
        | [] -> []
        | (k0, b0) :: rest -> (k0, max 1 (b0 + n_bundles - allocated)) :: rest
      in
      let groups =
        List.concat_map
          (fun (k, bundles_for_class) ->
            let sub =
              token_bucket ~weights:k.w ~order:k.by_w
                ~n_bundles:(min bundles_for_class (Array.length k.idx))
            in
            Array.to_list
              (Array.map
                 (fun group -> Array.to_list (Array.map (fun j -> k.idx.(j)) group))
                 (sub :> int array array)))
          allocations
      in
      Bundle.of_groups ~n_flows:n groups
    end

(* --- Optimal: DP over flows sorted by cost ----------------------------- *)

(* Piecewise decomposition of a logit segment profit for Segdp's
   region-wise D&C. The shifted weights can underflow to 0 or be
   absorbed by the running prefix sum (wi below one ulp of the
   accumulator) — [flat k]: position k leaves the prefix sums as they
   were — and the exp factor underflows once the cost spread is wide
   enough — [live k] is false from that position on; both clamp seg to
   a plateau, and a plateau glued to a smooth range breaks the global
   Monge property the D&C rides on. Region starts mark every transition
   between "flat" and "live" prefix increments plus the exp-saturation
   point — within a region the profit is one smooth branch and inverse
   Monge again. A pathologically fragmented input (>64 regions) is left
   undecomposed; the SMAWK and quadratic rungs still certify it. *)
let logit_regions ~n ~flat ~live ~below_mass =
  let starts = ref [] in
  if n > 1 then begin
    let prev_flat = ref (flat 0) in
    for k = 1 to n - 1 do
      let f = flat k in
      if f <> !prev_flat then starts := k :: !starts;
      prev_flat := f
    done;
    let sat = ref 0 in
    while !sat < n && live !sat do
      incr sat
    done;
    if !sat > 0 && !sat < n then starts := !sat :: !starts;
    (* Leading noise stretch: cheap flows whose shifted weights are
       denormal-adjacent junk (nonzero, but negligible against the
       market's total mass, [below_mass k]) keep the prefix moving — so
       the flat test above never fires — while every segment they span
       is pure rounding noise and its argmax is decided at ulp scale.
       Isolate each pre-mass position as a singleton region: those
       columns degrade to exact scans, the live range keeps the
       monotone D&C. *)
    let mass_start = ref 0 in
    while !mass_start < n && below_mass !mass_start do
      incr mass_start
    done;
    for k = 1 to Stdlib.min !mass_start (n - 1) do
      starts := k :: !starts
    done
  end;
  let region_starts = List.sort_uniq Int.compare (0 :: !starts) in
  if List.length region_starts > 64 then [| 0 |]
  else Array.of_list region_starts

(* A segment's weighted mean cost lies between its first and last
   flow's costs; held there, the cancellation in a prefix-sum
   difference can misstate a light segment's profit by at most eps
   times the profit of the flows before it (DESIGN.md §11), where an
   unheld mean near 0 could make it e^(alpha cmin) times too large. *)
let[@inline] clamp_mean ~lo ~hi mean = Float.min hi (Float.max lo mean)

(* ln (e^a + e^b), and ln (e^hi - e^lo) for lo <= hi. *)
let log_add a b =
  let m = Float.max a b in
  if Float.equal m Float.neg_infinity then m
  else m +. log1p (exp (Float.min a b -. m))

let log_sub hi lo =
  if Float.equal hi Float.neg_infinity then hi
  else hi +. log1p (-.exp (lo -. hi))

(* The logit DP inputs in log space, for markets whose single-flow terms
   span more than the double range (see [dp_inputs]). Running
   log-sum-exps replace the prefix sums: [lw.(k)] is
   ln sum_{p<k} e^(alpha (v - vmax)) and [ld.(k)] the same sum weighted
   by c - cmin, over cost-order positions p. A segment's sums are their
   differences, taken by [log_sub]. Each segment profit is divided by
   the largest single-flow term e^top, so the optimum at B >= 2 is at
   least 1 and the terms that matter neither underflow nor overflow.
   Same objective up to that constant factor; an exp and two log1p
   per evaluation more, on markets that would otherwise solve wrong. *)
let logit_log_inputs ~alpha ~valuations ~costs ~vmax ~cmin ~top =
  let n = Array.length costs in
  let lw = Float.Array.make (n + 1) Float.neg_infinity in
  let ld = Float.Array.make (n + 1) Float.neg_infinity in
  for k = 0 to n - 1 do
    let a = alpha *. (valuations.(k) -. vmax) in
    Float.Array.set lw (k + 1) (log_add (Float.Array.get lw k) a);
    Float.Array.set ld (k + 1)
      (log_add (Float.Array.get ld k) (a +. log (costs.(k) -. cmin)))
  done;
  let seg lo hi =
    let sw = log_sub (Float.Array.get lw (hi + 1)) (Float.Array.get lw lo) in
    if Float.equal sw Float.neg_infinity then 0.
    else
      let sd = log_sub (Float.Array.get ld (hi + 1)) (Float.Array.get ld lo) in
      let d_bar =
        clamp_mean ~lo:(costs.(lo) -. cmin) ~hi:(costs.(hi) -. cmin)
          (exp (sd -. sw))
      in
      exp (sw -. (alpha *. d_bar) -. top)
  in
  let total = Float.Array.get lw n in
  let regions =
    logit_regions ~n
      ~flat:(fun k ->
        Float.equal (Float.Array.get lw (k + 1)) (Float.Array.get lw k)
        && Float.equal (Float.Array.get ld (k + 1)) (Float.Array.get ld k))
      ~live:(fun k ->
        alpha *. (costs.(k) -. cmin) < 690. +. total -. top)
      ~below_mass:(fun k -> Float.Array.get lw (k + 1) < total -. (53. *. log 2.))
  in
  (seg, regions)

(* The DP inputs over columns already in ascending-cost order: the
   closed-form segment profit over inclusive positions and the
   piecewise-region starts for [Numerics.Segdp] (logit only; see
   below). The partition itself is delegated to [Numerics.Segdp.solve]:
   certified SMAWK layers (region-wise divide-and-conquer first when
   logit splits the order into regions) over an exact quadratic
   backstop, cut-for-cut identical to the historical O(B n^2) DP.
   Prefix rows are [floatarray]s read through unsafe gets: the indices
   are pinned to [0, n] by construction and the closures are the
   hottest call in the repo. *)
let dp_columns (c : Pricing.columns) =
  let { Pricing.alpha; valuations; weights; costs; spec; _ } = c in
  let n = Pricing.column_count c in
  let fget = Float.Array.unsafe_get in
  let fset = Float.Array.unsafe_set in
  match spec with
  | Market.Ced ->
      (* Prefix sums of v^alpha and c v^alpha in cost order give O(1)
         segment profits at the closed-form optimal bundle price. *)
      let av = Float.Array.make (n + 1) 0. in
      let acv = Float.Array.make (n + 1) 0. in
      for k = 0 to n - 1 do
        let w = weights.(k) in
        fset av (k + 1) (fget av k +. w);
        fset acv (k + 1) (fget acv k +. (costs.(k) *. w))
      done;
      let seg lo hi =
        let sum_v = fget av (hi + 1) -. fget av lo in
        let sum_cv = fget acv (hi + 1) -. fget acv lo in
        if sum_v <= 0. then 0.
        else
          let price = alpha *. sum_cv /. ((alpha -. 1.) *. sum_v) in
          (price ** -.alpha) *. ((sum_v *. price) -. sum_cv)
      in
      (seg, [| 0 |])
  | Market.Linear _ ->
      (* Prefix sums of a, b, b*c, a*c give O(1) segment profit at the
         closed-form bundle price. The common-elasticity fit makes
         a_i / b_i constant across flows, so the optimal partition is
         again contiguous in cost (the same argument as for CED). *)
      let sa = Float.Array.make (n + 1) 0. in
      let sb = Float.Array.make (n + 1) 0. in
      let sbc = Float.Array.make (n + 1) 0. in
      let sac = Float.Array.make (n + 1) 0. in
      for k = 0 to n - 1 do
        fset sa (k + 1) (fget sa k +. valuations.(k));
        fset sb (k + 1) (fget sb k +. weights.(k));
        fset sbc (k + 1) (fget sbc k +. (weights.(k) *. costs.(k)));
        fset sac (k + 1) (fget sac k +. (valuations.(k) *. costs.(k)))
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
      (seg, [| 0 |])
  | Market.Logit _ ->
      (* Maximize S = sum_b W_b e^(-alpha c_bar_b); shift exponents so
         the segment terms stay in floating range. *)
      let vmax = Numerics.Stats.max valuations in
      let cmin = Numerics.Stats.min costs in
      (* Shifting by vmax and cmin keeps W <= n and the exp below 1.
         That holds every term that matters while the largest
         single-flow term exp(alpha ((v - vmax) - (c - cmin))) stays
         above e^-600: the optimum at B >= 2 is at least that term
         (DESIGN.md §2), so whatever underflows is below e^-145 of it.
         Past that, when cheap flows weigh nothing and heavy ones cost
         far more, every term can underflow at once; such markets are
         solved in log space instead. *)
      let top = ref Float.neg_infinity in
      Array.iteri
        (fun k v ->
          top := Float.max !top (alpha *. (v -. vmax -. (costs.(k) -. cmin))))
        valuations;
      if !top < -600. then
        logit_log_inputs ~alpha ~valuations ~costs ~vmax ~cmin ~top:!top
      else begin
        let w = Float.Array.make (n + 1) 0. in
        let wc = Float.Array.make (n + 1) 0. in
        for k = 0 to n - 1 do
          let wi = exp (alpha *. (valuations.(k) -. vmax)) in
          fset w (k + 1) (fget w k +. wi);
          fset wc (k + 1) (fget wc k +. (wi *. costs.(k)))
        done;
        let seg lo hi =
          let sum_w = fget w (hi + 1) -. fget w lo in
          if sum_w <= 0. then 0.
          else
            let c_bar =
              clamp_mean ~lo:(Array.unsafe_get costs lo)
                ~hi:(Array.unsafe_get costs hi)
                ((fget wc (hi + 1) -. fget wc lo) /. sum_w)
            in
            sum_w *. exp (-.alpha *. (c_bar -. cmin))
        in
        let total_w = fget w n in
        let regions =
          logit_regions ~n
            ~flat:(fun k ->
              Float.equal (fget w (k + 1)) (fget w k)
              && Float.equal (fget wc (k + 1)) (fget wc k))
            ~live:(fun k -> alpha *. (costs.(k) -. cmin) < 690.)
            ~below_mass:(fun k -> fget w (k + 1) < total_w *. 0x1p-53)
        in
        (seg, regions)
      end

(* [dp_columns] over the market's columns gathered into cost order
   (ties by index). *)
let dp_inputs market =
  let n = Market.n_flows market in
  let order = order_by_desc (Array.map (fun c -> -.c) market.Market.costs) n in
  let c = Pricing.columns market in
  let gather col =
    if Array.length col = 0 then col else Array.map (fun i -> col.(i)) order
  in
  let seg, regions =
    dp_columns
      {
        c with
        Pricing.valuations = gather c.Pricing.valuations;
        weights = gather c.Pricing.weights;
        costs = gather c.Pricing.costs;
      }
  in
  (order, seg, regions)

let optimal_dp market ~n_bundles =
  let order, seg_value, regions = dp_inputs market in
  let n = Market.n_flows market in
  let r = Numerics.Segdp.solve ~regions ~n ~n_bundles seg_value in
  Bundle.contiguous ~order ~cuts:r.Numerics.Segdp.cuts

(* Every B up to [max_bundles] from one DP fill. *)
let optimal_curve market ~max_bundles =
  let order, seg_value, regions = dp_inputs market in
  let n = Market.n_flows market in
  Array.map
    (fun r -> Bundle.contiguous ~order ~cuts:r.Numerics.Segdp.cuts)
    (Numerics.Segdp.solve_curve ~regions ~n ~max_bundles seg_value)

(* A strategy's per-market work, staged (see above); [Optimal]'s is
   its own per-B solve. *)
let staged strategy market =
  let n = Market.n_flows market in
  let costs = market.Market.costs in
  let bucket weights =
    let order = order_by_desc weights n in
    fun ~n_bundles -> token_bucket ~weights ~order ~n_bundles
  in
  match strategy with
  | Demand_weighted -> bucket (Flow.demands market.Market.flows)
  | Cost_weighted -> bucket (Array.map (fun c -> 1. /. c) costs)
  | Profit_weighted -> bucket (Market.potential_profits market)
  | Profit_weighted_classes -> profit_weighted_classes market
  | Cost_division -> cost_division costs
  | Index_division -> index_division costs
  | Optimal -> optimal_dp market

let apply strategy market ~n_bundles =
  if n_bundles < 1 then invalid_arg "Strategy.apply: n_bundles < 1";
  staged strategy market ~n_bundles

let curve strategy market ~max_bundles =
  if max_bundles < 1 then invalid_arg "Strategy.curve: max_bundles < 1";
  match strategy with
  | Optimal -> optimal_curve market ~max_bundles
  | _ ->
      let step = staged strategy market in
      Array.init max_bundles (fun b -> step ~n_bundles:(b + 1))

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
