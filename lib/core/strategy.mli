(** The six bundling strategies of §4.2.1, plus the class-aware
    refinement of §4.3.1.

    All heuristics produce at most [n_bundles] bundles (fewer when a
    range ends up empty, mirroring the paper's cost-division dips).

    The [Optimal] strategy is the segment DP over flows sorted by cost,
    and it is {e exact} for every demand family: some optimal partition
    is contiguous in cost order.
    - CED: the profit of a flow at a common price [P] factors as
      [v_i^alpha * P^(-alpha) (P - c_i)], so the best bundle for a flow
      depends only on its cost. Linear demand under the common-elasticity
      fit is the same argument.
    - Logit: optimal profit rises with
      [S = sum_b W_b exp(-alpha cbar_b)] (see {!Logit}), a sum over
      bundles of [g(W, C) = W exp(-alpha C / W)] at the bundle's weight
      [W] and weighted cost [C]. [g] is the perspective of a strictly
      convex function, so it is convex and homogeneous. At an optimum
      with fewest bundles, moving one flow between two bundles cannot
      gain; convexity turns that into "each flow sits in the bundle whose
      tangent line of [exp(-alpha c)] is highest at its cost". Tangents of
      a strictly convex function are each highest on one interval of
      costs, so the bundles are cost intervals; flows of equal cost
      split across two bundles can all be moved to one side without
      loss. DESIGN.md §2 gives the argument in full.
    The DP is therefore exact up to floating-point rounding, and the
    test suite checks it against exhaustive search on small random
    markets of every family, clamped and underflowing logit included. *)

type t =
  | Optimal
  | Demand_weighted
  | Cost_weighted
  | Profit_weighted
  | Profit_weighted_classes
      (** Profit-weighted, but flows of different cost classes (on-net
          vs off-net, or locality under the regional model) never share
          a bundle. *)
  | Cost_division
  | Index_division

val all : t list
val name : t -> string
val of_name : string -> t
(** Raises [Invalid_argument] on unknown names. *)

val apply : t -> Market.t -> n_bundles:int -> Bundle.t
(** Raises [Invalid_argument] when [n_bundles < 1]. [Optimal] runs the
    segment DP through {!Numerics.Segdp.solve} (certified SMAWK layers,
    region-wise divide-and-conquer first on multi-region logit layers,
    exact quadratic backstop) — cut-for-cut identical to the historical
    O(B n^2) DP. *)

val curve : t -> Market.t -> max_bundles:int -> Bundle.t array
(** [curve s market ~max_bundles]: element [b - 1] is
    [apply s market ~n_bundles:b], for every [b] up to [max_bundles],
    computed in one pass: [Optimal] from one
    {!Numerics.Segdp.solve_curve} fill, the heuristics from one set of
    weights and sorts. Raises [Invalid_argument] when
    [max_bundles < 1]. *)

val dp_columns : Pricing.columns -> (int -> int -> float) * int array
(** [dp_columns c] is [(seg_value, regions)] over columns already in
    ascending-cost order: the closed-form segment profit of the
    contiguous run of positions [lo..hi] (inclusive) under the columns'
    demand spec, and the piecewise-region starts to pass to
    {!Numerics.Segdp.solve}. [regions] is [[|0|]] for CED/linear; for
    logit it splits the cost order at clamped/underflowed prefix-sum
    ranges and at the exp-saturation point, so each region's segment
    profit is a single smooth, inverse-Monge branch. A logit market
    whose single-flow terms would all underflow in those units is
    solved in log space, scaled by its largest term (DESIGN.md §11):
    same partition objective, slower evaluations. O(n) setup; each
    [seg_value] call is O(1) off prefix sums. Raises [Invalid_argument]
    as {!Pricing.column_count} does. *)

val dp_inputs : Market.t -> int array * (int -> int -> float) * int array
(** [dp_inputs market] is [(order, seg_value, regions)]: flow indices
    in ascending-cost order (ties by index) and {!dp_columns} over the
    market's columns gathered into that order — exactly the inputs
    [Optimal]'s DP runs on. Exposed for the kernel grid test and the
    fast-vs-quadratic regression suite. O(n) setup plus a sort when the
    flows are not yet in cost order. *)

val token_bucket : weights:float array -> order:int array -> n_bundles:int -> Bundle.t
(** The paper's token-bucket grouping: budget [sum w / B] per bundle,
    flows traversed in [order], each assigned to the first bundle that is
    empty or still has budget; overdraft carries into the next bundle.
    Exposed for tests. *)

val exhaustive_optimal : Market.t -> n_bundles:int -> Bundle.t
(** True exhaustive search over all set partitions into at most
    [n_bundles] parts. Exponential — intended for cross-checking
    [Optimal] on small instances (n <= 12 enforced). *)
