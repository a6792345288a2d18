(** Profit-maximizing prices for a given bundling, and the resulting
    market outcome.

    Under CED, bundle demands are separable so each bundle's price is
    the closed form of Eq. 5. Under logit, bundles are first collapsed
    to equivalent goods (Eqs. 10-11) and priced at the common optimal
    margin (Eq. 9, via the scalar solve in {!Logit.optimize}). *)

type outcome = {
  bundles : Bundle.t;
  bundle_prices : float array;  (** One price per bundle. *)
  flow_prices : float array;  (** Per flow: its bundle's price. *)
  flow_demands : float array;  (** Demand at the new prices. *)
  profit : float;
  revenue : float;
  delivery_cost : float;
  consumer_surplus : float;
}

val welfare : outcome -> float
(** Profit plus consumer surplus. *)

type columns = {
  spec : Market.demand_spec;
  alpha : float;
  k : float;  (** Logit market size; unused under CED and linear demand. *)
  valuations : float array;
  weights : float array;
      (** [v^alpha] under CED, the slope [b] under linear demand, empty
          under logit. *)
  costs : float array;
}
(** A market's per-flow parameters as parallel columns, in one flow
    order: all that pricing and the segment DP read of it. *)

val columns : Market.t -> columns
(** The market's own columns, in its flow order (no copies). *)

val column_count : columns -> int
(** The flow count. Raises [Invalid_argument] on no flows or columns of
    different lengths. *)

val contiguous : columns -> cuts:int list -> float array * float
(** [contiguous c ~cuts] is the optimal price of each bundle and the
    profit (revenue minus delivery cost) when [c]'s flow order is split
    after the positions in [cuts] (strictly increasing, each in
    [\[1, n-1\]]). No per-flow outcome and no consumer surplus; the
    bits equal [evaluate]'s on a market with these columns under
    [Bundle.contiguous] of its identity order. *)

val evaluate : Market.t -> Bundle.t -> outcome
(** Optimal prices for the partition. *)

val evaluate_at_prices : Market.t -> Bundle.t -> float array -> outcome
(** Outcome at externally chosen bundle prices (one per bundle) —
    used by the ablations that cross-check closed-form pricing against
    numeric optimization. *)

val blended : Market.t -> outcome
(** The single-bundle outcome. By construction of the fit, its optimal
    price is the observed [p0] (a property the tests assert). *)

val max_profit : Market.t -> float
(** Profit with per-flow (infinitely fine) pricing — the [pi_max] of the
    profit-capture metric. *)

val original_profit : Market.t -> float
(** Profit at the blended rate — the [pi_original] of profit capture. *)
