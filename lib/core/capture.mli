(** The paper's profit-capture metric (§4.2.2).

    [capture = (pi_new - pi_original) / (pi_max - pi_original)] where
    [pi_original] is the blended-rate profit and [pi_max] the profit
    with per-flow pricing. 0 means no improvement over the blended rate,
    1 means as good as infinitely many tiers. *)

type context = {
  original : float;  (** Blended-rate profit. *)
  maximum : float;  (** Per-flow pricing profit. *)
}

val context : Market.t -> context

val value : context -> float -> float
(** [value ctx profit]. Raises [Invalid_argument] when the market has no
    headroom ([maximum <= original] beyond rounding). *)

val headroom : context -> float
(** [maximum - original]. *)

type point = { n_bundles : int; capture : float; profit : float }

val series :
  ?context:context ->
  Market.t ->
  Strategy.t ->
  bundle_counts:int list ->
  point list
(** Capture for each bundle count, pricing each partition optimally.
    The partitions come from one {!Strategy.curve} up to the largest
    count. [context] defaults to [context market]; pass it when it is
    already at hand. Raises [Invalid_argument] on a count below 1, and
    as {!value} does on a market with no headroom. *)

val pp_point : Format.formatter -> point -> unit
