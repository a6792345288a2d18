(** Packet-sampling simulation.

    Routers export {e sampled} NetFlow (typically 1-in-N packets); the
    collector re-scales byte counts by N. Sampling is a binomial process,
    so small flows can disappear entirely — the packet-sampling ablation
    (examples/ablations.ml) measures how this distorts the fitted model. *)

type t = { rate : int }
(** 1-in-[rate] packet sampling. [rate = 1] is unsampled. *)

val make : int -> t
(** Raises [Invalid_argument] when [rate < 1]. *)

val sample_record : Numerics.Rng.t -> t -> Netflow.record -> Netflow.record option
(** Binomially samples the record's packets (normal approximation above
    100 expected survivors, exact Bernoulli thinning below), re-scales
    bytes and packets by [rate], and returns [None] when no packet
    survives. *)

val sample : Numerics.Rng.t -> t -> Netflow.record list -> Netflow.record list

val expected_relative_error : t -> packets:float -> float
(** Coefficient of variation of the re-scaled byte estimate,
    [sqrt ((rate - 1) / packets)] — useful to reason about how coarse a
    sampling rate a test can tolerate. *)
