(** Service counters: throughput, re-tier latency, solve outcomes.

    The daemon feeds one {!observe} per re-tier; {!summary} reduces to
    the service figures — records/s, the re-tier latency histogram
    (nearest-rank p50/p99) and the segment evaluations each solve spent
    — renderable as a {!Tiered.Report} table or JSON. Quantities that
    can be absent rather than zero — quantiles of an empty histogram,
    evaluations per solve before any solve, duplicates when dedup is
    off — are options and render as JSON [null], never a misleading
    [0]. *)

type t

val create : unit -> t

val observe :
  t ->
  solve:[ `Warm | `Cold | `Cached | `Unchanged ] ->
  latency_s:float ->
  evaluations:int ->
  fallback:bool ->
  unit

type summary = {
  retiers : int;
  warm : int;
  cold : int;
  cached : int;
  unchanged : int;
  fallbacks : int;  (** Re-tiers that went through the divergence path
                        (spot-check trip or forced drill). *)
  evaluations : int;  (** Total [seg_value] evaluations. *)
  evals_per_solve : float option;
      (** [evaluations / (warm + cold)]: the work an actual solve spent,
          so a warm start that saves nothing reads as high as a cold
          one. Unchanged replays and cache hits run no solve. [None]
          before any solve. *)
  p50_ms : float option;  (** [None] before any re-tier. *)
  p99_ms : float option;
  max_ms : float option;
}

val summary : t -> summary

val percentile : float array -> p:float -> float option
(** Nearest-rank percentile of a sorted array ([p] in [\[0, 100\]]).
    [None] on an empty array; a single observation is every quantile of
    itself. Exposed for the tests. *)

type run = {
  records : int;  (** Records ingested (pre-dedup). *)
  dropped_dup : int option;  (** [None] when dedup is disabled. *)
  late : int;
  seq_gaps : int;  (** Wire sequence gaps; [0] for generator streams. *)
  malformed : int;  (** Malformed wire packets/records; likewise. *)
  shards : int;
  occupancy : float;  (** Final window occupancy. *)
  wall_s : float;
  records_per_s : float;
}

val report : summary -> run -> Tiered.Report.t

val to_json : summary -> run -> string
(** One flat JSON object; the schema is documented in README.md. *)
