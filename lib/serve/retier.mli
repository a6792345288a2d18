(** Incremental re-tiering: warm-started tier solves per window.

    Posted tiers must be {e cut-for-cut} what a from-scratch solve on
    the same window would produce; incrementality is purely an
    optimization. Three layers make that hold (DESIGN.md §12):

    {ol
    {- {b Frozen calibration.} {!Tiered.Market.fit} rescales γ (and the
       cost model's set-wide normalizations) from whatever flows it is
       given, so refitting per window would reprice {e every} flow on
       any change and kill incrementality. Instead the first non-empty
       window calibrates once — γ from the fit, relative costs pinned by
       {!Tiered.Cost_model.freeze} — and each flow's frozen cost is
       computed once, when the flow is first priced. A window is then
       a set of cost-ordered columns: the frozen costs, and valuations
       filled from the demands (per-flow closed form under CED; the
       global logit inversion otherwise). No flow record or market is
       built per window: the columns go straight to
       {!Tiered.Strategy.dp_columns} and {!Tiered.Pricing.contiguous},
       which prices the cuts and their profit without the consumer
       surplus.}
    {- {b Positional dirty detection.} Flows are pre-sorted by (absolute
       cost, flow id), making the DP's cost order the identity; the
       window's signature is the (cost, demand, id) columns and
       [dirty_from] is the first position where one of them
       changed. Under CED the segment values left of [dirty_from] are
       bitwise unchanged (prefix sums of per-flow terms), so
       {!Numerics.Segdp.solve_warm} recomputes only the dirty suffix.
       A window whose flow {e count} changed (arrivals/departures)
       solves cold into a fresh state. Logit's segment values carry
       set-wide normalizers, so its dirty detection is all-or-nothing:
       identical signature replays the retained optimum, anything else
       recomputes in full.}
    {- {b Verification.} Every warm layer is re-validated by the same
       spot-check the cold solver runs, with the exact fallback on any
       trip; [cold_every] additionally forces the divergence drill on a
       fixed cadence so the fallback path stays exercised in
       production, not just in tests.}}

    Results are optionally memoized in an {!Engine.Cache} keyed by the
    window signature: a revisited demand pattern posts its tiers
    without re-solving (the retained DP state is left untouched so
    dirty detection keeps referring to the last {e solved} window). *)

type flow_meta = {
  m_id : int;
  m_distance_miles : float;
  m_locality : Tiered.Flow.locality;
  m_on_net : bool;
}
(** Static per-flow metadata, joined by endpoint pair — what the
    workload knows about a flow beyond its measured rate. *)

val meta_of_workload :
  Flowgen.Workload.t ->
  Flowgen.Ipv4.t ->
  Flowgen.Ipv4.t ->
  flow_meta option
(** Metadata oracle over a workload's ground truth. *)

type params = {
  spec : Tiered.Market.demand_spec;
  alpha : float;
  p0 : float;
  n_bundles : int;
  cost_model : Tiered.Cost_model.t;
  samples : int;  (** Spot-check budget per DP layer (see {!Numerics.Segdp.solve}). *)
  cold_every : int;
      (** Force the divergence fallback on every [cold_every]-th
          {e actual} solve — unchanged replays and cache hits do not
          advance the cadence. [1] makes every solve cold; [0] disables
          the drill. *)
  use_cache : bool;
}

type t

val create :
  params ->
  meta_of:(Flowgen.Ipv4.t -> Flowgen.Ipv4.t -> flow_meta option) ->
  t
(** Raises [Invalid_argument] on [Linear] demand (the re-tier fills CED
    and logit valuation columns only), [n_bundles < 1], [samples < 0]
    or [cold_every < 0]. *)

type outcome = {
  o_bin : int;  (** Window bin the tiers were posted at. *)
  o_n_flows : int;
  o_skipped : int;  (** Window flows with no metadata (not priced). *)
  o_cuts : int list;  (** Tier boundaries in cost-order positions. *)
  o_prices : float array;  (** One price per tier. *)
  o_profit : float;
  o_solve : [ `Warm | `Cold | `Cached | `Unchanged ];
      (** [`Unchanged]: identical signature, retained optimum replayed.
          [`Cached]: posted from the result cache without solving.
          [`Warm]: the dirty suffix of a same-size window recomputed.
          [`Cold]: the first solve, a window whose flow count changed,
          a drill, or a warm attempt whose spot-check tripped. *)
  o_dirty_from : int;  (** First cost-order position the posted solve
                           recomputed: the first changed one on a warm
                           solve, [n_flows] when nothing was (replay,
                           cache hit), [0] on every cold solve. *)
  o_evaluations : int;  (** [seg_value] calls this re-tier. *)
  o_fallback : bool;  (** Divergence path taken (spot-check or drill). *)
}

val retier : t -> Window.snapshot -> outcome
(** Solve the window (calibrating on the first non-empty one) and
    advance the retained state. An empty window posts no tiers and
    leaves all state untouched. Raises [Invalid_argument] when a flow's
    frozen cost is not positive (checked once per flow, when it is
    first priced). *)

val solve_cold : t -> Window.snapshot -> outcome
(** Reference from-scratch solve of the same window: identical market
    construction, fresh {!Numerics.Segdp.solve}, no retained state, no
    cache. [retier]'s cuts, prices and profit are pinned equal to this
    by the acceptance tests. Calibrates like {!retier} if the instance
    has not yet seen a non-empty window. *)

val calibrated : t -> bool
