(** Fast segment-partition dynamic programming.

    Solves [max over partitions of 0..n-1 into at most n_bundles
    contiguous segments of sum (seg_value lo hi)] ([lo], [hi] inclusive
    positions), the optimal-bundling recurrence of the tier DP
    (DESIGN.md §11).

    All solvers share the quadratic DP's exact semantics: ties inside a
    column break toward the smallest split index, and ties across
    segment counts break toward the fewest segments (strict [>]
    updates). [solve] computes each layer through a ladder of rungs,
    every rung certified by an exact re-solve of sampled columns (value
    and argmax bit-for-bit):

    + SMAWK over the full layer — total monotonicity is strictly weaker
      than inverse Monge and still gives exact leftmost argmaxes, in
      O(n) evaluations per layer; probed with sampled strict-hypothesis
      TM implications. The first rung of every single-region layer
      (one region: the closed-form CED, linear and unclamped logit
      segment profits), and the second of a multi-region one;
    + region-wise monotone-decision divide and conquer — O(n log n)
      evaluations per layer when each region's layer matrix is inverse
      Monge, which the logit segment profit is piecewise once
      clamped/underflowed prefix ranges are split out via [regions];
      probed with seg-only adjacent Monge quadruples. The first rung of
      a multi-region layer, since it alone re-anchors at region starts;
    + the exact quadratic row as a last-resort certified backstop, so a
      structurally hostile [seg_value] degrades to quadratic time, not
      to different cuts.

    SMAWK runs in scratch sized once per solve (or per retained
    {!state}), so a layer allocates nothing.

    The regression suite pins [solve = solve_quadratic] cut-for-cut on
    random markets of every demand spec and on an adversarial corpus of
    hostile layers. *)

type stats = {
  layers : int;  (** DP layers computed, including the base layer. *)
  smawk_layers : int;
      (** Layers accepted on the SMAWK rung, first rung or second ([0]
          for [solve_quadratic]). *)
  fallback_layers : int;
      (** Layers that exhausted both fast rungs and were recomputed with
          the exact quadratic row ([solve] only; always [0] for
          [solve_quadratic]). *)
  evaluations : int;
      (** Total [seg_value] calls, checks included. The exact columns
          of every layer are checked in one sweep that evaluates each
          shared [seg i j] once: about [samples * n / 2] calls per
          solve, not per layer. *)
  regions : int;
      (** Number of piecewise regions the solve ran with ([1] when no
          decomposition was supplied). *)
}

type result = {
  cuts : int list;
      (** Segment start positions (ascending, in [\[1, n-1\]], excluding
          the implicit start at [0]) — the argument order expected by
          [Bundle.contiguous]. *)
  segments : int;  (** Number of segments, [List.length cuts + 1]. *)
  value : float;  (** Total [seg_value] of the returned partition. *)
  stats : stats;
}

val solve_quadratic :
  n:int -> n_bundles:int -> (int -> int -> float) -> result
(** [solve_quadratic ~n ~n_bundles seg_value]: the exact
    O(n_bundles * n^2) reference DP. Raises [Invalid_argument] when
    [n < 1] or [n_bundles < 1]. *)

val solve :
  ?samples:int ->
  ?regions:int array ->
  n:int ->
  n_bundles:int ->
  (int -> int -> float) ->
  result
(** Ladder solver (SMAWK, then exact fallback, on a single region;
    region-wise D&C, then SMAWK, then exact fallback, on several);
    cut-for-cut identical to [solve_quadratic] on every input whose
    hostile structure the spot-checks detect — and the checks fail
    toward the backstop, NaN included. [samples] bounds the Monge/TM
    probes per layer and sets its exact column re-solves: layer [b]
    checks the [cols = min samples (n - b)] distinct columns
    [max (b + k) (k (n - 1) / (cols - 1))], [k < cols] ([n - 1] when
    [cols = 1]), plus its region starts (default [16]; [0] disables
    validation and accepts the D&C rung outright). The positions do not
    depend on [n_bundles]. [regions]
    lists piecewise-region start positions, strictly increasing from
    [0] within [\[0, n)] (default [[|0|]]): the D&C re-anchors its
    candidate range at every region start, so clamped or underflowed
    [seg_value] branches only need the Monge property locally — see
    [Strategy.dp_inputs], which derives the logit decomposition. Raises
    [Invalid_argument] on malformed [n], [n_bundles] or [regions]. *)

val solve_curve :
  ?samples:int ->
  ?regions:int array ->
  n:int ->
  max_bundles:int ->
  (int -> int -> float) ->
  result array
(** [solve_curve ~n ~max_bundles seg_value]: the optimum for every
    segment budget up to [max_bundles] from one DP fill. Element [b - 1]
    is [solve ~n ~n_bundles:b seg_value] in cuts, segments and bitwise
    value, since a layer's values and argmaxes do not depend on how
    many layers follow it; only [stats] differ, and every element
    carries the one fill's. Raises [Invalid_argument] as {!solve} does
    for [n_bundles = max_bundles]. *)

(** {2 Warm start}

    The streaming re-tier loop (DESIGN.md §12) solves a near-identical
    instance every window: only positions [>= dirty_from] of the
    cost-sorted input change. [solve_with_state] retains the full DP
    matrices; [solve_warm] then recomputes only the dirty column suffix
    of every layer — columns left of [dirty_from] are provably
    untouched, because column [j] depends only on positions [<= j] —
    on the layer's first rung (SMAWK on a single region), with its
    candidates starting at the last clean column's argmax. Each layer
    is re-validated with the certificate [solve] runs on that rung, and
    everything is re-solved from scratch (through the full ladder) when
    a check trips. A warm result is therefore always cut-for-cut what the
    cold solver would have returned on the same inputs. A state is
    sized for one instance: when the instance size changes (flow
    arrivals or departures), solve cold with a fresh
    {!solve_with_state}. *)

type state
(** Retained DP matrices (O(n_bundles * n) floats), mutated in place by
    {!solve_warm}. *)

val state_n : state -> int
(** The instance size the state was solved at. *)

val solve_with_state :
  ?samples:int ->
  ?regions:int array ->
  n:int ->
  n_bundles:int ->
  (int -> int -> float) ->
  result * state
(** Exactly {!solve} (same cuts, value and tie-breaks), additionally
    returning the retained state for later warm calls. The state
    remembers [regions] until a later {!solve_warm} overrides them. *)

val solve_warm :
  ?samples:int ->
  ?regions:int array ->
  ?force_fallback:bool ->
  state ->
  dirty_from:int ->
  (int -> int -> float) ->
  result * [ `Warm | `Cold ]
(** [solve_warm state ~dirty_from seg_value] re-solves with the given
    [seg_value], which must agree with the previous call's on every
    segment contained in positions [< dirty_from]. [dirty_from = n]
    means nothing changed (the retained optimum is replayed with zero
    evaluations). [regions], when given, replaces the state's retained
    decomposition (demand changes can move clamp boundaries between
    windows). Returns [`Warm] when the suffix recompute passed every
    layer's spot-check, [`Cold] when a check tripped and the state was
    recomputed from scratch through the ladder (warm-attempt evaluations
    included in [stats]). [force_fallback] skips the warm attempt and
    takes the divergence path directly — the fault-injection drill the
    streaming service's tests and smoke use. Raises [Invalid_argument]
    when [dirty_from] is outside [\[0, n\]] or [regions] is malformed. *)

val verify_columns : ?samples:int -> state -> (int -> int -> float) -> bool
(** [verify_columns st seg_value] re-solves up to [samples] (default
    [64]) deterministically drawn columns of every retained layer with
    exact full-range scans and checks them — value and argmax — against
    the state bit-for-bit (layer 0 against [seg_value 0 j] directly).
    The kernel grid test uses this as the exact spot-check on cells too
    large to run the full quadratic reference. [seg_value] must be the
    function the state was last solved with. *)

