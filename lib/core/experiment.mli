(** The experiment registry: one entry per table/figure of the paper
    that the model reproduces.

    Each experiment regenerates the corresponding artifact as one or
    more {!Report.t} tables (a figure's line series become columns).
    Everything is deterministic. Figure 2 (direct peering) and
    Figure 17 (accounting) exercise the routing substrate and are
    printed by examples/direct_peering and examples/accounting_demo
    instead; see DESIGN.md's experiment index.

    Grid-shaped experiments additionally expose their internal grid as
    a {e cell plan}: [cells ()] lists independent sub-computations (one
    per [(network, spec, bundle-count)]-style grid cell) and [assemble]
    is a pure fold of the cell outputs back into the experiment's
    report list. {!Runner.run_experiments} schedules cells (not whole
    experiments) on the domain pool; because cells are listed and
    assembled in submission order, output is byte-identical at any job
    count — the pooled run equals {!run_cells}, which the property
    suite checks on random parameters. Scalar experiments use a
    one-cell fallback ({!scalar}). *)

type cell_output =
  | Rows of string list list
      (** Rows contributed to the experiment's tables, in grid order. *)
  | Tables of Report.t list  (** A whole-experiment (scalar) result. *)

type cell = {
  label : string;  (** e.g. ["eu_isp/b=3"]; unique within the experiment. *)
  compute : unit -> cell_output;
}

type t = {
  id : string;  (** e.g. ["fig8"], ["table1"]. *)
  description : string;
  cells : unit -> cell list;
      (** The cell-level plan, in deterministic grid order. Cheap: cells
          close over parameters, the expensive work happens in
          [compute]. *)
  assemble : cell_output list -> Report.t list;
      (** Pure fold of the cell outputs (in [cells ()] order) into the
          experiment's tables. *)
}

val all : t list
(** In paper order. *)

val ids : unit -> string list
val find : string -> t
(** Raises [Not_found]. *)

val run_cells : t -> Report.t list
(** [assemble (List.map compute (cells ()))] — the serial path, on the
    calling domain. *)

val scalar : id:string -> description:string -> (unit -> Report.t list) -> t
(** The one-cell fallback for experiments without a grid shape. *)

val capture_experiment :
  ?alpha:float ->
  ?p0:float ->
  id:string ->
  description:string ->
  title_of:(string -> string) ->
  spec:Market.demand_spec ->
  networks:string list ->
  bundle_counts:int list ->
  unit ->
  t
(** A fig8/fig9-class strategy sweep: one profit-capture table per
    network, one row per bundle count, one column per applicable
    strategy — decomposed into one cell per [(network, bundle-count)]
    pair. Exposed so tests can check the cell decomposition on random
    parameter grids. *)

(** Default evaluation parameters (§4.2.2): [alpha = 1.1],
    [p0 = $20/Mbps/month], linear cost model with [theta = 0.2], logit
    non-participation [s0 = 0.2], bundle counts 1..6. *)
module Defaults : sig
  val alpha : float
  val p0 : float
  val theta : float
  val s0 : float
  val bundle_counts : int list
  val networks : string list
end

val workload : string -> Flowgen.Workload.t
(** Calibrated workload for a network name, memoized in the engine's
    keyed artifact cache ({!Engine.Cache}); domain-safe. *)

val dataset : string -> Flow.t array
(** [Dataset.of_workload (workload name)], memoized alongside. *)

val market :
  ?alpha:float ->
  ?p0:float ->
  ?cost_model:Cost_model.t ->
  spec:Market.demand_spec ->
  string ->
  Market.t
(** Fitted market for a network under the defaults, with overrides. *)

val context :
  ?alpha:float ->
  ?p0:float ->
  ?cost_model:Cost_model.t ->
  spec:Market.demand_spec ->
  string ->
  Capture.context
(** [Capture.context] of the corresponding {!market}, memoized under the
    same key so concurrent grid cells share one computation. *)
