(** Pool-driven execution of the experiment registry.

    The single entry point every harness (CLI [run], benchmark/,
    tests) uses to evaluate a set of experiments. Scheduling is
    per-{e cell}, not per-experiment: every experiment's
    {!Experiment.cells} plan is flattened into one task array (in
    experiment order, then cell order) and scheduled on an
    {!Engine.Pool}, so a slow grid figure's cells interleave with the
    rest of the registry instead of pinning one domain. Cell outputs
    are merged and {!Experiment.assemble}d in submission order, so
    output at any [jobs] count is byte-identical to a serial run (the
    golden suite pins this). Artifact reuse across cells happens
    underneath through the engine caches wired into {!Experiment}. *)

type result = {
  id : string;
  description : string;
  tables : Report.t list;
  wall_s : float;
}

val run_experiments :
  ?backend:Engine.Pool.backend ->
  ?retries:int ->
  ?timeout_s:float ->
  ?jobs:int ->
  ?metrics:Engine.Metrics.t ->
  Experiment.t list ->
  result list
(** Evaluate the experiments' cells on the pool ([jobs] defaults to
    {!Engine.Pool.default_jobs}; [1] is fully serial). [backend]
    selects the execution substrate (default {!Engine.Pool.Domains});
    [retries] and [timeout_s] tune the {!Engine.Pool.Procs} backend's
    crash recovery (see {!Engine.Pool.create}). Results are in input
    order regardless of backend; [wall_s] is the sum of the
    experiment's cell times plus its assembly time. When [metrics] is
    given, per-cell wall times (in submission order, labelled
    ["id/cell"]), the job count, the backend actually used, the
    worker-restart count, the total wall time and the per-worker busy
    times (the load-balance stat) are recorded into it. A raising cell
    surfaces as {!Engine.Pool.Task_failed} with the lowest failing
    cell index. *)

val sweep :
  ?backend:Engine.Pool.backend ->
  ?retries:int ->
  ?timeout_s:float ->
  ?jobs:int ->
  key:('v -> 'k) ->
  compute:('v -> string list) ->
  'v list ->
  string list list * int
(** A one-dimensional parameter grid: one pool task per value, each
    running [compute] inside {!Engine.Cache.find_or_add} on the
    ["sweep-cell"] cache under [key v] (everything that determines the
    row). Returns the rows in value order and the number of cells whose
    [compute] ran. With the disk tier on, a cell's row is in the
    content-addressed store as soon as the cell finishes, on either
    backend, so a rerun after an interruption (or after a cell raised)
    restores the finished cells and computes only the rest. A raising
    cell surfaces as {!Engine.Pool.Task_failed} once every other cell
    has run. Pool options are as for {!run_experiments}. *)

val render : result list -> string
(** Every table of every result printed with {!Report.print}, in
    order — the canonical byte-comparable form of a run. *)

val metrics_reports : Engine.Metrics.snapshot -> Report.t list
(** The run-metrics layer rendered as tables: per-cell wall times (with
    pool utilization and the load-balance stat in the title), per-cache
    hit/miss counters, and — when the disk tier is enabled — its size
    accounting and eviction counters. *)
