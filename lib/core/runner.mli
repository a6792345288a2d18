(** Pool-driven execution of the experiment registry.

    The single entry point every harness (CLI [run], [bench/main.exe],
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
    [retries] and [timeout_s] tune the {!Engine.Pool.Procs} and
    {!Engine.Pool.Remote} backends' crash recovery (see
    {!Engine.Pool.create}). Results are in input
    order regardless of backend; [wall_s] is the sum of the
    experiment's cell times plus its assembly time. When [metrics] is
    given, per-cell wall times (in submission order, labelled
    ["id/cell"]), the job count, the backend actually used, the
    worker-restart count, the total wall time and the per-worker busy
    times (the load-balance stat) are recorded into it. A raising cell
    surfaces as {!Engine.Pool.Task_failed} with the lowest failing
    cell index. *)

val render : result list -> string
(** Every table of every result printed with {!Report.print}, in
    order — the canonical byte-comparable form of a run. *)

val metrics_reports : Engine.Metrics.snapshot -> Report.t list
(** The run-metrics layer rendered as tables: per-cell wall times (with
    pool utilization and the load-balance stat in the title), per-cache
    hit/miss counters, and — when the disk tier is enabled — its size
    accounting and eviction counters. *)
