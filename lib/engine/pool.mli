(** A fixed-size pool of workers with a shared work queue, behind a
    pluggable execution backend.

    The pool is the single execution substrate for grid-shaped
    computations (experiment registries, parameter sweeps, benchmark
    grids). Results are keyed by task index and merged in submission
    order, so parallel output is byte-identical to a serial run —
    callers never observe scheduling order, whatever the backend.

    Two backends:
    - {!Domains} (default): worker domains inside this process. At
      [jobs = 1] no domain is spawned and tasks run serially on the
      calling domain (the fallback for single-core hosts and for
      determinism baselines).
    - {!Procs}: worker {e processes} ({!Proc}): fork/exec of the
      current executable, tasks shipped as marshalled frames over
      pipes. Crashing or wedged workers are detected (EOF / per-task
      timeout), their in-flight task is requeued on a surviving worker
      with bounded [retries], and the dead worker is replaced with
      backoff. Requires every entry point to call
      {!Proc.maybe_run_worker} first; if no worker can be spawned the
      pool degrades to the domain backend (see {!backend} for the
      backend actually in use). Workers share artifacts by digest
      through a CAS side-channel to the parent ({!Proc.store}).

    [jobs] counts workers. The default is
    [Domain.recommended_domain_count () - 1], reserving one core for
    the submitting domain. *)

type t

type backend = Domains | Procs

val backend_name : backend -> string
(** ["domains"] / ["procs"] — the identity threaded into
    metrics and CLI output. *)

exception Task_failed of { index : int; exn : exn; backtrace : string }
(** Raised by {!map} when a task failed. Every task is still attempted
    (the queue keeps draining; a raising task cannot deadlock or poison
    the pool) and the error reported is the one with the lowest task
    index, so the failure surfaced is deterministic. Under the
    {!Procs} backend [exn] is {!Proc.Remote_failure} (the task raised
    in a worker — not retried) or {!Proc.Worker_lost} (the worker died
    and bounded retries were exhausted). *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]. *)

val create :
  ?backend:backend ->
  ?retries:int ->
  ?timeout_s:float ->
  ?jobs:int ->
  unit ->
  t
(** Spawn the workers ([jobs] defaults to {!default_jobs}; values
    [< 1] are clamped to [1]). [backend] defaults to {!Domains}.
    [retries] (default [2]) and [timeout_s] (default none) only apply
    to the {!Procs} backend: how many times a task whose worker died
    is re-executed, and how long one task may run before its worker is
    killed and replaced. *)

val jobs : t -> int

val backend : t -> backend
(** The backend actually in use — {!Domains} when a {!Procs} request
    degraded because no worker process could be brought up. *)

val restarts : t -> int
(** Workers lost and replaced so far ([0] under the domain backend). *)

val busy_times : t -> float array
(** Cumulative busy seconds per worker slot. For a pool with workers
    (domains or processes) the array has one slot per worker and
    excludes time spent by the calling domain on serial fast paths, so
    the max/mean ratio of these is an unskewed load-balance statistic:
    [1.0] is perfectly balanced, higher means some worker was pinned
    by long tasks. A pool without workers ([jobs = 1], domain backend)
    reports the single caller slot. Safe to call between {!map}s;
    reading it concurrently with a running [map] gives a consistent
    but mid-run snapshot. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f tasks] runs [f] over every element, in parallel when
    the pool has workers, and returns results in input order. Safe to
    call repeatedly; not re-entrant from inside a worker task. Under
    the {!Procs} backend each task runs exactly once unless a worker
    is lost: crash recovery re-executes the in-flight task, so tasks
    must be pure (or idempotent). Results merge exactly once. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val shutdown : t -> unit
(** Join all workers (reaping worker processes under {!Procs}). The
    pool must not be used afterwards. Idempotent. *)

val with_pool :
  ?backend:backend ->
  ?retries:int ->
  ?timeout_s:float ->
  ?jobs:int ->
  (t -> 'a) ->
  'a
(** [create], run, then {!shutdown} (also on exception). *)
