(** Subprocess worker backend: a fixed-size pool of worker {e
    processes} (not domains) executing tasks shipped over pipes.

    Each worker is a fork/exec of the current executable
    ([Sys.executable_name]) re-entered through the hidden
    {!worker_flag} argument, so every entry point that may drive a
    subprocess pool must call {!maybe_run_worker} as the very first
    thing in its [main]. Tasks travel as length-prefixed [Marshal]
    frames (with [Marshal.Closures] — legal because worker and parent
    are the same binary); results come back the same way and are keyed
    by task index, so merge order is submission order and rendered
    output stays byte-identical to the domain and serial backends.

    What the process boundary buys over domains:
    - {b fault isolation}: a crashing task (segfault, OOM kill, stack
      overflow in C stubs) takes down one worker, not the whole run.
      The parent detects the death as EOF on the worker's result pipe,
      reaps it with [waitpid], requeues the in-flight task on a
      surviving worker (bounded by [retries], with a short exponential
      backoff before each replacement spawn) and only raises after
      retry exhaustion;
    - {b wedge recovery}: an optional per-task [timeout_s] SIGKILLs a
      worker stuck on one task and recovers the same way;
    - {b true parallelism on any runtime}: workers are scheduled by
      the OS, not the OCaml domain scheduler.

    The cost is that workers are cold processes: in-memory artifact
    caches start empty in every worker. Workers share artifacts through
    the parent: a cache miss in a worker is fetched by digest from the
    parent's {!store} over the task pipes, and fresh artifacts are
    published back (the {!Cache} remote tier). Workers have no disk
    tier of their own: the parent reads and writes the content-addressed
    store for them, so it is the only process that touches it.

    Each task runs exactly once unless a worker is lost: a task
    interrupted by a crash or timeout is re-executed, so tasks must be
    pure (or idempotent). Results merge exactly once.

    {!create} raises {!Spawn_failure} when no worker at all can be
    brought up; {!Pool} uses that to degrade gracefully to the domain
    backend.

    This module is only the pipe plumbing; the scheduler (frame
    protocol, crash recovery, retries, timeouts, CAS side-channel) is
    {!Transport}. The exceptions below are aliases of {!Transport}'s,
    so matching on either module's constructors works. *)

type t

exception Spawn_failure of string
(** No worker process could be spawned (exec failure, fd exhaustion,
    handshake timeout). *)

exception Remote_failure of { message : string }
(** The task itself raised inside a worker. [message] is the printed
    form of the worker-side exception ([Printexc.to_string]); exception
    {e identity} does not survive the process boundary. Deterministic
    task failures are not retried. *)

exception Worker_lost of { attempts : int; reason : string }
(** A worker died (EOF / SIGKILL / timeout) while running the task and
    the bounded retries were exhausted; [attempts] counts executions
    attempted. *)

val worker_flag : string
(** ["--engine-worker"] — the hidden argv marker that turns the
    current executable into a worker. *)

val maybe_run_worker : unit -> unit
(** If [Sys.argv] carries {!worker_flag}, become a worker: enable
    backtrace recording, serve task frames from stdin until EOF, then
    [exit 0]. Never
    returns in that case. Must be the first statement of [main] in
    every executable that may create a subprocess pool. *)

val create : ?workers:int -> ?retries:int -> ?timeout_s:float -> unit -> t
(** Spawn [workers] worker processes (default
    [max 1 (recommended_domain_count - 1)], clamped to [>= 1]).
    [retries] (default [2]) bounds how many times a task whose worker
    died is re-executed; [timeout_s] (default: none) SIGKILLs a worker
    stuck on a single task for longer. Raises {!Spawn_failure} when
    not even one worker comes up; later spawn failures merely shrink
    the pool. Side effect: [SIGPIPE] is ignored process-wide so a dead
    worker surfaces as [EPIPE] instead of killing the parent. *)

val workers : t -> int
(** Worker slots (the requested count, even if some are currently
    being respawned). *)

val restarts : t -> int
(** Worker processes lost and replaced since {!create} (crashes,
    timeouts and dispatch failures all count). *)

val busy_times : t -> float array
(** Cumulative seconds each worker slot spent with a task in flight
    (includes time wasted on attempts that ended in a crash). *)

val store : t -> Transport.Store.t
(** The parent-side artifact store answering the workers' CAS frames
    — exposed so callers and tests can pre-seed artifacts workers will
    fetch by digest, or read back what they published. *)

val map : t -> ('a -> 'b) -> 'a array -> ('b, exn * string) result array
(** Run [f] over every element on the worker processes; the result
    array is in input order. Worker-side task exceptions surface as
    [Error (Remote_failure _, backtrace)]; a task whose retries were
    exhausted as [Error (Worker_lost _, "")]. Every task is attempted
    regardless of earlier failures. If at some point no worker is left
    alive and none can be respawned, the remaining tasks run on the
    calling process (same semantics, no parallelism). Each task runs
    exactly once unless a worker is lost. Not re-entrant. *)

val shutdown : t -> unit
(** Close task pipes (workers exit on EOF), reap every child, SIGKILL
    stragglers. Idempotent; the pool must not be used afterwards. *)
