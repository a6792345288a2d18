(** Shared worker-transport machinery: one scheduler, many transports.

    {!Proc} (pipe-connected subprocesses) and {!Remote} (TCP-connected
    fleet workers) both run tasks through this module. A transport
    contributes {e endpoints} — connected, handshaken workers wrapped
    in an {!endpoint} record — and a respawn hook; the scheduler owns
    everything else: length-prefixed frame IO, the handshake/resync
    magic, crash detection and bounded-retry requeue, per-task
    timeouts, work stealing (speculative tail duplication: idle
    workers re-run the oldest in-flight task once the queue drains, so
    one slow host cannot serialize the tail; first result wins and
    merging stays exactly-once), local draining when every worker is
    gone, and the CAS side-channel that lets workers fetch and publish
    artifacts by digest over their task connection.

    Tasks must be pure (or idempotent): crash recovery and stealing
    both re-execute tasks, i.e. the scheduler provides at-least-once
    execution with exactly-once {e result merging} in submission
    order. *)

exception Spawn_failure of string
(** No worker could be brought up (exec/connect failure, fd
    exhaustion, handshake timeout). *)

exception Remote_failure of { message : string }
(** The task itself raised inside a worker. [message] is the printed
    form of the worker-side exception ([Printexc.to_string]);
    exception {e identity} does not survive unmarshalling.
    Deterministic task failures are not retried. *)

exception Worker_lost of { attempts : int; reason : string }
(** A worker died (EOF / SIGKILL / timeout / corrupt frames) while
    running the task and the bounded retries were exhausted;
    [attempts] counts executions that ended in a crash. *)

exception Frame_too_large of { bytes : int }
(** A frame payload exceeded {!max_frame_bytes}. Raised by
    {!write_frame} before anything is written (a wrapped 4-byte header
    would corrupt the stream); a task whose marshalled form is oversize
    fails with this in its result slot, without blaming the worker. *)

exception Auth_failure
(** The peer's shared-secret preamble was missing, oversize, or did not
    match the expected token. Raised by {!serve_worker} before any
    frame is unmarshalled — task frames carry closures, so an
    unauthenticated peer must never get that far. *)

(** {1 Framed IO} *)

val restart_on_intr : (unit -> 'a) -> 'a
(** Retry a syscall wrapper on [EINTR]. *)

val write_frame : Unix.file_descr -> string -> unit
(** One length-prefixed frame: 4-byte big-endian length, then payload.
    Raises {!Frame_too_large} (before writing anything) when the
    payload exceeds {!max_frame_bytes}. *)

val read_frame : Unix.file_descr -> string
(** Read one frame. Raises [End_of_file] on a closed stream, a
    negative length, or a length above {!max_frame_bytes} — corrupt
    headers deliberately read as stream death so they route into crash
    recovery. *)

val max_frame_bytes : int

val magic : string
(** Stream-resync marker a worker emits before its first frame, so
    init-time stdout noise ahead of it is discarded by the parent. *)

(** {1 Shared-secret auth}

    Task frames are [Marshal.Closures] payloads — speaking the protocol
    is arbitrary code execution in the peer. Pipe workers inherit
    private fds and use the empty token; TCP workers must be driven
    with a non-empty shared secret whenever they listen beyond
    loopback. The parent's first bytes on a fresh connection are the
    token (raw, never marshalled, compared in constant time under a
    small length cap); the worker folds the same token into its ready
    frame, so {!handshake} authenticates the worker back. *)

val write_auth : Unix.file_descr -> token:string -> unit
(** Send the auth preamble. Always the first write on a connection,
    before {!write_config}. *)

(** {1 Worker side} *)

type worker_config = { disk_dir : string option; disk_max : int option }
(** The parent's disk-cache configuration, forwarded in the first
    frame of every connection and applied before the worker signals
    readiness. *)

val current_config : unit -> worker_config
val write_config : Unix.file_descr -> unit

type wire_result = (Obj.t, string * string) result

type down =
  | Task of int * (unit -> Obj.t)
  | Cas_found of string
  | Cas_missing
      (** Parent-to-worker frames: task dispatch and CAS-fetch replies. *)

type up =
  | Result of int * wire_result
  | Cas_get of string * string  (** [(cache, key_digest)]: blocking fetch *)
  | Cas_put of string * string * string
      (** [(cache, key_digest, payload)]: fire-and-forget publish *)

val serve_worker :
  in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> ?token:string -> unit -> unit
(** Run the worker side of the protocol on an established channel:
    verify the parent's auth preamble against [token] (default [""];
    raises {!Auth_failure} on mismatch, before unmarshalling anything),
    read the config frame, configure the disk cache, install the
    {!Cache.remote_tier} hook that forwards cache misses to the parent
    as [Cas_get]/[Cas_put] frames, emit [magic] + the ready frame,
    then serve task frames until EOF (returns normally; the caller
    decides the exit). The remote-tier hook is uninstalled on the way
    out. Callers must route stray stdout away from [out_fd] first when
    the channel is the process's fd 1. *)

(** {1 Parent side} *)

val handshake : deadline_s:float -> ?token:string -> Unix.file_descr -> unit
(** Scan for [magic] (discarding init noise byte-by-byte) and read the
    ready frame — which must carry [token] (default [""]) back — all
    under a deadline. Raises [Failure] or [End_of_file] when the peer
    is not a live worker holding the same secret. *)

type endpoint = {
  ep_send : Unix.file_descr;  (** parent writes down-frames *)
  ep_recv : Unix.file_descr;  (** parent selects/reads up-frames *)
  ep_kill : unit -> unit;
      (** force the peer down now (SIGKILL a child, close a socket) *)
  ep_close : unit -> unit;
      (** release everything the endpoint holds, gracefully where
          possible; crash paths run [ep_kill] first *)
}

(** Parent-side artifact store answering workers' CAS frames:
    disk-backed through {!Cache}'s content-addressed tier when one is
    configured, otherwise a bounded in-memory table. *)
module Store : sig
  type t

  val create : unit -> t
  val get : t -> cache:string -> key_digest:string -> string option
  val put : t -> cache:string -> key_digest:string -> payload:string -> unit
end

type sched

val make_sched :
  ?retries:int ->
  ?timeout_s:float ->
  ?steal_after:float ->
  respawn:(int -> endpoint option) ->
  endpoint option array ->
  sched
(** A scheduler over pre-connected endpoints ([None] slots are workers
    that failed to come up; like crashed workers' slots they are
    refilled by [respawn] under the backoff below). [retries] (default [2]) bounds how many crashed executions
    a task absorbs before [Worker_lost]; [timeout_s] kills a worker
    stuck on one task; [steal_after] (default [1.0]s, clamped to
    [>= 0.01]) is the in-flight age below which tasks are never
    duplicated. A [respawn] that returns [None] after a crash is
    retried from [map] with exponential backoff (1s doubling to 10s)
    while tasks are pending, so a slot whose worker comes back later
    (a restarted daemon, a busy daemon finishing its severed task) is
    recovered instead of silently lost; [respawn] should therefore
    fail fast rather than block. *)

val map : sched -> ('a -> 'b) -> 'a array -> ('b, exn * string) result array
(** Run [f] over every element on the workers; results in input order.
    Worker-side task exceptions surface as
    [Error (Remote_failure _, backtrace)]; exhausted retries as
    [Error (Worker_lost _, "")]. Corrupt, truncated or garbage frames
    from a worker never raise — they read as that worker crashing. If
    no worker is left alive and none respawns, remaining tasks run on
    the calling process. Workers still running a duplicated task when
    the map completes are killed and respawned (their late frames must
    not leak into the next map) without counting as restarts. Not
    re-entrant. *)

val shutdown : sched -> unit
(** Close every endpoint (graceful path). Idempotent. *)

val workers : sched -> int
val restarts : sched -> int
val busy_times : sched -> float array

val store : sched -> Store.t
(** The scheduler's artifact store — exposed so callers (and tests)
    can pre-seed artifacts workers will fetch by digest. *)

(** {1 Process helpers shared by transports} *)

val close_noerr : Unix.file_descr -> unit
val kill_noerr : int -> unit
val reap_noerr : int -> unit

val reap_with_grace : int -> unit
(** Wait up to ~1s for a child asked to exit, then SIGKILL and reap. *)
