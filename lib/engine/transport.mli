(** The worker-pipe scheduler behind {!Proc}.

    {!Proc} contributes {e endpoints} — forked, handshaken worker
    processes wrapped in an {!endpoint} record — and a respawn hook;
    this module owns everything else: length-prefixed frame IO, the
    handshake/resync magic, crash detection and bounded-retry requeue,
    per-task timeouts, local draining when every worker is gone, and
    the CAS side-channel that lets workers fetch and publish artifacts
    by digest over their task pipes.

    Each task runs exactly once unless a worker is lost: crash recovery
    re-executes the task a dead worker was running, so tasks must be
    pure (or idempotent). Results merge exactly once, in submission
    order. *)

exception Spawn_failure of string
(** No worker could be brought up (exec failure, fd exhaustion,
    handshake timeout). *)

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

(** {1 Framed IO} *)

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

(** {1 Worker side} *)

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

val serve_worker : in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit
(** Run the worker side of the protocol on an established channel:
    install the {!Cache.remote_tier} hook that forwards cache misses to
    the parent as [Cas_get]/[Cas_put] frames (the worker has no disk
    tier; the parent's {!Store} is its only store), emit [magic] + the
    ready frame,
    then serve task frames until EOF (returns normally; the caller
    decides the exit). The remote-tier hook is uninstalled on the way
    out. Callers must route stray stdout away from [out_fd] first when
    the channel is the process's fd 1. *)

(** {1 Parent side} *)

val handshake : deadline_s:float -> Unix.file_descr -> unit
(** Scan for [magic] (discarding init noise byte-by-byte) and read the
    ready frame, all under a deadline. Raises [Failure] or
    [End_of_file] when the peer is not a live worker. *)

type endpoint = {
  ep_send : Unix.file_descr;  (** parent writes down-frames *)
  ep_recv : Unix.file_descr;  (** parent selects/reads up-frames *)
  ep_kill : unit -> unit;  (** force the worker down now (SIGKILL) *)
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
  respawn:(int -> endpoint option) ->
  endpoint option array ->
  sched
(** A scheduler over pre-connected endpoints ([None] slots are workers
    that failed to come up; like crashed workers' slots they are
    refilled by [respawn] under the backoff below). [retries] (default
    [2]) bounds how many crashed executions a task absorbs before
    [Worker_lost]; [timeout_s] kills a worker stuck on one task. A
    [respawn] that returns [None] after a crash (a fork that failed
    transiently) is retried from [map] with exponential backoff (1s
    doubling to 10s) while tasks are pending, so the slot is recovered
    instead of silently lost; [respawn] should therefore fail fast
    rather than block. *)

val map : sched -> ('a -> 'b) -> 'a array -> ('b, exn * string) result array
(** Run [f] over every element on the workers; results in input order.
    Worker-side task exceptions surface as
    [Error (Remote_failure _, backtrace)]; exhausted retries as
    [Error (Worker_lost _, "")]. Corrupt, truncated or garbage frames
    from a worker never raise — they read as that worker crashing. If
    no worker is left alive and none respawns, remaining tasks run on
    the calling process. Each task runs exactly once unless a worker
    is lost. Not re-entrant. *)

val shutdown : sched -> unit
(** Close every endpoint (graceful path). Idempotent. *)

val workers : sched -> int
val restarts : sched -> int
val busy_times : sched -> float array

val store : sched -> Store.t
(** The scheduler's artifact store — exposed so callers (and tests)
    can pre-seed artifacts workers will fetch by digest. *)

(** {1 Process helpers} *)

val close_noerr : Unix.file_descr -> unit
val kill_noerr : int -> unit
val reap_noerr : int -> unit

val reap_with_grace : int -> unit
(** Wait up to ~1s for a child asked to exit, then SIGKILL and reap. *)
