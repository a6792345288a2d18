(** TCP fleet worker backend: the {!Transport} scheduler over socket
    endpoints, so a sweep can run on worker daemons that live on
    {e other hosts}.

    Workers are started out-of-band with [tiered-cli worker --listen
    PORT] (typically via ssh; {!serve_forever} is the daemon loop) and
    the parent connects out to each [(host, port)]. A crashed worker is
    replaced by a reconnect to the same address. Same-host worker
    processes are {!Proc}'s job.

    Everything above the sockets — framing, handshake/resync, crash
    recovery with bounded retries, per-task timeouts, work stealing,
    local draining, and the CAS side-channel through which workers
    fetch/publish artifacts by digest — is {!Transport}, shared with
    the subprocess backend, so the two backends have identical task
    semantics (at-least-once execution, exactly-once result merging in
    submission order, byte-identical rendered output).

    {b Trust model.} Task frames are marshalled closures: speaking the
    protocol {e is} arbitrary code execution in the worker. Every TCP
    connection therefore starts with a shared-secret preamble (see
    {!Transport.write_auth}): daemons and their parents share a token
    via [TIERED_WORKER_TOKEN] (or [tiered-cli worker --token-file]).
    Daemons bind loopback by default and refuse a non-loopback bind
    without a token — but the token only authenticates, it does not
    encrypt: run workers on trusted/firewalled networks only. *)

type t

exception Spawn_failure of string
exception Remote_failure of { message : string }
exception Worker_lost of { attempts : int; reason : string }
(** Aliases of {!Transport}'s exceptions (and therefore of {!Proc}'s):
    matching on any of the three modules' constructors works. *)

val parse_spec : string -> ((string * int) list, string) result
(** ["host:port,host:port,…"] (the [--workers] argument syntax). The
    port is split off at the last [':'], so IPv6 literals parse as
    ["::1:7000"]. *)

val token_env : string
(** ["TIERED_WORKER_TOKEN"] — environment variable carrying the shared
    secret on both ends (tokens never travel on argv: ps shows argv). *)

val serve_forever : ?bind:string -> ?token:string -> port:int -> 'a
(** Run a standalone worker daemon: listen on [bind] (default
    ["127.0.0.1"]; IPv4 or IPv6; pass an interface address or
    ["0.0.0.0"] to opt in to external connections) and serve one
    parent connection at a time, forever — each connection must
    present [token] (default: the {!token_env} variable) before
    anything is unmarshalled; each re-applies the parent's disk-cache
    configuration, and in-memory artifact caches stay warm across
    connections (the schema stamp guards staleness). Raises [Failure]
    when [bind] is not loopback and no token is configured — an open
    port accepts closures, i.e. arbitrary code, so external exposure is
    double opt-in and still belongs behind a firewall. A severed
    connection does {e not} abort a computation already running here:
    the daemon finishes it, hits EPIPE, then accepts the next parent.
    This is [tiered-cli worker --listen]. Progress notes go to
    stderr. *)

val create :
  ?retries:int -> ?timeout_s:float -> ?token:string -> (string * int) list -> t
(** Connect to every daemon address and handshake it. [retries]
    (default [2]) bounds how many crashed executions a task absorbs;
    [timeout_s] gives up on a worker stuck on one task — the kill can
    only sever the connection, not abort the remote computation: the
    slot drops out, is retried with backoff, and rejoins once the
    daemon comes back (finishes or restarts). [token] defaults to the
    {!token_env} variable. Every address is tried: raises
    {!Spawn_failure} only when none answers; an address that does not
    answer leaves its slot empty for the scheduler's reconnect backoff.
    Side effect: [SIGPIPE] is ignored process-wide. *)

val workers : t -> int
val restarts : t -> int
val busy_times : t -> float array

val store : t -> Transport.Store.t
(** The parent-side artifact store answering the fleet's CAS frames —
    exposed so callers and tests can pre-seed artifacts workers will
    fetch by digest. *)

val map : t -> ('a -> 'b) -> 'a array -> ('b, exn * string) result array
(** Same contract as {!Transport.map}. *)

val shutdown : t -> unit
(** Close every worker connection. Idempotent. *)
