(** Sharded ingest: per-prefix partitions of the dedup + window state,
    merged into one deterministic snapshot for the single re-tier
    thread.

    Records are routed by a stable hash of both endpoints' /24
    prefixes, so a flow — and every router duplicate of it, which
    shares the 5-tuple — lives on exactly one shard for the life of
    the stream. Each shard runs its own {!Flowgen.Dedup.Stream} and
    {!Window} ring and sees precisely the records it would in a
    1-shard run, in the same order; {!snapshot} drains all shards
    (in parallel on an {!Engine.Pool} of the Domains backend) and
    merges shard-major, slot order within each shard, injecting local
    uids into the dense global space [uid * shards + shard]. Per-flow
    rates are bitwise those of the 1-shard run and the re-tier layer
    sorts flows by (cost, id), so posted tiers are bitwise-identical
    at any shard count — the daemon shard tests pin this.

    Records buffer between snapshots (the daemon snapshots every
    [every_s] of stream time) in per-shard growable columns: one
    unboxed int or float array per field the drain reads, starting at
    256 rows and doubling. That keeps the drain single-writer per
    shard: the memory high-water mark is one re-tier interval of
    records, not the stream. *)

type t

val create : ?expected:int -> shards:int -> dedup:bool -> Window.params -> t
(** [shards >= 1] partitions ([1] degenerates to the unsharded
    pipeline, byte for byte). [dedup] enables per-shard streaming
    duplicate suppression. Raises [Invalid_argument] when
    [shards < 1]. *)

val shards : t -> int
val window_params : t -> Window.params
val dedup_enabled : t -> bool

val shard_of : t -> Flowgen.Netflow.record -> int
(** The partition a record routes to — pure in the endpoint prefixes. *)

val push :
  t ->
  src:Flowgen.Ipv4.t ->
  dst:Flowgen.Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  proto:int ->
  first_s:int ->
  bytes:float ->
  unit
(** Buffer one record's fields on its shard's columns (amortized O(1);
    no dedup or window work until the next {!snapshot}). *)

val observe : t -> Flowgen.Netflow.record -> unit
(** {!push} of a record's fields. *)

val pending : t -> int
(** Records buffered and not yet drained. *)

val snapshot :
  ?pool:Engine.Pool.t -> t -> bin:int -> retire_s:int -> Window.snapshot
(** Drain every shard's pending records through its dedup + window,
    advance all rings to [bin], retire dedup keys older than
    [retire_s], and merge the per-shard snapshots deterministically.
    With [pool] (Domains backend; a Procs pool silently falls back to
    serial — worker processes cannot mutate this process's shard
    state) the per-shard drains run in parallel; the merge is
    submission-ordered, so the result is identical either way. *)

val flow_count : t -> int
(** Distinct flows across all shards. *)

val late : t -> int
val dropped_dup : t -> int option
(** [None] when dedup is disabled. *)
