(** Record streams for the daemon.

    The daemon consumes NetFlow records in nondecreasing [first_s]
    order (the contract {!Flowgen.Dedup.Stream.forget_before} and the
    window's late-drop accounting rely on). {!of_records} sorts a batch
    into that order; {!of_workload} synthesizes one day of records from
    a workload through the same {!Flowgen.Netflow.synthesize} path the
    batch pipeline uses — duplicates at every on-path router included —
    and replays it for [days] days, shifting timestamps by whole days,
    so arbitrarily long runs cost one day of synthesis. {!of_reader}
    pulls binary NetFlow v5/IPFIX packets off a wire stream; the
    reader holds at most 64 KiB of undecoded bytes plus one packet's
    decoded columns, so a stalled solver exerts backpressure on the
    channel.

    Every source is read through one cursor — {!advance} plus field
    accessors, the daemon's allocation-free path; {!next} builds a
    record from it. *)

type t

val of_records : Flowgen.Netflow.record list -> t
(** Sorts by [first_s] through {!Flowgen.Netflow.in_time_order} (stable,
    so router duplicates keep their emission order and streaming dedup
    stays deterministic). *)

val of_sequence : Flowgen.Netflow.record list -> t
(** Yields the records verbatim, in the given order — including orders
    that violate the nondecreasing-[first_s] contract. Out-of-order
    tests use this to pin what the pipeline does with misbehaving
    exporters; everything else should prefer {!of_records}. *)

val of_workload :
  ?shape:Flowgen.Netflow.shape ->
  ?days:int ->
  seed:int ->
  Flowgen.Workload.t ->
  t
(** [days] defaults to [1]. Raises [Invalid_argument] when
    [days < 1]. *)

val of_reader : Flowgen.Netflow.Wire.reader -> t
(** Wire ingest: records decoded on demand from framed NetFlow
    v5/IPFIX packets. Yields whatever order the wire carries. *)

val total : t -> int option
(** Records the stream will yield in all; [None] for wire streams
    (unknown until EOF). *)

val wire_counters : t -> (int * int) option
(** [(seq_gaps, malformed)] so far, for wire streams; [None]
    otherwise. *)

(** {1 Cursor} *)

val advance : t -> bool
(** Step to the next record; [false] at end of stream. The accessors
    below read the record under the cursor (for a wire stream, straight
    out of the reader's decoded columns) and are valid only after
    [advance] returned [true]. *)

val src : t -> Flowgen.Ipv4.t
val dst : t -> Flowgen.Ipv4.t
val src_port : t -> int
val dst_port : t -> int
val proto : t -> int
val first_s : t -> int
val bytes : t -> float

val next : t -> Flowgen.Netflow.record option
(** {!advance}, then the record under the cursor, built. *)
