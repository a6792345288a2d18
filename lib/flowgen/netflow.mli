(** NetFlow-style flow records and their synthesis.

    The paper's inputs are 24 hours of sampled NetFlow from core routers
    (§4.1.1). This module defines a v5-style record and synthesizes a
    day's worth of records from ground-truth flow intensities: traffic is
    spread over hourly bins with a diurnal shape and multiplicative
    noise, and each record is emitted at {e every} observing router so
    that the downstream pipeline has real duplicate-suppression work to
    do, exactly like the paper's. *)

type record = {
  src : Ipv4.t;
  dst : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : int;  (** IP protocol number; 6 = TCP, 17 = UDP. *)
  bytes : float;  (** Bytes in this record (float: sampling re-scales). *)
  packets : float;
  first_s : int;  (** Window start, seconds since capture start. *)
  last_s : int;  (** Window end (exclusive), seconds. *)
  router : int;  (** Observing router node id. *)
}

val pp_record : Format.formatter -> record -> unit

val to_csv_line : record -> string
val of_csv_line : string -> record
(** Round-trips {!to_csv_line}. Raises [Invalid_argument] on malformed
    input. *)

val csv_header : string

type ground_truth = {
  gt_src : Ipv4.t;
  gt_dst : Ipv4.t;
  gt_mbps : float;  (** Mean rate over the whole capture. *)
  gt_routers : int list;  (** Routers that observe (and duplicate) it. *)
}

val day_seconds : int
(** 86_400. *)

type shape = {
  bins : int;  (** Time bins over the day (default 24). *)
  diurnal_amplitude : float;  (** 0 = flat; 0.6 = pronounced day/night. *)
  peak_hour : float;  (** Hour of peak traffic, e.g. 20.0. *)
  noise_cv : float;  (** Per-bin lognormal noise CV. *)
}

val default_shape : shape

val synthesize :
  ?shape:shape -> rng:Numerics.Rng.t -> ground_truth list -> record list
(** Emits [bins * length gt_routers] records per ground-truth flow. The
    total bytes of a flow's records at any single router equal
    [gt_mbps * day_seconds * 125_000] up to the per-bin noise (which is
    mean-one). Ports and protocol are drawn from a realistic-looking
    fixed distribution. Records come flow by flow, so their [first_s]
    is {e not} monotone; see {!in_time_order}. *)

val in_time_order : record list -> record list
(** Stable sort by [first_s]: the nondecreasing order a streaming
    consumer needs, with same-second records (router duplicates of one
    window) kept in their given order. *)

(** Binary wire codec: NetFlow v5 packets and a minimal IPFIX (RFC 7011
    framing) data record, plus a framed pull-based reader with bounded
    buffering.

    The encoder keeps records in order and picks the format per record:
    NetFlow v5 when the byte/packet counters fit the format's 32-bit
    fields and the timestamps fit the 32-bit SysUptime millisecond
    clock, IPFIX (64-bit counters, absolute millisecond stamps)
    otherwise. Both coexist in one stream — every packet is
    self-describing through its version field. Byte/packet counts are
    rounded to wire integers; see {!Wire.normalize}.

    The decoder never raises on wire input: malformed packets, bad set
    strides, truncated tails and nonsense records are {e counted} (and
    skipped) rather than thrown. Sequence-number gaps are accounted per
    exporter (v5 [flow_sequence] counts flows; IPFIX sequence counts
    data records). *)
module Wire : sig
  type counters = {
    mutable c_packets : int;  (** Well-framed packets decoded. *)
    mutable c_records : int;  (** Records decoded and accepted. *)
    mutable c_seq_gaps : int;
        (** Total missing flows/records inferred from sequence jumps. *)
    mutable c_malformed : int;
        (** Bad frames, truncated tails, unusable records. *)
  }

  val encode_v5 : router:int -> seq:int -> record list -> string
  (** One NetFlow v5 packet (1–30 records, one router). The export
      clock is pinned so that decoding reconstructs [first_s]/[last_s]
      exactly. Raises [Invalid_argument] on an empty or oversized
      batch. *)

  val encode_ipfix : router:int -> seq:int -> record list -> string
  (** One IPFIX message with a single data set (set id 256, fixed
      48-byte records, 64-bit counters). The router id travels in the
      observation-domain field. *)

  val encode : record list -> string list
  (** Packetize a record stream in order, grouping consecutive
      same-router runs and tracking per-exporter sequence numbers.
      Raises [Invalid_argument] only on records that no format can
      carry (negative timestamps, router id above 65_535). *)

  val write_channel : out_channel -> record list -> unit
  val write_file : string -> record list -> unit

  type reader
  (** Framed pull-based decoder. It pulls bytes through its source in
      bulk into one 64 KiB buffer, frames packets in place and decodes
      each packet into reader-owned columns. Buffering is bounded by
      64 KiB of undecoded bytes plus one packet's columns (at most
      1364 records): a slow consumer stops pulling, which exerts
      backpressure on the underlying channel instead of queueing
      unbounded records. *)

  val of_channel : in_channel -> reader
  (** Works over files, pipes and socket channels alike. *)

  val of_string : string -> reader
  val of_refill : (Bytes.t -> int -> int -> int) -> reader
  (** [of_refill f] pulls bytes through [f buf off len] (returning the
      number of bytes written, 0 at end of stream), e.g. a
      [Unix.read] wrapper for nonblocking sockets. The reader takes
      whatever each call returns and calls again only while the packet
      it is framing is incomplete, so a live pipe's packets decode as
      soon as they land. *)

  (** {2 Cursor}

      The allocation-free read path: {!advance} steps to the next
      decoded record and the accessors read its fields in place. They
      are valid only after {!advance} returned [true]. *)

  val advance : reader -> bool
  (** Move to the next record, framing and decoding packets as needed.
      [false] is end of stream — clean EOF or an unrecoverable framing
      error (recorded in {!malformed}; a desynchronized byte stream has
      no resync point). Never raises on wire content. *)

  val src : reader -> Ipv4.t
  val dst : reader -> Ipv4.t
  val src_port : reader -> int
  val dst_port : reader -> int
  val proto : reader -> int
  val first_s : reader -> int
  val bytes : reader -> float

  val current : reader -> record
  (** The record under the cursor, built. *)

  val read : reader -> record option
  (** {!advance}, then {!current}: the next record, or [None] at end of
      stream. *)

  val read_all : reader -> record list

  val seq_gaps : reader -> int
  (** Records lost upstream, from per-exporter 32-bit sequence numbers
      compared modulo 2{^32}: a forward jump below 2{^31} is a gap
      (also across a wrap), any other jump is a rewind. *)

  val malformed : reader -> int
  val packets : reader -> int
  val records : reader -> int

  val decode_string : string -> record list * counters
  (** Decode a whole in-memory stream; for tests. *)

  val normalize : record -> record
  (** Rounds [bytes]/[packets] to the integers the wire carries —
      the fixpoint of an encode/decode round trip. *)
end

val total_bytes : record list -> float
val mbps_of_bytes : bytes:float -> seconds:int -> float
(** [bytes * 8 / seconds / 1e6]. *)
