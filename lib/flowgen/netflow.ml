type record = {
  src : Ipv4.t;
  dst : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : int;
  bytes : float;
  packets : float;
  first_s : int;
  last_s : int;
  router : int;
}

let pp_record ppf r =
  Format.fprintf ppf "%s:%d -> %s:%d proto=%d bytes=%.0f pkts=%.0f [%d,%d) @r%d"
    (Ipv4.to_string r.src) r.src_port (Ipv4.to_string r.dst) r.dst_port r.proto
    r.bytes r.packets r.first_s r.last_s r.router

let csv_header = "src,dst,src_port,dst_port,proto,bytes,packets,first_s,last_s,router"

let to_csv_line r =
  Printf.sprintf "%s,%s,%d,%d,%d,%.3f,%.3f,%d,%d,%d" (Ipv4.to_string r.src)
    (Ipv4.to_string r.dst) r.src_port r.dst_port r.proto r.bytes r.packets
    r.first_s r.last_s r.router

let of_csv_line line =
  match String.split_on_char ',' line with
  | [ src; dst; sp; dp; proto; bytes; packets; first_s; last_s; router ] -> (
      try
        {
          src = Ipv4.of_string src;
          dst = Ipv4.of_string dst;
          src_port = int_of_string sp;
          dst_port = int_of_string dp;
          proto = int_of_string proto;
          bytes = float_of_string bytes;
          packets = float_of_string packets;
          first_s = int_of_string first_s;
          last_s = int_of_string last_s;
          router = int_of_string router;
        }
      with Failure _ -> invalid_arg ("Netflow.of_csv_line: malformed line: " ^ line))
  | _ -> invalid_arg ("Netflow.of_csv_line: malformed line: " ^ line)

type ground_truth = {
  gt_src : Ipv4.t;
  gt_dst : Ipv4.t;
  gt_mbps : float;
  gt_routers : int list;
}

let day_seconds = 86_400

type shape = {
  bins : int;
  diurnal_amplitude : float;
  peak_hour : float;
  noise_cv : float;
}

let default_shape =
  { bins = 24; diurnal_amplitude = 0.5; peak_hour = 20.0; noise_cv = 0.15 }

let bytes_per_mbit_second = 125_000.

(* Common application ports weighted towards web traffic. *)
let port_choices = [| 443; 80; 443; 8080; 443; 22; 53; 993; 443; 25 |]

let synthesize ?(shape = default_shape) ~rng gts =
  if shape.bins <= 0 then invalid_arg "Netflow.synthesize: bins must be positive";
  if shape.diurnal_amplitude < 0. || shape.diurnal_amplitude >= 1. then
    invalid_arg "Netflow.synthesize: diurnal_amplitude out of [0, 1)";
  let bin_seconds = day_seconds / shape.bins in
  (* Normalized diurnal weights: mean exactly one so totals are exact. *)
  let weights =
    Array.init shape.bins (fun b ->
        let hour = float_of_int b *. 24. /. float_of_int shape.bins in
        1.
        +. shape.diurnal_amplitude
           *. cos (2. *. Float.pi *. (hour -. shape.peak_hour) /. 24.))
  in
  let weight_mean = Numerics.Stats.mean weights in
  let weights = Array.map (fun w -> w /. weight_mean) weights in
  let records = ref [] in
  List.iter
    (fun gt ->
      if gt.gt_mbps < 0. then invalid_arg "Netflow.synthesize: negative rate";
      if gt.gt_routers = [] then invalid_arg "Netflow.synthesize: flow with no observing router";
      let src_port = 1024 + Numerics.Rng.int rng 64_000 in
      let dst_port = Numerics.Rng.choose rng port_choices in
      let proto = if Numerics.Rng.float rng < 0.9 then 6 else 17 in
      (* Per-bin noise is shared across routers: every router sees the
         same wire traffic. *)
      let bin_bytes =
        Array.init shape.bins (fun b ->
            let noise =
              if Float.equal shape.noise_cv 0. then 1.
              else Numerics.Dist.lognormal_of_mean_cv rng ~mean:1. ~cv:shape.noise_cv
            in
            gt.gt_mbps *. bytes_per_mbit_second
            *. float_of_int bin_seconds *. weights.(b) *. noise)
      in
      List.iter
        (fun router ->
          Array.iteri
            (fun b bytes ->
              let packets = Float.max 1. (bytes /. 1000.) in
              records :=
                {
                  src = gt.gt_src;
                  dst = gt.gt_dst;
                  src_port;
                  dst_port;
                  proto;
                  bytes;
                  packets;
                  first_s = b * bin_seconds;
                  last_s = (b + 1) * bin_seconds;
                  router;
                }
                :: !records)
            bin_bytes)
        gt.gt_routers)
    gts;
  List.rev !records

let in_time_order records =
  List.stable_sort (fun a b -> Int.compare a.first_s b.first_s) records

(* ------------------------------------------------------------------ *)
(* Binary wire codec: NetFlow v5 and a minimal IPFIX data record.      *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  let v5_header_len = 24
  let v5_record_len = 48
  let v5_max_records = 30
  let ipfix_header_len = 16
  let ipfix_set_id = 256
  let ipfix_record_len = 48
  let max_packet_len = 65_535

  (* Unsigned big-endian accessors. [get_u32] returns a plain int (the
     host is 64-bit; lint forbids nothing here), [get_u64] may round
     through Int64 for byte counters only. *)
  let get_u16 b off = Bytes.get_uint16_be b off
  let get_u8 b off = Char.code (Bytes.get b off)
  let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF
  let get_u64 b off = Bytes.get_int64_be b off
  let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)
  let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xFF))
  let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFF_FFFF))
  let set_u64 b off v = Bytes.set_int64_be b off v

  (* Floor division: millisecond timestamps can go negative when an
     exporter's boot epoch reconstruction lands before the capture
     epoch; truncating division would round those towards zero. *)
  let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

  type counters = {
    mutable c_packets : int;
    mutable c_records : int;
    mutable c_seq_gaps : int;
    mutable c_malformed : int;
  }

  let fresh_counters () =
    { c_packets = 0; c_records = 0; c_seq_gaps = 0; c_malformed = 0 }

  (* ---------------------------- encode ---------------------------- *)

  let u32_max_f = 4_294_967_296.

  (* A record fits NetFlow v5 iff its counters fit 32 bits and its
     timestamps fit the 32-bit SysUptime millisecond clock. *)
  let v5_fits r =
    let o = Float.round r.bytes and p = Float.round r.packets in
    o >= 0. && o < u32_max_f && p >= 0. && p < u32_max_f
    && r.first_s >= 0
    && r.last_s >= 0
    && r.last_s <= 4_294_967 (* last_s * 1000 must fit u32 *)
    && r.router >= 0 && r.router <= 0xFF

  (* Encoder convention: boot epoch 0. SysUptime is set to the export
     millisecond and unix_secs/unix_nsecs to the same instant, so the
     decoder's boot reconstruction [unix_ms - sys_uptime] is exactly 0
     and First/Last round-trip to [first_s]/[last_s] without loss. *)
  let encode_v5 ~router ~seq records =
    let n = List.length records in
    if n < 1 || n > v5_max_records then
      invalid_arg "Netflow.Wire.encode_v5: record count out of [1, 30]";
    let export_s =
      List.fold_left (fun acc r -> Stdlib.max acc r.last_s) 0 records
    in
    let export_ms = export_s * 1000 in
    let b = Bytes.make (v5_header_len + (n * v5_record_len)) '\000' in
    set_u16 b 0 5;
    set_u16 b 2 n;
    set_u32 b 4 export_ms;
    set_u32 b 8 export_s;
    set_u32 b 12 0;
    set_u32 b 16 seq;
    set_u8 b 20 0;
    set_u8 b 21 router;
    set_u16 b 22 0;
    List.iteri
      (fun i r ->
        let off = v5_header_len + (i * v5_record_len) in
        set_u32 b off (Ipv4.to_int r.src);
        set_u32 b (off + 4) (Ipv4.to_int r.dst);
        set_u32 b (off + 8) 0 (* nexthop *);
        set_u16 b (off + 12) 0;
        set_u16 b (off + 14) 0 (* input/output ifindex *);
        set_u32 b (off + 16) (int_of_float (Float.round r.packets));
        set_u32 b (off + 20) (int_of_float (Float.round r.bytes));
        set_u32 b (off + 24) (r.first_s * 1000);
        set_u32 b (off + 28) (r.last_s * 1000);
        set_u16 b (off + 32) r.src_port;
        set_u16 b (off + 34) r.dst_port;
        set_u8 b (off + 37) 0 (* tcp_flags *);
        set_u8 b (off + 38) r.proto;
        set_u8 b (off + 39) 0 (* tos *))
      records;
    Bytes.unsafe_to_string b

  let encode_ipfix ~router ~seq records =
    let n = List.length records in
    if n < 1 then invalid_arg "Netflow.Wire.encode_ipfix: empty packet";
    let set_len = 4 + (n * ipfix_record_len) in
    let total = ipfix_header_len + set_len in
    if total > max_packet_len then
      invalid_arg "Netflow.Wire.encode_ipfix: packet too large";
    let export_s =
      List.fold_left (fun acc r -> Stdlib.max acc r.last_s) 0 records
    in
    let b = Bytes.make total '\000' in
    set_u16 b 0 10;
    set_u16 b 2 total;
    set_u32 b 4 export_s;
    set_u32 b 8 seq;
    set_u32 b 12 router;
    set_u16 b 16 ipfix_set_id;
    set_u16 b 18 set_len;
    List.iteri
      (fun i r ->
        let off = ipfix_header_len + 4 + (i * ipfix_record_len) in
        set_u32 b off (Ipv4.to_int r.src);
        set_u32 b (off + 4) (Ipv4.to_int r.dst);
        set_u16 b (off + 8) r.src_port;
        set_u16 b (off + 10) r.dst_port;
        set_u16 b (off + 12) r.proto;
        set_u16 b (off + 14) 0 (* pad *);
        set_u64 b (off + 16) (Int64.of_float (Float.round r.bytes));
        set_u64 b (off + 24) (Int64.of_float (Float.round r.packets));
        set_u64 b (off + 32) (Int64.of_int (r.first_s * 1000));
        set_u64 b (off + 40) (Int64.of_int (r.last_s * 1000)))
      records;
    Bytes.unsafe_to_string b

  (* Streams records into packets, preserving order. Consecutive records
     from the same router share a packet; v5 when all counters fit 32
     bits, IPFIX (64-bit counters) otherwise. Sequence numbers follow
     exporter semantics: v5 counts flows, IPFIX counts data records. *)
  let encode records =
    let packets = ref [] in
    let seqs : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let seq_key ~v5 router = (router lsl 1) lor (if v5 then 1 else 0) in
    let flush ~v5 ~router batch =
      match List.rev batch with
      | [] -> ()
      | recs ->
          let key = seq_key ~v5 router in
          let seq = Option.value ~default:0 (Hashtbl.find_opt seqs key) in
          let n = List.length recs in
          let pkt =
            if v5 then encode_v5 ~router ~seq recs
            else encode_ipfix ~router ~seq recs
          in
          Hashtbl.replace seqs key (seq + n);
          packets := pkt :: !packets
    in
    let batch = ref [] and b_n = ref 0 and b_v5 = ref true and b_router = ref (-1) in
    List.iter
      (fun r ->
        let v5 = v5_fits r in
        if (not (r.router >= 0 && r.router <= 0xFFFF)) || r.first_s < 0 then
          invalid_arg "Netflow.Wire.encode: record not encodable";
        if
          !b_n > 0
          && (!b_router <> r.router || !b_v5 <> v5 || !b_n >= v5_max_records)
        then begin
          flush ~v5:!b_v5 ~router:!b_router !batch;
          batch := [];
          b_n := 0
        end;
        b_v5 := v5;
        b_router := r.router;
        batch := r :: !batch;
        incr b_n)
      records;
    if !b_n > 0 then flush ~v5:!b_v5 ~router:!b_router !batch;
    List.rev !packets

  let write_channel oc records =
    List.iter (fun pkt -> output_string oc pkt) (encode records)

  let write_file path records =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> write_channel oc records)

  (* ---------------------------- decode ---------------------------- *)

  (* Pull-based framed reader. [refill] fills one 64 KiB buffer in bulk:
     the reader takes whatever each call returns and calls again only
     while the packet it is framing is incomplete, so a live pipe's
     packets decode as soon as their last byte lands. Packets are framed
     in place and decoded into reader-owned columns that [advance] walks
     with a cursor. Nothing else is buffered, and decoding is driven by
     the consumer: a stalled consumer stops pulling, which exerts
     backpressure on the channel instead of accumulating records. *)
  let buf_len = 65_536

  (* The most records one message can carry: a maximal IPFIX message
     holding a single data set. *)
  let max_records = (max_packet_len - ipfix_header_len - 4) / ipfix_record_len

  type reader = {
    refill : Bytes.t -> int -> int -> int;
    buf : Bytes.t;
    mutable lo : int;  (* first unframed byte *)
    mutable hi : int;  (* end of the bytes pulled so far *)
    mutable drained : bool;  (* [refill] returned 0 *)
    counters : counters;
    seqs : int ref Tbl.Int.t;  (* (router, family) -> next expected, mod 2^32 *)
    (* The current packet's accepted records, one column per field. *)
    col_src : Ipv4.t array;
    col_dst : Ipv4.t array;
    col_src_port : int array;
    col_dst_port : int array;
    col_proto : int array;
    col_first_s : int array;
    col_last_s : int array;
    col_router : int array;
    col_bytes : Float.Array.t;
    col_packets : Float.Array.t;
    mutable n : int;
    mutable i : int;  (* the cursor; -1 before the packet's first record *)
    mutable eof : bool;
  }

  let of_refill refill =
    let ints () = Array.make max_records 0 in
    let addrs () = Array.make max_records (Ipv4.of_int 0) in
    {
      refill;
      buf = Bytes.create buf_len;
      lo = 0;
      hi = 0;
      drained = false;
      counters = fresh_counters ();
      seqs = Tbl.Int.create 16;
      col_src = addrs ();
      col_dst = addrs ();
      col_src_port = ints ();
      col_dst_port = ints ();
      col_proto = ints ();
      col_first_s = ints ();
      col_last_s = ints ();
      col_router = ints ();
      col_bytes = Float.Array.make max_records 0.;
      col_packets = Float.Array.make max_records 0.;
      n = 0;
      i = -1;
      eof = false;
    }

  let of_channel ic = of_refill (fun b off len -> input ic b off len)

  let of_string s =
    let pos = ref 0 in
    of_refill (fun b off len ->
        let k = Stdlib.min len (String.length s - !pos) in
        Bytes.blit_string s !pos b off k;
        pos := !pos + k;
        k)

  let seq_gaps r = r.counters.c_seq_gaps
  let malformed r = r.counters.c_malformed
  let packets r = r.counters.c_packets
  let records r = r.counters.c_records

  (* Make [need] (<= buf_len) bytes available from [lo] on, pulling
     only while they are missing. [false] when the stream ends first. *)
  let fill r need =
    if r.hi - r.lo >= need then true
    else begin
      if r.lo = r.hi then begin
        r.lo <- 0;
        r.hi <- 0
      end
      else if r.lo + need > buf_len then begin
        Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
        r.hi <- r.hi - r.lo;
        r.lo <- 0
      end;
      while r.hi - r.lo < need && not r.drained do
        let k = r.refill r.buf r.hi (buf_len - r.hi) in
        if k <= 0 then r.drained <- true else r.hi <- r.hi + k
      done;
      r.hi - r.lo >= need
    end

  (* Sequence numbers are 32-bit serial numbers (RFC 1982): a forward
     distance below 2^31 is that many flows or records lost, including
     across a wrap; any other jump is a rewind or a reorder, never a
     gap. *)
  let note_seq r ~family ~router ~seq ~units =
    let key = (router lsl 1) lor family in
    let next = (seq + units) land 0xFFFF_FFFF in
    match Tbl.Int.find r.seqs key with
    | expected ->
        let gap = (seq - !expected) land 0xFFFF_FFFF in
        if gap < 0x8000_0000 then
          r.counters.c_seq_gaps <- r.counters.c_seq_gaps + gap;
        expected := next
    | exception Not_found -> Tbl.Int.add r.seqs key (ref next)

  (* Rebase record slot [k]'s timestamps and stage them. An insane
     record (negative First, Last before First) is counted instead. *)
  let stage r k ~first_ms ~last_ms =
    let first_s = fdiv first_ms 1000 and last_s = fdiv last_ms 1000 in
    if first_s < 0 || last_s < first_s then begin
      r.counters.c_malformed <- r.counters.c_malformed + 1;
      false
    end
    else begin
      r.counters.c_records <- r.counters.c_records + 1;
      r.col_first_s.(k) <- first_s;
      r.col_last_s.(k) <- last_s;
      true
    end

  (* A v5 packet of [count] records framed at buf[lo, lo + 24 + 48n). *)
  let decode_v5 r ~count =
    let b = r.buf and base = r.lo in
    let sys_uptime = get_u32 b (base + 4) in
    let unix_secs = get_u32 b (base + 8) in
    let unix_nsecs = get_u32 b (base + 12) in
    let seq = get_u32 b (base + 16) in
    let router = get_u8 b (base + 21) in
    note_seq r ~family:1 ~router ~seq ~units:count;
    let boot_ms = (unix_secs * 1000) + (unix_nsecs / 1_000_000) - sys_uptime in
    let n = ref 0 in
    for i = 0 to count - 1 do
      let off = base + v5_header_len + (i * v5_record_len) in
      let k = !n in
      if
        stage r k
          ~first_ms:(boot_ms + get_u32 b (off + 24))
          ~last_ms:(boot_ms + get_u32 b (off + 28))
      then begin
        r.col_src.(k) <- Ipv4.of_int (get_u32 b off);
        r.col_dst.(k) <- Ipv4.of_int (get_u32 b (off + 4));
        r.col_src_port.(k) <- get_u16 b (off + 32);
        r.col_dst_port.(k) <- get_u16 b (off + 34);
        r.col_proto.(k) <- get_u8 b (off + 38);
        r.col_router.(k) <- router;
        Float.Array.set r.col_bytes k (float_of_int (get_u32 b (off + 20)));
        Float.Array.set r.col_packets k (float_of_int (get_u32 b (off + 16)));
        n := k + 1
      end
    done;
    r.n <- !n

  (* An IPFIX message of [len] bytes framed at buf[lo, lo + len).
     Unknown set ids are skipped (templates, options); a recognized data
     set with a stride mismatch counts as malformed, and so does a
     record whose 64-bit byte or packet counter has its top bit set: it
     would read back negative and subtract from its flow. *)
  let decode_ipfix r ~len =
    let b = r.buf and base = r.lo in
    let stop = base + len in
    let seq = get_u32 b (base + 8) in
    let router = get_u32 b (base + 12) in
    let n = ref 0 and units = ref 0 in
    let pos = ref (base + ipfix_header_len) in
    let bad = ref false in
    while (not !bad) && !pos + 4 <= stop do
      let sid = get_u16 b !pos and slen = get_u16 b (!pos + 2) in
      if slen < 4 || !pos + slen > stop then begin
        r.counters.c_malformed <- r.counters.c_malformed + 1;
        bad := true
      end
      else begin
        if sid = ipfix_set_id then
          if (slen - 4) mod ipfix_record_len <> 0 then
            r.counters.c_malformed <- r.counters.c_malformed + 1
          else
            for i = 0 to ((slen - 4) / ipfix_record_len) - 1 do
              let off = !pos + 4 + (i * ipfix_record_len) in
              let k = !n in
              incr units;
              if get_u8 b (off + 16) lor get_u8 b (off + 24) >= 0x80 then
                r.counters.c_malformed <- r.counters.c_malformed + 1
              else if
                stage r k
                  ~first_ms:(Int64.to_int (get_u64 b (off + 32)))
                  ~last_ms:(Int64.to_int (get_u64 b (off + 40)))
              then begin
                r.col_src.(k) <- Ipv4.of_int (get_u32 b off);
                r.col_dst.(k) <- Ipv4.of_int (get_u32 b (off + 4));
                r.col_src_port.(k) <- get_u16 b (off + 8);
                r.col_dst_port.(k) <- get_u16 b (off + 10);
                r.col_proto.(k) <- get_u16 b (off + 12);
                r.col_router.(k) <- router;
                Float.Array.set r.col_bytes k (Int64.to_float (get_u64 b (off + 16)));
                Float.Array.set r.col_packets k (Int64.to_float (get_u64 b (off + 24)));
                n := k + 1
              end
            done;
        pos := !pos + slen
      end
    done;
    note_seq r ~family:0 ~router ~seq ~units:!units;
    r.n <- !n

  let malformed_end r =
    r.counters.c_malformed <- r.counters.c_malformed + 1;
    false

  (* Frame and decode the next packet into the columns. [false] means
     end of stream: clean EOF, or an unrecoverable framing error
     (counted in [malformed] — once the byte stream desynchronizes there
     is no resync point). *)
  let frame r =
    if not (fill r 2) then begin
      (* One stray byte is a truncated frame; none is a clean end. *)
      if r.hi > r.lo then ignore (malformed_end r);
      false
    end
    else
      match get_u16 r.buf r.lo with
      | 5 ->
          if not (fill r v5_header_len) then malformed_end r
          else
            let count = get_u16 r.buf (r.lo + 2) in
            let len = v5_header_len + (count * v5_record_len) in
            if count < 1 || count > v5_max_records || not (fill r len) then
              malformed_end r
            else begin
              r.counters.c_packets <- r.counters.c_packets + 1;
              decode_v5 r ~count;
              r.lo <- r.lo + len;
              true
            end
      | 10 ->
          if not (fill r ipfix_header_len) then malformed_end r
          else
            let len = get_u16 r.buf (r.lo + 2) in
            if len < ipfix_header_len || not (fill r len) then malformed_end r
            else begin
              r.counters.c_packets <- r.counters.c_packets + 1;
              (* A header-only message carries no data to account. *)
              if len = ipfix_header_len then r.n <- 0 else decode_ipfix r ~len;
              r.lo <- r.lo + len;
              true
            end
      | _ -> malformed_end r

  let rec advance r =
    if r.i + 1 < r.n then begin
      r.i <- r.i + 1;
      true
    end
    else if r.eof then false
    else if frame r then begin
      r.i <- -1;
      advance r
    end
    else begin
      r.eof <- true;
      false
    end

  let src r = r.col_src.(r.i)
  let dst r = r.col_dst.(r.i)
  let src_port r = r.col_src_port.(r.i)
  let dst_port r = r.col_dst_port.(r.i)
  let proto r = r.col_proto.(r.i)
  let first_s r = r.col_first_s.(r.i)
  let bytes r = Float.Array.get r.col_bytes r.i

  let current r =
    let i = r.i in
    {
      src = r.col_src.(i);
      dst = r.col_dst.(i);
      src_port = r.col_src_port.(i);
      dst_port = r.col_dst_port.(i);
      proto = r.col_proto.(i);
      bytes = Float.Array.get r.col_bytes i;
      packets = Float.Array.get r.col_packets i;
      first_s = r.col_first_s.(i);
      last_s = r.col_last_s.(i);
      router = r.col_router.(i);
    }

  let read r = if advance r then Some (current r) else None

  let read_all r =
    let rec go acc = if advance r then go (current r :: acc) else List.rev acc in
    go []

  let decode_string s =
    let r = of_string s in
    let recs = read_all r in
    (recs, r.counters)

  (* The decoder rounds byte/packet counters to wire integers; tests
     compare against this normal form. *)
  let normalize r =
    { r with bytes = Float.round r.bytes; packets = Float.round r.packets }
end

let total_bytes records =
  Numerics.Stats.sum (Array.of_list (List.map (fun r -> r.bytes) records))

let mbps_of_bytes ~bytes ~seconds =
  if seconds <= 0 then invalid_arg "Netflow.mbps_of_bytes: non-positive window";
  bytes *. 8. /. float_of_int seconds /. 1e6
