(* The binary wire codec (Flowgen.Netflow.Wire): NetFlow v5 + minimal
   IPFIX encode/decode round trips, per-exporter sequence accounting,
   and the never-raises contract on truncated or hostile input. *)

open Flowgen.Netflow

let ip = Flowgen.Ipv4.of_int

let rec_ ?(router = 0) ?(src_port = 1000) ?(dst_port = 80) ?(proto = 6)
    ?(packets = 3.) ~src ~dst ~bytes ~first_s ~last_s () =
  {
    src = ip src;
    dst = ip dst;
    src_port;
    dst_port;
    proto;
    bytes;
    packets;
    first_s;
    last_s;
    router;
  }

let check_record name (a : record) (b : record) =
  Alcotest.(check int) (name ^ ": src") (Flowgen.Ipv4.to_int a.src)
    (Flowgen.Ipv4.to_int b.src);
  Alcotest.(check int) (name ^ ": dst") (Flowgen.Ipv4.to_int a.dst)
    (Flowgen.Ipv4.to_int b.dst);
  Alcotest.(check int) (name ^ ": src_port") a.src_port b.src_port;
  Alcotest.(check int) (name ^ ": dst_port") a.dst_port b.dst_port;
  Alcotest.(check int) (name ^ ": proto") a.proto b.proto;
  Alcotest.(check (float 0.)) (name ^ ": bytes") a.bytes b.bytes;
  Alcotest.(check (float 0.)) (name ^ ": packets") a.packets b.packets;
  Alcotest.(check int) (name ^ ": first_s") a.first_s b.first_s;
  Alcotest.(check int) (name ^ ": last_s") a.last_s b.last_s;
  Alcotest.(check int) (name ^ ": router") a.router b.router

let check_stream name originals wire =
  let decoded, c = Wire.decode_string wire in
  Alcotest.(check int)
    (name ^ ": count")
    (List.length originals) (List.length decoded);
  List.iteri
    (fun i (a, b) ->
      check_record (Printf.sprintf "%s[%d]" name i) (Wire.normalize a) b)
    (List.combine originals decoded);
  Alcotest.(check int) (name ^ ": no gaps") 0 c.Wire.c_seq_gaps;
  Alcotest.(check int) (name ^ ": no malformed") 0 c.Wire.c_malformed;
  c

let test_v5_roundtrip () =
  (* Fractional counters round to the wire integers; everything else is
     carried exactly. *)
  let originals =
    [
      rec_ ~src:0x0A000001 ~dst:0xC0A80102 ~bytes:1500.6 ~packets:2.4
        ~first_s:0 ~last_s:3600 ();
      rec_ ~router:3 ~src_port:443 ~proto:17 ~src:7 ~dst:9 ~bytes:64.
        ~packets:1. ~first_s:7200 ~last_s:7201 ();
      rec_ ~router:3 ~src:8 ~dst:10 ~bytes:0. ~packets:0. ~first_s:7200
        ~last_s:7200 ();
    ]
  in
  let wire = String.concat "" (Wire.encode originals) in
  let c = check_stream "v5" originals wire in
  (* Router 0's record and router 3's run: two packets. *)
  Alcotest.(check int) "packets" 2 c.Wire.c_packets;
  Alcotest.(check int) "records" 3 c.Wire.c_records

let test_ipfix_roundtrip () =
  (* Counters past 32 bits and router ids past 255 both force IPFIX;
     the 64-bit fields carry them exactly. *)
  let originals =
    [
      rec_ ~src:1 ~dst:2 ~bytes:6.0e9 ~packets:5.0e6 ~first_s:100
        ~last_s:4_300_000 ();
      rec_ ~router:1000 ~src:3 ~dst:4 ~bytes:512. ~packets:1. ~first_s:5
        ~last_s:6 ();
    ]
  in
  let wire = String.concat "" (Wire.encode originals) in
  ignore (check_stream "ipfix" originals wire)

let test_mixed_stream_order () =
  (* v5 and IPFIX packets interleave in one stream; decode preserves
     record order across format boundaries. *)
  let big i = 5.0e9 +. float_of_int i and small i = 100. +. float_of_int i in
  let originals =
    List.init 10 (fun i ->
        rec_ ~src:(i + 1) ~dst:(i + 100)
          ~bytes:(if i mod 2 = 0 then big i else small i)
          ~first_s:(i * 10)
          ~last_s:((i * 10) + 5)
          ())
  in
  let packets = Wire.encode originals in
  (* Strict alternation: every record flips format, so each gets its
     own packet. *)
  Alcotest.(check int) "one packet per flip" 10 (List.length packets);
  ignore (check_stream "mixed" originals (String.concat "" packets))

let test_sequence_gap_accounting () =
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  (* v5 sequence counts flows: a jump of 5 flows on one exporter. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:0 [ r 0; r 1 ]
    ^ Wire.encode_v5 ~router:0 ~seq:7 [ r 2 ]
  in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "flow gap" 5 c.Wire.c_seq_gaps;
  (* Exporters are independent: router 1 starting at an arbitrary seq
     is not a gap, and neither is the v5/IPFIX family split on the
     same router id. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:0 [ r 0 ]
    ^ Wire.encode_v5 ~router:1 ~seq:900 [ r 1 ]
    ^ Wire.encode_ipfix ~router:0 ~seq:77 [ r 2 ]
    ^ Wire.encode_v5 ~router:0 ~seq:1 [ r 3 ]
    ^ Wire.encode_ipfix ~router:0 ~seq:78 [ r 4 ]
  in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "no cross-exporter gaps" 0 c.Wire.c_seq_gaps;
  Alcotest.(check int) "all decoded" 5 (List.length recs);
  (* Reordered (seq going backwards) is not a gap either — only
     forward jumps count missing data. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:5 [ r 0 ] ^ Wire.encode_v5 ~router:0 ~seq:2 [ r 1 ]
  in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "no negative gaps" 0 c.Wire.c_seq_gaps

let test_truncated_tail () =
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  let good = Wire.encode_v5 ~router:0 ~seq:0 [ r 0; r 1 ] in
  let next = Wire.encode_v5 ~router:0 ~seq:2 [ r 2 ] in
  (* Cut the second packet mid-record: the first decodes, the stump is
     one malformed frame, and nothing raises. *)
  let wire = good ^ String.sub next 0 (String.length next - 7) in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "whole packet decoded" 2 (List.length recs);
  Alcotest.(check int) "stump counted" 1 c.Wire.c_malformed;
  (* Cut inside the header too. *)
  let wire = good ^ String.sub next 0 5 in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "short header counted" 1 c.Wire.c_malformed

let test_garbage_never_raises () =
  (* Deterministic pseudo-random byte strings, raw and appended to a
     valid packet: decode must terminate with counters, never raise. *)
  let lcg = ref 12345 in
  let next_byte () =
    lcg := ((!lcg * 1103515245) + 12_345) land 0x3FFF_FFFF;
    Char.chr (!lcg land 0xFF)
  in
  let garbage n = String.init n (fun _ -> next_byte ()) in
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let good = Wire.encode_v5 ~router:0 ~seq:0 [ r ] in
  List.iter
    (fun n ->
      let g = garbage n in
      (* Raw garbage: must terminate (never raise). *)
      ignore (Wire.decode_string g);
      let recs, c = Wire.decode_string (good ^ g) in
      Alcotest.(check bool)
        (Printf.sprintf "good record survives %d-byte tail" n)
        true
        (List.length recs >= 1 && c.Wire.c_records >= 1))
    [ 0; 1; 2; 3; 16; 24; 47; 48; 100; 1000 ]

let test_record_sanity_skipped () =
  (* A record whose Last precedes First is dropped and counted, the
     rest of the packet survives. Patch the wire bytes directly. *)
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  let wire = Bytes.of_string (Wire.encode_v5 ~router:0 ~seq:0 [ r 10; r 20 ]) in
  (* Record 0's Last (header 24 + record offset 28): set to 4ms, i.e.
     before its First of 10_000 ms. *)
  Bytes.set_int32_be wire (24 + 28) 4l;
  let recs, c = Wire.decode_string (Bytes.to_string wire) in
  Alcotest.(check int) "bad record dropped" 1 (List.length recs);
  Alcotest.(check int) "counted malformed" 1 c.Wire.c_malformed;
  Alcotest.(check int) "survivor intact" 20 (List.hd recs).first_s

let test_boot_epoch_reconstruction () =
  (* A v5 exporter with a nonzero boot epoch: First/Last are uptime-
     relative and must be rebased through unix_secs - sys_uptime. Start
     from the encoder's pinned packet and move the clock by hand. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:100 ~last_s:200 () in
  let wire = Bytes.of_string (Wire.encode_v5 ~router:0 ~seq:0 [ r ]) in
  (* Boot at 50s: unix_secs = 300, sys_uptime = 250_000 ms, and the
     record stamps become uptime-relative (first 50_000, last 150_000). *)
  Bytes.set_int32_be wire 4 250_000l;
  Bytes.set_int32_be wire 8 300l;
  Bytes.set_int32_be wire 12 0l;
  Bytes.set_int32_be wire (24 + 24) 50_000l;
  Bytes.set_int32_be wire (24 + 28) 150_000l;
  let recs, c = Wire.decode_string (Bytes.to_string wire) in
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  let d = List.hd recs in
  Alcotest.(check int) "first rebased" 100 d.first_s;
  Alcotest.(check int) "last rebased" 200 d.last_s

let test_ipfix_foreign_sets () =
  (* Template/options sets (unknown ids) are skipped; a data set after
     them still decodes; a data set with a broken stride is counted
     malformed without killing the message. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let data = Wire.encode_ipfix ~router:0 ~seq:0 [ r ] in
  (* Splice a foreign set (id 2, 8 bytes) between header and data set:
     rebuild the message with an adjusted length. *)
  let data_set = String.sub data 16 (String.length data - 16) in
  let total = 16 + 8 + String.length data_set in
  let b = Bytes.make total '\000' in
  Bytes.blit_string data 0 b 0 16;
  Bytes.set_uint16_be b 2 total;
  Bytes.set_uint16_be b 16 2 (* template set id *);
  Bytes.set_uint16_be b 18 8;
  Bytes.blit_string data_set 0 b 24 (String.length data_set);
  let recs, c = Wire.decode_string (Bytes.to_string b) in
  Alcotest.(check int) "data set survives foreign set" 1 (List.length recs);
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  (* Now corrupt the data set's length to a non-multiple stride. *)
  let bad = Bytes.of_string data in
  Bytes.set_uint16_be bad 2 (String.length data - 1);
  Bytes.set_uint16_be bad 18 (4 + 48 - 1);
  let recs, c =
    Wire.decode_string (Bytes.sub_string bad 0 (String.length data - 1))
  in
  Alcotest.(check int) "stride mismatch drops set" 0 (List.length recs);
  Alcotest.(check bool) "stride mismatch counted" true (c.Wire.c_malformed >= 1)

let test_empty_ipfix_message () =
  (* A 16-byte header-only IPFIX message is valid framing: no records,
     no malformed count, and the stream continues past it. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let empty = Bytes.make 16 '\000' in
  Bytes.set_uint16_be empty 0 10;
  Bytes.set_uint16_be empty 2 16;
  let wire = Bytes.to_string empty ^ Wire.encode_v5 ~router:0 ~seq:0 [ r ] in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "record after empty message" 1 (List.length recs);
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  Alcotest.(check int) "both frames counted" 2 c.Wire.c_packets

let test_channel_reader () =
  (* write_file + of_channel round trip — the benchmark and `serve --from`
     path. *)
  let originals =
    List.init 100 (fun i ->
        rec_ ~router:(i mod 3) ~src:(i + 1) ~dst:(i + 500)
          ~bytes:(float_of_int (1000 + i))
          ~first_s:i ~last_s:(i + 2) ())
  in
  let path = Filename.temp_file "wire_test" ".nf" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wire.write_file path originals;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let reader = Wire.of_channel ic in
          let decoded = Wire.read_all reader in
          Alcotest.(check int) "all back" 100 (List.length decoded);
          List.iteri
            (fun i (a, b) ->
              check_record (Printf.sprintf "file[%d]" i) (Wire.normalize a) b)
            (List.combine originals decoded);
          Alcotest.(check int) "no gaps" 0 (Wire.seq_gaps reader);
          Alcotest.(check int) "no malformed" 0 (Wire.malformed reader);
          Alcotest.(check int) "records counted" 100 (Wire.records reader)))

let test_encode_rejects_uncodable () =
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:(-5) ~last_s:1 () in
  Alcotest.check_raises "negative time" (Invalid_argument "")
    (fun () ->
      try ignore (Wire.encode [ r ]) with Invalid_argument _ ->
        raise (Invalid_argument ""));
  let r = rec_ ~router:70_000 ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  Alcotest.check_raises "router too wide" (Invalid_argument "")
    (fun () ->
      try ignore (Wire.encode [ r ]) with Invalid_argument _ ->
        raise (Invalid_argument ""))

let test_sequence_wrap () =
  (* Sequence numbers compare modulo 2^32: counting across the wrap is
     not a rewind, losses across it are gaps, and a stream re-encoded
     from zero (the benchmark's per-day restart) is a rewind. *)
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  let top = 0xFFFF_FFFE in
  let gaps wire = (snd (Wire.decode_string wire)).Wire.c_seq_gaps in
  let three = Wire.encode_v5 ~router:0 ~seq:top [ r 0; r 1; r 2 ] in
  Alcotest.(check int) "lossless wrap" 0
    (gaps (three ^ Wire.encode_v5 ~router:0 ~seq:1 [ r 3 ]));
  Alcotest.(check int) "4 lost across the wrap" 4
    (gaps (three ^ Wire.encode_v5 ~router:0 ~seq:5 [ r 3 ]));
  Alcotest.(check int) "ipfix wrap counts records" 2
    (gaps
       (Wire.encode_ipfix ~router:0 ~seq:top [ r 0 ]
       ^ Wire.encode_ipfix ~router:0 ~seq:1 [ r 1 ]));
  let day d = List.init 40 (fun i -> r ((d * 86_400) + i)) in
  Alcotest.(check int) "per-day restart is a rewind" 0
    (gaps (String.concat "" (Wire.encode (day 0) @ Wire.encode (day 1))))

let test_ipfix_counter_top_bit () =
  (* A 64-bit byte or packet counter at or above 2^63 would decode
     negative: the record is counted malformed, its neighbour kept. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  List.iter
    (fun field ->
      let wire = Bytes.of_string (Wire.encode_ipfix ~router:0 ~seq:0 [ r; r ]) in
      Bytes.set_uint8 wire (16 + 4 + field) 0x80;
      let recs, c = Wire.decode_string (Bytes.to_string wire) in
      Alcotest.(check int) "neighbour kept" 1 (List.length recs);
      Alcotest.(check int) "counted malformed" 1 c.Wire.c_malformed;
      Alcotest.(check (float 0.)) "bytes intact" 10. (List.hd recs).bytes)
    [ 16; 24 ]

(* Decoding must not depend on how the bytes arrive: a 1-byte trickle,
   random chunk sizes and one bulk string give the same records and
   counters on mixed v5/IPFIX streams with garbage or truncated tails,
   and none of them raises. *)
let prop_chunking_invariant =
  QCheck.Test.make ~name:"decode independent of refill chunking" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40)
           (quad (int_bound 3) (int_bound 500) bool (int_bound 5000)))
        (pair (int_bound 2) (int_bound 10_000))
        (int_bound 1_000_000))
    (fun (specs, (tail, k), seed) ->
      let records =
        List.map
          (fun (router, id, big, first_s) ->
            rec_ ~router ~src:(id + 1) ~dst:(id + 1000)
              ~bytes:(if big then 5.0e9 +. float_of_int id else 100. +. float_of_int id)
              ~first_s ~last_s:(first_s + 60) ())
          specs
      in
      let wire = String.concat "" (Wire.encode records) in
      let lcg = ref (seed lor 1) in
      let next_int () =
        lcg := ((!lcg * 1103515245) + 12_345) land 0x3FFF_FFFF;
        !lcg lsr 4
      in
      let wire =
        match tail with
        | 0 -> wire
        | 1 -> wire ^ String.init (k mod 200) (fun _ -> Char.chr (next_int () land 0xFF))
        | _ -> String.sub wire 0 (k mod (String.length wire + 1))
      in
      let chunked max_chunk =
        let pos = ref 0 in
        Wire.of_refill (fun b off len ->
            let k = Stdlib.min (Stdlib.min len (max_chunk ())) (String.length wire - !pos) in
            Bytes.blit_string wire !pos b off k;
            pos := !pos + k;
            k)
      in
      let run r =
        let recs = Wire.read_all r in
        (recs, (Wire.packets r, Wire.records r, Wire.seq_gaps r, Wire.malformed r))
      in
      match
        ( run (Wire.of_string wire),
          run (chunked (fun () -> 1)),
          run (chunked (fun () -> 1 + (next_int () mod 3000))) )
      with
      | a, b, c -> a = b && b = c
      | exception _ -> false)

let suite =
  [
    Alcotest.test_case "sequence wrap" `Quick test_sequence_wrap;
    Alcotest.test_case "ipfix counter top bit" `Quick test_ipfix_counter_top_bit;
    Alcotest.test_case "v5 round trip" `Quick test_v5_roundtrip;
    Alcotest.test_case "ipfix round trip" `Quick test_ipfix_roundtrip;
    Alcotest.test_case "mixed stream order" `Quick test_mixed_stream_order;
    Alcotest.test_case "sequence gap accounting" `Quick test_sequence_gap_accounting;
    Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
    Alcotest.test_case "garbage never raises" `Quick test_garbage_never_raises;
    Alcotest.test_case "record sanity skipped" `Quick test_record_sanity_skipped;
    Alcotest.test_case "boot epoch reconstruction" `Quick test_boot_epoch_reconstruction;
    Alcotest.test_case "ipfix foreign sets" `Quick test_ipfix_foreign_sets;
    Alcotest.test_case "empty ipfix message" `Quick test_empty_ipfix_message;
    Alcotest.test_case "channel reader" `Quick test_channel_reader;
    Alcotest.test_case "encode rejects uncodable" `Quick test_encode_rejects_uncodable;
    QCheck_alcotest.to_alcotest prop_chunking_invariant;
  ]
