(* The churned multi-day NetFlow stream the serve workloads replay.

   One day of records is synthesized from the workload's ground truth
   (every on-path router emits its own copy, as in the paper's §4.1.1
   collection) and sorted stably by [first_s], the order the daemon's
   ingest contract requires. Days are that template shifted by whole
   days, except that a churn cohort — every 11th flow id — is dark on
   odd days, so day boundaries change the window's flow {e set} and
   exercise the structural warm start while the rest of each day
   exercises suffix-dirty warm starts. *)

open Flowgen

let network flows = Printf.sprintf "eu_isp@%d" flows

(* [dedup] keeps one record per (5-tuple, window), the lowest router's,
   so the daemon's streaming dedup keeps everything it sees. *)
let template ~seed ~dedup w =
  let day =
    List.stable_sort
      (fun (a : Netflow.record) (b : Netflow.record) ->
        Int.compare a.Netflow.first_s b.Netflow.first_s)
      (Netflow.synthesize ~rng:(Numerics.Rng.create seed)
         (Workload.to_ground_truth w))
  in
  if dedup then Dedup.dedup day else day

let dark_pairs w =
  let dark = Hashtbl.create 256 in
  List.iter
    (fun (f : Workload.flow) ->
      if f.Workload.id mod 11 = 0 then
        Hashtbl.replace dark
          (Ipv4.to_int f.Workload.src_addr, Ipv4.to_int f.Workload.dst_addr)
          ())
    w.Workload.flows;
  dark

let day_records ~template ~dark day =
  let shift = day * Netflow.day_seconds in
  List.filter_map
    (fun (r : Netflow.record) ->
      if
        day mod 2 = 1
        && Hashtbl.mem dark (Ipv4.to_int r.Netflow.src, Ipv4.to_int r.Netflow.dst)
      then None
      else
        Some
          {
            r with
            Netflow.first_s = r.Netflow.first_s + shift;
            last_s = r.Netflow.last_s + shift;
          })
    template

(* Encode [days] days to a binary NetFlow v5/IPFIX file at [path] and
   return the record count. Each day is encoded on its own, so the
   generator holds one day of records rather than the whole stream;
   exporter sequence numbers restart per day, which the decoder reads
   as a rewind, never as a gap. *)
let write_wire ~seed ~days ~dedup w path =
  let template = template ~seed ~dedup w in
  let dark = dark_pairs w in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let n = ref 0 in
      for day = 0 to days - 1 do
        let records = day_records ~template ~dark day in
        n := !n + List.length records;
        Netflow.Wire.write_channel oc records
      done;
      !n)
