type source =
  | Replay of {
      template : Flowgen.Netflow.record array;  (* one day, sorted *)
      days : int;
      mutable day : int;
      mutable pos : int;
    }
  | Seq of { mutable rest : Flowgen.Netflow.record list; length : int }
  | Wire of Flowgen.Netflow.Wire.reader

(* The cursor. A wire record lives in the reader's decoded columns; a
   Replay or Seq record is [cur] with its timestamps moved by [shift]
   seconds (whole replayed days), so shifting copies nothing. *)
type t = {
  source : source;
  mutable cur : Flowgen.Netflow.record;
  mutable shift : int;
}

let before_first =
  let nowhere = Flowgen.Ipv4.of_int 0 in
  {
    Flowgen.Netflow.src = nowhere;
    dst = nowhere;
    src_port = 0;
    dst_port = 0;
    proto = 0;
    bytes = 0.;
    packets = 0.;
    first_s = 0;
    last_s = 0;
    router = 0;
  }

let make source = { source; cur = before_first; shift = 0 }

(* Stable, so router duplicates of the same window arrive in synthesis
   order and the streaming dedup's first-observation-wins choice is
   deterministic. *)
let sort_by_first records =
  Array.of_list (Flowgen.Netflow.in_time_order records)

let of_records records =
  make (Replay { template = sort_by_first records; days = 1; day = 0; pos = 0 })

let of_sequence records =
  make (Seq { rest = records; length = List.length records })

let of_workload ?shape ?(days = 1) ~seed w =
  if days < 1 then invalid_arg "Serve.Ingest.of_workload: days < 1";
  let rng = Numerics.Rng.create seed in
  let records =
    Flowgen.Netflow.synthesize ?shape ~rng (Flowgen.Workload.to_ground_truth w)
  in
  make (Replay { template = sort_by_first records; days; day = 0; pos = 0 })

let of_reader r = make (Wire r)

let total t =
  match t.source with
  | Replay { template; days; _ } -> Some (Array.length template * days)
  | Seq { length; _ } -> Some length
  | Wire _ -> None

let wire_counters t =
  match t.source with
  | Wire r ->
      Some (Flowgen.Netflow.Wire.seq_gaps r, Flowgen.Netflow.Wire.malformed r)
  | Replay _ | Seq _ -> None

let advance t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.advance r
  | Seq s -> (
      match s.rest with
      | [] -> false
      | x :: tl ->
          s.rest <- tl;
          t.cur <- x;
          true)
  | Replay r ->
      let len = Array.length r.template in
      if r.pos >= len then begin
        r.day <- r.day + 1;
        r.pos <- 0
      end;
      if r.day >= r.days || len = 0 then false
      else begin
        t.cur <- r.template.(r.pos);
        t.shift <- r.day * Flowgen.Netflow.day_seconds;
        r.pos <- r.pos + 1;
        true
      end

let src t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.src r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.src

let dst t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.dst r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.dst

let src_port t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.src_port r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.src_port

let dst_port t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.dst_port r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.dst_port

let proto t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.proto r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.proto

let first_s t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.first_s r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.first_s + t.shift

let bytes t =
  match t.source with
  | Wire r -> Flowgen.Netflow.Wire.bytes r
  | Replay _ | Seq _ -> t.cur.Flowgen.Netflow.bytes

let next t =
  if not (advance t) then None
  else
    match t.source with
    | Wire r -> Some (Flowgen.Netflow.Wire.current r)
    | Replay _ | Seq _ ->
        let r = t.cur in
        if t.shift = 0 then Some r
        else
          Some
            {
              r with
              first_s = r.Flowgen.Netflow.first_s + t.shift;
              last_s = r.Flowgen.Netflow.last_s + t.shift;
            }
