(* Records buffered between snapshots, one column per field the drain
   reads. Unboxed int and float columns cost the major GC nothing to
   scan, where a list of boxed records costs it a whole re-tier
   interval of objects on every pass. *)
type cols = {
  src : Flowgen.Ipv4.t array;
  dst : Flowgen.Ipv4.t array;
  src_port : int array;
  dst_port : int array;
  proto : int array;
  first_s : int array;
  bytes : Float.Array.t;
}

let make_cols n =
  let ints () = Array.make n 0 and addrs () = Array.make n (Flowgen.Ipv4.of_int 0) in
  {
    src = addrs ();
    dst = addrs ();
    src_port = ints ();
    dst_port = ints ();
    proto = ints ();
    first_s = ints ();
    bytes = Float.Array.make n 0.;
  }

(* Twice the rows, the first [n] carried over. *)
let grow c n =
  let d = make_cols (2 * n) in
  Array.blit c.src 0 d.src 0 n;
  Array.blit c.dst 0 d.dst 0 n;
  Array.blit c.src_port 0 d.src_port 0 n;
  Array.blit c.dst_port 0 d.dst_port 0 n;
  Array.blit c.proto 0 d.proto 0 n;
  Array.blit c.first_s 0 d.first_s 0 n;
  Float.Array.blit c.bytes 0 d.bytes 0 n;
  d

let initial_rows = 256

type part = {
  p_dedup : Flowgen.Dedup.Stream.t option;
  p_window : Window.t;
  mutable p_cols : cols;
  mutable p_count : int;
}

type t = { parts : part array; wp : Window.params }

let create ?(expected = 1024) ~shards ~dedup wp =
  if shards < 1 then invalid_arg "Serve.Shards: shards < 1";
  let per = Stdlib.max 16 (expected / shards) in
  {
    parts =
      Array.init shards (fun _ ->
          {
            p_dedup =
              (if dedup then Some (Flowgen.Dedup.Stream.create ~expected:per ())
               else None);
            p_window = Window.create ~expected:per wp;
            p_cols = make_cols initial_rows;
            p_count = 0;
          });
    wp;
  }

let shards t = Array.length t.parts
let window_params t = t.wp
let dedup_enabled t = Option.is_some t.parts.(0).p_dedup

(* Stable per-prefix partition: both endpoints' /24 prefixes mixed
   through fixed odd constants. A flow (and every duplicate of it,
   which shares the 5-tuple) lands on one shard for the life of the
   stream, so per-shard dedup state and per-flow ring accumulation see
   exactly the records they would in a single-shard run. *)
let shard_of_pair t src dst =
  let k = Array.length t.parts in
  if k = 1 then 0
  else
    let s = Flowgen.Ipv4.to_int src lsr 8 in
    let d = Flowgen.Ipv4.to_int dst lsr 8 in
    let h = (s * 0x9E3779B1) lxor (d * 0x85EBCA6B) in
    h land max_int mod k

let shard_of t r = shard_of_pair t r.Flowgen.Netflow.src r.Flowgen.Netflow.dst

let push t ~src ~dst ~src_port ~dst_port ~proto ~first_s ~bytes =
  let p = t.parts.(shard_of_pair t src dst) in
  let k = p.p_count in
  if k = Array.length p.p_cols.first_s then p.p_cols <- grow p.p_cols k;
  let c = p.p_cols in
  c.src.(k) <- src;
  c.dst.(k) <- dst;
  c.src_port.(k) <- src_port;
  c.dst_port.(k) <- dst_port;
  c.proto.(k) <- proto;
  c.first_s.(k) <- first_s;
  Float.Array.set c.bytes k bytes;
  p.p_count <- k + 1

let observe t (r : Flowgen.Netflow.record) =
  push t ~src:r.src ~dst:r.dst ~src_port:r.src_port ~dst_port:r.dst_port
    ~proto:r.proto ~first_s:r.first_s ~bytes:r.bytes

let pending t =
  Array.fold_left (fun acc p -> acc + p.p_count) 0 t.parts

(* Drain one shard's buffered records into its dedup + window, advance
   its ring and retire dedup keys the window can no longer hold, then
   snapshot. Runs on a pool worker; it touches only this shard's
   state. *)
let drain wp part ~bin ~retire_s =
  let c = part.p_cols in
  for i = 0 to part.p_count - 1 do
    let src = c.src.(i) and dst = c.dst.(i) and first_s = c.first_s.(i) in
    let keep =
      match part.p_dedup with
      | None -> true
      | Some dd ->
          Flowgen.Dedup.Stream.observe_fields dd ~src ~dst
            ~src_port:c.src_port.(i) ~dst_port:c.dst_port.(i)
            ~proto:c.proto.(i) ~first_s
    in
    if keep then
      ignore
        (Window.observe part.p_window ~src ~dst
           ~bytes:(Float.Array.get c.bytes i)
           ~bin:(Window.bin_of_second wp first_s))
  done;
  part.p_count <- 0;
  Window.advance_to part.p_window ~bin;
  (match part.p_dedup with
  | Some dd -> Flowgen.Dedup.Stream.forget_before dd ~first_s:retire_s
  | None -> ());
  Window.snapshot part.p_window

(* Deterministic merge: shard-major, slot order within each shard, each
   local uid injected into the dense global space [uid * k + shard].
   The injection is stable across windows (a flow's shard and local uid
   never change), and per-flow rates are bitwise those of a 1-shard run
   (a flow's records all land on its one shard, in arrival order), so
   downstream — which sorts flows by (cost, id) anyway — sees inputs
   independent of the shard count. *)
let merge t snaps ~bin =
  let k = Array.length t.parts in
  let total =
    Array.fold_left
      (fun acc s -> acc + Array.length s.Window.s_flows)
      0 snaps
  in
  let flows = Array.make total Window.{ f_src = Flowgen.Ipv4.of_int 0; f_dst = Flowgen.Ipv4.of_int 0; f_uid = 0; f_mbps = 0. } in
  let pos = ref 0 in
  let occupancy = ref 0. in
  let late = ref 0 in
  Array.iteri
    (fun shard s ->
      if s.Window.s_occupancy > !occupancy then occupancy := s.Window.s_occupancy;
      late := !late + s.Window.s_late;
      Array.iter
        (fun f ->
          flows.(!pos) <-
            { f with Window.f_uid = (f.Window.f_uid * k) + shard };
          incr pos)
        s.Window.s_flows)
    snaps;
  {
    Window.s_bin = bin;
    s_flows = flows;
    s_occupancy = !occupancy;
    s_late = !late;
  }

let snapshot ?pool t ~bin ~retire_s =
  let k = Array.length t.parts in
  let snaps =
    match pool with
    (* Shard state lives in this process; a Procs pool would drain
       out-of-process copies and discard the mutations, so only the
       domain backend may parallelize here. *)
    | Some pool when k > 1 && (match Engine.Pool.backend pool with
                              | Engine.Pool.Domains -> true
                              | Engine.Pool.Procs -> false)
      ->
        Engine.Pool.map pool
          (fun i -> drain t.wp t.parts.(i) ~bin ~retire_s)
          (Array.init k Fun.id)
    | _ -> Array.map (fun p -> drain t.wp p ~bin ~retire_s) t.parts
  in
  merge t snaps ~bin

let flow_count t =
  Array.fold_left (fun acc p -> acc + Window.flow_count p.p_window) 0 t.parts

let late t =
  Array.fold_left (fun acc p -> acc + Window.late p.p_window) 0 t.parts

let dropped_dup t =
  if dedup_enabled t then
    Some
      (Array.fold_left
         (fun acc p ->
           match p.p_dedup with
           | Some dd -> acc + Flowgen.Dedup.Stream.dropped dd
           | None -> acc)
         0 t.parts)
  else None
