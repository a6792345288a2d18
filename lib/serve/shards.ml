type part = {
  p_dedup : Flowgen.Dedup.Stream.t option;
  p_window : Window.t;
  mutable p_pending : Flowgen.Netflow.record list;  (* reverse order *)
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
            p_pending = [];
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
let shard_of t r =
  let k = Array.length t.parts in
  if k = 1 then 0
  else
    let s = Flowgen.Ipv4.to_int r.Flowgen.Netflow.src lsr 8 in
    let d = Flowgen.Ipv4.to_int r.Flowgen.Netflow.dst lsr 8 in
    let h = (s * 0x9E3779B1) lxor (d * 0x85EBCA6B) in
    h land max_int mod k

let observe t r =
  let p = t.parts.(shard_of t r) in
  p.p_pending <- r :: p.p_pending;
  p.p_count <- p.p_count + 1

let pending t =
  Array.fold_left (fun acc p -> acc + p.p_count) 0 t.parts

(* Drain one shard's buffered records into its dedup + window, advance
   its ring and retire dedup keys the window can no longer hold, then
   snapshot. Runs on a pool worker; it touches only this shard's
   state. *)
let drain wp part ~bin ~retire_s =
  List.iter
    (fun r ->
      let keep =
        match part.p_dedup with
        | None -> true
        | Some dd -> Flowgen.Dedup.Stream.observe dd r
      in
      if keep then
        ignore
          (Window.observe part.p_window ~src:r.Flowgen.Netflow.src
             ~dst:r.Flowgen.Netflow.dst ~bytes:r.Flowgen.Netflow.bytes
             ~bin:(Window.bin_of_time wp (float_of_int r.Flowgen.Netflow.first_s))))
    (List.rev part.p_pending);
  part.p_pending <- [];
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
    (* Shard state lives in this process; a Procs or Remote pool would
       drain out-of-process copies and discard the mutations, so only
       the domain backend may parallelize here. *)
    | Some pool when k > 1 && (match Engine.Pool.backend pool with
                              | Engine.Pool.Domains -> true
                              | Engine.Pool.Procs | Engine.Pool.Remote _ -> false)
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
