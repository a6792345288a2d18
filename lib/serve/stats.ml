type t = {
  mutable retiers : int;
  mutable warm : int;
  mutable cold : int;
  mutable cached : int;
  mutable unchanged : int;
  mutable fallbacks : int;
  mutable evaluations : int;
  mutable lat : float list;  (* seconds, reverse arrival order *)
}

let create () =
  {
    retiers = 0;
    warm = 0;
    cold = 0;
    cached = 0;
    unchanged = 0;
    fallbacks = 0;
    evaluations = 0;
    lat = [];
  }

let observe t ~solve ~latency_s ~evaluations ~fallback =
  t.retiers <- t.retiers + 1;
  (match solve with
  | `Warm -> t.warm <- t.warm + 1
  | `Cold -> t.cold <- t.cold + 1
  | `Cached -> t.cached <- t.cached + 1
  | `Unchanged -> t.unchanged <- t.unchanged + 1);
  if fallback then t.fallbacks <- t.fallbacks + 1;
  t.evaluations <- t.evaluations + evaluations;
  t.lat <- latency_s :: t.lat

type summary = {
  retiers : int;
  warm : int;
  cold : int;
  cached : int;
  unchanged : int;
  fallbacks : int;
  evaluations : int;
  evals_per_solve : float option;
  p50_ms : float option;
  p99_ms : float option;
  max_ms : float option;
}

(* Nearest rank over a sorted sample. An empty histogram has no
   quantiles — [None], not a sentinel 0 that reads as "instant" — and a
   single observation is every quantile of itself. *)
let percentile sorted ~p =
  let n = Array.length sorted in
  if n = 0 then None
  else if n = 1 || p <= 0. then Some sorted.(0)
  else
    (* Nearest rank: smallest index whose rank covers p percent. *)
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    Some sorted.(rank - 1)

let summary t =
  let lat = Array.of_list t.lat in
  Array.sort Float.compare lat;
  let n = Array.length lat in
  let solves = t.warm + t.cold in
  let scale = Option.map (fun v -> 1e3 *. v) in
  {
    retiers = t.retiers;
    warm = t.warm;
    cold = t.cold;
    cached = t.cached;
    unchanged = t.unchanged;
    fallbacks = t.fallbacks;
    evaluations = t.evaluations;
    evals_per_solve =
      (if solves = 0 then None
       else Some (float_of_int t.evaluations /. float_of_int solves));
    p50_ms = scale (percentile lat ~p:50.);
    p99_ms = scale (percentile lat ~p:99.);
    max_ms = (if n = 0 then None else Some (1e3 *. lat.(n - 1)));
  }

type run = {
  records : int;
  dropped_dup : int option;
  late : int;
  seq_gaps : int;
  malformed : int;
  shards : int;
  occupancy : float;
  wall_s : float;
  records_per_s : float;
}

let report s run =
  let cell_i = string_of_int in
  let cell_oi = function None -> "off" | Some v -> cell_i v in
  let cell_of = function None -> "n/a" | Some v -> Tiered.Report.cell_f v in
  Tiered.Report.make ~title:"serve: streaming re-tier"
    ~header:[ "metric"; "value" ]
    [
      [ "records ingested"; cell_i run.records ];
      [ "records/s"; Tiered.Report.cell_f run.records_per_s ];
      [ "ingest shards"; cell_i run.shards ];
      [ "duplicates dropped"; cell_oi run.dropped_dup ];
      [ "late drops"; cell_i run.late ];
      [ "sequence gaps"; cell_i run.seq_gaps ];
      [ "malformed packets"; cell_i run.malformed ];
      [ "window occupancy"; Tiered.Report.cell_pct run.occupancy ];
      [ "re-tiers"; cell_i s.retiers ];
      [ "warm / unchanged / cold"; Printf.sprintf "%d / %d / %d" s.warm s.unchanged s.cold ];
      [ "cache hits"; cell_i s.cached ];
      [ "fallbacks"; cell_i s.fallbacks ];
      [ "re-tier p50 (ms)"; cell_of s.p50_ms ];
      [ "re-tier p99 (ms)"; cell_of s.p99_ms ];
      [ "re-tier max (ms)"; cell_of s.max_ms ];
      [ "seg evaluations"; cell_i s.evaluations ];
      [ "evaluations / solve"; cell_of s.evals_per_solve ];
      [ "wall (s)"; Tiered.Report.cell_f run.wall_s ];
    ]

let json_oi = function None -> "null" | Some v -> string_of_int v
let json_of = function None -> "null" | Some v -> Printf.sprintf "%.4f" v

let to_json s run =
  Printf.sprintf
    {|{"records": %d, "records_per_s": %.1f, "shards": %d, "dropped_dup": %s, "late": %d, "seq_gaps": %d, "malformed": %d, "occupancy": %.4f, "wall_s": %.4f, "retiers": %d, "warm": %d, "cold": %d, "cached": %d, "unchanged": %d, "fallbacks": %d, "evaluations": %d, "evals_per_solve": %s, "p50_retier_ms": %s, "p99_retier_ms": %s, "max_retier_ms": %s}|}
    run.records run.records_per_s run.shards (json_oi run.dropped_dup)
    run.late run.seq_gaps run.malformed run.occupancy run.wall_s s.retiers
    s.warm s.cold s.cached s.unchanged s.fallbacks s.evaluations
    (json_of s.evals_per_solve) (json_of s.p50_ms) (json_of s.p99_ms) (json_of s.max_ms)
