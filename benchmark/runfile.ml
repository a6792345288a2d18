(* The RUN.json document `benchmark.exe run` writes and `compare`
   reads: the host fingerprint, then per workload every end-to-end
   metric as the run's figure ({!value}) and median / q25 / q75 / min /
   n with its samples, and every per-layer metric the workload
   measured. *)

module J = Analysis.Json

let num v = if Float.is_finite v then J.Float v else J.Null

(* A run's figure for a metric: the best quartile of its repetitions
   (nearest rank, in the metric's better direction), except set-up,
   which is the median of its set-ups. On a shared host, co-tenants
   only ever slow a repetition — by up to 1.5x, in phases lasting
   seconds — so the repetitions pile up at the program's own speed and
   the median tracks how much of the run a neighbour was busy. *)
let value (m : Spec.metric) samples =
  if String.equal m.Spec.name "setup_s" then Sample.median samples
  else Sample.percentile samples ~p:(if m.Spec.lower_is_better then 25. else 75.)

let first_line path =
  match In_channel.with_open_bin path input_line with
  | line -> Some line
  | exception (Sys_error _ | End_of_file) -> None

let proc_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let loadavg () =
  match first_line "/proc/loadavg" with
  | Some l -> String.concat " " (List.filteri (fun i _ -> i < 3) (String.split_on_char ' ' l))
  | None -> "unknown"

let cpu_model () =
  match
    List.find_opt (String.starts_with ~prefix:"model name") (proc_lines "/proc/cpuinfo")
  with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

let cpus () =
  List.length
    (List.filter (String.starts_with ~prefix:"processor") (proc_lines "/proc/cpuinfo"))

let commit () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> String.trim l
      | _ -> "unknown")

(* Everything but the load average at the end, which the caller adds
   once the runs are over. *)
let host_start () =
  [
    ("nproc", J.Int (cpus ()));
    ("domains", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("commit", J.Str (commit ()));
    ("cpu", J.Str (cpu_model ()));
    ("loadavg_start", J.Str (loadavg ()));
  ]

let workload (spec : Spec.t) name (r : Sample.result) =
  let e2e =
    List.filter_map
      (fun (m : Spec.metric) ->
        Option.map
          (fun samples ->
            let q25, q75 = Sample.quartiles samples in
            ( m.Spec.name,
              J.Obj
                [
                  ("unit", J.Str m.Spec.unit_);
                  ("value", num (value m samples));
                  ("median", num (Sample.median samples));
                  ("q25", num q25);
                  ("q75", num q75);
                  ("min", num (Sample.sorted samples).(0));
                  ("n", J.Int (Array.length samples));
                  ("samples", J.List (Array.to_list (Array.map num samples)));
                ] ))
          (List.assoc_opt m.Spec.name r.Sample.end_to_end))
      spec.Spec.end_to_end
  in
  let layers =
    List.filter_map
      (fun (m : Spec.metric) ->
        Option.map
          (fun v -> (m.Spec.name, J.Obj [ ("unit", J.Str m.Spec.unit_); ("value", num v) ]))
          (List.assoc_opt m.Spec.name r.Sample.per_layer))
      spec.Spec.per_layer
  in
  J.Obj
    [
      ("name", J.Str name);
      ("attempted", J.Int r.Sample.attempted);
      ("failed", J.Int r.Sample.failed);
      ("end_to_end", J.Obj e2e);
      ("per_layer", J.Obj layers);
    ]

let document ~host ~seed ~seconds workloads =
  J.Obj
    [
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("host", J.Obj (host @ [ ("loadavg_end", J.Str (loadavg ())) ]));
      ("workloads", J.List workloads);
    ]

(* --- reading it back -------------------------------------------------------- *)

let workloads doc = Option.value ~default:[] (Option.bind (J.member "workloads" doc) J.to_list)

let find_workload doc name =
  List.find_opt (fun w -> Option.bind (J.member "name" w) J.to_str = Some name) (workloads doc)

let samples w metric =
  match Option.bind (J.member "end_to_end" w) (J.member metric) with
  | None -> None
  | Some m ->
      Option.map
        (fun l -> Array.of_list (List.filter_map Spec.number l))
        (Option.bind (J.member "samples" m) J.to_list)

let failed_ratio w =
  let int name = Option.value ~default:0 (Option.bind (J.member name w) J.to_int) in
  float_of_int (int "failed") /. float_of_int (Stdlib.max 1 (int "attempted"))
