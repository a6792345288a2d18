(* The repeatable benchmark for the serve and sweep paths.

   benchmark.exe --workload W --seed N --seconds S --trace 0|1
     One workload. Prints every metric by name with its unit, then, as
     the last line, one JSON object: {"correct", "attempted", "failed",
     "metrics"} — the end-to-end metrics with --trace 0, the per-layer
     metrics of a separate traced repetition with --trace 1.

   benchmark.exe run --seed N --out RUN.json [--workload W] [--seconds S]
     Every workload (or one) in this process, untraced and traced, into
     one RUN.json with a host fingerprint. [S] defaults to the
     run_seconds of BENCHMARK.json.

   benchmark.exe compare OLD.json NEW.json
     Verdict per workload x end-to-end metric; exits 1 on a regression.

   benchmark.exe smoke
     Tiny versions of all four workloads with every check active, plus
     a self-test of compare.

   Metric names, units, directions and bounds come from BENCHMARK.json
   in the working directory (the repository root). Any failed
   correctness check aborts with exit code 1. *)

open Tiered

type workload = Serve of Serve_bench.cfg | Sweep of Sweep_bench.cfg

let serve name ~flows ~days ~every_s ~dedup_wire =
  Serve { Serve_bench.name; flows; days; every_s; dedup_wire }

let sweep name backend ~jobs experiments =
  Sweep { Sweep_bench.name; backend; jobs; experiments }

(* Why each workload exists is in BENCHMARK.json and README.md. *)
let workloads =
  [
    serve "serve-ingest" ~flows:2_000 ~days:12 ~every_s:86_400 ~dedup_wire:false;
    serve "serve-retier" ~flows:20_000 ~days:2 ~every_s:3_600 ~dedup_wire:true;
    sweep "sweep-serial" Engine.Pool.Domains ~jobs:1 Experiment.all;
    sweep "sweep-workers" Engine.Pool.Procs ~jobs:2 Experiment.all;
  ]

let smoke_workloads =
  let table1 = [ Experiment.find "table1" ] in
  [
    serve "smoke-ingest" ~flows:300 ~days:2 ~every_s:86_400 ~dedup_wire:false;
    serve "smoke-retier" ~flows:300 ~days:2 ~every_s:3_600 ~dedup_wire:true;
    sweep "smoke-serial" Engine.Pool.Domains ~jobs:1 table1;
    sweep "smoke-workers" Engine.Pool.Procs ~jobs:2 table1;
  ]

let name = function Serve c -> c.Serve_bench.name | Sweep c -> c.Sweep_bench.name

let find n =
  match List.find_opt (fun w -> String.equal (name w) n) (workloads @ smoke_workloads) with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ n)

(* Wire files live under the working directory, never in a system
   temporary directory, and are removed when the run ends. *)
let work_dir = ".bench_work"

let with_work_file n f =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let path = Filename.concat work_dir (Printf.sprintf "%s-%d.nf" n (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      try Sys.rmdir work_dir with Sys_error _ -> ())
    (fun () -> f path)

let measure ~seed ~seconds ~e2e ~trace = function
  | Serve cfg ->
      with_work_file cfg.Serve_bench.name (fun wire ->
          Serve_bench.run ~seed ~seconds ~e2e ~trace ~wire cfg)
  | Sweep cfg -> Sweep_bench.run ~seconds ~e2e ~trace cfg

let metric_named metrics n =
  List.find_opt (fun (m : Spec.metric) -> String.equal m.Spec.name n) metrics

(* Every metric the spec names, in its order: end-to-end as the run's
   figure ({!Runfile.value}); per-layer as measured, or 0 on a workload
   whose path never enters that layer. *)
let reported (spec : Spec.t) ~trace (r : Sample.result) =
  List.iter
    (fun (n, _) ->
      if metric_named spec.Spec.per_layer n = None then
        failwith ("per-layer metric missing from BENCHMARK.json: " ^ n))
    r.Sample.per_layer;
  let value (m : Spec.metric) =
    let v =
      if trace then Option.value ~default:0. (List.assoc_opt m.Spec.name r.Sample.per_layer)
      else
        match List.assoc_opt m.Spec.name r.Sample.end_to_end with
        | Some samples -> Runfile.value m samples
        | None -> failwith ("end-to-end metric not measured: " ^ m.Spec.name)
    in
    if not (Float.is_finite v) then failwith ("non-finite value for " ^ m.Spec.name);
    (m, v)
  in
  List.map value (if trace then spec.Spec.per_layer else spec.Spec.end_to_end)

let print_metrics wl (spec : Spec.t) (r : Sample.result) =
  Printf.printf "== %s: %d operations, %d failed\n" wl r.Sample.attempted r.Sample.failed;
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name r.Sample.end_to_end with
      | Some s ->
          let q25, q75 = Sample.quartiles s in
          Printf.printf "  %-32s %14.6g %-8s median %.6g  q25 %.6g  q75 %.6g  n %d\n"
            m.Spec.name (Runfile.value m s) m.Spec.unit_ (Sample.median s) q25 q75
            (Array.length s)
      | None -> ())
    spec.Spec.end_to_end;
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name r.Sample.per_layer with
      | Some v -> Printf.printf "  %-32s %14.6g %s\n" m.Spec.name v m.Spec.unit_
      | None -> ())
    spec.Spec.per_layer

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun ((m : Spec.metric), v) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.Spec.name v
              m.Spec.unit_)
          metrics))

let abort msg =
  prerr_endline ("benchmark: check failed: " ^ msg);
  exit 1

(* --- commands --------------------------------------------------------------- *)

let flag args name =
  let rec go = function
    | f :: v :: _ when String.equal f name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let usage () =
  prerr_endline
    "usage: benchmark.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       benchmark.exe run --seed N --out RUN.json [--workload W] [--seconds S]\n\
    \       benchmark.exe compare OLD.json NEW.json\n\
    \       benchmark.exe smoke";
  exit 2

let int_flag args name =
  match Option.bind (flag args name) int_of_string_opt with
  | Some n -> n
  | None -> usage ()

let driver args =
  let spec = Spec.load "BENCHMARK.json" in
  let wl = Option.value ~default:"" (flag args "--workload") in
  if not (List.mem wl spec.Spec.workloads) then usage ();
  let seed = int_flag args "--seed" in
  let seconds = float_of_int (int_flag args "--seconds") in
  let trace = match int_flag args "--trace" with 0 -> false | 1 -> true | _ -> usage () in
  match measure ~seed ~seconds ~e2e:(not trace) ~trace (find wl) with
  | r ->
      print_metrics wl spec r;
      print_endline
        (json_line ~correct:true ~attempted:r.Sample.attempted ~failed:r.Sample.failed
           (reported spec ~trace r))
  | exception Sample.Check_failed msg ->
      print_endline (json_line ~correct:false ~attempted:1 ~failed:1 []);
      abort msg

let run_all spec ~seed ~seconds wls =
  List.map
    (fun w ->
      Printf.eprintf "benchmark: %s...\n%!" (name w);
      let r = measure ~seed ~seconds ~e2e:true ~trace:true w in
      print_metrics (name w) spec r;
      (name w, r))
    wls

let document spec ~host ~seed ~seconds results =
  Runfile.document ~host ~seed ~seconds
    (List.map (fun (n, r) -> Runfile.workload spec n r) results)

let run_cmd args =
  let spec = Spec.load "BENCHMARK.json" in
  let seed = int_flag args "--seed" in
  let seconds =
    match flag args "--seconds" with
    | Some s -> float_of_string s
    | None -> spec.Spec.run_seconds
  in
  let out = match flag args "--out" with Some o -> o | None -> usage () in
  let wls =
    match flag args "--workload" with
    | None -> List.map find spec.Spec.workloads
    | Some w when List.mem w spec.Spec.workloads -> [ find w ]
    | Some _ -> usage ()
  in
  let host = Runfile.host_start () in
  match run_all spec ~seed ~seconds wls with
  | results ->
      Out_channel.with_open_bin out (fun oc ->
          output_string oc
            (Analysis.Json.to_string (document spec ~host ~seed ~seconds results)));
      Printf.printf "wrote %s\n" out
  | exception Sample.Check_failed msg -> abort msg

let read_doc path =
  match Analysis.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let compare_cmd old_path new_path =
  let spec = Spec.load "BENCHMARK.json" in
  let c =
    Verdict.compare spec ~old_doc:(read_doc old_path) ~new_doc:(read_doc new_path)
  in
  Verdict.print c;
  if Verdict.regressed c then exit 1

(* Every end-to-end sample made 20% worse in its metric's direction. *)
let degrade (spec : Spec.t) (r : Sample.result) =
  let worse n v =
    match metric_named spec.Spec.end_to_end n with
    | Some m when m.Spec.lower_is_better -> v *. 1.2
    | _ -> v *. 0.8
  in
  {
    r with
    Sample.end_to_end =
      List.map (fun (n, samples) -> (n, Array.map (worse n) samples)) r.Sample.end_to_end;
  }

let smoke () =
  let spec = Spec.load "BENCHMARK.json" in
  let host = Runfile.host_start () in
  match run_all spec ~seed:11 ~seconds:0. smoke_workloads with
  | exception Sample.Check_failed msg -> abort msg
  | results ->
      let doc = document spec ~host ~seed:11 ~seconds:0. results in
      let self = Verdict.compare spec ~old_doc:doc ~new_doc:doc in
      Verdict.print self;
      if Verdict.regressed self then abort "compare flags a run against itself";
      let worse_doc =
        document spec ~host ~seed:11 ~seconds:0.
          (List.map (fun (n, r) -> (n, degrade spec r)) results)
      in
      let worse = Verdict.compare spec ~old_doc:doc ~new_doc:worse_doc in
      Verdict.print worse;
      if not (Verdict.regressed worse) then abort "compare misses a copy made 20% worse";
      print_endline "smoke: ok"

let rss_child wl input =
  let mb =
    match find wl with
    | Serve cfg -> Serve_bench.child cfg input
    | Sweep cfg -> Sweep_bench.child cfg
  in
  Printf.printf "%.3f\n" mb

let () =
  (* A worker re-invocation (the sweep-workers pool) serves tasks and
     exits here, before any benchmark logic runs. *)
  Engine.Proc.maybe_run_worker ();
  match List.tl (Array.to_list Sys.argv) with
  | [ f; wl; input ] when String.equal f Sample.rss_child_flag -> rss_child wl input
  | "run" :: args -> run_cmd args
  | [ "compare"; old_path; new_path ] -> compare_cmd old_path new_path
  | [ "smoke" ] -> smoke ()
  | args -> driver args
