(* The sweep workloads: the experiment registry run cold through
   [Runner.run_experiments], as `tiered-cli run --jobs N --backend B`
   runs it — the pool is created per pass and every pass starts from
   cleared artifact caches. *)

open Tiered

type cfg = {
  name : string;
  backend : Engine.Pool.backend;
  jobs : int;
  experiments : Experiment.t list;
}

let goldens cfg =
  List.map
    (fun (e : Experiment.t) ->
      let path = Printf.sprintf "test/golden/%s.expected" e.Experiment.id in
      (e.Experiment.id, In_channel.with_open_bin path In_channel.input_all))
    cfg.experiments

let check_renders cfg goldens (results : Runner.result list) =
  List.iter
    (fun (r : Runner.result) ->
      Sample.check
        (String.equal (Runner.render [ r ]) (List.assoc r.Runner.id goldens))
        "%s: %s renders differently from test/golden/%s.expected" cfg.name
        r.Runner.id r.Runner.id)
    results

(* A pool that degraded to domains would be measuring another program. *)
let check_backend cfg used =
  Sample.check
    (String.equal used (Engine.Pool.backend_name cfg.backend))
    "%s: the pool ran on the %s backend, not %s" cfg.name used
    (Engine.Pool.backend_name cfg.backend)

(* One cold pass, timed around [Runner.run_experiments] alone, on a
   compacted heap (see [Serve_bench.daemon_rep]). *)
let pass cfg =
  Engine.Cache.clear_all ();
  Gc.compact ();
  let metrics = Engine.Metrics.create () in
  let results, wall_s =
    Sample.time (fun () ->
        Runner.run_experiments ~backend:cfg.backend ~jobs:cfg.jobs ~metrics
          cfg.experiments)
  in
  let snap = Engine.Metrics.snapshot metrics in
  check_backend cfg snap.Engine.Metrics.backend;
  (results, wall_s, snap)

(* --- the traced pass ------------------------------------------------------ *)

(* [Runner.run_experiments] re-expressed through the public functions of
   [Experiment] and [Engine.Pool], so spawn, dispatch, each cell, and
   each assembly are timed from outside. Cell time and the artifact
   cache counters are taken inside the closure given to [Pool.map], on
   whichever process runs the cell. *)

let cache_totals () =
  List.fold_left
    (fun (h, m) (_, (s : Engine.Cache.stats)) ->
      ( h + s.Engine.Cache.hits + s.Engine.Cache.disk_hits + s.Engine.Cache.remote_hits,
        m + s.Engine.Cache.misses ))
    (0, 0) (Engine.Cache.all_stats ())

let traced_pass cfg goldens =
  Engine.Cache.clear_all ();
  Gc.compact ();
  let exps = Array.of_list cfg.experiments in
  let plans =
    Array.map (fun (e : Experiment.t) -> Array.of_list (e.Experiment.cells ())) exps
  in
  let tasks = Array.concat (Array.to_list plans) in
  let t0 = Sample.now_s () in
  let pool, spawn_s =
    Sample.time (fun () -> Engine.Pool.create ~backend:cfg.backend ~jobs:cfg.jobs ())
  in
  let outputs, map_s, busy, used, restarts, shutdown_s =
    Fun.protect
      ~finally:(fun () -> Engine.Pool.shutdown pool)
      (fun () ->
        let outputs, map_s =
          Sample.time (fun () ->
              Engine.Pool.map pool
                (fun (c : Experiment.cell) ->
                  let h0, m0 = cache_totals () in
                  let out, s = Sample.time c.Experiment.compute in
                  let h1, m1 = cache_totals () in
                  (out, s, h1 - h0, m1 - m0))
                tasks)
        in
        let busy = Engine.Pool.busy_times pool in
        let used = Engine.Pool.backend pool and restarts = Engine.Pool.restarts pool in
        let (), shutdown_s = Sample.time (fun () -> Engine.Pool.shutdown pool) in
        (outputs, map_s, busy, used, restarts, shutdown_s))
  in
  check_backend cfg (Engine.Pool.backend_name used);
  let offset = ref 0 in
  let assembled =
    Array.mapi
      (fun i (e : Experiment.t) ->
        let slice = Array.sub outputs !offset (Array.length plans.(i)) in
        offset := !offset + Array.length plans.(i);
        let tables, assemble_s =
          Sample.time (fun () ->
              e.Experiment.assemble
                (Array.to_list (Array.map (fun (out, _, _, _) -> out) slice)))
        in
        let cells_s = Array.fold_left (fun acc (_, s, _, _) -> acc +. s) 0. slice in
        ( {
            Runner.id = e.Experiment.id;
            description = e.Experiment.description;
            tables;
            wall_s = cells_s +. assemble_s;
          },
          assemble_s ))
      exps
  in
  let wall_s = Sample.now_s () -. t0 in
  check_renders cfg goldens (Array.to_list (Array.map fst assembled));
  let cell_ms = Array.map (fun (_, s, _, _) -> 1e3 *. s) outputs in
  let hits = Array.fold_left (fun acc (_, _, h, _) -> acc + h) 0 outputs in
  let misses = Array.fold_left (fun acc (_, _, _, m) -> acc + m) 0 outputs in
  let assemble_s = Sample.sum (Array.map snd assembled) in
  let n_cells = float_of_int (Array.length tasks) in
  let pooled = cfg.backend <> Engine.Pool.Domains in
  let layers =
    [
      ("runner.cells", n_cells);
      ("runner.cell_ms_p50", Sample.percentile cell_ms ~p:50.);
      ("runner.cell_ms_max", Sample.percentile cell_ms ~p:100.);
      ("runner.assemble_ms", 1e3 *. assemble_s);
      ("cache.hit_ratio", float_of_int hits /. float_of_int (hits + misses));
      ("cache.misses", float_of_int misses);
      ("trace.coverage", (spawn_s +. map_s +. shutdown_s +. assemble_s) /. wall_s);
    ]
    @ Array.to_list
        (Array.map
           (fun ((r : Runner.result), _) ->
             (Printf.sprintf "experiment.%s_ms" r.Runner.id, 1e3 *. r.Runner.wall_s))
           assembled)
    @
    if not pooled then []
    else
      [
        ("pool.spawn_ms", 1e3 *. spawn_s);
        ("pool.busy_ratio", Sample.sum busy /. (float_of_int cfg.jobs *. map_s));
        ("pool.restarts", float_of_int restarts);
        ( "pool.result_bytes_per_cell",
          Sample.sum
            (Array.map
               (fun (out, _, _, _) -> float_of_int (String.length (Marshal.to_string out [])))
               outputs)
          /. n_cells );
      ]
  in
  (layers, wall_s)

(* Dispatch cost alone: 512 identity tasks on a live pool, median of 5
   maps after one warm-up map. *)
let noop_us_per_task cfg =
  Engine.Pool.with_pool ~backend:cfg.backend ~jobs:cfg.jobs (fun pool ->
      check_backend cfg (Engine.Pool.backend_name (Engine.Pool.backend pool));
      let tasks = Array.init 512 Fun.id in
      ignore (Engine.Pool.map pool Fun.id tasks);
      Sample.median
        (Array.init 5 (fun _ ->
             let _, s = Sample.time (fun () -> Engine.Pool.map pool Fun.id tasks) in
             1e6 *. s /. 512.)))

(* --- one workload run ----------------------------------------------------- *)

let run ~seconds ~e2e ~trace cfg =
  (* Set-up, three times: the goldens every pass is checked against and
     one cold warm-up pass (which starts on a compacted heap). *)
  let setups =
    Array.init 3 (fun _ ->
        Sample.time (fun () ->
            let goldens = goldens cfg in
            let results, _, _ = pass cfg in
            check_renders cfg goldens results;
            goldens))
  in
  let goldens = fst setups.(0) in
  let failed = ref 0 in
  let reps =
    Sample.repeat ~seconds (fun () ->
        let results, wall_s, snap = pass cfg in
        check_renders cfg goldens results;
        failed := !failed + snap.Engine.Metrics.worker_restarts;
        (wall_s, snap))
  in
  let n_cells = List.length (snd reps.(0)).Engine.Metrics.tasks in
  let end_to_end =
    [
      ("setup_s", Array.map snd setups);
      ("throughput_per_s", Array.map (fun (wall, _) -> float_of_int n_cells /. wall) reps);
      ( "result_p50_ms",
        Array.map
          (fun (_, (snap : Engine.Metrics.snapshot)) ->
            1e3
            *. Sample.percentile
                 (Array.of_list
                    (List.map (fun (t : Engine.Metrics.task) -> t.Engine.Metrics.wall_s)
                       snap.Engine.Metrics.tasks))
                 ~p:50.)
          reps );
    ]
    @
    if not e2e then []
    else [ ("peak_rss_mb", [| Sample.child_peak_rss_mb ~workload:cfg.name ~input:"-" |]) ]
  in
  let per_layer =
    if not trace then []
    else begin
      let layers, wall_s = traced_pass cfg goldens in
      let untraced = Sample.median (Array.map fst reps) in
      layers
      @ (("trace.overhead", (wall_s /. untraced) -. 1.)
        :: (if cfg.backend = Engine.Pool.Domains then []
            else [ ("pool.noop_us_per_task", noop_us_per_task cfg) ]))
    end
  in
  { Sample.end_to_end; per_layer; attempted = n_cells * Array.length reps; failed = !failed }

(* The memory child: one cold pass and nothing else. *)
let child cfg =
  ignore (pass cfg);
  Sample.peak_rss_mb ()
