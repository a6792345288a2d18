type result = {
  id : string;
  description : string;
  tables : Report.t list;
  wall_s : float;
}

(* Cells of every experiment are flattened into one task array (in
   experiment order, then cell order — the topological submission
   order) and scheduled on the pool together, so one slow figure's
   cells interleave with everything else instead of pinning a domain.
   Outputs are sliced back per experiment and assembled in submission
   order, which keeps the rendered bytes independent of [jobs]. *)
let run_experiments ?backend ?retries ?timeout_s ?jobs ?metrics experiments =
  let exps = Array.of_list experiments in
  let plans =
    Array.map (fun (e : Experiment.t) -> Array.of_list (e.Experiment.cells ())) exps
  in
  let tasks =
    Array.concat
      (Array.to_list
         (Array.map (fun cells -> Array.map (fun c -> c) cells) plans))
  in
  let t0 = Unix.gettimeofday () in
  let outputs, n_jobs, domain_busy, used_backend, worker_restarts =
    Engine.Pool.with_pool ?backend ?retries ?timeout_s ?jobs
      (fun pool ->
        let outputs =
          Engine.Pool.map pool
            (fun (c : Experiment.cell) ->
              let s = Unix.gettimeofday () in
              let out = c.Experiment.compute () in
              (out, Unix.gettimeofday () -. s))
            tasks
        in
        ( outputs,
          Engine.Pool.jobs pool,
          Engine.Pool.busy_times pool,
          Engine.Pool.backend pool,
          Engine.Pool.restarts pool ))
  in
  (* Slice the flat output array back into per-experiment runs and
     assemble each (assembly is pure and cheap; it stays on the calling
     domain). *)
  let offset = ref 0 in
  let results =
    Array.mapi
      (fun i (e : Experiment.t) ->
        let n_cells = Array.length plans.(i) in
        let slice = Array.sub outputs !offset n_cells in
        offset := !offset + n_cells;
        let a0 = Unix.gettimeofday () in
        let tables =
          e.Experiment.assemble (Array.to_list (Array.map fst slice))
        in
        let assemble_s = Unix.gettimeofday () -. a0 in
        let cells_s = Array.fold_left (fun acc (_, s) -> acc +. s) 0. slice in
        {
          id = e.Experiment.id;
          description = e.Experiment.description;
          tables;
          wall_s = cells_s +. assemble_s;
        })
      exps
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun m ->
      Engine.Metrics.set_jobs m n_jobs;
      Engine.Metrics.set_backend m (Engine.Pool.backend_name used_backend);
      Engine.Metrics.set_worker_restarts m worker_restarts;
      Engine.Metrics.set_wall m wall_s;
      Engine.Metrics.set_domain_busy m domain_busy;
      (* Record per-cell wall times serially, in submission order, so
         metrics snapshots are as deterministic as the reports
         themselves. *)
      let cursor = ref 0 in
      Array.iteri
        (fun i (e : Experiment.t) ->
          Array.iter
            (fun (c : Experiment.cell) ->
              let _, cell_s = outputs.(!cursor) in
              incr cursor;
              let label =
                if String.equal c.Experiment.label e.Experiment.id then
                  e.Experiment.id
                else Printf.sprintf "%s/%s" e.Experiment.id c.Experiment.label
              in
              Engine.Metrics.record m ~label ~wall_s:cell_s)
            plans.(i))
        exps)
    metrics;
  Array.to_list results

(* One cache for every sweep's rows. It is created on first use, in
   the calling domain before any task runs, so domain workers only read
   the forced value; a worker process forces its own copy. A closure
   shipped to a worker process refers to it as a global, so it is never
   marshalled. *)
let sweep_cells : string list Engine.Cache.t Lazy.t =
  lazy (Engine.Cache.create ~name:"sweep-cell" ~schema:"sweep-cell/1" ())

let sweep ?backend ?retries ?timeout_s ?jobs ~key ~compute values =
  ignore (Lazy.force sweep_cells : string list Engine.Cache.t);
  let cell v =
    let computed = ref false in
    let row =
      Engine.Cache.find_or_add (Lazy.force sweep_cells) ~key:(key v) (fun () ->
          computed := true;
          compute v)
    in
    (row, !computed)
  in
  let outcomes =
    Engine.Pool.with_pool ?backend ?retries ?timeout_s ?jobs (fun pool ->
        Engine.Pool.map_list pool cell values)
  in
  (List.map fst outcomes, List.length (List.filter snd outcomes))

let render results =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (fun r -> List.iter (Report.print ppf) r.tables) results;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let metrics_reports (s : Engine.Metrics.snapshot) =
  let tasks =
    Report.make
      ~title:
        (Printf.sprintf
           "Run metrics: %d cell(s), jobs=%d (%s backend%s), wall %.3fs, busy \
            %.3fs, pool utilization %.1f%%, load balance %.2f"
           (List.length s.Engine.Metrics.tasks)
           s.Engine.Metrics.jobs s.Engine.Metrics.backend
           (if s.Engine.Metrics.worker_restarts > 0 then
              Printf.sprintf ", %d worker restart(s)"
                s.Engine.Metrics.worker_restarts
            else "")
           s.Engine.Metrics.wall_s s.Engine.Metrics.busy_s
           (100. *. s.Engine.Metrics.utilization)
           s.Engine.Metrics.load_balance)
      ~header:[ "cell"; "wall (s)"; "share of busy" ]
      (Engine.Metrics.task_rows s)
  in
  let caches =
    Report.make ~title:"Artifact caches"
      ~header:
        [ "cache"; "hits"; "disk hits"; "remote hits"; "misses"; "hit rate" ]
      (Engine.Metrics.cache_rows s)
      ~notes:
        [
          "misses are artifact computations; enable the content-addressed \
           disk tier with --cache to persist them under _cas/";
        ]
  in
  let disk =
    match s.Engine.Metrics.disk with
    | None -> []
    | Some d ->
        [
          Report.make ~title:"Disk cache tier"
            ~header:[ "quantity"; "value" ]
            [
              [ "directory"; d.Engine.Cache.dir ];
              [ "object bytes"; string_of_int d.Engine.Cache.bytes ];
              [
                "max bytes";
                (match d.Engine.Cache.max_bytes with
                | Some b -> string_of_int b
                | None -> "unbounded");
              ];
              [ "evictions"; string_of_int d.Engine.Cache.evictions ];
            ]
            ~notes:
              [
                "least-recently-used objects are evicted first once the \
                 tier overflows --cache-max-bytes";
              ];
        ]
  in
  tasks :: caches :: disk
