(* The serve workloads: a churned NetFlow wire file replayed through one
   [Serve.Daemon.run] at one shard — what `tiered-cli serve` does with a
   wire file on a single-domain host. The replay is closed-loop: the
   wire reader pulls and its bounded buffer applies backpressure, so
   records/s is capacity at the stated input size. *)

open Tiered

type cfg = {
  name : string;
  flows : int;  (** eu_isp@[flows] *)
  days : int;
  every_s : int;  (** Re-tier cadence in stream seconds. *)
  dedup_wire : bool;  (** Drop router duplicates from the wire file. *)
}

let window_params =
  { Serve.Window.bin_s = 3_600; bins = 24; decay = Serve.Window.No_decay }

let retier_params =
  {
    Serve.Retier.spec = Market.Ced;
    alpha = 2.0;
    p0 = 30.;
    n_bundles = 4;
    cost_model = Cost_model.concave ~theta:0.5;
    samples = 8;
    cold_every = 24;
    use_cache = false;
  }

let clock = Serve.Clock.of_fn Sample.now_s

let with_wire path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> f (Serve.Ingest.of_reader (Flowgen.Netflow.Wire.of_channel ic)))

(* One untraced repetition, timed around [Daemon.run] alone. [on_retier]
   sees the re-tier instance so a caller can check each posted window
   against it without holding the snapshots. Every repetition starts
   on a compacted heap, so none inherits the garbage of the set-up or
   of the repetition before it. *)
let daemon_rep ?on_retier cfg w wire =
  Gc.compact ();
  let shards =
    Serve.Shards.create ~expected:cfg.flows ~shards:1 ~dedup:true window_params
  in
  let retier = Serve.Retier.create retier_params ~meta_of:(Serve.Retier.meta_of_workload w) in
  let on_retier = Option.map (fun f -> f retier) on_retier in
  with_wire wire (fun ingest ->
      Sample.time (fun () ->
          Serve.Daemon.run ?on_retier ~clock ~shards ~retier
            { Serve.Daemon.every_s = cfg.every_s }
            ingest))

let same_tiers (a : Serve.Retier.outcome) (b : Serve.Retier.outcome) =
  List.equal Int.equal a.Serve.Retier.o_cuts b.Serve.Retier.o_cuts
  && Array.length a.Serve.Retier.o_prices = Array.length b.Serve.Retier.o_prices
  && Array.for_all2 Float.equal a.Serve.Retier.o_prices b.Serve.Retier.o_prices
  && Float.equal a.Serve.Retier.o_profit b.Serve.Retier.o_profit

let same_solve (a : Serve.Retier.outcome) (b : Serve.Retier.outcome) =
  same_tiers a b
  && a.Serve.Retier.o_solve = b.Serve.Retier.o_solve
  && a.Serve.Retier.o_evaluations = b.Serve.Retier.o_evaluations

(* --- the traced repetition ------------------------------------------------ *)

(* [Daemon.run] at one shard, re-expressed through the public functions
   of each layer so every layer can be timed from outside: the ingest
   pump, then at each deadline what [Shards.drain] does — dedup,
   window, ring advance, dedup retirement, snapshot — and the re-tier.
   Spans are per re-tier interval, never per record. Dedup runs over
   the whole interval before the window sees the kept records; the two
   states are independent, so this posts the same tiers as the
   interleaved drain (the run checks that it does). *)

type trace = {
  outcomes : Serve.Retier.outcome list;
  layers : (string * float) list;
  wall_s : float;
  late : int;
}

let traced_rep cfg w wire =
  Gc.compact ();
  let wp = window_params in
  let span_s = wp.Serve.Window.bins * wp.Serve.Window.bin_s in
  let dedup = Flowgen.Dedup.Stream.create ~expected:cfg.flows () in
  let window = Serve.Window.create ~expected:cfg.flows wp in
  let retier = Serve.Retier.create retier_params ~meta_of:(Serve.Retier.meta_of_workload w) in
  let decode_s = ref 0. and decode_w = ref 0. in
  let dedup_s = ref 0. and forget_s = ref 0. in
  let window_s = ref 0. and window_w = ref 0. in
  let snapshot_ms = ref [] and solves = ref [] in
  let records = ref 0 and kept = ref 0 in
  let pending = ref [] in
  let retier_at at =
    let bin = Serve.Window.bin_of_time wp (float_of_int (at - 1)) in
    let t0 = Sample.now_s () in
    let batch = List.rev !pending in
    pending := [];
    let fresh = List.filter (Flowgen.Dedup.Stream.observe dedup) batch in
    let t1 = Sample.now_s () in
    let w1 = Gc.minor_words () in
    List.iter
      (fun (r : Flowgen.Netflow.record) ->
        ignore
          (Serve.Window.observe window ~src:r.Flowgen.Netflow.src
             ~dst:r.Flowgen.Netflow.dst ~bytes:r.Flowgen.Netflow.bytes
             ~bin:(Serve.Window.bin_of_time wp (float_of_int r.Flowgen.Netflow.first_s))))
      fresh;
    Serve.Window.advance_to window ~bin;
    let w2 = Gc.minor_words () in
    let t2 = Sample.now_s () in
    Flowgen.Dedup.Stream.forget_before dedup ~first_s:(at - span_s);
    let t3 = Sample.now_s () in
    let snap = Serve.Window.snapshot window in
    let t4 = Sample.now_s () in
    let o = Serve.Retier.retier retier snap in
    let t5 = Sample.now_s () in
    kept := !kept + List.length fresh;
    dedup_s := !dedup_s +. (t1 -. t0);
    window_s := !window_s +. (t2 -. t1);
    window_w := !window_w +. (w2 -. w1);
    forget_s := !forget_s +. (t3 -. t2);
    snapshot_ms := (1e3 *. (t4 -. t3)) :: !snapshot_ms;
    solves := (o, 1e3 *. (t5 -. t4)) :: !solves
  in
  let t_start = Sample.now_s () in
  let mark = ref t_start and mark_w = ref (Gc.minor_words ()) in
  let close_decode () =
    decode_s := !decode_s +. (Sample.now_s () -. !mark);
    decode_w := !decode_w +. (Gc.minor_words () -. !mark_w)
  in
  let deadline = ref min_int and last_seen = ref min_int in
  with_wire wire (fun ingest ->
      let rec pump () =
        match Serve.Ingest.next ingest with
        | None -> ()
        | Some r ->
            incr records;
            let first_s = r.Flowgen.Netflow.first_s in
            if !deadline = min_int then deadline := first_s + cfg.every_s;
            if first_s >= !deadline then begin
              close_decode ();
              while first_s >= !deadline do
                retier_at !deadline;
                deadline := !deadline + cfg.every_s
              done;
              mark := Sample.now_s ();
              mark_w := Gc.minor_words ()
            end;
            if first_s > !last_seen then last_seen := first_s;
            pending := r :: !pending;
            pump ()
      in
      pump ();
      close_decode ());
  if !last_seen <> min_int then retier_at (!last_seen + 1);
  let wall_s = Sample.now_s () -. t_start in
  let solves = List.rev !solves in
  let outcomes = List.map fst solves in
  let ms_of kind =
    Array.of_list
      (List.filter_map
         (fun ((o : Serve.Retier.outcome), ms) ->
           if o.Serve.Retier.o_solve = kind then Some ms else None)
         solves)
  in
  let count_of f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 outcomes) in
  let count kind =
    count_of (fun (o : Serve.Retier.outcome) -> Bool.to_int (o.Serve.Retier.o_solve = kind))
  in
  let warm = count `Warm and cold = count `Cold and unchanged = count `Unchanged in
  let retiers = float_of_int (List.length solves) in
  let records = float_of_int !records and kept = float_of_int !kept in
  let retier_ms = Array.of_list (List.map snd solves) in
  let spans =
    !decode_s +. !dedup_s +. !window_s +. !forget_s
    +. ((Sample.sum (Array.of_list !snapshot_ms) +. Sample.sum retier_ms) /. 1e3)
  in
  let layers =
    [
      ("wire.decode_ns_per_record", 1e9 *. !decode_s /. records);
      ("wire.minor_words_per_record", !decode_w /. records);
      ("dedup.ns_per_record", 1e9 *. !dedup_s /. records);
      ("dedup.kept_ratio", kept /. records);
      ("dedup.forget_ms", 1e3 *. !forget_s);
      ("window.ns_per_record", 1e9 *. !window_s /. kept);
      ("window.minor_words_per_record", !window_w /. kept);
      ("window.snapshot_ms_p50", Sample.percentile (Array.of_list !snapshot_ms) ~p:50.);
      ( "window.bytes_per_flow",
        float_of_int (8 * Obj.reachable_words (Obj.repr window))
        /. float_of_int (Serve.Window.flow_count window) );
      ("retier.warm_ms_p50", Sample.percentile (ms_of `Warm) ~p:50.);
      ("retier.cold_ms_p50", Sample.percentile (ms_of `Cold) ~p:50.);
      ("retier.ms_max", Sample.percentile retier_ms ~p:100.);
      ("retier.warm", warm);
      ("retier.cold", cold);
      ("retier.unchanged", unchanged);
      ( "retier.fallbacks",
        count_of (fun (o : Serve.Retier.outcome) -> Bool.to_int o.Serve.Retier.o_fallback) );
      ("retier.warm_hit_ratio", (warm +. unchanged) /. (warm +. unchanged +. cold));
      ( "segdp.evals_per_retier",
        count_of (fun (o : Serve.Retier.outcome) -> o.Serve.Retier.o_evaluations) /. retiers );
      ("trace.coverage", spans /. wall_s);
    ]
  in
  { outcomes; layers; wall_s; late = Serve.Window.late window }

(* Cold [Segdp.solve] cost per segment evaluation on the fitted market
   of the same size, median of 9: the kernel's constant factor, apart
   from how many evaluations the re-tier asks of it. *)
let segdp_ns_per_eval cfg =
  let m =
    Experiment.market ~alpha:retier_params.Serve.Retier.alpha
      ~p0:retier_params.Serve.Retier.p0
      ~cost_model:retier_params.Serve.Retier.cost_model ~spec:Market.Ced
      (Churn.network cfg.flows)
  in
  let _order, seg_value, regions = Strategy.dp_inputs m in
  let n = Market.n_flows m in
  Sample.median
    (Array.init 9 (fun _ ->
         let r, s =
           Sample.time (fun () ->
               Numerics.Segdp.solve ~samples:8 ~regions ~n ~n_bundles:4 seg_value)
         in
         1e9 *. s /. float_of_int r.Numerics.Segdp.stats.Numerics.Segdp.evaluations))

(* --- one workload run ----------------------------------------------------- *)

let build cfg ~seed wire =
  let w = Flowgen.Workload.preset (Churn.network cfg.flows) in
  let n = Churn.write_wire ~seed ~days:cfg.days ~dedup:cfg.dedup_wire w wire in
  (w, n)

(* Write the file back to disk now, so the kernel's write-back of it
   does not land inside a timed repetition. *)
let sync path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let run ~seed ~seconds ~e2e ~trace ~wire cfg =
  (* Set-up, three times, each on a compacted heap: the calibrated
     workload, the synthesized stream and its wire encoding. *)
  let setups =
    Array.init 3 (fun _ ->
        Gc.compact ();
        Sample.time (fun () -> build cfg ~seed wire))
  in
  let w, n_records = fst setups.(0) in
  sync wire;
  (* Warm-up repetition, with every posted window checked bitwise
     against a from-scratch solve (untimed). *)
  let warm, _ =
    daemon_rep cfg w wire ~on_retier:(fun retier snap o ->
        Sample.check
          (same_tiers o (Serve.Retier.solve_cold retier snap))
          "%s: tiers posted at bin %d differ from a cold solve" cfg.name
          o.Serve.Retier.o_bin)
  in
  let reference = warm.Serve.Daemon.r_outcomes in
  let check_run (r : Serve.Daemon.run_result) =
    let run = r.Serve.Daemon.r_run in
    Sample.check (run.Serve.Stats.records = n_records)
      "%s: daemon read %d of %d records" cfg.name run.Serve.Stats.records n_records;
    Sample.check (run.Serve.Stats.seq_gaps = 0) "%s: %d sequence gaps" cfg.name
      run.Serve.Stats.seq_gaps;
    Sample.check
      (List.equal same_tiers r.Serve.Daemon.r_outcomes reference)
      "%s: a repetition posted different tiers" cfg.name;
    run.Serve.Stats.malformed + run.Serve.Stats.late
  in
  ignore (check_run warm);
  let failed = ref 0 in
  let reps =
    Sample.repeat ~seconds (fun () ->
        let r, wall_s = daemon_rep cfg w wire in
        failed := !failed + check_run r;
        (r, wall_s))
  in
  let walls = Array.map snd reps in
  let end_to_end =
    [
      ("setup_s", Array.map snd setups);
      ("throughput_per_s", Array.map (fun wall -> float_of_int n_records /. wall) walls);
      ( "result_p50_ms",
        Array.map
          (fun ((r : Serve.Daemon.run_result), _) ->
            Option.get r.Serve.Daemon.r_stats.Serve.Stats.p50_ms)
          reps );
    ]
    @
    if not e2e then []
    else [ ("peak_rss_mb", [| Sample.child_peak_rss_mb ~workload:cfg.name ~input:wire |]) ]
  in
  let per_layer =
    if not trace then []
    else begin
      let t = traced_rep cfg w wire in
      Sample.check
        (List.equal same_solve t.outcomes reference)
        "%s: the traced repetition diverged from the daemon" cfg.name;
      Sample.check (t.late = 0) "%s: traced repetition dropped late records" cfg.name;
      t.layers
      @ [
          ("segdp.ns_per_eval", segdp_ns_per_eval cfg);
          ("trace.overhead", (t.wall_s /. Sample.median walls) -. 1.);
        ]
    end
  in
  {
    Sample.end_to_end;
    per_layer;
    attempted = n_records * Array.length reps;
    failed = !failed;
  }

(* The memory child: the workload meta and the daemon on the wire file,
   nothing else. *)
let child cfg wire =
  let w = Flowgen.Workload.preset (Churn.network cfg.flows) in
  ignore (daemon_rep cfg w wire);
  Sample.peak_rss_mb ()
