(* The streaming pricing service (lib/serve): sliding-window demand,
   sharded ingest, incremental re-tiering with warm-started DP, and the
   daemon loop. The acceptance property is determinism: posted tiers
   are cut-for-cut what a from-scratch solve of the same window
   produces — across long runs that include warm solves, cold solves
   on arrivals and departures, unchanged replays, cache hits, forced
   divergence drills, and any shard count. *)

open Serve

let ip = Flowgen.Ipv4.of_int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Clock -------------------------------------------------------------- *)

let test_manual_clock () =
  let clock, set = Clock.manual ~start:5. () in
  Alcotest.(check (float 0.)) "start" 5. (Clock.now clock);
  set 42.5;
  Alcotest.(check (float 0.)) "set" 42.5 (Clock.now clock)

(* --- Window ------------------------------------------------------------- *)

let wparams ?(bin_s = 10) ?(bins = 6) ?(decay = Window.No_decay) () =
  { Window.bin_s; bins; decay }

let test_window_mean_rate () =
  let p = wparams () in
  let w = Window.create p in
  (* 600 kB in one bin of a 6 x 10 s window: 600e3 * 8 / (60 * 1e6). *)
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:600_000. ~bin:0);
  let s = Window.snapshot w in
  Alcotest.(check int) "one flow" 1 (Array.length s.Window.s_flows);
  Alcotest.(check (float 1e-9)) "mean Mbps" 0.08
    s.Window.s_flows.(0).Window.f_mbps

let test_window_accumulates_and_slides () =
  let w = Window.create (wparams ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:0);
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:1);
  let rate_before = (Window.snapshot w).Window.s_flows.(0).Window.f_mbps in
  (* Slide until bin 0 and 1 are out of the window: nothing left. *)
  Window.advance_to w ~bin:7;
  let s = Window.snapshot w in
  Alcotest.(check bool) "had rate" true (rate_before > 0.);
  Alcotest.(check int) "fully decayed flow omitted" 0
    (Array.length s.Window.s_flows);
  (* The flow table still remembers the pair (uid stability). *)
  Alcotest.(check int) "flow count" 1 (Window.flow_count w)

let test_window_late_drop () =
  let w = Window.create (wparams ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1. ~bin:10);
  let kept = Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:1. ~bin:4 in
  Alcotest.(check bool) "late dropped" false kept;
  Alcotest.(check int) "late counted" 1 (Window.late w);
  (* Oldest in-window bin is still accepted. *)
  let kept = Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:1. ~bin:5 in
  Alcotest.(check bool) "in-window kept" true kept

let test_window_ring_reuse () =
  (* A slot reused after a full wrap must not leak old bytes. *)
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1000. ~bin:0);
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:24. ~bin:4);
  (* bin 4 maps to slot 0; the 1000 bytes of bin 0 must be gone. *)
  let s = Window.snapshot w in
  let expect = 24. *. 8. /. (4. *. 10. *. 1e6) in
  Alcotest.(check (float 1e-12)) "only new bytes" expect
    s.Window.s_flows.(0).Window.f_mbps

let test_window_lagging_flow () =
  (* Regression for the ring-index arithmetic (window.ml [pmod]): a
     flow that lags the window by more than a full wrap must have every
     stale slot zeroed on catch-up — both when it reappears and when
     the snapshot catches it up in place — with no out-of-range index
     on the way. *)
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1000. ~bin:0);
  (* Another flow drags the window far ahead; flow 0 lags > bins. *)
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:40. ~bin:9);
  (* Flow 0 reappears: its whole ring predates the window, so only the
     fresh bytes may count. *)
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:24. ~bin:9);
  let s = Window.snapshot w in
  let rate u =
    (Array.to_list s.Window.s_flows
    |> List.find (fun f -> f.Window.f_uid = u))
      .Window.f_mbps
  in
  let expect = 24. *. 8. /. (4. *. 10. *. 1e6) in
  Alcotest.(check (float 1e-12)) "stale bytes zeroed" expect (rate 0);
  (* And a flow that stops sending is caught up lazily by the snapshot
     itself, far past a full wrap, without leaking its old bytes. *)
  Window.advance_to w ~bin:20;
  let s = Window.snapshot w in
  Alcotest.(check int) "lagging flows fully retired" 0
    (Array.length s.Window.s_flows)

let test_window_exponential_decay () =
  let decay = Window.Exponential { half_life_bins = 1. } in
  let w = Window.create (wparams ~decay ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:64. ~bin:0);
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:64. ~bin:2);
  Window.advance_to w ~bin:2;
  let s = Window.snapshot w in
  let rate u =
    let r =
      Array.to_list s.Window.s_flows
      |> List.find (fun f -> f.Window.f_uid = u)
    in
    r.Window.f_mbps
  in
  (* Same bytes, two bins apart, half-life one bin: 4x ratio. *)
  Alcotest.(check (float 1e-9)) "half-life ratio" 4. (rate 1 /. rate 0)

let test_window_diurnal_weights () =
  let decay = Window.Diurnal { amplitude = 0.5; peak_bin = 2 } in
  let w = Window.create (wparams ~bins:4 ~decay ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:2);
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:100. ~bin:3);
  Window.advance_to w ~bin:3;
  let s = Window.snapshot w in
  let peak = s.Window.s_flows.(0).Window.f_mbps in
  let off = s.Window.s_flows.(1).Window.f_mbps in
  (* Peak-bin bytes weigh 1 + 0.5, the quarter-cycle bin 1.0. *)
  Alcotest.(check (float 1e-9)) "peak emphasis" 1.5 (peak /. off)

let test_window_occupancy () =
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1. ~bin:0);
  Alcotest.(check (float 1e-9)) "one bin" 0.25
    (Window.snapshot w).Window.s_occupancy;
  Window.advance_to w ~bin:9;
  Alcotest.(check (float 1e-9)) "capped" 1.
    (Window.snapshot w).Window.s_occupancy

let test_window_validation () =
  let check name p =
    Alcotest.check_raises name (Invalid_argument "") (fun () ->
        try ignore (Window.create p) with Invalid_argument _ ->
          raise (Invalid_argument ""))
  in
  check "bins" (wparams ~bins:0 ());
  check "bin_s" (wparams ~bin_s:0 ());
  check "half-life"
    (wparams ~decay:(Window.Exponential { half_life_bins = 0. }) ());
  check "amplitude"
    (wparams ~decay:(Window.Diurnal { amplitude = 1.5; peak_bin = 0 }) ())

(* --- Ingest ------------------------------------------------------------- *)

let small_workload =
  lazy
    (Flowgen.Workload.generate
       (Netsim.Presets.eu_isp ())
       {
         Flowgen.Workload.n_flows = 60;
         aggregate_gbps = 2.;
         locality_scale = 50.;
         locality_spread = 1.0;
         demand_cv = 1.0;
         demand_distance_exponent = 1.0;
         local_tail_miles = 30.;
         on_net_fraction = 0.5;
         distance_mode = `Path;
         seed = 77;
       })

let test_ingest_sorted_and_replayed () =
  let w = Lazy.force small_workload in
  let ing = Ingest.of_workload ~days:2 ~seed:3 w in
  let rec drain acc last n =
    match Ingest.next ing with
    | None -> (acc, n)
    | Some r ->
        Alcotest.(check bool) "nondecreasing" true
          (r.Flowgen.Netflow.first_s >= last);
        drain (acc + r.Flowgen.Netflow.first_s) r.Flowgen.Netflow.first_s
          (n + 1)
    | exception e -> raise e
  in
  let _, n = drain 0 min_int 0 in
  Alcotest.(check (option int)) "both days yielded" (Some n) (Ingest.total ing);
  Alcotest.(check bool) "two days of records" true (n > 0 && n mod 2 = 0)

let test_ingest_day_shift () =
  let w = Lazy.force small_workload in
  let one = Ingest.of_workload ~days:1 ~seed:3 w in
  let two = Ingest.of_workload ~days:2 ~seed:3 w in
  let day1 = ref [] in
  let rec skip_day1 () =
    match Ingest.next two with
    | Some r when r.Flowgen.Netflow.first_s < Flowgen.Netflow.day_seconds ->
        skip_day1 ()
    | other -> other
  in
  let rec drain1 () =
    match Ingest.next one with
    | Some r ->
        day1 := r :: !day1;
        drain1 ()
    | None -> ()
  in
  drain1 ();
  (* First record of day 2 is the first template record, shifted. *)
  let first_template = List.nth (List.rev !day1) 0 in
  match skip_day1 () with
  | Some r ->
      Alcotest.(check int) "shifted by a day"
        (first_template.Flowgen.Netflow.first_s + Flowgen.Netflow.day_seconds)
        r.Flowgen.Netflow.first_s;
      Alcotest.(check (float 0.)) "same bytes"
        first_template.Flowgen.Netflow.bytes r.Flowgen.Netflow.bytes
  | None -> Alcotest.fail "day 2 missing"

(* Hand-forged wire-shaped records for the sequence/daemon tests. *)
let rec_ ?(router = 0) ?(src_port = 1000) ?(dst_port = 80) ~src ~dst ~bytes
    ~first_s () =
  {
    Flowgen.Netflow.src = ip src;
    dst = ip dst;
    src_port;
    dst_port;
    proto = 6;
    bytes;
    packets = 1.;
    first_s;
    last_s = first_s + 1;
    router;
  }

let test_ingest_sequence_verbatim () =
  (* [of_sequence] must preserve the given order — it exists precisely
     so the tests can feed out-of-order streams. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:10. ~first_s:20 ();
      rec_ ~src:2 ~dst:102 ~bytes:10. ~first_s:5 ();
      rec_ ~src:3 ~dst:103 ~bytes:10. ~first_s:12 ();
    ]
  in
  let ing = Ingest.of_sequence records in
  Alcotest.(check (option int)) "total known" (Some 3) (Ingest.total ing);
  let order = ref [] in
  let rec drain () =
    match Ingest.next ing with
    | Some r ->
        order := r.Flowgen.Netflow.first_s :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "verbatim order" [ 20; 5; 12 ]
    (List.rev !order);
  Alcotest.(check bool) "no wire counters" true
    (Ingest.wire_counters ing = None)

let test_ingest_wire_reader () =
  (* A wire-backed ingest decodes the same records the encoder was
     given (normalized) and exposes the decoder's counters. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:1500. ~first_s:3 ();
      rec_ ~src:2 ~dst:102 ~bytes:250. ~first_s:7 ();
    ]
  in
  let wire = String.concat "" (Flowgen.Netflow.Wire.encode records) in
  let ing = Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire) in
  Alcotest.(check (option int)) "length unknown up front" None
    (Ingest.total ing);
  let got = ref [] in
  let rec drain () =
    match Ingest.next ing with
    | Some r ->
        got := r :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  let expect = List.map Flowgen.Netflow.Wire.normalize records in
  Alcotest.(check int) "all decoded" (List.length expect) (List.length !got);
  List.iter2
    (fun (a : Flowgen.Netflow.record) b ->
      Alcotest.(check int) "first_s" a.Flowgen.Netflow.first_s
        b.Flowgen.Netflow.first_s;
      Alcotest.(check (float 0.)) "bytes" a.Flowgen.Netflow.bytes
        b.Flowgen.Netflow.bytes)
    expect (List.rev !got);
  Alcotest.(check (option (pair int int))) "clean stream" (Some (0, 0))
    (Ingest.wire_counters ing)

(* --- Stats -------------------------------------------------------------- *)

let test_percentile_nearest_rank () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  let check_q name expect got =
    Alcotest.(check (option (float 0.))) name expect got
  in
  check_q "p50" (Some 5.) (Stats.percentile a ~p:50.);
  check_q "p99" (Some 10.) (Stats.percentile a ~p:99.);
  check_q "p0" (Some 1.) (Stats.percentile a ~p:0.);
  (* An empty histogram has no quantiles — not a sentinel zero. *)
  check_q "empty" None (Stats.percentile [||] ~p:50.);
  (* A single observation is every quantile of itself. *)
  check_q "n=1 p50" (Some 7.) (Stats.percentile [| 7. |] ~p:50.);
  check_q "n=1 p99" (Some 7.) (Stats.percentile [| 7. |] ~p:99.)

let test_stats_rates () =
  let s = Stats.create () in
  Stats.observe s ~solve:`Cold ~latency_s:0.002 ~evaluations:10 ~fallback:false;
  Stats.observe s ~solve:`Warm ~latency_s:0.001 ~evaluations:5 ~fallback:false;
  Stats.observe s ~solve:`Unchanged ~latency_s:0.0005 ~evaluations:0
    ~fallback:false;
  Stats.observe s ~solve:`Cached ~latency_s:0.0001 ~evaluations:0
    ~fallback:false;
  Stats.observe s ~solve:`Cold ~latency_s:0.003 ~evaluations:12 ~fallback:true;
  let sum = Stats.summary s in
  Alcotest.(check int) "retiers" 5 sum.Stats.retiers;
  Alcotest.(check int) "fallbacks" 1 sum.Stats.fallbacks;
  Alcotest.(check int) "evaluations" 27 sum.Stats.evaluations;
  (* 27 evaluations over the 3 actual solves; the unchanged replay and
     the cache hit ran none. *)
  Alcotest.(check (option (float 1e-9))) "evaluations per solve" (Some 9.)
    sum.Stats.evals_per_solve;
  Alcotest.(check (option (float 1e-9))) "p99 = max" sum.Stats.max_ms
    sum.Stats.p99_ms

let test_stats_absent_vs_zero () =
  (* Quantiles of nothing and dedup-off both serialize as JSON null —
     a 0 would read as "instant re-tiers" / "no duplicates". *)
  let empty = Stats.summary (Stats.create ()) in
  Alcotest.(check (option (float 0.))) "no p50" None empty.Stats.p50_ms;
  Alcotest.(check (option (float 0.))) "no max" None empty.Stats.max_ms;
  Alcotest.(check (option (float 0.))) "no solve yet" None
    empty.Stats.evals_per_solve;
  let run =
    {
      Stats.records = 10;
      dropped_dup = None;
      late = 0;
      seq_gaps = 0;
      malformed = 0;
      shards = 1;
      occupancy = 1.;
      wall_s = 0.5;
      records_per_s = 20.;
    }
  in
  let j = Stats.to_json empty run in
  Alcotest.(check bool) "dedup off is null" true
    (contains j {|"dropped_dup": null|});
  Alcotest.(check bool) "empty quantile is null" true
    (contains j {|"p50_retier_ms": null|});
  Alcotest.(check bool) "no solve is null" true
    (contains j {|"evals_per_solve": null|});
  (* One observation: every quantile is that sample, and JSON carries
     numbers again. *)
  let s1 = Stats.create () in
  Stats.observe s1 ~solve:`Cold ~latency_s:0.004 ~evaluations:1
    ~fallback:false;
  let sum1 = Stats.summary s1 in
  Alcotest.(check (option (float 1e-9))) "n=1 p50 = sample" (Some 4.)
    sum1.Stats.p50_ms;
  Alcotest.(check (option (float 1e-9))) "n=1 p99 = p50" sum1.Stats.p50_ms
    sum1.Stats.p99_ms;
  let j1 =
    Stats.to_json sum1 { run with Stats.dropped_dup = Some 0 }
  in
  Alcotest.(check bool) "dedup on is a number" true
    (contains j1 {|"dropped_dup": 0|})

(* --- Retier on hand-crafted snapshots ----------------------------------- *)

(* A tiny synthetic universe: 8 flows with distinct distances, metadata
   keyed by endpoint pair, demands set per test. *)
let universe_n = 8

let meta_of src dst =
  let s = Flowgen.Ipv4.to_int src and d = Flowgen.Ipv4.to_int dst in
  if d = 999 then None
  else if s >= 1 && s <= universe_n && d = 100 + s then
    Some
      {
        Retier.m_id = s - 1;
        m_distance_miles = 20. +. (60. *. float_of_int s);
        m_locality = (if s <= 4 then Tiered.Flow.National else Tiered.Flow.International);
        m_on_net = s mod 2 = 0;
      }
  else None

let snap_of ?(bin = 0) demands =
  let flows =
    List.mapi
      (fun i q ->
        { Window.f_src = ip (i + 1); f_dst = ip (100 + i + 1); f_uid = i; f_mbps = q })
      demands
    |> List.filter (fun f -> f.Window.f_mbps > 0.)
  in
  {
    Window.s_bin = bin;
    s_flows = Array.of_list flows;
    s_occupancy = 1.;
    s_late = 0;
  }

let rparams ?(spec = Tiered.Market.Ced) ?(n_bundles = 3) ?(cold_every = 0)
    ?(use_cache = false) () =
  {
    Retier.spec;
    alpha = 2.0;
    p0 = 30.;
    n_bundles;
    cost_model = Tiered.Cost_model.concave ~theta:0.5;
    samples = 8;
    cold_every;
    use_cache;
  }

let base_demands = [ 40.; 25.; 9.; 31.; 5.; 17.; 52.; 3. ]

let check_cuts = Alcotest.(check (list int))
let check_prices = Alcotest.(check (array (float 0.)))

let check_matches_cold t snap (o : Retier.outcome) =
  let cold = Retier.solve_cold t snap in
  check_cuts "cuts = from-scratch" cold.Retier.o_cuts o.Retier.o_cuts;
  check_prices "prices = from-scratch" cold.Retier.o_prices o.Retier.o_prices;
  Alcotest.(check (float 0.)) "profit = from-scratch" cold.Retier.o_profit
    o.Retier.o_profit

let test_retier_empty_window () =
  let t = Retier.create (rparams ()) ~meta_of in
  let o = Retier.retier t (snap_of []) in
  Alcotest.(check int) "no flows" 0 o.Retier.o_n_flows;
  Alcotest.(check (list int)) "no cuts" [] o.Retier.o_cuts;
  Alcotest.(check bool) "not calibrated" false (Retier.calibrated t)

let test_retier_skips_unknown_endpoints () =
  let t = Retier.create (rparams ()) ~meta_of in
  let snap = snap_of base_demands in
  let unknown =
    { Window.f_src = ip 50; f_dst = ip 999; f_uid = 99; f_mbps = 7. }
  in
  let snap =
    { snap with Window.s_flows = Array.append snap.Window.s_flows [| unknown |] }
  in
  let o = Retier.retier t snap in
  Alcotest.(check int) "skipped" 1 o.Retier.o_skipped;
  Alcotest.(check int) "priced the rest" universe_n o.Retier.o_n_flows

let test_retier_unchanged_replay () =
  let t = Retier.create (rparams ()) ~meta_of in
  let o1 = Retier.retier t (snap_of base_demands) in
  let o2 = Retier.retier t (snap_of ~bin:1 base_demands) in
  Alcotest.(check bool) "first solve cold" true (o1.Retier.o_solve = `Cold);
  Alcotest.(check bool) "replayed" true (o2.Retier.o_solve = `Unchanged);
  Alcotest.(check int) "no evaluations" 0 o2.Retier.o_evaluations;
  Alcotest.(check int) "dirty_from = n" universe_n o2.Retier.o_dirty_from;
  check_cuts "same cuts" o1.Retier.o_cuts o2.Retier.o_cuts

let test_retier_warm_suffix () =
  let t = Retier.create (rparams ()) ~meta_of in
  ignore (Retier.retier t (snap_of base_demands));
  (* Bump one demand: only that flow's valuation changes under CED, so
     the dirty suffix starts at its cost-order position, not 0. *)
  let bumped = List.mapi (fun i q -> if i = 6 then q +. 5. else q) base_demands in
  let snap = snap_of ~bin:1 bumped in
  let o = Retier.retier t snap in
  Alcotest.(check bool) "warm" true (o.Retier.o_solve = `Warm);
  Alcotest.(check bool) "suffix only" true
    (o.Retier.o_dirty_from > 0 && o.Retier.o_dirty_from < universe_n);
  Alcotest.(check bool) "no spot-check trip" false o.Retier.o_fallback;
  check_matches_cold t snap o

let test_retier_forced_fallback () =
  let t = Retier.create (rparams ~cold_every:2 ()) ~meta_of in
  ignore (Retier.retier t (snap_of base_demands));
  let bumped = List.map (fun q -> q +. 1.) base_demands in
  let snap = snap_of ~bin:1 bumped in
  (* Second solve: the drill forces the divergence path. *)
  let o = Retier.retier t snap in
  Alcotest.(check bool) "cold via drill" true (o.Retier.o_solve = `Cold);
  Alcotest.(check bool) "fallback flagged" true o.Retier.o_fallback;
  check_matches_cold t snap o

let test_retier_cold_every_one () =
  (* cold_every = 1: the drill fires on every actual solve — nothing is
     ever warm, and every outcome carries the fallback flag. *)
  let t = Retier.create (rparams ~cold_every:1 ()) ~meta_of in
  let demands =
    [ base_demands; base_demands; List.map (fun q -> q +. 2.) base_demands ]
  in
  List.iteri
    (fun i d ->
      let snap = snap_of ~bin:i d in
      let o = Retier.retier t snap in
      Alcotest.(check bool)
        (Printf.sprintf "window %d cold" i)
        true
        (o.Retier.o_solve = `Cold);
      Alcotest.(check bool)
        (Printf.sprintf "window %d drilled" i)
        true o.Retier.o_fallback;
      check_matches_cold t snap o)
    demands

let test_retier_drill_counts_solves_only () =
  (* The cadence counts actual solves, not posted windows: unchanged
     replays in between must not advance it. With cold_every = 2 the
     drill lands exactly on solves #2 and #4, however many replays
     separate them. *)
  let t = Retier.create (rparams ~cold_every:2 ()) ~meta_of in
  let d2 = List.map (fun q -> q +. 3.) base_demands in
  let d3 = List.mapi (fun i q -> if i = 5 then q +. 1. else q) d2 in
  let windows = [ base_demands; base_demands; base_demands; d2; d3 ] in
  let tags =
    List.mapi
      (fun i d ->
        let snap = snap_of ~bin:i d in
        let o = Retier.retier t snap in
        check_matches_cold t snap o;
        o.Retier.o_solve)
      windows
  in
  (* Solve #1 cold (no state); window 2 would replay but the drill is
     due on solve #2, so it goes cold; window 3 replays (the drill
     already fired, solves = 2); window 4 is solve #3 — warm; window 5
     is solve #4 — drill again. *)
  let show = function
    | `Cold -> "cold"
    | `Warm -> "warm"
    | `Unchanged -> "unchanged"
    | `Cached -> "cached"
  in
  Alcotest.(check (list string)) "drill cadence pinned to solves"
    [ "cold"; "cold"; "unchanged"; "warm"; "cold" ]
    (List.map show tags)

let test_retier_flow_count_change () =
  (* A window whose flow count changed (a departure, then an arrival)
     solves cold into a fresh state — exactly [solve_cold]'s work — and
     the next same-size window warm-starts from that state. *)
  let t = Retier.create (rparams ()) ~meta_of in
  ignore (Retier.retier t (snap_of base_demands));
  let check_cold name snap =
    let o = Retier.retier t snap in
    Alcotest.(check bool) (name ^ " solves cold") true (o.Retier.o_solve = `Cold);
    Alcotest.(check int) (name ^ " dirty_from") 0 o.Retier.o_dirty_from;
    Alcotest.(check int)
      (name ^ " evaluations = solve_cold")
      (Retier.solve_cold t snap).Retier.o_evaluations o.Retier.o_evaluations;
    check_matches_cold t snap o;
    o
  in
  let shrunk = List.mapi (fun i q -> if i = 2 then 0. else q) base_demands in
  let o = check_cold "departure" (snap_of ~bin:1 shrunk) in
  Alcotest.(check int) "one flow gone" (universe_n - 1) o.Retier.o_n_flows;
  ignore (check_cold "arrival" (snap_of ~bin:2 base_demands));
  let bumped = List.mapi (fun i q -> if i = 6 then q +. 5. else q) base_demands in
  let snap = snap_of ~bin:3 bumped in
  let o = Retier.retier t snap in
  Alcotest.(check bool) "same size warm-starts" true (o.Retier.o_solve = `Warm);
  check_matches_cold t snap o

let test_retier_arrival_cost_tie () =
  (* A never-seen flow whose frozen cost falls between two known flows'
     and ties a third's: it enters the retained cost order by (cost,
     id), ahead of the tied flow with the larger id — and the posted
     tiers are still the from-scratch ones. *)
  let metas =
    [|
      (0, 100.); (1, 500.); (3, 300.); (4, 700.); (5, 900.);
      (* the late arrival: id 2, distance (hence cost) of id 3 *)
      (2, 300.);
    |]
  in
  let meta_of src dst =
    let s = Flowgen.Ipv4.to_int src and d = Flowgen.Ipv4.to_int dst in
    if s >= 1 && s <= Array.length metas && d = 100 + s then
      let id, miles = metas.(s - 1) in
      Some
        {
          Retier.m_id = id;
          m_distance_miles = miles;
          m_locality = Tiered.Flow.International;
          m_on_net = false;
        }
    else None
  in
  let t = Retier.create (rparams ~n_bundles:3 ()) ~meta_of in
  let demands = [ 40.; 25.; 9.; 31.; 5. ] in
  ignore (Retier.retier t (snap_of demands));
  let snap = snap_of ~bin:1 (demands @ [ 17. ]) in
  let o = Retier.retier t snap in
  Alcotest.(check int) "arrival priced" 6 o.Retier.o_n_flows;
  check_matches_cold t snap o;
  (* (cost, id) order: ids 0 2 3 1 4 5 — a demand change at id 3 dirties
     position 2, behind the arrival it ties. *)
  let snap = snap_of ~bin:2 [ 40.; 25.; 11.; 31.; 5.; 17. ] in
  let o = Retier.retier t snap in
  Alcotest.(check bool) "same flows warm-start" true (o.Retier.o_solve = `Warm);
  Alcotest.(check int) "dirty from id 3's position" 2 o.Retier.o_dirty_from;
  check_matches_cold t snap o

let test_retier_arrivals_merge () =
  (* Never-seen flows at several costs — tying a known flow, between
     known flows, above all of them — are merged into the retained cost
     order, not appended: a later demand change at the 700-mile flow
     dirties exactly its (cost, id) position among all eight. *)
  let metas =
    [|
      (0, 100.); (1, 500.); (3, 300.); (4, 700.); (5, 900.);
      (* arrivals *)
      (2, 300.); (6, 600.); (7, 1000.);
    |]
  in
  let meta_of src dst =
    let s = Flowgen.Ipv4.to_int src and d = Flowgen.Ipv4.to_int dst in
    if s >= 1 && s <= Array.length metas && d = 100 + s then
      let id, miles = metas.(s - 1) in
      Some
        {
          Retier.m_id = id;
          m_distance_miles = miles;
          m_locality = Tiered.Flow.International;
          m_on_net = false;
        }
    else None
  in
  let t = Retier.create (rparams ~n_bundles:3 ()) ~meta_of in
  ignore (Retier.retier t (snap_of [ 40.; 25.; 9.; 31.; 5. ]));
  let snap = snap_of ~bin:1 [ 40.; 25.; 9.; 31.; 5.; 17.; 12.; 6. ] in
  let o = Retier.retier t snap in
  check_matches_cold t snap o;
  (* (cost, id) order: ids 0 2 3 1 6 4 5 7 — id 4 sits at position 5. *)
  let snap = snap_of ~bin:2 [ 40.; 25.; 9.; 33.; 5.; 17.; 12.; 6. ] in
  let o = Retier.retier t snap in
  Alcotest.(check bool) "same flows warm-start" true (o.Retier.o_solve = `Warm);
  Alcotest.(check int) "dirty from id 4's position" 5 o.Retier.o_dirty_from;
  check_matches_cold t snap o

let test_retier_cache_roundtrip () =
  let t = Retier.create (rparams ~use_cache:true ()) ~meta_of in
  let d2 = List.map (fun q -> q *. 1.5) base_demands in
  let o1 = Retier.retier t (snap_of base_demands) in
  let _o2 = Retier.retier t (snap_of ~bin:1 d2) in
  (* Revisiting the first demand pattern hits the cache... *)
  let o3 = Retier.retier t (snap_of ~bin:2 base_demands) in
  Alcotest.(check bool) "cache hit" true (o3.Retier.o_solve = `Cached);
  check_cuts "cached cuts" o1.Retier.o_cuts o3.Retier.o_cuts;
  check_prices "cached prices" o1.Retier.o_prices o3.Retier.o_prices;
  (* ...and leaves the retained state on the last *solved* window, so
     revisiting that one replays instead of re-solving. *)
  let o4 = Retier.retier t (snap_of ~bin:3 d2) in
  Alcotest.(check bool) "state untouched by hit" true
    (o4.Retier.o_solve = `Unchanged || o4.Retier.o_solve = `Cached)

let test_retier_logit_all_or_nothing () =
  let spec = Tiered.Market.Logit { s0 = 0.3 } in
  let t = Retier.create (rparams ~spec ()) ~meta_of in
  ignore (Retier.retier t (snap_of base_demands));
  let o_same = Retier.retier t (snap_of ~bin:1 base_demands) in
  Alcotest.(check bool) "identical replays" true
    (o_same.Retier.o_solve = `Unchanged);
  let bumped = List.mapi (fun i q -> if i = 6 then q +. 5. else q) base_demands in
  let snap = snap_of ~bin:2 bumped in
  let o = Retier.retier t snap in
  (* Logit never trusts a partial prefix: dirty_from collapses to 0. *)
  Alcotest.(check int) "all-or-nothing" 0 o.Retier.o_dirty_from;
  check_matches_cold t snap o

let test_retier_rejects_linear () =
  Alcotest.check_raises "linear rejected" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Retier.create
             (rparams ~spec:(Tiered.Market.Linear { epsilon = 1.2 }) ())
             ~meta_of)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_retier_rejects_nonpositive_cost () =
  (* Under this concave model the farthest flow's relative cost is the
     curve's maximum minus itself: its frozen cost is zero, and the
     re-tier refuses it when the flow is first priced. *)
  let cost_model = Tiered.Cost_model.Concave { theta = -1.; a = 0.5; b = 6.; c = 1. } in
  let t = Retier.create { (rparams ()) with Retier.cost_model } ~meta_of in
  Alcotest.check_raises "zero cost"
    (Invalid_argument "Serve.Retier: frozen costs must be positive") (fun () ->
      ignore (Retier.retier t (snap_of base_demands)))

(* --- Shards -------------------------------------------------------------- *)

let test_shards_stable_partition () =
  let t = Shards.create ~shards:3 ~dedup:false (wparams ()) in
  let r = rec_ ~src:0x0A0B0C01 ~dst:0x0A0B0D02 ~bytes:1. ~first_s:0 () in
  let s0 = Shards.shard_of t r in
  (* The same endpoint pair always lands on the same shard, regardless
     of ports, router or time — a flow's duplicates share its shard. *)
  let variants =
    [
      rec_ ~router:5 ~src:0x0A0B0C01 ~dst:0x0A0B0D02 ~bytes:9. ~first_s:77 ();
      rec_ ~src_port:4242 ~src:0x0A0B0C01 ~dst:0x0A0B0D02 ~bytes:2. ~first_s:3 ();
    ]
  in
  List.iter
    (fun v -> Alcotest.(check int) "stable shard" s0 (Shards.shard_of t v))
    variants;
  (* Last-octet churn stays on the shard too (/24 prefix partition). *)
  let sibling = rec_ ~src:0x0A0B0C63 ~dst:0x0A0B0D07 ~bytes:1. ~first_s:0 () in
  Alcotest.(check int) "/24 sibling" s0 (Shards.shard_of t sibling)

let test_shards_merge_matches_single () =
  (* The sharded pipeline's merged snapshot feeds the same tiers as a
     1-shard run: exercised end-to-end below; here, the merge itself —
     flow multiset and aggregate counters agree at any shard count. *)
  let records =
    (* Endpoints spread across /24s so a multi-shard run actually
       partitions the flows. *)
    List.init 40 (fun i ->
        rec_ ~src:((i * 1024) + 7) ~dst:((i * 2048) + 9000)
          ~bytes:(float_of_int (100 * (i + 1)))
          ~first_s:i ())
  in
  let run k =
    let t = Shards.create ~shards:k ~dedup:false (wparams ()) in
    List.iter (Shards.observe t) records;
    Shards.snapshot t ~bin:4 ~retire_s:(-100)
  in
  let s1 = run 1 and s3 = run 3 in
  let key f = (Flowgen.Ipv4.to_int f.Window.f_src, f.Window.f_mbps) in
  let sorted s =
    Array.to_list s.Window.s_flows |> List.map key |> List.sort compare
  in
  Alcotest.(check int) "same flow count" (Array.length s1.Window.s_flows)
    (Array.length s3.Window.s_flows);
  Alcotest.(check bool) "same rates" true (sorted s1 = sorted s3);
  Alcotest.(check (float 0.)) "same occupancy" s1.Window.s_occupancy
    s3.Window.s_occupancy;
  Alcotest.(check int) "same late" s1.Window.s_late s3.Window.s_late

let test_shards_column_growth () =
  (* More pending records than the columns' first allocation: the drain
     still sees them in arrival order (uids are first-appearance order)
     and dedup still pairs each duplicate with its original. *)
  let n = 700 in
  let t = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  for i = 0 to n - 1 do
    Shards.observe t (rec_ ~src:(i + 1) ~dst:(5000 + i) ~bytes:(float_of_int (i + 1)) ~first_s:0 ());
    Shards.observe t
      (rec_ ~router:1 ~src:(i + 1) ~dst:(5000 + i) ~bytes:(float_of_int (i + 1)) ~first_s:0 ())
  done;
  Alcotest.(check int) "all pending" (2 * n) (Shards.pending t);
  let s = Shards.snapshot t ~bin:0 ~retire_s:(-100) in
  Alcotest.(check (list int)) "arrival order"
    (List.init n (fun i -> i + 1))
    (Array.to_list
       (Array.map (fun f -> Flowgen.Ipv4.to_int f.Window.f_src) s.Window.s_flows));
  Alcotest.(check (option int)) "duplicates dropped" (Some n) (Shards.dropped_dup t);
  Alcotest.(check int) "drained" 0 (Shards.pending t)

(* --- Daemon end-to-end: warm == cold over a multi-day run ---------------- *)

let serve_wp = { Window.bin_s = 3600; bins = 24; decay = Window.No_decay }

let serve_retier ?(spec = Tiered.Market.Ced) ?(cold_every = 9) w =
  Retier.create
    {
      Retier.spec;
      alpha = 2.0;
      p0 = 30.;
      n_bundles = 4;
      cost_model = Tiered.Cost_model.concave ~theta:0.5;
      samples = 8;
      cold_every;
      use_cache = false;
    }
    ~meta_of:(Retier.meta_of_workload w)

let test_daemon_determinism () =
  let w = Lazy.force small_workload in
  let retier = serve_retier w in
  let shards = Shards.create ~shards:1 ~dedup:true serve_wp in
  let clock, _set = Clock.manual () in
  let windows = ref 0 in
  let result =
    Daemon.run
      ~on_retier:(fun snap o ->
        incr windows;
        check_matches_cold retier snap o)
      ~clock ~shards ~retier
      { Daemon.every_s = 3600 }
      (* Three days: hourly windows repeat with a one-day period once
         the window has slid fully into replayed traffic, so the run
         contains signature-identical (unchanged) windows. *)
      (Ingest.of_workload ~days:3 ~seed:11 w)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 windows (got %d)" !windows)
    true (!windows >= 20);
  let s = result.Daemon.r_stats in
  Alcotest.(check bool) "warm solves happened" true (s.Stats.warm > 0);
  Alcotest.(check bool) "forced fallback happened" true (s.Stats.fallbacks >= 1);
  Alcotest.(check int) "every window posted" !windows s.Stats.retiers;
  (* Day 2 replays day 1's bytes at the same phase, so some windows are
     signature-identical to an already-solved one. *)
  Alcotest.(check bool) "unchanged replays happened" true (s.Stats.unchanged > 0);
  Alcotest.(check bool) "duplicates were suppressed" true
    (match result.Daemon.r_run.Stats.dropped_dup with
    | Some d -> d > 0
    | None -> false);
  Alcotest.(check int) "no late drops" 0 result.Daemon.r_run.Stats.late;
  Alcotest.(check int) "one shard reported" 1
    result.Daemon.r_run.Stats.shards

let run_sharded ?pool ~shards ~days w =
  let retier = serve_retier w in
  let state = Shards.create ~shards ~dedup:true serve_wp in
  let clock, _ = Clock.manual () in
  let posted = ref [] in
  let result =
    Daemon.run
      ~on_retier:(fun _ o -> posted := o :: !posted)
      ~clock ?pool ~shards:state ~retier
      { Daemon.every_s = 3600 }
      (Ingest.of_workload ~days ~seed:11 w)
  in
  (result, List.rev !posted)

let check_same_postings name a b =
  Alcotest.(check int) (name ^ ": window count") (List.length a)
    (List.length b);
  List.iter2
    (fun (x : Retier.outcome) (y : Retier.outcome) ->
      check_cuts (name ^ ": cuts") x.Retier.o_cuts y.Retier.o_cuts;
      check_prices (name ^ ": prices") x.Retier.o_prices y.Retier.o_prices;
      Alcotest.(check (float 0.))
        (name ^ ": profit")
        x.Retier.o_profit y.Retier.o_profit)
    a b

let test_daemon_shard_equality () =
  (* The acceptance pin of the sharded pipeline: posted tiers are
     bitwise those of the 1-shard run, window for window, and the
     aggregate run counters agree. *)
  let w = Lazy.force small_workload in
  let r1, p1 = run_sharded ~shards:1 ~days:2 w in
  let r3, p3 = run_sharded ~shards:3 ~days:2 w in
  check_same_postings "3 vs 1 shards" p1 p3;
  Alcotest.(check int) "same records" r1.Daemon.r_run.Stats.records
    r3.Daemon.r_run.Stats.records;
  Alcotest.(check (option int)) "same duplicates dropped"
    r1.Daemon.r_run.Stats.dropped_dup r3.Daemon.r_run.Stats.dropped_dup;
  Alcotest.(check int) "same flows" r1.Daemon.r_flows r3.Daemon.r_flows

let test_daemon_shard_pool () =
  (* Same pin with the drain fanned out on a domain pool. *)
  let w = Lazy.force small_workload in
  let _, serial = run_sharded ~shards:2 ~days:1 w in
  let _, pooled =
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        run_sharded ~pool ~shards:2 ~days:1 w)
  in
  check_same_postings "pooled vs serial" serial pooled

let records_of ing =
  let rec drain acc = match Ingest.next ing with Some r -> drain (r :: acc) | None -> List.rev acc in
  drain []

(* Three stream days in which a cohort of every 11th flow is dark on
   odd days, so it departs on day 1 and re-arrives on day 2 (with only
   2 days it would never come back). *)
let churned_stream w =
  let cohort = Hashtbl.create 16 in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      if f.Flowgen.Workload.id mod 11 = 0 then
        Hashtbl.replace cohort (f.Flowgen.Workload.src_addr, f.Flowgen.Workload.dst_addr) ())
    w.Flowgen.Workload.flows;
  List.filter
    (fun (r : Flowgen.Netflow.record) ->
      not
        ((r.Flowgen.Netflow.first_s / Flowgen.Netflow.day_seconds) mod 2 = 1
        && Hashtbl.mem cohort (r.Flowgen.Netflow.src, r.Flowgen.Netflow.dst)))
    (records_of (Ingest.of_workload ~days:3 ~seed:11 w))

let test_daemon_churn_warm_starts () =
  (* Over a churned multi-day stream the cold solves are exactly the
     first window, the drills and the windows whose flow count changed
     (arrivals or departures); every other solve warm-starts. *)
  let w = Lazy.force small_workload in
  let stream = churned_stream w in
  (* Hourly windows: the cohort leaves at bin 47 and is back at bin 48.
     A cadence of 10 keeps the drills (solves 10, 20, ...) off both. *)
  let cold_every = 10 in
  let retier = serve_retier ~cold_every w in
  let clock, _ = Clock.manual () in
  let prev_n = ref None and resized = ref 0 in
  let result =
    Daemon.run
      ~on_retier:(fun snap o ->
        (match !prev_n with
        | Some n when n <> o.Retier.o_n_flows -> incr resized
        | _ -> ());
        prev_n := Some o.Retier.o_n_flows;
        check_matches_cold retier snap o)
      ~clock
      ~shards:(Shards.create ~shards:1 ~dedup:true serve_wp)
      ~retier { Daemon.every_s = 3600 } (Ingest.of_sequence stream)
  in
  let s = result.Daemon.r_stats in
  Alcotest.(check bool) "the flow set changed between windows" true
    (!resized > 0);
  Alcotest.(check int) "cold solves = first window + drills + resizes"
    (1 + ((s.Stats.warm + s.Stats.cold) / cold_every) + !resized)
    s.Stats.cold

let test_retier_posts_pricing_bits () =
  (* Posted prices and profit are bit for bit [Pricing.evaluate] on the
     window's market built from records: a [Flow.t] per priced flow in
     (cost, id) order, [Market.of_parameters] over the same valuations
     and costs, and the contiguous bundles of the posted cuts. The
     calibration is redone as the re-tier does it: [Market.fit] on the
     first window's priced flows in snapshot order, with the cost
     model's normalizations frozen there. *)
  let w = Lazy.force small_workload in
  let stream = churned_stream w in
  let meta_of = Retier.meta_of_workload w in
  let alpha = 2.0 and p0 = 30. and cost_model = Tiered.Cost_model.concave ~theta:0.5 in
  let bits = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal in
  List.iter
    (fun spec ->
      let name = Tiered.Market.demand_spec_name spec in
      let calib = ref None and prev_n = ref None and resized = ref 0 in
      let check_window (snap : Window.snapshot) (o : Retier.outcome) =
        (match !prev_n with
        | Some n when n <> o.Retier.o_n_flows -> incr resized
        | _ -> ());
        prev_n := Some o.Retier.o_n_flows;
        let flows =
          Array.to_list snap.Window.s_flows
          |> List.filter_map (fun (fr : Window.flow_rate) ->
                 Option.map
                   (fun (m : Retier.flow_meta) ->
                     ( fr.Window.f_uid,
                       Tiered.Flow.make ~locality:m.Retier.m_locality
                         ~on_net:m.Retier.m_on_net ~id:m.Retier.m_id
                         ~demand_mbps:fr.Window.f_mbps
                         ~distance_miles:m.Retier.m_distance_miles () ))
                   (meta_of fr.Window.f_src fr.Window.f_dst))
        in
        let gamma, rel_cost =
          match !calib with
          | Some c -> c
          | None ->
              let flows = Array.of_list (List.map snd flows) in
              let m0 = Tiered.Market.fit ~spec ~alpha ~p0 ~cost_model flows in
              let c = (m0.Tiered.Market.gamma, Tiered.Cost_model.freeze cost_model flows) in
              calib := Some c;
              c
        in
        let keyed =
          List.map (fun (uid, f) -> ((gamma *. rel_cost f, f.Tiered.Flow.id, uid), f)) flows
          |> List.sort (fun ((c, i, u), _) ((c', i', u'), _) ->
                 match Float.compare c c' with
                 | 0 -> ( match Int.compare i i' with 0 -> Int.compare u u' | k -> k)
                 | k -> k)
        in
        let sorted = Array.of_list (List.map snd keyed) in
        let costs = Array.of_list (List.map (fun ((c, _, _), _) -> c) keyed) in
        let demands = Tiered.Flow.demands sorted in
        let valuations, k =
          match spec with
          | Tiered.Market.Logit { s0 } ->
              let fit = Tiered.Logit.fit_valuations ~alpha ~p0 ~s0 ~demands in
              (fit.Tiered.Logit.valuations, Some fit.Tiered.Logit.k)
          | _ ->
              (Array.map (fun q -> Tiered.Ced.valuation_of_demand ~alpha ~p0 ~q) demands, None)
        in
        let market =
          Tiered.Market.of_parameters ~spec ~alpha ~p0 ?k ~valuations ~costs sorted
        in
        let expect =
          Tiered.Pricing.evaluate market
            (Tiered.Bundle.contiguous
               ~order:(Array.init (Array.length sorted) Fun.id)
               ~cuts:o.Retier.o_cuts)
        in
        let at = Printf.sprintf "%s bin %d" name o.Retier.o_bin in
        Alcotest.(check (array bits)) (at ^ " prices")
          expect.Tiered.Pricing.bundle_prices o.Retier.o_prices;
        Alcotest.check bits (at ^ " profit") expect.Tiered.Pricing.profit
          o.Retier.o_profit
      in
      let retier = serve_retier ~spec w in
      let clock, _ = Clock.manual () in
      ignore
        (Daemon.run ~on_retier:check_window ~clock
           ~shards:(Shards.create ~shards:1 ~dedup:true serve_wp)
           ~retier { Daemon.every_s = 3600 } (Ingest.of_sequence stream));
      Alcotest.(check bool) (name ^ ": arrivals and departures") true (!resized >= 2))
    [ Tiered.Market.Ced; Tiered.Market.Logit { s0 = 0.3 } ]

let test_daemon_wire_equals_sequence () =
  (* The cursor pump over a wire reader and the record path over the
     same decoded records post identical tiers and run counters. *)
  let w = Lazy.force small_workload in
  let wire =
    String.concat ""
      (Flowgen.Netflow.Wire.encode (records_of (Ingest.of_workload ~days:2 ~seed:11 w)))
  in
  let run ingest =
    let posted = ref [] in
    let clock, _ = Clock.manual () in
    let result =
      Daemon.run
        ~on_retier:(fun _ o -> posted := o :: !posted)
        ~clock
        ~shards:(Shards.create ~shards:1 ~dedup:true serve_wp)
        ~retier:(serve_retier w) { Daemon.every_s = 3600 } ingest
    in
    (result, List.rev !posted)
  in
  let rw, pw = run (Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire)) in
  let rs, ps =
    run
      (Ingest.of_sequence
         (Flowgen.Netflow.Wire.read_all (Flowgen.Netflow.Wire.of_string wire)))
  in
  check_same_postings "wire vs sequence" ps pw;
  List.iter2
    (fun (a : Retier.outcome) (b : Retier.outcome) ->
      Alcotest.(check bool) "same solve kind" true (a.Retier.o_solve = b.Retier.o_solve);
      Alcotest.(check int) "same evaluations" a.Retier.o_evaluations b.Retier.o_evaluations)
    ps pw;
  let strip (r : Stats.run) = { r with Stats.wall_s = 0.; records_per_s = 0. } in
  Alcotest.(check bool) "same run counters" true
    (strip rs.Daemon.r_run = strip rw.Daemon.r_run);
  Alcotest.(check int) "same flows" rs.Daemon.r_flows rw.Daemon.r_flows

let test_daemon_trace_wire_file () =
  (* The `tiered-cli trace --format wire` path: synthesized records go
     through Netflow.in_time_order before encoding (synthesis emits flow
     by flow, out of time order), so serving the file posts what
     Ingest.of_records posts over the same (wire-rounded) records. *)
  let w = Lazy.force small_workload in
  let records =
    Flowgen.Netflow.synthesize ~rng:(Numerics.Rng.create 99)
      (Flowgen.Workload.to_ground_truth w)
  in
  let in_order rs =
    let stamps = List.map (fun (r : Flowgen.Netflow.record) -> r.Flowgen.Netflow.first_s) rs in
    List.equal Int.equal stamps (List.sort Int.compare stamps)
  in
  Alcotest.(check bool) "synthesis is out of time order" false (in_order records);
  let sorted = Flowgen.Netflow.in_time_order records in
  Alcotest.(check bool) "in_time_order sorts" true (in_order sorted);
  let wire = String.concat "" (Flowgen.Netflow.Wire.encode sorted) in
  let run ingest =
    let posted = ref [] in
    let clock, _ = Clock.manual () in
    ignore
      (Daemon.run
         ~on_retier:(fun _ o -> posted := o :: !posted)
         ~clock
         ~shards:(Shards.create ~shards:1 ~dedup:true serve_wp)
         ~retier:(serve_retier w) { Daemon.every_s = 3600 } ingest);
    List.rev !posted
  in
  let from_file = run (Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire)) in
  let expected =
    run (Ingest.of_records (List.map Flowgen.Netflow.Wire.normalize records))
  in
  Alcotest.(check int) "one window per hour" 24 (List.length from_file);
  check_same_postings "trace wire file vs of_records" expected from_file

let test_daemon_out_of_order () =
  (* Out-of-order arrivals (dedup off — its contract needs ordered
     input): the tail horizon must not be pulled backwards by a late
     record, and every posted window still matches from-scratch. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:4.5e5 ~first_s:2 ();
      rec_ ~src:2 ~dst:102 ~bytes:3.0e5 ~first_s:25 ();
      (* Late but in-window: must land in its own bin, and must not
         rewind last_seen (the tail re-tier still covers bin 2). *)
      rec_ ~src:1 ~dst:101 ~bytes:1.5e5 ~first_s:18 ();
    ]
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:false (wparams ()) in
  let clock, _ = Clock.manual () in
  let posted = ref [] in
  let result =
    Daemon.run
      ~on_retier:(fun snap o ->
        posted := o :: !posted;
        check_matches_cold retier snap o)
      ~clock ~shards ~retier
      { Daemon.every_s = 10 }
      (Ingest.of_sequence records)
  in
  Alcotest.(check bool) "dedup off" true
    (result.Daemon.r_run.Stats.dropped_dup = None);
  Alcotest.(check int) "nothing late" 0 result.Daemon.r_run.Stats.late;
  match !posted with
  | last :: _ ->
      (* last_seen = 25 (not 18): the tail re-tier covers bin 2. *)
      Alcotest.(check int) "tail window bin" 2 last.Retier.o_bin
  | [] -> Alcotest.fail "no windows posted"

let test_daemon_dedup_and_late () =
  (* Duplicates (same 5-tuple and window, different router) are dropped
     and counted; a record older than the whole window is dropped as
     late, not misread as a duplicate. *)
  let records =
    [
      rec_ ~router:0 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:0 ();
      rec_ ~router:7 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:0 ();
      rec_ ~router:0 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:0 ();
      rec_ ~router:3 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:0 ();
      rec_ ~router:0 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:70 ();
      (* Fresh 5-tuple window, but its bin slid out 10s ago. *)
      rec_ ~router:0 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:5 ();
    ]
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  let clock, _ = Clock.manual () in
  let result =
    Daemon.run ~clock ~shards ~retier
      { Daemon.every_s = 1000 }
      (Ingest.of_sequence records)
  in
  Alcotest.(check int) "all ingested" 6 result.Daemon.r_run.Stats.records;
  Alcotest.(check (option int)) "two duplicates dropped" (Some 2)
    result.Daemon.r_run.Stats.dropped_dup;
  Alcotest.(check int) "one late drop" 1 result.Daemon.r_run.Stats.late

let test_daemon_wire_counters () =
  (* A wire-backed run surfaces the decoder's accounting: a crafted
     sequence jump shows up as seq_gaps, trailing garbage as malformed,
     and the records still price. *)
  let r1 = rec_ ~src:1 ~dst:101 ~bytes:4.5e5 ~first_s:2 () in
  let r2 = rec_ ~src:2 ~dst:102 ~bytes:3.0e5 ~first_s:14 () in
  let wire =
    Flowgen.Netflow.Wire.encode_v5 ~router:0 ~seq:0 [ r1 ]
    (* Sequence should be 1 here: 5 flows went missing upstream. *)
    ^ Flowgen.Netflow.Wire.encode_v5 ~router:0 ~seq:6 [ r2 ]
    ^ "trailing-garbage"
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  let clock, _ = Clock.manual () in
  let result =
    Daemon.run ~clock ~shards ~retier
      { Daemon.every_s = 1000 }
      (Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire))
  in
  Alcotest.(check int) "both records priced" 2
    result.Daemon.r_run.Stats.records;
  Alcotest.(check int) "gap accounted" 5 result.Daemon.r_run.Stats.seq_gaps;
  Alcotest.(check int) "garbage accounted" 1
    result.Daemon.r_run.Stats.malformed

let test_daemon_validation () =
  let shards = Shards.create ~shards:1 ~dedup:false (wparams ()) in
  let t = Retier.create (rparams ()) ~meta_of in
  let clock, _ = Clock.manual () in
  Alcotest.check_raises "every_s" (Invalid_argument "Serve.Daemon: every_s < 1")
    (fun () ->
      ignore
        (Daemon.run ~clock ~shards ~retier:t
           { Daemon.every_s = 0 }
           (Ingest.of_records [])))

let suite =
  [
    Alcotest.test_case "manual clock" `Quick test_manual_clock;
    Alcotest.test_case "window mean rate" `Quick test_window_mean_rate;
    Alcotest.test_case "window slides" `Quick test_window_accumulates_and_slides;
    Alcotest.test_case "window late drop" `Quick test_window_late_drop;
    Alcotest.test_case "window ring reuse" `Quick test_window_ring_reuse;
    Alcotest.test_case "window lagging flow" `Quick test_window_lagging_flow;
    Alcotest.test_case "window exponential decay" `Quick test_window_exponential_decay;
    Alcotest.test_case "window diurnal weights" `Quick test_window_diurnal_weights;
    Alcotest.test_case "window occupancy" `Quick test_window_occupancy;
    Alcotest.test_case "window validation" `Quick test_window_validation;
    Alcotest.test_case "ingest sorted + replayed" `Quick test_ingest_sorted_and_replayed;
    Alcotest.test_case "ingest day shift" `Quick test_ingest_day_shift;
    Alcotest.test_case "ingest sequence verbatim" `Quick test_ingest_sequence_verbatim;
    Alcotest.test_case "ingest wire reader" `Quick test_ingest_wire_reader;
    Alcotest.test_case "percentile nearest rank" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "stats rates" `Quick test_stats_rates;
    Alcotest.test_case "stats absent vs zero" `Quick test_stats_absent_vs_zero;
    Alcotest.test_case "retier empty window" `Quick test_retier_empty_window;
    Alcotest.test_case "retier skips unknown endpoints" `Quick test_retier_skips_unknown_endpoints;
    Alcotest.test_case "retier unchanged replay" `Quick test_retier_unchanged_replay;
    Alcotest.test_case "retier warm suffix" `Quick test_retier_warm_suffix;
    Alcotest.test_case "retier forced fallback" `Quick test_retier_forced_fallback;
    Alcotest.test_case "retier cold_every=1 all cold" `Quick test_retier_cold_every_one;
    Alcotest.test_case "retier drill counts solves only" `Quick test_retier_drill_counts_solves_only;
    Alcotest.test_case "retier flow-count change solves cold" `Quick
      test_retier_flow_count_change;
    Alcotest.test_case "retier cache roundtrip" `Quick test_retier_cache_roundtrip;
    Alcotest.test_case "retier arrival between and tying known costs" `Quick
      test_retier_arrival_cost_tie;
    Alcotest.test_case "retier arrivals merge into the cost order" `Quick
      test_retier_arrivals_merge;
    Alcotest.test_case "retier logit all-or-nothing" `Quick test_retier_logit_all_or_nothing;
    Alcotest.test_case "retier rejects linear" `Quick test_retier_rejects_linear;
    Alcotest.test_case "retier rejects a non-positive cost" `Quick
      test_retier_rejects_nonpositive_cost;
    Alcotest.test_case "shards stable partition" `Quick test_shards_stable_partition;
    Alcotest.test_case "shards merge matches single" `Quick test_shards_merge_matches_single;
    Alcotest.test_case "daemon determinism (warm == cold)" `Quick test_daemon_determinism;
    Alcotest.test_case "daemon shard equality" `Quick test_daemon_shard_equality;
    Alcotest.test_case "daemon shard pool" `Quick test_daemon_shard_pool;
    Alcotest.test_case "daemon out-of-order tail" `Quick test_daemon_out_of_order;
    Alcotest.test_case "daemon dedup and late" `Quick test_daemon_dedup_and_late;
    Alcotest.test_case "daemon wire counters" `Quick test_daemon_wire_counters;
    Alcotest.test_case "daemon validation" `Quick test_daemon_validation;
    Alcotest.test_case "shards column growth" `Quick test_shards_column_growth;
    Alcotest.test_case "daemon wire == sequence" `Quick test_daemon_wire_equals_sequence;
    Alcotest.test_case "daemon serves a trace wire file" `Quick
      test_daemon_trace_wire_file;
    Alcotest.test_case "daemon churn warm-starts" `Quick test_daemon_churn_warm_starts;
    Alcotest.test_case "retier posts Pricing.evaluate's bits" `Quick
      test_retier_posts_pricing_bits;
  ]
