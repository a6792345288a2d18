module Market = Tiered.Market
module Flow = Tiered.Flow

type flow_meta = {
  m_id : int;
  m_distance_miles : float;
  m_locality : Flow.locality;
  m_on_net : bool;
}

let meta_of_workload (w : Flowgen.Workload.t) =
  let index = Hashtbl.create (List.length w.flows) in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      Hashtbl.replace index
        (Flowgen.Ipv4.to_int f.src_addr, Flowgen.Ipv4.to_int f.dst_addr)
        {
          m_id = f.id;
          m_distance_miles = f.distance_miles;
          m_locality = Tiered.Dataset.locality_of f.locality;
          m_on_net = f.on_net;
        })
    w.flows;
  fun src dst ->
    Hashtbl.find_opt index (Flowgen.Ipv4.to_int src, Flowgen.Ipv4.to_int dst)

type params = {
  spec : Market.demand_spec;
  alpha : float;
  p0 : float;
  n_bundles : int;
  cost_model : Tiered.Cost_model.t;
  samples : int;
  cold_every : int;
  use_cache : bool;
}

(* The window's signature in the DP's cost order, as parallel
   columns: positions are (cost, flow id, uid) order, so an unchanged
   prefix of the columns means an unchanged prefix of segment values
   (under CED; see [dirty_from] for the logit caveat). It keys on
   demand rather than valuation: the valuation is a fixed bijection of
   demand under the frozen calibration, so equal columns are equal DP
   inputs — and unchanged windows never pay the inversion. Each column
   holds exactly the window's flows; its buffers are rewritten in place
   while the flow count stays the same. *)
type signature = {
  mutable costs : float array;  (* frozen absolute cost *)
  mutable qs : float array;  (* demand, Mbps *)
  mutable ids : int array;  (* flow id *)
}

let empty_signature () = { costs = [||]; qs = [||]; ids = [||] }

type solved = { s_cuts : int list; s_prices : float array; s_profit : float }

(* The frozen calibration and the retained cost order. Every cost
   model prices static flow attributes (distance, locality, identity),
   never demand, so a flow's frozen absolute cost is a per-flow
   constant: each priced flow keeps it, and all of them stay sorted by
   (cost, flow id). A window's (cost, id) order is then a presence scan
   over that order; a never-seen flow is sorted alone and merged in. *)
type calib = {
  gamma : float;
  rel_cost : Flow.t -> float;
  mutable cost : float array;  (* window uid -> gamma * rel_cost *)
  mutable rank : int array;  (* window uid -> index in [sorted]; -1 unpriced *)
  mutable sorted : int array;  (* every priced uid, by (cost, id, uid) *)
  mutable sorted_cost : float array;  (* rank -> cost *)
  mutable sorted_id : int array;  (* rank -> flow id *)
  mutable slot : int array;  (* rank -> window index; -1 between scans *)
}

type t = {
  params : params;
  meta_of : Flowgen.Ipv4.t -> Flowgen.Ipv4.t -> flow_meta option;
  cache : solved Engine.Cache.t option;
  mutable calib : calib option;
  mutable meta_memo : flow_meta option option array;
      (* window uid -> oracle answer; window uids are dense and stable,
         so the per-window join is an array probe, not a rehash of
         every endpoint pair. *)
  mutable uids : int array;  (* [join]'s priceable uids, reused *)
  mutable qs : float array;  (* and their demands *)
  mutable dp : Numerics.Segdp.state option;
  mutable sig_solved : signature;  (* what the retained state solved *)
  mutable sig_window : signature;  (* this window's; swapped in on a solve *)
  mutable last : solved option;  (* priced outcome matching [sig_solved] *)
  mutable solves : int;  (* warm/cold solves, for the cold_every drill *)
}

let create params ~meta_of =
  (match params.spec with
  | Market.Linear _ ->
      invalid_arg "Serve.Retier: Linear demand has no parametric rebuild"
  | Market.Ced | Market.Logit _ -> ());
  if params.n_bundles < 1 then invalid_arg "Serve.Retier: n_bundles < 1";
  if params.samples < 0 then invalid_arg "Serve.Retier: samples < 0";
  if params.cold_every < 0 then invalid_arg "Serve.Retier: cold_every < 0";
  {
    params;
    meta_of;
    cache =
      (if params.use_cache then
         Some (Engine.Cache.create ~schema:"serve-retier-v1" ~name:"serve-retier" ())
       else None);
    calib = None;
    meta_memo = [||];
    uids = [||];
    qs = [||];
    dp = None;
    sig_solved = empty_signature ();
    sig_window = empty_signature ();
    last = None;
    solves = 0;
  }

let calibrated t = t.calib <> None

type outcome = {
  o_bin : int;
  o_n_flows : int;
  o_skipped : int;
  o_cuts : int list;
  o_prices : float array;
  o_profit : float;
  o_solve : [ `Warm | `Cold | `Cached | `Unchanged ];
  o_dirty_from : int;
  o_evaluations : int;
  o_fallback : bool;
}

let empty_outcome ~bin ~skipped =
  {
    o_bin = bin;
    o_n_flows = 0;
    o_skipped = skipped;
    o_cuts = [];
    o_prices = [||];
    o_profit = 0.;
    o_solve = `Unchanged;
    o_dirty_from = 0;
    o_evaluations = 0;
    o_fallback = false;
  }

let flow_of_meta m ~mbps =
  Flow.make ~locality:m.m_locality ~on_net:m.m_on_net ~id:m.m_id
    ~demand_mbps:mbps ~distance_miles:m.m_distance_miles ()

(* [a] itself when it holds [len] entries, else a copy padded with
   [fill] to at least [len] (doubling, so growth is amortized O(1)). *)
let grow a len fill =
  let old = Array.length a in
  if len <= old then a
  else begin
    let g = Array.make (max len (2 * old)) fill in
    Array.blit a 0 g 0 old;
    g
  end

(* The oracle's answer for a rate, memoized by uid ([join] has grown
   the memo past every uid of the snapshot). *)
let meta_for t (fr : Window.flow_rate) =
  let uid = fr.Window.f_uid in
  match t.meta_memo.(uid) with
  | Some m -> m
  | None ->
      let m = t.meta_of fr.Window.f_src fr.Window.f_dst in
      t.meta_memo.(uid) <- Some m;
      m

(* Join a snapshot against the metadata oracle: the priceable flows'
   window uids and demands (in snapshot order) fill the front of
   [t.uids] and [t.qs]. Returns their count and the count of rates with
   no metadata. The memo and both buffers grow at most once a window. *)
let join t (snap : Window.snapshot) =
  let flows = snap.Window.s_flows in
  let len = Array.length flows in
  let top =
    Array.fold_left (fun m fr -> Int.max m fr.Window.f_uid) (-1) flows
  in
  t.meta_memo <- grow t.meta_memo (top + 1) None;
  t.uids <- grow t.uids len 0;
  t.qs <- grow t.qs len 0.;
  let n = ref 0 in
  Array.iter
    (fun (fr : Window.flow_rate) ->
      if Option.is_some (meta_for t fr) then begin
        t.uids.(!n) <- fr.Window.f_uid;
        t.qs.(!n) <- fr.Window.f_mbps;
        incr n
      end)
    flows;
  (!n, len - !n)

(* Metadata of a uid [join] kept. *)
let meta t uid =
  match t.meta_memo.(uid) with
  | Some (Some m) -> m
  | Some None | None -> invalid_arg "Serve.Retier: uid without metadata"

let ensure_calibrated t n =
  match t.calib with
  | Some c -> c
  | None ->
      let flows =
        Array.init n (fun i -> flow_of_meta (meta t t.uids.(i)) ~mbps:t.qs.(i))
      in
      let m0 =
        Market.fit ~spec:t.params.spec ~alpha:t.params.alpha ~p0:t.params.p0
          ~cost_model:t.params.cost_model flows
      in
      let c =
        {
          gamma = m0.Market.gamma;
          rel_cost = Tiered.Cost_model.freeze t.params.cost_model flows;
          cost = [||];
          rank = [||];
          sorted = [||];
          sorted_cost = [||];
          sorted_id = [||];
          slot = [||];
        }
      in
      t.calib <- Some c;
      c

(* The retained order's key: (cost, flow id), then uid for uids that
   share a flow id. *)
let by_key t c a b =
  match Float.compare c.cost.(a) c.cost.(b) with
  | 0 -> (
      match Int.compare (meta t a).m_id (meta t b).m_id with
      | 0 -> Int.compare a b
      | k -> k)
  | k -> k

(* Price never-seen flows, sort them alone and merge them into the
   retained order: O(known + fresh log fresh), no re-sort of the known
   flows. *)
let admit t c n =
  let fresh = ref [] in
  for i = 0 to n - 1 do
    let uid = t.uids.(i) in
    c.rank <- grow c.rank (uid + 1) (-1);
    if c.rank.(uid) < 0 then begin
      let cost = c.gamma *. c.rel_cost (flow_of_meta (meta t uid) ~mbps:t.qs.(i)) in
      if not (cost > 0.) then
        invalid_arg "Serve.Retier: frozen costs must be positive";
      c.cost <- grow c.cost (uid + 1) Float.nan;
      c.cost.(uid) <- cost;
      (* Priced; the merge below ranks it. *)
      c.rank.(uid) <- max_int;
      fresh := uid :: !fresh
    end
  done;
  if !fresh <> [] then begin
    let fresh = Array.of_list !fresh in
    Array.sort (by_key t c) fresh;
    let known = c.sorted in
    let nk = Array.length known and nf = Array.length fresh in
    let sorted = Array.make (nk + nf) 0 in
    let a = ref 0 and b = ref 0 in
    for r = 0 to nk + nf - 1 do
      let from_known =
        !b >= nf || (!a < nk && by_key t c known.(!a) fresh.(!b) < 0)
      in
      let uid =
        if from_known then begin
          incr a;
          known.(!a - 1)
        end
        else begin
          incr b;
          fresh.(!b - 1)
        end
      in
      sorted.(r) <- uid;
      c.rank.(uid) <- r
    done;
    c.sorted <- sorted;
    c.sorted_cost <- Array.map (fun uid -> c.cost.(uid)) sorted;
    c.sorted_id <- Array.map (fun uid -> (meta t uid).m_id) sorted;
    c.slot <- Array.make (nk + nf) (-1)
  end

(* The cheap per-window pass: absolute costs off the retained order and
   the window's signature in (cost, id) order — a presence scan,
   O(priced flows + n), into [t.sig_window]. Valuations are *not* filled
   here — an unchanged window stops after comparing signatures. *)
let inputs_of t n =
  let c = ensure_calibrated t n in
  admit t c n;
  let uids = t.uids and qs = t.qs in
  for i = 0 to n - 1 do
    c.slot.(c.rank.(uids.(i))) <- i
  done;
  let s = t.sig_window in
  if Array.length s.costs <> n then begin
    s.costs <- Array.make n 0.;
    s.qs <- Array.make n 0.;
    s.ids <- Array.make n 0
  end;
  let p = ref 0 in
  Array.iteri
    (fun r i ->
      if i >= 0 then begin
        s.costs.(!p) <- c.sorted_cost.(r);
        s.qs.(!p) <- qs.(i);
        s.ids.(!p) <- c.sorted_id.(r);
        incr p;
        c.slot.(r) <- -1
      end)
    c.slot;
  s

(* The window's market as cost-ordered columns under the frozen
   calibration: valuations track the demands (per-flow closed form
   under CED, global inversion under logit). *)
let columns_of t (s : signature) =
  let { spec; alpha; p0; _ } = t.params in
  match spec with
  | Market.Ced ->
      let valuations =
        Array.map (fun q -> Tiered.Ced.valuation_of_demand ~alpha ~p0 ~q) s.qs
      in
      {
        Tiered.Pricing.spec;
        alpha;
        k = Float.nan;
        valuations;
        weights = Array.map (fun v -> v ** alpha) valuations;
        costs = s.costs;
      }
  | Market.Logit { s0 } ->
      let fit = Tiered.Logit.fit_valuations ~alpha ~p0 ~s0 ~demands:s.qs in
      {
        Tiered.Pricing.spec;
        alpha;
        k = fit.Tiered.Logit.k;
        valuations = fit.Tiered.Logit.valuations;
        weights = [||];
        costs = s.costs;
      }
  | Market.Linear _ -> assert false (* rejected by [create] *)

(* First changed DP position of a window with the retained state's flow
   count, [n] when nothing changed. Logit's segment values carry
   set-wide normalizers (max valuation, min cost) and its global demand
   inversion moves every valuation on any change, so a partially-clean
   prefix cannot be trusted there: the choice collapses to all
   (identical signature) or nothing. *)
let dirty_from t (s : signature) =
  let n = Array.length s.costs and r = t.sig_solved in
  let d = ref 0 in
  while
    !d < n
    && Float.equal r.costs.(!d) s.costs.(!d)
    && Float.equal r.qs.(!d) s.qs.(!d)
    && Int.equal r.ids.(!d) s.ids.(!d)
  do
    incr d
  done;
  match t.params.spec with
  | Market.Ced -> !d
  | Market.Logit _ -> if !d = n then n else 0
  | Market.Linear _ -> assert false

let priced columns (r : Numerics.Segdp.result) =
  let prices, profit = Tiered.Pricing.contiguous columns ~cuts:r.Numerics.Segdp.cuts in
  { s_cuts = r.Numerics.Segdp.cuts; s_prices = prices; s_profit = profit }

let cache_key t signature =
  let { spec; alpha; p0; n_bundles; cost_model; _ } = t.params in
  ( Market.demand_spec_name spec,
    (match spec with Market.Logit { s0 } -> s0 | _ -> 0.),
    alpha,
    p0,
    n_bundles,
    Tiered.Cost_model.name cost_model,
    Tiered.Cost_model.theta cost_model,
    signature.costs,
    signature.qs,
    signature.ids )

let retier t (snap : Window.snapshot) =
  let n, skipped = join t snap in
  if n = 0 then empty_outcome ~bin:snap.Window.s_bin ~skipped
  else begin
    let signature = inputs_of t n in
    let solve = ref `Cached in
    let dirty = ref n in
    let evals = ref 0 in
    let fallback = ref false in
    let do_solve () =
      (* Drill cadence counts {e actual} solves only: unchanged replays
         and cache hits post without solving and must not advance it,
         or the "every Nth solve cold" contract drifts under high
         unchanged rates. [t.solves] is bumped below, after the replay
         check. *)
      let force =
        t.params.cold_every > 0 && (t.solves + 1) mod t.params.cold_every = 0
      in
      (* The retained state and the window's first dirty position, when
         the window has the state's flow count. *)
      let warm =
        match t.dp with
        | Some st when Numerics.Segdp.state_n st = n ->
            Some (st, dirty_from t signature)
        | _ -> None
      in
      match (warm, t.last) with
      | Some (_, d), Some s when d = n && not force ->
          (* Signature-identical window and no drill due: the retained
             optimum and its pricing still stand verbatim, so skip the
             valuations, the DP replay and the re-pricing outright. *)
          solve := `Unchanged;
          s
      | _ ->
          t.solves <- t.solves + 1;
          let columns = columns_of t signature in
          let seg_value, regions = Tiered.Strategy.dp_columns columns in
          let result, how =
            match warm with
            | Some (st, d) ->
                (* Demand changes can move the clamp boundaries between
                   windows, so the warm solve always refreshes the
                   state's region decomposition. *)
                let r, how =
                  Numerics.Segdp.solve_warm ~samples:t.params.samples ~regions
                    ~force_fallback:force st ~dirty_from:d seg_value
                in
                dirty := (match how with `Warm -> d | `Cold -> 0);
                (r, how)
            | None ->
                (* No state yet, or the flow count changed (arrivals or
                   departures): solve cold into a fresh state. *)
                dirty := 0;
                let r, st =
                  Numerics.Segdp.solve_with_state ~samples:t.params.samples
                    ~regions ~n ~n_bundles:t.params.n_bundles seg_value
                in
                t.dp <- Some st;
                (r, `Cold)
          in
          solve := (how :> [ `Warm | `Cold | `Cached | `Unchanged ]);
          evals := result.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
          fallback :=
            force
            || result.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers > 0;
          t.sig_window <- t.sig_solved;
          t.sig_solved <- signature;
          let s = priced columns result in
          t.last <- Some s;
          s
    in
    let s =
      match t.cache with
      | Some cache ->
          Engine.Cache.find_or_add cache ~key:(cache_key t signature) do_solve
      | None -> do_solve ()
    in
    {
      o_bin = snap.Window.s_bin;
      o_n_flows = n;
      o_skipped = skipped;
      o_cuts = s.s_cuts;
      o_prices = s.s_prices;
      o_profit = s.s_profit;
      o_solve = !solve;
      o_dirty_from = !dirty;
      o_evaluations = !evals;
      o_fallback = !fallback;
    }
  end

let solve_cold t (snap : Window.snapshot) =
  let n, skipped = join t snap in
  if n = 0 then empty_outcome ~bin:snap.Window.s_bin ~skipped
  else begin
    let columns = columns_of t (inputs_of t n) in
    let seg_value, regions = Tiered.Strategy.dp_columns columns in
    let r =
      Numerics.Segdp.solve ~samples:t.params.samples ~regions ~n
        ~n_bundles:t.params.n_bundles seg_value
    in
    let s = priced columns r in
    {
      o_bin = snap.Window.s_bin;
      o_n_flows = n;
      o_skipped = skipped;
      o_cuts = s.s_cuts;
      o_prices = s.s_prices;
      o_profit = s.s_profit;
      o_solve = `Cold;
      o_dirty_from = 0;
      o_evaluations = r.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
      o_fallback = r.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers > 0;
    }
  end
