type params = {
  n_flows : int;
  aggregate_gbps : float;
  locality_scale : float;
  locality_spread : float;
  demand_cv : float;
  demand_distance_exponent : float;
  local_tail_miles : float;
  on_net_fraction : float;
  distance_mode : [ `Path | `Geo ];
  seed : int;
}

type flow = {
  id : int;
  entry : Netsim.Node.t;
  dst_city : Netsim.Cities.t;
  src_addr : Ipv4.t;
  dst_addr : Ipv4.t;
  mbps : float;
  distance_miles : float;
  locality : Geoip.locality;
  on_net : bool;
  routers : int list;
}

type t = {
  params : params;
  topology : Netsim.Topology.t;
  geoip : Geoip.t;
  flows : flow list;
}

type stats = {
  flow_count : int;
  w_avg_distance_miles : float;
  cv_distance : float;
  aggregate_gbps : float;
  cv_demand : float;
}

(* A candidate (entry PoP, destination PoP) pair with its distance and
   observation path. *)
type candidate = {
  c_entry : Netsim.Node.t;
  c_dst : Netsim.Node.t;
  c_distance : float;
  c_routers : int list;
}

let candidates topology mode =
  let pops = Array.of_list topology.Netsim.Topology.pops in
  let n = Array.length pops in
  let result = ref [] in
  for i = 0 to n - 1 do
    let entry = pops.(i) in
    let paths =
      match mode with
      | `Geo -> None
      | `Path -> Some (Netsim.Graph.shortest_path_lengths topology.graph ~src:entry.Netsim.Node.id)
    in
    for j = 0 to n - 1 do
      if i <> j then begin
        let dst = pops.(j) in
        let distance, routers =
          match (mode, paths) with
          | `Geo, _ -> (Netsim.Node.distance_miles entry dst, [ entry.Netsim.Node.id ])
          | `Path, Some dist -> (
              match Netsim.Graph.shortest_path topology.graph ~src:entry.id ~dst:dst.id with
              | Some path -> (dist.(dst.id), path.hops)
              | None -> (infinity, []))
          | `Path, None -> assert false
        in
        if distance < infinity then
          result := { c_entry = entry; c_dst = dst; c_distance = distance; c_routers = routers } :: !result
      end
    done
  done;
  Array.of_list !result

(* Weighted sampling with replacement: each draw is one distinct customer
   aggregate, so popular (entry, destination) pairs naturally carry many
   flows to different prefixes of the same city. *)
let sample_with_replacement rng weights k =
  Array.init k (fun _ -> Numerics.Dist.categorical rng weights)

let validate p =
  if p.n_flows <= 0 then invalid_arg "Workload.generate: n_flows must be positive";
  if p.aggregate_gbps <= 0. then
    invalid_arg "Workload.generate: aggregate_gbps must be positive";
  if p.locality_scale <= 0. then
    invalid_arg "Workload.generate: locality_scale must be positive";
  if p.locality_spread <= 0. then
    invalid_arg "Workload.generate: locality_spread must be positive";
  if p.demand_cv < 0. then invalid_arg "Workload.generate: demand_cv must be >= 0";
  if p.demand_distance_exponent < 0. then
    invalid_arg "Workload.generate: demand_distance_exponent must be >= 0";
  if p.local_tail_miles < 0. then
    invalid_arg "Workload.generate: local_tail_miles must be >= 0";
  if p.on_net_fraction < 0. || p.on_net_fraction > 1. then
    invalid_arg "Workload.generate: on_net_fraction out of [0, 1]"

let generate topology p =
  validate p;
  let rng = Numerics.Rng.create p.seed in
  let geoip = Geoip.synthesize Netsim.Cities.all in
  let pool = candidates topology p.distance_mode in
  if Array.length pool = 0 then invalid_arg "Workload.generate: no candidate pairs";
  let weight c =
    (* Log-normal distance band around the preferred distance; the
       exponent clamp keeps extreme parameter settings from underflowing
       the whole weight vector to zero. *)
    let z = (log (c.c_distance +. 1.) -. log p.locality_scale) /. p.locality_spread in
    let decay = Float.min 500. (0.5 *. z *. z) in
    c.c_dst.Netsim.Node.city.Netsim.Cities.population *. exp (-.decay)
  in
  let weights = Array.map weight pool in
  let chosen = sample_with_replacement rng weights p.n_flows in
  (* Erlang-2 tail: mean [local_tail_miles], CV 1/sqrt(2) -- matches
     observed last-mile distance dispersion better than a bare
     exponential. *)
  let distances =
    Array.map
      (fun idx ->
        let tail =
          if Float.equal p.local_tail_miles 0. then 0.
          else
            let rate = 2. /. p.local_tail_miles in
            Numerics.Dist.exponential rng ~rate +. Numerics.Dist.exponential rng ~rate
        in
        pool.(idx).c_distance +. tail)
      chosen
  in
  (* Demand has a lognormal body modulated by traffic locality: nearer
     destinations attract more traffic (content caching, regional
     customers), with strength [demand_distance_exponent]. *)
  let softening_miles = 25. in
  let raw_demands =
    Array.map
      (fun d ->
        let locality_boost =
          ((d +. softening_miles) /. softening_miles)
          ** -.p.demand_distance_exponent
        in
        locality_boost *. Numerics.Dist.lognormal_of_mean_cv rng ~mean:1. ~cv:p.demand_cv)
      distances
  in
  let scale =
    p.aggregate_gbps *. 1000. /. Numerics.Stats.sum raw_demands
  in
  let flows =
    Array.to_list
      (Array.mapi
         (fun k idx ->
           let c = pool.(idx) in
           let entry = c.c_entry and dst = c.c_dst in
           let distance = distances.(k) in
           let dst_city = dst.Netsim.Node.city in
           (* Classification follows the paper: networks measured by path
              distance only get the 10/100-mile thresholds (the EU ISP
              rule); GeoIP-measured networks classify by city/country. *)
           let locality =
             match p.distance_mode with
             | `Path ->
                 Geoip.classify_distance ~metro_miles:10. ~national_miles:100. distance
             | `Geo ->
                 if Netsim.Cities.same_city entry.Netsim.Node.city dst_city then
                   Geoip.Metro
                 else if Netsim.Cities.same_country entry.Netsim.Node.city dst_city then
                   Geoip.National
                 else Geoip.International
           in
           {
             id = k;
             entry;
             dst_city;
             src_addr = Geoip.random_address_in rng geoip entry.Netsim.Node.city;
             dst_addr = Geoip.random_address_in rng geoip dst_city;
             mbps = raw_demands.(k) *. scale;
             distance_miles = distance;
             locality;
             on_net = Numerics.Rng.float rng < p.on_net_fraction;
             routers = c.c_routers;
           })
         chosen)
  in
  { params = p; topology; geoip; flows }

let stats t =
  let demands = Array.of_list (List.map (fun f -> f.mbps) t.flows) in
  let distances = Array.of_list (List.map (fun f -> f.distance_miles) t.flows) in
  {
    flow_count = List.length t.flows;
    w_avg_distance_miles = Numerics.Stats.weighted_mean ~values:distances ~weights:demands;
    cv_distance = Numerics.Stats.cv distances;
    aggregate_gbps = Numerics.Stats.sum demands /. 1000.;
    cv_demand = Numerics.Stats.cv demands;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d flows, w-avg dist %.0f mi, CV(dist) %.2f, %.1f Gbps, CV(demand) %.2f"
    s.flow_count s.w_avg_distance_miles s.cv_distance s.aggregate_gbps s.cv_demand

let to_ground_truth t =
  List.map
    (fun f ->
      {
        Netflow.gt_src = f.src_addr;
        gt_dst = f.dst_addr;
        gt_mbps = f.mbps;
        gt_routers = f.routers;
      })
    t.flows

type target = {
  t_w_avg_distance : float;
  t_cv_distance : float;
  t_aggregate_gbps : float;
  t_cv_demand : float;
}

(* A preset name may carry a synthetic scale suffix: ["eu_isp@200000"]
   is the eu_isp calibration with [n_flows] overridden to 200000 (same
   aggregate rate spread over more flows). This is the large-n knob the
   tier-DP grid test and sweep grid use to exercise the kernel at scale
   without a separate calibration. *)
let split_scale name =
  match String.index_opt name '@' with
  | None -> (name, None)
  | Some i -> (
      let base = String.sub name 0 i in
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      (* Decimal digits only: [int_of_string_opt] alone would quietly
         accept hex ("0x10"), sign prefixes ("+5") and underscore
         separators ("1_000") — none of which a CLI user means by
         name@N. Overflowing digit strings still fall through to
         [None]. *)
      let all_decimal =
        String.length suffix > 0
        && String.for_all (fun c -> c >= '0' && c <= '9') suffix
      in
      match (if all_decimal then int_of_string_opt suffix else None) with
      | Some n when n >= 1 -> (base, Some n)
      | Some _ | None ->
          invalid_arg
            ("Workload.preset: malformed scale suffix in " ^ name
           ^ " (want name@N with N >= 1)"))

(* Table 1 of the paper (targets are per calibration, so a scale suffix
   resolves to its base network's row). *)
let table1_targets name =
  match fst (split_scale name) with
  | "eu_isp" ->
      { t_w_avg_distance = 54.; t_cv_distance = 0.70; t_aggregate_gbps = 37.; t_cv_demand = 1.71 }
  | "cdn" ->
      { t_w_avg_distance = 1988.; t_cv_distance = 0.59; t_aggregate_gbps = 96.; t_cv_demand = 2.28 }
  | "internet2" ->
      { t_w_avg_distance = 660.; t_cv_distance = 0.54; t_aggregate_gbps = 4.; t_cv_demand = 4.53 }
  | other -> invalid_arg ("Workload.table1_targets: unknown network " ^ other)

let loss topology base target x =
  (* x = [ln locality_scale; ln locality_spread; demand_cv;
          ln (1 + local_tail)] *)
  let p =
    {
      base with
      locality_scale = exp x.(0);
      locality_spread = exp x.(1);
      demand_cv = Float.max 0. x.(2);
      local_tail_miles = exp x.(3) -. 1.;
    }
  in
  if p.locality_scale <= 0. || p.local_tail_miles < 0. then infinity
  else
    let s = stats (generate topology p) in
    let rel a b = (a -. b) /. b in
    let e1 = rel s.w_avg_distance_miles target.t_w_avg_distance in
    let e2 = rel s.cv_distance target.t_cv_distance in
    let e3 = rel s.cv_demand target.t_cv_demand in
    (e1 *. e1) +. (e2 *. e2) +. (e3 *. e3)

let calibrate ?(max_iter = 400) topology (base : params) target =
  let base = { base with aggregate_gbps = target.t_aggregate_gbps } in
  let x0 =
    [|
      log base.locality_scale; log base.locality_spread; base.demand_cv;
      log (1. +. base.local_tail_miles);
    |]
  in
  let result =
    Numerics.Gradient.nelder_mead ~max_iter ~scale:0.5
      ~f:(loss topology base target) x0
  in
  {
    base with
    locality_scale = exp result.x.(0);
    locality_spread = exp result.x.(1);
    demand_cv = Float.max 0. result.x.(2);
    local_tail_miles = exp result.x.(3) -. 1.;
  }

(* Stored calibration results (see test/test_workload.ml for the
   tolerance check against Table 1). Regenerate with [calibrate]. *)
let base_preset_params = function
  | "eu_isp" ->
      {
        n_flows = 600;
        aggregate_gbps = 37.;
        locality_scale = 29.2978;
        locality_spread = 0.5043;
        demand_cv = 0.15;
        demand_distance_exponent = 3.0;
        local_tail_miles = 128.9495;
        on_net_fraction = 0.7;
        distance_mode = `Path;
        seed = 1101;
      }
  | "cdn" ->
      {
        n_flows = 700;
        aggregate_gbps = 96.;
        locality_scale = 113.7566;
        locality_spread = 1.4411;
        demand_cv = 0.6075;
        demand_distance_exponent = 1.5;
        local_tail_miles = 1937.8467;
        on_net_fraction = 0.3;
        distance_mode = `Geo;
        seed = 1202;
      }
  | "internet2" ->
      {
        n_flows = 400;
        aggregate_gbps = 4.;
        locality_scale = 724.7785;
        locality_spread = 1.0025;
        demand_cv = 1.0958;
        demand_distance_exponent = 2.0;
        local_tail_miles = 111.3959;
        on_net_fraction = 0.5;
        distance_mode = `Path;
        seed = 1203;
      }
  | other -> invalid_arg ("Workload.preset_params: unknown network " ^ other)

let preset_params name =
  let base, scale = split_scale name in
  let p = base_preset_params base in
  match scale with None -> p | Some n_flows -> { p with n_flows }

let preset name =
  let base, _ = split_scale name in
  generate (Netsim.Presets.by_name base) (preset_params name)
