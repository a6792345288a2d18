(** Traffic-matrix estimation from link counters (tomogravity).

    The paper's pipeline assumes NetFlow; many networks only have SNMP
    link byte counts. The classic remedy (Zhang et al.) estimates the
    PoP-to-PoP traffic matrix in two steps: a {e gravity} prior
    [T(i,j) proportional to out(i) * in(j)] from per-node totals, then a
    projection toward consistency with the observed per-link loads under
    shortest-path routing. The result feeds the same market-fitting
    machinery as measured flows — with estimation error that
    examples/extensions.ml quantifies.

    All vectors are indexed by position in the topology's [pops] list. *)

type observation = {
  node_out_mbps : float array;  (** Traffic entering the network per PoP. *)
  node_in_mbps : float array;  (** Traffic leaving the network per PoP. *)
  link_mbps : (int * int * float) list;
      (** Observed load per link, endpoints by node id (orientation
          ignored; loads are summed over both directions). *)
}

val observe : Netsim.Topology.t -> (int * int * float) list -> observation
(** Build the observation an SNMP poller would produce from a
    ground-truth demand list [(src pop index, dst pop index, mbps)]:
    per-node totals plus per-link loads on shortest paths. *)

val gravity : observation -> float array array
(** The gravity prior: [T(i,j) = out(i) * in(j) / total] for [i <> j],
    zero diagonal, rescaled so the total matches. Raises
    [Invalid_argument] on mismatched lengths or a zero total. *)

val estimate :
  ?iterations:int ->
  Netsim.Topology.t ->
  observation ->
  float array array
(** Gravity prior refined by multiplicative link-load matching: each
    iteration scales every demand by the geometric mean of its path
    links' observed/estimated load ratios, then re-normalizes node
    totals (an IPF-style scheme; default 50 iterations). Entries stay
    non-negative. *)

type quality = {
  correlation : float;  (** Pearson r between estimate and truth. *)
  mean_relative_error : float;
      (** Mean |est - true| / true over true entries >= the cutoff. *)
  total_error : float;  (** |sum est - sum true| / sum true. *)
}

val compare_to_truth :
  ?cutoff_mbps:float -> truth:float array array -> float array array -> quality
(** Standard tomogravity error metrics ([cutoff_mbps] defaults to 1:
    tiny true flows are excluded from the relative error, as in the
    literature). *)
