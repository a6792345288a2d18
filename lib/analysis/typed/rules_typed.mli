(** Every rule that reads code: pool data races (T001), determinism
    taint on cache/serve roots (T002), float [=]/[compare] (T003), and
    the per-identifier rules D001–D005, H001 and H002 (catalogued in
    {!Analysis.Rules}). *)

type config = {
  pool_sinks : string list;
      (** application heads whose function argument runs on the pool *)
  safe_type_heads : string list;
      (** type constructors exempt from the module-mutable scan *)
  trusted_prefixes : string list;
      (** callees whose Nondet atoms stop at the call boundary *)
  sanitizers : string list;
      (** callees that strip hash-order nondeterminism *)
  mut_whitelist : string list;
      (** mutable paths that are internally synchronized *)
  t002_roots : string list;  (** exact node ids that must be deterministic *)
  t002_root_prefixes : string list;  (** id prefixes, e.g. ["Serve.Retier."] *)
  float_exempt : string list;  (** source prefixes exempt from T003 *)
}

val default : config
(** The repo's policy: [Engine.Pool.map]/[map_list] are the sinks,
    [Engine.]* state is synchronized, [Engine.]*/[Tiered.Runner.]* are
    timing-trusted, [Tbl.sorted_*] sanitize hash order, the
    [Experiment] memo functions and [Serve.Retier] are determinism
    roots, and [lib/numerics] owns its float comparisons. *)

val t001 : Summarize.t -> Callgraph.graph -> Analysis.Finding.t list

val t002 : config -> Summarize.t -> Callgraph.graph -> Analysis.Finding.t list

val per_occurrence :
  config -> Cmt_load.unit_info list -> Analysis.Finding.t list
(** One walk over each unit's typed tree: D001–D005, H001, H002 and
    T003, each scoped by the unit's source path.  Names are matched
    as resolved paths, through [open]s and module aliases; values
    bound inside the unit match nothing. *)

val run :
  config ->
  Summarize.t ->
  Callgraph.graph ->
  Cmt_load.unit_info list ->
  Analysis.Finding.t list
(** T001 and T002 over the graph, then {!per_occurrence} over
    [units]. *)
