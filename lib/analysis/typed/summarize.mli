(** Classify extracted occurrences and join per-function effect
    summaries over the call graph to a fixpoint. *)

type provenance =
  | Direct of int * int  (** line, col of the occurrence itself *)
  | Via of string * int  (** callee node id, call-site line *)

type t

val clock_heads : string list
(** Clock reads ([Unix.gettimeofday], [Sys.time], ...): the
    [Nondet_clock] heads, and rule D003's clock list. *)

val is_rand_head : string -> bool
(** Ambient randomness: any global [Random.*] value, plus
    [Random.State.make_self_init].  The [Nondet_rand] heads, and
    rule D003's randomness test. *)

val hash_order_heads : string list
(** Hash-bucket-order traversals ([Hashtbl.iter], [fold], [to_seq*],
    [stats]): the [Nondet_hash] heads, and rule D002's list. *)

val run :
  trusted_prefixes:string list ->
  sanitizers:string list ->
  mut_whitelist:string list ->
  Callgraph.graph ->
  t
(** [trusted_prefixes]: callee-id prefixes whose [Nondet_*] atoms do
    not propagate to callers (infrastructure that uses clocks/hash
    order internally but exposes deterministic results).
    [sanitizers]: callee ids that strip [Nondet_hash] (sorted-view
    helpers).  [mut_whitelist]: mutable-path prefixes never turned
    into [Mut_*] atoms (internally synchronized engine state). *)

val summary : t -> string -> Effects.Set.t
(** Fixpoint summary of a node id; empty for unknown ids. *)

val node : t -> string -> Callgraph.node option

val resolve : t -> scope:string -> string -> string option
(** Qualify a possibly-bare occurrence path against the node set,
    searching enclosing scopes of [scope]. *)

val written_unguarded : t -> string -> bool
(** Does any non-init node write this mutable path unguarded? *)

val mutdef : t -> string -> Callgraph.mutdef option

val chain : t -> string -> Effects.atom -> (string * int) list
(** [(node, line)] hops from the queried node to the direct source of
    the atom; empty if the node does not carry the atom. *)

val golden : t -> (string * Effects.Set.t) list
(** All summaries in sorted node-id order — the effects golden. *)
