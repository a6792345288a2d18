(** Driver for the rules: load the cmts of the scanned sources,
    extract the [lib/] call graph, run the effect fixpoint and every
    rule. *)

type outcome = {
  findings : Analysis.Finding.t list;
      (** every rule's findings plus [E002] load/coverage errors,
          sorted *)
  summaries : (string * Effects.Set.t) list;  (** sorted by node id *)
  units : int;  (** implementation modules analyzed *)
}

val run :
  ?config:Rules_typed.config ->
  root:string ->
  files:string list ->
  unit ->
  (outcome, string) result
(** [files] are the scanned root-relative sources.  [Error] when no
    cmt exists under their directories at all (nothing is built);
    otherwise each scanned [.ml] that no loaded cmt names becomes an
    [E002] finding, so a missing typed tree is never a silent pass. *)

val golden_string : (string * Effects.Set.t) list -> string
(** Deterministic bytes of [lint/effects.golden.json], trailing
    newline included. *)

val dump : outcome -> string
(** Debug rendering: one line per non-pure summary. *)
