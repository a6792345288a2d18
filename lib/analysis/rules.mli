(** The project-specific rule catalog for [tiered-lint].

    Determinism rules (D…) protect the engine's headline guarantee —
    byte-identical experiment output at any jobs count and backend;
    hygiene rules (H…) keep the failure modes that already bit us
    (stray stdout corrupting the Proc result pipe, unflagged Marshal)
    from recurring.  Rules are scoped by path: most apply only under
    [lib/], with explicit whitelists for the engine's timing and
    process-control sites.  The per-identifier rules run over the
    typed trees ([Analysis_typed.Rules_typed]); this module holds the
    catalog and the one file-set rule, H003. *)

type meta = {
  id : string;
  title : string;
  rationale : string;
}

val catalog : meta list
(** Every rule the checker can emit, including the scanner's own
    S001 (malformed suppression) and E002 (no loadable typed tree). *)

val known : string -> bool
(** Is this a rule id from the catalog? *)

val in_lib : string -> bool
(** Is this root-relative path under [lib/]?  Most rules, the call
    graph and the effects golden are [lib/]-only. *)

val missing_interfaces : files:string list -> Finding.t list
(** Rule H003: every [lib/] module must have a paired [.mli].  [files]
    is the full relative-path list of one scan. *)
