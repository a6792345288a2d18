(** Loader for the [.cmt] typed trees dune produces.

    One {!unit_info} per implementation module whose source is among
    the scanned files; wrapper alias modules (generated [.ml-gen]
    sources), interface-only cmts and stale cmts of deleted sources
    are skipped.  Unreadable cmts surface as [E002] findings instead
    of aborting the pass. *)

type unit_info = {
  ui_modname : string;  (** display module path, e.g. ["Engine.Pool"] *)
  ui_source : string;  (** root-relative source, e.g. ["lib/engine/pool.ml"] *)
  ui_structure : Typedtree.structure;
}

val display_of_modname : string -> string
(** ["Engine__Pool"] -> ["Engine.Pool"]; names without ["__"] pass
    through. *)

val discover : root:string -> files:string list -> string list
(** All [.cmt] files under [root/D] and [root/_build/default/D] for
    each top-level directory [D] of [files], sorted. *)

val load :
  files:string list -> string list -> unit_info list * Analysis.Finding.t list
(** [load ~files cmts] reads every cmt.  Units are those whose source
    is in [files], de-duplicated by source and sorted by it; the
    finding list carries [E002] load errors. *)
