(** The [tiered-lint] pipeline's source side: discover the sources,
    scan their inline {!Suppress}ions, and classify every finding —
    whichever rule raised it — through that one path. *)

val scan_files : root:string -> dirs:string list -> string list
(** All [.ml]/[.mli] files under [root/dir] for each dir, as sorted
    '/'-separated paths relative to [root].  [_build], [.git],
    [_cache] and [_cas] subtrees are skipped. *)

val classify :
  (string * string) list -> Finding.t list -> (Finding.t * Finding.status) list
(** [classify sources findings] over in-memory [(file, contents)]
    pairs: adds the sources' own S001 (malformed suppression) and
    H003 (unpaired [lib/] module) findings, then marks each finding
    [Suppressed] when an inline suppression in its file covers its
    line and rule, [Active] otherwise (S001 is never suppressible).
    Sorted by (file, line, col, rule). *)

val run :
  root:string ->
  files:string list ->
  Finding.t list ->
  (Finding.t * Finding.status) list
(** [classify] over [files] read from [root]. *)

val active : (Finding.t * Finding.status) list -> Finding.t list
(** The findings that should fail the build. *)
