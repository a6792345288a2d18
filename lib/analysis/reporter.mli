(** Render lint results. Pure: returns strings/JSON, never prints —
    the analysis library itself lives under [lib/] and obeys D001. *)

val summary : (Finding.t * Finding.status) list -> string
(** The one-line [tiered-lint: N active findings, M suppressed] total. *)

val text : (Finding.t * Finding.status) list -> string
(** Human-readable report: one [file:line:col: [rule] message] line
    per active finding, then the {!summary}. *)

val json : (Finding.t * Finding.status) list -> Json.t
(** Machine-readable report:
    {v
    { "version": 2, "tool": "tiered-lint",
      "findings": [ {"rule","file","line","col","message","status"} ],
      "summary": {"active","suppressed"} }
    v}
    [status] is ["active"] or ["suppressed"]. *)
