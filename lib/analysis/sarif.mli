(** Minimal SARIF 2.1.0 rendering of a lint run, for code-scanning
    uploads.  Active findings are [error]-level results; suppressed
    ones are carried with a SARIF suppression object so totals match
    the text report. *)

val render : (Finding.t * Finding.status) list -> Json.t
