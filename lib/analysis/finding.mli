(** A single lint diagnostic: rule id + location + message. *)

type t = {
  rule : string;  (** e.g. ["D001"] *)
  file : string;  (** path relative to the repo root, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column of the offending token *)
  message : string;
}

(** How a finding is classified after inline suppressions have been
    applied.  Only [Active] findings fail the build. *)
type status =
  | Active  (** unsuppressed: fails [make lint] *)
  | Suppressed  (** covered by an inline [lint: allow] comment *)

val v : rule:string -> file:string -> line:int -> col:int -> string -> t

val compare : t -> t -> int
(** Order by (file, line, col, rule, message) so reports are stable. *)

val status_to_string : status -> string
(** ["active"] / ["suppressed"] — the JSON encoding. *)

val to_string : t -> string
(** [file:line:col: [rule] message] — the text-reporter line. *)
