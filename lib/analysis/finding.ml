type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type status = Active | Suppressed

let v ~rule ~file ~line ~col message = { rule; file; line; col; message }

(* Monomorphic lexicographic chain — same order as the old tuple
   [Stdlib.compare]; rule D005 keeps bare [compare] out of lib/. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> (
              match String.compare a.rule b.rule with
              | 0 -> String.compare a.message b.message
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let status_to_string = function
  | Active -> "active"
  | Suppressed -> "suppressed"

let to_string t =
  Printf.sprintf "%s:%d:%d: [%s] %s" t.file t.line t.col t.rule t.message
