(* `compare OLD.json NEW.json`: one row per workload x end-to-end
   metric, judged against the BENCHMARK.json bound.

   A change is worse (better) when its figure ({!Runfile.value}) is
   worse (better) than the parent's by more than the bound. Where
   either side's spread — the distance between the quartiles of its
   repetitions as a share of their median — is wider than the bound,
   the two cannot be told apart and the row is unresolved, unless every
   repetition of one side beats every repetition of the other. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  old_value : float;
  new_value : float;
  delta : float;  (** (new - old) / old *)
  verdict : verdict;
}

let spread s =
  let q25, q75 = Sample.quartiles s in
  (q75 -. q25) /. Sample.median s

let judge (m : Spec.metric) ~old_s ~new_s =
  let old_m = Runfile.value m old_s and new_m = Runfile.value m new_s in
  let worse_by =
    if m.Spec.lower_is_better then (new_m -. old_m) /. old_m else (old_m -. new_m) /. old_m
  in
  let beats a b =
    let a = Sample.sorted a and b = Sample.sorted b in
    let a_lo = a.(0) and a_hi = a.(Array.length a - 1) in
    let b_lo = b.(0) and b_hi = b.(Array.length b - 1) in
    if m.Spec.lower_is_better then a_hi < b_lo else a_lo > b_hi
  in
  let resolved =
    (spread old_s <= m.Spec.bound && spread new_s <= m.Spec.bound)
    || beats old_s new_s || beats new_s old_s
  in
  if not resolved then Unresolved
  else if worse_by > m.Spec.bound then Worse
  else if worse_by < -.m.Spec.bound then Better
  else Same

(* The rows, and whether the change regressed: any worse row, or a
   higher share of failed operations on any workload. *)
let compare (spec : Spec.t) ~old_doc ~new_doc =
  let rows = ref [] and more_failures = ref [] in
  List.iter
    (fun new_w ->
      let name =
        Option.value ~default:"?"
          (Option.bind (Analysis.Json.member "name" new_w) Analysis.Json.to_str)
      in
      match Runfile.find_workload old_doc name with
      | None -> ()
      | Some old_w ->
          if Runfile.failed_ratio new_w > Runfile.failed_ratio old_w then
            more_failures := name :: !more_failures;
          List.iter
            (fun (m : Spec.metric) ->
              match (Runfile.samples old_w m.Spec.name, Runfile.samples new_w m.Spec.name) with
              | Some old_s, Some new_s when Array.length old_s > 0 && Array.length new_s > 0 ->
                  let old_value = Runfile.value m old_s in
                  let new_value = Runfile.value m new_s in
                  rows :=
                    {
                      workload = name;
                      metric = m.Spec.name;
                      unit_ = m.Spec.unit_;
                      old_value;
                      new_value;
                      delta = (new_value -. old_value) /. old_value;
                      verdict = judge m ~old_s ~new_s;
                    }
                    :: !rows
              | _ -> ())
            spec.Spec.end_to_end)
    (Runfile.workloads new_doc);
  let rows = List.rev !rows in
  (rows, List.rev !more_failures)

let regressed (rows, more_failures) =
  more_failures <> [] || List.exists (fun r -> r.verdict = Worse) rows

let print (rows, more_failures) =
  Printf.printf "%-14s %-17s %14s %14s %8s  %s\n" "workload" "metric" "parent" "change"
    "delta" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-17s %14.6g %14.6g %+7.1f%%  %s\n" r.workload
        (Printf.sprintf "%s (%s)" r.metric r.unit_)
        r.old_value r.new_value (100. *. r.delta) (verdict_name r.verdict))
    rows;
  List.iter (Printf.printf "%s: more failed operations than the parent\n") more_failures
