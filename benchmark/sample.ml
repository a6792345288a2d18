(* Clocks, order statistics and process memory for the benchmark. *)

exception Check_failed of string

(* [check cond "fmt" ...] aborts the run with a named correctness
   failure; a benchmark that measured a wrong answer must not report a
   speed. *)
let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Monotonic seconds (CLOCK_MONOTONIC through bechamel's noalloc stub):
   a wall-clock step during a run cannot bend a measurement. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile by Python's [statistics.quantiles(n=4)]
   (the "exclusive" method), so a spread computed here agrees with one
   computed from the same values by the tooling that checks it. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile, the definition [Serve.Stats] uses. *)
let percentile a ~p =
  match Serve.Stats.percentile (sorted a) ~p with Some v -> v | None -> 0.

let sum a = Array.fold_left ( +. ) 0. a

(* [f ()] again and again until [seconds] have passed, and at least
   twice; the results in order. *)
let repeat ~seconds f =
  let t0 = now_s () in
  let rec go acc n =
    if n >= 2 && now_s () -. t0 >= seconds then Array.of_list (List.rev acc)
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* What one workload run measured: every end-to-end metric as its
   per-repetition samples, every per-layer metric as one value from the
   traced repetition, and the operation counts behind [attempted] /
   [failed]. *)
type result = {
  end_to_end : (string * float array) list;
  per_layer : (string * float) list;
  attempted : int;
  failed : int;
}

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* The flag that turns this executable into a memory-measuring child:
   [exe --rss-child WORKLOAD INPUT] runs one repetition of the workload
   on INPUT and prints only its VmHWM. The parent's own heap (generated
   streams, posted tiers, earlier repetitions) therefore never inflates
   the figure. *)
let rss_child_flag = "--rss-child"

let child_peak_rss_mb ~workload ~input =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; rss_child_flag; workload; input |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  let _, status = Unix.waitpid [] pid in
  check (status = Unix.WEXITED 0) "%s: memory child failed" workload;
  match float_of_string_opt (String.trim out) with
  | Some mb -> mb
  | None -> raise (Check_failed (workload ^ ": memory child printed no VmHWM"))
