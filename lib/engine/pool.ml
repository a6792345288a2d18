exception Task_failed of { index : int; exn : exn; backtrace : string }

type backend = Domains | Procs

let backend_name = function Domains -> "domains" | Procs -> "procs"

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  busy : float array;
      (* Cumulative per-worker-domain busy seconds, one slot per worker
         domain. Guarded by [mutex]. *)
  mutable caller_busy : float;
      (* Busy seconds accumulated on the calling domain by the serial
         fast path. Kept out of [busy] so small maps on a multi-worker
         pool cannot skew the max/mean load-balance statistic towards
         slot 0. Guarded by [mutex]. *)
  proc : Proc.t option;
      (* [Some _] when the subprocess backend is active; the domain
         machinery above is then unused. *)
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let jobs t = t.n_jobs
let backend t = match t.proc with Some _ -> Procs | None -> Domains
let restarts t = match t.proc with Some p -> Proc.restarts p | None -> 0

let add_busy t idx dt =
  Mutex.lock t.mutex;
  t.busy.(idx) <- t.busy.(idx) +. dt;
  Mutex.unlock t.mutex

let add_caller_busy t dt =
  Mutex.lock t.mutex;
  t.caller_busy <- t.caller_busy +. dt;
  Mutex.unlock t.mutex

let busy_times t =
  match t.proc with
  | Some p -> Proc.busy_times p
  | None ->
      Mutex.lock t.mutex;
      (* A pool without worker domains has exactly one execution slot —
         the caller — so report that; a pooled run reports only the
         worker slots (caller time is dispatch bookkeeping, not load). *)
      let copy =
        if t.domains = [] then [| t.caller_busy |] else Array.copy t.busy
      in
      Mutex.unlock t.mutex;
      copy

(* Workers loop forever: wait for a thunk, run it, repeat. Thunks are
   pre-wrapped by [map] and never raise, so a raising task can neither
   kill a worker nor leave the queue stuck. *)
let worker t idx =
  (* Without this, [Task_failed.backtrace] would always be empty:
     backtrace recording is per-domain state and fresh domains start
     with it disabled. *)
  Printexc.record_backtrace true;
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          `Run task
      | None ->
          if t.stop then begin
            Mutex.unlock t.mutex;
            `Stop
          end
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
    in
    match wait () with
    | `Stop -> ()
    | `Run task ->
        let t0 = Unix.gettimeofday () in
        task ();
        add_busy t idx (Unix.gettimeofday () -. t0);
        next ()
  in
  next ()

let create ?(backend = Domains) ?retries ?timeout_s ?jobs () =
  let n_jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let proc =
    match backend with
    | Domains -> None
    | Procs -> (
        match Proc.create ~workers:n_jobs ?retries ?timeout_s () with
        | p -> Some p
        | exception exn ->
            (* Graceful degradation: a host where fork/exec fails (or
               the executable vanished) still runs, just in-process. *)
            Printf.eprintf
              "engine: subprocess backend unavailable (%s); falling back to \
               the domain backend\n\
               %!"
              (Printexc.to_string exn);
            None)
  in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
      busy = Array.make n_jobs 0.;
      caller_busy = 0.;
      proc;
    }
  in
  if Option.is_none proc && n_jobs > 1 then
    t.domains <-
      List.init n_jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let shutdown t =
  (match t.proc with Some p -> Proc.shutdown p | None -> ());
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?backend ?retries ?timeout_s ?jobs f =
  let t = create ?backend ?retries ?timeout_s ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_task f x =
  match f x with
  | y -> Ok y
  | exception exn ->
      let backtrace = Printexc.get_backtrace () in
      Error (exn, backtrace)

(* Merge in submission order; surface the lowest-index failure so the
   reported error does not depend on scheduling. *)
let collect results =
  Array.iteri
    (fun index slot ->
      match slot with
      | Some (Error (exn, backtrace)) ->
          raise (Task_failed { index; exn; backtrace })
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
    results

let map t f tasks =
  match t.proc with
  | Some p ->
      (* Subprocess backend: Proc merges by task index already; reuse
         [collect] for the deterministic lowest-index failure report. *)
      collect (Array.map (fun r -> Some r) (Proc.map p f tasks))
  | None ->
      let n = Array.length tasks in
      let results = Array.make n None in
      if t.n_jobs <= 1 || n <= 1 || t.domains = [] then begin
        (* Serial fallback: identical semantics (attempt everything,
           then report the first failure), no domains involved. Busy
           time is attributed to the caller slot, never to worker
           slot 0. *)
        let t0 = Unix.gettimeofday () in
        Array.iteri (fun i x -> results.(i) <- Some (run_task f x)) tasks;
        add_caller_busy t (Unix.gettimeofday () -. t0);
        collect results
      end
      else begin
        let done_mutex = Mutex.create () in
        let all_done = Condition.create () in
        let remaining = ref n in
        let task i () =
          let r = run_task f tasks.(i) in
          Mutex.lock done_mutex;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock done_mutex
        in
        Mutex.lock t.mutex;
        for i = 0 to n - 1 do
          Queue.add (task i) t.queue
        done;
        Condition.broadcast t.nonempty;
        Mutex.unlock t.mutex;
        Mutex.lock done_mutex;
        while !remaining > 0 do
          Condition.wait all_done done_mutex
        done;
        Mutex.unlock done_mutex;
        collect results
      end

let map_list t f tasks = Array.to_list (map t f (Array.of_list tasks))
