(* Subprocess worker backend. See proc.mli for the contract.

   This module is only the pipe plumbing: fork/exec of the current
   executable, stdin/stdout wiring, and child reaping. The frame
   protocol, handshake/resync, crash recovery, bounded retries and
   per-task timeouts live in {!Transport}. *)

exception Spawn_failure = Transport.Spawn_failure
exception Remote_failure = Transport.Remote_failure
exception Worker_lost = Transport.Worker_lost

let worker_flag = "--engine-worker"

(* --- worker side ---------------------------------------------------------- *)

let serve_worker () =
  Printexc.record_backtrace true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Keep the result pipe private: stray [print_string]s from task
     code go to stderr instead of corrupting the protocol stream. *)
  (* lint: allow D001 — claiming the result pipe: dup the real stdout away before task code can touch it. *)
  let out_fd = Unix.dup Unix.stdout in
  (* lint: allow D001 — point further stdout writes at stderr so stray prints cannot corrupt the protocol. *)
  Unix.dup2 Unix.stderr Unix.stdout;
  Transport.serve_worker ~in_fd:Unix.stdin ~out_fd

let maybe_run_worker () =
  if Array.exists (String.equal worker_flag) Sys.argv then
    match serve_worker () with
    | () -> exit 0
    | exception End_of_file -> exit 0
    | exception exn ->
        Printf.eprintf "engine worker: fatal: %s\n%!" (Printexc.to_string exn);
        exit 125

(* --- parent side ---------------------------------------------------------- *)

type t = { sched : Transport.sched }

let spawn_endpoint () =
  let exe = Sys.executable_name in
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  Unix.set_close_on_exec task_w;
  Unix.set_close_on_exec res_r;
  match
    Unix.create_process exe [| exe; worker_flag |] task_r res_w Unix.stderr
  with
  | exception exn ->
      List.iter Transport.close_noerr [ task_r; task_w; res_r; res_w ];
      raise (Spawn_failure (Printexc.to_string exn))
  | pid -> (
      Transport.close_noerr task_r;
      Transport.close_noerr res_w;
      try
        Transport.handshake ~deadline_s:10.0 res_r;
        {
          Transport.ep_send = task_w;
          ep_recv = res_r;
          ep_kill = (fun () -> Transport.kill_noerr pid);
          ep_close =
            (fun () ->
              (* EOF on the task pipe makes the worker exit cleanly
                 (its read loop returns), so close that first, give it
                 a moment, and SIGKILL stragglers. *)
              Transport.close_noerr task_w;
              Transport.reap_with_grace pid;
              Transport.close_noerr res_r);
        }
      with exn ->
        Transport.kill_noerr pid;
        Transport.reap_noerr pid;
        Transport.close_noerr task_w;
        Transport.close_noerr res_r;
        raise (Spawn_failure (Printexc.to_string exn)))

let create ?workers ?(retries = 2) ?timeout_s () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  (* A dead worker must surface as EPIPE on the task pipe, not kill
     the parent. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let endpoints = Array.make workers None in
  (* The first worker must come up, otherwise the backend is
     unavailable and the caller degrades; later failures only shrink
     the pool. *)
  endpoints.(0) <- Some (spawn_endpoint ());
  for i = 1 to workers - 1 do
    match spawn_endpoint () with
    | ep -> endpoints.(i) <- Some ep
    | exception Spawn_failure _ -> ()
  done;
  let respawn _slot =
    match spawn_endpoint () with
    | ep -> Some ep
    | exception Spawn_failure _ -> None
  in
  { sched = Transport.make_sched ~retries ?timeout_s ~respawn endpoints }

let workers t = Transport.workers t.sched
let restarts t = Transport.restarts t.sched
let busy_times t = Transport.busy_times t.sched
let store t = Transport.store t.sched
let map t f tasks = Transport.map t.sched f tasks
let shutdown t = Transport.shutdown t.sched
