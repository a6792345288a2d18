(* The worker-pipe scheduler. See transport.mli for the contract.

   Wire protocol (both directions): length-prefixed Marshal frames —
   a 4-byte big-endian payload length followed by the payload bytes.
   Frames from parent to worker are [down] frames: tasks
   ([(index, thunk)] marshalled with [Marshal.Closures] — valid
   because worker and parent run the same executable image, which the
   unmarshaller checks against the code-segment digest) and CAS-fetch
   replies. Workers carry no disk-cache configuration: their artifact
   traffic goes through the parent's {!Store}.
   Frames from worker to parent:
     1. a magic byte-string, then one "ready" handshake frame (this is
        also how spawn failures are detected: a worker that dies
        before the handshake reads as EOF and the transport reports
        Spawn_failure);
     2. [up] frames: task results ([(index, (Ok value | Error
        (printed_exn, bt)))]) and CAS traffic ([Cas_get] blocks the
        worker until the parent's reply; [Cas_put] is fire-and-forget).

   CAS frames can only interleave with task frames in one safe order:
   the parent never dispatches to a worker with a job in flight, and an
   idle worker has no running task to issue CAS requests from — so the
   only down-frame a busy worker can receive is the reply to its own
   [Cas_get], and the worker-side blocking read in the fetch hook
   cannot swallow a task.

   The magic resynchronizes the stream: module initializers of the
   host executable run before the worker entry point and may print to
   stdout — which, in a worker, IS the result channel
   (qcheck-alcotest's seed banner does exactly this). The parent
   discards bytes until the magic, after which the worker has
   redirected fd 1 away and owns the stream exclusively.

   Crash detection needs no SIGCHLD handler: a dead worker's result
   channel reads EOF (or the task channel writes EPIPE), which is both
   prompt and race-free under [select]; endpoints reap the corpse with
   [waitpid] in their close hook. *)

exception Spawn_failure of string
exception Remote_failure of { message : string }
exception Worker_lost of { attempts : int; reason : string }
exception Frame_too_large of { bytes : int }

(* Deadlines (task timeouts, respawn backoff) only ever subtract two
   readings, so they run on CLOCK_MONOTONIC: a wall-clock step must not
   fire or starve them. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- framed IO over raw fds ---------------------------------------------- *)

(* Raw [Unix.read]/[Unix.write] loops, not channels: [select] must see
   exactly what has been consumed, and channel buffering would hide
   already-read bytes from it. *)

let rec restart_on_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

let write_all fd buf pos len =
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let n = restart_on_intr (fun () -> Unix.write fd buf !pos !len) in
    pos := !pos + n;
    len := !len - n
  done

let read_all fd buf pos len =
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let n = restart_on_intr (fun () -> Unix.read fd buf !pos !len) in
    if n = 0 then raise End_of_file;
    pos := !pos + n;
    len := !len - n
  done

(* A length prefix larger than any frame we could legitimately send is
   stream corruption (a truncated header resynchronized mid-stream, or
   garbage bytes); treating it as EOF routes it into the ordinary
   crash-recovery path instead of attempting a gigantic allocation. *)
let max_frame_bytes = 1 lsl 30

let write_frame fd payload =
  let len = String.length payload in
  (* A payload past the cap would wrap the 4-byte header and corrupt
     the stream — the peer would resync into garbage and the failure
     would surface much later as inexplicable Worker_lost retries.
     Refuse before writing anything, so the channel stays usable. *)
  if len > max_frame_bytes then raise (Frame_too_large { bytes = len });
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  write_all fd hdr 0 4;
  write_all fd (Bytes.unsafe_of_string payload) 0 len

let read_frame fd =
  let hdr = Bytes.create 4 in
  read_all fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame_bytes then raise End_of_file;
  let buf = Bytes.create len in
  read_all fd buf 0 len;
  Bytes.unsafe_to_string buf

(* Stream-resync marker the worker emits before its first frame (see
   the header comment). '\001' appears only at position 0, so the
   parent's rolling scan needs no failure table: on mismatch it
   restarts the match at 1 iff the offending byte is '\001'. *)
let magic = "\001\253tiered-engine-worker\253\002"

(* --- wire frames ----------------------------------------------------------- *)

(* A worker-side task outcome. The value travels as [Obj.t] (the
   parent knows the real type); exceptions travel as printed strings
   because exception identity does not survive unmarshalling. *)
type wire_result = (Obj.t, string * string) result

type down =
  | Task of int * (unit -> Obj.t)
  | Cas_found of string
  | Cas_missing

type up =
  | Result of int * wire_result
  | Cas_get of string * string
  | Cas_put of string * string * string

(* --- process helpers ------------------------------------------------------- *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
let kill_noerr pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap_noerr pid =
  try ignore (restart_on_intr (fun () -> Unix.waitpid [] pid))
  with Unix.Unix_error _ -> ()

(* Wait up to ~1s for a child that was asked to exit (its task channel
   was closed); SIGKILL stragglers. *)
let reap_with_grace pid =
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if tries <= 0 then begin
          kill_noerr pid;
          reap_noerr pid
        end
        else begin
          Unix.sleepf 0.01;
          reap (tries - 1)
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap tries
    | exception Unix.Unix_error _ -> ()
  in
  reap 100

(* --- worker side ----------------------------------------------------------- *)

let serve_worker ~in_fd ~out_fd =
  (* Route cache misses through the parent: the parent answers from its
     CAS (or its in-memory artifact store), so a cell computed by one
     worker is never recomputed by another, and only the parent touches
     the disk tier. *)
  Cache.set_remote_tier
    (Some
       {
         Cache.fetch =
           (fun ~cache ~key_digest ->
             write_frame out_fd
               (Marshal.to_string (Cas_get (cache, key_digest))
                  [ Marshal.Closures ]);
             match (Marshal.from_string (read_frame in_fd) 0 : down) with
             | Cas_found payload -> Some payload
             | Cas_missing -> None
             | Task _ -> failwith "task frame received during CAS fetch");
         Cache.publish =
           (fun ~cache ~key_digest ~payload ->
             write_frame out_fd
               (Marshal.to_string
                  (Cas_put (cache, key_digest, payload))
                  [ Marshal.Closures ]));
       });
  Fun.protect
    ~finally:(fun () -> Cache.set_remote_tier None)
    (fun () ->
      write_all out_fd (Bytes.unsafe_of_string magic) 0 (String.length magic);
      write_frame out_fd "ready";
      let rec loop () =
        match read_frame in_fd with
        | exception End_of_file -> ()
        | frame ->
            (match (Marshal.from_string frame 0 : down) with
            | Task (seq, thunk) ->
                let outcome : wire_result =
                  match thunk () with
                  | v -> Ok v
                  | exception exn ->
                      Error (Printexc.to_string exn, Printexc.get_backtrace ())
                in
                let payload =
                  Marshal.to_string (Result (seq, outcome)) [ Marshal.Closures ]
                in
                let payload =
                  (* An oversize result must fail the task, not tear the
                     stream: report it as a deterministic task error. *)
                  if String.length payload <= max_frame_bytes then payload
                  else
                    Marshal.to_string
                      (Result
                         ( seq,
                           (Error
                              ( Printf.sprintf
                                  "task result frame of %d bytes exceeds the \
                                   %d-byte frame cap"
                                  (String.length payload) max_frame_bytes,
                                "" )
                             : wire_result) ))
                      [ Marshal.Closures ]
                in
                write_frame out_fd payload
            | Cas_found _ | Cas_missing ->
                (* A CAS reply with no fetch outstanding: stale frame
                   from a resynchronized stream; drop it. *)
                ());
            loop ()
      in
      loop ())

(* --- parent-side handshake ------------------------------------------------- *)

let handshake ~deadline_s fd =
  (* The handshake doubles as the spawn-failure detector: a worker that
     could not exec (or crashed in init) reads as EOF. Before the
     handshake frame the worker's stdout may carry arbitrary init-time
     noise (e.g. a test harness's seed banner), so scan byte-by-byte
     until the magic marker. *)
  let deadline = now () +. deadline_s in
  let wait_readable () =
    let remaining = deadline -. now () in
    if remaining <= 0. then failwith "worker handshake timed out";
    match restart_on_intr (fun () -> Unix.select [ fd ] [] [] remaining) with
    | [], _, _ -> failwith "worker handshake timed out"
    | _ -> ()
  in
  let byte = Bytes.create 1 in
  let mlen = String.length magic in
  let rec scan matched =
    if matched < mlen then begin
      wait_readable ();
      if restart_on_intr (fun () -> Unix.read fd byte 0 1) = 0 then
        raise End_of_file;
      let c = Bytes.get byte 0 in
      if Char.equal c magic.[matched] then scan (matched + 1)
      else scan (if Char.equal c magic.[0] then 1 else 0)
    end
  in
  scan 0;
  wait_readable ();
  if not (String.equal (read_frame fd) "ready") then
    failwith "bad worker handshake"

(* --- parent-side artifact store -------------------------------------------- *)

module Store = struct
  (* Where [Cas_get]/[Cas_put] frames land. Disk-backed through
     {!Cache}'s CAS when a disk tier is configured; otherwise a
     bounded in-memory table so workers still share artifacts within
     one parent process. Accessed only from the single-threaded
     scheduler loop. *)

  let mem_budget = 256 * 1024 * 1024

  type t = { mem : (string, string) Hashtbl.t; mutable bytes : int }

  let create () = { mem = Hashtbl.create 64; bytes = 0 }
  let slot ~cache ~key_digest = cache ^ "\000" ^ key_digest

  let get t ~cache ~key_digest =
    match Cache.raw_payload ~cache ~key_digest with
    | Some _ as hit -> hit
    | None -> Hashtbl.find_opt t.mem (slot ~cache ~key_digest)

  let put t ~cache ~key_digest ~payload =
    if Option.is_some (Cache.disk_dir ()) then
      Cache.store_raw_payload ~cache ~key_digest ~payload
    else begin
      let s = slot ~cache ~key_digest in
      if
        (not (Hashtbl.mem t.mem s))
        && t.bytes + String.length payload <= mem_budget
      then begin
        Hashtbl.replace t.mem s payload;
        t.bytes <- t.bytes + String.length payload
      end
    end
end

(* --- scheduler ------------------------------------------------------------- *)

(* A connected, handshaken worker as the scheduler sees it: two fds to
   select/write on and two hooks. [kill] forces the worker down right
   now (SIGKILL); [close] releases everything the endpoint holds,
   gracefully where possible. The crash path runs kill-then-close; the
   graceful path runs close alone. *)
type endpoint = {
  ep_send : Unix.file_descr;
  ep_recv : Unix.file_descr;
  ep_kill : unit -> unit;
  ep_close : unit -> unit;
}

type live = { ep : endpoint; mutable job : (int * float) option }

type sched = {
  s_n : int;
  s_retries : int;
  s_timeout : float option;
  s_slots : live option array;
  s_busy : float array;
  s_respawn : int -> endpoint option;
  s_respawn_at : float array;
      (* Earliest next respawn attempt per empty slot; [infinity] means
         none is scheduled. A failed respawn (a fork that failed
         transiently) must not be retried in a tight loop from the
         scheduler — attempts are deferred with exponential backoff and
         retried from [map] while work is pending, so the slot is
         recovered instead of silently lost. *)
  s_respawn_backoff : float array;
  s_store : Store.t;
  mutable s_restarts : int;
  mutable s_shut : bool;
}

let make_sched ?(retries = 2) ?timeout_s ~respawn endpoints =
  let n = Array.length endpoints in
  {
    s_n = n;
    s_retries = max 0 retries;
    s_timeout = timeout_s;
    s_slots = Array.map (Option.map (fun ep -> { ep; job = None })) endpoints;
    s_busy = Array.make n 0.;
    s_respawn = respawn;
    (* A slot whose worker never came up is retried like a crashed one,
       starting one backoff step from now. *)
    s_respawn_at =
      Array.map
        (function Some _ -> Float.infinity | None -> now () +. 1.0)
        endpoints;
    s_respawn_backoff = Array.make n 1.0;
    s_store = Store.create ();
    s_restarts = 0;
    s_shut = false;
  }

let workers t = t.s_n
let restarts t = t.s_restarts
let busy_times t = Array.copy t.s_busy
let store t = t.s_store

let map (type a b) t (f : a -> b) (tasks : a array) :
    (b, exn * string) result array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results : (b, exn * string) result option array = Array.make n None in
    let pending = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i pending
    done;
    (* Crashed executions per task, charged against [s_retries]. *)
    let failures = Array.make n 0 in
    let completed = ref 0 in
    let crashes = ref 0 in
    let record i r =
      results.(i) <- Some r;
      incr completed
    in
    (* Last resort when every worker is gone and none respawns: run on
       the calling process with identical semantics. *)
    let run_local i =
      record i
        (match f tasks.(i) with
        | v -> Ok v
        | exception exn -> Error (exn, Printexc.get_backtrace ()))
    in
    let send_task w i =
      let x = tasks.(i) in
      let thunk () = Obj.repr (f x) in
      write_frame w.ep.ep_send
        (Marshal.to_string (Task (i, thunk)) [ Marshal.Closures ]);
      w.job <- Some (i, now ())
    in
    (* Detach a worker from its in-flight task and charge its busy
       time. Returns the task index. *)
    let retire si w =
      match w.job with
      | None -> None
      | Some (i, started) ->
          t.s_busy.(si) <- t.s_busy.(si) +. (now () -. started);
          w.job <- None;
          Some i
    in
    let try_respawn si =
      match t.s_respawn si with
      | Some ep ->
          t.s_slots.(si) <- Some { ep; job = None };
          t.s_respawn_at.(si) <- Float.infinity;
          t.s_respawn_backoff.(si) <- 1.0
      | None ->
          t.s_respawn_at.(si) <- now () +. t.s_respawn_backoff.(si);
          t.s_respawn_backoff.(si) <-
            Float.min 10. (2. *. t.s_respawn_backoff.(si))
    in
    (* A worker died (EOF / EPIPE / timeout / garbage frames): drop it,
       requeue its in-flight task (bounded by max_retries), back off
       briefly and respawn a replacement into the same slot. *)
    let handle_crash si w reason =
      incr crashes;
      t.s_restarts <- t.s_restarts + 1;
      let job = retire si w in
      w.ep.ep_kill ();
      w.ep.ep_close ();
      t.s_slots.(si) <- None;
      (match job with
      | Some i ->
          failures.(i) <- failures.(i) + 1;
          if failures.(i) > t.s_retries then
            record i
              (Error (Worker_lost { attempts = failures.(i); reason }, ""))
          else Queue.add i pending
      | None -> ());
      Unix.sleepf
        (Float.min 0.5 (0.02 *. (2. ** float_of_int (Stdlib.min !crashes 5))));
      try_respawn si
    in
    (* Retry deferred respawns for empty slots while work remains, so a
       slot whose fork failed picks back up mid-map. *)
    let retry_respawns () =
      if not (Queue.is_empty pending) then
        Array.iteri
          (fun si slot ->
            match slot with
            | Some _ -> ()
            | None -> if now () >= t.s_respawn_at.(si) then try_respawn si)
          t.s_slots
    in
    let cas_reply w hit =
      let frame =
        match hit with Some p -> Cas_found p | None -> Cas_missing
      in
      write_frame w.ep.ep_send (Marshal.to_string frame [ Marshal.Closures ])
    in
    let receive si w =
      match read_frame w.ep.ep_recv with
      | exception End_of_file -> handle_crash si w "worker exited (EOF)"
      | exception Unix.Unix_error (e, _, _) ->
          handle_crash si w (Unix.error_message e)
      | frame -> (
          match (Marshal.from_string frame 0 : up) with
          | exception _ ->
              (* Bytes that are not a Marshal frame at all: the stream
                 is corrupt, drop the worker. *)
              handle_crash si w "malformed frame"
          | Result (seq, outcome) -> (
              match w.job with
              | Some (i, _) when i = seq ->
                  ignore (retire si w : int option);
                  record seq
                    (match outcome with
                    | Ok v -> Ok (Obj.obj v : b)
                    | Error (msg, bt) ->
                        Error (Remote_failure { message = msg }, bt))
              | _ ->
                  (* A frame for a task we no longer track: the protocol
                     is out of sync, drop the worker. *)
                  handle_crash si w "protocol mismatch")
          | Cas_get (cache, key_digest) -> (
              match cas_reply w (Store.get t.s_store ~cache ~key_digest) with
              | () -> ()
              | exception (Unix.Unix_error _ | Sys_error _ | Frame_too_large _)
                ->
                  (* The worker is blocked waiting on this reply; if it
                     cannot be delivered, the only safe move is to drop
                     the worker and retry its task elsewhere. *)
                  handle_crash si w "CAS reply failed")
          | Cas_put (cache, key_digest, payload) ->
              Store.put t.s_store ~cache ~key_digest ~payload)
    in
    let dispatch () =
      Array.iteri
        (fun si slot ->
          match slot with
          | Some w when Option.is_none w.job -> (
              match Queue.take_opt pending with
              | None -> ()
              | Some i -> (
                  match send_task w i with
                  | () -> ()
                  | exception Frame_too_large { bytes } ->
                      (* The marshalled task itself exceeds the frame
                         cap: deterministic, so fail the task rather
                         than blaming (and restarting) the worker. *)
                      record i (Error (Frame_too_large { bytes }, ""))
                  | exception (Unix.Unix_error _ | Sys_error _) ->
                      (* The worker died while idle; the task never
                         reached it, so requeue without charging an
                         attempt. *)
                      Queue.add i pending;
                      handle_crash si w "task dispatch failed"))
          | _ -> ())
        t.s_slots
    in
    while !completed < n do
      retry_respawns ();
      dispatch ();
      let in_flight =
        Array.to_seq t.s_slots
        |> Seq.filter_map (function
             | Some w when Option.is_some w.job -> Some w
             | _ -> None)
        |> List.of_seq
      in
      if in_flight = [] then begin
        (* Nothing is running. If workers survive, the next loop
           iteration dispatches; if none are left, drain locally. *)
        if Array.for_all Option.is_none t.s_slots then begin
          Queue.iter run_local pending;
          Queue.clear pending
        end
      end
      else begin
        let tnow = now () in
        let tmo =
          let acc =
            match t.s_timeout with
            | None -> Float.infinity
            | Some ts ->
                List.fold_left
                  (fun acc w ->
                    match w.job with
                    | Some (_, started) ->
                        Float.min acc
                          (Float.max 0.001 (started +. ts -. tnow))
                    | None -> acc)
                  ts in_flight
          in
          (* Also wake for deferred respawn retries, so a recovered
             slot rejoins promptly while tasks are still pending. *)
          let acc =
            let a = ref acc in
            if not (Queue.is_empty pending) then
              Array.iteri
                (fun si slot ->
                  match slot with
                  | None when Float.is_finite t.s_respawn_at.(si) ->
                      a :=
                        Float.min !a
                          (Float.max 0.001 (t.s_respawn_at.(si) -. tnow))
                  | _ -> ())
                t.s_slots;
            !a
          in
          if Float.is_finite acc then acc else -1.
        in
        let fds = List.map (fun w -> w.ep.ep_recv) in_flight in
        match restart_on_intr (fun () -> Unix.select fds [] [] tmo) with
        | [], _, _ -> (
            (* Timer wake-up: either a deferred respawn is due (the next
               loop iteration handles it) or a task exceeded its
               timeout — kill every worker over the limit. *)
            match t.s_timeout with
            | None -> ()
            | Some ts ->
                let tnow = now () in
                Array.iteri
                  (fun si slot ->
                    match slot with
                    | Some w -> (
                        match w.job with
                        | Some (_, started) when tnow -. started >= ts ->
                            handle_crash si w
                              (Printf.sprintf "task exceeded %.3fs timeout" ts)
                        | _ -> ())
                    | None -> ())
                  t.s_slots)
        | readable, _, _ ->
            Array.iteri
              (fun si slot ->
                match slot with
                | Some w when List.memq w.ep.ep_recv readable -> receive si w
                | _ -> ())
              t.s_slots
      end
    done;
    Array.map (function Some r -> r | None -> assert false) results
  end

let shutdown t =
  if not t.s_shut then begin
    t.s_shut <- true;
    Array.iteri
      (fun si slot ->
        match slot with
        | None -> ()
        | Some w ->
            t.s_slots.(si) <- None;
            w.ep.ep_close ())
      t.s_slots
  end
