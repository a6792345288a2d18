(* Engine.Transport: the worker-pipe scheduler, driven
   through fake endpoints so every protocol failure mode is exercised
   deterministically and in-process.

   The fuzz tests mirror test_netflow_wire's truncation sweep: a
   worker stream that dies mid-frame, or that carries garbage instead
   of frames, must never raise out of the scheduler — it reads as that
   worker crashing, and with retries exhausted the task surfaces as
   [Error (Worker_lost _)] in the result array. *)

(* A fake endpoint is a pair of pipes. The parent writes down-frames
   into [down_w] (we keep [down_r] open so dispatch writes never hit
   EPIPE — a worker that stopped reading is a different failure mode
   than one that wrote garbage); the "worker" side is whatever bytes
   the test pre-loads into the up pipe before closing its write end. *)
type fake = {
  f_ep : Engine.Transport.endpoint;
  f_down_r : Unix.file_descr;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fake_endpoint ~up_bytes =
  let down_r, down_w = Unix.pipe ~cloexec:true () in
  let up_r, up_w = Unix.pipe ~cloexec:true () in
  let n = String.length up_bytes in
  if n > 0 then begin
    let written = Unix.write_substring up_w up_bytes 0 n in
    if written <> n then failwith "fake endpoint: short preload write"
  end;
  (* EOF after the preloaded bytes: the stream is dead. *)
  Unix.close up_w;
  {
    f_ep =
      {
        Engine.Transport.ep_send = down_w;
        ep_recv = up_r;
        ep_kill = (fun () -> ());
        ep_close =
          (fun () ->
            close_noerr down_w;
            close_noerr up_r);
      };
    f_down_r = down_r;
  }

(* Run one 1-task map over endpoints that each speak [up_bytes], with
   [spares] fresh ones supplied through respawn, and return the single
   result. The task itself must never run locally (the scheduler only
   drains locally once every endpoint is gone AND the task was never
   charged a crash past its retry budget), so it raises if called. *)
let map_against ?timeout_s ~retries ~spares up_bytes =
  let fakes = ref [ fake_endpoint ~up_bytes ] in
  let spares = ref (List.init spares (fun _ -> ())) in
  let respawn _slot =
    match !spares with
    | [] -> None
    | () :: rest ->
        spares := rest;
        let f = fake_endpoint ~up_bytes in
        fakes := f :: !fakes;
        Some f.f_ep
  in
  let sched =
    Engine.Transport.make_sched ~retries ?timeout_s ~respawn
      [| Some (List.hd !fakes).f_ep |]
  in
  let finally () =
    Engine.Transport.shutdown sched;
    List.iter (fun f -> close_noerr f.f_down_r) !fakes
  in
  Fun.protect ~finally @@ fun () ->
  let out =
    Engine.Transport.map sched
      (fun _ -> Alcotest.fail "task ran locally despite a charged crash")
      [| 0 |]
  in
  Alcotest.(check int) "one result" 1 (Array.length out);
  out.(0)

let check_worker_lost ~attempts what result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected Worker_lost, got Ok" what
  | Error (Engine.Transport.Worker_lost { attempts = a; _ }, _) ->
      Alcotest.(check int) (what ^ ": attempts") attempts a
  | Error (exn, _) ->
      Alcotest.failf "%s: expected Worker_lost, got %s" what
        (Printexc.to_string exn)

(* One well-formed up-frame for task 0, as a worker would emit it —
   the truncation sweep cuts it at every interesting length. *)
let valid_result_frame ~seq =
  let payload =
    Marshal.to_string
      (Engine.Transport.Result (seq, Ok (Obj.repr 42)))
      []
  in
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.to_string b

(* (a) Truncation fuzz: a stream cut anywhere inside a valid frame —
   inside the length header, at the header boundary, mid-payload, one
   byte short — never raises; the task dies as Worker_lost. *)
let test_truncated_frames_surface_as_worker_lost () =
  let frame = valid_result_frame ~seq:0 in
  let n = String.length frame in
  let cuts = [ 0; 1; 2; 3; 4; 5; 8; n / 2; n - 2; n - 1 ] in
  List.iter
    (fun cut ->
      let cut = min cut (n - 1) in
      let r =
        map_against ~retries:0 ~spares:0 (String.sub frame 0 cut)
      in
      check_worker_lost ~attempts:1
        (Printf.sprintf "cut at %d/%d" cut n)
        r)
    cuts

(* (b) Garbage streams: arbitrary bytes, an over-limit length header,
   a negative length header, and a well-framed payload that is not a
   Marshal value at all. All are worker crashes, never exceptions. *)
let test_garbage_frames_surface_as_worker_lost () =
  let huge = Bytes.create 8 in
  Bytes.set_int32_be huge 0 0x7fff_ffffl;
  let negative = Bytes.create 8 in
  Bytes.set_int32_be negative 0 (-1l);
  let framed_garbage =
    let b = Bytes.create 9 in
    Bytes.set_int32_be b 0 5l;
    Bytes.blit_string "hello" 0 b 4 5;
    Bytes.to_string b
  in
  List.iter
    (fun (what, bytes) ->
      check_worker_lost ~attempts:1 what
        (map_against ~retries:0 ~spares:0 bytes))
    [
      ("random bytes", "\xff\xfe\x00\x41 not a frame \x00\x01");
      ("huge length header", Bytes.to_string huge);
      ("negative length header", Bytes.to_string negative);
      ("well-framed non-Marshal payload", framed_garbage);
    ]

(* (c) A syntactically valid Result frame for a task the worker was
   never given is a protocol violation — same containment. *)
let test_wrong_seq_result_is_a_crash () =
  check_worker_lost ~attempts:1 "wrong-seq result"
    (map_against ~retries:0 ~spares:0 (valid_result_frame ~seq:99))

(* (d) Retry accounting across respawns: retries=1 means the task is
   charged two crashed executions (the respawned endpoint speaks the
   same garbage) before Worker_lost reports attempts=2. *)
let test_retries_span_respawned_workers () =
  check_worker_lost ~attempts:2 "two garbage workers"
    (map_against ~retries:1 ~spares:3 "definitely not a frame")

(* (e) Handshake resync: init-time noise ahead of the magic is
   discarded byte-by-byte; a peer that never produces the magic fails
   the deadline instead of hanging. *)
let test_handshake_resync_and_deadline () =
  let r, w = Unix.pipe ~cloexec:true () in
  let noise = "stray stdout chatter \001\253 almost-magic \002" in
  let nw = Unix.write_substring w noise 0 (String.length noise) in
  Alcotest.(check int) "noise preloaded" (String.length noise) nw;
  let m = Engine.Transport.magic in
  let mw = Unix.write_substring w m 0 (String.length m) in
  Alcotest.(check int) "magic preloaded" (String.length m) mw;
  Engine.Transport.write_frame w "ready";
  Engine.Transport.handshake ~deadline_s:5.0 r;
  Unix.close r;
  Unix.close w;
  (* Deadline: a silent peer. *)
  let r, w = Unix.pipe ~cloexec:true () in
  (match Engine.Transport.handshake ~deadline_s:0.2 r with
  | () -> Alcotest.fail "handshake succeeded against a silent peer"
  | exception (Failure _ | End_of_file) -> ());
  Unix.close r;
  Unix.close w

(* (f) Frame IO round-trip, including the empty frame and one bigger
   than a pipe buffer. A regular file stands in for the pipe — a
   single-threaded test writing 70 kB into its own unread pipe would
   deadlock on the pipe buffer, and forking a writer child is off the
   table once earlier suites have spawned domains. *)
let test_frame_roundtrip () =
  let frames = [ ""; "x"; String.make 70_000 'q' ] in
  let path = Filename.temp_file "tiered-frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
      List.iter (fun s -> Engine.Transport.write_frame w s) frames;
      Unix.close w;
      let r = Unix.openfile path [ Unix.O_RDONLY ] 0o600 in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          List.iter
            (fun s ->
              Alcotest.(check string)
                (Printf.sprintf "frame of %d bytes" (String.length s))
                s
                (Engine.Transport.read_frame r))
            frames;
          match Engine.Transport.read_frame r with
          | _ -> Alcotest.fail "read_frame past EOF returned"
          | exception End_of_file -> ()))

(* (g) The parent-side store: in-memory fallback round-trips, and with
   a disk tier configured it is backed by the content-addressed
   store — a payload published under one cache dedups into the same
   object another cache's digest lookup finds. *)
let test_store_roundtrip () =
  let store = Engine.Transport.Store.create () in
  Engine.Transport.Store.put store ~cache:"c" ~key_digest:"k1" ~payload:"abc";
  Alcotest.(check (option string))
    "in-memory store round-trip" (Some "abc")
    (Engine.Transport.Store.get store ~cache:"c" ~key_digest:"k1");
  Alcotest.(check (option string))
    "unknown digest misses" None
    (Engine.Transport.Store.get store ~cache:"c" ~key_digest:"k2")

let suite =
  [
    Alcotest.test_case "truncated frames surface as Worker_lost" `Quick
      test_truncated_frames_surface_as_worker_lost;
    Alcotest.test_case "garbage frames surface as Worker_lost" `Quick
      test_garbage_frames_surface_as_worker_lost;
    Alcotest.test_case "wrong-sequence result is a crash" `Quick
      test_wrong_seq_result_is_a_crash;
    Alcotest.test_case "retry accounting spans respawned workers" `Quick
      test_retries_span_respawned_workers;
    Alcotest.test_case "handshake resyncs through noise and enforces the \
                        deadline"
      `Quick test_handshake_resync_and_deadline;
    Alcotest.test_case "frame IO round-trips" `Quick test_frame_roundtrip;
    Alcotest.test_case "artifact store round-trips" `Quick test_store_roundtrip;
  ]
