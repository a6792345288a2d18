(* Engine.Remote: the TCP fleet backend, exercised end-to-end against
   loopback worker daemons — this test binary re-invoked with
   [daemon_flag], which Test_main routes straight to
   Remote.serve_forever. Crash recovery, bounded retries and task
   failures belong to the shared Transport scheduler and are covered
   by Test_engine and Test_transport; here: byte-identity, the CAS
   side-channel, the daemon lifecycle, the shared secret and address
   handling. *)

open Tiered

let daemon_flag = "--test-remote-daemon"

(* An unused port on [addr]: bind an ephemeral listener, read the port
   back and close it — a race in principle, but the daemon rebinds it
   immediately. *)
let free_port addr =
  let sockaddr = Unix.ADDR_INET (addr, 0) in
  let s = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s sockaddr;
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

(* Run [f port] against a worker daemon listening on [bind]. [token],
   when given, replaces the shared secret the daemon would inherit from
   this process's environment. The daemon is killed afterwards. *)
let with_daemon ?(bind = "127.0.0.1") ?token f =
  let port = free_port (Unix.inet_addr_of_string bind) in
  let env =
    match token with
    | None -> Unix.environment ()
    | Some token ->
        let prefix = Engine.Remote.token_env ^ "=" in
        Array.of_list
          (List.filter
             (fun kv -> not (String.starts_with ~prefix kv))
             (Array.to_list (Unix.environment ()))
          @ [ prefix ^ token ])
  in
  let exe = Sys.executable_name in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process_env exe
      [| exe; daemon_flag; bind; string_of_int port |]
      env null Unix.stderr Unix.stderr
  in
  let finally () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
  in
  Fun.protect ~finally (fun () -> f port)

(* Connect a fleet, retrying while the daemons come up. *)
let with_fleet ?token addrs f =
  let rec connect tries =
    match Engine.Remote.create ?token addrs with
    | fleet -> fleet
    | exception Engine.Remote.Spawn_failure _ when tries > 0 ->
        Unix.sleepf 0.1;
        connect (tries - 1)
  in
  let fleet = connect 50 in
  Fun.protect ~finally:(fun () -> Engine.Remote.shutdown fleet) (fun () -> f fleet)

(* Block until the daemon on [port] serves, so a pool created next
   cannot silently degrade to domains. *)
let await_daemon port = with_fleet [ ("127.0.0.1", port) ] ignore

(* (a) Byte-identity across substrates: the same grid rendered through
   a fleet of two daemons equals the serial rendering exactly. *)
let test_remote_backend_identical () =
  with_daemon @@ fun p1 ->
  with_daemon @@ fun p2 ->
  await_daemon p1;
  await_daemon p2;
  let grid = List.map Experiment.find [ "table1"; "fig8" ] in
  let serial = Runner.render (Runner.run_experiments ~jobs:1 grid) in
  let metrics = Engine.Metrics.create () in
  let remote =
    Runner.render
      (Runner.run_experiments
         ~backend:(Engine.Pool.Remote [ ("127.0.0.1", p1); ("127.0.0.1", p2) ])
         ~metrics grid)
  in
  Alcotest.(check string) "ran on the fleet" "remote"
    (Engine.Metrics.snapshot metrics).Engine.Metrics.backend;
  Alcotest.(check string) "remote rendering byte-identical" serial remote

(* (b) The CAS side-channel: a worker that misses an artifact fetches
   it from the parent's store by digest over its task connection. The
   parent store is pre-seeded with the marshalled payload; the task's
   compute function raises, so only a successful remote fetch can
   produce the value. *)
let test_remote_cas_fetch () =
  with_daemon @@ fun port ->
  with_fleet [ ("127.0.0.1", port) ] @@ fun fleet ->
  let cache = Engine.Cache.create ~name:"test-remote-cas" ~schema:"v1" () in
  let key = ("artifact", 7) in
  let payload = Engine.Cache.Private.payload_of_value cache "fetched-over-tcp" in
  Engine.Transport.Store.put (Engine.Remote.store fleet)
    ~cache:"test-remote-cas"
    ~key_digest:(Engine.Cache.key_digest key)
    ~payload;
  let out =
    Engine.Remote.map fleet
      (fun () ->
        let c = Engine.Cache.create ~name:"test-remote-cas" ~schema:"v1" () in
        Engine.Cache.find_or_add c ~key:("artifact", 7) (fun () ->
            failwith "compute ran: the remote tier did not serve the artifact"))
      [| () |]
  in
  match out.(0) with
  | Ok v -> Alcotest.(check string) "artifact served by digest" "fetched-over-tcp" v
  | Error (exn, _) ->
      Alcotest.failf "fetch failed: %s" (Printexc.to_string exn)

(* (c) The publish direction: with no disk tier in the parent, a
   worker's computed artifact lands in the parent's in-memory store
   under the cache name and key digest. *)
let test_remote_cas_publish () =
  with_daemon @@ fun port ->
  with_fleet [ ("127.0.0.1", port) ] @@ fun fleet ->
  let key = ("published", 1) in
  let out =
    Engine.Remote.map fleet
      (fun () ->
        let c = Engine.Cache.create ~name:"test-remote-pub" ~schema:"v1" () in
        Engine.Cache.find_or_add c ~key:("published", 1) (fun () -> "made-remotely"))
      [| () |]
  in
  (match out.(0) with
  | Ok v -> Alcotest.(check string) "task result" "made-remotely" v
  | Error (exn, _) ->
      Alcotest.failf "task failed: %s" (Printexc.to_string exn));
  match
    Engine.Transport.Store.get (Engine.Remote.store fleet)
      ~cache:"test-remote-pub"
      ~key_digest:(Engine.Cache.key_digest key)
  with
  | None -> Alcotest.fail "worker artifact was not published to the parent"
  | Some payload ->
      Alcotest.(check bool) "published payload is non-empty" true
        (String.length payload > 0)

(* (d) Spec parsing: the --workers syntax. The port splits off at the
   last colon, so IPv6 literals need no brackets. *)
let test_parse_spec () =
  (match Engine.Remote.parse_spec "10.0.0.1:7000,host-b:7001,::1:7002" with
  | Ok [ ("10.0.0.1", 7000); ("host-b", 7001); ("::1", 7002) ] -> ()
  | Ok _ -> Alcotest.fail "address list parsed to the wrong addresses"
  | Error msg -> Alcotest.failf "address list rejected: %s" msg);
  List.iter
    (fun bad ->
      match Engine.Remote.parse_spec bad with
      | Ok _ -> Alcotest.failf "%S parsed but should not" bad
      | Error _ -> ())
    [ ""; "nohost"; ":7000"; "host:"; "host:0"; "host:65536"; "host:notaport" ]

(* (e) The daemon lifecycle: a daemon serves a map, survives the
   parent disconnecting, and serves a second parent. *)
let test_remote_daemon_reconnect () =
  with_daemon @@ fun port ->
  let addrs = [ ("127.0.0.1", port) ] in
  with_fleet addrs (fun fleet ->
      let out = Engine.Remote.map fleet (fun i -> i * 3) [| 1; 2; 3 |] in
      Alcotest.(check bool) "first connection maps" true
        (Array.for_all Result.is_ok out));
  with_fleet addrs @@ fun fleet ->
  match (Engine.Remote.map fleet (fun i -> i + 1) [| 10 |]).(0) with
  | Ok v -> Alcotest.(check int) "second connection maps" 11 v
  | Error (exn, _) ->
      Alcotest.failf "second connection failed: %s" (Printexc.to_string exn)

(* (f) Shared-secret enforcement: a daemon holding a token serves a
   parent presenting the same token and rejects one presenting another
   — the rejection happens at the preamble, before any
   closure-carrying frame could be unmarshalled. *)
let test_remote_daemon_token_auth () =
  with_daemon ~token:"s3cret" @@ fun port ->
  let addrs = [ ("127.0.0.1", port) ] in
  with_fleet ~token:"s3cret" addrs (fun fleet ->
      match (Engine.Remote.map fleet (fun i -> i * 7) [| 6 |]).(0) with
      | Ok v -> Alcotest.(check int) "authenticated parent maps" 42 v
      | Error (exn, _) ->
          Alcotest.failf "authenticated map failed: %s" (Printexc.to_string exn));
  (* The daemon is demonstrably up (we just used it), so Spawn_failure
     here can only be the auth rejection — for a wrong token and for
     none at all. *)
  List.iter
    (fun token ->
      match Engine.Remote.create ~token addrs with
      | fleet ->
          Engine.Remote.shutdown fleet;
          Alcotest.failf "daemon accepted a parent with token %S" token
      | exception Engine.Remote.Spawn_failure _ -> ())
    [ "wrong"; "" ]

(* (g) Binding beyond loopback without a shared secret is refused
   outright — an open port accepts closures, i.e. arbitrary code. *)
let test_serve_forever_refuses_open_bind_without_token () =
  match Engine.Remote.serve_forever ~bind:"0.0.0.0" ~token:"" ~port:1 with
  | _ -> Alcotest.fail "serve_forever bound 0.0.0.0 without a token"
  | exception Failure _ -> ()

(* (h) An IPv6 bind gets an IPv6 listener: a daemon on ::1 serves a
   fleet addressed as ::1:PORT. *)
let test_remote_daemon_ipv6 () =
  (match free_port Unix.inet6_addr_loopback with
  | _ -> ()
  | exception Unix.Unix_error _ -> Alcotest.skip ());
  with_daemon ~bind:"::1" @@ fun port ->
  with_fleet [ ("::1", port) ] @@ fun fleet ->
  match (Engine.Remote.map fleet (fun i -> i * 5) [| 9 |]).(0) with
  | Ok v -> Alcotest.(check int) "mapped over ::1" 45 v
  | Error (exn, _) -> Alcotest.failf "map failed: %s" (Printexc.to_string exn)

(* (i) Every address gets its chance: a closed port listed first does
   not degrade the pool while a live daemon is listed after it. The
   tasks report their pid, so running them in this process would
   show. *)
let test_remote_dead_first_address () =
  with_daemon @@ fun port ->
  await_daemon port;
  let dead = free_port Unix.inet_addr_loopback in
  Engine.Pool.with_pool
    ~backend:(Engine.Pool.Remote [ ("127.0.0.1", dead); ("127.0.0.1", port) ])
  @@ fun pool ->
  (match Engine.Pool.backend pool with
  | Engine.Pool.Remote _ -> ()
  | Engine.Pool.Domains | Engine.Pool.Procs ->
      Alcotest.fail "pool degraded although a live daemon was listed");
  let out = Engine.Pool.map pool (fun i -> (i * i, Unix.getpid ())) (Array.init 8 Fun.id) in
  Alcotest.(check (array int)) "results" (Array.init 8 (fun i -> i * i))
    (Array.map fst out);
  Alcotest.(check bool) "ran in the daemon" true
    (Array.for_all (fun (_, pid) -> pid <> Unix.getpid ()) out)

let suite =
  [
    Alcotest.test_case "remote backend renders byte-identically" `Slow
      test_remote_backend_identical;
    Alcotest.test_case "workers fetch artifacts from the parent store" `Quick
      test_remote_cas_fetch;
    Alcotest.test_case "workers publish artifacts to the parent store" `Quick
      test_remote_cas_publish;
    Alcotest.test_case "--workers spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "standalone daemon serves successive parents" `Quick
      test_remote_daemon_reconnect;
    Alcotest.test_case "standalone daemon enforces the shared secret" `Quick
      test_remote_daemon_token_auth;
    Alcotest.test_case "non-loopback bind requires a shared secret" `Quick
      test_serve_forever_refuses_open_bind_without_token;
    Alcotest.test_case "IPv6 daemon serves a ::1 fleet" `Quick
      test_remote_daemon_ipv6;
    Alcotest.test_case "a dead first address does not sink the fleet" `Quick
      test_remote_dead_first_address;
  ]
