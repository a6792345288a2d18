(* TCP fleet worker backend. See remote.mli for the contract.

   This module is only the socket transport: the daemon's listener and
   the parent's connects. The frame protocol, handshake/resync, crash
   recovery, bounded retries, per-task timeouts, work stealing and the
   CAS side-channel all live in {!Transport}, shared with {!Proc}.

   Workers are daemons started out-of-band ([tiered-cli worker --listen
   PORT], typically via ssh); the parent connects out to each
   [host:port]. A crashed worker is replaced by a reconnect to the same
   address (the listener loop serves connections sequentially, so a
   restarted daemon picks the slot back up). *)

exception Spawn_failure = Transport.Spawn_failure
exception Remote_failure = Transport.Remote_failure
exception Worker_lost = Transport.Worker_lost

(* --- shared secret ---------------------------------------------------------- *)

(* Task frames execute arbitrary code in whoever accepts them (see the
   trust-model note in transport.ml), so TCP connections authenticate
   with a shared token. It travels in the environment, never on argv —
   argv is world-readable via ps. *)

let token_env = "TIERED_WORKER_TOKEN"

let env_token () =
  match Sys.getenv_opt token_env with Some t -> t | None -> ""

let parse_spec s =
  let parse_addr a =
    match String.rindex_opt a ':' with
    | None -> Error (Printf.sprintf "%S is not host:port" a)
    | Some i -> (
        let host = String.sub a 0 i in
        let port = String.sub a (i + 1) (String.length a - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 1 && p <= 65535 && String.length host > 0 ->
            Ok (host, p)
        | Some _ | None -> Error (Printf.sprintf "%S is not host:port" a))
  in
  let parts = String.split_on_char ',' s |> List.filter (fun p -> String.length p > 0) in
  if parts = [] then Error "empty worker list"
  else
    List.fold_left
      (fun acc part ->
        match (acc, parse_addr part) with
        | Error _, _ -> acc
        | Ok _, Error e -> Error e
        | Ok addrs, Ok a -> Ok (a :: addrs))
      (Ok []) parts
    |> Result.map List.rev

(* --- sockets --------------------------------------------------------------- *)

let set_nodelay sock =
  (* Frames are small and request/response-shaped; Nagle would add
     40ms hiccups to every CAS round-trip. *)
  try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          raise (Spawn_failure (Printf.sprintf "cannot resolve %s" host))
      | h -> h.Unix.h_addr_list.(0))

let connect ~timeout_s host port =
  let fail msg =
    raise (Spawn_failure (Printf.sprintf "connect %s:%d: %s" host port msg))
  in
  let addr = Unix.ADDR_INET (resolve host, port) in
  let sock =
    try Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
    with Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  Unix.set_close_on_exec sock;
  let fail msg =
    Transport.close_noerr sock;
    fail msg
  in
  Unix.set_nonblock sock;
  (match Unix.connect sock addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
      match
        Transport.restart_on_intr (fun () ->
            Unix.select [] [ sock ] [] timeout_s)
      with
      | _, [ _ ], _ -> (
          match Unix.getsockopt_error sock with
          | None -> ()
          | Some e -> fail (Unix.error_message e))
      | _ -> fail "timed out")
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e));
  Unix.clear_nonblock sock;
  set_nodelay sock;
  sock

(* --- worker side ----------------------------------------------------------- *)

let serve_connection ~token sock =
  match Transport.serve_worker ~in_fd:sock ~out_fd:sock ~token () with
  | () -> ()
  | exception End_of_file -> ()

let is_loopback addr =
  let s = Unix.string_of_inet_addr addr in
  String.equal s "::1"
  || (String.length s >= 4 && String.equal (String.sub s 0 4) "127.")

let serve_forever ?(bind = "127.0.0.1") ?token ~port =
  let token = match token with Some t -> t | None -> env_token () in
  let bind_addr = resolve bind in
  (* Loopback needs no secret (the host boundary is the trust
     boundary, same as the subprocess backend). Anything wider is
     remote code execution for whoever can reach the port, so it is
     double opt-in: an explicit bind address AND a shared token — and
     even then the port belongs on a trusted/firewalled network. *)
  if (not (is_loopback bind_addr)) && String.equal token "" then
    failwith
      (Printf.sprintf
         "refusing to listen on %s without a shared secret: task frames \
          execute arbitrary code in this daemon, so an exposed port is \
          remote code execution for anyone who can reach it. Pass \
          --token-file (or set %s) here and on the parent, and only run \
          workers on trusted networks"
         bind token_env);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Printexc.record_backtrace true;
  let sockaddr = Unix.ADDR_INET (bind_addr, port) in
  let listener =
    Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener sockaddr;
  Unix.listen listener 8;
  Printf.eprintf "engine remote worker: listening on %s:%d\n%!"
    (Unix.string_of_inet_addr bind_addr)
    port;
  let rec loop () =
    let sock, peer =
      Transport.restart_on_intr (fun () -> Unix.accept listener)
    in
    let peer_name =
      match peer with
      | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      | Unix.ADDR_UNIX p -> p
    in
    Printf.eprintf "engine remote worker: serving %s\n%!" peer_name;
    set_nodelay sock;
    (match serve_connection ~token sock with
    | () -> ()
    | exception Transport.Auth_failure ->
        Printf.eprintf
          "engine remote worker: rejected %s (bad or missing shared secret)\n%!"
          peer_name
    | exception exn ->
        Printf.eprintf "engine remote worker: connection to %s failed: %s\n%!"
          peer_name (Printexc.to_string exn));
    Transport.close_noerr sock;
    Printf.eprintf "engine remote worker: %s disconnected\n%!" peer_name;
    loop ()
  in
  loop ()

(* --- parent side ----------------------------------------------------------- *)

type t = { sched : Transport.sched }

let endpoint_of_socket ~handshake_timeout_s ~token sock =
  try
    Transport.write_auth sock ~token;
    Transport.write_config sock;
    Transport.handshake ~deadline_s:handshake_timeout_s ~token sock;
    {
      Transport.ep_send = sock;
      ep_recv = sock;
      ep_kill =
        (fun () ->
          (* Sever without closing: [ep_close] follows on every crash
             path and owns the fd. *)
          try Unix.shutdown sock Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ());
      (* EOF makes the daemon's read loop return and accept the next
         parent. *)
      ep_close = (fun () -> Transport.close_noerr sock);
    }
  with exn ->
    Transport.close_noerr sock;
    raise (Spawn_failure (Printexc.to_string exn))

let create ?(retries = 2) ?timeout_s ?token addr_list =
  (* A dead worker must surface as EPIPE/ECONNRESET on its socket, not
     kill the parent. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if addr_list = [] then raise (Spawn_failure "empty worker list");
  (* Both ends read the secret from the environment by default (never
     argv). *)
  let token = match token with Some t -> t | None -> env_token () in
  let addrs = Array.of_list addr_list in
  let spawn_at ~connect_timeout_s ~handshake_timeout_s (host, port) =
    endpoint_of_socket ~handshake_timeout_s ~token
      (connect ~timeout_s:connect_timeout_s host port)
  in
  (* Every address gets its attempt: the fleet is unavailable only when
     none answers. A slot that stays empty here is retried by the
     scheduler's deferred-respawn backoff like any crashed worker. *)
  let errors = ref [] in
  let endpoints =
    Array.map
      (fun addr ->
        match spawn_at ~connect_timeout_s:5.0 ~handshake_timeout_s:10.0 addr with
        | ep -> Some ep
        | exception Spawn_failure msg ->
            errors := msg :: !errors;
            None)
      addrs
  in
  if Array.for_all Option.is_none endpoints then
    raise (Spawn_failure (String.concat "; " (List.rev !errors)));
  let respawn slot =
    (* Reconnect to the worker's own address: a [serve_forever] daemon
       accepts the next connection once its previous one died. The
       daemon serves one connection at a time and cannot abort a
       computation whose connection was severed (a --task-timeout kill
       only closes our end), so a reconnect right after a kill usually
       finds it still busy — fail fast on short timeouts and let the
       scheduler's deferred-respawn backoff retry while work remains,
       instead of blocking the dispatch loop for the full
       connect+handshake budget and abandoning the slot. *)
    match
      spawn_at ~connect_timeout_s:1.0 ~handshake_timeout_s:2.0 addrs.(slot)
    with
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
