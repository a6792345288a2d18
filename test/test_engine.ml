(* The execution engine: domain pool determinism, keyed artifact cache
   (memory + disk tiers, schema stamps), and failure containment. *)

open Tiered

(* (a) A representative experiment grid must produce identical reports
   serial (jobs=1) and parallel (jobs=4) — same ids, same tables, same
   rendered bytes. table1 exercises the workload cache from several
   domains at once; fig8 exercises the market cache. *)
let test_parallel_serial_identical () =
  let grid =
    List.map Experiment.find [ "table1"; "fig1"; "fig3"; "fig4"; "fig5"; "fig8" ]
  in
  let serial = Runner.run_experiments ~jobs:1 grid in
  let parallel = Runner.run_experiments ~jobs:4 grid in
  Alcotest.(check (list string))
    "ids in submission order"
    (List.map (fun (r : Runner.result) -> r.Runner.id) serial)
    (List.map (fun (r : Runner.result) -> r.Runner.id) parallel);
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      if a.Runner.tables <> b.Runner.tables then
        Alcotest.failf "experiment %s: parallel tables diverge" a.Runner.id)
    serial parallel;
  Alcotest.(check string)
    "byte-identical rendering" (Runner.render serial) (Runner.render parallel)

(* Plain pool mapping: ordering and the serial fallback. *)
let test_pool_map_order () =
  let input = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int))
        "parallel order" expected
        (Engine.Pool.map pool (fun i -> (i * i) + 1) input));
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (array int))
        "serial fallback" expected
        (Engine.Pool.map pool (fun i -> (i * i) + 1) input))

(* (b) The in-memory tier returns the physically same artifact until an
   explicit invalidate forces a recomputation. *)
let test_cache_physical_equality () =
  let cache = Engine.Cache.create ~name:"test-mem" () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    Array.init 4 float_of_int
  in
  let key = ("eu_isp", 1.1, 20.) in
  let first = Engine.Cache.find_or_add cache ~key compute in
  let second = Engine.Cache.find_or_add cache ~key compute in
  Alcotest.(check bool) "physically equal" true (first == second);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Engine.Cache.stats cache).Engine.Cache.hits;
  Engine.Cache.invalidate cache ~key;
  let third = Engine.Cache.find_or_add cache ~key compute in
  Alcotest.(check int) "recomputed after invalidate" 2 !calls;
  Alcotest.(check bool) "fresh artifact" false (third == first);
  (* A different key never aliases. *)
  let other = Engine.Cache.find_or_add cache ~key:("cdn", 1.1, 20.) compute in
  Alcotest.(check int) "distinct keys computed separately" 3 !calls;
  Alcotest.(check bool) "distinct artifact" false (other == third)

let temp_cache_dir () =
  let f = Filename.temp_file "engine-cache" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

(* Switch the disk tier off and delete its directory (the store is
   flat: objects, references, stamps and the counter file). *)
let drop_cache_dir dir () =
  Engine.Cache.disable_disk ();
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* (c) The disk tier round-trips artifacts across cache instances and
   rejects payloads written under a stale schema version. *)
let test_cache_disk_tier () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:(drop_cache_dir dir) @@ fun () ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    [ ("fit", 42.5); ("gamma", 0.25) ]
  in
  let key = ("market", "internet2", 0.2) in
  let c1 = Engine.Cache.create ~name:"test-disk" ~schema:"v1" () in
  let v1 = Engine.Cache.find_or_add c1 ~key compute in
  Alcotest.(check int) "computed and written" 1 !calls;
  (* A fresh cache (cold memory tier, same schema) loads from disk. *)
  let c2 = Engine.Cache.create ~name:"test-disk" ~schema:"v1" () in
  let v2 = Engine.Cache.find_or_add c2 ~key compute in
  Alcotest.(check int) "disk hit, no recomputation" 1 !calls;
  Alcotest.(check bool) "round-trips structurally" true (v1 = v2);
  Alcotest.(check int)
    "counted as disk hit" 1 (Engine.Cache.stats c2).Engine.Cache.disk_hits;
  (* A bumped schema must reject the stale payload and recompute. *)
  let c3 = Engine.Cache.create ~name:"test-disk" ~schema:"v2" () in
  let _ = Engine.Cache.find_or_add c3 ~key compute in
  Alcotest.(check int) "stale schema rejected" 2 !calls;
  Alcotest.(check int)
    "stale read is a miss" 1 (Engine.Cache.stats c3).Engine.Cache.misses

(* Byte count of the payload files actually on disk — an independent
   check of the engine's own accounting. *)
let scan_payload_bytes dir =
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".bin" then
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* (e) A bounded disk tier never holds more than max_bytes of payload,
   whatever the (randomized) insert sizes; evicted artifacts recompute
   instead of erroring. *)
let test_cache_eviction_respects_budget () =
  let dir = temp_cache_dir () in
  let max_bytes = 4096 in
  Engine.Cache.enable_disk ~max_bytes ~dir ();
  Fun.protect ~finally:(drop_cache_dir dir) @@ fun () ->
  let cache = Engine.Cache.create ~name:"test-evict" ~schema:"v1" () in
  let rng = Random.State.make [| 0xEC41C7 |] in
  let computes = ref 0 in
  let first_n = ref 0 in
  (* 40 artifacts of randomized size (several times the budget in
     total). After every single write the invariant must hold. *)
  for i = 0 to 39 do
    let n = 64 + Random.State.int rng 1024 in
    if i = 0 then first_n := n;
    let (_ : string) =
      Engine.Cache.find_or_add cache ~key:("blob", i, n) (fun () ->
          incr computes;
          String.make n (Char.chr (65 + (i mod 26))))
    in
    let on_disk = scan_payload_bytes dir in
    if on_disk > max_bytes then
      Alcotest.failf "after insert %d: %d payload bytes on disk > budget %d" i
        on_disk max_bytes;
    let accounted = Engine.Cache.disk_usage_bytes () in
    Alcotest.(check int)
      (Printf.sprintf "accounting matches scan after insert %d" i)
      on_disk accounted
  done;
  (match Engine.Cache.disk_stats () with
  | None -> Alcotest.fail "disk tier enabled but disk_stats is None"
  | Some s ->
      Alcotest.(check (option int)) "budget reported" (Some max_bytes)
        s.Engine.Cache.max_bytes;
      Alcotest.(check bool) "bytes within budget" true
        (s.Engine.Cache.bytes <= max_bytes);
      Alcotest.(check bool)
        (Printf.sprintf "evictions happened (%d)" s.Engine.Cache.evictions)
        true
        (s.Engine.Cache.evictions > 0));
  (* The first key was long evicted from disk; with a cold memory tier
     the lookup recomputes rather than raising. *)
  let cold = Engine.Cache.create ~name:"test-evict" ~schema:"v1" () in
  let before = !computes in
  let (_ : string) =
    Engine.Cache.find_or_add cold ~key:("blob", 0, !first_n) (fun () ->
        incr computes;
        "recomputed")
  in
  Alcotest.(check int) "evicted key recomputes cleanly" (before + 1) !computes

(* (f) A truncated/corrupt on-disk payload is a miss, never an error:
   the artifact recomputes and the bad payload is overwritten. *)
let test_cache_truncated_payload_is_miss () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:(drop_cache_dir dir) @@ fun () ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    [ 1.5; 2.5; 3.5 ]
  in
  let key = ("corrupt", 7) in
  let c1 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let _ = Engine.Cache.find_or_add c1 ~key compute in
  Alcotest.(check int) "written once" 1 !calls;
  (* Truncate every payload in place (header survives partially; the
     unmarshal must fail gracefully). *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then begin
        let path = Filename.concat dir name in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (max 1 (size / 2))
      end)
    (Sys.readdir dir);
  let c2 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let v = Engine.Cache.find_or_add c2 ~key compute in
  Alcotest.(check int) "truncated payload recomputed" 2 !calls;
  Alcotest.(check (list (float 1e-9))) "value intact" [ 1.5; 2.5; 3.5 ] v;
  Alcotest.(check int)
    "truncated read is a miss, not an error" 1
    (Engine.Cache.stats c2).Engine.Cache.misses;
  (* Zero-byte payloads (crash during write) behave the same. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then
        Unix.truncate (Filename.concat dir name) 0)
    (Sys.readdir dir);
  let c3 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let _ = Engine.Cache.find_or_add c3 ~key compute in
  Alcotest.(check int) "zero-byte payload recomputed" 3 !calls

(* (g) A synthetic experiment of 100 micro-cells merges identically
   through the Runner at jobs=1/2/8, into the table its rows make. *)
let test_runner_micro_cells () =
  let n = 100 in
  let row i = [ Printf.sprintf "cell%02d" i; string_of_int ((i * 37) mod 101) ] in
  let micro : Experiment.t =
    {
      Experiment.id = "micro100";
      description = "synthetic 100-cell grid";
      cells =
        (fun () ->
          List.init n (fun i ->
              {
                Experiment.label = Printf.sprintf "c%d" i;
                compute = (fun () -> Experiment.Rows [ row i ]);
              }));
      assemble =
        (fun outputs ->
          let rows =
            List.concat_map
              (function
                | Experiment.Rows rows -> rows
                | Experiment.Tables _ -> Alcotest.fail "unexpected Tables")
              outputs
          in
          [ Report.make ~title:"micro" ~header:[ "cell"; "value" ] rows ]);
    }
  in
  let render jobs = Runner.render (Runner.run_experiments ~jobs [ micro ]) in
  let r1 = render 1 in
  Alcotest.(check bool)
    "serial cells = the table built directly" true
    (Experiment.run_cells micro
    = [ Report.make ~title:"micro" ~header:[ "cell"; "value" ] (List.init n row) ]);
  Alcotest.(check string) "jobs=2 merges identically" r1 (render 2);
  Alcotest.(check string) "jobs=8 merges identically" r1 (render 8)

(* (d) A raising task is reported (deterministically: lowest failing
   index) without deadlocking the queue; the pool stays usable. *)
let test_pool_survives_exception () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Engine.Pool.map pool
           (fun i -> if i mod 5 = 3 then failwith "boom" else i)
           (Array.init 16 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; backtrace } ->
          Alcotest.(check int) "lowest failing index" 3 index;
          Alcotest.(check string) "original exception" "boom"
            (match exn with Failure m -> m | _ -> Printexc.to_string exn);
          (* Worker domains enable backtrace recording (per-domain
             state, off by default in fresh domains): a failure report
             without a backtrace is a debugging dead end. *)
          Alcotest.(check bool) "non-empty backtrace" true
            (String.length (String.trim backtrace) > 0));
      (* The queue drained; the same pool still schedules new work. *)
      let again =
        Engine.Pool.map pool (fun i -> i + 1) (Array.init 8 (fun i -> i))
      in
      Alcotest.(check (array int))
        "pool alive after failure"
        (Array.init 8 (fun i -> i + 1))
        again)

(* (h) Eviction accounting: a payload that cannot be removed must not
   count as freed bytes, or the tier is left over budget whenever an
   eviction loses a race (or hits a permission error). Simulated via
   the Private remove hook — filesystem permissions are useless for
   this when tests run as root. *)
let test_eviction_skips_unremovable () =
  let dir = temp_cache_dir () in
  (* Calibrate the payload file size with an unbounded tier first. *)
  Engine.Cache.enable_disk ~dir ();
  let finally () =
    Engine.Cache.Private.set_remove_hook None;
    drop_cache_dir dir ()
  in
  Fun.protect ~finally @@ fun () ->
  let cache = Engine.Cache.create ~name:"test-unremovable" ~schema:"v1" () in
  let payload i = String.make 512 (Char.chr (65 + i)) in
  let add i =
    ignore (Engine.Cache.find_or_add cache ~key:("pin", i) (fun () -> payload i))
  in
  add 0;
  let s = scan_payload_bytes dir in
  Alcotest.(check bool) "payload written" true (s > 0);
  (* Re-enable with a 2-payload budget; make payload 0 unremovable.
     Objects are content-addressed, so the pinned file is named by the
     digest of payload 0's bytes, not by its key. *)
  Engine.Cache.enable_disk ~max_bytes:(2 * s) ~dir ();
  let pinned = Engine.Cache.Private.payload_digest cache (payload 0) in
  Engine.Cache.Private.set_remove_hook
    (Some
       (fun path ->
         if Filename.basename path = Engine.Cas.object_name pinned then
           raise (Sys_error (path ^ ": simulated unremovable payload"))
         else Sys.remove path));
  for i = 1 to 3 do
    add i;
    let on_disk = scan_payload_bytes dir in
    (* The buggy accounting subtracted the pinned payload's size
       despite the failed removal and stopped evicting early, leaving
       3 payloads (> budget) on disk after insert 2. *)
    if on_disk > 2 * s then
      Alcotest.failf
        "after insert %d: %d payload bytes on disk > budget %d (failed \
         removal was counted as freed)"
        i on_disk (2 * s)
  done;
  (* The unremovable payload itself was skipped, never deleted: it
     still disk-hits from a cold memory tier. *)
  let cold = Engine.Cache.create ~name:"test-unremovable" ~schema:"v1" () in
  let v = Engine.Cache.find_or_add cold ~key:("pin", 0) (fun () -> "MISS") in
  Alcotest.(check string) "pinned payload survived" (payload 0) v;
  (match Engine.Cache.disk_stats () with
  | None -> Alcotest.fail "disk tier enabled but disk_stats is None"
  | Some st ->
      Alcotest.(check bool)
        (Printf.sprintf "only real removals counted (%d)"
           st.Engine.Cache.evictions)
        true
        (st.Engine.Cache.evictions >= 1))

(* (i) LRU recency: a disk hit must protect a payload from eviction
   even when it lands in the same second as every write. The old
   mtime-based stamp (whole seconds under OCaml's Unix.stat) could not
   see the hit, and the name tie-break then deterministically evicted
   the hot payload. Keys are ordered so the hot payload sorts first by
   file name — the exact case the mtime scheme got wrong. *)
let test_lru_same_second_hit_survives () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:(drop_cache_dir dir) @@ fun () ->
  (* Pick the key whose digest (hence payload file name) is smaller as
     the hot one: under a same-second mtime tie the old scheme evicted
     the lexicographically first file, i.e. precisely this payload. *)
  let k0 = ("lru", 0) and k1 = ("lru", 1) in
  let hot, cold_key =
    if String.compare (Engine.Cache.key_digest k0) (Engine.Cache.key_digest k1) < 0
    then (k0, k1)
    else (k1, k0)
  in
  let computes = ref 0 in
  let value tag = tag ^ String.make 256 'x' in
  let add cache key tag =
    Engine.Cache.find_or_add cache ~key (fun () ->
        incr computes;
        value tag)
  in
  let c1 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  ignore (add c1 hot "hot");
  let s = scan_payload_bytes dir in
  ignore (add c1 cold_key "cold");
  Alcotest.(check int) "both computed" 2 !computes;
  (* Disk-hit the hot payload through a fresh cache (cold memory
     tier) — this refreshes its recency stamp, same second or not. *)
  let c2 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  Alcotest.(check string) "hot disk hit" (value "hot") (add c2 hot "hot");
  Alcotest.(check int) "hit did not recompute" 2 !computes;
  (* Now bound the tier at two payloads and write a third: the
     least-recently-used payload is the un-hit one, not the hot one. *)
  Engine.Cache.enable_disk ~max_bytes:(2 * s) ~dir ();
  ignore (add c2 ("lru", 2) "new");
  Alcotest.(check int) "third computed" 3 !computes;
  let c3 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  Alcotest.(check string)
    "hot payload survived the eviction" (value "hot") (add c3 hot "hot");
  Alcotest.(check int) "hot still served from disk" 3 !computes;
  let c4 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  ignore (add c4 cold_key "cold");
  Alcotest.(check int) "un-hit payload was the one evicted" 4 !computes

(* (j) The serial fast path of a multi-worker pool books its time to a
   distinct caller slot: tiny maps must not skew worker slot 0 (and
   with it the max/mean load-balance statistic). *)
let test_caller_slot_not_worker_zero () =
  let spin_ms x =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.01 do
      ()
    done;
    x
  in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      (* A 1-task map takes the serial fast path on the caller. *)
      ignore (Engine.Pool.map pool spin_ms [| 1 |]);
      let busy = Engine.Pool.busy_times pool in
      Alcotest.(check int) "one slot per worker" 4 (Array.length busy);
      Array.iteri
        (fun i b ->
          if b > 0. then
            Alcotest.failf
              "worker slot %d booked %.6fs for a serial fast-path map" i b)
        busy);
  (* A pool without workers reports the single caller slot instead. *)
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Engine.Pool.map pool spin_ms [| 1 |]);
      let busy = Engine.Pool.busy_times pool in
      Alcotest.(check int) "single caller slot" 1 (Array.length busy);
      Alcotest.(check bool) "caller time booked" true (busy.(0) > 0.))

(* --- subprocess backend ---------------------------------------------------- *)

(* The procs tests require the backend to actually come up (this test
   binary re-invokes itself with --engine-worker; Test_main calls
   Proc.maybe_run_worker first). A degraded pool would make the
   self-kill tasks below kill the test process, so assert loudly. *)
let require_procs pool =
  if Engine.Pool.backend pool <> Engine.Pool.Procs then
    Alcotest.fail
      "subprocess backend unavailable (spawn failed); cannot run this test"

(* (k) Byte-identity across substrates: the same grid rendered through
   worker subprocesses equals the serial rendering exactly. *)
let test_proc_backend_identical () =
  let grid = List.map Experiment.find [ "table1"; "fig8" ] in
  let serial = Runner.render (Runner.run_experiments ~jobs:1 grid) in
  let procs =
    Runner.render
      (Runner.run_experiments ~backend:Engine.Pool.Procs ~jobs:2 grid)
  in
  Alcotest.(check string) "procs rendering byte-identical" serial procs

(* (l) Fault injection: SIGKILL a worker mid-map. The in-flight task
   must be retried on a surviving/replacement worker, the results must
   be byte-identical to an undisturbed run, and the pool must report
   the restart. *)
let test_proc_worker_kill_recovers () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Procs ~jobs:2 ~retries:2
    (fun pool ->
      require_procs pool;
      let sentinel = Filename.temp_file "engine-kill" ".sentinel" in
      Sys.remove sentinel;
      Fun.protect ~finally:(fun () ->
          try Sys.remove sentinel with Sys_error _ -> ())
      @@ fun () ->
      let f i =
        if i = 3 && not (Sys.file_exists sentinel) then begin
          (* First attempt only: leave a marker, then die like a
             segfault would — no cleanup, no exit handlers. *)
          let oc = open_out sentinel in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        i * 2
      in
      let out = Engine.Pool.map pool f (Array.init 8 (fun i -> i)) in
      Alcotest.(check (array int))
        "results identical despite the crash"
        (Array.init 8 (fun i -> i * 2))
        out;
      Alcotest.(check bool)
        (Printf.sprintf "restart recorded (%d)" (Engine.Pool.restarts pool))
        true
        (Engine.Pool.restarts pool >= 1);
      (* The pool keeps working after recovery. *)
      let again = Engine.Pool.map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool alive after crash" [| 2; 3; 4 |] again)

(* (m) Retry exhaustion: a task that kills its worker on every attempt
   fails deterministically with Worker_lost after retries are spent —
   it must not hang the map or poison the other tasks. *)
let test_proc_retry_exhaustion () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Procs ~jobs:2 ~retries:1
    (fun pool ->
      require_procs pool;
      let f i =
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i + 10
      in
      match Engine.Pool.map pool f [| 0; 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; _ } -> (
          Alcotest.(check int) "deterministic failing index" 1 index;
          match exn with
          | Engine.Proc.Worker_lost { attempts; _ } ->
              Alcotest.(check int) "retries=1 means two attempts" 2 attempts
          | other ->
              Alcotest.failf "expected Worker_lost, got %s"
                (Printexc.to_string other)))

(* (n) A task exception inside a worker is a failure report, not a
   crash: no retry, surfaced as Remote_failure with the printed
   exception. *)
let test_proc_remote_failure () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Procs ~jobs:2 ~retries:2
    (fun pool ->
      require_procs pool;
      match
        Engine.Pool.map pool
          (fun i -> if i = 2 then failwith "remote boom" else i)
          [| 0; 1; 2; 3 |]
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; _ } -> (
          Alcotest.(check int) "failing index" 2 index;
          Alcotest.(check int) "a raising task is not a worker loss" 0
            (Engine.Pool.restarts pool);
          match exn with
          | Engine.Proc.Remote_failure { message } ->
              Alcotest.(check bool)
                (Printf.sprintf "printed exception carried over (%s)" message)
                true
                (String.length message > 0
                && String.equal message (Printexc.to_string (Failure "remote boom")))
          | other ->
              Alcotest.failf "expected Remote_failure, got %s"
                (Printexc.to_string other)))

(* (o) Per-task timeout: a wedged worker is killed and replaced, and
   the task retried; the map completes instead of hanging. *)
let test_proc_timeout_replaces_wedged_worker () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Procs ~jobs:1 ~retries:2
    ~timeout_s:0.5 (fun pool ->
      require_procs pool;
      let sentinel = Filename.temp_file "engine-wedge" ".sentinel" in
      Sys.remove sentinel;
      Fun.protect ~finally:(fun () ->
          try Sys.remove sentinel with Sys_error _ -> ())
      @@ fun () ->
      let f i =
        if i = 0 && not (Sys.file_exists sentinel) then begin
          let oc = open_out sentinel in
          close_out oc;
          (* Wedge far beyond the timeout; only SIGKILL gets us out. *)
          Unix.sleep 30
        end;
        i + 100
      in
      let t0 = Unix.gettimeofday () in
      let out = Engine.Pool.map pool f [| 0; 1 |] in
      let wall = Unix.gettimeofday () -. t0 in
      Alcotest.(check (array int)) "wedged task retried" [| 100; 101 |] out;
      Alcotest.(check bool)
        (Printf.sprintf "timeout enforced, no 30s hang (%.2fs)" wall)
        true (wall < 10.);
      Alcotest.(check bool) "wedged worker replaced" true
        (Engine.Pool.restarts pool >= 1))

(* (p) The CAS side-channel: a worker that misses an artifact fetches
   it from the parent's store by digest over its task pipes. The
   parent store is pre-seeded with the marshalled payload; the task's
   compute function raises, so only a successful fetch can produce the
   value. *)
let with_proc f =
  let p = Engine.Proc.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Engine.Proc.shutdown p) (fun () -> f p)

let test_proc_cas_fetch () =
  with_proc @@ fun p ->
  let cache = Engine.Cache.create ~name:"test-proc-cas" ~schema:"v1" () in
  let payload =
    Engine.Cache.Private.payload_of_value cache "fetched-over-pipes"
  in
  Engine.Transport.Store.put (Engine.Proc.store p) ~cache:"test-proc-cas"
    ~key_digest:(Engine.Cache.key_digest ("artifact", 7))
    ~payload;
  let out =
    Engine.Proc.map p
      (fun () ->
        let c = Engine.Cache.create ~name:"test-proc-cas" ~schema:"v1" () in
        Engine.Cache.find_or_add c ~key:("artifact", 7) (fun () ->
            failwith "compute ran: the parent store did not serve the artifact"))
      [| () |]
  in
  match out.(0) with
  | Ok v ->
      Alcotest.(check string) "artifact served by digest" "fetched-over-pipes" v
  | Error (exn, _) -> Alcotest.failf "fetch failed: %s" (Printexc.to_string exn)

(* (q) The publish direction: with no disk tier in the parent, a
   worker's computed artifact lands in the parent's in-memory store
   under the cache name and key digest. *)
let test_proc_cas_publish () =
  with_proc @@ fun p ->
  let out =
    Engine.Proc.map p
      (fun () ->
        let c = Engine.Cache.create ~name:"test-proc-pub" ~schema:"v1" () in
        Engine.Cache.find_or_add c ~key:("published", 1) (fun () ->
            "made-in-worker"))
      [| () |]
  in
  (match out.(0) with
  | Ok v -> Alcotest.(check string) "task result" "made-in-worker" v
  | Error (exn, _) -> Alcotest.failf "task failed: %s" (Printexc.to_string exn));
  match
    Engine.Transport.Store.get (Engine.Proc.store p) ~cache:"test-proc-pub"
      ~key_digest:(Engine.Cache.key_digest ("published", 1))
  with
  | None -> Alcotest.fail "worker artifact was not published to the parent"
  | Some payload ->
      Alcotest.(check bool) "published payload is non-empty" true
        (String.length payload > 0)

(* (q') Only the parent touches the disk tier: a worker spawned while
   the parent's tier is on has none of its own, and what it computes
   still lands in the parent's store through the publish frame. *)
let test_proc_workers_leave_disk_to_parent () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:(drop_cache_dir dir) @@ fun () ->
  with_proc @@ fun p ->
  let out =
    Engine.Proc.map p
      (fun () ->
        let c = Engine.Cache.create ~name:"test-proc-disk" ~schema:"v1" () in
        let v = Engine.Cache.find_or_add c ~key:("disk", 1) (fun () -> 42) in
        (Engine.Cache.disk_dir (), v))
      [| () |]
  in
  (match out.(0) with
  | Ok (worker_dir, v) ->
      Alcotest.(check (option string)) "worker has no disk tier" None worker_dir;
      Alcotest.(check int) "task result" 42 v
  | Error (exn, _) -> Alcotest.failf "task failed: %s" (Printexc.to_string exn));
  Alcotest.(check bool) "the parent stored the worker's artifact" true
    (Option.is_some
       (Engine.Cache.raw_payload ~cache:"test-proc-disk"
          ~key_digest:(Engine.Cache.key_digest ("disk", 1))))

(* (r) Exactly once unless a worker is lost: with no crash, a task
   slower than any scheduling age gate still runs once, even while the
   other worker sits idle. Each execution appends its index to a log
   file before doing its work. *)
let test_proc_exactly_once () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Procs ~jobs:2 (fun pool ->
      require_procs pool;
      let log = Filename.temp_file "engine-once" ".log" in
      Fun.protect ~finally:(fun () ->
          try Sys.remove log with Sys_error _ -> ())
      @@ fun () ->
      let f i =
        let oc = open_out_gen [ Open_append; Open_wronly ] 0o600 log in
        Printf.fprintf oc "%d\n" i;
        close_out oc;
        if i = 0 then Unix.sleepf 1.2;
        i
      in
      let out = Engine.Pool.map pool f [| 0; 1 |] in
      Alcotest.(check (array int)) "results" [| 0; 1 |] out;
      let runs =
        In_channel.with_open_text log In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> not (String.equal l ""))
        |> List.sort String.compare
      in
      Alcotest.(check (list string)) "each task ran once" [ "0"; "1" ] runs;
      Alcotest.(check int) "no worker lost" 0 (Engine.Pool.restarts pool))

let suite =
  [
    Alcotest.test_case "parallel = serial on an experiment grid" `Slow
      test_parallel_serial_identical;
    Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "cache memory tier: physical equality + invalidate"
      `Quick test_cache_physical_equality;
    Alcotest.test_case "cache disk tier: round-trip + schema stamp" `Quick
      test_cache_disk_tier;
    Alcotest.test_case "cache disk tier: eviction respects max_bytes" `Quick
      test_cache_eviction_respects_budget;
    Alcotest.test_case "cache disk tier: truncated payload is a miss" `Quick
      test_cache_truncated_payload_is_miss;
    Alcotest.test_case "runner: 100 micro-cells merge identically" `Quick
      test_runner_micro_cells;
    Alcotest.test_case "pool survives raising tasks" `Quick
      test_pool_survives_exception;
    Alcotest.test_case "cache eviction skips unremovable payloads" `Quick
      test_eviction_skips_unremovable;
    Alcotest.test_case "cache LRU: same-second disk hit protects a payload"
      `Quick test_lru_same_second_hit_survives;
    Alcotest.test_case "pool serial fast path books a caller slot" `Quick
      test_caller_slot_not_worker_zero;
    Alcotest.test_case "procs backend renders byte-identically" `Slow
      test_proc_backend_identical;
    Alcotest.test_case "procs backend recovers from a killed worker" `Quick
      test_proc_worker_kill_recovers;
    Alcotest.test_case "procs backend exhausts retries deterministically"
      `Quick test_proc_retry_exhaustion;
    Alcotest.test_case "procs backend reports task exceptions remotely" `Quick
      test_proc_remote_failure;
    Alcotest.test_case "procs backend times out a wedged worker" `Quick
      test_proc_timeout_replaces_wedged_worker;
    Alcotest.test_case "workers fetch artifacts from the parent store" `Quick
      test_proc_cas_fetch;
    Alcotest.test_case "workers publish artifacts to the parent store" `Quick
      test_proc_cas_publish;
    Alcotest.test_case "procs backend runs each task exactly once" `Quick
      test_proc_exactly_once;
    Alcotest.test_case "workers leave the disk tier to the parent" `Quick
      test_proc_workers_leave_disk_to_parent;
  ]
