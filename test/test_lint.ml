(* The lint linting itself: compiled fixture snippets per rule
   (positive + negative, each at the repo path whose scoping it
   exercises; see {!Lint_fixture}), suppression-comment honoring over
   synthesized findings, and the JSON-reporter schema.

   Note on fixtures: suppression markers inside these string literals
   are visible to the *repo* lint too (its suppression scanner is
   textual), so well-formed fixture suppressions use the ASCII '-'
   separator (they are harmless no-ops at test_lint.ml's own scope)
   and malformed ones are assembled by concatenation so the marker
   never appears contiguously in this file. *)

let lines = String.concat "\n"

(* How many [rule] findings the typed pass raises on one compiled
   snippet at [file]. *)
let check_rule ~file contents rule expected () =
  let found =
    Lint_fixture.findings [ (file, contents) ]
    |> List.filter (fun (f : Analysis.Finding.t) ->
           f.Analysis.Finding.rule = rule && f.Analysis.Finding.file = file)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s findings for %s in %s" rule file contents)
    expected (List.length found)

(* --- one positive + one negative fixture per rule ------------------------- *)

let d001 () =
  check_rule ~file:"lib/fake/mod.ml" "let f () = print_endline \"x\"" "D001" 1
    ();
  check_rule ~file:"lib/fake/mod.ml" "let f () = Printf.printf \"%d\" 1" "D001"
    1 ();
  (* stderr and caller-supplied formatters are fine; bin/ owns stdout *)
  check_rule ~file:"lib/fake/mod.ml"
    "let f ppf = Format.fprintf ppf \"x\"; Printf.eprintf \"y\"" "D001" 0 ();
  check_rule ~file:"bin/fake.ml" "let f () = print_endline \"x\"" "D001" 0 ()

let d002 () =
  check_rule ~file:"lib/fake/mod.ml"
    "let f h = Hashtbl.fold (fun k v a -> (k, v) :: a) h []" "D002" 1 ();
  check_rule ~file:"lib/fake/mod.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h" "D002" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let f h = Tbl.sorted_bindings h" "D002" 0
    ();
  (* point lookups are order-free *)
  check_rule ~file:"lib/fake/mod.ml" "let f h k = Hashtbl.find_opt h k" "D002"
    0 ();
  check_rule ~file:"test/fake.ml" "let f h = Hashtbl.iter (fun _ _ -> ()) h"
    "D002" 0 ()

let d003 () =
  check_rule ~file:"lib/core/capture.ml" "let t () = Unix.gettimeofday ()"
    "D003" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let s () = Random.self_init ()" "D003" 1
    ();
  (* the engine and the runner book wall time legitimately *)
  check_rule ~file:"lib/engine/pool.ml" "let t () = Unix.gettimeofday ()"
    "D003" 0 ();
  check_rule ~file:"lib/core/runner.ml" "let t () = Sys.time ()" "D003" 0 ()

let d003_serve () =
  (* The streaming service's determinism hinges on injected time: the
     daemon must not be able to grow a wall-clock (or self-seeded
     randomness) dependency without tripping the lint. bin/ injects the
     real clock and stays exempt. *)
  check_rule ~file:"lib/serve/daemon.ml" "let t () = Unix.gettimeofday ()"
    "D003" 1 ();
  check_rule ~file:"lib/serve/window.ml" "let t () = Unix.time ()" "D003" 1 ();
  check_rule ~file:"lib/serve/retier.ml" "let s () = Random.self_init ()"
    "D003" 1 ();
  check_rule ~file:"lib/serve/clock.ml" "let t () = Sys.time ()" "D003" 1 ();
  (* the sanctioned shape: a clock value threaded in from outside *)
  check_rule ~file:"lib/serve/daemon.ml"
    "let run ~clock () = Clock.now clock" "D003" 0 ();
  check_rule ~file:"bin/tiered_cli.ml"
    "let clock = Serve.Clock.of_fn Unix.gettimeofday" "D003" 0 ()

let d003_idents () =
  (* the long tail of clock/entropy reads: process CPU clocks and
     self-seeded explicit Random states are just as nondeterministic *)
  check_rule ~file:"lib/fake/mod.ml"
    "let s () = Random.State.make_self_init ()" "D003" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let t () = Unix.times ()" "D003" 1 ();
  (* Sys.time is the stdlib's process CPU clock *)
  check_rule ~file:"lib/fake/mod.ml" "let t () = Sys.time ()" "D003" 1 ();
  (* an explicitly-seeded state is the sanctioned shape *)
  check_rule ~file:"lib/fake/mod.ml"
    "let s seed = Random.State.make [| seed |]" "D003" 0 ();
  (* engine plumbing and bin/ keep their exemption *)
  check_rule ~file:"lib/engine/pool.ml" "let t () = Sys.time ()" "D003" 0
    ();
  check_rule ~file:"bin/fake.ml" "let s () = Random.State.make_self_init ()"
    "D003" 0 ()

let d004 () =
  check_rule ~file:"lib/fake/mod.ml" "let f a b = a == b" "D004" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let f a b = a != b" "D004" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let f a b = a = b || a <> b" "D004" 0 ();
  check_rule ~file:"test/fake.ml" "let f a b = a == b" "D004" 0 ()

let d004_kernel () =
  (* The DP kernel is exactly where a physical-equality shortcut on a
     cached row looks tempting and silently breaks the cut-for-cut
     contract (two structurally equal prev rows are NOT the same
     box after a refill). Pin the rule on the kernel files. *)
  check_rule ~file:"lib/numerics/segdp.ml"
    "let warm prev cached = if prev == cached then reuse () else refill ()"
    "D004" 1 ();
  check_rule ~file:"lib/numerics/segdp.ml"
    "let dirty prev cached = prev != cached" "D004" 1 ();
  (* structural comparison of the retained state is the sanctioned fix *)
  check_rule ~file:"lib/numerics/segdp.ml"
    "let warm prev cached = if prev = cached then reuse () else refill ()"
    "D004" 0 ();
  check_rule ~file:"lib/core/strategy.ml"
    "let same_regions a b = a == b" "D004" 1 ()

let d005 () =
  check_rule ~file:"lib/fake/mod.ml"
    "let f xs = Array.sort (fun a b -> compare a b) xs" "D005" 1 ();
  check_rule ~file:"lib/fake/mod.ml"
    "let f xs = List.sort_uniq Stdlib.compare xs" "D005" 1 ();
  (* passing the bare comparator is just as representational *)
  check_rule ~file:"lib/fake/mod.ml" "let c = compare" "D005" 1 ();
  (* monomorphic / module-qualified comparators are the fix *)
  check_rule ~file:"lib/fake/mod.ml"
    "let f xs = Array.sort Float.compare xs; List.sort Int.compare []" "D005" 0
    ();
  check_rule ~file:"lib/fake/mod.ml"
    "let f a b = match String.compare a b with 0 -> Finding.compare a b | c -> c"
    "D005" 0 ();
  (* lib/-scoped, like the other determinism rules *)
  check_rule ~file:"test/fake.ml" "let f xs = List.sort compare xs" "D005" 0 ();
  check_rule ~file:"bin/fake.ml" "let f xs = List.sort compare xs" "D005" 0 ()

let d005_kernel () =
  (* Region boundaries are sorted ints and candidate values are floats;
     a bare polymorphic compare on either would walk the representation
     (and NaN-order surprises in the float case). The kernel files must
     stay on monomorphic comparators. *)
  check_rule ~file:"lib/core/strategy.ml"
    "let region_starts = List.sort_uniq compare (0 :: starts)" "D005" 1 ();
  check_rule ~file:"lib/numerics/segdp.ml"
    "let order vs = Array.sort (fun a b -> compare b a) vs" "D005" 1 ();
  check_rule ~file:"lib/core/strategy.ml"
    "let region_starts = List.sort_uniq Int.compare (0 :: starts)" "D005" 0 ();
  check_rule ~file:"lib/numerics/segdp.ml"
    "let order vs = Array.sort (fun a b -> Float.compare b a) vs" "D005" 0 ()

let h001 () =
  check_rule ~file:"lib/fake/mod.ml" "let f () = exit 1" "H001" 1 ();
  check_rule ~file:"lib/engine/proc.ml" "let f () = exit 0" "H001" 0 ();
  check_rule ~file:"lib/fake/mod.ml" "let f () = raise Exit" "H001" 0 ();
  check_rule ~file:"bin/fake.ml" "let f () = exit 2" "H001" 0 ()

let h002 () =
  check_rule ~file:"lib/fake/mod.ml" "let s v flags = Marshal.to_string v flags"
    "H002" 1 ();
  (* a bare Marshal.to_* passed around hides the flags decision too *)
  check_rule ~file:"lib/fake/mod.ml" "let s = Marshal.to_string" "H002" 1 ();
  check_rule ~file:"lib/fake/mod.ml" "let s v = Marshal.to_string v []" "H002"
    0 ();
  check_rule ~file:"lib/fake/mod.ml"
    "let s v = Marshal.to_string v [ Marshal.Closures ]" "H002" 0 ();
  (* H002 applies outside lib/ as well *)
  check_rule ~file:"test/fake.ml" "let s v flags = Marshal.to_bytes v flags"
    "H002" 1 ()

(* --- resolved names: what a parser alone cannot see -------------------- *)

let d003_open () =
  (* `open Unix` hides the module at the call site, not in the path *)
  check_rule ~file:"lib/fake/mod.ml"
    (lines [ "open Unix"; "let t () = gettimeofday ()" ])
    "D003" 1 ()

let d002_alias () =
  check_rule ~file:"lib/fake/mod.ml"
    (lines [ "module H = Hashtbl"; "let f h = H.iter (fun _ _ -> ()) h" ])
    "D002" 1 ()

let d005_local () =
  (* a local binding named compare is not Stdlib.compare *)
  check_rule ~file:"lib/fake/mod.ml"
    (lines [ "let compare = Int.compare"; "let f xs = List.sort compare xs" ])
    "D005" 0 ()

let h003 () =
  let findings =
    Analysis.Rules.missing_interfaces
      ~files:
        [ "lib/a/x.ml"; "lib/a/x.mli"; "lib/a/y.ml"; "bin/z.ml"; "test/t.ml" ]
  in
  Alcotest.(check (list string))
    "only the unpaired lib module"
    [ "lib/a/y.ml" ]
    (List.map (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.file) findings);
  List.iter
    (fun (f : Analysis.Finding.t) ->
      Alcotest.(check string) "rule id" "H003" f.Analysis.Finding.rule)
    findings

(* --- suppression honoring ------------------------------------------------- *)

(* Classification alone, over one synthesized finding: the statuses
   [rule] ends up with in a lib/fake/mod.ml holding [contents]. *)
let statuses_of ?line contents rule =
  let file = "lib/fake/mod.ml" in
  let findings =
    match line with
    | Some line -> [ Analysis.Finding.v ~rule ~file ~line ~col:0 "fixture" ]
    | None -> []
  in
  Analysis.Lint.classify [ (file, contents) ] findings
  |> List.filter_map (fun ((f : Analysis.Finding.t), status) ->
         if f.Analysis.Finding.rule = rule then Some status else None)

let suppression_honored () =
  let fixture =
    lines
      [
        "(* lint: allow D002 - fixture: order is erased downstream *)";
        "let f h = Hashtbl.fold (fun k v a -> (k, v) :: a) h []";
      ]
  in
  (match statuses_of ~line:2 fixture "D002" with
  | [ Analysis.Finding.Suppressed ] -> ()
  | _ -> Alcotest.fail "comment-above suppression should mark Suppressed");
  (* same-line form *)
  let same_line =
    "let f h = Hashtbl.iter ignore h (* lint: allow D002 - fixture *)"
  in
  (match statuses_of ~line:1 same_line "D002" with
  | [ Analysis.Finding.Suppressed ] -> ()
  | _ -> Alcotest.fail "same-line suppression should mark Suppressed");
  (* a suppression for a different rule must not silence D002 *)
  let wrong_rule =
    lines
      [
        "(* lint: allow D001 - fixture: wrong rule on purpose *)";
        "let f h = Hashtbl.iter ignore h";
      ]
  in
  (match statuses_of ~line:2 wrong_rule "D002" with
  | [ Analysis.Finding.Active ] -> ()
  | _ -> Alcotest.fail "unrelated suppression must leave the finding Active");
  (* coverage is tight: two lines below the comment is out of range *)
  let too_far =
    lines
      [
        "(* lint: allow D002 - fixture: too far above *)";
        "let g = 1";
        "let f h = Hashtbl.iter ignore h";
      ]
  in
  match statuses_of ~line:3 too_far "D002" with
  | [ Analysis.Finding.Active ] -> ()
  | _ -> Alcotest.fail "suppression must not reach two lines down"

let suppression_block () =
  (* One marker covers the whole binding that follows the comment
     close, however many lines it spans; coverage stops at the next
     same-or-outer-indentation binding keyword. *)
  let multi_line =
    lines
      [
        "(* lint: allow D002 - fixture: whole binding is covered *)";
        "let f h =";
        "  let acc = ref [] in";
        "  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) h;";
        "  !acc";
      ]
  in
  (match statuses_of ~line:4 multi_line "D002" with
  | [ Analysis.Finding.Suppressed ] -> ()
  | _ -> Alcotest.fail "line 4 of the covered binding should be Suppressed");
  (* the next top-level binding is outside the block *)
  let next_binding =
    lines
      [
        "(* lint: allow D002 - fixture: only the first binding *)";
        "let f h =";
        "  Hashtbl.length h";
        "let g h = Hashtbl.iter ignore h";
      ]
  in
  (match statuses_of ~line:4 next_binding "D002" with
  | [ Analysis.Finding.Active ] -> ()
  | _ -> Alcotest.fail "the binding after the covered one must stay Active");
  (* multi-line comment: the block starts after the comment close *)
  let spanning_comment =
    lines
      [
        "(* lint: allow D002 - fixture: a justification long enough";
        "   to spill onto a second comment line *)";
        "let f h =";
        "  Hashtbl.fold (fun k v a -> (k, v) :: a) h []";
      ]
  in
  match statuses_of ~line:4 spanning_comment "D002" with
  | [ Analysis.Finding.Suppressed ] -> ()
  | _ -> Alcotest.fail "coverage must start at the comment close, not its open"

let suppression_malformed () =
  (* Assembled by concatenation so the repo lint does not read this
     test's own source as containing a malformed marker. *)
  let missing_ids = "(* lint" ^ ": allow - no rule ids here *)\nlet x = 1" in
  (match statuses_of missing_ids "S001" with
  | [ Analysis.Finding.Active ] -> ()
  | other ->
      Alcotest.failf "missing ids: expected one active S001, got %d"
        (List.length other));
  let missing_reason =
    "(* lint" ^ ": allow D002 *)\nlet f h = Hashtbl.iter ignore h"
  in
  (match statuses_of missing_reason "S001" with
  | [ Analysis.Finding.Active ] -> ()
  | other ->
      Alcotest.failf "missing reason: expected one active S001, got %d"
        (List.length other));
  (* ... and a malformed suppression suppresses nothing *)
  match statuses_of ~line:2 missing_reason "D002" with
  | [ Analysis.Finding.Active ] -> ()
  | _ -> Alcotest.fail "malformed suppression must not silence the finding"

(* --- JSON reporter schema -------------------------------------------------- *)

let json_schema () =
  let reported =
    Analysis.Lint.classify
      [
        ("lib/fake/mod.ml", "let f () = print_endline \"x\"");
        ("lib/fake/mod.mli", "val f : unit -> unit");
        ("lib/fake/clean.ml", "let ok = 42");
        ("lib/fake/clean.mli", "val ok : int");
      ]
      [
        Analysis.Finding.v ~rule:"D001" ~file:"lib/fake/mod.ml" ~line:1
          ~col:11 "fixture";
      ]
  in
  let rendered = Analysis.Json.to_string (Analysis.Reporter.json reported) in
  let json =
    match Analysis.Json.of_string rendered with
    | Ok j -> j
    | Error msg -> Alcotest.failf "report does not re-parse: %s" msg
  in
  let field name j =
    match Analysis.Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "missing %S field" name
  in
  Alcotest.(check (option int))
    "version" (Some 2)
    (Analysis.Json.to_int (field "version" json));
  Alcotest.(check (option string))
    "tool" (Some "tiered-lint")
    (Analysis.Json.to_str (field "tool" json));
  let findings =
    match Analysis.Json.to_list (field "findings" json) with
    | Some l -> l
    | None -> Alcotest.fail "findings must be a list"
  in
  Alcotest.(check bool) "at least one finding" true (findings <> []);
  List.iter
    (fun f ->
      List.iter
        (fun key -> ignore (field key f))
        [ "rule"; "file"; "line"; "col"; "message"; "status" ];
      match Analysis.Json.to_str (field "status" f) with
      | Some ("active" | "suppressed") -> ()
      | _ -> Alcotest.fail "status must be a known enum value")
    findings;
  let summary = field "summary" json in
  List.iter
    (fun key ->
      match Analysis.Json.to_int (field key summary) with
      | Some n when n >= 0 -> ()
      | _ -> Alcotest.failf "summary.%s must be a non-negative int" key)
    [ "active"; "suppressed" ];
  (* count consistency: summary.active equals the active findings *)
  Alcotest.(check (option int))
    "summary.active consistent"
    (Some (List.length (Analysis.Lint.active reported)))
    (Analysis.Json.to_int (field "active" summary))

let catalog_closed () =
  (* Every rule id the checker can emit is documented in the catalog. *)
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " catalogued") true (Analysis.Rules.known id))
    [
      "D001"; "D002"; "D003"; "D004"; "D005"; "H001"; "H002"; "H003"; "S001";
      "T001"; "T002"; "T003"; "E002";
    ];
  (* parse failures stop the build before lint runs *)
  Alcotest.(check bool) "E001 retired" false (Analysis.Rules.known "E001")

let suite =
  [
    Alcotest.test_case "D001 stdout writes" `Quick d001;
    Alcotest.test_case "D002 raw Hashtbl traversal" `Quick d002;
    Alcotest.test_case "D003 clock/randomness whitelist" `Quick d003;
    Alcotest.test_case "D003 covers lib/serve" `Quick d003_serve;
    Alcotest.test_case "D003 CPU clocks and self-seeded states" `Quick
      d003_idents;
    Alcotest.test_case "D004 physical equality" `Quick d004;
    Alcotest.test_case "D004 on the DP kernel files" `Quick d004_kernel;
    Alcotest.test_case "D005 bare polymorphic compare" `Quick d005;
    Alcotest.test_case "D005 on the DP kernel files" `Quick d005_kernel;
    Alcotest.test_case "H001 exit outside worker entry" `Quick h001;
    Alcotest.test_case "H002 Marshal flags literal" `Quick h002;
    Alcotest.test_case "D003 through open Unix" `Quick d003_open;
    Alcotest.test_case "D002 through a module alias" `Quick d002_alias;
    Alcotest.test_case "D005 skips a local compare" `Quick d005_local;
    Alcotest.test_case "H003 paired .mli" `Quick h003;
    Alcotest.test_case "suppressions honored" `Quick suppression_honored;
    Alcotest.test_case "suppression covers the following block" `Quick
      suppression_block;
    Alcotest.test_case "malformed suppressions flagged" `Quick
      suppression_malformed;
    Alcotest.test_case "JSON reporter schema" `Quick json_schema;
    Alcotest.test_case "rule catalog closed" `Quick catalog_closed;
  ]
