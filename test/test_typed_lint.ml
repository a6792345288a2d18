(* The typed lint engine against compiled fixtures (see
   {!Lint_fixture}): each T-rule gets a small module set, then the
   real cmt pipeline (load -> extract -> fixpoint -> rules) runs over
   it.  Pure pieces (modname display, golden round-trip) need no
   compiler. *)

module TL = Analysis_typed.Typed_lint
module RT = Analysis_typed.Rules_typed
module E = Analysis_typed.Effects

(* T-rule fixtures are lib/<name>.ml modules compiled in order. *)
let with_fixture mods f =
  Lint_fixture.with_root
    (List.map (fun (name, src) -> ("lib/" ^ name ^ ".ml", src)) mods)
    f

(* A pool lookalike so fixtures need no real engine: the test config
   points the sink list at Pool.map. *)
let pool_mod = ("pool", "let map f xs = Array.map f xs\n")

let fixture_config =
  {
    RT.default with
    RT.pool_sinks = [ "Pool.map" ];
    RT.trusted_prefixes = [];
    RT.sanitizers = [];
    RT.mut_whitelist = [ "Wl." ];
    RT.t002_roots = [ "Cachekey.key" ];
    RT.t002_root_prefixes = [];
  }

let rules_of outcome =
  List.map (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.rule)
    outcome.TL.findings

(* --- T001 ----------------------------------------------------------------- *)

let t001_racy_capture () =
  with_fixture
    [
      pool_mod;
      ( "racy",
        String.concat "\n"
          [
            "let table : (int, int) Hashtbl.t = Hashtbl.create 8";
            "let bump i = Hashtbl.replace table i i";
            "let run xs = Pool.map (fun i -> bump i) xs";
            "";
          ] );
    ]
    (fun root ->
      let o = Lint_fixture.run ~config:fixture_config root in
      match
        List.filter
          (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.rule = "T001")
          o.TL.findings
      with
      | [ f ] ->
          Alcotest.(check string) "file" "lib/racy.ml" f.Analysis.Finding.file;
          Alcotest.(check int) "line of the submission" 3
            f.Analysis.Finding.line;
          Alcotest.(check bool) "message names the mutable" true
            (let msg = f.Analysis.Finding.message in
             let needle = "Racy.table" in
             let n = String.length needle and m = String.length msg in
             let rec has i =
               i + n <= m && (String.sub msg i n = needle || has (i + 1))
             in
             has 0)
      | other -> Alcotest.failf "expected exactly one T001, got %d"
                   (List.length other))

let t001_mutex_guarded () =
  with_fixture
    [
      pool_mod;
      ( "guarded",
        String.concat "\n"
          [
            "let table : (int, int) Hashtbl.t = Hashtbl.create 8";
            "let m = Mutex.create ()";
            "let bump i = Mutex.protect m (fun () -> Hashtbl.replace table i i)";
            "let run xs = Pool.map (fun i -> bump i) xs";
            "";
          ] );
    ]
    (fun root ->
      let o = Lint_fixture.run ~config:fixture_config root in
      Alcotest.(check (list string))
        "mutex-protected access passes" []
        (List.filter (fun r -> r = "T001") (rules_of o)))

let t001_whitelist () =
  with_fixture
    [
      pool_mod;
      ( "wl",
        String.concat "\n"
          [
            "let table : (int, int) Hashtbl.t = Hashtbl.create 8";
            "let bump i = Hashtbl.replace table i i";
            "let run xs = Pool.map (fun i -> bump i) xs";
            "";
          ] );
    ]
    (fun root ->
      (* same shape as the racy fixture, but Wl. is whitelisted *)
      let o = Lint_fixture.run ~config:fixture_config root in
      Alcotest.(check (list string))
        "whitelisted module state passes" []
        (List.filter (fun r -> r = "T001") (rules_of o)))

let t001_init_only_read () =
  with_fixture
    [
      pool_mod;
      ( "lut",
        String.concat "\n"
          [
            "let table : (string, int) Hashtbl.t = Hashtbl.create 8";
            "let () = Hashtbl.replace table \"a\" 1";
            "let get k = Hashtbl.find_opt table k";
            "let run xs = Pool.map (fun k -> get k) xs";
            "";
          ] );
    ]
    (fun root ->
      (* written only during module init: read-only at run time, safe *)
      let o = Lint_fixture.run ~config:fixture_config root in
      Alcotest.(check (list string))
        "init-only table read passes" []
        (List.filter (fun r -> r = "T001") (rules_of o)))

(* --- T002 ----------------------------------------------------------------- *)

let t002_two_hops () =
  with_fixture
    [
      ("leaf", "let now () = Sys.time ()\n");
      ("mid", "let helper () = Leaf.now () +. 1.\n");
      ("cachekey", "let key () = int_of_float (Mid.helper ())\n");
    ]
    (fun root ->
      let o = Lint_fixture.run ~config:fixture_config root in
      match
        List.filter
          (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.rule = "T002")
          o.TL.findings
      with
      | [ f ] ->
          Alcotest.(check string) "file" "lib/cachekey.ml"
            f.Analysis.Finding.file;
          (* the witness chain walks both hops down to the clock read *)
          List.iter
            (fun needle ->
              let msg = f.Analysis.Finding.message in
              let n = String.length needle and m = String.length msg in
              let rec has i =
                i + n <= m && (String.sub msg i n = needle || has (i + 1))
              in
              Alcotest.(check bool)
                (Printf.sprintf "chain mentions %s" needle)
                true (has 0))
            [ "Cachekey.key"; "Mid.helper"; "Leaf.now" ]
      | other ->
          Alcotest.failf "expected exactly one T002, got %d" (List.length other))

let t002_clean_root () =
  with_fixture
    [
      ("leaf", "let pure () = 41\n");
      ("mid", "let helper () = Leaf.pure () + 1\n");
      ("cachekey", "let key () = Mid.helper ()\n");
    ]
    (fun root ->
      let o = Lint_fixture.run ~config:fixture_config root in
      Alcotest.(check (list string))
        "deterministic root passes" []
        (List.filter (fun r -> r = "T002") (rules_of o)))

(* --- T003 ----------------------------------------------------------------- *)

let t003_float_compare () =
  with_fixture
    [
      ( "floats",
        String.concat "\n"
          [
            "let eq (a : float) b = a = b";
            "let sorted xs = List.sort compare (xs : float list)";
            "let is_unset (x : float option) = x = None";
            "";
          ] );
    ]
    (fun root ->
      let o = Lint_fixture.run ~config:fixture_config root in
      let t003 =
        List.filter
          (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.rule = "T003")
          o.TL.findings
      in
      (* bare `=` at float and `compare` instantiated at float list are
         caught; `= None` only inspects the constructor tag *)
      Alcotest.(check (list int))
        "lines flagged" [ 1; 2 ]
        (List.sort_uniq Int.compare
           (List.map (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.line)
              t003)))

(* --- call graph: aliased cross-module calls -------------------------------- *)

let aliased_calls () =
  with_fixture
    [
      ("leaf", "let now () = Sys.time ()\n");
      ("mid", "let helper () = Leaf.now () +. 1.\n");
      ("alias", "let f = Mid.helper\nlet g () = f () +. 2.\n");
    ]
    (fun root ->
      let units, errs =
        Analysis_typed.Cmt_load.load ~files:(Lint_fixture.files root)
          (Analysis_typed.Cmt_load.discover ~root
             ~files:(Lint_fixture.files root))
      in
      Alcotest.(check int) "no load errors" 0 (List.length errs);
      let graph =
        Analysis_typed.Callgraph.extract ~sinks:[] ~safe_type_heads:[] units
      in
      let t =
        Analysis_typed.Summarize.run ~trusted_prefixes:[] ~sanitizers:[]
          ~mut_whitelist:[] graph
      in
      (* the bare alias carries the callee's effects... *)
      Alcotest.(check bool) "Alias.f inherits the clock" true
        (E.Set.mem E.Nondet_clock (Analysis_typed.Summarize.summary t "Alias.f"));
      (* ...and so does a caller through the alias *)
      Alcotest.(check bool) "Alias.g too" true
        (E.Set.mem E.Nondet_clock (Analysis_typed.Summarize.summary t "Alias.g"));
      (* chain bottoms out at the direct Sys.time read in Leaf *)
      match Analysis_typed.Summarize.chain t "Alias.g" E.Nondet_clock with
      | [] -> Alcotest.fail "expected a witness chain"
      | hops ->
          let last, _ = List.nth hops (List.length hops - 1) in
          Alcotest.(check string) "chain ends in Leaf.now" "Leaf.now" last)

(* --- E002: nothing is checked silently ------------------------------------ *)

let no_cmts_fails () =
  Lint_fixture.with_root ~unbuilt:[ ("lib/a.ml", "let x = 1\n") ] []
    (fun root ->
      match TL.run ~root ~files:(Lint_fixture.files root) () with
      | Ok _ -> Alcotest.fail "a tree with no cmt at all must not lint clean"
      | Error msg ->
          let needle = "run `dune build` first" in
          let n = String.length needle and m = String.length msg in
          let rec has i =
            i + n <= m && (String.sub msg i n = needle || has (i + 1))
          in
          Alcotest.(check bool) "message says to build first" true (has 0))

let unbuilt_source_reported () =
  Lint_fixture.with_root
    ~unbuilt:[ ("lib/b.ml", "let y = 2\n") ]
    [ ("lib/a.ml", "let x = 1\n") ]
    (fun root ->
      let o = Lint_fixture.run root in
      Alcotest.(check (list (pair string string)))
        "one E002 naming the unbuilt source"
        [ ("E002", "lib/b.ml") ]
        (List.map
           (fun (f : Analysis.Finding.t) ->
             (f.Analysis.Finding.rule, f.Analysis.Finding.file))
           o.TL.findings))

(* --- effects golden round-trip --------------------------------------------- *)

let golden_roundtrip () =
  let summaries =
    [
      ("B.g", E.Set.of_list [ E.Io; E.Raises ]);
      ( "A.f",
        E.Set.of_list
          [
            E.Nondet_clock; E.Nondet_rand; E.Nondet_hash;
            E.Mut_write "A.table"; E.Mut_read "A.table";
          ] );
      ("C.pure", E.Set.empty);
    ]
  in
  let rendered = TL.golden_string summaries in
  let parsed =
    match Analysis.Json.of_string (String.trim rendered) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "golden does not re-parse: %s" msg
  in
  match E.golden_of_json parsed with
  | Error msg -> Alcotest.failf "golden_of_json: %s" msg
  | Ok back ->
      let norm l =
        List.sort (fun (a, _) (b, _) -> String.compare a b) l
        |> List.map (fun (id, s) -> (id, List.map E.to_string (E.Set.elements s)))
      in
      Alcotest.(check (list (pair string (list string))))
        "round-trip" (norm summaries) (norm back);
      (* rendering is deterministic: ids sorted regardless of input order *)
      Alcotest.(check string) "stable bytes" rendered
        (TL.golden_string (List.rev summaries))

let atom_strings () =
  List.iter
    (fun a ->
      match E.of_string (E.to_string a) with
      | Some b when E.compare_atom a b = 0 -> ()
      | _ -> Alcotest.failf "atom %s does not round-trip" (E.to_string a))
    [
      E.Nondet_clock; E.Nondet_rand; E.Nondet_hash; E.Mut_write "X.t";
      E.Mut_read "X.t"; E.Io; E.Raises;
    ]

let display_modnames () =
  List.iter
    (fun (mangled, display) ->
      Alcotest.(check string) mangled display
        (Analysis_typed.Cmt_load.display_of_modname mangled))
    [
      ("Engine__Pool", "Engine.Pool");
      ("Tbl", "Tbl");
      ("Serve__Retier", "Serve.Retier");
    ]

let suite =
  [
    Alcotest.test_case "T001 racy capture caught" `Quick t001_racy_capture;
    Alcotest.test_case "T001 mutex-guarded passes" `Quick t001_mutex_guarded;
    Alcotest.test_case "T001 whitelist honored" `Quick t001_whitelist;
    Alcotest.test_case "T001 init-only table readable" `Quick
      t001_init_only_read;
    Alcotest.test_case "T002 taint through two hops" `Quick t002_two_hops;
    Alcotest.test_case "T002 clean root passes" `Quick t002_clean_root;
    Alcotest.test_case "T003 float compares" `Quick t003_float_compare;
    Alcotest.test_case "aliased cross-module calls" `Quick aliased_calls;
    Alcotest.test_case "E002 when nothing is built" `Quick no_cmts_fails;
    Alcotest.test_case "E002 names an unbuilt source" `Quick
      unbuilt_source_reported;
    Alcotest.test_case "effects golden round-trip" `Quick golden_roundtrip;
    Alcotest.test_case "atom string forms" `Quick atom_strings;
    Alcotest.test_case "modname display" `Quick display_modnames;
  ]
