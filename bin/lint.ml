(* tiered-lint: the repo's determinism/hygiene static-analysis pass.
   See lib/analysis for the rule catalog and DESIGN.md §10 for the
   rationale.  Every rule reads the typed trees (.cmt files) dune
   leaves under _build; inline `lint: allow` comments are the one way
   to accept a finding.  Exit codes: 0 clean, 1 active findings, 2
   usage errors or nothing built to read. *)

let default_dirs = [ "lib"; "bin"; "examples"; "test" ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let () =
  let root = ref "." in
  let json_path = ref "" in
  let sarif_path = ref "" in
  let effects_path = ref "" in
  let list_rules = ref false in
  let quiet = ref false in
  let typed_dump = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repo root to scan from (default .)");
      ( "--json",
        Arg.Set_string json_path,
        "FILE also write the JSON report here (relative to cwd)" );
      ( "--sarif",
        Arg.Set_string sarif_path,
        "FILE also write a SARIF 2.1.0 report here (relative to cwd)" );
      ( "--typed-dump",
        Arg.Set typed_dump,
        " print every non-pure effect summary and exit" );
      ( "--effects-out",
        Arg.Set_string effects_path,
        "FILE write the effect-summary golden JSON here (relative to cwd)" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
      ("--quiet", Arg.Set quiet, " suppress the report body (summary only)");
    ]
  in
  let usage =
    "tiered-lint [options] [dir ...]\n\
     Checks every .ml under the given directories (default: lib bin \
     examples test) for determinism/hygiene violations, reading the typed \
     trees `dune build` leaves in _build.\n"
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !list_rules then begin
    List.iter
      (fun (m : Analysis.Rules.meta) ->
        Printf.printf "%s  %s\n      %s\n" m.Analysis.Rules.id
          m.Analysis.Rules.title m.Analysis.Rules.rationale)
      Analysis.Rules.catalog;
    exit 0
  end;
  let dirs = if !dirs = [] then default_dirs else List.rev !dirs in
  let files = Analysis.Lint.scan_files ~root:!root ~dirs in
  let typed =
    match Analysis_typed.Typed_lint.run ~root:!root ~files () with
    | Ok o -> o
    | Error msg ->
        Printf.eprintf "tiered-lint: %s\n" msg;
        exit 2
  in
  if !typed_dump then begin
    print_string (Analysis_typed.Typed_lint.dump typed);
    exit 0
  end;
  if !effects_path <> "" then
    write_file !effects_path
      (Analysis_typed.Typed_lint.golden_string
         typed.Analysis_typed.Typed_lint.summaries);
  let reported =
    Analysis.Lint.run ~root:!root ~files
      typed.Analysis_typed.Typed_lint.findings
  in
  print_string
    (if !quiet then Analysis.Reporter.summary reported
     else Analysis.Reporter.text reported);
  if !json_path <> "" then
    write_file !json_path
      (Analysis.Json.to_string (Analysis.Reporter.json reported));
  if !sarif_path <> "" then
    write_file !sarif_path
      (Analysis.Json.to_string (Analysis.Sarif.render reported));
  if Analysis.Lint.active reported <> [] then exit 1
