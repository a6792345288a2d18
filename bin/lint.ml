(* tiered-lint: the repo's determinism/hygiene static-analysis pass.
   See lib/analysis for the rule catalog and DESIGN.md §10 for the
   rationale.  Two engines share one reporting pipeline: the textual
   AST rules (D/H/S) and, whenever `dune build` has left cmt
   artifacts around, the typed interprocedural pass (T001-T003) over
   lib/.  Exit codes: 0 clean, 1 active findings, 2 usage or baseline
   errors. *)

let default_dirs = [ "lib"; "bin"; "examples"; "test" ]

let () =
  let root = ref "." in
  let baseline_path = ref "lint/baseline.json" in
  let json_path = ref "" in
  let sarif_path = ref "" in
  let effects_path = ref "" in
  let write_baseline = ref false in
  let list_rules = ref false in
  let quiet = ref false in
  let typed = ref true in
  let typed_only = ref false in
  let typed_dump = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repo root to scan from (default .)");
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE baseline path, relative to --root (default lint/baseline.json)" );
      ( "--json",
        Arg.Set_string json_path,
        "FILE also write the JSON report here (relative to cwd)" );
      ( "--sarif",
        Arg.Set_string sarif_path,
        "FILE also write a SARIF 2.1.0 report here (relative to cwd)" );
      ( "--typed",
        Arg.Set typed,
        " run the typed cmt pass (default: on when cmts exist)" );
      ( "--no-typed",
        Arg.Clear typed,
        " skip the typed cmt pass even if cmts exist" );
      ( "--typed-only",
        Arg.Set typed_only,
        " run only the typed pass (textual rules skipped)" );
      ( "--typed-dump",
        Arg.Set typed_dump,
        " print every non-pure effect summary and exit" );
      ( "--effects-out",
        Arg.Set_string effects_path,
        "FILE write the effect-summary golden JSON here (relative to cwd)" );
      ( "--write-baseline",
        Arg.Set write_baseline,
        " rewrite the baseline to grandfather every currently-active finding" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
      ("--quiet", Arg.Set quiet, " suppress the report body (summary only)");
    ]
  in
  let usage =
    "tiered-lint [options] [dir ...]\n\
     Scans every .ml/.mli under the given directories (default: lib bin \
     examples test) for determinism/hygiene violations, and lib/ cmt \
     artifacts for interprocedural ones.\n"
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
  let baseline_file = Filename.concat !root !baseline_path in
  let baseline =
    match Analysis.Baseline.load baseline_file with
    | Ok b -> b
    | Error msg ->
        Printf.eprintf "tiered-lint: cannot read baseline: %s\n" msg;
        exit 2
  in
  let run_typed =
    (!typed || !typed_only)
    && Analysis_typed.Typed_lint.available ~root:!root
  in
  let typed_outcome =
    if run_typed then Some (Analysis_typed.Typed_lint.run ~root:!root ())
    else None
  in
  if !typed_dump then begin
    (match typed_outcome with
    | Some o -> print_string (Analysis_typed.Typed_lint.dump o)
    | None -> print_endline "typed pass unavailable: no cmt artifacts found");
    exit 0
  end;
  (match (!effects_path, typed_outcome) with
  | "", _ | _, None -> ()
  | path, Some o ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Analysis_typed.Typed_lint.golden_string
               o.Analysis_typed.Typed_lint.summaries)));
  let extra =
    match typed_outcome with
    | Some o -> o.Analysis_typed.Typed_lint.findings
    | None -> []
  in
  let outcome =
    if !typed_only then
      Analysis.Lint.run_sources ~baseline ~extra
        (List.map
           (fun file ->
             let path = Filename.concat !root file in
             let ic = open_in_bin path in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> (file, really_input_string ic (in_channel_length ic))))
           (Analysis.Lint.scan_files ~root:!root ~dirs:[ "lib" ]))
      |> fun o ->
      {
        o with
        Analysis.Lint.reported =
          List.filter
            (fun ((f : Analysis.Finding.t), _) ->
              String.length f.Analysis.Finding.rule > 0
              && (f.Analysis.Finding.rule.[0] = 'T'
                 || f.Analysis.Finding.rule = "E002"))
            o.Analysis.Lint.reported;
      }
    else Analysis.Lint.run ~baseline ~extra ~root:!root ~dirs ()
  in
  if !write_baseline then begin
    let entries = Analysis.Baseline.of_findings (Analysis.Lint.active outcome) in
    Analysis.Baseline.save baseline_file entries;
    Printf.printf "tiered-lint: wrote %d baseline entr%s to %s\n"
      (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      baseline_file;
    exit 0
  end;
  let report =
    Analysis.Reporter.text ~reported:outcome.Analysis.Lint.reported
      ~stale:outcome.Analysis.Lint.stale
  in
  if !quiet then begin
    match String.rindex_opt (String.trim report) '\n' with
    | Some i ->
        let t = String.trim report in
        print_endline (String.sub t (i + 1) (String.length t - i - 1))
    | None -> print_string report
  end
  else print_string report;
  if (!typed || !typed_only) && not run_typed then
    prerr_endline
      "tiered-lint: note: typed pass skipped (no cmt artifacts; run `dune \
       build` first, or pass --no-typed to silence)";
  if !json_path <> "" then begin
    let oc = open_out_bin !json_path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Analysis.Json.to_string
             (Analysis.Reporter.json ~reported:outcome.Analysis.Lint.reported
                ~stale:outcome.Analysis.Lint.stale)))
  end;
  if !sarif_path <> "" then begin
    let oc = open_out_bin !sarif_path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Analysis.Json.to_string
             (Analysis.Sarif.render ~reported:outcome.Analysis.Lint.reported)))
  end;
  if Analysis.Lint.active outcome <> [] then exit 1
