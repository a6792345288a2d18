(* Minimal SARIF 2.1.0 rendering, enough for code-scanning uploads:
   one run, the rule catalog as driver metadata, one result per
   finding.  Suppressed findings are carried with a SARIF
   suppression object instead of being dropped, so the dashboard and
   the text report agree on totals. *)

let result_of ((f : Finding.t), (status : Finding.status)) =
  let level =
    match status with Finding.Active -> "error" | Finding.Suppressed -> "note"
  in
  let base =
    [
      ("ruleId", Json.Str f.Finding.rule);
      ("level", Json.Str level);
      ("message", Json.Obj [ ("text", Json.Str f.Finding.message) ]);
      ( "locations",
        Json.List
          [
            Json.Obj
              [
                ( "physicalLocation",
                  Json.Obj
                    [
                      ( "artifactLocation",
                        Json.Obj [ ("uri", Json.Str f.Finding.file) ] );
                      ( "region",
                        Json.Obj
                          [
                            ("startLine", Json.Int f.Finding.line);
                            ("startColumn", Json.Int (f.Finding.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]
  in
  let suppression =
    match status with
    | Finding.Active -> []
    | Finding.Suppressed ->
        [ ("suppressions", Json.List [ Json.Obj [ ("kind", Json.Str "inSource") ] ]) ]
  in
  Json.Obj (base @ suppression)

let render reported =
  let rules =
    List.map
      (fun (m : Rules.meta) ->
        Json.Obj
          [
            ("id", Json.Str m.Rules.id);
            ( "shortDescription",
              Json.Obj [ ("text", Json.Str m.Rules.title) ] );
            ( "fullDescription",
              Json.Obj [ ("text", Json.Str m.Rules.rationale) ] );
          ])
      Rules.catalog
  in
  Json.Obj
    [
      ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str "tiered-lint");
                            ("rules", Json.List rules);
                          ] );
                    ] );
                ("results", Json.List (List.map result_of reported));
              ];
          ] );
    ]
