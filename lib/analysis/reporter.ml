let count status reported =
  List.length (List.filter (fun (_, s) -> s = status) reported)

let summary reported =
  let active = count Finding.Active reported in
  Printf.sprintf "tiered-lint: %d active finding%s, %d suppressed\n" active
    (if active = 1 then "" else "s")
    (count Finding.Suppressed reported)

let text reported =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((f : Finding.t), status) ->
      match (status : Finding.status) with
      | Finding.Active ->
          Buffer.add_string buf (Finding.to_string f);
          Buffer.add_char buf '\n'
      | Finding.Suppressed -> ())
    reported;
  Buffer.add_string buf (summary reported);
  Buffer.contents buf

let json reported =
  Json.Obj
    [
      ("version", Json.Int 2);
      ("tool", Json.Str "tiered-lint");
      ( "findings",
        Json.List
          (List.map
             (fun ((f : Finding.t), status) ->
               Json.Obj
                 [
                   ("rule", Json.Str f.Finding.rule);
                   ("file", Json.Str f.Finding.file);
                   ("line", Json.Int f.Finding.line);
                   ("col", Json.Int f.Finding.col);
                   ("message", Json.Str f.Finding.message);
                   ("status", Json.Str (Finding.status_to_string status));
                 ])
             reported) );
      ( "summary",
        Json.Obj
          [
            ("active", Json.Int (count Finding.Active reported));
            ("suppressed", Json.Int (count Finding.Suppressed reported));
          ] );
    ]
