(* --- file discovery ------------------------------------------------------- *)

let skip_dir name =
  match name with
  | "_build" | ".git" | "_cache" | "_cas" | "_opam" -> true
  | _ -> false

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let scan_files ~root ~dirs =
  let out = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | names ->
        Array.sort String.compare names;
        Array.iter
          (fun name ->
            let rel' = rel ^ "/" ^ name in
            let abs' = Filename.concat root rel' in
            match Sys.is_directory abs' with
            | true -> if not (skip_dir name) then walk rel'
            | false -> if is_source name then out := rel' :: !out
            | exception Sys_error _ -> ())
          names
  in
  List.iter
    (fun dir ->
      let dir =
        (* normalize "./lib" and "lib/" to "lib" *)
        let dir =
          if String.length dir > 2 && String.sub dir 0 2 = "./" then
            String.sub dir 2 (String.length dir - 2)
          else dir
        in
        if Filename.check_suffix dir "/" then Filename.chop_suffix dir "/"
        else dir
      in
      walk dir)
    dirs;
  List.sort_uniq String.compare !out

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- classification ------------------------------------------------------- *)

let classify sources findings =
  let scans =
    List.map
      (fun (file, contents) -> (file, Suppress.scan ~file contents))
      sources
  in
  let malformed = List.concat_map (fun (_, (_, m)) -> m) scans in
  let h003 = Rules.missing_interfaces ~files:(List.map fst sources) in
  let status (f : Finding.t) =
    match List.assoc_opt f.Finding.file scans with
    | Some (supps, _)
      when f.Finding.rule <> "S001"
           && Suppress.covers supps ~rule:f.Finding.rule ~line:f.Finding.line ->
        Finding.Suppressed
    | _ -> Finding.Active
  in
  List.map (fun f -> (f, status f)) (findings @ malformed @ h003)
  |> List.sort (fun (a, _) (b, _) -> Finding.compare a b)

let run ~root ~files findings =
  classify
    (List.map (fun file -> (file, read_file (Filename.concat root file))) files)
    findings

let active reported =
  List.filter_map
    (fun (f, status) -> if status = Finding.Active then Some f else None)
    reported
