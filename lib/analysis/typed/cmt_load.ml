(* Ingestion of the `.cmt` typed trees dune already produces.

   Dune compiles every module with `-bin-annot`, leaving one cmt per
   implementation under
   `_build/default/lib/<dir>/.<lib>.objs/byte/<lib>__<Mod>.cmt` for
   libraries and `_build/default/<dir>/.<exe>.eobjs/byte/` for
   executables and tests (an executable's main module gets its cmt
   from `dune build @check`).  Wrapper alias modules have a `.ml-gen`
   source and are skipped.  The loader works both from the repo root
   (artifacts under `_build/default/<dir>`) and from inside a dune
   action (cwd is the build context root, artifacts under `<dir>`). *)

type unit_info = {
  ui_modname : string;  (** display module path, e.g. ["Engine.Pool"] *)
  ui_source : string;  (** root-relative source, e.g. ["lib/engine/pool.ml"] *)
  ui_structure : Typedtree.structure;
}

(* "Engine__Pool" -> "Engine.Pool"; plain "Tbl" stays. *)
let display_of_modname m =
  let buf = Buffer.create (String.length m) in
  let n = String.length m in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf m.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* The top-level directories of the scanned sources ("lib", "bin", ...).
   Their cmts sit under [root/_build/default/<dir>] seen from the repo
   root, and under [root/<dir>] from inside a dune action. *)
let search_dirs ~root ~files =
  List.sort_uniq String.compare
    (List.map
       (fun f ->
         match String.index_opt f '/' with
         | Some i -> String.sub f 0 i
         | None -> f)
       files)
  |> List.concat_map (fun d ->
         [
           Filename.concat root d;
           Filename.concat root (Filename.concat "_build/default" d);
         ])

let discover ~root ~files =
  let out = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.sort String.compare names;
        Array.iter
          (fun name ->
            let path = Filename.concat dir name in
            if Sys.is_directory path then walk path
            else if Filename.check_suffix name ".cmt" then out := path :: !out)
          names
  in
  List.iter walk (search_dirs ~root ~files);
  List.sort String.compare !out

(* Source paths inside cmts are as passed to the compiler: relative to
   the build context root, i.e. already root-relative
   ("lib/engine/pool.ml").  A unit is kept only when its source is one
   of the scanned [files]; the first cmt naming a source wins. *)
let load ~files cmts =
  let scanned = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace scanned f ()) files;
  let errors = ref [] in
  let seen = Hashtbl.create 256 in
  let units = ref [] in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception exn ->
          errors :=
            Analysis.Finding.v ~rule:"E002" ~file:path ~line:1 ~col:0
              (Printf.sprintf "cmt does not load: %s" (Printexc.to_string exn))
            :: !errors
      | cmt -> (
          match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
          | Cmt_format.Implementation str, Some src
            when Hashtbl.mem scanned src && not (Hashtbl.mem seen src) ->
              Hashtbl.add seen src ();
              units :=
                {
                  ui_modname = display_of_modname cmt.Cmt_format.cmt_modname;
                  ui_source = src;
                  ui_structure = str;
                }
                :: !units
          | _ -> ()))
    cmts;
  ( List.sort (fun a b -> String.compare a.ui_source b.ui_source) !units,
    List.rev !errors )
