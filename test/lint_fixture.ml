(* Compiled fixtures for the lint tests.  Each fixture source is
   written under a fresh temp root at its repo-relative path, compiled
   with `ocamlc -bin-annot` so its .cmt lands next to it (the layout
   the loader also finds inside a dune action), and the real pipeline
   runs over the root.  Without a compiler the tests fail: a skipped
   fixture would pass every rule vacuously. *)

module TL = Analysis_typed.Typed_lint

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let ocamlc_available =
  lazy (Sys.command "ocamlc -version > /dev/null 2>&1" = 0)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rm_rf dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let ocamlc ~cwd args =
  let log = Filename.concat cwd "ocamlc.log" in
  let cmd =
    Printf.sprintf "cd %s && ocamlc %s > %s 2>&1" (Filename.quote cwd) args
      (Filename.quote log)
  in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture does not compile: %s\n%s" args (read_file log)

(* The few names the rule snippets use without binding them, opened
   into every fixture.  None of them shadows a stdlib value a rule
   looks for. *)
let stubs =
  lazy
    (let dir = fresh_dir "lint-stubs" in
     at_exit (fun () -> rm_rf dir);
     write_file
       (Filename.concat dir "fixture_stubs.ml")
       (String.concat "\n"
          [
            "module Tbl = struct let sorted_bindings _ = [] end";
            "module Finding = struct let compare = String.compare end";
            "module Clock = struct let now _ = 0. end";
            "module Serve = struct";
            "  module Clock = struct let of_fn f = f end";
            "end";
            "let reuse () = ()";
            "let refill () = ()";
            "let starts = []";
            "";
          ]);
     ocamlc ~cwd:dir "-c fixture_stubs.ml";
     dir)

(* [with_root ?unbuilt fixtures f]: write [fixtures] (path, source)
   and compile them in order (later ones may use earlier lib/ ones),
   write [unbuilt] without compiling, run [f root], clean up. *)
let with_root ?(unbuilt = []) fixtures f =
  if not (Lazy.force ocamlc_available) then
    Alcotest.fail "no ocamlc on PATH: the lint fixtures must be compiled";
  let stubs = Lazy.force stubs in
  let root = fresh_dir "typed-lint" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun (path, src) ->
          let abs = Filename.concat root path in
          mkdir_p (Filename.dirname abs);
          write_file abs src)
        (fixtures @ unbuilt);
      if fixtures <> [] then
        ocamlc ~cwd:root
          (Printf.sprintf
             "-bin-annot -I +unix -I lib -I %s -open Fixture_stubs -c %s"
             (Filename.quote stubs)
             (String.concat " " (List.map fst fixtures)));
      f root)

let files root = Analysis.Lint.scan_files ~root ~dirs:[ "lib"; "bin"; "test" ]

let run ?config root =
  match TL.run ?config ~root ~files:(files root) () with
  | Ok o -> o
  | Error msg -> Alcotest.failf "typed lint did not run: %s" msg

let findings ?config fixtures =
  with_root fixtures (fun root -> (run ?config root).TL.findings)
