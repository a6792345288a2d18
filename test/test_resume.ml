(* Runner.sweep with a disk tier: the content-addressed store is the
   resume record. Each cell stores itself as it finishes, so a sweep
   cut short by a failing cell keeps every other cell, and the rerun
   computes only the one it lost. *)

open Tiered

let values = List.init 8 (fun i -> 1.5 *. float_of_int (i + 1))
let key v = ("resume-test", v)

(* The fourth cell raises when [fault] is set, like a run interrupted
   while that cell was in flight. *)
let compute ~fault v =
  if fault && Float.equal v 6. then failwith "injected fault"
  else [ Printf.sprintf "%g" v; Printf.sprintf "%.9f" (sqrt v) ]

let temp_dir () =
  let f = Filename.temp_file "engine-resume" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let remove_dir dir =
  Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
  Sys.rmdir dir

let cell_refs dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun name ->
         String.starts_with ~prefix:"sweep-cell-" name
         && Filename.check_suffix name ".ref")
  |> List.length

let resume_on backend ~jobs () =
  let sweep ~fault =
    Runner.sweep ~backend ~jobs ~key ~compute:(compute ~fault) values
  in
  Engine.Cache.clear_all ();
  let uninterrupted, all = sweep ~fault:false in
  Alcotest.(check int) "an uncached run computes every cell" 8 all;
  let dir = temp_dir () in
  Engine.Cache.clear_all ();
  Engine.Cache.enable_disk ~dir ();
  Fun.protect
    ~finally:(fun () ->
      Engine.Cache.disable_disk ();
      Engine.Cache.clear_all ();
      remove_dir dir)
  @@ fun () ->
  (match sweep ~fault:true with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Engine.Pool.Task_failed { index; _ } ->
      Alcotest.(check int) "the faulty cell fails" 3 index);
  Alcotest.(check int) "the other cells stored themselves" 7 (cell_refs dir);
  Engine.Cache.clear_all ();
  let rows, computed = sweep ~fault:false in
  Alcotest.(check int) "only the lost cell is computed" 1 computed;
  Alcotest.(check (list (list string)))
    "resumed rows = uninterrupted rows" uninterrupted rows

let suite =
  [
    Alcotest.test_case "domains x1: a failed sweep resumes from the store"
      `Quick
      (resume_on Engine.Pool.Domains ~jobs:1);
    Alcotest.test_case "procs x2: a failed sweep resumes from the store"
      `Quick
      (resume_on Engine.Pool.Procs ~jobs:2);
  ]
