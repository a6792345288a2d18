(* Golden-file generator for the regression suite.

   [golden_gen --one ID] renders one registry experiment to stdout
   exactly as [Runner.render] would — the dune @golden alias diffs
   that against test/golden/ID.expected, so [dune build @golden
   --auto-promote] (wrapped as [make golden-regen]) refreshes the
   committed goldens after an intentional output change.

   [golden_gen DIR] writes every ID.expected into DIR — the one-shot
   bootstrap form. *)

let render_one id =
  Tiered.Runner.render
    (Tiered.Runner.run_experiments ~jobs:1 [ Tiered.Experiment.find id ])

let () =
  (* Serve engine worker tasks first if re-invoked as a subprocess
     worker (never happens under the @golden alias, but keeps the
     binary safe to run with --backend-style harnesses). *)
  Engine.Proc.maybe_run_worker ();
  match Array.to_list Sys.argv with
  | [ _; "--one"; id ] -> print_string (render_one id)
  | [ _; dir ] ->
      List.iter
        (fun (e : Tiered.Experiment.t) ->
          let id = e.Tiered.Experiment.id in
          let oc = open_out_bin (Filename.concat dir (id ^ ".expected")) in
          output_string oc (render_one id);
          close_out oc)
        Tiered.Experiment.all
  | _ ->
      prerr_endline "usage: golden_gen --one ID | golden_gen DIR";
      exit 2
