(* Golden-file generator for the regression suite.

   [golden_gen --one ID] renders one registry experiment to stdout
   exactly as [Runner.render] would — the dune @golden alias diffs
   that against test/golden/ID.expected, so [dune build @golden
   --auto-promote] (wrapped as [make golden-regen]) refreshes the
   committed goldens after an intentional output change.

   [golden_gen DIR] writes every ID.expected into DIR — the one-shot
   bootstrap form.

   [golden_gen --serve] streams three days of eu_isp@2000 NetFlow
   through the serve daemon under two pricing configurations and prints
   one line per posted window (bin, flows, cuts, prices and profit as
   exact [%h] floats) — the golden/serve.expected pin on posted tiers.
   Solve kinds and evaluation counts are deliberately left out: they
   measure the solver, not what it posts. *)

let render_one id =
  Tiered.Runner.render
    (Tiered.Runner.run_experiments ~jobs:1 [ Tiered.Experiment.find id ])

let render_serve () =
  let w = Flowgen.Workload.preset "eu_isp@2000" in
  let configs =
    [
      ("ced concave theta=0.5 B=4", Tiered.Market.Ced);
      ("logit s0=0.3 concave theta=0.5 B=4", Tiered.Market.Logit { s0 = 0.3 });
    ]
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, spec) ->
      Printf.bprintf buf "# %s\n" name;
      let retier =
        Serve.Retier.create
          {
            Serve.Retier.spec;
            alpha = Tiered.Experiment.Defaults.alpha;
            p0 = Tiered.Experiment.Defaults.p0;
            n_bundles = 4;
            cost_model = Tiered.Cost_model.concave ~theta:0.5;
            samples = 8;
            cold_every = 24;
            use_cache = false;
          }
          ~meta_of:(Serve.Retier.meta_of_workload w)
      in
      let shards =
        Serve.Shards.create ~shards:1 ~dedup:true
          { Serve.Window.bin_s = 3600; bins = 24; decay = Serve.Window.No_decay }
      in
      let clock, _ = Serve.Clock.manual () in
      let result =
        Serve.Daemon.run ~clock ~shards ~retier { Serve.Daemon.every_s = 3600 }
          (Serve.Ingest.of_workload ~days:3 ~seed:11 w)
      in
      List.iter
        (fun (o : Serve.Retier.outcome) ->
          Printf.bprintf buf "%d %d cuts=[%s] prices=[%s] profit=%h\n"
            o.Serve.Retier.o_bin o.Serve.Retier.o_n_flows
            (String.concat ";" (List.map string_of_int o.Serve.Retier.o_cuts))
            (String.concat ";"
               (Array.to_list
                  (Array.map (Printf.sprintf "%h") o.Serve.Retier.o_prices)))
            o.Serve.Retier.o_profit)
        result.Serve.Daemon.r_outcomes)
    configs;
  Buffer.contents buf

let () =
  (* Serve engine worker tasks first if re-invoked as a subprocess
     worker (never happens under the @golden alias, but keeps the
     binary safe to run with --backend-style harnesses). *)
  Engine.Proc.maybe_run_worker ();
  match Array.to_list Sys.argv with
  | [ _; "--one"; id ] -> print_string (render_one id)
  | [ _; "--serve" ] -> print_string (render_serve ())
  | [ _; dir ] ->
      List.iter
        (fun (e : Tiered.Experiment.t) ->
          let id = e.Tiered.Experiment.id in
          let oc = open_out_bin (Filename.concat dir (id ^ ".expected")) in
          output_string oc (render_one id);
          close_out oc)
        Tiered.Experiment.all
  | _ ->
      prerr_endline "usage: golden_gen --one ID | golden_gen --serve | golden_gen DIR";
      exit 2
