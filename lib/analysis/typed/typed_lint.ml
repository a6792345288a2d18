(* Driver for the rules: cmts -> facts -> fixpoint -> findings.

   Findings are plain {!Analysis.Finding.t}s, classified against the
   inline suppressions by {!Analysis.Lint}. *)

type outcome = {
  findings : Analysis.Finding.t list;
      (* every rule's findings plus E002 load/coverage errors, sorted *)
  summaries : (string * Effects.Set.t) list;  (* sorted by node id *)
  units : int;  (* implementation modules analyzed *)
}

let run ?(config = Rules_typed.default) ~root ~files () =
  match Cmt_load.discover ~root ~files with
  | [] ->
      Error
        "no .cmt artifacts under the scanned directories \xe2\x80\x94 run `dune \
         build` first"
  | cmts ->
      let units, load_errors = Cmt_load.load ~files cmts in
      let unchecked =
        List.filter_map
          (fun file ->
            if
              Filename.check_suffix file ".ml"
              && not
                   (List.exists
                      (fun (u : Cmt_load.unit_info) -> u.ui_source = file)
                      units)
            then
              Some
                (Analysis.Finding.v ~rule:"E002" ~file ~line:1 ~col:0
                   "no loaded .cmt has this source, so no rule checked it \
                    \xe2\x80\x94 run `dune build @check`")
            else None)
          files
      in
      let lib =
        List.filter
          (fun (u : Cmt_load.unit_info) -> Analysis.Rules.in_lib u.ui_source)
          units
      in
      let graph =
        Callgraph.extract ~sinks:config.Rules_typed.pool_sinks
          ~safe_type_heads:config.Rules_typed.safe_type_heads lib
      in
      let t =
        Summarize.run ~trusted_prefixes:config.Rules_typed.trusted_prefixes
          ~sanitizers:config.Rules_typed.sanitizers
          ~mut_whitelist:config.Rules_typed.mut_whitelist graph
      in
      let findings =
        List.sort Analysis.Finding.compare
          (load_errors @ unchecked @ Rules_typed.run config t graph units)
      in
      Ok { findings; summaries = Summarize.golden t; units = List.length units }

let golden_string summaries =
  Analysis.Json.to_string (Effects.golden_json summaries) ^ "\n"

(* Debug rendering for `tiered-lint --typed-dump`: every summary on
   one line, pure nodes elided. *)
let dump outcome =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%d units, %d summaries\n" outcome.units
    (List.length outcome.summaries);
  List.iter
    (fun (id, set) ->
      if not (Effects.Set.is_empty set) then
        Printf.bprintf buf "%s: %s\n" id
          (String.concat ", "
             (List.map Effects.to_string (Effects.Set.elements set))))
    outcome.summaries;
  Buffer.contents buf
