(* Occurrence classification and the interprocedural effect fixpoint.

   {!Callgraph.extract} recorded raw facts; here each occurrence
   becomes either a direct effect atom, a call edge, or nothing, and
   summaries are joined over the call graph to a fixpoint.  The
   lattice (sets of {!Effects.atom}) is finite — [Mut_*] payloads are
   bounded by the module-level mutable definitions — so the monotone
   iteration terminates. *)

type provenance =
  | Direct of int * int  (* line, col of the occurrence itself *)
  | Via of string * int  (* callee node id, call-site line *)

type t = {
  node_tbl : (string, Callgraph.node) Hashtbl.t;
  order : string list;  (* node ids, sorted *)
  summaries : (string, Effects.Set.t) Hashtbl.t;
  witness : (string * Effects.atom, provenance) Hashtbl.t;
  written : (string, unit) Hashtbl.t;
      (* mutdef paths with an unguarded write outside module init *)
  mutdefs : (string, Callgraph.mutdef) Hashtbl.t;
}

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- stdlib effect classification ---------------------------------------- *)

let clock_heads =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time";
    "Monotonic_clock.now";
  ]

(* Ambient randomness: the global [Random] state.  [Random.State.*]
   is deterministic under an explicit seed — except [make_self_init],
   which reads entropy. *)
let is_rand_head q =
  q = "Random.State.make_self_init"
  || (starts_with "Random." q && not (starts_with "Random.State." q))

let hash_order_heads =
  [
    "Hashtbl.fold"; "Hashtbl.iter"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values"; "Hashtbl.stats";
  ]

let io_heads =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "prerr_string"; "prerr_endline";
    "prerr_newline"; "read_line"; "open_in"; "open_in_bin"; "open_out";
    "open_out_bin"; "close_in"; "close_out"; "input_line"; "output_string";
    "really_input_string"; "Sys.command"; "Sys.remove"; "Sys.rename";
    "Sys.readdir"; "Sys.mkdir"; "Sys.getenv"; "Sys.getenv_opt";
    "Sys.file_exists"; "Sys.is_directory";
  ]

let io_prefixes = [ "In_channel."; "Out_channel."; "Unix."; "Filename.temp" ]

let raise_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let stdlib_atoms ~handled q =
  if List.mem q clock_heads then [ Effects.Nondet_clock ]
  else if is_rand_head q then [ Effects.Nondet_rand ]
  else if List.mem q hash_order_heads then [ Effects.Nondet_hash ]
  else if List.mem q raise_heads then
    if handled then [] else [ Effects.Raises ]
  else if List.mem q io_heads || List.exists (fun p -> starts_with p q) io_prefixes
  then [ Effects.Io ]
  else []

(* --- name resolution ------------------------------------------------------ *)

(* Bare idents ([Pident]) are locals, parameters, or same-unit
   top-level values.  A closure node "M.f#closure:12" resolves in the
   scope of "M.f"; then trailing components of the scope are dropped
   until "<scope'>.<name>" names a node or mutable.  A local that
   shadows a module-level name resolves to the module-level one — a
   deliberate over-approximation. *)
let resolve_qualified ~known ~scope path =
  if String.contains path '.' then if known path then Some path else None
  else
    let scope =
      match String.index_opt scope '#' with
      | Some i -> String.sub scope 0 i
      | None -> scope
    in
    let rec up scope =
      let cand = scope ^ "." ^ path in
      if known cand then Some cand
      else
        match String.rindex_opt scope '.' with
        | Some i -> up (String.sub scope 0 i)
        | None -> None
    in
    up scope

(* --- the fixpoint --------------------------------------------------------- *)

type edge = { e_callee : string; e_handled : bool; e_line : int }

let compare_edge a b =
  match String.compare a.e_callee b.e_callee with
  | 0 -> (
      match Bool.compare a.e_handled b.e_handled with
      | 0 -> Int.compare a.e_line b.e_line
      | c -> c)
  | c -> c

let run ~trusted_prefixes ~sanitizers ~mut_whitelist (g : Callgraph.graph) =
  let node_tbl = Hashtbl.create 256 in
  List.iter (fun (n : Callgraph.node) -> Hashtbl.replace node_tbl n.n_id n)
    g.nodes;
  let mutdefs = Hashtbl.create 64 in
  List.iter
    (fun (m : Callgraph.mutdef) -> Hashtbl.replace mutdefs m.m_path m)
    g.mutables;
  let order = List.map (fun (n : Callgraph.node) -> n.n_id) g.nodes in
  let known q = Hashtbl.mem node_tbl q || Hashtbl.mem mutdefs q in
  let whitelisted q = List.exists (fun p -> starts_with p q) mut_whitelist in
  let summaries = Hashtbl.create 256 in
  let witness = Hashtbl.create 256 in
  let written = Hashtbl.create 64 in
  (* pass 1: direct atoms + call edges per node *)
  let edges : (string, edge list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (n : Callgraph.node) ->
      let direct = ref Effects.Set.empty in
      let es = ref [] in
      let add_atom (o : Callgraph.occ) a =
        if not (Effects.Set.mem a !direct) then begin
          direct := Effects.Set.add a !direct;
          Hashtbl.replace witness (n.n_id, a) (Direct (o.o_line, o.o_col))
        end
      in
      List.iter
        (fun (o : Callgraph.occ) ->
          match resolve_qualified ~known ~scope:n.n_id o.o_path with
          | Some q when Hashtbl.mem mutdefs q ->
              if not (whitelisted q || o.o_guarded) then begin
                let atom =
                  match o.o_ctx with
                  | Callgraph.Read_ctx -> Effects.Mut_read q
                  | Callgraph.Write_ctx | Callgraph.Plain ->
                      (* a bare escape may be aliased and written *)
                      Effects.Mut_write q
                in
                (match atom with
                | Effects.Mut_write _ when n.n_kind <> Callgraph.Init ->
                    Hashtbl.replace written q ()
                | _ -> ());
                add_atom o atom
              end
          | Some q when Hashtbl.mem node_tbl q ->
              es :=
                { e_callee = q; e_handled = o.o_handled; e_line = o.o_line }
                :: !es
          | _ ->
              List.iter (add_atom o) (stdlib_atoms ~handled:o.o_handled o.o_path))
        (List.rev n.n_occs);
      (* closure submissions also run: edge to the synthetic node *)
      List.iter
        (fun (s : Callgraph.submission) ->
          match s.s_target with
          | Callgraph.Closure id ->
              es := { e_callee = id; e_handled = false; e_line = s.s_line } :: !es
          | Callgraph.Named _ -> ())
        n.n_subs;
      Hashtbl.replace summaries n.n_id !direct;
      Hashtbl.replace edges n.n_id
        (List.sort_uniq compare_edge (List.rev !es)))
    g.nodes;
  (* pass 2: monotone join to a fixpoint *)
  let mask ~callee ~handled set =
    let set =
      if List.exists (fun p -> starts_with p callee) trusted_prefixes then
        Effects.Set.filter (fun a -> not (Effects.is_nondet a)) set
      else set
    in
    let set =
      if List.mem callee sanitizers then
        Effects.Set.remove Effects.Nondet_hash set
      else set
    in
    if handled then Effects.Set.remove Effects.Raises set else set
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let cur = Hashtbl.find summaries id in
        let next = ref cur in
        List.iter
          (fun e ->
            let callee_sum =
              match Hashtbl.find_opt summaries e.e_callee with
              | Some s -> s
              | None -> Effects.Set.empty
            in
            let incoming = mask ~callee:e.e_callee ~handled:e.e_handled callee_sum in
            Effects.Set.iter
              (fun a ->
                if not (Effects.Set.mem a !next) then begin
                  next := Effects.Set.add a !next;
                  Hashtbl.replace witness (id, a) (Via (e.e_callee, e.e_line))
                end)
              incoming)
          (Hashtbl.find edges id);
        if not (Effects.Set.equal cur !next) then begin
          Hashtbl.replace summaries id !next;
          changed := true
        end)
      order
  done;
  { node_tbl; order; summaries; witness; written; mutdefs }

let summary t id =
  match Hashtbl.find_opt t.summaries id with
  | Some s -> s
  | None -> Effects.Set.empty

let node t id = Hashtbl.find_opt t.node_tbl id

let resolve t ~scope path =
  resolve_qualified ~known:(Hashtbl.mem t.node_tbl) ~scope path

let written_unguarded t p = Hashtbl.mem t.written p

let mutdef t p = Hashtbl.find_opt t.mutdefs p

(* Reconstruct how [atom] reached [id]: call-site hops, ending at the
   node that produces the atom directly.  Provenances always point at
   a strictly earlier discovery, so this terminates. *)
let chain t id atom =
  let rec go acc id =
    match Hashtbl.find_opt t.witness (id, atom) with
    | None -> List.rev acc
    | Some (Direct (line, _)) -> List.rev ((id, line) :: acc)
    | Some (Via (callee, line)) -> go ((id, line) :: acc) callee
  in
  go [] id

let golden t =
  List.map (fun id -> (id, summary t id)) t.order
