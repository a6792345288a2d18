(* Every rule that reads code, over the typed trees.

   T001  parallel tasks must not touch unsynchronized module state
   T002  cache keys / experiment cells / retier entry points must be
         transitively deterministic
   T003  polymorphic =, <> or compare instantiated at a float type
   D001-D005, H001, H002  per-identifier determinism and hygiene
         rules (catalogued in {!Analysis.Rules})

   T001/T002 read the fixpoint summaries from {!Summarize}; the rest
   are one shallow walk over each typed tree (they need resolved paths
   and instantiated types, not the call graph). *)

type config = {
  pool_sinks : string list;
      (* application heads whose function argument runs on the pool *)
  safe_type_heads : string list;
      (* type constructors exempt from the module-mutable scan *)
  trusted_prefixes : string list;
      (* callees whose Nondet atoms stop at the call boundary *)
  sanitizers : string list;  (* callees that strip hash-order nondeterminism *)
  mut_whitelist : string list;
      (* mutable paths that are internally synchronized *)
  t002_roots : string list;  (* exact node ids that must be deterministic *)
  t002_root_prefixes : string list;  (* id prefixes, e.g. "Serve.Retier." *)
  float_exempt : string list;  (* source prefixes exempt from T003 *)
}

let default =
  {
    pool_sinks = [ "Engine.Pool.map"; "Engine.Pool.map_list" ];
    safe_type_heads = [ "Mutex.t"; "Atomic.t"; "Engine.Cache.t" ];
    (* "Engine." deliberately spans the whole execution layer, including
       the Engine.Transport scheduler behind the Procs worker pipes: its
       select loop, retry state and CAS traffic are internally
       synchronized, so its Nondet atoms stop at the call boundary. *)
    trusted_prefixes = [ "Engine."; "Tiered.Runner." ];
    sanitizers =
      [
        "Tbl.sorted_bindings"; "Tbl.fold_sorted"; "Tbl.iter_sorted";
        "Tbl.sorted_keys";
      ];
    mut_whitelist = [ "Engine." ];
    t002_roots =
      [
        "Tiered.Experiment.workload"; "Tiered.Experiment.dataset";
        "Tiered.Experiment.market"; "Tiered.Experiment.context";
        "Tiered.Experiment.run_cells";
      ];
    t002_root_prefixes = [ "Serve.Retier." ];
    float_exempt = [ "lib/numerics/" ];
  }

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let render_chain hops =
  String.concat " -> "
    (List.map (fun (id, line) -> Printf.sprintf "%s:%d" id line) hops)

(* --- T001: data races through the pool ------------------------------------ *)

let t001 t (g : Callgraph.graph) =
  let findings = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun (s : Callgraph.submission) ->
          let target =
            match s.s_target with
            | Callgraph.Closure id -> Some id
            | Callgraph.Named p -> Summarize.resolve t ~scope:n.n_id p
          in
          match target with
          | None -> ()  (* opaque function value: nothing to look up *)
          | Some id ->
              let sum = Summarize.summary t id in
              let reported_writes = ref [] in
              Effects.Set.iter
                (fun a ->
                  match a with
                  | Effects.Mut_write p ->
                      reported_writes := p :: !reported_writes;
                      findings :=
                        Analysis.Finding.v ~rule:"T001" ~file:n.n_file
                          ~line:s.s_line ~col:s.s_col
                          (Printf.sprintf
                             "task submitted to the pool writes module-level \
                              mutable `%s` without a lock (%s)"
                             p
                             (render_chain (Summarize.chain t id a)))
                        :: !findings
                  | _ -> ())
                sum;
              Effects.Set.iter
                (fun a ->
                  match a with
                  | Effects.Mut_read p
                    when (not (List.mem p !reported_writes))
                         && Summarize.written_unguarded t p ->
                      findings :=
                        Analysis.Finding.v ~rule:"T001" ~file:n.n_file
                          ~line:s.s_line ~col:s.s_col
                          (Printf.sprintf
                             "task submitted to the pool reads module-level \
                              mutable `%s`, which is written elsewhere \
                              without a lock (%s)"
                             p
                             (render_chain (Summarize.chain t id a)))
                        :: !findings
                  | _ -> ())
                sum)
        n.n_subs)
    g.nodes;
  List.rev !findings

(* --- T002: determinism taint ---------------------------------------------- *)

let t002 cfg t (g : Callgraph.graph) =
  let is_root id =
    List.mem id cfg.t002_roots
    || List.exists (fun p -> starts_with p id) cfg.t002_root_prefixes
  in
  let findings = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if is_root n.n_id then
        Effects.Set.iter
          (fun a ->
            if Effects.is_nondet a then
              findings :=
                Analysis.Finding.v ~rule:"T002" ~file:n.n_file ~line:n.n_line
                  ~col:n.n_col
                  (Printf.sprintf
                     "`%s` feeds cache keys or serve decisions but %s (%s)"
                     n.n_id (Effects.describe a)
                     (render_chain (Summarize.chain t n.n_id a)))
                :: !findings)
          (Summarize.summary t n.n_id))
    g.nodes;
  List.rev !findings

(* --- per-occurrence rules: D001-D005, H001, H002, T003 ------------------ *)

(* D003: the engine owns wall-clock (task timing, worker timeouts) and
   the Runner books per-cell wall times. *)
let timing_whitelisted file =
  starts_with "lib/engine/" file || file = "lib/core/runner.ml"

(* H001: the subprocess worker entry point must terminate the process;
   everything else in lib/ may not. *)
let worker_entry file = file = "lib/engine/proc.ml"

(* D001 is stdout only, so it keeps its own list: the effect
   summaries' [Io] heads also cover stderr, files and processes. *)
let d001_heads =
  [
    "print_char"; "print_string"; "print_bytes"; "print_int"; "print_float";
    "print_endline"; "print_newline"; "Printf.printf"; "Format.printf";
    "Format.print_string"; "Format.print_int"; "Format.print_float";
    "Format.print_char"; "Format.print_bool"; "Format.print_newline";
    "Format.print_space"; "Format.print_cut"; "Format.print_flush";
    "Format.std_formatter"; "stdout"; "Unix.stdout";
  ]

let h001_heads = [ "exit"; "Unix._exit" ]

let marshal_heads =
  [
    "Marshal.to_string"; "Marshal.to_channel"; "Marshal.to_bytes";
    "Marshal.to_buffer";
  ]

let polymorphic_cmp_heads = [ "="; "<>"; "compare" ]

let rec mentions_float fuel (ty : Types.type_expr) =
  fuel > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      Path.same p Predef.path_float
      || List.exists (mentions_float (fuel - 1)) args
  | Types.Ttuple ts -> List.exists (mentions_float (fuel - 1)) ts
  | Types.Tarrow (_, a, b, _) ->
      mentions_float (fuel - 1) a || mentions_float (fuel - 1) b
  | _ -> false

(* Comparing against a bare constant constructor (None, []) only
   inspects the tag — no float payload is ever dereferenced — so
   `opt = None` on a float-carrying option is exempt from T003. *)
let is_constant_construct (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> cd.Types.cstr_arity = 0
  | _ -> false

(* H002: [] or a :: chain written at the call site. *)
let rec is_list_literal (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "[]"; _ }, []) -> true
  | Texp_construct (_, { cstr_name = "::"; _ }, [ _; tl ]) -> is_list_literal tl
  | _ -> false

let finding_at ~rule ~file (loc : Location.t) message =
  let pos = loc.loc_start in
  Analysis.Finding.v ~rule ~file ~line:pos.pos_lnum
    ~col:(pos.pos_cnum - pos.pos_bol) message

(* One walk per unit.  Every rule matches the name an occurrence
   resolves to, in {!Callgraph.canonical_path} form, so `open Unix`
   and `module H = Hashtbl` are seen through; a value bound inside
   the unit (a local [compare]) names nothing global and is skipped. *)
let check_unit cfg (u : Cmt_load.unit_info) =
  let file = u.ui_source in
  let lib = Analysis.Rules.in_lib file in
  let t003 =
    lib && not (List.exists (fun p -> starts_with p file) cfg.float_exempt)
  in
  let findings = ref [] in
  let add rule loc message =
    findings := finding_at ~rule ~file loc message :: !findings
  in
  let aliases = Hashtbl.create 8 in
  let rec expand (p : Path.t) : Path.t =
    match p with
    | Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some q -> q
        | None -> p)
    | Pdot (q, s) -> Pdot (expand q, s)
    | Papply _ | Pextra_ty _ -> p
  in
  let record_alias id (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _)
    | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
        Hashtbl.replace aliases (Ident.unique_name id) (expand p)
    | _ -> ()
  in
  let global_name p =
    let p = expand p in
    if Ident.global (Path.head p) then Some (Callgraph.canonical_path p)
    else None
  in
  (* [args] is [Some] when the occurrence heads an application. *)
  let check (e : Typedtree.expression) name ~args =
    let loc = e.exp_loc in
    if lib && List.mem name d001_heads then
      add "D001" loc
        (Printf.sprintf
           "`%s` writes to stdout \xe2\x80\x94 in a Proc worker stdout is the \
            result pipe; render through a caller-supplied formatter instead"
           name);
    if lib && List.mem name Summarize.hash_order_heads then
      add "D002" loc
        (Printf.sprintf
           "raw `%s` traverses in hash-bucket order \xe2\x80\x94 use \
            Tbl.sorted_bindings / fold_sorted / iter_sorted so traversal \
            order cannot leak into output"
           name);
    if
      lib
      && (not (timing_whitelisted file))
      && (List.mem name Summarize.clock_heads || Summarize.is_rand_head name)
    then
      add "D003" loc
        (Printf.sprintf
           "`%s` outside the engine timing whitelist (lib/engine/*, \
            lib/core/runner.ml) \xe2\x80\x94 model code takes an explicit \
            Numerics.Rng / clock from its caller"
           name);
    if lib && (name = "==" || name = "!=") then
      add "D004" loc
        (Printf.sprintf
           "physical equality `%s` observes sharing, which varies with \
            cache hits and backend \xe2\x80\x94 use structural equality or an \
            explicit token"
           name);
    if lib && name = "compare" then
      add "D005" loc
        (Printf.sprintf
           "bare polymorphic `%s` \xe2\x80\x94 representational ordering on \
            float-bearing keys and a C call per comparison; use \
            Float.compare / Int.compare / String.compare or a typed \
            comparator"
           name);
    if lib && (not (worker_entry file)) && List.mem name h001_heads then
      add "H001" loc
        (Printf.sprintf
           "`%s` in library code tears down the whole process \xe2\x80\x94 raise \
            and let Engine.Pool contain and attribute the failure"
           name);
    (if List.mem name marshal_heads then
       match args with
       | None ->
           add "H002" loc
             (Printf.sprintf
                "`%s` passed around without a literal flags list at the call \
                 site \xe2\x80\x94 write the flags ([] or [Marshal.Closures]) where \
                 the value is marshalled"
                name)
       | Some args when not (List.exists is_list_literal args) ->
           add "H002" loc
             (Printf.sprintf
                "`%s` without an explicit flags list at the call site \
                 \xe2\x80\x94 write [] or [Marshal.Closures] literally"
                name)
       | Some _ -> ());
    if
      t003
      && List.mem name polymorphic_cmp_heads
      && mentions_float 8 e.exp_type
      && not
           (match args with
           | Some args -> List.exists is_constant_construct args
           | None -> false)
    then
      add "T003" loc
        (Printf.sprintf
           "polymorphic `%s` used at a float-involving type; use an explicit \
            tolerance or Float.compare (floats under `=` break on nan and on \
            accumulated rounding)"
           name)
  in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Option.iter (check e ~args:None) (global_name p)
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as head), args) ->
        let args = List.filter_map snd args in
        Option.iter (check head ~args:(Some args)) (global_name p);
        List.iter (sub.Tast_iterator.expr sub) args
    | Texp_letmodule (Some id, _, _, me, _) ->
        record_alias id me;
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    Option.iter (fun id -> record_alias id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it u.ui_structure;
  List.rev !findings

let per_occurrence cfg units = List.concat_map (check_unit cfg) units

let run cfg t (g : Callgraph.graph) (units : Cmt_load.unit_info list) =
  t001 t g @ t002 cfg t g @ per_occurrence cfg units
