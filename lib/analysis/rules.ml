type meta = { id : string; title : string; rationale : string }

let catalog =
  [
    {
      id = "D001";
      title = "no stdout writes in lib/";
      rationale =
        "In a subprocess worker stdout IS the Engine.Proc result pipe; a \
         stray print corrupts the length-prefixed protocol (the resync \
         marker in lib/engine/proc.ml exists because exactly this \
         happened).  Library code renders to buffers/formatters handed in \
         by the caller; only bin/ and bench/ own stdout.";
    };
    {
      id = "D002";
      title = "no raw Hashtbl.iter/Hashtbl.fold in lib/";
      rationale =
        "Hash-bucket traversal order is a function of the hash seed and \
         insertion history, not of the keys; if it reaches a report, grid \
         or cache-accounting path it breaks the golden suite's \
         byte-identity across jobs counts.  Route traversals through \
         Tbl.sorted_bindings / Tbl.fold_sorted / Tbl.iter_sorted instead.";
    };
    {
      id = "D003";
      title = "wall-clock and ambient randomness confined to the engine";
      rationale =
        "Unix.gettimeofday / Unix.time / Sys.time / Random.self_init anywhere outside \
         the engine's metrics plumbing (lib/engine/*, lib/core/runner.ml) \
         would let timing or seed state leak into experiment output.  \
         Model code draws randomness from an explicitly-seeded \
         Numerics.Rng handed to it.";
    };
    {
      id = "D004";
      title = "no physical equality in lib/";
      rationale =
        "== / != observe sharing, which depends on cache hits, \
         marshalling round-trips and backend choice (a procs worker never \
         shares memory with the parent).  Semantics must not change with \
         the execution plan; structural equality or an explicit mutable \
         token is always available.";
    };
    {
      id = "D005";
      title = "no bare polymorphic compare in lib/";
      rationale =
        "Stdlib.compare walks the runtime representation: on \
         float-bearing keys its NaN/-0. ordering is representational \
         rather than the IEEE semantics the surrounding arithmetic \
         assumes, it costs a C call per comparison on hot sort paths, \
         and it raises on functional values that later sneak into a \
         key.  The check is untyped and therefore flags every bare \
         `compare` in lib/ \xe2\x80\x94 spell out Float.compare / Int.compare / \
         String.compare or a typed comparator (Tbl's deliberately \
         polymorphic default carries the one blessed suppression).";
    };
    {
      id = "H001";
      title = "no exit in lib/ outside the Engine.Proc worker entry";
      rationale =
        "Library code must report failure by raising so the pool can \
         contain, retry and attribute it; calling exit tears down the \
         whole process, skips at_exit-registered flushes and kills \
         sibling domains mid-task.  Only the worker entry in \
         lib/engine/proc.ml legitimately terminates the process.";
    };
    {
      id = "H002";
      title = "Marshal.to_* requires a literal flags list at the call site";
      rationale =
        "Whether Closures (task thunks over the Proc pipe) or not \
         (cache keys must hash structurally) is a load-bearing decision; \
         an opaque flags variable hides it from review.";
    };
    {
      id = "H003";
      title = "every lib/ module has a paired .mli";
      rationale =
        "Interfaces are where determinism contracts live; a module \
         without one silently exports its internals and the unused-value \
         warnings (32/34) lose their teeth.";
    };
    {
      id = "S001";
      title = "malformed lint suppression";
      rationale =
        "A suppression comment must name the rule(s) and carry a \
         justification after a dash (`lint: allow D003 \xe2\x80\x94 reason`, \
         right after the comment opener).  One that does not parse \
         suppresses nothing, silently \xe2\x80\x94 so it is itself a finding.";
    };
    {
      id = "E001";
      title = "source file does not parse";
      rationale =
        "An unparseable file cannot be checked, so it cannot be assumed \
         clean.";
    };
    {
      id = "T001";
      title = "pool tasks must not touch unsynchronized module state";
      rationale =
        "A closure handed to Engine.Pool.map runs on another domain; if \
         anything it can reach (transitively, through the call graph) \
         writes a module-level ref/Hashtbl/Buffer without a Mutex, two \
         cells race and the result depends on the schedule.  Engine-owned \
         state is internally locked and whitelisted; everything else \
         needs Mutex.protect or a redesign that returns data instead of \
         mutating.";
    };
    {
      id = "T002";
      title = "cache keys and serve decisions must be deterministic";
      rationale =
        "Anything reachable from the Experiment memo functions or the \
         Serve.Retier entry points feeds cache keys, goldens or live \
         re-tier decisions; if a clock read, ambient randomness or \
         hash-bucket order sneaks in anywhere down the call chain, cache \
         hits stop being replays and goldens drift by machine.  The typed \
         pass walks the summaries, so a helper three calls deep is caught \
         at the root.";
    };
    {
      id = "T003";
      title = "no polymorphic =/compare at float types outside lib/numerics";
      rationale =
        "Float equality is almost never what model code means: nan <> \
         nan, -0. = 0., and two mathematically-equal folds differ in the \
         last ulp.  Comparisons instantiated at a float-involving type \
         (typed check, so partial applications and Array.sort compare \
         count) belong in lib/numerics behind an explicit tolerance.";
    };
    {
      id = "E002";
      title = "cmt artifact does not load";
      rationale =
        "The typed pass reads the .cmt files dune produces; one that \
         fails to load (version skew, truncation) silently shrinks the \
         call graph, so it is reported rather than skipped.";
    };
  ]

let known id = List.exists (fun m -> m.id = id) catalog

(* --- path scoping --------------------------------------------------------- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_lib file = has_prefix ~prefix:"lib/" file

(* D003: the engine owns wall-clock (task timing, worker timeouts) and
   the Runner books per-cell wall times. *)
let timing_whitelisted file =
  has_prefix ~prefix:"lib/engine/" file || file = "lib/core/runner.ml"

(* H001: the subprocess worker entry point must terminate the process;
   everything else in lib/ may not. *)
let worker_entry file = file = "lib/engine/proc.ml"

(* --- ident classification ------------------------------------------------- *)

let canonical lid =
  match Longident.flatten lid with
  | exception _ -> ""
  | parts -> (
      match String.concat "." parts with
      | s when has_prefix ~prefix:"Stdlib." s ->
          String.sub s 7 (String.length s - 7)
      | s -> s)

let d001_idents =
  [
    "print_char";
    "print_string";
    "print_bytes";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_int";
    "Format.print_float";
    "Format.print_char";
    "Format.print_bool";
    "Format.print_newline";
    "Format.print_space";
    "Format.print_cut";
    "Format.print_flush";
    "Format.std_formatter";
    "stdout";
    "Unix.stdout";
  ]

let d002_idents = [ "Hashtbl.iter"; "Hashtbl.fold" ]
let d003_idents =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.times";
    "Sys.time";
    "Sys.cpu_time";
    "Random.self_init";
    "Random.State.make_self_init";
  ]
let d004_idents = [ "=="; "!=" ]

(* D005: [canonical] already folds [Stdlib.compare] to [compare], so one
   name covers both spellings; qualified comparators (Float.compare,
   Finding.compare, ...) canonicalize to their qualified names and pass. *)
let d005_idents = [ "compare" ]
let h001_idents = [ "exit"; "Unix._exit" ]

let marshal_idents =
  [ "Marshal.to_string"; "Marshal.to_channel"; "Marshal.to_bytes"; "Marshal.to_buffer" ]

let is_marshal name = List.mem name marshal_idents

(* A syntactic list literal: [] or a :: chain written with brackets.
   Both parse to Pexp_construct. *)
let rec is_list_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> true
  | Pexp_construct
      ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ _; tl ]; _ })
    ->
      is_list_literal tl
  | _ -> false

(* --- the single AST pass -------------------------------------------------- *)

let check_structure ~file str =
  let findings = ref [] in
  let add ~rule loc message =
    findings := Finding.of_location ~rule ~file loc message :: !findings
  in
  let lib = in_lib file in
  (* Marshal idents already validated as part of an enclosing
     application; keyed by location so the bare-ident visit under the
     default iterator does not re-flag them. *)
  let marshal_seen : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let visit_ident loc name =
    if lib && List.mem name d001_idents then
      add ~rule:"D001" loc
        (Printf.sprintf
           "`%s` writes to stdout \xe2\x80\x94 in a Proc worker stdout is the \
            result pipe; render through a caller-supplied formatter instead"
           name);
    if lib && List.mem name d002_idents then
      add ~rule:"D002" loc
        (Printf.sprintf
           "raw `%s` traverses in hash-bucket order \xe2\x80\x94 use \
            Tbl.sorted_bindings / fold_sorted / iter_sorted so traversal \
            order cannot leak into output"
           name);
    if lib && (not (timing_whitelisted file)) && List.mem name d003_idents then
      add ~rule:"D003" loc
        (Printf.sprintf
           "`%s` outside the engine timing whitelist (lib/engine/*, \
            lib/core/runner.ml) \xe2\x80\x94 model code takes an explicit \
            Numerics.Rng / clock from its caller"
           name);
    if lib && List.mem name d004_idents then
      add ~rule:"D004" loc
        (Printf.sprintf
           "physical equality `%s` observes sharing, which varies with \
            cache hits and backend \xe2\x80\x94 use structural equality or an \
            explicit token"
           name);
    if lib && List.mem name d005_idents then
      add ~rule:"D005" loc
        (Printf.sprintf
           "bare polymorphic `%s` \xe2\x80\x94 representational ordering on \
            float-bearing keys and a C call per comparison; use \
            Float.compare / Int.compare / String.compare or a typed \
            comparator"
           name);
    if lib && (not (worker_entry file)) && List.mem name h001_idents then
      add ~rule:"H001" loc
        (Printf.sprintf
           "`%s` in library code tears down the whole process \xe2\x80\x94 raise \
            and let Engine.Pool contain and attribute the failure"
           name);
    if is_marshal name && not (Hashtbl.mem marshal_seen loc) then
      add ~rule:"H002" loc
        (Printf.sprintf
           "`%s` passed around without a literal flags list at the call \
            site \xe2\x80\x94 write the flags ([] or [Marshal.Closures]) where \
            the value is marshalled"
           name)
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        let name = canonical txt in
        if is_marshal name then begin
          Hashtbl.replace marshal_seen loc ();
          if not (List.exists (fun (_, a) -> is_list_literal a) args) then
            add ~rule:"H002" loc
              (Printf.sprintf
                 "`%s` without an explicit flags list at the call site \
                  \xe2\x80\x94 write [] or [Marshal.Closures] literally"
                 name)
        end
    | Pexp_ident { txt; loc } -> visit_ident loc (canonical txt)
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.structure iterator str;
  List.rev !findings

(* --- H003: paired interfaces ---------------------------------------------- *)

let missing_interfaces ~files =
  let mem f = List.mem f files in
  files
  |> List.filter_map (fun f ->
         if
           in_lib f
           && Filename.check_suffix f ".ml"
           && not (mem (f ^ "i"))
         then
           Some
             (Finding.v ~rule:"H003" ~file:f ~line:1 ~col:0
                "lib/ module without a paired .mli \xe2\x80\x94 determinism \
                 contracts live in interfaces")
         else None)
