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
         by the caller; only bin/ and examples/ own stdout.";
    };
    {
      id = "D002";
      title = "no raw Hashtbl.iter/Hashtbl.fold in lib/";
      rationale =
        "Hash-bucket traversal order is a function of the hash seed and \
         insertion history, not of the keys; if it reaches a report, grid \
         or cache-accounting path it breaks the golden suite's \
         byte-identity across jobs counts.  The flagged heads \
         (Hashtbl.iter, fold, to_seq*, stats) are the effect summaries' \
         hash-order list.  Route traversals through Tbl.sorted_bindings / \
         Tbl.fold_sorted / Tbl.iter_sorted instead.";
    };
    {
      id = "D003";
      title = "wall-clock and ambient randomness confined to the engine";
      rationale =
        "A clock read (Unix.gettimeofday / Unix.time / Sys.time / \
         Monotonic_clock.now ...) or the ambient Random state (any global \
         Random.* call, Random.State.make_self_init) \xe2\x80\x94 the effect \
         summaries' clock and randomness heads \xe2\x80\x94 anywhere outside \
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
         key.  Every use in lib/ whose name resolves to Stdlib.compare \
         is flagged, at any type; a local binding named compare is not \
         \xe2\x80\x94 spell out Float.compare / Int.compare / String.compare \
         or a typed comparator (Tbl's deliberately polymorphic default \
         carries the one blessed suppression).";
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
      title = "source without a loadable typed tree";
      rationale =
        "Every rule reads the .cmt files dune produces; a cmt that fails \
         to load (version skew, truncation), or a scanned .ml that no \
         loaded cmt names, would silently go unchecked and shrink the \
         call graph, so it is reported rather than skipped.";
    };
  ]

let known id = List.exists (fun m -> m.id = id) catalog

let in_lib file =
  String.length file >= 4 && String.sub file 0 4 = "lib/"

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
