(** Injected time for the streaming service.

    Nothing under [lib/serve] reads the wall clock directly (the D003
    lint confines [Unix.gettimeofday] to the engine); the daemon and the
    stats take a [Clock.t] instead. The CLI and the benchmark inject
    the monotonic clock, the tests a hand-advanced manual clock, so
    every re-tier latency and throughput figure is measurable without
    sleeping. *)

type t

val of_fn : (unit -> float) -> t
(** Wrap a time source returning seconds (monotonicity is the
    caller's business). *)

val now : t -> float

val manual : ?start:float -> unit -> t * (float -> unit)
(** A settable clock for tests: [now] returns whatever the returned
    setter was last called with ([start], default [0.], until then). *)
