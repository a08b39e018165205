(** Observability capability.

    Every instrumented entry point in the solver / simulation stack takes
    an [Obs.t], defaulting to {!noop}. The noop value carries no sinks:
    every hook below reduces to a branch on an immutable [None] and
    returns without allocating, so the uninstrumented path costs nothing
    and instrumentation can never change results (hooks only ever read
    solver state, never the RNG).

    Sinks are opt-in per concern: {!Metrics} (counters / gauges /
    duration histograms), {!Trace} (hierarchical spans, Chrome
    trace-event export) and {!Progress} (solver convergence stream). *)

module Metrics = Metrics
module Trace = Trace
module Progress = Progress
module Lockstat = Lockstat
module Prof = Prof

type t

val noop : t
(** The shared do-nothing capability; physically one value, compared
    against with [==] nowhere — hooks just see its [None] sinks. *)

val create : ?metrics:bool -> ?trace:bool -> ?progress:bool -> unit -> t
(** Enable the requested sinks (all default to [false];
    [create ()] is an all-off capability equivalent to {!noop}). *)

val attach :
  ?metrics:Metrics.registry ->
  ?trace:Trace.collector ->
  ?progress:Progress.stream ->
  unit -> t
(** A capability wrapping {e existing} sinks instead of fresh ones — a
    long-running server hands every request the same resident metrics
    registry while giving each its own progress stream, a mix {!create}
    cannot express. Omitted sinks stay off. *)

val metrics : t -> Metrics.registry option
val trace : t -> Trace.collector option
val progress : t -> Progress.stream option

val metrics_on : t -> bool
(** [true] when a metrics registry is attached — guard for hooks that
    would otherwise build instrument names on the hot path. *)

val fork_lane : t -> tid:int -> t * Trace.collector option
(** A worker-domain capability: same (domain-safe) metrics and progress
    sinks, but its own {!Trace.worker} lane collector tagged [tid] in
    place of the parent's. Without a trace sink this is [(t, None)].
    The lane handle must be folded back with {!merge_lane} after the
    worker's domain joins, in worker-index order. *)

val merge_lane : t -> Trace.collector option -> unit
(** Fold a joined worker lane's spans back into [t]'s collector.
    No-op when either side has no trace. *)

(** {1 Metric hooks} — no-ops without a metrics sink. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val gauge_add : t -> string -> float -> unit
val gauge_set : t -> string -> float -> unit
val observe : t -> string -> float -> unit
(** Record a duration sample (seconds) into the named histogram. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk into the named histogram; with no metrics sink this
    is exactly [f ()]. *)

(** {1 Span hooks} — no-ops without a trace sink. *)

val with_span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** {1 Progress hooks} — no-ops without a progress sink. *)

val stage : t -> evaluations:int -> string -> unit
val incumbent : t -> evaluations:int -> float -> unit

val portfolio_incumbent : t -> evaluations:int -> restart:int -> float -> unit
(** A portfolio restart improved the shared incumbent (tracked
    independently of the per-restart {!incumbent} line). *)

val shard_done : t -> evaluations:int -> shard:int -> float -> unit
(** A fleet shard's solve completed at the given cost (dollars). *)

val refit_accepted : t -> evaluations:int -> unit
val refit_rejected : t -> evaluations:int -> unit

(** {1 Sink export} *)

val write_file : string -> string -> (unit, string) result
(** [write_file path contents] writes a sink export (Chrome trace JSON,
    progress CSV, metrics dump) to [path]. An unwritable path returns
    [Error reason] rather than raising, so callers can both keep the run's
    printed results and exit nonzero — CI must see the failure. *)
