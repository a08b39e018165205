(** Explicit-registry metrics: counters, gauges and duration histograms.

    A registry is a flat name -> instrument table. Instruments are
    created on first lookup and shared afterwards, so independent call
    sites that agree on a name accumulate into the same cell. Looking up
    an existing instrument takes no lock: it searches an immutable
    snapshot of the table. The registry lock is taken only to create an
    instrument, so [metrics.registry] acquisitions count creations. A
    lookup still costs a map search by name, so paths that run per
    scenario, job, grant or evaluation hold on to the returned
    instrument or resolve a {!handle}.

    Time comes from the OS monotonic clock (CLOCK_MONOTONIC), never from
    the wall clock, so histograms survive NTP steps.

    Every instrument is domain-safe: counters and gauges are
    Atomic-backed, histogram updates take a per-instrument lock and
    instrument creation is serialized (concurrent creators of one name
    all get the one instrument that was published), so hooks may fire concurrently
    from worker domains (the design solver's parallel refit does) without
    losing updates. Renderers ({!pp}, {!to_json}) read through
    {!snapshot}, which copies each instrument under its lock — dumping a
    registry while workers observe into it can never show a torn
    (count, sum, min, max) tuple.

    Histograms bucket their samples into fixed quarter-power-of-two
    ranges spanning ~15 ns to 64 s, giving {!percentile} estimates
    accurate to a bucket width (~19%, tightened by interpolation and by
    clamping into the exact observed [min, max]).

    The registry's own mutexes (instrument creation, per-histogram
    update) are {!Lockstat}-wrapped; {!lock_stats} reports how much the
    instrumentation itself contends. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> string -> counter
(** Idempotent by name. @raise Invalid_argument if [name] is already
    registered as a different instrument kind. *)

val gauge : registry -> string -> gauge
val histogram : registry -> string -> histogram

(** {1 Handles} *)

type 'a handle
(** An instrument named once, where the code is loaded. A hot path that
    would otherwise name its instrument on every call resolves a handle
    instead: the name is looked up only the first time in a registry. *)

val counter_handle : string -> counter handle
val gauge_handle : string -> gauge handle
val histogram_handle : string -> histogram handle

val resolve : registry -> 'a handle -> 'a
(** The handle's instrument in [registry]. The handle remembers the last
    registry it was resolved in, so resolving again there is one atomic
    read, with no lookup and no lock; another registry is looked up by
    name and then remembered instead. *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit

val gauge_max : gauge -> float -> unit
(** Raise the gauge to [v] if [v] exceeds its current value (CAS loop;
    domain-safe running maximum). *)

val value : gauge -> float

val observe : histogram -> float -> unit
(** Record one duration, in seconds. Negative or NaN samples are dropped.
    One uncontended lock acquisition and no allocation. *)

val observe_list : histogram -> float list -> unit
(** {!observe} each sample, in list order, under one lock acquisition —
    for a caller that gathers a batch of samples before publishing. *)

val observations : histogram -> int
val total : histogram -> float
val mean : histogram -> float
(** 0 when empty. *)

val hist_min : histogram -> float
val hist_max : histogram -> float
(** 0 when empty. *)

val percentile : histogram -> float -> float
(** [percentile h q] estimates the [q]-quantile ([q] in [0, 1]) of the
    observed samples from the bucket counts: linear interpolation inside
    the covering bucket, clamped into the exact observed [min, max].
    0 when empty. @raise Invalid_argument when [q] is outside [0, 1]. *)

val now_s : unit -> float
(** Monotonic time in seconds since an arbitrary origin. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and {!observe} its monotonic duration, exceptions
    included. *)

(** {1 Snapshots} — consistent point-in-time copies for rendering. *)

type histogram_snapshot = {
  snap_count : int;
  snap_total : float;
  snap_mean : float;
  snap_min : float;
  snap_max : float;
  snap_p50 : float;
  snap_p90 : float;
  snap_p99 : float;
}

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

val snapshot : registry -> (string * value) list
(** Every instrument, sorted by name, each copied under its own lock.
    Safe to call while worker domains observe concurrently. *)

val snapshot_histogram : histogram -> histogram_snapshot

val names : registry -> string list
(** Sorted registered names. *)

val lock_stats : registry -> (string * Lockstat.stats) list
(** Contention of the registry's own mutexes:
    [("metrics.registry", _)] (instrument creation only; lookups of
    existing instruments do not lock) and
    [("metrics.histograms", _)] (all histogram updates, aggregated). *)

val pp : Format.formatter -> registry -> unit
(** Plain-text rendering, one instrument per line, sorted by name;
    histograms include p50/p90/p99. *)

val to_json : registry -> string
(** JSON object keyed by instrument name; counters render as integers,
    gauges as numbers, histograms as
    [{"count":n,"total_s":t,"mean_s":m,"min_s":a,"max_s":b,
      "p50_s":_,"p90_s":_,"p99_s":_}]. *)

(**/**)

val histogram_snapshot_json : histogram_snapshot -> string
(** The single-histogram JSON object above — shared with {!Prof}'s
    report serializer. *)

val json_escape : string -> string
val json_float : float -> string
