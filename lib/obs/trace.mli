(** Hierarchical span tracing with per-domain lanes.

    A collector records a tree of timed spans ({!with_span} nests by
    dynamic scope) on {e one} thread of control. Parallel regions give
    each worker domain its own lane collector ({!worker}) sharing the
    parent's clock origin and tagged with a distinct [tid]; after the
    domains join, lanes are folded back with {!merge} — Chrome trace
    export then shows one lane (thread row) per domain.

    Every span also carries what its own domain allocated across its
    extent, so the trace attributes allocation as well as wall time:
    minor words from [Gc.minor_words], which is exact, and major words
    and collection counts from [Gc.quick_stat]. ([Gc.quick_stat]'s
    minor words leave out what the domain allocated since its last
    minor collection, so a short span would read 0.)

    Export either as Chrome trace-event JSON — load the file in
    [chrome://tracing] or [ui.perfetto.dev] — or as an aggregated text
    tree (per path: call count and total self+child time).

    Timestamps come from the OS monotonic clock, relative to the
    collector's creation. *)

type alloc = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  name : string;
  args : (string * string) list;
  start_ns : int64;  (** relative to the collector origin *)
  dur_ns : int64;
  depth : int;
  path : string;  (** "/"-joined ancestor names, self included *)
  tid : int;  (** lane: 1 = the creating thread, 2.. = worker lanes *)
  alloc : alloc;
}

type collector

val create : unit -> collector
(** A fresh root collector, lane [tid = 1], origin = now. *)

val worker : collector -> tid:int -> collector
(** A lane collector for one worker domain: shares [parent]'s clock
    origin, records under its own [tid], and roots its span paths under
    [parent]'s currently open span (so merged worker spans aggregate
    beneath the span that forked them). The lane must only ever be used
    from a single domain; fold it back with {!merge} after joining. *)

val merge : into:collector -> collector -> unit
(** Append a completed lane's spans into [into]. Call after the lane's
    domain has joined, in worker-index order for a deterministic span
    list; the lane must not be used afterwards. *)

val tid : collector -> int

val with_span :
  collector -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. The span closes when the thunk
    returns or raises. [args] become the Chrome event's [args] payload,
    alongside the span's allocation delta. *)

val span_count : collector -> int
(** Completed spans recorded so far (merged lanes included). *)

val spans : collector -> span list
(** Completed spans, sorted by lane then start time. *)

val to_chrome_json : collector -> string
(** The completed spans as a JSON array of complete ("ph":"X") trace
    events, timestamps and durations in microseconds, one [tid] per
    lane, allocation deltas in each event's [args]. *)

val pp_tree : Format.formatter -> collector -> unit
(** Aggregated tree: one line per distinct span path with call count and
    total duration, indented by depth, children sorted by first
    occurrence; the same path on several lanes folds into one line. *)
