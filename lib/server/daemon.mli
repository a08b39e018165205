(** The design tool as a long-running service.

    A daemon owns the expensive state a one-shot [dstool] run rebuilds
    from scratch every time — a resident {!Ds_exec.Exec} pool, a shared
    {!Ds_solver.Memo} configuration cache, a {!Ds_obs.Metrics} registry
    and the incumbent designs of named fleets — and serves design /
    risk / fleet queries over newline-delimited JSON-RPC 2.0 on TCP
    (DESIGN.md §16). Request lines are capped at {!max_line_bytes}.

    {b Threading.} One reader systhread per connection, a bounded
    admission queue, and [concurrency] worker threads. Cheap methods
    ([health], [metrics], [cache_resize], [shutdown]) are answered
    inline by the reader; heavy ones ([solve], [resolve], [fleet],
    [risk], [sleep]) are enqueued. A full queue rejects with the
    [overloaded] error instead of blocking the reader.

    {b Determinism.} Requests carry their own seeds and run through
    {!Ds_experiments.Request}, as the CLI does; the shared memo cache is
    result-transparent and the pool is pure scheduling, so a given
    request returns the byte-identical design whether served alone,
    under concurrent load, or by [dstool solve] directly. *)

type config = {
  host : string;  (** Bind address (default ["127.0.0.1"]). *)
  port : int;  (** TCP port; [0] picks an ephemeral one (tests). *)
  concurrency : int;  (** Worker threads draining the queue. *)
  queue_depth : int;
      (** Admission bound: heavy requests beyond this many waiting are
          rejected with the [overloaded] error. *)
  budget_evals : int option;
      (** Default portfolio evaluation cap applied to [solve] requests
          that ask for restarts but no [max_evaluations] of their own. *)
  cache_capacity : int;  (** Resident configuration-cache entries. *)
  domains : int;
      (** Width of the resident pool (portfolio restarts, risk
          simulation chunks, fleet shards). Pure scheduling. *)
}

val default_config : config
(** [{ host = "127.0.0.1"; port = 7411; concurrency = 2; queue_depth =
    16; budget_evals = None; cache_capacity = 4096; domains = 1 }]. *)

type t

val max_line_bytes : int
(** The longest request line a connection may send, newline excluded:
    1 MiB. A longer line gets one [invalid_request] error naming the
    cap, and then the connection closes. *)

val create : ?registry:Ds_obs.Metrics.registry -> config -> t
(** Bind and listen (the port is fixed here — {!port} is valid before
    {!run}). [registry] shares an existing metrics registry (the bench
    harness reads server instruments out of its own); by default the
    daemon creates one. @raise Unix.Unix_error when the address is in
    use or cannot be bound. *)

val run : t -> unit
(** Serve until a [shutdown] request (or {!stop}) arrives, then drain:
    stop accepting, reject newly read requests with [shutting_down],
    finish everything already admitted, and return. Spawns its own
    worker and reader threads; blocks the calling thread. *)

val stop : t -> unit
(** Initiate the same graceful drain a [shutdown] request does.
    Thread-safe; returns immediately ({!run} returns once drained). *)

val port : t -> int
(** The bound port — the ephemeral one when the config said [0]. *)

val registry : t -> Ds_obs.Metrics.registry
(** The daemon's metrics registry ([server.*] instruments plus
    everything the solver stack records). *)
