(** Deterministic domain-pool executor.

    Every parallel layer in this tree (the design solver's refit probes,
    the Monte Carlo year simulation, the experiment sweeps) has the same
    shape: a fixed array of independent tasks whose results must not
    depend on how they are scheduled. This module owns that contract
    once, in one map, instead of each layer re-deriving it by hand:

    - {b RNG pre-splitting.} {!map_rng} splits one generator per task
      off the caller's stream {e in task-index order, before any task
      runs}, so every task's randomness is fixed independent of which
      domain executes it or in what order tasks finish.
    - {b Index-order merge.} Results come back as an array indexed like
      the input: position [i] holds task [i]'s result, whatever the
      schedule. Callers that fold results do so in task-index order,
      making tie-breaking schedule-independent.
    - {b Per-worker observability.} Task [i] runs under its worker's
      capability: the caller's own on the calling domain, a trace-lane
      fork of it on every other domain (metrics and progress sinks are
      domain-safe and shared).
    - {b Exception capture.} A task that raises does not tear down a
      worker domain mid-pool: exceptions are caught where they occur
      and re-raised on the calling domain after every domain joins —
      the lowest-index failure wins, with its original backtrace.
      Which {e other} tasks ran by then is unspecified.

    The contract, identical to the parallel refit's (DESIGN.md §10):
    {b the domain count is pure scheduling — a fixed seed yields
    bit-identical results whatever [domains] is.} *)

module Rng = Ds_prng.Rng
module Obs = Ds_obs.Obs

type pool
(** A scheduling handle: how many OCaml domains a [map] may use.
    Pools are cheap immutable values, reusable across any number of
    calls; domains are spawned per call (and only when both the pool
    and the task count allow more than one worker). *)

val create : ?domains:int -> unit -> pool
(** [create ~domains ()] makes a pool of at most [domains] workers
    (default [1]). [domains = 1] degrades {!map} to a plain sequential
    loop on the calling domain.
    @raise Invalid_argument when [domains < 1]. *)

val sequential : pool
(** [create ~domains:1 ()]. *)

val auto_width : ?threshold_s:float -> pool -> pool
(** [auto_width pool] turns on stage-aware width auto-sizing: per map
    [label], the pool remembers the observed per-task cost (an EWMA of
    busy seconds per task) and sizes the next map of that label so
    each worker's projected share is around [threshold_s] seconds
    (default [1e-3], about 10x a domain spawn/join round trip). A
    label's first map runs at full width and learns; later maps whose
    projected serial time falls under the threshold clamp to one
    worker and pay zero spawn/join. A one-domain pool is returned
    as is: its width can never change, so there is nothing to learn.

    Width is pure scheduling — the strided schedule, pre-split RNG and
    index-order merges make every width byte-identical — so the
    (timing-dependent) width choice cannot steer results; it only
    moves wall time. Returns a new pool; the receiver is unchanged.
    The cost table is shared by everything mapping through the
    returned pool and is domain-safe.
    @raise Invalid_argument when [threshold_s <= 0]. *)

val width_for : pool -> label:string -> tasks:int -> int
(** The width the pool would give a map of [tasks] tasks under
    [label] right now: [workers pool ~tasks] for non-auto pools or
    unknown labels, else the learned clamp (1 when the projected
    serial time is under the threshold). Exposed for tests; the
    estimate moves as maps run. *)

val domains : pool -> int

val workers : pool -> tasks:int -> int
(** The number of domains a map over [tasks] tasks may use:
    [max 1 (min (domains pool) tasks)] — never more domains than
    tasks. *)

val map :
  pool ->
  ?label:string ->
  ?obs:Obs.t ->
  (Obs.t -> int -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map pool ~obs f tasks] is [Array.mapi (f obs) tasks], scheduled
    across up to [workers pool ~tasks] domains with a strided schedule
    (worker [k] runs tasks [k], [k + w], ...). Task [i] runs as
    [f wobs i tasks.(i)] under its worker's capability [wobs]; tasks
    must not share mutable state unless that state is domain-safe.
    [label] (default ["exec.map"]) names the region span and keys the
    width learning of {!auto_width} pools; [obs] defaults to
    {!Ds_obs.Obs.noop}. A one-domain pool with an all-off [obs] is
    exactly [Array.mapi (f obs) tasks].

    With sinks attached, each map also records, from the calling
    domain after the join:

    - counters [exec.maps], [exec.tasks] (submitted),
      [exec.tasks_completed] (failed tasks included),
      [exec.minor_collections], [exec.major_collections];
    - gauges [exec.workers_max] (running maximum pool width),
      [exec.minor_words] / [exec.major_words] (accumulated Gc deltas
      across workers);
    - histograms [exec.map_wall_s] (whole parallel region),
      [exec.spawn_s] / [exec.join_s] (domain fork/join overhead, only
      when more than one worker ran), [exec.worker_busy_s] /
      [exec.worker_idle_s] (one sample per worker per map; idle is
      region wall minus that worker's busy time),
      [exec.busy_imbalance_s] and [exec.task_imbalance] (max − min
      across workers; the strided schedule bounds the latter by 1).

    With a trace sink, the region is a span named [label] wrapping one
    ["worker"] span per worker and one ["task"] span per task; worker
    domains record into per-lane collectors ({!Ds_obs.Obs.fork_lane},
    one [tid] per domain) that are merged back in worker-index order
    after every domain joins, so Chrome export shows one lane per
    domain and the exported span list is deterministic. None of this
    draws RNG. *)

val map_rng :
  pool ->
  ?label:string ->
  ?obs:Obs.t ->
  rng:Rng.t ->
  (Obs.t -> Rng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_rng pool ~rng f tasks] first advances [rng] by splitting one
    independent stream per task (in task-index order, on the calling
    domain), then runs [f wobs stream.(i) tasks.(i)] through {!map}.
    The per-task draws are therefore a function of [rng]'s state and
    the task count alone — never of the domain count or of [obs]. *)
