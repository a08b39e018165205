(** Deterministic domain-pool executor.

    Every parallel layer in this tree (greedy placement's technique
    menu, the refit probes, portfolio restarts, fleet shards, the Monte
    Carlo years, the experiment sweeps) has the same shape: a fixed
    array of independent tasks whose results must not depend on how
    they are scheduled. This module owns that contract once, in one
    map, instead of each layer re-deriving it by hand. Work done per
    evaluation (a configuration solve's window trials and growth moves)
    runs as a loop instead: only stages whose maps all run wide use a
    pool (DESIGN.md §13).

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

val auto_width : pool -> pool
(** The identity: every map runs {!workers} wide. Kept so that callers
    written against learned-width pools still compile. *)

val domains : pool -> int

val workers : pool -> tasks:int -> int
(** The number of domains a map over [tasks] tasks uses:
    [max 1 (min (domains pool) tasks)] — never more domains than
    tasks. The width depends on nothing else, so a map's schedule never
    depends on timing. *)

val map :
  pool ->
  ?label:string ->
  ?obs:Obs.t ->
  (Obs.t -> int -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map pool ~obs f tasks] is [Array.mapi (f obs) tasks], scheduled
    across [workers pool ~tasks] domains with a strided schedule
    (worker [k] runs tasks [k], [k + w], ...). Task [i] runs as
    [f wobs i tasks.(i)] under its worker's capability [wobs]; tasks
    must not share mutable state unless that state is domain-safe.
    [label] (default ["exec.map"]) names the region span; [obs]
    defaults to {!Ds_obs.Obs.noop}. A one-domain pool with an all-off
    [obs] is exactly [Array.mapi (f obs) tasks].

    With sinks attached, each map also records, from the calling
    domain after the join:

    - counters [exec.maps], [exec.tasks] (submitted),
      [exec.tasks_completed] (failed tasks included);
    - gauge [exec.workers_max] (running maximum pool width);
    - Gc figures, counted once per outermost metered map: counters
      [exec.minor_collections] / [exec.major_collections] and gauges
      [exec.minor_words] / [exec.major_words] add the [Gc.quick_stat]
      deltas across the whole region of a map that does not run inside
      a task of another metered map, on any domain. A nested map adds
      nothing, as its allocation lies inside the outer region; so on
      one domain the figures cannot exceed what the program allocated
      meanwhile. [Gc.quick_stat] sums every domain, so work that other
      domains do during the region is included;
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
