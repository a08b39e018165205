(** The design solver (Section 3.1, Algorithm 1).

    Stage 1 — greedy best-fit: starting from an empty design, repeatedly
    pick an unassigned application (probability weighted by its penalty
    rates, favoring stringent apps), try every eligible data protection
    technique for it and keep the cheapest. Restart when the remaining
    apps cannot be placed.

    Stage 2 — refit: randomized local search around the greedy design.
    Each round explores [breadth] neighbors; from each neighbor a
    depth-first walk of [depth] levels evaluates [breadth] random
    reconfigurations per level and descends into the best. The best node
    seen replaces the incumbent; rounds without improvement count toward a
    patience limit, after which the search stops (local optimum). The
    whole search can be restarted; randomization makes every restart
    explore differently, which is how the heuristic escapes local minima. *)

module App = Ds_workload.App
module Env = Ds_resources.Env
module Likelihood = Ds_failure.Likelihood

type params = {
  breadth : int;  (** [b] in Algorithm 1; the paper uses 3. *)
  depth : int;  (** [d] in Algorithm 1; the paper uses 5. *)
  refit_rounds : int;  (** Max refit iterations ([rfgCnt] limit). *)
  patience : int;  (** Stop after this many rounds without improvement. *)
  stage1_restarts : int;  (** Greedy restarts when placement gets stuck. *)
  seed : int;
  options : Config_solver.options;
  polish : Config_solver.options option;
      (** Configuration options for the final pass over the winning
          design; [None] skips the polish (used by ablations and by tests
          comparing against ground truth at matched strength). *)
  config_cache_size : int;
      (** LRU bound of the per-solve configuration-solver memo cache.
          The refit stage re-evaluates near-identical designs; the cache
          returns the recorded result for (design, likelihood, options)
          keys already solved. One cache is created per [solve] and
          shared by the greedy, refit and polish stages. [0] disables
          caching ([dstool --no-config-cache]). Result-transparent
          either way: a fixed seed yields a byte-identical design. *)
  domains : int;
      (** Number of OCaml domains running each greedy step's technique
          menu and each refit round's [breadth] probe walks ([dstool
          --domains]); configuration solves themselves always run on
          one domain. [1] (the default) runs them in order on the
          calling domain. The probes are scheduled by
          {!Ds_exec.Exec}, whose pre-split/index-order-merge contract
          makes the domain count pure scheduling: every probe's RNG
          stream is pre-split from the round's generator in probe-index
          order before any probe runs, each probe works on a fork of
          the search state, and forks are merged back (cost ties broken
          toward the lowest probe index) in probe-index order. A fixed
          seed therefore yields a byte-identical design and the same
          evaluation count whatever [domains] is. Values [< 1] behave
          like [1]. *)
}

val default_params : params
(** b = 3, d = 5, 12 refit rounds, patience 3, 5 restarts, seed 42,
    search-grade configuration options, full-strength final polish,
    1024-entry configuration-solver cache, 1 domain (sequential). *)

type outcome = {
  best : Candidate.t;
  evaluations : int;
      (** Configuration-solver invocations performed — {e every} call
          issued on behalf of the search: per-placement calls, the
          complete-design re-evaluations of each stage-1 restart, refit
          moves, and the final polish. Matches the [solver.evaluations]
          metric when observability is on. *)
  refit_rounds_run : int;
  improved_by_refit : bool;  (** Whether stage 2 beat the greedy design. *)
  greedy_cost : Ds_units.Money.t;
      (** Total cost of the stage-1 design the refit started from. The
          portfolio meta-solver uses [greedy_cost - cost best] as an
          observed refit-improvement sample for its racing bound. *)
  raced_off : bool;
      (** Whether the [abandon] hook cut the refit rounds short. Always
          [false] without the hook. *)
}

val greedy : Reconfigure.state -> params -> Env.t -> App.t list -> Candidate.t option
(** Stage 1 only (exposed for tests and ablations). *)

val refit : Reconfigure.state -> params -> Candidate.t -> Candidate.t * int
(** Stage 2 only: returns the refined candidate and rounds run. *)

val solve :
  ?params:params ->
  ?obs:Ds_obs.Obs.t ->
  ?rng:Ds_prng.Rng.t ->
  ?abandon:(float -> bool) ->
  ?memo:Config_solver.cache ->
  Env.t ->
  App.t list ->
  Likelihood.t ->
  outcome option
(** The full design tool. [None] when no feasible complete design was
    found within the restart budget.

    [memo] shares a caller-held configuration cache across solves (the
    server keeps one resident for its whole lifetime); by default each
    solve gets a fresh cache of [params.config_cache_size] entries (none
    when that is 0). The cache is result-transparent, so sharing cannot
    change the design — only the hit/miss split. An explicit [memo] wins
    over [params.config_cache_size], including over 0.

    [rng] overrides the generator (default [Rng.of_int params.seed]) —
    the portfolio meta-solver hands each restart a pre-split stream.
    [abandon], probed with the incumbent's cost in dollars at the top of
    every refit round, lets a caller cut the remaining rounds short
    (racing); the run still polishes and returns a complete outcome with
    [raced_off = true]. [abandon] must not consult the RNG: the rounds a
    raced run does execute are byte-identical to the unraced run's
    prefix.

    [obs] (default: the noop sink) records [solver.*] spans and counters,
    the incumbent-cost-vs-evaluation progress stream, the
    [config.cache_hits] / [config.cache_misses] / [config.cache_evictions]
    memo-cache counters, and flows down through the configuration solver
    into the recovery simulator. Instrumentation never touches the RNG: a
    fixed seed returns the identical design with observability on or off,
    and with the configuration cache on or off. *)

val resolve :
  ?params:params ->
  ?obs:Ds_obs.Obs.t ->
  ?rng:Ds_prng.Rng.t ->
  ?memo:Config_solver.cache ->
  incumbent:Ds_design.Design.t ->
  dirty:App.id list ->
  Env.t ->
  App.t list ->
  Likelihood.t ->
  outcome option
(** Warm-start re-solve from [incumbent] after the inputs drifted.

    The incumbent is rebased onto the current [env]/[apps]
    ({!Ds_design.Design.rebase}): assignments carry over by app id with
    device models re-resolved by name, so a re-priced catalog entry
    takes effect without moving anything. The effective dirty set is
    [dirty] (ids absent from [apps] are ignored) plus any assignment
    rebase could not carry plus any app with nothing to carry (new
    arrivals). Only dirty apps are stripped and greedy-re-placed
    (penalty-weighted, with stage-1 restarts), only they are eligible
    refit victims, and the final polish re-opens windows for the dirty
    set alone — untouched assignments are never rewritten, and the
    evaluation bill scales with the dirty set, not the fleet size.

    {b Anytime floor}: when the rebased incumbent still covers every
    app, it is re-costed once under the current inputs (windows and
    placement kept) and the result is never costlier than that floor —
    on a cost tie the incumbent's bytes win, so an unimproved re-solve
    (in particular one with an empty effective dirty set) returns a
    byte-identical design. With new apps present the incumbent is
    incomplete, not a candidate, and no floor applies. [None] only when
    there is no floor and the dirty apps cannot be placed.

    [outcome.greedy_cost] is the re-placement seed's cost (the floor's
    when re-placement fell back to it); [raced_off] is always [false].

    [memo] shares a configuration-solver cache across re-solves (the
    fleet coordinator passes one per reconcile sequence); by default a
    fresh cache of [params.config_cache_size] entries is used. Same
    determinism contract as {!solve}: fixed seed, byte-identical at
    every [params.domains]. *)
