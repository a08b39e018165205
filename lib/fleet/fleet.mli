(** Fleet-scale solving: shard by failure domain, solve shards on the
    {!Ds_exec.Exec} pool, reconcile shared-resource contention at the
    coordinator.

    The paper's solver designs protection for a handful of applications;
    a shared environment serving thousands needs two things it cannot
    give: horizontal scale (the penalty simulation is superlinear in the
    apps per design, so one thousand-app solve is far costlier than many
    small ones) and incremental re-solve under drift. This coordinator
    provides both. {!solve} partitions the fleet into shards — apps
    spread round-robin by id over the environment's failure domains
    (link-graph connected components) — solves every shard independently
    in parallel, merges the shard designs in index order, and repairs
    anything the merge broke with a bounded fix-up pass built on the
    warm-start path ({!Ds_solver.Design_solver.resolve}). {!resolve}
    re-solves a previous fleet result after workload drift, re-solving
    only the shards that contain dirty apps and reusing the rest
    byte-for-byte.

    {b Determinism} (the DESIGN.md §10 discipline): shard solves run
    through [Exec.map_rng] — RNG streams pre-split in shard-index
    order before any shard runs, results merged in shard index order —
    with each inner solver single-domain; everything after the parallel
    join (merge, eviction, fix-up) is sequential on the calling domain.
    The pool width is pure scheduling: a fixed seed yields a
    byte-identical fleet design at every domain count. *)

module App = Ds_workload.App
module Env = Ds_resources.Env
module Site = Ds_resources.Site
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Money = Ds_units.Money
module Design_solver = Ds_solver.Design_solver

type shard = {
  index : int;
  sites : Site.id list;  (** Failure domain this shard solves within. *)
  env : Env.t;  (** {!Env.restrict} of the fleet env to [sites]. *)
  apps : App.t list;  (** In fleet order (ascending id within a shard). *)
}

type shard_result = {
  shard : shard;
  outcome : Design_solver.outcome option;
      (** [None]: no feasible design inside the shard's sub-environment
          (its apps become fix-up work at the coordinator). *)
  reused : bool;
      (** Warm path only: the previous result carried over without any
          solver call (shard untouched by the dirty set). *)
}

type t = {
  design : Design.t;  (** The merged fleet design, over the fleet env. *)
  cost : Money.t;
      (** Total cost: the fix-up candidate's evaluation when a fix-up
          ran, the sum of shard costs when shard site-sets are pairwise
          disjoint and the merge was clean (the objective separates
          over disconnected failure domains), one global evaluation
          otherwise. *)
  evaluations : int;
      (** Configuration-solver calls across shard solves (reused shards
          contribute zero) and the fix-up passes. *)
  shard_results : shard_result list;  (** In shard-index order. *)
  conflicts : int;
      (** Merge-time casualties: assignments rejected by [Design.add]
          (model clash on a shared slot) plus capacity evictions. *)
  reconcile_passes : int;  (** Fix-up resolves actually run. *)
  unplaced : App.id list;
      (** Apps no fix-up pass could place (empty on healthy runs). *)
  apps : App.t list;  (** The input fleet, kept for {!dirty_between}. *)
}

val failure_domains : Env.t -> Site.id list list
(** Connected components of the environment's link graph, each sorted
    ascending, ordered by smallest member. Sites with no links are
    singleton domains. *)

val partition : ?shards:int -> Env.t -> App.t list -> shard list
(** Cut the fleet into [shards] shards (default: one per failure
    domain). Shard [i] gets failure domain [i mod domains] and the apps
    with [id mod shards = i] — a stable mapping, so adding or removing
    an app never reshuffles the others (warm-start reuse depends on
    this). With [shards] above the domain count, several shards share a
    domain's sites and the reconcile pass arbitrates the contention.
    @raise Invalid_argument when [shards < 1]. *)

val dirty_between : previous:App.t list -> App.t list -> App.id list
(** Ids in the current list that are new or differ structurally
    ({!App.same}) from their previous revision — the default dirty set
    for {!resolve}. Retired ids are not reported (rebase drops them). *)

val solve :
  ?params:Design_solver.params ->
  ?shards:int ->
  ?max_reconcile_passes:int ->
  ?obs:Ds_obs.Obs.t ->
  Env.t ->
  App.t list ->
  Likelihood.t ->
  t
(** Cold fleet solve. [params.domains] sizes the shard-level pool; each
    shard's inner solver runs single-domain ([params] otherwise applies
    to every shard solve unchanged, seed included — streams are
    pre-split per shard, so shards explore independently).

    Merge conflicts and capacity evictions (a merged design
    over-subscribing a shared site or slot is evicted deterministically:
    the highest app id using the infeasible resource leaves first) feed
    at most [max_reconcile_passes] (default 2) warm-start fix-up
    resolves over the full environment; apps still unplaced after the
    budget are reported in [unplaced], never silently dropped.

    [obs] records [fleet.*] metrics (shards, apps, conflicts,
    evictions, reuses, reconcile passes, unplaced, cost), a
    [fleet.solve] span with per-shard [fleet.shard] regions, and one
    shard-completion progress event per shard in index order. *)

val resolve :
  ?params:Design_solver.params ->
  ?max_reconcile_passes:int ->
  ?obs:Ds_obs.Obs.t ->
  ?dirty:App.id list ->
  incumbent:t ->
  Env.t ->
  App.t list ->
  Likelihood.t ->
  t
(** Warm fleet re-solve after drift. [dirty] defaults to
    [dirty_between ~previous:incumbent.apps apps]. The partition is
    recomputed (same shard count as the incumbent — a changed shard
    count falls back to {!solve}); a shard whose sub-environment, app
    set and app revisions are all untouched reuses its previous result
    with zero solver calls; every other shard re-solves warm from its
    previous design ({!Design_solver.resolve} — so a price-only change
    re-costs placements without moving them), or cold if it previously
    failed. Reconciliation then proceeds as in {!solve}. Never costlier
    than re-solving the dirty shards alone can make it: each shard's
    own warm-start floor applies. *)
