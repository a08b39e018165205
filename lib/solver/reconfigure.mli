(** The reconfiguration step (Section 3.1.3): one edge of the design
    graph.

    Reconfiguring picks a victim application (biased toward the ones
    contributing most to overall cost), strips it from the design, and
    gives it a fresh technique and layout. The technique is drawn from the
    app's class or better, with probability biased toward inexpensive
    options: technique [dpt] is chosen with probability proportional to
    [1 - cost dpt / sum of costs] over the eligible techniques, each cost
    measured as the incremental cost in the context of the full candidate
    solution. *)

module App = Ds_workload.App
module Technique = Ds_protection.Technique
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng

type state = {
  rng : Rng.t;
  history : Layout.History.t;
  likelihood : Likelihood.t;
  options : Config_solver.options;
      (** Search-grade configuration options. When the design solver
          installed a memo cache ([options.memo]), every reconfiguration
          step's configuration solve flows through it — including the
          per-app scoped-window variants, which key separately because
          the option fingerprint is part of the cache key. *)
  obs : Ds_obs.Obs.t;
  mutable evaluations : int;  (** Config-solver invocations, for reporting. *)
}

val state :
  ?options:Config_solver.options ->
  ?obs:Ds_obs.Obs.t ->
  rng:Rng.t ->
  Likelihood.t ->
  state

val fork : ?obs:Ds_obs.Obs.t -> state -> rng:Rng.t -> state
(** A probe-local state for the parallel refit: its own RNG stream, a
    {!Layout.History.fork} of the parent's layout history, and a zeroed
    evaluation counter. The likelihood and configuration options
    (including the shared, mutex-guarded memo cache) are shared with the
    parent. [obs] overrides the observability capability — worker
    domains pass their own trace lane ({!Ds_obs.Obs.fork_lane})
    because a span collector is not domain-safe. *)

val merge : into:state -> state -> unit
(** Fold a fork's results back into its parent: add its evaluation
    count and absorb its layout-history records. Called by the
    coordinator in probe-index order after the round's domains join, so
    the merged state is identical however probes were scheduled. *)

val count_evaluation : state -> unit
(** Bump the configuration-solver call counter (and the
    [solver.evaluations] metric). Every [Config_solver.solve] performed
    on behalf of the design search must pass through this, wherever it
    is issued, so [Design_solver.outcome.evaluations] counts all the
    work done. *)

val eligible_techniques : App.t -> Technique.t list
(** The app's class or better, from the Table 2 catalog. *)

val place_with_technique :
  state -> Design.t -> App.t -> Technique.t -> Candidate.t option
(** Lay the app out under the given technique (biased layout) and complete
    the design with the configuration solver. [None] when no placement is
    feasible. *)

val assign_best :
  ?pool:Ds_exec.Exec.pool -> state -> Design.t -> App.t -> Candidate.t option
(** Greedy best-fit step (stage 1): try {e every} eligible technique and
    keep the cheapest completed candidate (ties to the lowest technique
    index). Layout draws — the only RNG consumer — run on the calling
    domain in technique order, exactly the sequential scan's sequence;
    the expensive configuration solves then run in parallel on [pool]
    (default sequential). Byte-identical at every pool width, and to
    the historical sequential implementation. *)

val reconfigure :
  ?victims:(App.id -> bool) -> state -> Candidate.t -> Candidate.t option
(** One design-graph edge: re-protect a burden-biased victim app with a
    cost-biased technique and a fresh biased layout. [None] when the move
    fails to produce a feasible candidate (or no app passes the filter).

    [victims] restricts the victim draw to the apps it accepts — the
    warm-start path confines refit to the dirty set, leaving untouched
    assignments untouched. Omitted (every assigned app eligible), the
    RNG stream and results are byte-identical to the historical
    unfiltered behavior. *)
