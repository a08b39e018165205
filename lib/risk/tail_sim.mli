(** Rare-event risk engine: variance-reduced tail estimation and SLA
    certification of a provisioned design.

    Production durability/availability targets are quoted with "eleven
    nines" (99.999999999%): an annual downtime budget of fractions of a
    millisecond. Naive Monte Carlo over tens of thousands of simulated
    years ({!Year_sim}) cannot resolve probabilities that deep — a
    breach it never samples looks exactly like a breach that cannot
    happen. This module estimates deep-tail statistics with importance
    sampling over the failure-scenario space:

    - {b Rate tilting.} Failure events still arrive as independent
      Poisson processes per scenario, but under a {e proposal} whose
      rates are inflated by a tilt factor, so rare event combinations
      are actually sampled. Every simulated year is reweighted by an
      exact Poisson likelihood ratio (per-scenario terms from
      {!Ds_prng.Sample.poisson_log_weight}, accumulated in log
      space), making every weighted average an unbiased estimate
      under the {e nominal} rates.
    - {b Stratification by scenario scope.} The scenario space is
      partitioned by {!Ds_failure.Scenario.scope_class} (data-object /
      disk-array / site-disaster). One stratum tilts one class — plus
      an untilted nominal stratum that anchors the body of the
      distribution — and the strata are combined as an
      allocation-weighted sum whose total is unbiased for the nominal
      expectation.
    - {b Mixture (balance-heuristic) weights.} A year's weight is
      [p(y) / sum_s share_s * q_s(y)] — the nominal density over the
      {e mixture} of all strata's proposals, not over the proposal
      that happened to draw it. Single-proposal ratios explode
      ([exp (sum_i (tilted_i - rate_i))] on an eventless year under a
      heavy tilt) and wreck both the mean and its variance estimate;
      mixture weights are bounded by [1 / share_nominal] whenever the
      nominal stratum is present, so the estimator stays unbiased
      {e and} its normal-approximation CI stays trustworthy.
    - {b Confidence intervals.} Every estimate carries a
      normal-approximation CI on the weighted estimator
      ([value +/- z * std_error], stratified variance
      [sum_s share_s^2 * var_s / n_s]) and the run reports its
      effective sample size [ESS = sum_s (sum w)^2 / (sum w^2)] — the
      honest denominator after weighting.
    - {b SLA certification.} {!certify} compares the CI on expected
      unavailability against an availability target and returns
      pass / fail / inconclusive {e with the bound that decided it};
      a run that never sampled a positive-rate scenario cannot pass
      (coverage guard), only fail or come back inconclusive.

    Determinism follows the Exec-chunked discipline (DESIGN.md §10 and
    §14): years are simulated in fixed 1,024-year chunks, one RNG
    stream pre-split per (stratum, chunk) task in task-index order,
    results merged in index order — a fixed seed yields byte-identical
    samples, estimates, CIs and verdicts at every pool width. *)

module Money = Ds_units.Money
module Rng = Ds_prng.Rng
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Scenario = Ds_failure.Scenario

type strategy =
  | Nominal_only
      (** A single untilted stratum: plain Monte Carlo with unit
          weights (every [log_weight] is [0.]; tails stay unresolved).
          {!Year_sim} is a percentile view of this run. *)
  | By_scope
      (** One untilted nominal stratum plus one tilted stratum per
          scope class that has a positive-rate scenario (in
          {!Ds_failure.Scenario.all_classes} order). The default. *)

type estimate = {
  value : float;  (** The weighted point estimate. *)
  std_error : float;  (** Stratified standard error of [value]. *)
  lower : float;  (** [value - z * std_error] (clamped to the domain). *)
  upper : float;  (** [value + z * std_error] (clamped to the domain). *)
  z : float;  (** The normal quantile the bounds were built with. *)
}

type year_sample = {
  total : float;  (** Annual penalty (outage + loss), dollars. *)
  downtime : float;  (** Annual user-visible outage, hours. *)
  events : int;  (** Failure events that struck during the year. *)
  log_weight : float;
      (** Log of the balance-heuristic mixture likelihood ratio
          [p(y) / sum_s share_s * q_s(y)]; at most
          [-log share_nominal] when a nominal stratum is present. *)
}

type stratum = {
  label : string;  (** ["nominal"], ["object"], ["array"] or ["site"]. *)
  tilted_class : Scenario.scope_class option;
  allocated_years : int;
  share : float;  (** [allocated_years / total_years]. *)
}

type t = {
  strata : stratum array;
  samples : year_sample array array;
      (** [samples.(s)] are stratum [s]'s years, in simulation order. *)
  scenarios : Scenario.t array;
  scenario_events : int array;
      (** Sampled event count per scenario, summed across all strata —
          the coverage record behind {!certify}'s guard. *)
  tilt : float;
  years : int;
  z : float;
  ess : float;  (** Effective sample size, summed over strata. *)
  mean_total : estimate;  (** Expected annual penalty, dollars. *)
  mean_downtime : estimate;  (** Expected annual downtime, hours. *)
  unavailability : estimate;
      (** Expected downtime fraction of the year: mean downtime /
          8760 h, the quantity {!certify} bounds. *)
}

val simulate :
  ?params:Ds_recovery.Recovery_params.t ->
  ?years:int ->
  ?tilt:float ->
  ?strategy:strategy ->
  ?z:float ->
  ?obs:Ds_obs.Obs.t ->
  ?pool:Ds_exec.Exec.pool ->
  Rng.t ->
  Provision.t ->
  Likelihood.t ->
  t
(** Default 10,000 total years split evenly across the strata (earlier
    strata absorb the remainder), [tilt] 8.0, [strategy] [By_scope],
    [z] 2.576 (a 99% two-sided normal CI). The per-scenario recovery
    simulation runs once per scenario and its penalties/downtime are
    charged per event; [obs] (a [risk.tail_sim] span,
    [risk.tail.years] / [risk.tail.events] counters and the
    [risk.tail.ess] / [risk.tail.ci_width] gauges) never affects the
    drawn sample. The pool only moves wall time (fixed chunks,
    pre-split streams, index-order merge).
    @raise Invalid_argument when [years <= 0] or smaller than the
    stratum count, [tilt <= 0] or not finite, or [z <= 0]. *)

val exceedance : ?z:float -> t -> Money.t -> estimate
(** [exceedance t x] estimates the probability that a year's total
    penalty reaches [x] ([P(total >= x)]), with CI (clamped to
    [[0, 1]]). Unbiased under the nominal rates whatever the tilt. *)

val downtime_exceedance : ?z:float -> t -> float -> estimate
(** [downtime_exceedance t h] is [P(annual downtime > h hours)]. *)

val tail_percentile : t -> float -> Money.t
(** Weighted tail percentile of annual penalty: the smallest sampled
    total whose cumulative normalized weight strictly exceeds [q] —
    the weighted analogue of {!Year_sim.percentile_of_sorted}'s
    conservative nearest-rank (they coincide on unit weights whenever
    [q * n] is integral). Weighted percentiles are self-normalized
    (ratio) estimates, so unlike {!exceedance} they carry no CI here.
    @raise Invalid_argument outside [0, 1] (NaN included). *)

val tail_percentiles : t -> float list -> Money.t list
(** {!tail_percentile} at each [q], in order, from one weighted sort of
    the samples ({!pp} reads its three quantiles this way).
    @raise Invalid_argument if any [q] is outside [0, 1]. *)

val check_quantile : string -> float -> unit
(** [check_quantile fn q] is the one range check behind every
    percentile reader here and in {!Year_sim}: it returns when
    [0 <= q <= 1].
    @raise Invalid_argument ["fn: q outside [0, 1]"] otherwise, NaN
    included. *)

type verdict = Pass | Fail | Inconclusive

type certification = {
  availability : float;  (** The target, e.g. [0.99999999999]. *)
  allowed_unavailability : float;  (** [1. -. availability]. *)
  downtime_budget : float;  (** Allowed hours per year. *)
  unavailability : estimate;  (** The bound-carrying estimate. *)
  breach_probability : estimate;
      (** [P(annual downtime > downtime_budget)], with CI. *)
  ess : float;
  uncovered : string list;
      (** Positive-rate scenarios never sampled in any stratum; a
          non-empty list blocks [Pass]. *)
  verdict : verdict;
  deciding_bound : float;
      (** The CI bound the verdict rests on: the upper bound for
          [Pass] (it cleared the budget), the lower bound for [Fail]
          (even the optimistic read breaches), the bound that failed
          to clear for [Inconclusive]. *)
  reason : string;  (** One human-readable sentence. *)
}

val certify : ?z:float -> t -> availability:float -> certification
(** Certify the design against an availability SLA: [Pass] when the
    upper confidence bound on expected unavailability is within
    [1 - availability] {e and} every positive-rate scenario was
    sampled at least once; [Fail] when the lower bound already
    breaches it; [Inconclusive] otherwise (CI straddles the target, or
    the bound clears it but coverage is incomplete — more years or a
    higher tilt needed). Deterministic: a fixed seed yields the same
    verdict at every pool width.
    @raise Invalid_argument unless [0 < availability < 1]. *)

val verdict_to_string : verdict -> string
val pp : Format.formatter -> t -> unit
val pp_certification : Format.formatter -> certification -> unit
