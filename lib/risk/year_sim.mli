(** Monte Carlo risk analysis of a provisioned design.

    The paper's objective uses {e expected} annual penalties (likelihood-
    weighted sums). Expectations hide tail risk: a design whose expected
    penalty is $2M/yr may still face a 1-in-20 year costing $40M. This
    module reports the distribution of annual penalty cost over many
    simulated years — failure events arrive as independent Poisson
    processes per scenario, each event charged the penalties from the
    deterministic recovery simulation.

    It does no sampling of its own: it is a percentile view over
    {!Tail_sim}'s [Nominal_only] run, the one sampler of the tree. It
    doubles as a cross-check of the analytic model: the sample mean
    converges to {!Ds_cost.Penalty.expected_annual}'s total (a property
    the test suite asserts). *)

module Money = Ds_units.Money
module Rng = Ds_prng.Rng
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood

type t = {
  samples : Tail_sim.year_sample array;
      (** The nominal run's years, in simulation order (every
          [log_weight] is [0.]). *)
  sorted_totals : float array;
      (** Annual totals (outage + loss, in dollars) sorted ascending —
          computed once by {!simulate} and reused by {!percentile}. *)
  mean : Money.t;  (** Mean annual penalty (outage + loss). *)
  p50 : Money.t;
  p90 : Money.t;
  p99 : Money.t;
  worst : Money.t;
  quiet_fraction : float;  (** Years with no failure events at all. *)
}

val simulate :
  ?params:Ds_recovery.Recovery_params.t ->
  ?years:int ->
  ?obs:Ds_obs.Obs.t ->
  ?pool:Ds_exec.Exec.pool ->
  Rng.t ->
  Provision.t ->
  Likelihood.t ->
  t
(** [Tail_sim.simulate ~strategy:Nominal_only] (default 10,000 years)
    read as percentiles. The years run in fixed 1,024-year chunks, one
    RNG stream pre-split per chunk in chunk order, so the sample is a
    function of the generator state and [years] alone and a fixed seed
    yields bit-identical results whatever the pool's domain count is.
    [obs] sees the nominal run's [risk.tail_sim] span and [risk.tail.*]
    metrics; it never affects the drawn sample.
    @raise Invalid_argument when [years <= 0]. *)

val percentile : t -> float -> Money.t
(** [percentile t 0.95] is the 95th percentile of annual penalty cost,
    read off the stored {!field-sorted_totals} (no re-sort), under the
    convention of {!percentile_of_sorted}.
    @raise Invalid_argument outside [0, 1] (NaN included). *)

val percentile_of_sorted : float array -> float -> Money.t
(** Conservative nearest-rank percentile of an ascending-sorted array:
    the element at 0-based index [ceil (q * n)], clamped to
    [[0, n-1]]. When [q * n] lands on an integer (the usual
    q = 0.5/0.9/0.99 on round year counts) this is the smallest order
    statistic whose empirical CDF strictly exceeds [q]; otherwise it
    rounds one rank {e up} from the classical nearest-rank. Either
    way it is deliberately never biased low (a risk report must not
    understate a tail): with 100 sorted years, [q = 0.99] reads index
    99, not the floor-truncated 98 of earlier releases. [q = 1.] is
    always the last (worst) element, so [percentile t 1.0] equals
    {!field-worst}; [q = 0.] is the first. {!Tail_sim}
    applies the weighted analogue of the same convention.
    @raise Invalid_argument on an empty array, or outside [0, 1] (NaN
    included). *)

val pp : Format.formatter -> t -> unit
