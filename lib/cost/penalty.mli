(** Expected annual penalty costs (Sections 2.4-2.5).

    Every failure scenario is simulated; each affected application's data
    outage and recent-data-loss penalties (hourly rate x duration) are
    weighted by the scenario's annual likelihood and summed. *)

module Money = Ds_units.Money
module App = Ds_workload.App
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Scenario = Ds_failure.Scenario
module Outcome = Ds_recovery.Outcome

type per_app = {
  app : App.t;
  outage : Money.t;  (** Expected annual outage penalty for this app. *)
  loss : Money.t;  (** Expected annual recent-data-loss penalty. *)
}

type t = {
  outage_total : Money.t;
  loss_total : Money.t;
  by_app : per_app list;  (** Sorted by app id; every assigned app listed. *)
  details : (Scenario.t * Outcome.t list) list;  (** Raw simulation log. *)
}

val expected_annual :
  ?params:Ds_recovery.Recovery_params.t ->
  ?obs:Ds_obs.Obs.t ->
  ?scenarios:Scenario.t list ->
  ?batch:Ds_recovery.Simulate.batch ->
  Provision.t ->
  Likelihood.t ->
  t
(** [obs] is handed to the recovery simulator (device contention
    metrics and spans); it never changes the result. [scenarios] and
    [batch] short-circuit enumeration and instrument resolution (see
    {!Ds_recovery.Simulate.all}). *)

val of_details : Provision.t -> (Scenario.t * Outcome.t list) list -> t
(** The penalty of a simulation log, summed in log order: what
    {!expected_annual} returns for the log {!Ds_recovery.Simulate.all}
    produces. The incremental evaluator re-sums a log in which only some
    scenarios were simulated again; equal logs give bit-identical
    totals. *)

val of_outcome : annual_rate:float -> Outcome.t -> Money.t * Money.t
(** [(outage, loss)] contribution of one simulated outcome, weighted. *)
