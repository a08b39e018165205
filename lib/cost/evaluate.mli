(** Full evaluation of a candidate design: provision it, simulate every
    failure scenario, and cost the result. This is the objective function
    shared by the design solver, the configuration solver and the baseline
    heuristics. *)

module Money = Ds_units.Money
module Design = Ds_design.Design
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood

type t = {
  provision : Provision.t;
  summary : Summary.t;
  penalty : Penalty.t;
}

val provisioned :
  ?params:Ds_recovery.Recovery_params.t ->
  ?obs:Ds_obs.Obs.t ->
  ?scenarios:Ds_failure.Scenario.t list ->
  ?batch:Ds_recovery.Simulate.batch ->
  Provision.t ->
  Likelihood.t ->
  t
(** Evaluate an already-provisioned design. [obs] counts
    [cost.evaluations] and flows into the recovery simulator; it never
    changes the result. [scenarios] and [batch] short-circuit scenario
    enumeration and metric-instrument resolution (see
    {!Ds_recovery.Simulate.all} for the identity requirements). *)

val design :
  ?params:Ds_recovery.Recovery_params.t ->
  ?obs:Ds_obs.Obs.t ->
  ?scenarios:Ds_failure.Scenario.t list ->
  ?batch:Ds_recovery.Simulate.batch ->
  Design.t ->
  Likelihood.t ->
  (t, Provision.infeasibility) result
(** Evaluate at minimum provisioning. *)

(** {2 Incremental evaluation}

    A configuration-solver trial differs from the evaluation it starts
    from by one move. Only the scenarios whose footprint
    ({!Ds_recovery.Simulate.footprint}) the move touches are simulated
    again; the others keep their outcomes, and the penalty is re-summed
    in enumeration order, so the result equals {!provisioned} on the
    trial provisioning bit for bit (DESIGN.md §17). *)

type move =
  | Windows of Ds_workload.App.id
      (** New backup windows for this app, re-provisioned at
          {!Provision.minimum} (which {!Provision.rewindow} computes
          from the base): the base must be a minimum provisioning of a
          design that differs only in this app's backup chain. *)
  | Growth of Provision.growth
      (** {!Provision.grow} applied to the base's provisioning. *)

val update :
  ?params:Ds_recovery.Recovery_params.t ->
  ?obs:Ds_obs.Obs.t ->
  ?batch:Ds_recovery.Simulate.batch ->
  footprints:Ds_recovery.Simulate.footprint array ->
  t ->
  move ->
  Provision.t ->
  t
(** [update ~footprints base move prov] evaluates [prov], which [move]
    produced from [base.provision]. [footprints.(i)] is the footprint of
    the [i]-th scenario of [base]'s log, and [params] must be the ones
    [base] was evaluated with. Counts one [cost.evaluations]; simulated
    scenarios count in the [recovery.*] and [sim.*] metrics, kept ones
    with affected apps in [recovery.reused].
    @raise Invalid_argument when [footprints] and the log differ in
    length, or a [Windows] move names an app [base] does not assign. *)

val total : t -> Money.t

val app_burden : t -> Ds_workload.App.id -> Money.t
(** Penalties plus an outlay share attributed to the application — the
    weight used to pick reconfiguration victims ("biased towards
    applications that contribute the most towards the overall cost"). *)

val pp : Format.formatter -> t -> unit
