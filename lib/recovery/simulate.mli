(** The multi-application recovery simulator (Section 3.2.2).

    Given a provisioned design and a failure scenario, determines — for
    every affected application — how it recovers, how long its data is
    unavailable and how much recent data it loses. Applications unaffected
    by the failure keep running with their normal resource demands; only
    the {e leftover} bandwidth of each device is available to recovery.
    Competing recovery operations serialize on shared devices in priority
    order, where an application's priority is the sum of its penalty rates
    — exactly the paper's scheduling assumption. Each app's recovery is
    planned as data and the plans are timed by {!Ds_sim.Engine.schedule}:
    through the event loop when two restores hold one device, and as
    plain sums of their stage durations otherwise — bit for bit what the
    event loop would compute, since no restore can wait (DESIGN.md §17).

    Recovery paths, by surviving copy:
    - mirror + failover technique: restart at the mirror site
      (detection + failover delay; fail-back runs in the background and is
      not charged);
    - mirror + reconstruction: repair/rebuild the failed hardware, then
      copy the dataset back over the inter-site link;
    - snapshot: roll back within the primary array;
    - tape: repair hardware, then restore from the library (crossing the
      link when the library is remote);
    - vault: additionally wait for the courier to return cartridges;
    - nothing survived: manual reconstruction, a full loss horizon. *)

module Time = Ds_units.Time
module Obs = Ds_obs.Obs
module Provision = Ds_design.Provision
module Scenario = Ds_failure.Scenario
module Likelihood = Ds_failure.Likelihood

val tape_propagation : Provision.t -> Ds_design.Assignment.t -> Time.t
(** Time a full backup takes with the provisioned drives (used both for
    tape staleness and vault cut-off). Zero for backup-less techniques. *)

type batch
(** Pre-resolved metric instruments (engine meters, device gauges,
    recovery counters) shared across the simulations of a batch. A batch
    may serve any call whose [obs] carries the same registry (trace lanes
    may differ), and parallel workers may share it — see the
    implementation note. Device time and queue waits that its scenarios
    record on the domain that made it are held in the batch, and reach
    the registry ([sim.busy_s.*], [sim.wait_s.*], [sim.queue_wait_s])
    when {!with_batch} ends. *)

val with_batch : ?batch:batch -> Obs.t -> (batch -> 'a) -> 'a
(** [with_batch obs f] runs [f] on a fresh batch of [obs] and publishes
    what the batch holds when [f] returns or raises; call it on the
    domain whose work [f] waits for, so parallel workers have joined by
    then. [with_batch ~batch obs f] is [f batch]: the batch's maker
    publishes it. *)

val scenario :
  ?params:Recovery_params.t ->
  ?obs:Obs.t ->
  ?batch:batch ->
  Provision.t ->
  Scenario.t ->
  Outcome.t list
(** Outcomes for every application affected by the scenario (empty when
    none are). [obs] feeds the schedule's [sim.*] metrics (counted as
    the event loop counts them, summed scenarios included; [sim.contended]
    counts the scenarios the event loop ran) plus [recovery.scenarios] /
    [recovery.affected] / [recovery.unrecoverable] counters and a
    [recovery.scenario] span; these count simulations actually run.
    [batch] supplies the instruments pre-resolved; without it each call
    resolves its own. *)

val incr_evaluations : batch -> unit
(** Bumps the [cost.evaluations] counter carried by the batch (no-op
    without a metrics registry). The cost layer calls this once per
    candidate evaluation instead of a by-name registry lookup. *)

val count_reused : batch -> int -> unit
(** Adds to the [recovery.reused] counter: scenarios with affected apps
    whose outcomes an incremental evaluation kept instead of simulating
    them again. *)

(** {2 Footprints}

    A scenario's outcomes are a function of the recovery parameters, the
    scenario, the affected apps' assignments, and the provisioned and
    demanded bandwidth of the devices their recovery can cross. The
    footprint names those apps and devices, so a move that touches none
    of them leaves the scenario's outcomes unchanged (DESIGN.md §17). *)

type footprint = {
  apps : Ds_workload.App.id list;  (** The affected apps. *)
  arrays : Ds_resources.Slot.Array_slot.t list;
      (** Their primary and mirror arrays. *)
  tapes : Ds_resources.Slot.Tape_slot.t list;  (** Their backup libraries. *)
  links : Ds_resources.Slot.Pair.t list;
      (** Their mirror and backup site pairs. *)
}

val footprint_of : Ds_design.Assignment.t list -> footprint
(** The apps and devices of these assignments. *)

val footprint : Ds_design.Design.t -> Scenario.t -> footprint
(** [footprint_of] the scenario's affected assignments; empty when the
    scenario affects no app. Window and growth moves change neither
    placement nor the enumeration, so one footprint per scenario serves
    every trial of a configuration solve. *)

val all :
  ?params:Recovery_params.t ->
  ?obs:Obs.t ->
  ?scenarios:Scenario.t list ->
  ?batch:batch ->
  Provision.t ->
  Likelihood.t ->
  (Scenario.t * Outcome.t list) list
(** Every scenario enumerated for the design, simulated. Metric
    instruments are resolved once for the whole batch — or not at all
    when [batch] supplies them pre-resolved (the configuration solver
    shares one batch across all trial evaluations of a solve).
    [scenarios] supplies a pre-enumerated list — it must equal
    [Scenario.enumerate likelihood design]; the solvers pass it because
    window and growth trials never change the slots or apps, so the
    enumeration is identical across hundreds of trial evaluations. *)
