(** A small deterministic discrete-event engine for recovery scheduling.

    The configuration solver "simulates the recovery process to determine
    the recovery time for each failed application", serializing competing
    recovery operations by priority (Section 3.2.2). This engine models
    exactly that: jobs (one per recovering application) run a fixed
    sequence of stages; a stage is either a plain delay (hardware repair,
    failover, courier) or an exclusive hold of one or more devices for a
    duration (a data restore using a tape library, a link and the target
    array at once).

    Scheduling policy: when a device frees up, the waiting job with the
    highest priority (ties broken by submission order) whose {e whole}
    device set is free starts next. There is no preemption — a started
    restore runs to completion, so a high-priority job can wait for a
    lower-priority one that got there first, exactly like the serialized
    recovery in the paper.

    All jobs are submitted at time zero; the engine is single-shot. A job
    set given as data ({!schedule}) runs the event loop only when two of
    its jobs hold one device; otherwise no job can wait, and each
    completion time is its stage durations summed in order. *)

module Time = Ds_units.Time
module Obs = Ds_obs.Obs

type t
type resource
type job_id

type policy =
  | Priority  (** Highest priority first — the paper's assumption. *)
  | Fifo  (** Submission order, priorities ignored. *)
  | Smallest_first
      (** Jobs with the least total stage time first (static shortest-job
          scheduling) — minimizes mean completion time, not weighted
          penalty. *)

val create : ?policy:policy -> ?obs:Obs.t -> unit -> t
(** Default scheduling policy: {!Priority}. With a metrics-bearing [obs]
    the run records [sim.runs], [sim.jobs], [sim.events] (stage
    completions), a [sim.queue_wait_s] histogram, and per-resource
    [sim.busy_s.<name>] / [sim.wait_s.<name>] gauges, publishing as it
    goes. Observation never changes scheduling. *)

type meters
(** Pre-resolved engine-wide instruments ([sim.runs], [sim.jobs],
    [sim.events], [sim.contended], [sim.queue_wait_s]). The recovery
    simulator schedules one single-shot job set per failure scenario;
    resolving the instruments by name per run dominated the metered
    path, so a caller evaluating many scenarios against one [obs]
    resolves them once and hands them to every {!create_with} or
    {!schedule}. Queue waits that those runs record on the domain that
    resolved the meters are held in them, without a lock, until
    {!publish_meters}; runs on other domains observe directly. *)

val meters_of_obs : Obs.t -> meters
(** Resolves against [obs]'s metrics registry (a no-op capability when
    metrics are off). *)

val publish_meters : meters -> unit
(** Observe the held queue waits into [sim.queue_wait_s], in the order
    they were recorded, under one histogram lock. Call it on the domain
    that resolved the meters, once the engines using them have run. *)

val create_with : ?policy:policy -> ?obs:Obs.t -> meters:meters -> unit -> t
(** Like {!create}, but metering through pre-resolved [meters] (which
    must come from [obs]'s registry). *)

type device_gauges
(** Pre-resolved per-device gauges ([sim.busy_s.<name>] /
    [sim.wait_s.<name>]), shareable across engines that model the same
    physical device in different scenarios. *)

val no_gauges : device_gauges

val device_gauges : Obs.t -> string -> device_gauges
(** Resolves the two gauges by name; engines using them add to them on
    every grant. *)

val held_gauges : device_gauges -> device_gauges
(** The same gauges with cells of their own, for the engines of one
    {!meters}: busy and wait seconds that those engines record on the
    domain that resolved the meters are held in the cells, without
    allocating, until {!publish_gauges}; engines on other domains add to
    the gauges directly. *)

val publish_gauges : device_gauges -> unit
(** Add the held busy and wait seconds to their gauges and clear the
    cells. Call it on the domain that resolved the meters, once the
    engines using the gauges have run. *)

val resource : t -> string -> resource
(** A named exclusive device. Each call creates a fresh resource,
    resolving its gauges from the engine's [obs]. *)

val resource_with : t -> gauges:device_gauges -> string -> resource
(** Like {!resource} with pre-resolved gauges — no registry lookups. *)

type 'd stage_of =
  | Delay of Time.t  (** Elapses unconditionally (repairs, couriers). *)
  | Hold of 'd list * Time.t
      (** Exclusive use of all listed devices for the duration. An empty
          list behaves like {!Delay}. *)

type stage = resource stage_of
(** A stage of a submitted job: its holds name this engine's resources. *)

val submit : t -> ?name:string -> priority:float -> stage list -> job_id
(** Registers a job starting at time zero. Higher [priority] is served
    first. [name] (default [""]) labels the job in {!results} and
    nothing else: the recovery simulator leaves its jobs unnamed. A
    stage may last forever ([Rate.transfer_time] at zero bandwidth gives
    an infinite hold): its job, and any job waiting behind it, never
    completes. @raise Invalid_argument if the engine already ran, a
    duration or the priority is NaN, or a resource belongs to another
    engine. *)

val run : t -> unit
(** Executes to quiescence. Idempotent. *)

val completion_time : t -> job_id -> Time.t
(** Finish time of the job's last stage; {!run}s the engine if needed. *)

val results : t -> (string * Time.t) list
(** All jobs with completion times, in submission order. *)

(** {2 Jobs given as data}

    A caller that schedules many small single-shot job sets (the
    recovery simulator: one per failure scenario) describes each set as
    data, naming devices by its own keys, and lets {!schedule} decide
    whether the event loop is needed at all. *)

type 'd plan = {
  priority : float;  (** As {!submit}'s. *)
  stages : 'd stage_of list;  (** Holds name devices by the caller's keys. *)
}

val schedule :
  ?policy:policy ->
  meters:meters ->
  equal:('d -> 'd -> bool) ->
  gauges:('d -> device_gauges) ->
  'd plan list ->
  Time.t list
(** Completion times of the plans, in order, exactly as {!run} computes
    them on an engine created with [policy] and [meters], holding one
    resource per device (devices are the same when [equal]), with each
    plan {!submit}ted in order; metered exactly as that run meters.

    When no device is held by two plans, no job can ever wait: each one
    advances exactly at its own wake time. If also every priority is a
    number and every plan's durations sum to a finite time, no engine is
    built: each completion time is the left fold of the plan's durations
    from zero, the same float additions {!run}'s clock makes, and the
    run is counted in [sim.runs], [sim.jobs] and [sim.events] and each
    held device's busy seconds are recorded as {!run} records them.
    Otherwise an engine runs the plans (raising as {!submit} does); when
    that is because two plans hold one device, [sim.contended] counts
    the run. [gauges] resolves a device's gauges, and is called only
    when [meters] carry a registry. *)
