module Time = Ds_units.Time
module Rate = Ds_units.Rate
module App = Ds_workload.App
module Technique = Ds_protection.Technique
module Slot = Ds_resources.Slot
module Assignment = Ds_design.Assignment
module Design = Ds_design.Design
module Demand = Ds_design.Demand
module Provision = Ds_design.Provision
module Scenario = Ds_failure.Scenario
module Likelihood = Ds_failure.Likelihood
module Engine = Ds_sim.Engine
module Obs = Ds_obs.Obs
module Metrics = Ds_obs.Obs.Metrics

let tape_propagation prov (asg : Assignment.t) =
  match asg.backup with
  | None -> Time.zero
  | Some tape_slot ->
    Rate.transfer_time asg.app.App.data_size (Provision.tape_bw prov tape_slot)

(* A device a recovery can hold: the key of the gauge caches below, and
   the device name [Engine.schedule] compares plans by. *)
type device =
  | Array_dev of Slot.Array_slot.t
  | Tape_dev of Slot.Tape_slot.t
  | Link_dev of Slot.Pair.t

let device_rank = function Array_dev _ -> 0 | Tape_dev _ -> 1 | Link_dev _ -> 2

let compare_device a b =
  match a, b with
  | Array_dev a, Array_dev b -> Slot.Array_slot.compare a b
  | Tape_dev a, Tape_dev b -> Slot.Tape_slot.compare a b
  | Link_dev a, Link_dev b -> Slot.Pair.compare a b
  | _ -> Int.compare (device_rank a) (device_rank b)

let device_equal a b = compare_device a b = 0

module Device_map = Map.Make (struct
    type t = device

    let compare = compare_device
  end)

let device_name = function
  | Array_dev s -> Slot.Array_slot.to_string s
  | Tape_dev s -> Slot.Tape_slot.to_string s
  | Link_dev p -> Slot.Pair.to_string p

(* Device names only feed the engine's per-resource metrics
   ([sim.busy_s.<name>], [sim.wait_s.<name>]), so they are built only
   when a metrics sink is attached, and then once per registry and
   device: the gauges outlive every batch in this one-slot cache, keyed
   by registry identity. It is a map, not a list, because a daemon's
   registry sees the devices of every environment it serves. A racing
   insert can at worst drop a peer's entry, which is resolved again
   later to the same instruments. Jobs are never named: nothing reads a
   recovery job's name, and rendering one per job was most of the
   metered path's extra allocation. *)
let gauge_cache :
  (Metrics.registry * Engine.device_gauges Device_map.t) option Atomic.t =
  Atomic.make None

let cached_gauges obs reg device =
  let cache = Atomic.get gauge_cache in
  let known =
    match cache with
    | Some (r, known) when r == reg -> known
    | _ -> Device_map.empty
  in
  match Device_map.find device known with
  | gauges -> gauges
  | exception Not_found ->
    let gauges = Engine.device_gauges obs (device_name device) in
    ignore
      (Atomic.compare_and_set gauge_cache cache
         (Some (reg, Device_map.add device gauges known)));
    gauges

(* A [batch] carries every instrument resolvable once per simulation
   batch: the engine meters, the recovery counters, and — keyed by
   device — the device gauges, with the cells that hold what the batch's
   runs measure until [publish]. The configuration solver shares one
   batch across every trial evaluation of a solve (the slots are stable
   there), so the gauge cache is probed a handful of times per thousands
   of scenarios. The device map is an atomic: when parallel trial
   workers share a batch, a racing insert can at worst drop a peer's
   entry and resolve the device again. A dropped entry is still
   published: every entry ever handed out is also kept in [made], which
   [publish] walks. *)
type batch = {
  b_obs : Obs.t;  (* instrument resolution only; spans use the call-site obs *)
  meters : Engine.meters;
  scenarios_c : Metrics.counter option;
  affected_c : Metrics.counter option;
  unrecoverable_c : Metrics.counter option;
  reused_c : Metrics.counter option;
  (* Owned by the cost layer (Evaluate), carried here so the per-trial
     evaluation counter rides the same pre-resolved instrument cache. *)
  evaluations_c : Metrics.counter option;
  ids : Engine.device_gauges Device_map.t Atomic.t;
  made : Engine.device_gauges list Atomic.t;
}

let scenarios_h = Metrics.counter_handle "recovery.scenarios"
let affected_h = Metrics.counter_handle "recovery.affected"
let unrecoverable_h = Metrics.counter_handle "recovery.unrecoverable"
let reused_h = Metrics.counter_handle "recovery.reused"
let evaluations_h = Metrics.counter_handle "cost.evaluations"

let batch obs =
  { b_obs = obs;
    meters = Engine.meters_of_obs obs;
    scenarios_c = Obs.instrument obs scenarios_h;
    affected_c = Obs.instrument obs affected_h;
    unrecoverable_c = Obs.instrument obs unrecoverable_h;
    reused_c = Obs.instrument obs reused_h;
    evaluations_c = Obs.instrument obs evaluations_h;
    ids = Atomic.make Device_map.empty;
    made = Atomic.make [] }

let publish b =
  Engine.publish_meters b.meters;
  List.iter Engine.publish_gauges (Atomic.get b.made)

let rec remember b gauges =
  let made = Atomic.get b.made in
  if not (Atomic.compare_and_set b.made made (gauges :: made)) then
    remember b gauges

(* The batch's gauges for a device: looked up among the devices it has
   resolved, else taken from the cache with cells of the batch's own.
   [Engine.schedule] asks only when metering. *)
let batch_gauges b device =
  let known = Atomic.get b.ids in
  match Device_map.find device known with
  | gauges -> gauges
  | exception Not_found ->
    let gauges =
      match Obs.metrics b.b_obs with
      | None -> Engine.no_gauges
      | Some reg ->
        let gauges = Engine.held_gauges (cached_gauges b.b_obs reg device) in
        remember b gauges;
        gauges
    in
    Atomic.set b.ids (Device_map.add device gauges known);
    gauges

let incr_opt = function Some c -> Metrics.incr c | None -> ()
let add_opt c n = match c with Some c -> Metrics.add c n | None -> ()

let incr_evaluations b = incr_opt b.evaluations_c
let count_reused b n = add_opt b.reused_c n

(* Duplicates are harmless: the lists only answer membership. *)
type footprint = {
  apps : App.id list;
  arrays : Slot.Array_slot.t list;
  tapes : Slot.Tape_slot.t list;
  links : Slot.Pair.t list;
}

let footprint_of affected =
  let cons_opt o l = match o with Some x -> x :: l | None -> l in
  List.fold_right
    (fun (a : Assignment.t) fp ->
       { apps = a.app.App.id :: fp.apps;
         arrays = a.primary :: cons_opt a.mirror fp.arrays;
         tapes = cons_opt a.backup fp.tapes;
         links =
           cons_opt (Assignment.mirror_pair a)
             (cons_opt (Assignment.backup_pair a) fp.links) })
    affected
    { apps = []; arrays = []; tapes = []; links = [] }

let footprint design (scen : Scenario.t) =
  footprint_of (Scenario.affected design scen.Scenario.scope)

(* Residual load = total demand minus the affected apps' shares — the
   affected set is a handful of assignments, so this replaces a
   per-scenario demand-map rebuild over the unaffected majority with a
   short fold per device lookup. Top-level recursive folds (rather than
   closures inside the scenario body) keep the per-scenario allocation
   down to the folds' own float results. *)
let rec freed_array_bw affected slot acc =
  match affected with
  | [] -> acc
  | a :: rest ->
    freed_array_bw rest slot (Rate.add acc (Demand.array_bw_share a slot))

let avail_array prov affected slot =
  let total = prov.Provision.demand in
  Rate.sub (Provision.array_bw prov slot)
    (Rate.sub (Demand.array_use total slot).Demand.bandwidth
       (freed_array_bw affected slot Rate.zero))

let rec freed_tape_bw affected slot acc =
  match affected with
  | [] -> acc
  | a :: rest ->
    freed_tape_bw rest slot (Rate.add acc (Demand.tape_bw_share a slot))

let avail_tape prov affected slot =
  let total = prov.Provision.demand in
  Rate.sub (Provision.tape_bw prov slot)
    (Rate.sub (Demand.tape_use total slot).Demand.tape_bandwidth
       (freed_tape_bw affected slot Rate.zero))

let rec freed_link_bw affected pair acc =
  match affected with
  | [] -> acc
  | a :: rest ->
    freed_link_bw rest pair (Rate.add acc (Demand.link_share a pair))

let avail_link prov affected pair =
  let total = prov.Provision.demand in
  Rate.sub (Provision.link_bw prov pair)
    (Rate.sub (Demand.link_use total pair)
       (freed_link_bw affected pair Rate.zero))

(* One affected app's recovery as data: how it recovers, the data it
   loses, and the job [Engine.schedule] times — its priority, its stage
   durations in order, and the devices its restore holds. *)
type plan = {
  asg : Assignment.t;
  mode : Outcome.mode;
  loss : Time.t;
  job : device Engine.plan;
}

let plan_of ~params prov affected scope repair_delay (asg : Assignment.t) =
  let best =
    Copy_source.best_surviving ~params
      ~tape_propagation:(tape_propagation prov asg) asg scope
  in
  let detection = Engine.Delay params.Recovery_params.detection in
  let mode, loss, stages =
    match best with
    | None ->
      (Outcome.Unrecoverable, params.Recovery_params.loss_horizon,
       [ detection; Engine.Delay repair_delay;
         Engine.Delay params.Recovery_params.manual_rebuild ])
    | Some copy ->
      let loss = copy.Copy_source.staleness in
      let restored = Outcome.Restored copy.Copy_source.kind in
      (match copy.Copy_source.kind with
       | Copy_source.Mirror when Technique.needs_standby_compute asg.technique ->
         (Outcome.Failed_over, loss,
          [ detection; Engine.Delay params.Recovery_params.failover ])
       | Copy_source.Mirror ->
         let mirror_slot = Option.get asg.mirror in
         (match scope with
          | Scenario.Site_disaster _ ->
            (* Reconstruction at the secondary site: procure and
               reconfigure compute there, promote the mirror to primary.
               No bulk copy — the data is already on the surviving array.
               Fail-back runs in the background once the site is rebuilt. *)
            (restored, loss,
             [ detection; Engine.Delay params.Recovery_params.site_reconfig;
               Engine.Hold ([ Array_dev mirror_slot ],
                            params.Recovery_params.mirror_promote) ])
          | Scenario.Data_object _ | Scenario.Array_failure _ ->
            (* Repair the array, then copy the dataset back over the
               inter-site link. *)
            let pair = Option.get (Assignment.mirror_pair asg) in
            let bw =
              Rate.min (avail_array prov affected mirror_slot)
                (Rate.min (avail_link prov affected pair)
                   (avail_array prov affected asg.primary))
            in
            let duration = Rate.transfer_time asg.app.App.data_size bw in
            (restored, loss,
             [ detection; Engine.Delay repair_delay;
               Engine.Hold
                 ([ Array_dev mirror_slot; Link_dev pair; Array_dev asg.primary ],
                  duration) ]))
       | Copy_source.Snapshot ->
         let bw = avail_array prov affected asg.primary in
         let duration = Rate.transfer_time asg.app.App.data_size bw in
         (restored, loss,
          [ detection; Engine.Delay repair_delay;
            Engine.Hold ([ Array_dev asg.primary ], duration) ])
       | Copy_source.Tape | Copy_source.Vault ->
         let tape_slot = Option.get asg.backup in
         let link = Assignment.backup_pair asg in
         let bw =
           let base =
             Rate.min (avail_tape prov affected tape_slot)
               (avail_array prov affected asg.primary)
           in
           match link with
           | Some pair -> Rate.min base (avail_link prov affected pair)
           | None -> base
         in
         (* Incremental schedules replay the full plus half a cycle of
            incrementals on average. *)
         let volume =
           match asg.technique.Technique.backup with
           | Some chain -> Ds_protection.Backup.restore_volume chain asg.app
           | None -> asg.app.App.data_size
         in
         let duration = Rate.transfer_time volume bw in
         let held =
           Tape_dev tape_slot :: Array_dev asg.primary
           :: (match link with Some pair -> [ Link_dev pair ] | None -> [])
         in
         let restore = [ Engine.Hold (held, duration) ] in
         (restored, loss,
          detection :: Engine.Delay repair_delay
          :: (match copy.Copy_source.kind with
              | Copy_source.Vault ->
                Engine.Delay params.Recovery_params.vault_fetch :: restore
              | _ -> restore)))
  in
  let priority = Ds_units.Money.to_dollars (App.penalty_rate_sum asg.app) in
  { asg; mode; loss; job = { Engine.priority; stages } }

let plan_job p = p.job

let scenario_in ~params ~obs b prov (scen : Scenario.t) =
  let design = prov.Provision.design in
  let scope = scen.Scenario.scope in
  let affected = Scenario.affected design scope in
  if affected = [] then []
  else Obs.with_span obs "recovery.scenario" @@ fun () -> begin
    incr_opt b.scenarios_c;
    add_opt b.affected_c (List.length affected);
    let repair_delay =
      match scope with
      | Scenario.Data_object _ -> Time.zero
      | Scenario.Array_failure _ -> params.Recovery_params.array_repair
      | Scenario.Site_disaster _ -> params.Recovery_params.site_rebuild
    in
    (* Every plan is decided before any is timed: competing restores
       contend in one schedule. *)
    let plans = List.map (plan_of ~params prov affected scope repair_delay) affected in
    let times =
      Engine.schedule ~policy:params.Recovery_params.scheduling ~meters:b.meters
        ~equal:device_equal ~gauges:(batch_gauges b) (List.map plan_job plans)
    in
    List.map2
      (fun p recovery_time ->
         (match p.mode with
          | Outcome.Unrecoverable -> incr_opt b.unrecoverable_c
          | _ -> ());
         { Outcome.app = p.asg.app; mode = p.mode; recovery_time;
           loss_time = p.loss })
      plans times
  end

let with_batch ?batch:b obs f =
  match b with
  | Some b -> f b
  | None ->
    let b = batch obs in
    Fun.protect ~finally:(fun () -> publish b) (fun () -> f b)

let scenario ?(params = Recovery_params.default) ?(obs = Obs.noop) ?batch:b
    prov scen =
  match b with
  | Some b -> scenario_in ~params ~obs b prov scen
  | None -> with_batch obs (fun b -> scenario_in ~params ~obs b prov scen)

let all ?(params = Recovery_params.default) ?(obs = Obs.noop) ?scenarios ?batch:b
    prov likelihood =
  let design = prov.Provision.design in
  let scens =
    match scenarios with
    | Some scens -> scens
    | None -> Scenario.enumerate likelihood design
  in
  with_batch ?batch:b obs (fun b ->
      List.map (fun scen -> (scen, scenario_in ~params ~obs b prov scen)) scens)
