module Money = Ds_units.Money
module Rate = Ds_units.Rate
module App = Ds_workload.App
module Slot = Ds_resources.Slot
module Design = Ds_design.Design
module Demand = Ds_design.Demand
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Simulate = Ds_recovery.Simulate

type t = {
  provision : Provision.t;
  summary : Summary.t;
  penalty : Penalty.t;
}

let of_penalty prov penalty =
  let summary =
    Summary.v ~outlay:(Outlay.annual prov) ~outage:penalty.Penalty.outage_total
      ~loss:penalty.Penalty.loss_total
  in
  { provision = prov; summary; penalty }

let evaluations_c = Ds_obs.Obs.Metrics.counter_handle "cost.evaluations"

let provisioned ?params ?obs ?scenarios ?batch prov likelihood =
  (match batch with
   | Some b -> Simulate.incr_evaluations b
   | None ->
     (match obs with
      | Some obs -> Ds_obs.Obs.bump obs evaluations_c
      | None -> ()));
  of_penalty prov
    (Penalty.expected_annual ?params ?obs ?scenarios ?batch prov likelihood)

let design ?params ?obs ?scenarios ?batch design likelihood =
  Result.map
    (fun prov -> provisioned ?params ?obs ?scenarios ?batch prov likelihood)
    (Provision.minimum design)

type move =
  | Windows of App.id
  | Growth of Provision.growth

let reads_array (fp : Simulate.footprint) s =
  List.exists (Slot.Array_slot.equal s) fp.arrays

let reads_tape (fp : Simulate.footprint) s =
  List.exists (Slot.Tape_slot.equal s) fp.tapes

let reads_link (fp : Simulate.footprint) p =
  List.exists (Slot.Pair.equal p) fp.links

(* Which scenarios a move can change (DESIGN.md §17). A growth move adds
   bandwidth at one device and nothing else. A window trial rewrites one
   app's backup chain: that app's own recovery changes, and its devices'
   capacity demand — hence provisioned units — may change, so devices
   whose deliverable or demanded bandwidth moved are dirty too. Other
   devices keep their demand and so their minimum provisioning. *)
let dirty_test (before : Provision.t) (after : Provision.t) = function
  | Growth (Provision.Grow_array s) -> fun fp -> reads_array fp s
  | Growth (Provision.Grow_tape_drive s) -> fun fp -> reads_tape fp s
  | Growth (Provision.Grow_link p) -> fun fp -> reads_link fp p
  | Windows id ->
    let own =
      match Design.find before.Provision.design id with
      | Some asg -> Simulate.footprint_of [ asg ]
      | None -> invalid_arg "Evaluate.update: window move on an unassigned app"
    in
    let moved bw use s =
      not (Rate.equal (bw before s) (bw after s)
           && Rate.equal (use before.Provision.demand s)
                (use after.Provision.demand s))
    in
    let arrays =
      List.filter
        (moved Provision.array_bw (fun d s ->
             (Demand.array_use d s).Demand.bandwidth))
        own.arrays
    in
    let tapes =
      List.filter
        (moved Provision.tape_bw (fun d s ->
             (Demand.tape_use d s).Demand.tape_bandwidth))
        own.tapes
    in
    let links = List.filter (moved Provision.link_bw Demand.link_use) own.links in
    fun fp ->
      List.mem id fp.apps
      || List.exists (reads_array fp) arrays
      || List.exists (reads_tape fp) tapes
      || List.exists (reads_link fp) links

let update_in ?params ?obs batch ~footprints base move prov =
  Simulate.incr_evaluations batch;
  let details = base.penalty.Penalty.details in
  let dirty = dirty_test base.provision prov move in
  let reused = ref 0 in
  let details =
    List.mapi
      (fun i ((scen, _) as entry) ->
         let fp = footprints.(i) in
         if dirty fp then (scen, Simulate.scenario ?params ?obs ~batch prov scen)
         else begin
           if fp.Simulate.apps <> [] then incr reused;
           entry
         end)
      details
  in
  Simulate.count_reused batch !reused;
  of_penalty prov (Penalty.of_details prov details)

let update ?params ?obs ?batch ~footprints base move prov =
  if Array.length footprints <> List.length base.penalty.Penalty.details then
    invalid_arg "Evaluate.update: one footprint per scenario of the base";
  match batch with
  | Some batch -> update_in ?params ?obs batch ~footprints base move prov
  | None ->
    Simulate.with_batch (Option.value ~default:Ds_obs.Obs.noop obs) (fun batch ->
        update_in ?params ?obs batch ~footprints base move prov)

let total t = Summary.total t.summary

let app_burden t app_id =
  let penalties =
    List.fold_left
      (fun acc (p : Penalty.per_app) ->
         if p.app.App.id = app_id then Money.add acc (Money.add p.outage p.loss)
         else acc)
      Money.zero t.penalty.Penalty.by_app
  in
  Money.add penalties (Outlay.app_share t.provision app_id)

let pp ppf t = Summary.pp ppf t.summary
