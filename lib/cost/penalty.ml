module Money = Ds_units.Money
module App = Ds_workload.App
module Design = Ds_design.Design
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Scenario = Ds_failure.Scenario
module Outcome = Ds_recovery.Outcome
module Simulate = Ds_recovery.Simulate

type per_app = {
  app : App.t;
  outage : Money.t;
  loss : Money.t;
}

type t = {
  outage_total : Money.t;
  loss_total : Money.t;
  by_app : per_app list;
  details : (Scenario.t * Outcome.t list) list;
}

let of_outcome ~annual_rate (o : Outcome.t) =
  let outage =
    Money.penalty ~rate_per_hour:o.app.App.outage_penalty_rate o.recovery_time
  in
  let loss =
    Money.penalty ~rate_per_hour:o.app.App.loss_penalty_rate o.loss_time
  in
  (Money.scale annual_rate outage, Money.scale annual_rate loss)

(* This runs once per candidate evaluation — the solvers' innermost loop —
   so the accumulation is kept allocation-lean: per-app sums land in two
   unboxed float arrays indexed like the design's (id-sorted) assignment
   list, instead of a hash table of freshly boxed triples per outcome.
   Outcomes always concern assigned apps (the simulator only recovers
   assignments of the same design), so the linear index probe over the
   handful of apps never misses. Sums run in [details] order, so equal
   logs give bit-identical totals however they were obtained. *)
let of_details prov details =
  let apps =
    Array.of_list
      (List.map
         (fun (a : Ds_design.Assignment.t) -> a.app)
         (Design.assignments prov.Provision.design))
  in
  let n = Array.length apps in
  let outage = Array.make n 0. in
  let loss = Array.make n 0. in
  let index_of id =
    let rec go i = if i >= n || apps.(i).App.id = id then i else go (i + 1) in
    go 0
  in
  (* Same arithmetic as [of_outcome], kept in unboxed floats: each term
     is rate * (rate_per_hour * clamped_hours) in exactly that
     association, so the totals are bit-identical to the boxed path.
     8760 is [Money]'s hours-per-year penalty cap. *)
  let clamp_hours h =
    if Float.is_finite h then Float.min h 8760. else 8760.
  in
  List.iter
    (fun ((scen : Scenario.t), outcomes) ->
       let rate = scen.Scenario.annual_rate in
       List.iter
         (fun (o : Outcome.t) ->
            let i = index_of o.app.App.id in
            if i < n then begin
              let oh = clamp_hours (Ds_units.Time.to_hours o.recovery_time) in
              let lh = clamp_hours (Ds_units.Time.to_hours o.loss_time) in
              outage.(i) <-
                outage.(i)
                +. rate
                   *. (Money.to_dollars o.app.App.outage_penalty_rate *. oh);
              loss.(i) <-
                loss.(i)
                +. rate *. (Money.to_dollars o.app.App.loss_penalty_rate *. lh)
            end)
         outcomes)
    details;
  let outage_total = ref 0. in
  let loss_total = ref 0. in
  for i = 0 to n - 1 do
    outage_total := !outage_total +. outage.(i);
    loss_total := !loss_total +. loss.(i)
  done;
  let by_app =
    List.init n (fun i ->
        { app = apps.(i);
          outage = Money.dollars outage.(i);
          loss = Money.dollars loss.(i) })
  in
  { outage_total = Money.dollars !outage_total;
    loss_total = Money.dollars !loss_total;
    by_app;
    details }

let expected_annual ?params ?obs ?scenarios ?batch prov likelihood =
  of_details prov (Simulate.all ?params ?obs ?scenarios ?batch prov likelihood)
