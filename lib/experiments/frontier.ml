module Money = Ds_units.Money
module App = Ds_workload.App
module Env = Ds_resources.Env
module Likelihood = Ds_failure.Likelihood
module Evaluate = Ds_cost.Evaluate
module Outlay = Ds_cost.Outlay
module Penalty = Ds_cost.Penalty
module Candidate = Ds_solver.Candidate
module Design_solver = Ds_solver.Design_solver
module Exec = Ds_exec.Exec

type point = {
  aversion : float;
  outlay : Money.t;
  true_penalty : Money.t;
}

let default_multipliers = [ 0.25; 0.5; 1.; 2.; 4. ]

let scale_app factor (app : App.t) =
  App.v ~id:app.App.id ~name:app.App.name ~class_tag:app.App.class_tag
    ~outage_per_hour:(Money.scale factor app.App.outage_penalty_rate)
    ~loss_per_hour:(Money.scale factor app.App.loss_penalty_rate)
    ~data_size:app.App.data_size ~avg_update:app.App.avg_update_rate
    ~peak_update:app.App.peak_update_rate
    ~unique_update:app.App.unique_update_rate
    ~avg_access:app.App.avg_access_rate ()

let run ?(budgets = Budgets.default) ?(multipliers = default_multipliers) env
    apps likelihood =
  let pool, inner = Budgets.sweep budgets in
  Exec.map pool
    (fun _ _ aversion ->
       let scaled = List.map (scale_app aversion) apps in
       match
         Design_solver.solve ~params:inner.Budgets.solver env scaled
           likelihood
       with
       | None -> None
       | Some outcome ->
         (* Re-price the chosen design against the original applications:
            same structure, true penalty rates. The design references the
            scaled apps, so rebuild it around the originals via the
            serialization round trip. *)
         let design = outcome.Design_solver.best.Candidate.design in
         let text = Ds_design.Design_io.to_string design in
         (match Ds_design.Design_io.of_string env apps text with
          | Error _ -> None
          | Ok repriced ->
            (match Evaluate.design repriced likelihood with
             | Error _ -> None
             | Ok eval ->
               Some
                 { aversion;
                   outlay = Outlay.annual eval.Evaluate.provision;
                   true_penalty =
                     Money.add eval.Evaluate.penalty.Penalty.outage_total
                       eval.Evaluate.penalty.Penalty.loss_total })))
    (Array.of_list multipliers)
  |> Array.to_list |> List.filter_map Fun.id

let run_peer ?budgets () =
  run ?budgets (Envs.peer_sites ()) (Envs.peer_apps ()) Likelihood.default

let pp ppf points =
  Format.fprintf ppf "%-10s %12s %14s %12s@." "aversion" "outlay"
    "true-penalty" "total";
  List.iter
    (fun p ->
       Format.fprintf ppf "%-10.4g %12s %14s %12s@." p.aversion
         (Money.to_string p.outlay)
         (Money.to_string p.true_penalty)
         (Money.to_string (Money.add p.outlay p.true_penalty)))
    points
