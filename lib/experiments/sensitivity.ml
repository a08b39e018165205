module Money = Ds_units.Money
module Likelihood = Ds_failure.Likelihood
module Summary = Ds_cost.Summary
module Candidate = Ds_solver.Candidate
module Design_solver = Ds_solver.Design_solver
module Exec = Ds_exec.Exec

type axis = Object_failure | Array_failure | Site_failure

let axis_name = function
  | Object_failure -> "data object failure"
  | Array_failure -> "disk array failure"
  | Site_failure -> "site disaster"

let default_rates = function
  | Object_failure -> [ 2.; 1.; 1. /. 2.; 1. /. 3.; 1. /. 5.; 1. /. 10. ]
  | Array_failure -> [ 1. /. 2.; 1. /. 3.; 1. /. 5.; 1. /. 10.; 1. /. 20. ]
  | Site_failure -> [ 1. /. 5.; 1. /. 10.; 1. /. 20.; 1. /. 35.; 1. /. 50. ]

let likelihood_for axis rate =
  let base = Likelihood.sensitivity_base in
  match axis with
  | Object_failure ->
    Likelihood.v ~data_object_per_year:rate
      ~array_per_year:base.Likelihood.array_per_year
      ~site_per_year:base.Likelihood.site_per_year
  | Array_failure ->
    Likelihood.v ~data_object_per_year:base.Likelihood.data_object_per_year
      ~array_per_year:rate ~site_per_year:base.Likelihood.site_per_year
  | Site_failure ->
    Likelihood.v ~data_object_per_year:base.Likelihood.data_object_per_year
      ~array_per_year:base.Likelihood.array_per_year ~site_per_year:rate

type point = {
  rate : float;
  summary : Summary.t option;
}

let run ?(budgets = Budgets.default) ?rates ?(apps = 16) axis =
  let rates = Option.value ~default:(default_rates axis) rates in
  let env = Envs.quad_sites () in
  let rounds = (apps + 3) / 4 in
  let workloads = Envs.scaled_apps ~rounds in
  let pool, inner = Budgets.sweep budgets in
  Exec.map pool
    (fun _ _ rate ->
       let likelihood = likelihood_for axis rate in
       let summary =
         Design_solver.solve ~params:inner.Budgets.solver env workloads
           likelihood
         |> Option.map (fun o -> Candidate.summary o.Design_solver.best)
       in
       { rate; summary })
    (Array.of_list rates)
  |> Array.to_list
