module App = Ds_workload.App
module Technique_catalog = Ds_protection.Technique_catalog
module Env = Ds_resources.Env
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Layout = Ds_solver.Layout
module Config_solver = Ds_solver.Config_solver
module Obs = Ds_obs.Obs

let attempts_c = Obs.Metrics.counter_handle "heuristic.random.attempts"
let feasible_c = Obs.Metrics.counter_handle "heuristic.random.feasible"

let sample_design rng env apps =
  let rec place design = function
    | [] -> Some design
    | app :: rest ->
      let technique = Sample.choose rng Technique_catalog.all in
      (match Layout.choose_uniform rng design app technique with
       | None -> None
       | Some choice ->
         (match Layout.apply design choice with
          | Ok design -> place design rest
          | Error _ -> None))
  in
  place (Design.empty env) apps

let run ?(options = Config_solver.default_options) ?(attempts = 100)
    ?(obs = Obs.noop) ~seed env apps likelihood =
  Obs.with_span obs "heuristic.random" @@ fun () ->
  let rng = Rng.of_int seed in
  let rec loop result remaining =
    if remaining = 0 then result
    else begin
      Obs.bump obs attempts_c;
      let outcome =
        match sample_design rng env apps with
        | None -> None
        | Some design ->
          (match Config_solver.solve ~options ~obs design likelihood with
           | Ok candidate ->
             Obs.bump obs feasible_c;
             Some candidate
           | Error _ -> None)
      in
      loop (Heuristic_result.consider result outcome) (remaining - 1)
    end
  in
  loop Heuristic_result.empty attempts
