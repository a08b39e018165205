module App = Ds_workload.App
module Money = Ds_units.Money
module Technique_catalog = Ds_protection.Technique_catalog
module Env = Ds_resources.Env
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Candidate = Ds_solver.Candidate
module Config_solver = Ds_solver.Config_solver
module Layout = Ds_solver.Layout
module Obs = Ds_obs.Obs

let attempts_c = Obs.Metrics.counter_handle "heuristic.annealing.attempts"
let feasible_c = Obs.Metrics.counter_handle "heuristic.annealing.feasible"

type params = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
}

let default_params =
  { iterations = 400; initial_temperature = 20e6; cooling = 0.99 }

let check params =
  if params.iterations < 0 then invalid_arg "Annealing: negative iterations";
  if params.initial_temperature <= 0. then
    invalid_arg "Annealing: temperature must be positive";
  if params.cooling <= 0. || params.cooling >= 1. then
    invalid_arg "Annealing: cooling must be in (0, 1)"

(* A uniform neighbor: strip one random application and re-place it with a
   uniformly drawn eligible technique and layout. *)
let neighbor rng options likelihood (candidate : Candidate.t) =
  match Design.apps candidate.Candidate.design with
  | [] -> None
  | apps ->
    let app = Sample.choose rng apps in
    let stripped = Design.remove candidate.Candidate.design app.App.id in
    let technique =
      Sample.choose rng (Technique_catalog.eligible_for (App.category app))
    in
    (match Layout.choose_uniform rng stripped app technique with
     | None -> None
     | Some choice ->
       (match Layout.apply stripped choice with
        | Error _ -> None
        | Ok design ->
          (match Config_solver.solve ~options design likelihood with
           | Ok next -> Some next
           | Error _ -> None)))

let initial rng options env apps likelihood ~max_tries =
  let rec go tries =
    if tries >= max_tries then (None, tries)
    else
      match Random_search.sample_design rng env apps with
      | None -> go (tries + 1)
      | Some design ->
        (match Config_solver.solve ~options design likelihood with
         | Ok candidate -> (Some candidate, tries + 1)
         | Error _ -> go (tries + 1))
  in
  go 0

let run ?(options = Config_solver.search_options) ?(params = default_params)
    ?(obs = Obs.noop) ~seed env apps likelihood =
  check params;
  Obs.with_span obs "heuristic.annealing" @@ fun () ->
  let rng = Rng.of_int seed in
  let start, start_attempts =
    initial rng options env apps likelihood ~max_tries:50
  in
  match start with
  | None ->
    { Heuristic_result.best = None; attempts = start_attempts; feasible = 0 }
  | Some start ->
    let current = ref start in
    let best = ref start in
    let temperature = ref params.initial_temperature in
    let feasible = ref 1 in
    for _ = 1 to params.iterations do
      Obs.bump obs attempts_c;
      (match neighbor rng options likelihood !current with
       | None -> ()
       | Some next ->
         incr feasible;
         Obs.bump obs feasible_c;
         let delta =
           Money.to_dollars (Candidate.cost next)
           -. Money.to_dollars (Candidate.cost !current)
         in
         let accept =
           delta <= 0.
           || Sample.bernoulli rng (exp (-.delta /. !temperature))
         in
         if accept then current := next;
         best := Candidate.better !best next);
      temperature := !temperature *. params.cooling
    done;
    { Heuristic_result.best = Some !best;
      attempts = start_attempts + params.iterations;
      feasible = !feasible }
