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

let attempts_c = Obs.Metrics.counter_handle "heuristic.tabu.attempts"

type params = {
  iterations : int;
  neighbors : int;
  tenure : int;
}

let default_params = { iterations = 120; neighbors = 4; tenure = 3 }

let check params =
  if params.iterations < 0 then invalid_arg "Tabu: negative iterations";
  if params.neighbors < 1 then invalid_arg "Tabu: need at least one neighbor";
  if params.tenure < 0 then invalid_arg "Tabu: negative tenure"

(* (app id -> iteration until which it is tabu) *)
let is_tabu tabu_until iteration app_id =
  match Hashtbl.find_opt tabu_until app_id with
  | Some until -> iteration < until
  | None -> false

let neighbor rng options likelihood (candidate : Candidate.t) app =
  let stripped = Design.remove candidate.Candidate.design app.App.id in
  let technique =
    Sample.choose rng (Technique_catalog.eligible_for (App.category app))
  in
  match Layout.choose_uniform rng stripped app technique with
  | None -> None
  | Some choice ->
    (match Layout.apply stripped choice with
     | Error _ -> None
     | Ok design ->
       (match Config_solver.solve ~options design likelihood with
        | Ok next -> Some next
        | Error _ -> None))

let run ?(options = Config_solver.search_options) ?(params = default_params)
    ?(obs = Obs.noop) ~seed env apps likelihood =
  check params;
  Obs.with_span obs "heuristic.tabu" @@ fun () ->
  let rng = Rng.of_int seed in
  let rec initial tries =
    if tries >= 50 then (None, tries)
    else
      match Random_search.sample_design rng env apps with
      | None -> initial (tries + 1)
      | Some design ->
        (match Config_solver.solve ~options design likelihood with
         | Ok candidate -> (Some candidate, tries + 1)
         | Error _ -> initial (tries + 1))
  in
  let start, start_attempts = initial 0 in
  match start with
  | None ->
    { Heuristic_result.best = None; attempts = start_attempts; feasible = 0 }
  | Some start ->
    let tabu_until : (App.id, int) Hashtbl.t = Hashtbl.create 16 in
    let current = ref start in
    let best = ref start in
    let feasible = ref 1 in
    for iteration = 1 to params.iterations do
      Obs.bump obs attempts_c;
      let candidates_apps = Design.apps !current.Candidate.design in
      let moves =
        List.init params.neighbors (fun _ ->
            let app = Sample.choose rng candidates_apps in
            match neighbor rng options likelihood !current app with
            | Some next -> Some (app, next)
            | None -> None)
        |> List.filter_map Fun.id
      in
      let admissible =
        List.filter
          (fun (app, next) ->
             (not (is_tabu tabu_until iteration app.App.id))
             (* Aspiration: a tabu move that beats the best is allowed. *)
             || Money.compare (Candidate.cost next) (Candidate.cost !best) < 0)
          moves
      in
      (match admissible with
       | [] -> ()
       | moves ->
         feasible := !feasible + List.length moves;
         let app, next =
           List.fold_left
             (fun (ba, bn) (a, n) ->
                if Money.compare (Candidate.cost n) (Candidate.cost bn) < 0
                then (a, n)
                else (ba, bn))
             (List.hd moves) (List.tl moves)
         in
         (* Move unconditionally — tabu search explores through worse
            states — and freeze the touched application. *)
         current := next;
         Hashtbl.replace tabu_until app.App.id (iteration + params.tenure);
         best := Candidate.better !best next)
    done;
    { Heuristic_result.best = Some !best;
      attempts = start_attempts + params.iterations;
      feasible = !feasible }
