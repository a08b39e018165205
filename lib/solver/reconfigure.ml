module Money = Ds_units.Money
module App = Ds_workload.App
module Technique = Ds_protection.Technique
module Technique_catalog = Ds_protection.Technique_catalog
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Evaluate = Ds_cost.Evaluate
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec

let evaluations_c = Obs.Metrics.counter_handle "solver.evaluations"

type state = {
  rng : Rng.t;
  history : Layout.History.t;
  likelihood : Likelihood.t;
  options : Config_solver.options;
  obs : Obs.t;
  mutable evaluations : int;
}

let state ?(options = Config_solver.search_options) ?(obs = Obs.noop) ~rng
    likelihood =
  { rng; history = Layout.History.create (); likelihood; options; obs;
    evaluations = 0 }

let fork ?obs state ~rng =
  { rng;
    history = Layout.History.fork state.history;
    likelihood = state.likelihood;
    options = state.options;  (* shares the memo cache, which is mutexed *)
    obs = Option.value ~default:state.obs obs;
    evaluations = 0 }

let merge ~into probe =
  into.evaluations <- into.evaluations + probe.evaluations;
  Layout.History.absorb ~into:into.history probe.history

let count_evaluation state =
  state.evaluations <- state.evaluations + 1;
  Obs.bump state.obs evaluations_c

let eligible_techniques app =
  Technique_catalog.eligible_for (App.category app)

let scoped_options state (app : App.t) =
  match state.options.Config_solver.window_scope with
  | Config_solver.Only _ ->
    { state.options with Config_solver.window_scope = Config_solver.Only [ app.App.id ] }
  | Config_solver.All_apps | Config_solver.Skip -> state.options

let place_with_technique state design app technique =
  match Layout.choose state.rng state.history design app technique with
  | None -> None
  | Some choice ->
    (match Layout.apply design choice with
     | Error _ -> None
     | Ok design ->
       count_evaluation state;
       (match
          Config_solver.solve ~options:(scoped_options state app)
            ~obs:state.obs design state.likelihood
        with
        | Ok candidate -> Some candidate
        | Error _ -> None))

(* Stage-1 greedy step, parallel over the technique menu — split so the
   pool cannot perturb the search. Phase 1 runs on the calling domain,
   in technique order: layout draws (the only RNG consumer) and history
   records happen in exactly the historical sequential scan's sequence,
   so a fixed seed walks the same designs at every pool width — and
   with the sequential default. Phase 2 fans the surviving designs out:
   the configuration solver is a pure function of (options, design,
   likelihood) — it draws no RNG and touches no history — so only wall
   time moves. Ties still break toward the lowest technique index
   ({!Candidate.better} keeps its first argument). *)
let assign_best ?(pool = Exec.sequential) state design app =
  let attempts =
    List.filter_map
      (fun technique ->
         match Layout.choose state.rng state.history design app technique with
         | None -> None
         | Some choice ->
           (match Layout.apply design choice with
            | Error _ -> None
            | Ok design ->
              count_evaluation state;
              Some design))
      (eligible_techniques app)
    |> Array.of_list
  in
  if Array.length attempts = 0 then None
  else begin
    let options = scoped_options state app in
    let results =
      Exec.map pool ~label:"solver.assign" ~obs:state.obs
        (fun wobs _ design ->
           match Config_solver.solve ~options ~obs:wobs design state.likelihood with
           | Ok candidate -> Some candidate
           | Error _ -> None)
        attempts
    in
    Array.fold_left
      (fun best result ->
         match best, result with
         | None, r -> r
         | b, None -> b
         | Some b, Some r -> Some (Candidate.better b r))
      None results
  end

(* Victim selection: weight each assigned app by its burden (penalties +
   outlay share), so expensive apps are reconfigured more often.
   [victims] restricts the draw to a subset of apps — the warm-start
   path confines refit moves to the dirty set so untouched assignments
   are never rewritten. Without the filter (or with an all-true one
   over an unchanged design) the draw consumes the identical RNG
   stream, so existing callers are byte-identical. *)
let pick_victim ?victims state (candidate : Candidate.t) =
  let eligible =
    match victims with
    | None -> Design.apps candidate.Candidate.design
    | Some keep ->
      List.filter (fun (app : App.t) -> keep app.App.id)
        (Design.apps candidate.Candidate.design)
  in
  let weights =
    List.map
      (fun app ->
         (app,
          Money.to_dollars (Evaluate.app_burden candidate.Candidate.eval app.App.id)))
      eligible
  in
  match weights with
  | [] -> None
  | _ -> Some (Sample.weighted state.rng weights)

let reconfigure ?victims state (candidate : Candidate.t) =
  match pick_victim ?victims state candidate with
  | None -> None
  | Some app ->
    let stripped = Design.remove candidate.Candidate.design app.App.id in
    let attempts =
      eligible_techniques app
      |> List.filter_map (fun technique ->
          Option.map (fun c -> (technique, c))
            (place_with_technique state stripped app technique))
    in
    (match attempts with
     | [] -> None
     | attempts ->
       (* Bias toward inexpensive techniques: p(dpt) proportional to
          1 - cost/sum (degenerates to uniform for a single option). *)
       let costs = List.map (fun (_, c) -> Candidate.cost c) attempts in
       let total = Money.sum costs in
       let weights =
         List.map
           (fun (_, c) ->
              let share =
                if Money.is_zero total then 0.
                else Money.div (Candidate.cost c) total
              in
              (c, Float.max 0.01 (1. -. share)))
           attempts
       in
       Some (Sample.weighted state.rng weights))
