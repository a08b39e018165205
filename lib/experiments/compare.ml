module Env = Ds_resources.Env
module App = Ds_workload.App
module Likelihood = Ds_failure.Likelihood
module Summary = Ds_cost.Summary
module Money = Ds_units.Money
module Candidate = Ds_solver.Candidate
module Design_solver = Ds_solver.Design_solver
module Human = Ds_heuristics.Human
module Random_search = Ds_heuristics.Random_search
module Heuristic_result = Ds_heuristics.Heuristic_result
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec

type entry = {
  label : string;
  summary : Summary.t option;
}

(* Each arm seeds its generator at the shared budget seed plus its own
   offset, so no two arms replay the same stream. The offsets are part of
   the fixed-seed contract: changing one changes that arm's published
   numbers. *)
let solver_seed_offset = 0
let random_seed_offset = 1
let human_seed_offset = 2
let annealing_seed_offset = 3
let tabu_seed_offset = 4

let arm_seed_offsets =
  [ ("design tool", solver_seed_offset);
    ("random", random_seed_offset);
    ("human", human_seed_offset);
    ("annealing", annealing_seed_offset);
    ("tabu", tabu_seed_offset) ]

let of_candidate label = function
  | Some c -> { label; summary = Some (Candidate.summary c) }
  | None -> { label; summary = None }

(* Best-of-[restarts] for the single-shot metaheuristic arms. Restart
   [r]'s seed is the arm's stream plus [r] strides of the offset table
   size, so no restart of any arm ever collides with another arm's
   stream ([offset + 5r mod 5] identifies the arm). [Candidate.better]
   keeps its first argument on ties: the lowest restart wins, as in the
   portfolio. Restart 0 replays the pre-portfolio stream, so
   [restarts = 1] reproduces historical results exactly. *)
let best_of_restarts restarts run_one =
  let rec loop r best =
    if r >= restarts then best
    else
      let best =
        match best, run_one r with
        | None, c -> c
        | b, None -> b
        | Some b, Some c -> Some (Candidate.better b c)
      in
      loop (r + 1) best
  in
  loop 0 None

let arm_count = List.length arm_seed_offsets

let run ?(budgets = Budgets.default) ?(metaheuristics = false)
    ?(obs = Obs.noop) env apps likelihood =
  let seed = budgets.Budgets.solver.Design_solver.seed in
  let pool, inner = Budgets.sweep budgets in
  let restarts = max 1 budgets.Budgets.restarts in
  let arms =
    [ ( "design tool",
        fun obs ->
          (* [inner] is single-domain (the arms own any parallelism),
             so a portfolio here runs its restarts sequentially. *)
          let request =
            { Request.env; apps; likelihood; budget = inner; deadline_s = None }
          in
          Request.run_solve ~obs request |> Result.to_option
          |> Option.map Request.best );
      ( "random",
        fun obs ->
          (Random_search.run ~attempts:budgets.Budgets.random_attempts ~obs
             ~seed:(seed + random_seed_offset) env apps likelihood)
            .Heuristic_result.best );
      ( "human",
        fun obs ->
          (Human.run ~attempts:budgets.Budgets.human_attempts ~obs
             ~seed:(seed + human_seed_offset) env apps likelihood)
            .Heuristic_result.best ) ]
    @
    if not metaheuristics then []
    else
      [ ( "annealing",
          fun obs ->
            best_of_restarts restarts (fun r ->
                (Ds_heuristics.Annealing.run ~obs
                   ~seed:(seed + annealing_seed_offset + (arm_count * r))
                   env apps likelihood)
                  .Heuristic_result.best) );
        ( "tabu",
          fun obs ->
            best_of_restarts restarts (fun r ->
                (Ds_heuristics.Tabu.run ~obs
                   ~seed:(seed + tabu_seed_offset + (arm_count * r))
                   env apps likelihood)
                  .Heuristic_result.best) ) ]
  in
  Exec.map pool ~label:"compare.arms" ~obs
    (fun wobs _ (label, arm) -> of_candidate label (arm wobs))
    (Array.of_list arms)
  |> Array.to_list

let run_peer ?budgets () =
  run ?budgets (Envs.peer_sites ()) (Envs.peer_apps ()) Likelihood.default

let total_of entries label =
  List.find_opt (fun e -> String.equal e.label label) entries
  |> Fun.flip Option.bind (fun e -> e.summary)
  |> Option.map (fun s -> Money.to_dollars (Summary.total s))

let ratio entries ~baseline label =
  match total_of entries baseline, total_of entries label with
  | Some base, Some target when target > 0. -> Some (base /. target)
  | _ -> None
