module Money = Ds_units.Money
module Likelihood = Ds_failure.Likelihood
module Summary = Ds_cost.Summary
module Exec = Ds_exec.Exec
module Metrics = Ds_obs.Metrics
module Fleet = Ds_fleet.Fleet

type point = {
  apps : int;
  design_tool : Money.t option;
  random : Money.t option;
  human : Money.t option;
  seconds : float;
  apps_per_sec : float;
}

let total entry =
  Option.map Summary.total entry.Compare.summary

let find entries label =
  List.find_opt (fun (e : Compare.entry) -> String.equal e.Compare.label label)
    entries

(* A missing arm is a harness bug (Compare.run always emits all three
   labels), distinct from an arm that found no feasible design (entry
   present, summary [None]) — it used to degrade silently to [None] and
   read as "infeasible" in Figure 4. Fail loudly instead. *)
let total_of entries label =
  match find entries label with
  | Some entry -> total entry
  | None ->
    invalid_arg
      (Printf.sprintf
         "Scalability: comparison returned no %S entry (labels: %s)" label
         (String.concat ", "
            (List.map (fun (e : Compare.entry) -> e.Compare.label) entries)))

let rate ~apps ~seconds =
  if seconds > 0. then float_of_int apps /. seconds else 0.

let run ?(budgets = Budgets.default) ?(rounds = [ 1; 2; 3; 4; 5 ]) () =
  let env = Envs.quad_sites () in
  (* Rounds are the outer unit of work; each round's Compare (and the
     solvers underneath) runs sequentially when the pool is parallel. *)
  let pool, inner = Budgets.sweep budgets in
  Exec.map pool
    (fun _ _ round ->
       let apps = Envs.scaled_apps ~rounds:round in
       let started = Metrics.now_s () in
       let entries = Compare.run ~budgets:inner env apps Likelihood.default in
       let seconds = Metrics.now_s () -. started in
       let apps = List.length apps in
       { apps;
         design_tool = total_of entries "design tool";
         random = total_of entries "random";
         human = total_of entries "human";
         seconds;
         apps_per_sec = rate ~apps ~seconds })
    (Array.of_list rounds)
  |> Array.to_list

type fleet_point = {
  apps : int;
  shards : int;
  cost : Money.t;
  evaluations : int;
  conflicts : int;
  unplaced : int;
  seconds : float;
  apps_per_sec : float;
}

(* The fleet scaling sweep: one cold Fleet.solve per pod count, shards
   parallel on [budgets.domains] domains. Pod counts are the outer axis
   (each point already fans out over its shards), so points run
   sequentially in list order. *)
let run_fleet ?(budgets = Budgets.default) ?(apps_per_pod = 8)
    ?(pods = [ 4; 16; 64 ]) () =
  let params =
    { budgets.Budgets.solver with
      Ds_solver.Design_solver.domains = max 1 budgets.Budgets.domains }
  in
  List.map
    (fun pod_count ->
       let env = Envs.fleet_sites ~pods:pod_count () in
       let apps = Envs.fleet_apps ~pods:pod_count ~apps_per_pod in
       let started = Metrics.now_s () in
       let result = Fleet.solve ~params env apps Likelihood.default in
       let seconds = Metrics.now_s () -. started in
       let apps = List.length apps in
       { apps;
         shards = List.length result.Fleet.shard_results;
         cost = result.Fleet.cost;
         evaluations = result.Fleet.evaluations;
         conflicts = result.Fleet.conflicts;
         unplaced = List.length result.Fleet.unplaced;
         seconds;
         apps_per_sec = rate ~apps ~seconds })
    pods
