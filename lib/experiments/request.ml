module Env = Ds_resources.Env
module App = Ds_workload.App
module Likelihood = Ds_failure.Likelihood
module Provision = Ds_design.Provision
module Design_solver = Ds_solver.Design_solver
module Search = Ds_search.Search
module Fleet = Ds_fleet.Fleet
module Year_sim = Ds_risk.Year_sim
module Tail_sim = Ds_risk.Tail_sim
module Exec = Ds_exec.Exec
module Rng = Ds_prng.Rng

type error = Invalid of string | No_design

let error_message = function
  | Invalid msg -> msg
  | No_design -> "no feasible design found"

let ( let* ) = Result.bind
let check ok msg = if ok then Ok () else Error (Invalid msg)
let positive name n = check (n >= 1) (name ^ " must be positive")

let lookup what names s =
  match List.assoc_opt s names with
  | Some v -> Ok v
  | None ->
    Error
      (Invalid
         (Printf.sprintf "unknown %s %S (%s)" what s
            (String.concat "|" (List.map fst names))))

(* ---- Checked parts ------------------------------------------------ *)

let instance ?apps env =
  let mix n = Ds_workload.Workload_catalog.mix ~count:n in
  let* sites, default_apps =
    lookup "environment"
      [ ("peer", (Envs.peer_sites, Envs.peer_apps));
        ("quad", (Envs.quad_sites, fun () -> mix 16)) ]
      env
  in
  let* () =
    check (Option.fold ~none:true ~some:(( <= ) 0) apps)
      "apps must be non-negative"
  in
  Ok (sites (), Option.fold ~none:(default_apps ()) ~some:mix apps)

let likelihood ?object_rate ?array_rate ?site_rate () =
  let rate name given default =
    let x = Option.value ~default given in
    if Float.is_finite x && x >= 0. then Ok x
    else Error (Invalid (name ^ " must be finite and non-negative"))
  in
  let d = Likelihood.default in
  let* obj = rate "object_rate" object_rate d.Likelihood.data_object_per_year in
  let* arr = rate "array_rate" array_rate d.Likelihood.array_per_year in
  let* site = rate "site_rate" site_rate d.Likelihood.site_per_year in
  Ok
    (Likelihood.v ~data_object_per_year:obj ~array_per_year:arr
       ~site_per_year:site)

let budget ?(restarts = 1) ?(race = false) ?max_evaluations ?(domains = 1)
    ?(config_cache = true) ~seed name =
  let* base =
    lookup "budget" [ ("quick", Budgets.quick); ("default", Budgets.default) ]
      name
  in
  let* () = positive "restarts" restarts in
  let* () = positive "domains" domains in
  let t = Budgets.with_domains (Budgets.with_seed base seed) domains in
  let solver = t.Budgets.solver in
  let config_cache_size =
    if config_cache then solver.Design_solver.config_cache_size else 0
  in
  Ok
    (Budgets.with_portfolio ~race ?max_evaluations
       { t with Budgets.solver = { solver with config_cache_size } }
       restarts)

(* ---- Requests ----------------------------------------------------- *)

type solve = {
  env : Env.t;
  apps : App.t list;
  likelihood : Likelihood.t;
  budget : Budgets.t;
  deadline_s : float option;
}

type risk = {
  solve : solve;
  design : string option;
  years : int;
  sla : float option;
  tilt : float;
  strata : string;
}

type fleet = {
  pods : int;
  apps_per_pod : int;
  shards : int option;
  likelihood : Likelihood.t;
  budget : Budgets.t;
}

type resolve = {
  drift : (App.id * float) list;
  dirty : App.id list option;
  catalog_revision : int option;
}

(* ---- Running ------------------------------------------------------ *)

type solved = Single of Design_solver.outcome | Portfolio of Search.result

let best = function
  | Single o -> o.Design_solver.best
  | Portfolio r -> r.Search.best

let default_pool b = fst (Budgets.sweep b)

let run_solve ?memo ?pool ?obs (r : solve) =
  let b = r.budget in
  (if b.Budgets.restarts = 1 then
     (* The deadline counts from when the solve starts, not from when
        the request was queued. *)
     let abandon =
       Option.map
         (fun limit ->
           let deadline = Ds_obs.Metrics.now_s () +. limit in
           fun (_ : float) -> Ds_obs.Metrics.now_s () > deadline)
         r.deadline_s
     in
     Design_solver.solve ~params:b.Budgets.solver ?obs ?abandon ?memo r.env
       r.apps r.likelihood
     |> Option.map (fun o -> Single o)
   else
     (* Restart 0 replays the single run, so the portfolio can only
        return a cheaper design. *)
     let pool = match pool with Some p -> p | None -> default_pool b in
     Search.run ~restarts:b.Budgets.restarts ~race:b.Budgets.race
       ?max_evaluations:b.Budgets.portfolio_evaluations
       ~params:b.Budgets.solver ~pool ?obs r.env r.apps r.likelihood
     |> Option.map (fun r -> Portfolio r))
  |> Option.to_result ~none:No_design

type risk_report = {
  provision : Provision.t;
  year_sim : Year_sim.t;
  tail : (Tail_sim.t * Tail_sim.certification) option;
}

let run_risk ?memo ?pool ?obs (r : risk) =
  let* () = positive "years" r.years in
  let* () =
    check
      (Option.fold ~none:true ~some:(fun a -> a > 0. && a < 1.) r.sla)
      "sla must be in (0, 1)"
  in
  let* strategy =
    lookup "strata"
      [ ("scope", Tail_sim.By_scope); ("none", Tail_sim.Nominal_only) ]
      r.strata
  in
  let s = r.solve in
  let pool = match pool with Some p -> p | None -> default_pool s.budget in
  let* provision =
    match r.design with
    | Some text ->
      (match Ds_design.Design_io.of_string s.env s.apps text with
       | Error msg -> Error (Invalid ("design: " ^ msg))
       | Ok design ->
         Provision.minimum design
         |> Result.map_error (fun e ->
                Invalid
                  (Format.asprintf "design is infeasible: %a"
                     Provision.pp_infeasibility e)))
    | None ->
      let* solved = run_solve ?memo ~pool ?obs s in
      Ok (best solved).Ds_solver.Candidate.eval.Ds_cost.Evaluate.provision
  in
  let rng = Rng.of_int s.budget.Budgets.solver.Design_solver.seed in
  let year_sim =
    Year_sim.simulate ~years:r.years ?obs ~pool rng provision s.likelihood
  in
  (* The tail stream splits off the generator after the nominal run,
     which pre-splits one stream per chunk, so the parent has advanced
     by a fixed (years-dependent, pool-independent) amount and the tail
     sample stays byte-identical at every pool width. *)
  let* tail =
    match r.sla with
    | None -> Ok None
    | Some availability ->
      (match
         Tail_sim.simulate ~years:r.years ~tilt:r.tilt ~strategy ?obs ~pool
           (Rng.split rng) provision s.likelihood
       with
       | exception Invalid_argument msg -> Error (Invalid msg)
       | tail -> Ok (Some (tail, Tail_sim.certify tail ~availability)))
  in
  Ok { provision; year_sim; tail }

type fleet_state = { sites : Env.t; request : fleet; result : Fleet.t }

let run_fleet ?obs (f : fleet) =
  let* () = positive "pods" f.pods in
  let* () = positive "apps_per_pod" f.apps_per_pod in
  let* () = Option.fold ~none:(Ok ()) ~some:(positive "shards") f.shards in
  let sites = Envs.fleet_sites ~pods:f.pods () in
  let apps = Envs.fleet_apps ~pods:f.pods ~apps_per_pod:f.apps_per_pod in
  let result =
    Fleet.solve ~params:f.budget.Budgets.solver ?shards:f.shards ?obs sites
      apps f.likelihood
  in
  Ok { sites; request = f; result }

let run_resolve ?obs (s : fleet_state) (r : resolve) =
  let apps = s.result.Fleet.apps in
  let check_drift (id, factor) =
    if List.exists (fun a -> a.App.id = id) apps then
      check (Float.is_finite factor && factor > 0.)
        "drift factor must be positive and finite"
    else
      Error
        (Invalid
           (Printf.sprintf
              "drift: no application with id %d (fleet ids are 1..%d)" id
              (List.length apps)))
  in
  let* () =
    List.fold_left (fun acc d -> Result.bind acc (fun () -> check_drift d))
      (Ok ()) r.drift
  in
  let drift a =
    match List.assoc_opt a.App.id r.drift with
    | Some factor -> App.drift ~factor a
    | None -> a
  in
  let sites =
    Option.fold ~none:s.sites ~some:(Env.with_catalog_revision s.sites)
      r.catalog_revision
  in
  let result =
    Fleet.resolve ~params:s.request.budget.Budgets.solver ?obs ?dirty:r.dirty
      ~incumbent:s.result sites (List.map drift apps) s.request.likelihood
  in
  Ok { s with sites; result }
