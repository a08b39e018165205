(** Typed requests: the one path behind [dstool] and [dstool serve].

    [dstool solve|risk|fleet] decode cmdliner flags, and the server's
    [solve], [risk], [fleet] and [resolve] methods decode JSON params,
    into these records, building their problem and budget with the
    checked constructors below; the [run_*] functions check the rest
    and run the design tool. Both front ends therefore give
    byte-identical results and reject a bad input with the same message
    (DESIGN.md §16). Defaults stay with the front ends. *)

module Env = Ds_resources.Env
module App = Ds_workload.App
module Likelihood = Ds_failure.Likelihood

type error =
  | Invalid of string
      (** A malformed or out-of-range request: [dstool: <message>] on
          the CLI, JSON-RPC -32602 on the server. *)
  | No_design  (** The solver found no feasible design. *)

val error_message : error -> string

(** {1 Checked parts} *)

val instance : ?apps:int -> string -> (Env.t * App.t list, error) result
(** [peer] or [quad] with [apps] applications cycling through the
    Table 1 classes (default: the eight case-study apps on [peer], 16 on
    [quad]). *)

val likelihood :
  ?object_rate:float ->
  ?array_rate:float ->
  ?site_rate:float ->
  unit ->
  (Likelihood.t, error) result
(** Per-year failure rates; an omitted one keeps
    {!Ds_failure.Likelihood.default}'s. *)

val budget :
  ?restarts:int ->
  ?race:bool ->
  ?max_evaluations:int ->
  ?domains:int ->
  ?config_cache:bool ->
  seed:int ->
  string ->
  (Budgets.t, error) result
(** [quick] or [default], seeded and [domains] wide (default 1);
    [restarts > 1] makes it a portfolio that [race] and
    [max_evaluations] shape. *)

(** {1 Requests} *)

type solve = {
  env : Env.t;
  apps : App.t list;
  likelihood : Likelihood.t;
  budget : Budgets.t;
  deadline_s : float option;
      (** Single solves: past it, return the anytime incumbent. *)
}

type risk = {
  solve : solve;  (** Run when [design] is [None]. *)
  design : string option;  (** {!Ds_design.Design_io} text. *)
  years : int;
  sla : float option;  (** Certify against this availability. *)
  tilt : float;
  strata : string;  (** [scope] or [none]. *)
}

type fleet = {
  pods : int;
  apps_per_pod : int;
  shards : int option;
  likelihood : Likelihood.t;
  budget : Budgets.t;  (** Its [domains] size the shard pool. *)
}

type resolve = {
  drift : (App.id * float) list;  (** Scale app [id]'s rates by a factor. *)
  dirty : App.id list option;
  catalog_revision : int option;
}

(** {1 Running} *)

type solved =
  | Single of Ds_solver.Design_solver.outcome
  | Portfolio of Ds_search.Search.result

val best : solved -> Ds_solver.Candidate.t

val run_solve :
  ?memo:Ds_solver.Config_solver.cache ->
  ?pool:Ds_exec.Exec.pool ->
  ?obs:Ds_obs.Obs.t ->
  solve ->
  (solved, error) result
(** One restart runs {!Ds_solver.Design_solver.solve} with [memo]; more
    run the {!Ds_search.Search} portfolio on [pool] (default: the
    budget's {!Budgets.sweep} pool, as wide as its [domains]). *)

type risk_report = {
  provision : Ds_design.Provision.t;
  year_sim : Ds_risk.Year_sim.t;
  tail : (Ds_risk.Tail_sim.t * Ds_risk.Tail_sim.certification) option;
}

val run_risk :
  ?memo:Ds_solver.Config_solver.cache ->
  ?pool:Ds_exec.Exec.pool ->
  ?obs:Ds_obs.Obs.t ->
  risk ->
  (risk_report, error) result
(** Parse or solve the design, simulate [years] from the budget seed,
    and with an [sla] run {!Ds_risk.Tail_sim} on a split of the same
    generator and certify. Samples are identical at every pool width. *)

type fleet_state = {
  sites : Env.t;  (** At its current catalog revision. *)
  request : fleet;
  result : Ds_fleet.Fleet.t;  (** The incumbent; [result.apps] is the fleet. *)
}

val run_fleet : ?obs:Ds_obs.Obs.t -> fleet -> (fleet_state, error) result

val run_resolve :
  ?obs:Ds_obs.Obs.t -> fleet_state -> resolve -> (fleet_state, error) result
(** Drift, bump the catalog revision, and warm re-solve from the
    incumbent. Drift on an id the fleet lacks is [Invalid]. *)
