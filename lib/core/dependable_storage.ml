(** Dependable storage design tool.

    An OCaml reproduction of "Designing dependable storage solutions for
    shared application environments" (Gaonkar, Keeton, Merchant, Sanders —
    DSN 2006): an automated design tool that chooses data protection
    techniques, their configuration parameters and the devices supporting
    them for every application in a shared environment, minimizing
    amortized outlays plus expected failure penalties.

    This module is the public facade; each subsystem is also usable as a
    standalone library.

    {1 Quick start}

    {[
      open Dependable_storage

      let env =
        Resources.Env.fully_connected ~name:"two-sites" ~site_count:2
          ~bays_per_site:2 ~array_models:Resources.Device_catalog.array_models
          ~tape_models:Resources.Device_catalog.tape_models
          ~link_model:Resources.Device_catalog.link_high ~max_link_units:32
          ~compute_slots_per_site:8 ()

      let apps = Workload.Workload_catalog.mix ~count:8

      let () =
        match Solver.Design_solver.solve env apps Failure.Likelihood.default with
        | Some outcome ->
          Format.printf "%a@." Solver.Candidate.pp outcome.Solver.Design_solver.best
        | None -> prerr_endline "no feasible design"
    ]} *)

module Units = struct
  module Time = Ds_units.Time
  module Size = Ds_units.Size
  module Rate = Ds_units.Rate
  module Money = Ds_units.Money
end

module Prng = struct
  module Rng = Ds_prng.Rng
  module Sample = Ds_prng.Sample
end

module Workload = struct
  module Category = Ds_workload.Category
  module App = Ds_workload.App
  module Workload_catalog = Ds_workload.Workload_catalog
end

module Protection = struct
  module Recovery_mode = Ds_protection.Recovery_mode
  module Mirror = Ds_protection.Mirror
  module Backup = Ds_protection.Backup
  module Technique = Ds_protection.Technique
  module Technique_catalog = Ds_protection.Technique_catalog
end

module Resources = struct
  module Tier = Ds_resources.Tier
  module Array_model = Ds_resources.Array_model
  module Tape_model = Ds_resources.Tape_model
  module Link_model = Ds_resources.Link_model
  module Device_catalog = Ds_resources.Device_catalog
  module Site = Ds_resources.Site
  module Slot = Ds_resources.Slot
  module Env = Ds_resources.Env
end

module Design = struct
  module Assignment = Ds_design.Assignment
  module Design = Ds_design.Design
  module Demand = Ds_design.Demand
  module Provision = Ds_design.Provision
  module Design_io = Ds_design.Design_io
  module Lint = Ds_design.Lint
end

module Failure = struct
  module Likelihood = Ds_failure.Likelihood
  module Scenario = Ds_failure.Scenario
end

module Sim = struct
  module Engine = Ds_sim.Engine
end

module Recovery = struct
  module Recovery_params = Ds_recovery.Recovery_params
  module Copy_source = Ds_recovery.Copy_source
  module Outcome = Ds_recovery.Outcome
  module Simulate = Ds_recovery.Simulate
end

module Cost = struct
  module Summary = Ds_cost.Summary
  module Outlay = Ds_cost.Outlay
  module Penalty = Ds_cost.Penalty
  module Evaluate = Ds_cost.Evaluate
  module Slo_report = Ds_cost.Slo_report
  module Sla = Ds_cost.Sla
end

module Solver = struct
  module Candidate = Ds_solver.Candidate
  module Memo = Ds_solver.Memo
  module Layout = Ds_solver.Layout
  module Config_solver = Ds_solver.Config_solver
  module Reconfigure = Ds_solver.Reconfigure
  module Design_solver = Ds_solver.Design_solver
  module Exhaustive = Ds_solver.Exhaustive
end

module Fleet = Ds_fleet.Fleet
(** Fleet-scale coordinator: [Fleet.solve env apps likelihood] partitions
    thousands of apps over the environment's failure domains, solves
    shards in parallel on an [Exec] pool and reconciles shared-resource
    contention; [Fleet.resolve ~incumbent] re-solves only the shards a
    workload drift touched, reusing the rest byte-for-byte. Deterministic
    in the domain count; see DESIGN.md §15. *)

module Search = Ds_search.Search
(** Multi-start portfolio meta-solver: [Search.run ~restarts:8 ~pool env
    apps likelihood] races independent design-solver restarts on an
    [Exec] pool and returns the cheapest design (cost ties to the lowest
    restart index). Deterministic in the domain count; see DESIGN.md
    §11. *)

module Heuristics = struct
  module Heuristic_result = Ds_heuristics.Heuristic_result
  module Human = Ds_heuristics.Human
  module Random_search = Ds_heuristics.Random_search
  module Annealing = Ds_heuristics.Annealing
  module Tabu = Ds_heuristics.Tabu
end

(** Risk beyond the expected penalty: [Tail_sim] is the one year
    sampler (importance sampling, SLA certification) and [Year_sim]
    reads annual-penalty percentiles off its untilted nominal run. *)
module Risk = struct
  module Year_sim = Ds_risk.Year_sim
  module Tail_sim = Ds_risk.Tail_sim
end

module Trace = struct
  module Io_record = Ds_trace.Io_record
  module Trace = Ds_trace.Trace
  module Synth = Ds_trace.Synth
  module Characterize = Ds_trace.Characterize
end

module Exec = Ds_exec.Exec
(** Deterministic domain-pool executor: one map, [Exec.map] (and
    [Exec.map_rng], which pre-splits one RNG stream per task first).
    [Exec.create ~domains:4 ()] gives a pool you can hand to
    [Risk.Tail_sim.simulate ~pool] or [Risk.Year_sim.simulate ~pool],
    or set on experiment budgets via
    [Experiments.Budgets.with_domains]; every consumer's results are
    identical at any width (DESIGN.md §10). *)

module Obs = Ds_obs.Obs
(** Observability capability: metrics, span tracing and solver progress.
    Pass [~obs:(Obs.create ~metrics:true ())] (or any sink combination)
    to [Solver.Design_solver.solve], [Experiments.Compare.run],
    [Risk.Tail_sim.simulate], [Sim.Engine.create] and friends; the
    default everywhere is the cost-free noop sink. *)

module Experiments = Ds_experiments

module Server = struct
  module Json = Ds_server.Json
  module Protocol = Ds_server.Protocol
  module Daemon = Ds_server.Daemon
  module Client = Ds_server.Client
end
(** The design tool as a long-running service: [Server.Daemon] serves
    solve / resolve / risk / fleet requests over newline-delimited
    JSON-RPC on TCP with a resident pool and configuration cache;
    [Server.Client] is the matching blocking client ([dstool serve] /
    [dstool client]). See DESIGN.md §16. *)
