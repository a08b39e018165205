(** Heuristic comparison (Figure 3): outlay, data-loss penalty and outage
    penalty of the design tool, the human heuristic and the random
    heuristic on the same environment. *)

module Env = Ds_resources.Env
module App = Ds_workload.App
module Likelihood = Ds_failure.Likelihood
module Summary = Ds_cost.Summary

type entry = {
  label : string;
  summary : Summary.t option;  (** [None] when no feasible design found. *)
}

val arm_seed_offsets : (string * int) list
(** Per-arm RNG seed offsets, added to the budget's solver seed so no two
    arms replay the same stream. Pairwise distinct (asserted by the test
    suite); part of the fixed-seed output contract. *)

val run :
  ?budgets:Budgets.t ->
  ?metaheuristics:bool ->
  ?obs:Ds_obs.Obs.t ->
  Env.t ->
  App.t list ->
  Likelihood.t ->
  entry list
(** Entries in order: design tool, random, human — plus simulated
    annealing and tabu search when [metaheuristics] is set (the
    related-work baselines, not part of the paper's Figure 3).

    Arms are scheduled on an [Exec] pool [budgets.domains] wide (results
    are identical at every width; merge order is arm order). On a
    parallel pool each arm's own solver runs single-domain
    ({!Budgets.sweep}) and records its spans into its worker's trace
    lane.

    With [budgets.restarts > 1] every randomized arm gets the same
    restart budget: the design-tool arm becomes a
    {!Ds_search.Search.run} portfolio (honoring [budgets.race] and
    [budgets.portfolio_evaluations]) and the annealing / tabu arms keep
    their best of [restarts] runs from pairwise-distinct seed streams
    (restart [r] of offset-[k] arm seeds at [seed + k + 5r]). Restart 0
    always replays the [restarts = 1] stream, so raising the budget can
    only improve an arm, and results for [restarts = 1] are unchanged
    from earlier releases. *)

val run_peer : ?budgets:Budgets.t -> unit -> entry list
(** Figure 3's setting: the peer-sites case study. *)

val ratio : entry list -> baseline:string -> string -> float option
(** Cost of [baseline] divided by cost of the named entry (how many times
    cheaper the named entry is). *)
