(** The configuration solver (Section 3.2).

    Completes a design chosen by the design solver: searches the
    discretized configuration-parameter space (snapshot and backup
    frequencies, in policy-sized increments) and sizes the discrete
    resources, starting from the minimum feasible provisioning and adding
    units (links, tape drives, disks) as long as the shorter recovery
    times they buy save more in penalties than they cost in outlay. *)

module Time = Ds_units.Time
module App = Ds_workload.App
module Design = Ds_design.Design
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood

type window_scope =
  | All_apps  (** Re-optimize windows of every backup-bearing app. *)
  | Only of App.id list  (** Just these (the apps a search step touched). *)
  | Skip  (** Keep current windows. *)

type cache = (Candidate.t, Provision.infeasibility) result Memo.t
(** Evaluation memo cache. [solve] is a pure function of its inputs (it
    never draws from the RNG), so results are cached under a canonical
    fingerprint of (options, design, likelihood): a hit returns the exact
    value a fresh solve would compute, making the cache result-transparent
    — a fixed seed yields a byte-identical design with it on or off. *)

type options = {
  window_scope : window_scope;
  snapshot_menu : Time.t list;  (** Candidate snapshot windows. *)
  tape_menu : Time.t list;  (** Candidate backup intervals. *)
  fulls_menu : int list;
      (** Candidate backup schedules: every n-th backup is a full
          (1 = fulls only; 7 = weekly full + daily incrementals when
          paired with a 1-day interval). *)
  max_growth_steps : int;  (** Resource-addition iterations. *)
  recovery : Ds_recovery.Recovery_params.t;
  memo : cache option;
      (** Share previously computed results. The design solver installs
          one cache per solve, shared by the greedy, refit and polish
          stages; [None] (the default) recomputes every call. Option
          fields are part of the key, so callers with different menus or
          scopes can safely share one cache. *)
}

val create_cache : ?size:int -> unit -> cache
(** A fresh bounded LRU cache (default bound: 1024 entries). *)

val options_fingerprint : options -> string
(** Canonical encoding of every result-affecting option field (the [memo]
    field is excluded). Exposed for tests. *)

val default_options : options
(** Windows for all apps from menus {6 h, 12 h, 24 h} x {1 d, 3.5 d, 7 d,
    14 d} x fulls-every {1, 7}; up to 24 growth steps; default recovery
    parameters. *)

val search_options : options
(** Cheaper setting for use inside the design solver's inner loop:
    windows only for touched apps, 6 growth steps. *)

val solve :
  ?options:options ->
  ?obs:Ds_obs.Obs.t ->
  Design.t ->
  Likelihood.t ->
  (Candidate.t, Provision.infeasibility) result
(** Optimize configuration parameters and provisioning for the design;
    returns the completed candidate or the constraint that makes the
    design infeasible. [obs] records a [config.solve] span plus
    [config.solves], [config.window_trials] and [config.growth_steps]
    counters, and flows into the cost evaluator and recovery simulator;
    it never changes the result.

    The design is evaluated from scratch once; every window trial and
    growth move is then costed with {!Ds_cost.Evaluate.update} from the
    evaluation it starts from, simulating again only the failure
    scenarios the move can change — bit-identical to a from-scratch
    evaluation (DESIGN.md §17). A window trial is provisioned with
    {!Provision.rewindow}, re-sizing only its app's devices.

    Window trials and growth moves run as loops on the calling domain,
    in menu and move order; each stage keeps its cheapest trial by
    strict [<], so ties go to the lowest index. Every app whose windows
    are searched gets one [config.windows] span, and every growth round
    with at least one move gets one [config.growth] span. A solve is
    small work, run hundreds of times per design solve: callers
    parallelize across solves ([Reconfigure.assign_best], the refit
    probes), never inside one (DESIGN.md §13).

    With [options.memo] set, results are memoized on the canonical
    (options, design, likelihood) fingerprint: hits return the cached
    candidate and skip the window search, growth loop and recovery
    simulations entirely. [config.cache_hits], [config.cache_misses] and
    [config.cache_evictions] counters record the cache's behavior
    ([cache_hits + cache_misses = config.solves] when the cache is on). *)
