(** Iteration budgets for the experiment harness.

    The paper runs every heuristic for thirty minutes of 2006-era CPU; we
    replace wall-clock budgets with deterministic iteration budgets so
    results are reproducible and machine-independent (see DESIGN.md).
    [default] aims at paper-comparable quality; [quick] keeps the full
    benchmark suite fast. *)

type t = {
  solver : Ds_solver.Design_solver.params;
  human_attempts : int;
  random_attempts : int;
  space_samples : int;  (** Random designs for the Figure 2 histogram. *)
  domains : int;
      (** Width of the [Exec] pool the experiment harness schedules its
          work items on (comparison arms, frontier multipliers,
          sensitivity rates, scalability rounds). 1 (the default)
          runs everything on the calling domain. Purely scheduling:
          results are identical at every width (DESIGN.md §10). *)
  restarts : int;
      (** Portfolio restarts per randomized arm (default 1 = no
          portfolio): the design-tool arm becomes a
          {!Ds_search.Search.run} portfolio and the annealing / tabu
          arms rerun best-of-[restarts] from distinct seed streams.
          The random and human arms already do their own multi-start
          ([random_attempts] / [human_attempts]). *)
  race : bool;
      (** Portfolio racing ({!Ds_search.Search.run}'s [race]): raced
          restarts finish sooner, but the winner can change. Default
          [false]. *)
  portfolio_evaluations : int option;
      (** Portfolio evaluation cap ({!Ds_search.Search.run}'s
          [max_evaluations]); [None] (default) = uncapped. *)
}

val default : t
val quick : t
val with_seed : t -> int -> t

val with_domains : t -> int -> t
(** Sets both the harness pool width ({!field-domains}) and the design
    solver's probe-level [domains] knob. An experiment that schedules
    solver runs on a parallel pool drops the inner knob back to 1
    ({!sequential}) so the two levels do not multiply. *)

val sequential : t -> t
(** [with_domains t 1]: the budgets with all parallelism stripped —
    what experiments hand to work items already running on a pool. *)

val sweep : t -> Ds_exec.Exec.pool * t
(** [sweep t] is the pool {!field-domains} wide that an experiment
    schedules its work items on, paired with the budgets each item runs
    under: {!sequential} [t] when the pool is parallel (the parallelism
    lives at one level only), [t] itself otherwise. Every map on it runs
    as wide as the pool and its task count allow. *)

val with_portfolio : ?race:bool -> ?max_evaluations:int -> t -> int -> t
(** [with_portfolio t n] gives every randomized arm an [n]-restart
    portfolio budget ([dstool compare --restarts]).
    @raise Invalid_argument when [n < 1]. *)
