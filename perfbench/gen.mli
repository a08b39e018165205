(** Seeded workload generators. The same workload seed always gives the
    same inputs; the program under test sees only what these return. *)

val solver_seeds : seed:int -> count:int -> int array
(** [solve-cold]'s inputs: a fixed pool of [count] distinct solver seeds,
    the same for every workload seed, in a seed-dependent order. *)

val drifts : seed:int -> count:int -> apps:int -> (int * float) array
(** [fleet-drift]'s script: a fixed pool of [count] drift steps, the same
    for every workload seed, in a seed-dependent order. A step is an app
    id in [1..apps] and a load factor, log-uniform in [1/1.5, 1.5] and
    never 1. *)

(** One [serve-mix] request. *)
type request =
  | Health
  | Metrics
  | Risk of { design : int; seed : int; sla : bool }
      (** Risk of working-set design [design], certified when [sla]. *)
  | Repeat of int  (** Re-solve working-set entry [i]: resident-cache hits. *)
  | Resolve of { app_id : int; factor : float }
      (** Drift one app of the server-held fleet and re-solve warm. *)
  | Fresh of int  (** Solve with a solver seed never used before. *)
  | Portfolio of int  (** Portfolio solve with this seed. *)

val kind : request -> string
(** ["health"], ["metrics"], ["risk"], ["risk_sla"], ["repeat"],
    ["resolve"], ["fresh"] or ["portfolio"]. *)

val block : (string * int) list
(** Requests of each kind in one block of the script. *)

val block_size : int

val counted_blocks : int
(** Blocks every [serve-mix] run covers. Their solves always draw the
    same seeds, in a seed-dependent order, so the designs they return do
    not depend on the workload seed. *)

type serve_mix = {
  working_set : int array;  (** Distinct solver seeds. *)
  script : request array;  (** [blocks] shuffled blocks. *)
}

val ws_pool : int
val fresh_pool : int
val portfolio_pool : int
(** Sizes of the fixed pools the working set, fresh solves and
    portfolio solves draw from, each in a seed-dependent order; a run
    that exhausts a pool continues with seeds no pool holds. The first
    [counted_blocks] blocks take the same fresh and portfolio seeds for
    every workload seed. *)

val serve_mix : seed:int -> blocks:int -> fleet_apps:int -> serve_mix
(** The working set is the whole working-set pool. Working-set, fresh
    and portfolio seeds are pairwise distinct, so a fresh or portfolio
    solve is never a resident-cache hit. Repeats cycle through the
    working set, so each block solves all of it. *)
