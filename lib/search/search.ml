module Money = Ds_units.Money
module Env = Ds_resources.Env
module App = Ds_workload.App
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec
module Candidate = Ds_solver.Candidate
module Design_solver = Ds_solver.Design_solver

type report = {
  index : int;
  cost : float option;
  evaluations : int;
  raced_off : bool;
  improved : bool;
}

type result = {
  best : Candidate.t;
  winner : int;
  outcome : Design_solver.outcome;
  restarts_run : int;
  total_evaluations : int;
  raced_off : int;
  reports : report list;
}

let restart_streams ~seed ~restarts =
  if restarts < 1 then
    invalid_arg "Search.restart_streams: restarts must be >= 1";
  let master = Rng.of_int seed in
  (* Stream 0 replays the single-solve stream (a copy taken before any
     split), so the portfolio's restart 0 is exactly the fixed-seed
     [Design_solver.solve] run and the winner can never cost more than
     it. Streams 1.. are split off in index order. *)
  let streams = Array.make restarts (Rng.copy master) in
  for i = 1 to restarts - 1 do
    streams.(i) <- Rng.split master
  done;
  streams

let cost_dollars c = Money.to_dollars (Candidate.cost c)

(* Racing state shared with worker domains. Publications happen at
   restart completion on whichever domain ran it; commits (and all obs
   emission) happen on the calling domain in restart-index order. *)
type shared = {
  incumbent_cell : (float * int) option Atomic.t;
      (* Best (cost, index) any completed restart has published;
         minimum by cost, then lowest index. *)
  max_gain : float Atomic.t;
      (* Largest greedy-to-final improvement observed, in dollars. *)
}

let publish shared idx (o : Design_solver.outcome) =
  let cost = cost_dollars o.Design_solver.best in
  let gain = Money.to_dollars o.Design_solver.greedy_cost -. cost in
  let rec bump_gain () =
    let cur = Atomic.get shared.max_gain in
    if gain > cur && not (Atomic.compare_and_set shared.max_gain cur gain)
    then bump_gain ()
  in
  bump_gain ();
  let rec bump_incumbent () =
    let cur = Atomic.get shared.incumbent_cell in
    let better =
      match cur with
      | None -> true
      | Some (c, i) -> cost < c || (cost = c && idx < i)
    in
    if
      better
      && not (Atomic.compare_and_set shared.incumbent_cell cur (Some (cost, idx)))
    then bump_incumbent ()
  in
  bump_incumbent ()

(* The racing hook for restart [idx]: abandon once even the largest
   observed improvement cannot bring the current cost strictly below a
   published incumbent. Only incumbents from lower-index restarts count:
   admission is prefix-closed, so a committed restart can only ever have
   raced against restarts that are themselves committed — a speculative
   (later discarded) publication can never steer a result that
   survives. *)
let abandon_hook shared idx =
  fun current_cost ->
    match Atomic.get shared.incumbent_cell with
    | Some (inc, widx) when widx < idx ->
      current_cost -. Atomic.get shared.max_gain > inc
    | _ -> false

let run ?(restarts = 4) ?(race = false) ?max_evaluations ?patience
    ?(params = Design_solver.default_params) ?(pool = Exec.sequential)
    ?(obs = Obs.noop) env apps likelihood =
  if restarts < 1 then invalid_arg "Search.run: restarts must be >= 1";
  Obs.with_span obs "portfolio.run" @@ fun () ->
  let width = Exec.domains pool in
  (* The portfolio owns the parallelism on a wide pool; each restart's
     solver then runs single-domain (pure scheduling, same results). *)
  let inner_params =
    if width > 1 then { params with Design_solver.domains = 1 } else params
  in
  let streams = restart_streams ~seed:params.Design_solver.seed ~restarts in
  let shared =
    { incumbent_cell = Atomic.make None; max_gain = Atomic.make 0. }
  in
  (* Committed state: only ever touched on the calling domain, in
     restart-index order. *)
  let rev_reports = ref [] in
  let incumbent = ref None in
  let total_evaluations = ref 0 in
  let raced_count = ref 0 in
  let stale = ref 0 in
  let stop = ref false in
  let admitted idx =
    idx = 0
    || ((match max_evaluations with
         | Some cap -> !total_evaluations < cap
         | None -> true)
        &&
        match patience with Some p -> !stale < p | None -> true)
  in
  let commit idx (o : Design_solver.outcome option) =
    Obs.incr obs "portfolio.restarts";
    match o with
    | None ->
      incr stale;
      rev_reports :=
        { index = idx; cost = None; evaluations = 0; raced_off = false;
          improved = false }
        :: !rev_reports
    | Some o ->
      total_evaluations := !total_evaluations + o.Design_solver.evaluations;
      if o.Design_solver.raced_off then begin
        incr raced_count;
        Obs.incr obs "portfolio.raced_off"
      end;
      let improved =
        match !incumbent with
        | None -> true
        | Some (best, _, _) ->
          Money.compare
            (Candidate.cost o.Design_solver.best)
            (Candidate.cost best)
          < 0
      in
      if improved then begin
        incumbent := Some (o.Design_solver.best, o, idx);
        stale := 0;
        let cost = cost_dollars o.Design_solver.best in
        Obs.gauge_set obs "portfolio.incumbent_cost" cost;
        Obs.portfolio_incumbent obs ~evaluations:!total_evaluations
          ~restart:idx cost
      end
      else incr stale;
      rev_reports :=
        { index = idx;
          cost = Some (cost_dollars o.Design_solver.best);
          evaluations = o.Design_solver.evaluations;
          raced_off = o.Design_solver.raced_off;
          improved }
        :: !rev_reports
  in
  let next = ref 0 in
  while (not !stop) && !next < restarts do
    let wave = min width (restarts - !next) in
    let indices = Array.init wave (fun k -> !next + k) in
    let outcomes =
      Exec.map pool ~label:"portfolio.wave" ~obs
        (fun wobs _ idx ->
           let abandon = if race then Some (abandon_hook shared idx) else None in
           let outcome =
             Obs.with_span wobs "portfolio.restart"
               ~args:[ ("index", string_of_int idx) ]
               (fun () ->
                  Design_solver.solve ~params:inner_params ~obs:wobs
                    ~rng:streams.(idx) ?abandon env apps likelihood)
           in
           Option.iter (publish shared idx) outcome;
           outcome)
        indices
    in
    (* Commit this wave in index order; the first index the budget
       rejects stops the portfolio and discards the (speculative) rest
       of the wave, so the committed set is always a restart-index
       prefix whatever the pool width. *)
    Array.iteri
      (fun k outcome ->
         if not !stop then begin
           let idx = indices.(k) in
           if admitted idx then commit idx outcome else stop := true
         end)
      outcomes;
    next := !next + wave
  done;
  match !incumbent with
  | None -> None
  | Some (best, outcome, winner) ->
    let restarts_run = List.length !rev_reports in
    Obs.gauge_set obs "portfolio.restarts_run" (float_of_int restarts_run);
    Some
      { best; winner; outcome; restarts_run;
        total_evaluations = !total_evaluations;
        raced_off = !raced_count;
        reports = List.rev !rev_reports }
