module Money = Ds_units.Money
module App = Ds_workload.App
module Env = Ds_resources.Env
module Design = Ds_design.Design
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec

type params = {
  breadth : int;
  depth : int;
  refit_rounds : int;
  patience : int;
  stage1_restarts : int;
  seed : int;
  options : Config_solver.options;
  polish : Config_solver.options option;
  config_cache_size : int;
  domains : int;
}

let default_params =
  { breadth = 3;
    depth = 5;
    refit_rounds = 12;
    patience = 3;
    stage1_restarts = 5;
    seed = 42;
    options = Config_solver.search_options;
    polish = Some Config_solver.default_options;
    config_cache_size = 1024;
    domains = 1 }

type outcome = {
  best : Candidate.t;
  evaluations : int;
  refit_rounds_run : int;
  improved_by_refit : bool;
  greedy_cost : Money.t;
  raced_off : bool;
}

let cost_dollars c = Money.to_dollars (Candidate.cost c)
(* Solver pools auto-size: the greedy/window/growth stages mix wide maps
   (probes, window menus) with tiny ones (a few growth moves), and the
   tiny ones must not pay domain spawn/join. Width stays pure
   scheduling, so this cannot change any solver result. *)
let pool_of params =
  Exec.auto_width (Exec.create ~domains:(max 1 params.domains) ())

(* Stage 1. Applications with stringent requirements are placed first —
   the draw is weighted by the sum of penalty rates. [start] is the
   design placement begins from: empty for a cold solve, the stripped
   incumbent for a warm re-solve (every restart re-starts from it). *)
let greedy_from ~pool state params start apps =
  Obs.with_span state.Reconfigure.obs "solver.greedy" @@ fun () ->
  let obs = state.Reconfigure.obs in
  let rec attempt restart =
    if restart > params.stage1_restarts then None
    else begin
      if restart > 0 then Obs.incr obs "solver.stage1_restarts";
      let rec place design = function
        | [] -> Some design
        | unassigned ->
          let weights =
            List.map
              (fun app -> (app, Money.to_dollars (App.penalty_rate_sum app)))
              unassigned
          in
          let app = Sample.weighted state.Reconfigure.rng weights in
          (match Reconfigure.assign_best ~pool state design app with
           | Some candidate ->
             place candidate.Candidate.design
               (List.filter (fun a -> a.App.id <> app.App.id) unassigned)
           | None -> None)
      in
      match place start apps with
      | Some design ->
        (* The per-step candidates were evaluated against partial designs;
           re-evaluate the complete one. This is search work like any
           other config-solver call, so it counts as an evaluation. *)
        Reconfigure.count_evaluation state;
        (match
           Config_solver.solve ~options:state.Reconfigure.options ~obs ~pool
             design state.Reconfigure.likelihood
         with
         | Ok candidate -> Some candidate
         | Error _ -> attempt (restart + 1))
      | None -> attempt (restart + 1)
    end
  in
  attempt 0

let greedy_stage ~pool state params env apps =
  greedy_from ~pool state params (Design.empty env) apps

let greedy state params env apps =
  greedy_stage ~pool:(pool_of params) state params env apps

let probes_c = Obs.Metrics.counter_handle "solver.probes"
let probe_steps_c = Obs.Metrics.counter_handle "solver.probe_steps"
let probe_improved_c = Obs.Metrics.counter_handle "solver.probe_improved"

(* One depth-first probe from a neighbor (the inner while-loop of
   Algorithm 1): at each level evaluate [breadth] reconfigurations, step
   to the best when it improves, and remember the best node seen. *)
let probe ?victims state params start =
  let obs = state.Reconfigure.obs in
  Obs.bump obs probes_c;
  let rec descend current best level =
    if level >= params.depth then best
    else begin
      Obs.bump obs probe_steps_c;
      let children =
        List.init params.breadth
          (fun _ -> Reconfigure.reconfigure ?victims state current)
        |> List.filter_map Fun.id
      in
      match Candidate.best_of children with
      | None -> best
      | Some child ->
        let next =
          if Money.compare (Candidate.cost child) (Candidate.cost current) < 0
          then child
          else current
        in
        descend next (Candidate.better best next) (level + 1)
    end
  in
  let final = descend start start 0 in
  if Money.compare (Candidate.cost final) (Candidate.cost start) < 0 then
    Obs.bump obs probe_improved_c;
  final

(* One refit round: [breadth] probe walks, each on its own pre-split RNG
   stream and its own fork of the master state, scheduled across
   [params.domains] domains by {!Exec}. The executor owns the
   determinism machinery (index-order RNG pre-split, index-order result
   merge, per-domain trace lanes merged in worker-index order) and the
   pool accounting ([exec.*] metrics); this function only states what a
   probe is and how forks fold back. Forks are merged
   in probe-index order, and [Candidate.better] keeps its first argument
   on cost ties, so ties break toward the lowest probe index — the
   domain count is pure scheduling. *)
let run_probes ?victims ~pool state params current =
  let outcomes =
    Exec.map_rng pool ~label:"solver.probes" ~obs:state.Reconfigure.obs
      ~rng:state.Reconfigure.rng
      (fun wobs rng () ->
         let local = Reconfigure.fork ~obs:wobs state ~rng in
         let result =
           match Reconfigure.reconfigure ?victims local current with
           | Some neighbor -> Some (probe ?victims local params neighbor)
           | None -> None
         in
         (local, result))
      (Array.make params.breadth ())
  in
  Array.iter (fun (local, _) -> Reconfigure.merge ~into:state local) outcomes;
  Array.fold_left
    (fun best (_, result) ->
       match best, result with
       | None, r -> r
       | b, None -> b
       | Some b, Some r -> Some (Candidate.better b r))
    None outcomes

(* The refit loop proper. [abandon] is the portfolio racing hook: probed
   at the top of every round with the incumbent's cost, a [true] cuts
   the remaining rounds short (the caller learns it raced off via the
   third component). [abandon] must never consult the RNG; the rounds it
   does run are byte-identical to an unraced run's prefix. *)
let refit_loop ?victims ~pool ?abandon state params start =
  Obs.with_span state.Reconfigure.obs "solver.refit" @@ fun () ->
  let obs = state.Reconfigure.obs in
  let abandoned best =
    match abandon with None -> false | Some f -> f (cost_dollars best)
  in
  let rec rounds current best round without_improvement =
    if round >= params.refit_rounds || without_improvement >= params.patience
    then (best, round, false)
    else if abandoned best then (best, round, true)
    else begin
      let branch_best = run_probes ?victims ~pool state params current in
      let evaluations = state.Reconfigure.evaluations in
      match branch_best with
      | None ->
        (* A round where every probe failed is a round without
           improvement, not the end of the search: later rounds draw
           fresh randomness and can still find feasible moves. (This
           used to return, silently abandoning the remaining rounds.) *)
        Obs.refit_rejected obs ~evaluations;
        rounds best best (round + 1) (without_improvement + 1)
      | Some candidate ->
        if Money.compare (Candidate.cost candidate) (Candidate.cost best) < 0
        then begin
          Obs.refit_accepted obs ~evaluations;
          Obs.incumbent obs ~evaluations (cost_dollars candidate);
          rounds candidate candidate (round + 1) 0
        end
        else begin
          Obs.refit_rejected obs ~evaluations;
          rounds best best (round + 1) (without_improvement + 1)
        end
    end
  in
  rounds start start 0 0

let refit state params start =
  let best, rounds, _raced = refit_loop ~pool:(pool_of params) state params start in
  (best, rounds)

(* One evaluation cache for a whole solve (or re-solve): greedy, refit
   and polish all hit the same entries. The cache is result-transparent
   (the configuration solver is RNG-free), so this changes wall time
   only. [memo] lets a caller — the fleet coordinator's repeated warm
   re-solves — share one cache across solver invocations; fingerprint
   keys cover options, design and likelihood, so sharing is safe.

   Contention accounting for the shared cache: a per-wait histogram fed
   from the lock's own hook, and the lifetime counters mirrored after
   the solve. The hook's histogram lock carries no hook itself, so
   observing a wait can never re-enter the memo lock. *)
let install_memo ?memo params obs =
  let memo =
    match memo with
    | Some _ as shared -> shared
    | None ->
      if params.config_cache_size > 0 then
        Some (Config_solver.create_cache ~size:params.config_cache_size ())
      else None
  in
  (match (memo, Obs.metrics obs) with
   | Some cache, Some reg ->
     let wait_h = Obs.Metrics.histogram reg "memo.lock_wait_s" in
     Obs.Lockstat.set_on_wait (Memo.lock_stats cache)
       (Some (fun s -> Obs.Metrics.observe wait_h s))
   | _ -> ());
  let mirror_memo_stats () =
    match memo with
    | None -> ()
    | Some cache when Obs.metrics_on obs ->
      let stats = Memo.lock_stats cache in
      Obs.add obs "memo.lock_acquisitions" (Obs.Lockstat.acquisitions stats);
      Obs.add obs "memo.lock_contended" (Obs.Lockstat.contended stats);
      Obs.gauge_add obs "memo.lock_wait_total_s" (Obs.Lockstat.wait_s stats)
    | Some _ -> ()
  in
  (memo, mirror_memo_stats)

let solve ?(params = default_params) ?(obs = Obs.noop) ?rng ?abandon ?memo env
    apps likelihood =
  Obs.with_span obs "solver.solve" @@ fun () ->
  let rng =
    match rng with Some rng -> rng | None -> Rng.of_int params.seed
  in
  (* One pool for the whole solve: refit probes, the greedy re-evaluation
     and the polish pass all schedule onto it. *)
  let pool = pool_of params in
  let memo, mirror_memo_stats = install_memo ?memo params obs in
  let options = { params.options with Config_solver.memo } in
  let state = Reconfigure.state ~options ~obs ~rng likelihood in
  Obs.stage obs ~evaluations:0 "greedy";
  match greedy_stage ~pool state params env apps with
  | None ->
    mirror_memo_stats ();
    None
  | Some greedy_best ->
    Obs.incumbent obs ~evaluations:state.Reconfigure.evaluations
      (cost_dollars greedy_best);
    Obs.stage obs ~evaluations:state.Reconfigure.evaluations "refit";
    let refined, rounds_run, raced_off =
      refit_loop ~pool ?abandon state params greedy_best
    in
    let best = Candidate.better refined greedy_best in
    (* Final polish: the search ran with cheap configuration options; give
       the winning design the full window search and growth budget. The
       window trials and growth moves spread across [pool] (pure
       scheduling — the parallel argmin keeps the sequential loop's
       tie-breaking). Raced-off runs are polished too: the portfolio
       compares finished candidates only. *)
    let best =
      match params.polish with
      | None -> best
      | Some polish_options ->
        Obs.stage obs ~evaluations:state.Reconfigure.evaluations "polish";
        Reconfigure.count_evaluation state;
        let options = { polish_options with Config_solver.memo } in
        (match
           Obs.with_span obs "solver.polish" (fun () ->
               Config_solver.solve ~options ~obs ~pool best.Candidate.design
                 state.Reconfigure.likelihood)
         with
         | Ok polished -> Candidate.better polished best
         | Error _ -> best)
    in
    Obs.incumbent obs ~evaluations:state.Reconfigure.evaluations
      (cost_dollars best);
    mirror_memo_stats ();
    Some
      { best;
        evaluations = state.Reconfigure.evaluations;
        refit_rounds_run = rounds_run;
        improved_by_refit =
          Money.compare (Candidate.cost refined) (Candidate.cost greedy_best) < 0;
        greedy_cost = Candidate.cost greedy_best;
        raced_off }

module Int_set = Set.Make (Int)

let ids_of apps = List.map (fun (a : App.t) -> a.App.id) apps

(* Warm-start re-solve. The incumbent is first rebased onto the current
   inputs (Design.rebase): assignments carry over by app id with models
   re-resolved by name, so price drift lands without moving anything,
   and assignments that can no longer be carried join the dirty set.
   The complete rebased design — when it is complete — is re-evaluated
   once with windows kept (Skip scope) and becomes the {e floor}: the
   final answer is [Candidate.better floor refined], and since [better]
   keeps its first argument on ties, an unimproved search returns the
   incumbent's bytes unchanged. Only dirty apps are stripped,
   greedy-re-placed and eligible as refit victims; the polish runs with
   windows scoped to the dirty set. Untouched assignments are therefore
   never rewritten, and the evaluation bill scales with the dirty set,
   not the fleet. *)
let resolve ?(params = default_params) ?(obs = Obs.noop) ?rng ?memo ~incumbent
    ~dirty env apps likelihood =
  Obs.with_span obs "solver.resolve" @@ fun () ->
  let rng =
    match rng with Some rng -> rng | None -> Rng.of_int params.seed
  in
  let pool = pool_of params in
  let memo, mirror_memo_stats = install_memo ?memo params obs in
  let options = { params.options with Config_solver.memo } in
  let state = Reconfigure.state ~options ~obs ~rng likelihood in
  let rebased, forced = Design.rebase ~env ~apps incumbent in
  let present = Int_set.of_list (ids_of apps) in
  let carried = Int_set.of_list (ids_of (Design.apps rebased)) in
  (* Dirty = caller-declared (current apps only; stale ids are dropped)
     + assignments rebase could not carry + apps with no assignment to
     carry (new arrivals). *)
  let dirty_set =
    Int_set.union
      (Int_set.of_list (List.filter (fun id -> Int_set.mem id present) dirty))
      (Int_set.union (Int_set.of_list forced) (Int_set.diff present carried))
  in
  Obs.add obs "solver.resolve_dirty" (Int_set.cardinal dirty_set);
  Obs.add obs "solver.resolve_forced" (List.length forced);
  (* The anytime floor: the rebased incumbent re-costed under the
     current inputs, windows and placement kept (Skip leaves the design
     bytes alone; provisioning still grows from scratch, which is where
     workload drift shows up in its cost). Only a complete rebase can
     floor the search — with new apps present the incumbent is not a
     candidate at all. *)
  let floor =
    if Int_set.subset present carried then begin
      Reconfigure.count_evaluation state;
      let floor_options =
        { (Option.value params.polish ~default:params.options) with
          Config_solver.window_scope = Config_solver.Skip; memo }
      in
      match Config_solver.solve ~options:floor_options ~obs ~pool rebased
              likelihood with
      | Ok floor -> Some floor
      | Error _ -> None
    end
    else None
  in
  let finish ~refit_cost ~seed_cost ~rounds best =
    Obs.incumbent obs ~evaluations:state.Reconfigure.evaluations
      (cost_dollars best);
    Some
      { best;
        evaluations = state.Reconfigure.evaluations;
        refit_rounds_run = rounds;
        improved_by_refit = Money.compare refit_cost seed_cost < 0;
        greedy_cost = seed_cost;
        raced_off = false }
  in
  let outcome =
  if Int_set.is_empty dirty_set then
    (* Nothing changed (or only prices did): the floor is the answer. *)
    Option.bind floor (fun best ->
        finish ~refit_cost:(Candidate.cost best)
          ~seed_cost:(Candidate.cost best) ~rounds:0 best)
  else begin
    Obs.stage obs ~evaluations:state.Reconfigure.evaluations "re-place";
    let stripped =
      Int_set.fold (fun id design -> Design.remove design id) dirty_set rebased
    in
    let dirty_apps =
      List.filter (fun (a : App.t) -> Int_set.mem a.App.id dirty_set) apps
    in
    match greedy_from ~pool state params stripped dirty_apps with
    | None ->
      (* Could not re-place the dirty apps: fall back to the floor
         (incumbent unchanged) rather than failing the fleet. *)
      Option.bind floor (fun best ->
          finish ~refit_cost:(Candidate.cost best)
            ~seed_cost:(Candidate.cost best) ~rounds:0 best)
    | Some seeded ->
      Obs.incumbent obs ~evaluations:state.Reconfigure.evaluations
        (cost_dollars seeded);
      Obs.stage obs ~evaluations:state.Reconfigure.evaluations "refit";
      let victims id = Int_set.mem id dirty_set in
      let refined, rounds_run, _raced =
        refit_loop ~victims ~pool state params seeded
      in
      let best = Candidate.better refined seeded in
      let best =
        match params.polish with
        | None -> best
        | Some polish_options ->
          Obs.stage obs ~evaluations:state.Reconfigure.evaluations "polish";
          Reconfigure.count_evaluation state;
          let options =
            { polish_options with
              Config_solver.window_scope =
                Config_solver.Only (Int_set.elements dirty_set);
              memo }
          in
          (match
             Obs.with_span obs "solver.polish" (fun () ->
                 Config_solver.solve ~options ~obs ~pool best.Candidate.design
                   likelihood)
           with
           | Ok polished -> Candidate.better polished best
           | Error _ -> best)
      in
      (* The floor argument comes first: on a cost tie the incumbent's
         bytes win, so an unimproved re-solve is churn-free. *)
      let best = match floor with Some f -> Candidate.better f best | None -> best in
      finish ~refit_cost:(Candidate.cost refined)
        ~seed_cost:(Candidate.cost seeded) ~rounds:rounds_run best
  end
  in
  mirror_memo_stats ();
  outcome
