(* fleet-drift: the operator's incremental path. Set-up is a cold
   Fleet.solve of a multi-pod fleet, the deployed incumbent. Each
   operation drifts one app of the deployed fleet by a factor and
   re-solves warm from that incumbent: one dirty shard re-solved, then
   rebase, merge and reconcile across the whole fleet. The drift steps
   are a fixed pool taken in a seed-dependent order. Since every
   operation starts from the same incumbent, its result depends on its
   step alone, so the run returns the same designs whatever the order. *)

open Dependable_storage
module Lib = Perfbench_lib
module Design_solver = Solver.Design_solver
module Candidate = Solver.Candidate
module Money = Units.Money
module App = Workload.App

let pods = 64
let apps_per_pod = 4
let apps_total = pods * apps_per_pod
let steps = 100
let min_ops = steps
let setups = 3
let likelihood = Failure.Likelihood.default

(* The trimmed per-shard budget of the artifact harness's fleet section:
   shard solves stay cheap, so coordinator work is most of an operation. *)
let params =
  { Experiments.Budgets.quick.Experiments.Budgets.solver with
    Design_solver.refit_rounds = 2; depth = 2; breadth = 2; stage1_restarts = 2;
    domains = 1 }

type problem = { env : Resources.Env.t; base : App.t array }

let problem () =
  { env = Experiments.Envs.fleet_sites ~pods ();
    base = Array.of_list (Experiments.Envs.fleet_apps ~pods ~apps_per_pod) }

let cold p = Fleet.solve ~params p.env (Array.to_list p.base) likelihood

(* The fleet's apps after each drift step, one app changed from the
   deployed fleet's. *)
let drifted p script =
  Array.map
    (fun (app_id, factor) ->
      Array.to_list
        (Array.mapi (fun i a -> if i = app_id - 1 then App.drift ~factor a else a) p.base))
    script

let setup ~seed () =
  let script = Lib.Gen.drifts ~seed ~count:steps ~apps:apps_total in
  let p = problem () in
  (script, drifted p script, p, cold p)

let shard_reevaluates (r : Fleet.shard_result) =
  match r.Fleet.outcome with
  | None -> false
  | Some o -> Report.reproduces_cost likelihood o.Design_solver.best

let shard_cost (r : Fleet.shard_result) =
  match r.Fleet.outcome with
  | Some o -> Candidate.cost o.Design_solver.best
  | None -> Money.zero

(* A clean fleet (disjoint pods, nothing reconciled) costs exactly the
   sum of its shards; otherwise re-cost the merged design from scratch. *)
let fleet_cost_holds (f : Fleet.t) =
  if f.Fleet.conflicts = 0 && f.Fleet.reconcile_passes = 0 then
    Money.equal f.Fleet.cost (Money.sum (List.map shard_cost f.Fleet.shard_results))
  else
    match Cost.Evaluate.design f.Fleet.design likelihood with
    | Ok e -> Money.equal (Cost.Evaluate.total e) f.Fleet.cost
    | Error _ -> false

(* Checks of one re-solve after drifting [app_id]: nothing unplaced,
   every shard the drift did not touch reused, every re-solved shard and
   the fleet total re-costed exactly. *)
let check_resolve ~app_id (f : Fleet.t) =
  if f.Fleet.unplaced <> [] then Some "apps left unplaced"
  else if
    not
      (List.for_all
         (fun (r : Fleet.shard_result) ->
           r.Fleet.reused
           || List.exists (fun a -> a.App.id = app_id) r.Fleet.shard.Fleet.apps)
         f.Fleet.shard_results)
  then Some "a shard the drift did not touch was re-solved"
  else if
    not
      (List.for_all
         (fun (r : Fleet.shard_result) -> r.Fleet.reused || shard_reevaluates r)
         f.Fleet.shard_results)
  then Some "re-evaluating a re-solved shard does not reproduce its cost"
  else if not (fleet_cost_holds f) then Some "the fleet cost does not re-evaluate"
  else None

let run ~seed ~seconds =
  let (script, fleets, p, start), setup_s =
    Report.repeated_setup ~times:setups (fun () -> Lib.Yardstick.timed_step (setup ~seed))
  in
  let setup_ok =
    start.Fleet.unplaced = []
    && List.for_all shard_reevaluates start.Fleet.shard_results
    && fleet_cost_holds start
  in
  let tally = Lib.Tally.create () in
  let last = ref None in
  let cost_usd = ref 0. and digests = Array.make steps "" in
  (* Untimed, after each operation: the checks of one re-solve, and a
     step run again returns its first design byte for byte. *)
  let after i =
    match !last with
    | None -> ()
    | Some f ->
      let app_id, _ = script.(i mod steps) in
      (match check_resolve ~app_id f with
       | Some reason -> Lib.Tally.fail tally i reason
       | None -> ());
      let d = Digest.to_hex (Digest.string (Design.Design_io.to_string f.Fleet.design)) in
      if i < steps then begin
        cost_usd := !cost_usd +. Money.to_dollars f.Fleet.cost;
        digests.(i) <- d
      end
      else
        Lib.Tally.check tally i (d = digests.(i mod steps))
          (lazy "a drift step run again returned a different design");
      last := None
  in
  let loop =
    Lib.Loop.run ~seconds ~min_ops ~cap_s:120. ~after (fun i ->
        let op = Lib.Tally.attempt tally in
        match
          Fleet.resolve ~params ~incumbent:start p.env fleets.(i mod steps) likelihood
        with
        | f -> last := Some f
        | exception e -> Lib.Tally.fail tally op (Printexc.to_string e))
  in
  let peak = Report.peak_rss_mb "self" in
  Report.host_line loop;
  Report.info "workload fleet-drift: %d apps in %d pods, %d operations, design digest %s"
    apps_total pods (Lib.Loop.ops loop) (Report.digest (Array.to_list digests));
  match Lib.Loop.end_to_end loop ~setup:setup_s with
  | Error msg -> Error msg
  | Ok e2e ->
    Ok (tally, setup_ok, e2e @ [ ("cost_usd", !cost_usd); ("peak_rss_mb", peak) ])

let trace_ops = 8

(* The traced run: the first drift steps re-solved from the deployed
   fleet plain, metrics-only and traced; then the layers replayed on the
   last step's fleet. *)
let trace ~seed =
  let _, fleets, p, start = setup ~seed () in
  let last = ref start and reused = ref 0 and shards = ref 0 in
  let layers =
    Report.three_passes ~ops:trace_ops (fun ~obs i ->
        let f = Fleet.resolve ~params ~obs ~incumbent:start p.env fleets.(i) likelihood in
        last := f;
        List.iter
          (fun (r : Fleet.shard_result) ->
            incr shards;
            if r.Fleet.reused then incr reused)
          f.Fleet.shard_results)
  in
  let last = !last and apps = fleets.(trace_ops - 1) in
  let resolved =
    List.filter_map
      (fun (r : Fleet.shard_result) ->
        if r.Fleet.reused then None
        else Option.map (fun o -> o.Design_solver.best) r.Fleet.outcome)
      last.Fleet.shard_results
  in
  let replay =
    [ ( "cost.evaluate_s_per_call",
        Report.per_call (fun () ->
            List.iter
              (fun b ->
                ignore
                  (Cost.Evaluate.provisioned b.Candidate.eval.Cost.Evaluate.provision
                     likelihood))
              resolved) );
      ( "design.provision_s_per_call",
        Report.per_call (fun () -> ignore (Design.Provision.minimum last.Fleet.design)) );
      ( "design.rebase_s_per_call",
        Report.per_call (fun () ->
            ignore (Design.Design.rebase ~env:p.env ~apps last.Fleet.design)) );
      ( "design.io_s_per_call",
        Report.per_call (fun () ->
            ignore
              (Design.Design_io.of_string p.env apps
                 (Design.Design_io.to_string last.Fleet.design))) ) ]
  in
  let factor = Report.host_factor_now () in
  ( last.Fleet.unplaced = [] && resolved <> [],
    layers
    @ Report.normalise_times factor replay
    @ [ ("fleet.shards_reused_ratio", Report.ratio (float_of_int !reused) (float_of_int !shards)) ] )
