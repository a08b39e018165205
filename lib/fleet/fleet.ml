module App = Ds_workload.App
module Env = Ds_resources.Env
module Site = Ds_resources.Site
module Slot = Ds_resources.Slot
module Design = Ds_design.Design
module Assignment = Ds_design.Assignment
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Evaluate = Ds_cost.Evaluate
module Money = Ds_units.Money
module Rng = Ds_prng.Rng
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec
module Design_solver = Ds_solver.Design_solver
module Config_solver = Ds_solver.Config_solver
module Candidate = Ds_solver.Candidate
module Int_set = Set.Make (Int)

type shard = {
  index : int;
  sites : Site.id list;
  env : Env.t;
  apps : App.t list;
}

type shard_result = {
  shard : shard;
  outcome : Design_solver.outcome option;
  reused : bool;
}

type t = {
  design : Design.t;
  cost : Money.t;
  evaluations : int;
  shard_results : shard_result list;
  conflicts : int;
  reconcile_passes : int;
  unplaced : App.id list;
  apps : App.t list;
}

(* Connected components of the link graph, by union-find over site ids.
   Components are returned sorted ascending and ordered by smallest
   member, so the domain list is a pure function of the environment. *)
let failure_domains env =
  let ids = Env.site_ids env in
  let parent = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace parent id id) ids;
  let rec root id =
    let p = Hashtbl.find parent id in
    if p = id then id
    else begin
      let r = root p in
      Hashtbl.replace parent id r;
      r
    end
  in
  let union a b =
    let ra = root a and rb = root b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  List.iter
    (fun pair ->
       let a, b = Slot.Pair.endpoints pair in
       union a b)
    (Env.pairs env);
  let components = Hashtbl.create 8 in
  List.iter
    (fun id ->
       let r = root id in
       let members = Option.value ~default:[] (Hashtbl.find_opt components r) in
       Hashtbl.replace components r (id :: members))
    ids;
  Hashtbl.fold (fun _ members acc -> List.sort Int.compare members :: acc)
    components []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* Apps map to shards by [id mod shards] — stable under fleet growth
   and churn: adding or retiring one app never moves another app to a
   different shard, which is what lets the warm path reuse untouched
   shards byte-for-byte. *)
let partition ?shards env apps =
  let domains = failure_domains env in
  let domain_count = List.length domains in
  let shards = Option.value ~default:domain_count shards in
  if shards < 1 then invalid_arg "Fleet.partition: shards must be >= 1";
  let domains = Array.of_list domains in
  List.init shards (fun index ->
      let sites = domains.(index mod domain_count) in
      let apps =
        List.filter (fun (a : App.t) ->
            ((a.App.id mod shards) + shards) mod shards = index)
          apps
      in
      { index; sites; env = Env.restrict env ~sites; apps })

let dirty_between ~previous apps =
  List.filter_map
    (fun (a : App.t) ->
       match List.find_opt (fun (p : App.t) -> p.App.id = a.App.id) previous with
       | Some p when App.same p a -> None
       | Some _ | None -> Some a.App.id)
    apps

let ids_of apps = List.map (fun (a : App.t) -> a.App.id) apps

(* ---- Reconciliation ---------------------------------------------- *)

(* Index-order merge of the shard designs onto the fleet environment.
   [Design.add] re-validates every placement in the full env (always
   satisfiable when shard site-sets are disjoint: shard links are a
   subset of fleet links); an assignment it rejects — a model clash on
   a slot two shards both populated — is a conflict for the fix-up
   pass. *)
let merge_shards env results =
  let carry_assignment shard_design (design, conflicted) (asg : Assignment.t) =
    let primary_model = Design.array_model shard_design asg.primary in
    let mirror_model = Option.bind asg.mirror (Design.array_model shard_design) in
    let tape_model = Option.bind asg.backup (Design.tape_model shard_design) in
    match primary_model with
    | None -> (design, asg.app.App.id :: conflicted)
    | Some primary_model ->
      (match Design.add design asg ~primary_model ?mirror_model ?tape_model () with
       | Ok design -> (design, conflicted)
       | Error _ -> (design, asg.app.App.id :: conflicted))
  in
  let design, conflicted =
    List.fold_left
      (fun acc result ->
         match result.outcome with
         | None ->
           (* The whole shard failed in its sub-environment; its apps go
              to the fix-up pass, which works in the full environment. *)
           let design, conflicted = acc in
           (design, List.rev_append (ids_of result.shard.apps) conflicted)
         | Some (o : Design_solver.outcome) ->
           List.fold_left
             (carry_assignment o.Design_solver.best.Candidate.design)
             acc
             (Design.assignments o.Design_solver.best.Candidate.design))
      (Design.empty env, [])
      results
  in
  (design, List.sort Int.compare conflicted)

(* When shards shared sites, the merged design can over-subscribe a
   resource even though every shard was feasible alone. Evict until
   minimally provisionable: the highest app id among the users of the
   infeasible resource leaves first (deterministic, and biased toward
   the later arrivals the earlier shards never saw). *)
let users_of_infeasibility design = function
  | Provision.Array_capacity slot | Provision.Array_bandwidth slot ->
    Design.residents design slot
  | Provision.Tape_capacity slot | Provision.Tape_bandwidth slot ->
    List.filter
      (fun (a : Assignment.t) ->
         match a.backup with
         | Some b -> Slot.Tape_slot.equal b slot
         | None -> false)
      (Design.assignments design)
  | Provision.Link_bandwidth pair ->
    List.filter
      (fun (a : Assignment.t) ->
         let on p = match p with Some p -> Slot.Pair.equal p pair | None -> false in
         on (Assignment.mirror_pair a) || on (Assignment.backup_pair a))
      (Design.assignments design)
  | Provision.Compute_slots site ->
    List.filter
      (fun (a : Assignment.t) ->
         a.primary.Slot.Array_slot.site = site
         || (match a.mirror with
             | Some m -> m.Slot.Array_slot.site = site
             | None -> false))
      (Design.assignments design)
  | Provision.Missing_model _ -> []

let evict_until_feasible design =
  let rec go design evicted =
    if Design.size design = 0 then (design, evicted)
    else
      match Provision.minimum design with
      | Ok _ -> (design, evicted)
      | Error infeasibility ->
        (match users_of_infeasibility design infeasibility with
         | [] -> (design, evicted)  (* unattributable; leave it to the fix-up *)
         | users ->
           let victim =
             List.fold_left
               (fun worst (a : Assignment.t) -> max worst a.app.App.id)
               min_int users
           in
           go (Design.remove design victim) (victim :: evicted))
  in
  let design, evicted = go design [] in
  (design, List.sort Int.compare evicted)

(* Bounded fix-up: re-place the conflicted apps in the {e full}
   environment via the warm-start path (the merged design is the
   incumbent; the conflicted apps are exactly its missing ones). A pass
   that fails retires the highest dirty id to [unplaced] and tries
   again with the rest, so the budget is spent placing what can be
   placed instead of failing everything. *)
let fixup ~params ~max_reconcile_passes ~obs ~rng ?memo env apps likelihood
    design dirty =
  let rec go design dirty unplaced passes extra_evals =
    match dirty with
    | [] -> (design, None, unplaced, passes, extra_evals)
    | _ when passes >= max_reconcile_passes ->
      (design, None, List.sort Int.compare (dirty @ unplaced), passes,
       extra_evals)
    | _ ->
      let keep = Int_set.of_list (ids_of apps) in
      let keep = List.fold_left (fun s id -> Int_set.remove id s) keep unplaced in
      let live_apps =
        List.filter (fun (a : App.t) -> Int_set.mem a.App.id keep) apps
      in
      (match
         Design_solver.resolve ~params ~obs ~rng:(Rng.split rng) ?memo
           ~incumbent:design ~dirty env live_apps likelihood
       with
       | Some (o : Design_solver.outcome) ->
         (o.Design_solver.best.Candidate.design, Some o, unplaced, passes + 1,
          extra_evals + o.Design_solver.evaluations)
       | None ->
         let worst = List.fold_left max min_int dirty in
         let dirty = List.filter (fun id -> id <> worst) dirty in
         go design dirty (worst :: unplaced) (passes + 1) extra_evals)
  in
  go design dirty [] 0 0

let disjoint_sites results =
  let rec go seen = function
    | [] -> true
    | r :: rest ->
      if r.shard.apps = [] then go seen rest
      else
        let sites = Int_set.of_list r.shard.sites in
        Int_set.disjoint seen sites && go (Int_set.union seen sites) rest
  in
  go Int_set.empty results

let shard_cost results =
  Money.sum
    (List.filter_map
       (fun r ->
          Option.map
            (fun (o : Design_solver.outcome) ->
               Candidate.cost o.Design_solver.best)
            r.outcome)
       results)

(* Everything downstream of the parallel shard map: merge, evict,
   fix-up, cost. Shared verbatim by the cold and warm entry points so
   their reconciliation behavior cannot drift apart. *)
let reconcile ~params ~max_reconcile_passes ~obs ~rng env apps likelihood
    results =
  Obs.with_span obs "fleet.reconcile" @@ fun () ->
  let merged, conflicted = merge_shards env results in
  let merged, evicted = evict_until_feasible merged in
  let conflicts = List.length conflicted + List.length evicted in
  Obs.add obs "fleet.conflicts" (List.length conflicted);
  Obs.add obs "fleet.evictions" (List.length evicted);
  let dirty = List.sort_uniq Int.compare (conflicted @ evicted) in
  let memo =
    if params.Design_solver.config_cache_size > 0 then
      Some
        (Config_solver.create_cache
           ~size:params.Design_solver.config_cache_size ())
    else None
  in
  let design, fix_outcome, unplaced, passes, fix_evals =
    fixup ~params ~max_reconcile_passes ~obs ~rng ?memo env apps likelihood
      merged dirty
  in
  Obs.add obs "fleet.reconcile_passes" passes;
  Obs.add obs "fleet.unplaced" (List.length unplaced);
  let shard_evals =
    List.fold_left
      (fun acc r ->
         match r.outcome with
         | Some (o : Design_solver.outcome) when not r.reused ->
           acc + o.Design_solver.evaluations
         | _ -> acc)
      0 results
  in
  let cost =
    match fix_outcome with
    | Some (o : Design_solver.outcome) -> Candidate.cost o.Design_solver.best
    | None ->
      if Design.size design = 0 then Money.zero
      else if conflicts = 0 && unplaced = [] && disjoint_sites results then
        (* Disconnected failure domains: no shared site, link or slot,
           so the objective separates and the shard sum is exact. *)
        shard_cost results
      else
        (match Evaluate.design ~obs design likelihood with
         | Ok eval -> Evaluate.total eval
         | Error _ -> shard_cost results)
  in
  Obs.gauge_set obs "fleet.cost_dollars" (Money.to_dollars cost);
  { design; cost; evaluations = shard_evals + fix_evals;
    shard_results = results; conflicts; reconcile_passes = passes; unplaced;
    apps }

let shard_pool params =
  Exec.create ~domains:(max 1 params.Design_solver.domains) ()

let inner_params params = { params with Design_solver.domains = 1 }

let announce_shards obs results =
  List.iter
    (fun r ->
       match r.outcome with
       | Some (o : Design_solver.outcome) ->
         Obs.shard_done obs ~evaluations:o.Design_solver.evaluations
           ~shard:r.shard.index
           (Money.to_dollars (Candidate.cost o.Design_solver.best))
       | None -> ())
    results

let solve ?(params = Design_solver.default_params) ?shards
    ?(max_reconcile_passes = 2) ?(obs = Obs.noop) env apps likelihood =
  Obs.with_span obs "fleet.solve" @@ fun () ->
  let shard_list = partition ?shards env apps in
  Obs.gauge_set obs "fleet.shards" (float_of_int (List.length shard_list));
  Obs.add obs "fleet.apps" (List.length apps);
  let pool = shard_pool params in
  let inner = inner_params params in
  let rng = Rng.of_int params.Design_solver.seed in
  let outcomes =
    Exec.map_rng pool ~label:"fleet.shard" ~obs ~rng
      (fun wobs srng shard ->
         Design_solver.solve ~params:inner ~obs:wobs ~rng:srng shard.env
           shard.apps likelihood)
      (Array.of_list shard_list)
  in
  let results =
    List.mapi (fun i shard -> { shard; outcome = outcomes.(i); reused = false })
      shard_list
  in
  announce_shards obs results;
  reconcile ~params ~max_reconcile_passes ~obs ~rng:(Rng.split rng) env apps
    likelihood results

let resolve ?(params = Design_solver.default_params)
    ?(max_reconcile_passes = 2) ?(obs = Obs.noop) ?dirty ~incumbent env apps
    likelihood =
  Obs.with_span obs "fleet.resolve" @@ fun () ->
  let shards = List.length incumbent.shard_results in
  if shards = 0 then
    solve ~params ~max_reconcile_passes ~obs env apps likelihood
  else begin
    let shard_list = partition ~shards env apps in
    let dirty =
      match dirty with
      | Some dirty -> dirty
      | None -> dirty_between ~previous:incumbent.apps apps
    in
    let dirty_set = Int_set.of_list dirty in
    Obs.gauge_set obs "fleet.shards" (float_of_int shards);
    Obs.add obs "fleet.apps" (List.length apps);
    Obs.add obs "fleet.dirty" (Int_set.cardinal dirty_set);
    let previous = Array.of_list incumbent.shard_results in
    let pool = shard_pool params in
    let inner = inner_params params in
    let rng = Rng.of_int params.Design_solver.seed in
    let outcomes =
      Exec.map_rng pool ~label:"fleet.shard" ~obs ~rng
        (fun wobs srng shard ->
           let prev = previous.(shard.index) in
           let shard_dirty =
             List.filter (fun id -> Int_set.mem id dirty_set)
               (ids_of shard.apps)
           in
           (* Catalog drift is checked before the (deep) structural env
              comparison: a repriced model with an unchanged name is a
              structural difference too, but the explicit revision gives
              an O(1) answer plus a dedicated counter, so operators can
              tell "shards re-solved because pricing moved" apart from
              topology edits. *)
           let catalog_drift =
             shard.env.Env.catalog_revision
             <> prev.shard.env.Env.catalog_revision
           in
           if catalog_drift then Obs.incr obs "fleet.catalog_drift";
           let untouched =
             shard_dirty = []
             && (not catalog_drift)
             && List.equal Int.equal (ids_of shard.apps)
                  (ids_of prev.shard.apps)
             && shard.env = prev.shard.env
           in
           match prev.outcome with
           | Some _ when untouched -> (prev.outcome, true)
           | Some (o : Design_solver.outcome) ->
             ( Design_solver.resolve ~params:inner ~obs:wobs ~rng:srng
                 ~incumbent:o.Design_solver.best.Candidate.design
                 ~dirty:shard_dirty shard.env shard.apps likelihood,
               false )
           | None ->
             ( Design_solver.solve ~params:inner ~obs:wobs ~rng:srng shard.env
                 shard.apps likelihood,
               false ))
        (Array.of_list shard_list)
    in
    let results =
      List.mapi
        (fun i shard ->
           let outcome, reused = outcomes.(i) in
           if reused then Obs.incr obs "fleet.shards_reused";
           { shard; outcome; reused })
        shard_list
    in
    announce_shards obs results;
    reconcile ~params ~max_reconcile_passes ~obs ~rng:(Rng.split rng) env apps
      likelihood results
  end
