module Time = Ds_units.Time
module Money = Ds_units.Money
module App = Ds_workload.App
module Backup = Ds_protection.Backup
module Technique = Ds_protection.Technique
module Design = Ds_design.Design
module Assignment = Ds_design.Assignment
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Scenario = Ds_failure.Scenario
module Simulate = Ds_recovery.Simulate
module Evaluate = Ds_cost.Evaluate
module Obs = Ds_obs.Obs

(* Counters bumped per trial or per solve, named once here. *)
let window_trials = Obs.Metrics.counter_handle "config.window_trials"
let growth_steps = Obs.Metrics.counter_handle "config.growth_steps"
let solves = Obs.Metrics.counter_handle "config.solves"
let cache_hits = Obs.Metrics.counter_handle "config.cache_hits"
let cache_misses = Obs.Metrics.counter_handle "config.cache_misses"
let cache_evictions = Obs.Metrics.counter_handle "config.cache_evictions"

type window_scope =
  | All_apps
  | Only of App.id list
  | Skip

type cache = (Candidate.t, Provision.infeasibility) result Memo.t

type options = {
  window_scope : window_scope;
  snapshot_menu : Time.t list;
  tape_menu : Time.t list;
  fulls_menu : int list;
  max_growth_steps : int;
  recovery : Ds_recovery.Recovery_params.t;
  memo : cache option;
}

let default_options =
  { window_scope = All_apps;
    snapshot_menu = [ Time.hours 6.; Time.hours 12.; Time.hours 24. ];
    tape_menu = [ Time.days 1.; Time.days 3.5; Time.days 7.; Time.days 14. ];
    fulls_menu = [ 1; 7 ];
    max_growth_steps = 24;
    recovery = Ds_recovery.Recovery_params.default;
    memo = None }

let search_options =
  { default_options with window_scope = Only []; max_growth_steps = 6 }

let create_cache ?(size = 1024) () : cache = Memo.create ~capacity:size ()

(* ------------------------------------------------------------------ *)
(* Memo-cache keys. The solver is a pure function of (options, design,
   likelihood) — it never touches the RNG — so a canonical fingerprint
   of those three inputs keys its results exactly. Every option field
   that changes the result is encoded; the [memo] field itself is not
   part of the key.                                                     *)
(* ------------------------------------------------------------------ *)

let scope_fingerprint = function
  | All_apps -> "A"
  | Skip -> "S"
  | Only ids ->
    "O" ^ String.concat "," (List.map string_of_int (List.sort Int.compare ids))

let recovery_fingerprint (r : Ds_recovery.Recovery_params.t) =
  Printf.sprintf "r{%h;%h;%h;%h;%h;%h;%h;%h;%h;%s;%s}"
    (Time.to_seconds r.detection) (Time.to_seconds r.failover)
    (Time.to_seconds r.array_repair) (Time.to_seconds r.site_rebuild)
    (Time.to_seconds r.site_reconfig) (Time.to_seconds r.mirror_promote)
    (Time.to_seconds r.vault_fetch) (Time.to_seconds r.manual_rebuild)
    (Time.to_seconds r.loss_horizon)
    (match r.vault_mode with
     | Ds_recovery.Recovery_params.Cycle -> "c"
     | Ds_recovery.Recovery_params.Continuous -> "k")
    (match r.scheduling with
     | Ds_sim.Engine.Priority -> "p"
     | Ds_sim.Engine.Fifo -> "f"
     | Ds_sim.Engine.Smallest_first -> "s")

let time_menu menu =
  String.concat "," (List.map (fun t -> Printf.sprintf "%h" (Time.to_seconds t)) menu)

let options_fingerprint o =
  Printf.sprintf "o{%s|%s|%s|%s|%d|%s}"
    (scope_fingerprint o.window_scope)
    (time_menu o.snapshot_menu) (time_menu o.tape_menu)
    (String.concat "," (List.map string_of_int o.fulls_menu))
    o.max_growth_steps
    (recovery_fingerprint o.recovery)

(* A refit run probes the memo thousands of times with the same options
   and likelihood values; only the design part of the key varies. Both
   small fingerprints are cached under physical equality (an Atomic slot,
   racing solver domains at worst recompute an identical string). *)
let options_fp_slot : (options * string) option Atomic.t = Atomic.make None
let likelihood_fp_slot : (Likelihood.t * string) option Atomic.t =
  Atomic.make None

let cached_fp slot v compute =
  match Atomic.get slot with
  | Some (v', fp) when v' == v -> fp
  | _ ->
    let fp = compute v in
    Atomic.set slot (Some (v, fp));
    fp

let cache_key ~options design likelihood =
  let options_fp = cached_fp options_fp_slot options options_fingerprint in
  let likelihood_fp =
    cached_fp likelihood_fp_slot likelihood Likelihood.fingerprint
  in
  let buf =
    Buffer.create
      (String.length options_fp + String.length likelihood_fp + 256)
  in
  Buffer.add_string buf options_fp;
  Buffer.add_char buf '#';
  Buffer.add_string buf likelihood_fp;
  Buffer.add_char buf '#';
  Design.add_fingerprint buf design;
  Buffer.contents buf

(* Swap one app's backup windows inside a design. Only the backup chain
   changes — placement and models stay put — so the assignment is
   rewritten in place instead of cycling through Design.remove/add. *)
let with_windows design (asg : Assignment.t) ~snapshot_win ~tape_win ~fulls_every =
  match asg.technique.Technique.backup with
  | None -> Ok design
  | Some chain ->
    let chain =
      Backup.with_fulls_every
        (Backup.with_tape_win (Backup.with_snapshot_win chain snapshot_win)
           tape_win)
        fulls_every
    in
    let technique = Technique.with_backup_chain asg.technique chain in
    (match Design.swap_technique design asg.app.App.id technique with
     | Some design -> Ok design
     | None -> Error "app not assigned")

(* Each stage that has trials runs under one span of its name; a stage
   with none records nothing. *)
let with_stage obs name trials f =
  if Array.length trials = 0 then f () else Obs.with_span obs name f

(* Coordinate-descent over the window menus, one app at a time in
   descending penalty order; each combination is evaluated against the
   full candidate (Section 3.2: exhaustive search over the discretized
   ranges). Every trial of an app is built from the app-entry design and
   costed from the app-entry evaluation, re-simulating only the
   scenarios the app's new windows can change; the running best is kept
   by strict [<], so the lowest combo index wins a tie. *)
let optimize_windows ~options ~obs ~footprints ~batch design current_eval =
  let scope_ids =
    match options.window_scope with
    | All_apps ->
      List.map (fun (a : Assignment.t) -> a.app.App.id) (Design.assignments design)
    | Only ids -> ids
    | Skip -> []
  in
  let candidates =
    Design.assignments design
    |> List.filter (fun (a : Assignment.t) ->
        Technique.has_backup a.technique && List.mem a.app.App.id scope_ids)
    |> List.sort (fun (a : Assignment.t) (b : Assignment.t) ->
        Money.compare (App.penalty_rate_sum b.app) (App.penalty_rate_sum a.app))
  in
  let combos =
    List.concat_map
      (fun snapshot_win ->
         List.concat_map
           (fun tape_win ->
              List.map (fun fulls_every -> (snapshot_win, tape_win, fulls_every))
                options.fulls_menu)
           options.tape_menu)
      options.snapshot_menu
    |> Array.of_list
  in
  (* Resolved here, as every solve has always created the counter, even
     one that runs no trial. *)
  let trials_c = Obs.instrument obs window_trials in
  List.fold_left
    (fun (design, eval) (asg : Assignment.t) ->
       let move = Evaluate.Windows asg.app.App.id in
       with_stage obs "config.windows" combos @@ fun () ->
       Array.fold_left
         (fun ((_, best_eval) as best) (snapshot_win, tape_win, fulls_every) ->
            match
              with_windows design asg ~snapshot_win ~tape_win ~fulls_every
            with
            | Error _ -> best
            | Ok trial ->
              (match trials_c with
               | Some c -> Obs.Metrics.incr c
               | None -> ());
              (match Provision.minimum trial with
               | Error _ -> best
               | Ok prov ->
                 let trial_eval =
                   Evaluate.update ~params:options.recovery ~obs ~batch
                     ~footprints eval move prov
                 in
                 if Money.compare (Evaluate.total trial_eval)
                      (Evaluate.total best_eval) < 0
                 then (trial, trial_eval)
                 else best))
         (design, eval) combos)
    (design, current_eval) candidates

(* Add one resource unit at a time while it reduces total cost
   (Section 3.2.2: "continues to add resources until it no longer
   produces any cost savings"). Each round's candidate moves all grow
   the round-entry provisioning; the round keeps the cheapest by strict
   [<], so the lowest move index wins a tie. A move re-simulates only
   the scenarios that read the grown device. *)
let grow_resources ~options ~obs ~footprints ~batch eval =
  let recovery = options.recovery in
  let rec loop eval steps =
    if steps >= options.max_growth_steps then eval
    else begin
      let moves =
        Array.of_list (Provision.growth_moves eval.Evaluate.provision)
      in
      let improved =
        with_stage obs "config.growth" moves @@ fun () ->
        Array.fold_left
          (fun best move ->
             match Provision.grow eval.Evaluate.provision move with
             | None -> best
             | Some prov ->
               let trial =
                 Evaluate.update ~params:recovery ~obs ~batch ~footprints eval
                   (Evaluate.Growth move) prov
               in
               let bar = match best with Some b -> b | None -> eval in
               if Money.compare (Evaluate.total trial) (Evaluate.total bar) < 0
               then Some trial
               else best)
          None moves
      in
      match improved with
      | Some better ->
        Obs.bump obs growth_steps;
        loop better (steps + 1)
      | None -> eval
    end
  in
  loop eval 0

let solve_fresh ~options ~obs design likelihood =
  (* One enumeration serves the whole solve: window trials rewrite backup
     chains and growth trials re-provision, but neither moves an app or a
     slot, so [Scenario.enumerate] — and each scenario's footprint — is
     invariant across every trial evaluated below. *)
  let scenarios = Scenario.enumerate likelihood design in
  let footprints = Array.of_list (List.map (Simulate.footprint design) scenarios) in
  (* Likewise one instrument batch. *)
  Simulate.with_batch obs @@ fun batch ->
  match
    Evaluate.design ~params:options.recovery ~obs ~scenarios ~batch design
      likelihood
  with
  | Error _ as e -> e
  | Ok eval ->
    let design, eval =
      optimize_windows ~options ~obs ~footprints ~batch design eval
    in
    let eval = grow_resources ~options ~obs ~footprints ~batch eval in
    Ok (Candidate.v design eval)

let solve ?(options = default_options) ?(obs = Obs.noop) design likelihood =
  Obs.with_span obs "config.solve" @@ fun () ->
  Obs.bump obs solves;
  match options.memo with
  | None -> solve_fresh ~options ~obs design likelihood
  | Some memo ->
    let key = cache_key ~options design likelihood in
    (match Memo.find memo key with
     | Some result ->
       Obs.bump obs cache_hits;
       result
     | None ->
       Obs.bump obs cache_misses;
       let result = solve_fresh ~options ~obs design likelihood in
       if Memo.add memo key result then Obs.bump obs cache_evictions;
       result)
