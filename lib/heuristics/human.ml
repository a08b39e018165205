module Money = Ds_units.Money
module App = Ds_workload.App
module Category = Ds_workload.Category
module Technique = Ds_protection.Technique
module Technique_catalog = Ds_protection.Technique_catalog
module Array_model = Ds_resources.Array_model
module Tier = Ds_resources.Tier
module Env = Ds_resources.Env
module Slot = Ds_resources.Slot
module Design = Ds_design.Design
module Assignment = Ds_design.Assignment
module Likelihood = Ds_failure.Likelihood
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Config_solver = Ds_solver.Config_solver
module Obs = Ds_obs.Obs

let attempts_c = Obs.Metrics.counter_handle "heuristic.human.attempts"
let feasible_c = Obs.Metrics.counter_handle "heuristic.human.feasible"

let class_tier = function
  | Category.Gold -> Tier.High
  | Category.Silver -> Tier.Med
  | Category.Bronze -> Tier.Low

let class_array_model env category =
  let wanted = class_tier category in
  let models = env.Env.array_models in
  let exact =
    List.find_opt (fun (m : Array_model.t) -> Tier.equal m.tier wanted) models
  in
  match exact with
  | Some m -> m
  | None ->
    (* Nearest tier: prefer better (lower rank), else the best available. *)
    (match
       List.sort
         (fun (a : Array_model.t) (b : Array_model.t) ->
            Int.compare
              (abs (Tier.rank a.tier - Tier.rank wanted))
              (abs (Tier.rank b.tier - Tier.rank wanted)))
         models
     with
     | m :: _ -> m
     | [] -> invalid_arg "Human.class_array_model: no array models")

(* Techniques of exactly the app's class. Architects treat the bronze
   baseline (tape backup) as part of every class's standard protection —
   mirrors do not protect against fat-fingered deletions — so the
   uniform choice runs over the class's backup-bearing variants (gold:
   sync/async mirror with failover and backup; silver: the reconstruct
   counterparts; bronze: tape backup). See DESIGN.md. *)
let class_techniques category =
  let all = Technique_catalog.in_class category in
  match List.filter Technique.has_backup all with
  | [] -> all
  | with_backup -> with_backup

(* Randomized priority order: repeatedly draw without replacement with
   probability proportional to penalty rates. *)
let priority_order rng apps =
  let rec draw acc = function
    | [] -> List.rev acc
    | remaining ->
      let weights =
        List.map (fun app -> (app, Money.to_dollars (App.penalty_rate_sum app)))
          remaining
      in
      let chosen = Sample.weighted rng weights in
      draw (chosen :: acc)
        (List.filter (fun a -> a.App.id <> chosen.App.id) remaining)
  in
  draw [] apps

(* Find a bay at the site for the wanted model. Preference order: a bay
   already running that model, an empty bay, a bay running a better-tier
   model (consolidating up is acceptable to an architect), and finally any
   bay at all — class purity yields to feasibility, as it would in
   practice when a site offers fewer bays than there are classes. The
   returned model is whatever the chosen bay runs. *)
let bay_for design site (model : Array_model.t) =
  let env = design.Design.env in
  let bays =
    List.init env.Env.bays_per_site (fun bay ->
        let slot = Slot.Array_slot.v ~site ~bay in
        (slot, Design.array_model design slot))
  in
  let exact =
    List.find_opt
      (fun (_, installed) ->
         match installed with
         | Some i -> Array_model.equal i model
         | None -> false)
      bays
  in
  let empty = List.find_opt (fun (_, installed) -> installed = None) bays in
  let better =
    List.find_opt
      (fun (_, installed) ->
         match installed with
         | Some (i : Array_model.t) -> Tier.rank i.tier < Tier.rank model.tier
         | None -> false)
      bays
  in
  let any = match bays with b :: _ -> Some b | [] -> None in
  let pick = function
    | Some (slot, Some installed) -> Some (slot, installed)
    | Some (slot, None) -> Some (slot, model)
    | None -> None
  in
  match exact, empty, better, any with
  | (Some _ as hit), _, _, _
  | None, (Some _ as hit), _, _
  | None, None, (Some _ as hit), _
  | None, None, None, hit -> pick hit

let build_design rng env apps =
  let sites = Array.of_list (Env.site_ids env) in
  let n_sites = Array.length sites in
  let ordered = priority_order rng apps in
  let rec place design idx = function
    | [] -> Some design
    | app :: rest ->
      let category = App.category app in
      let technique = Sample.choose rng (class_techniques category) in
      let model = class_array_model env category in
      (* Spread primaries uniformly over the sites. *)
      let primary_site = sites.(idx mod n_sites) in
      let mirror_site =
        if Technique.has_mirror technique then
          Sample.choose_opt rng (Env.peers_of env primary_site)
        else None
      in
      let needs_mirror = Technique.has_mirror technique in
      let mirror =
        if not needs_mirror then Some None
        else
          match mirror_site with
          | None -> None
          | Some site ->
            (match bay_for design site model with
             | Some slot_and_model -> Some (Some slot_and_model)
             | None -> None)
      in
      match bay_for design primary_site model, mirror with
      | None, _ | _, None -> None
      | Some (primary, primary_model), Some mirror ->
        begin
          let backup =
            if Technique.has_backup technique then
              Some (Slot.Tape_slot.v ~site:primary_site)
            else None
          in
          let tape_model =
            match backup with
            | Some slot ->
              (* A site has one library; whoever got there first fixed the
                 model. Otherwise tier-match: gold/silver on the high-end
                 library, bronze on the mid-range one (when offered). *)
              (match Design.tape_model design slot with
               | Some installed -> Some installed
               | None ->
                 let wanted =
                   match category with
                   | Category.Gold | Category.Silver -> Tier.High
                   | Category.Bronze -> Tier.Med
                 in
                 let models = env.Env.tape_models in
                 (match
                    List.find_opt
                      (fun (m : Ds_resources.Tape_model.t) ->
                         Tier.equal m.tier wanted)
                      models
                  with
                  | Some m -> Some m
                  | None -> (match models with m :: _ -> Some m | [] -> None)))
            | None -> None
          in
          let assignment =
            Assignment.v ~app ~technique ~primary
              ?mirror:(Option.map fst mirror) ?backup ()
          in
          let mirror_model = Option.map snd mirror in
          match
            Design.add design assignment ~primary_model ?mirror_model
              ?tape_model ()
          with
          | Ok design -> place design (idx + 1) rest
          | Error _ -> None
        end
  in
  place (Design.empty env) 0 ordered

let design_once rng env apps = build_design rng env apps

let run ?(options = Config_solver.default_options) ?(attempts = 30)
    ?(obs = Obs.noop) ~seed env apps likelihood =
  Obs.with_span obs "heuristic.human" @@ fun () ->
  let rng = Rng.of_int seed in
  let rec loop result remaining =
    if remaining = 0 then result
    else begin
      Obs.bump obs attempts_c;
      let outcome =
        match build_design rng env apps with
        | None -> None
        | Some design ->
          (match Config_solver.solve ~options ~obs design likelihood with
           | Ok candidate ->
             Obs.bump obs feasible_c;
             Some candidate
           | Error _ -> None)
      in
      loop (Heuristic_result.consider result outcome) (remaining - 1)
    end
  in
  loop Heuristic_result.empty attempts
