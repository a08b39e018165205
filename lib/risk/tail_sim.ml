module Money = Ds_units.Money
module Time = Ds_units.Time
module Rng = Ds_prng.Rng
module Sample = Ds_prng.Sample
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood
module Scenario = Ds_failure.Scenario
module Penalty = Ds_cost.Penalty
module Simulate = Ds_recovery.Simulate
module Outcome = Ds_recovery.Outcome
module Obs = Ds_obs.Obs
module Exec = Ds_exec.Exec

let hours_per_year = 8760.

type strategy = Nominal_only | By_scope

type estimate = {
  value : float;
  std_error : float;
  lower : float;
  upper : float;
  z : float;
}

type year_sample = {
  total : float;
  downtime : float;
  events : int;
  log_weight : float;
}

type stratum = {
  label : string;
  tilted_class : Scenario.scope_class option;
  allocated_years : int;
  share : float;
}

type t = {
  strata : stratum array;
  samples : year_sample array array;
  scenarios : Scenario.t array;
  scenario_events : int array;
  tilt : float;
  years : int;
  z : float;
  ess : float;
  mean_total : estimate;
  mean_downtime : estimate;
  unavailability : estimate;
}

(* Per-scenario event model, computed once from the deterministic
   recovery simulation: each event of scenario [i] charges [cost]
   dollars of penalty and [down] hours of user-visible outage (the
   worst affected application's recovery time, capped at a year —
   [Money]'s own penalty cap). *)
type event_model = {
  rate : float;
  cls : Scenario.scope_class;
  cost : float;
  down : float;
}

let clamp_estimate ~lo ~hi e =
  { e with
    lower = Float.max lo (Float.min hi e.lower);
    upper = Float.max lo (Float.min hi e.upper) }

let with_z ~lo ~hi z e =
  clamp_estimate ~lo ~hi
    { e with
      z;
      lower = e.value -. (z *. e.std_error);
      upper = e.value +. (z *. e.std_error) }

(* Allocation-weighted combination of per-stratum unbiased estimators
   of E[f(year)] under the nominal rates: each stratum contributes the
   mean of its weighted values [w_j * f(y_j)], and the variance of the
   combination is [sum_s share_s^2 * var_s / n_s] (strata are
   independent). Folds in simulation order, so the float sums — hence
   the printed estimates — are byte-stable at every pool width. *)
let estimate_over ~z ?(lo = Float.neg_infinity) ?(hi = Float.infinity) strata
    samples f =
  let value = ref 0. and variance = ref 0. in
  Array.iteri
    (fun s (chunk : year_sample array) ->
       let n = Array.length chunk in
       if n > 0 then begin
         (* Each weighted value once, into a flat float array; plain
            loops keep the accumulators unboxed. *)
         let wf = Array.map (fun smp -> exp smp.log_weight *. f smp) chunk in
         let sum = ref 0. in
         for j = 0 to n - 1 do
           sum := !sum +. wf.(j)
         done;
         let mean = !sum /. float_of_int n in
         let var =
           if n < 2 then 0.
           else begin
             let sq = ref 0. in
             for j = 0 to n - 1 do
               let d = wf.(j) -. mean in
               sq := !sq +. (d *. d)
             done;
             !sq /. float_of_int (n - 1)
           end
         in
         let share = strata.(s).share in
         value := !value +. (share *. mean);
         variance := !variance +. (share *. share *. var /. float_of_int n)
       end)
    samples;
  let std_error = sqrt !variance in
  clamp_estimate ~lo ~hi
    { value = !value;
      std_error;
      lower = !value -. (z *. std_error);
      upper = !value +. (z *. std_error);
      z }

(* ESS is invariant under scaling the weights, so it is computed with
   per-stratum max-shifted logs and never overflows, whatever the
   tilt pushed the likelihood ratios to. *)
let ess_of samples =
  Array.fold_left
    (fun acc (chunk : year_sample array) ->
       if Array.length chunk = 0 then acc
       else begin
         let max_lw =
           Array.fold_left
             (fun m smp -> Float.max m smp.log_weight)
             Float.neg_infinity chunk
         in
         let s1 = ref 0. and s2 = ref 0. in
         for j = 0 to Array.length chunk - 1 do
           let w = exp (chunk.(j).log_weight -. max_lw) in
           s1 := !s1 +. w;
           s2 := !s2 +. (w *. w)
         done;
         if !s2 > 0. then acc +. (!s1 *. !s1 /. !s2) else acc
       end)
    0. samples

let chunk_years = 1_024

let default_tilt = 8.
let default_z = 2.576 (* two-sided 99% normal quantile *)

let simulate ?params ?(years = 10_000) ?(tilt = default_tilt)
    ?(strategy = By_scope) ?(z = default_z) ?(obs = Obs.noop)
    ?(pool = Exec.sequential) rng prov likelihood =
  if years <= 0 then invalid_arg "Tail_sim.simulate: years must be positive";
  if (not (Float.is_finite tilt)) || tilt <= 0. then
    invalid_arg "Tail_sim.simulate: tilt must be positive and finite";
  if Float.is_nan z || z <= 0. then
    invalid_arg "Tail_sim.simulate: z must be positive";
  Obs.with_span obs "risk.tail_sim" @@ fun () ->
  let scenarios = Scenario.enumerate likelihood prov.Provision.design in
  let model ((scen : Scenario.t), outcomes) =
    let cost =
      List.fold_left
        (fun acc outcome ->
           let o, l = Penalty.of_outcome ~annual_rate:1. outcome in
           acc +. Money.to_dollars o +. Money.to_dollars l)
        0. outcomes
    in
    let down =
      List.fold_left
        (fun acc (outcome : Outcome.t) ->
           let h = Time.to_hours outcome.Outcome.recovery_time in
           let h =
             if Float.is_finite h then Float.min h hours_per_year
             else hours_per_year
           in
           Float.max acc h)
        0. outcomes
    in
    { rate = scen.Scenario.annual_rate;
      cls = Scenario.scope_class scen.Scenario.scope;
      cost;
      down }
  in
  (* One [Simulate.all] batch: the simulator's instruments are resolved
     once per run, not once per scenario. *)
  let models =
    Array.of_list
      (List.map model (Simulate.all ?params ~obs ~scenarios prov likelihood))
  in
  let scenarios = Array.of_list scenarios in
  let strata_specs =
    let nominal = ("nominal", None) in
    match strategy with
    | Nominal_only -> [ nominal ]
    | By_scope ->
      nominal
      :: List.filter_map
           (fun cls ->
              if
                Array.exists (fun m -> m.cls = cls && m.rate > 0.) models
              then Some (Scenario.class_name cls, Some cls)
              else None)
           Scenario.all_classes
  in
  let stratum_count = List.length strata_specs in
  if years < stratum_count then
    invalid_arg
      (Printf.sprintf
         "Tail_sim.simulate: %d years cannot cover %d strata (one year per \
          stratum minimum)"
         years stratum_count);
  (* Even allocation, earlier strata absorbing the remainder — a fixed
     function of (years, strata), never of the pool. *)
  let strata =
    Array.of_list
      (List.mapi
         (fun i (label, tilted_class) ->
            let base = years / stratum_count in
            let extra = if i < years mod stratum_count then 1 else 0 in
            let allocated_years = base + extra in
            { label;
              tilted_class;
              allocated_years;
              share = float_of_int allocated_years /. float_of_int years })
         strata_specs)
  in
  (* Proposal rates per stratum: the stratum's class is tilted, every
     other scenario keeps its nominal rate (weight term 0). *)
  let proposal =
    Array.map
      (fun st ->
         Array.map
           (fun m ->
              match st.tilted_class with
              | Some cls when m.cls = cls && m.rate > 0. -> m.rate *. tilt
              | _ -> m.rate)
           models)
      strata
  in
  Obs.add obs "risk.tail.years" years;
  (* Balance-heuristic (deterministic-mixture) weighting: a year drawn
     in any stratum is weighted by [p(y) / sum_s share_s * q_s(y)] —
     the mixture of all strata's proposals, not the year's own one.
     This keeps the estimator unbiased (sum_s share_s E_{q_s}[w f] =
     E_p[f]) while bounding every weight by [1 / share_nominal]:
     single-proposal ratios explode as [exp (sum (tilted - rate))]
     when a tilted stratum draws an eventless year, and a handful of
     such weights would swamp the mean and wreck the variance
     estimate. Each stratum's log ratio against the nominal rates is
     a sum of per-scenario {!Sample.poisson_log_weight} terms over
     the scenarios that stratum tilts, grouped here per scope class. *)
  let class_index = function
    | Scenario.Object -> 0
    | Scenario.Array -> 1
    | Scenario.Site -> 2
  in
  (* With no stratum tilted (a [Nominal_only] run, or no positive-rate
     class to tilt) every proposal is the nominal density: each year
     weighs exactly 1, so the per-scenario ratios and the log-sum-exp
     are skipped. The draws are the same either way. *)
  let weighted = Array.exists (fun st -> st.tilted_class <> None) strata in
  let run_year rates counts lr terms rng =
    (* A plain loop, not a closure over the accumulators, so the float
       refs stay unboxed: this is the sampler's innermost loop. *)
    let total = ref 0. and down = ref 0. in
    let events = ref 0 in
    Array.fill lr 0 (Array.length lr) 0.;
    for i = 0 to Array.length models - 1 do
      let m = models.(i) in
      let k = Sample.poisson rng rates.(i) in
      (* log (P_rate(k) / P_tilted(k)) of this scenario's count under
         the class's global tilted rate — the same ratio whichever
         stratum the year was drawn in. *)
      if weighted && tilt <> 1. && m.rate > 0. then
        lr.(class_index m.cls) <-
          lr.(class_index m.cls)
          +. Sample.poisson_log_weight ~rate:m.rate ~tilted:(m.rate *. tilt) k;
      if k > 0 then begin
        counts.(i) <- counts.(i) + k;
        events := !events + k;
        total := !total +. (float_of_int k *. m.cost);
        down := !down +. (float_of_int k *. m.down)
      end
    done;
    (* log w = -log sum_s share_s * q_s/p, via log-sum-exp. A stratum's
       log (q_s/p) is minus its class's accumulated ratio (0 for the
       nominal stratum), so with nominal present the sum is >= share_0
       and w <= 1/share_0. *)
    let log_weight =
      if not weighted then 0.
      else begin
        let max_term = ref Float.neg_infinity in
        Array.iteri
          (fun s st ->
             let r =
               match st.tilted_class with
               | None -> 0.
               | Some cls -> -.lr.(class_index cls)
             in
             let t = log st.share +. r in
             terms.(s) <- t;
             if t > !max_term then max_term := t)
          strata;
        let sum =
          Array.fold_left (fun acc t -> acc +. exp (t -. !max_term)) 0. terms
        in
        -.(!max_term +. log sum)
      end
    in
    { total = !total;
      downtime = Float.min !down hours_per_year;
      events = !events;
      log_weight }
  in
  (* One task per (stratum, fixed-size chunk), enumerated stratum-major
     in chunk order: the task list — hence the pre-split stream layout —
     depends only on (years, strategy, scenario classes). *)
  let tasks =
    Array.of_list
      (List.concat
         (List.mapi
            (fun s st ->
               let chunks =
                 (st.allocated_years + chunk_years - 1) / chunk_years
               in
               List.init chunks (fun c ->
                   (s, min chunk_years (st.allocated_years - (c * chunk_years)))))
            (Array.to_list strata)))
  in
  let results =
    Exec.map_rng pool ~label:"risk.tail.years" ~obs ~rng
      (fun _wobs rng (s, size) ->
         let counts = Array.make (Array.length models) 0 in
         let rates = proposal.(s) in
         let lr = Array.make 3 0. in
         let terms = Array.make (Array.length strata) 0. in
         let samples =
           Array.init size (fun _ -> run_year rates counts lr terms rng)
         in
         (samples, counts))
      tasks
  in
  (* Index-order merge: concatenate chunk samples per stratum and sum
     the per-scenario event counts (int sums are order-independent, but
     the order is fixed anyway). *)
  let buffers = Array.map (fun _ -> ref []) strata in
  let scenario_events = Array.make (Array.length models) 0 in
  Array.iteri
    (fun i (samples, counts) ->
       let s, _ = tasks.(i) in
       buffers.(s) := samples :: !(buffers.(s));
       Array.iteri
         (fun j k -> scenario_events.(j) <- scenario_events.(j) + k)
         counts)
    results;
  let samples = Array.map (fun b -> Array.concat (List.rev !b)) buffers in
  Obs.add obs "risk.tail.events"
    (Array.fold_left
       (fun acc chunk ->
          Array.fold_left (fun acc smp -> acc + smp.events) acc chunk)
       0 samples);
  let ess = ess_of samples in
  let mean_total = estimate_over ~z ~lo:0. strata samples (fun s -> s.total) in
  let mean_downtime =
    estimate_over ~z ~lo:0. strata samples (fun s -> s.downtime)
  in
  let unavailability =
    estimate_over ~z ~lo:0. ~hi:1. strata samples (fun s ->
        s.downtime /. hours_per_year)
  in
  Obs.gauge_set obs "risk.tail.ess" ess;
  Obs.gauge_set obs "risk.tail.ci_width" (mean_total.upper -. mean_total.lower);
  { strata;
    samples;
    scenarios;
    scenario_events;
    tilt;
    years;
    z;
    ess;
    mean_total;
    mean_downtime;
    unavailability }

let exceedance ?z t x =
  let z = Option.value ~default:t.z z in
  let threshold = Money.to_dollars x in
  estimate_over ~z ~lo:0. ~hi:1. t.strata t.samples (fun s ->
      if s.total >= threshold then 1. else 0.)

let downtime_exceedance ?z t hours =
  let z = Option.value ~default:t.z z in
  estimate_over ~z ~lo:0. ~hi:1. t.strata t.samples (fun s ->
      if s.downtime > hours then 1. else 0.)

let check_quantile fn q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg (fn ^ ": q outside [0, 1]")

(* One weighted sort serves every quantile asked for. Samples fill the
   array last one first: [Array.sort] is not stable, and this is the
   order the pinned [--sla] quantiles were computed in, so ties (and the
   cumulative weights across them) land where they always have. *)
let percentiles fn t qs =
  List.iter (check_quantile fn) qs;
  let n = Array.fold_left (fun acc chunk -> acc + Array.length chunk) 0 t.samples in
  let arr = Array.make n (0., 0.) in
  let k = ref n in
  Array.iteri
    (fun s (chunk : year_sample array) ->
       let len = Array.length chunk in
       if len > 0 then begin
         let scale = t.strata.(s).share /. float_of_int len in
         Array.iter
           (fun smp ->
              decr k;
              arr.(!k) <- (smp.total, scale *. exp smp.log_weight))
           chunk
       end)
    t.samples;
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  let total_weight = Array.fold_left (fun acc (_, w) -> acc +. w) 0. arr in
  let quantile q =
    if n = 0 || total_weight <= 0. then Money.zero
    else begin
      let value = ref (fst arr.(n - 1)) in
      (try
         let cum = ref 0. in
         Array.iter
           (fun (v, w) ->
              cum := !cum +. (w /. total_weight);
              if !cum > q then begin
                value := v;
                raise Exit
              end)
           arr
       with Exit -> ());
      Money.dollars !value
    end
  in
  List.map quantile qs

let tail_percentiles t qs = percentiles "Tail_sim.tail_percentiles" t qs

let tail_percentile t q =
  List.hd (percentiles "Tail_sim.tail_percentile" t [ q ])

type verdict = Pass | Fail | Inconclusive

type certification = {
  availability : float;
  allowed_unavailability : float;
  downtime_budget : float;
  unavailability : estimate;
  breach_probability : estimate;
  ess : float;
  uncovered : string list;
  verdict : verdict;
  deciding_bound : float;
  reason : string;
}

let verdict_to_string = function
  | Pass -> "PASS"
  | Fail -> "FAIL"
  | Inconclusive -> "INCONCLUSIVE"

let certify ?z t ~availability =
  if
    Float.is_nan availability || availability <= 0. || availability >= 1.
  then invalid_arg "Tail_sim.certify: availability must be in (0, 1)";
  let z = Option.value ~default:t.z z in
  let allowed = 1. -. availability in
  let downtime_budget = allowed *. hours_per_year in
  let unavailability = with_z ~lo:0. ~hi:1. z t.unavailability in
  let breach_probability = downtime_exceedance ~z t downtime_budget in
  let uncovered = ref [] in
  Array.iteri
    (fun i (scen : Scenario.t) ->
       if scen.Scenario.annual_rate > 0. && t.scenario_events.(i) = 0 then
         uncovered := Format.asprintf "%a" Scenario.pp scen :: !uncovered)
    t.scenarios;
  let uncovered = List.rev !uncovered in
  let verdict, deciding_bound, reason =
    if unavailability.lower > allowed then
      ( Fail,
        unavailability.lower,
        Printf.sprintf
          "even the lower confidence bound on unavailability (%.3g) exceeds \
           the allowed %.3g"
          unavailability.lower allowed )
    else if uncovered <> [] then
      ( Inconclusive,
        unavailability.upper,
        Printf.sprintf
          "%d positive-rate scenario(s) were never sampled, so the bound is \
           one-sided; raise the year budget or the tilt"
          (List.length uncovered) )
    else if unavailability.upper <= allowed then
      ( Pass,
        unavailability.upper,
        Printf.sprintf
          "upper confidence bound on unavailability (%.3g) is within the \
           allowed %.3g"
          unavailability.upper allowed )
    else
      ( Inconclusive,
        unavailability.upper,
        Printf.sprintf
          "confidence interval [%.3g, %.3g] straddles the allowed %.3g; \
           more years would tighten it"
          unavailability.lower unavailability.upper allowed )
  in
  { availability;
    allowed_unavailability = allowed;
    downtime_budget;
    unavailability;
    breach_probability;
    ess = t.ess;
    uncovered;
    verdict;
    deciding_bound;
    reason }

let pp_estimate ppf e =
  Format.fprintf ppf "%.6g [%.6g, %.6g]" e.value e.lower e.upper

let pp ppf t =
  let p99, p999, p9999 =
    match tail_percentiles t [ 0.99; 0.999; 0.9999 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Format.fprintf ppf
    "@[<v>rare-event tail over %d years (%d strata, tilt %.3g, z %.3g): \
     ESS %.1f@,\
     expected annual penalty: $%a@,\
     expected annual downtime: %a hours (unavailability %a)@,\
     annual penalty p99: %a, p99.9: %a, p99.99: %a@]"
    t.years (Array.length t.strata) t.tilt t.z t.ess pp_estimate t.mean_total
    pp_estimate t.mean_downtime pp_estimate t.unavailability Money.pp p99
    Money.pp p999 Money.pp p9999

let pp_certification ppf c =
  Format.fprintf ppf
    "@[<v>SLA %.11g%% availability (budget %.6g hours/year): %s@,\
     unavailability %a (deciding bound %.3g, allowed %.3g)@,\
     breach probability per year: %a@,\
     effective sample size %.1f@,\
     %s%a@]"
    (100. *. c.availability) c.downtime_budget (verdict_to_string c.verdict)
    pp_estimate c.unavailability c.deciding_bound c.allowed_unavailability
    pp_estimate c.breach_probability c.ess c.reason
    (fun ppf -> function
       | [] -> ()
       | uncovered ->
         Format.fprintf ppf "@,never sampled:@,";
         Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
           (fun ppf s -> Format.fprintf ppf "  %s" s)
           ppf uncovered)
    c.uncovered
