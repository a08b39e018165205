(* dstool: command-line front end for the dependable-storage design tool.

   Subcommands mirror the paper's workflow: print the catalogs, solve an
   environment, compare heuristics, sample the solution space, and run
   the scalability / sensitivity sweeps. *)

open Dependable_storage
open Cmdliner
module E = Experiments
module Design_solver = Solver.Design_solver
module Candidate = Solver.Candidate

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

(* Request errors end a command with [dstool: <message>] and the
   ordinary error exit (124): the message is the one [dstool serve]
   answers the same input with. *)
let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error e -> `Error (false, E.Request.error_message e)

let exit_with = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let env_term =
  Arg.(value & opt string "peer"
       & info [ "env" ] ~docv:"ENV"
           ~doc:"Environment: $(b,peer) (two peer sites, Section 4.3) or \
                 $(b,quad) (four fully connected sites, Sections 4.4-4.5).")

let apps_term =
  Arg.(value & opt (some int) None
       & info [ "apps" ] ~docv:"N"
           ~doc:"Number of applications (cycling through the Table 1 \
                 classes). Defaults to 8 for peer, 16 for quad.")

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Observability: --trace/--metrics/--progress build an Obs capability;
   instrumentation is off (the noop sink) unless asked for, and never
   changes results. *)

let trace_term =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of the run to FILE (load \
                 it in chrome://tracing or ui.perfetto.dev) and print the \
                 aggregated span tree.")

let metrics_term =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect counters, gauges and duration histograms across \
                 the search and simulation stack and print them at the end.")

let progress_term =
  Arg.(value & opt (some string) None
       & info [ "progress" ] ~docv:"FILE"
           ~doc:"Write the solver-convergence stream (incumbent cost vs \
                 evaluations, stage transitions, refit accept/reject) to \
                 FILE as CSV.")

let profile_term =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Write a structured profiling report (ds-prof/1 JSON: \
                 per-stage wall/allocation breakdown, domain-pool \
                 utilization, lock-wait totals, histogram percentiles) to \
                 FILE and print it. Forces metrics and trace collection \
                 on; results are unchanged (instrumentation never draws \
                 from the RNG).")

let obs_terms = Term.(const (fun t m p prof -> (t, m, p, prof))
                      $ trace_term $ metrics_term $ progress_term
                      $ profile_term)

(* The configuration-solver memo cache is result-transparent (same seed,
   byte-identical design), so it is on by default; the escape hatch
   exists for debugging and for timing the uncached solver. *)
let no_cache_term =
  Arg.(value & flag
       & info [ "no-config-cache" ]
           ~doc:"Disable the configuration-solver memo cache. The cache \
                 never changes results (a fixed seed yields the identical \
                 design either way); disabling it only makes the search \
                 slower. Useful for debugging and perf comparisons.")

(* Like the memo cache, the Exec pool is result-transparent: every
   consumer pre-splits RNG streams in task order and merges results in
   task order, so the domain count only changes wall time (DESIGN.md
   §10). *)
let domains_term =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Run the command's parallelizable work — refit probe \
                 walks, simulated years, experiment sweep points — on N \
                 OCaml domains (default 1, sequential). Deterministic: a \
                 fixed seed yields byte-identical output whatever N is; \
                 only wall time changes. Counts above the task count are \
                 clamped to it.")

(* Portfolio knobs (solve and compare): --restarts turns the run into a
   multi-start portfolio (the Search meta-solver); --race and
   --budget-evals shape it. Unlike --domains, --race can change the
   winner: its bound is a heuristic that kept the winner on ~90% of
   seeds (DESIGN.md §11). *)
let restarts_term =
  Arg.(value & opt int 1
       & info [ "restarts" ] ~docv:"N"
           ~doc:"Run N independent design-solver restarts from pre-split \
                 RNG streams (a portfolio; default 1 = a single run) and \
                 keep the cheapest design. Restart 0 replays the plain \
                 fixed-seed run, so more restarts never return a costlier \
                 design. Deterministic: the winner is byte-identical \
                 whatever $(b,--domains) is.")

let race_term =
  Arg.(value & flag
       & info [ "race" ]
           ~doc:"Let portfolio restarts abandon refit rounds they can no \
                 longer win (estimated bound: current cost minus the \
                 largest improvement observed so far, against the best \
                 cost already published). Raced restarts stop sooner, but \
                 the bound is a heuristic: a restart that would have \
                 improved by more than anything seen so far is cut off, so \
                 the winner can differ from a run without racing (it was \
                 kept on about 90% of seeds tested).")

let budget_evals_term =
  Arg.(value & opt (some int) None
       & info [ "budget-evals" ] ~docv:"N"
           ~doc:"Anytime budget for the portfolio: stop admitting \
                 restarts once the committed configuration-solver calls \
                 reach N and return the best design so far. The first \
                 restart always runs.")

let portfolio_terms =
  Term.(const (fun restarts race evals -> (restarts, race, evals))
        $ restarts_term $ race_term $ budget_evals_term)

let obs_of (trace, metrics, progress, profile) =
  (* --profile needs both the registry (pool/lock accounting) and the
     span collector (stage breakdown), whatever else was asked for. *)
  let metrics = metrics || profile <> None in
  let trace = trace <> None || profile <> None in
  if (not trace) && (not metrics) && progress = None then Obs.noop
  else Obs.create ~metrics ~trace ~progress:(progress <> None) ()

(* Emit whatever sinks were requested; shared by solve/compare/risk.
   A bad path must not discard the run that produced the data — the
   search result already printed — but it must not exit 0 either, or CI
   silently loses the artifact it asked for: failures surface as a
   nonzero exit through the returned [Error]. *)
let report_obs (trace, metrics, progress, profile) obs =
  let errors = ref [] in
  let write path contents =
    match Obs.write_file path contents with
    | Ok () -> true
    | Error reason ->
      errors := reason :: !errors;
      false
  in
  (match trace, Obs.trace obs with
   | Some path, Some collector ->
     if write path (Obs.Trace.to_chrome_json collector) then
       Format.fprintf fmt "@.span tree (%d spans; trace written to %s):@.%a"
         (Obs.Trace.span_count collector) path Obs.Trace.pp_tree collector
   | _ -> ());
  (match progress, Obs.progress obs with
   | Some path, Some stream ->
     if write path (Obs.Progress.to_csv stream) then begin
       Format.fprintf fmt
         "@.progress: %d refit rounds accepted, %d rejected%s; CSV written \
          to %s@."
         (Obs.Progress.accepted_count stream)
         (Obs.Progress.rejected_count stream)
         (match Obs.Progress.best stream with
          | Some best -> Printf.sprintf ", best $%.0f" best
          | None -> "")
         path;
       (* Portfolio runs interleave incumbent-improvement events from
          the meta-solver; surface them as one line each (absent on
          single runs). *)
       List.iter
         (fun (e : Obs.Progress.entry) ->
            match e.Obs.Progress.event with
            | Obs.Progress.Portfolio { restart; cost } ->
              Format.fprintf fmt
                "  restart %d improved the incumbent to $%.0f (%d \
                 evaluations in)@."
                restart cost e.Obs.Progress.evaluations
            | _ -> ())
         (Obs.Progress.entries stream)
     end
   | _ -> ());
  (match Obs.metrics obs with
   | Some registry when metrics ->
     Format.fprintf fmt "@.metrics:@.%a" Obs.Metrics.pp registry
   | _ -> ());
  (match profile with
   | None -> ()
   | Some path ->
     let report =
       Obs.Prof.capture ~label:"dstool"
         ?registry:(Obs.metrics obs) ?trace:(Obs.trace obs) ()
     in
     if write path (Obs.Prof.to_json report) then
       Format.fprintf fmt "@.%a@.profile written to %s@." Obs.Prof.pp report
         path);
  match List.rev !errors with
  | [] -> Ok ()
  | errors -> Error (String.concat "; " errors)

let base_budget_term =
  Arg.(value & opt string "default"
       & info [ "budget" ] ~docv:"BUDGET"
           ~doc:"Iteration budget: $(b,quick) or $(b,default).")

(* The problem and budget are checked as terms: a bad value fails
   before the command runs, like a bad flag. *)
let checked term =
  Term.term_result'
    Term.(const (Result.map_error E.Request.error_message) $ term)

let budget_term ?(cache = false) ?(portfolio = false) () =
  let budget name seed no_cache domains (restarts, race, max_evaluations) =
    E.Request.budget ~restarts ~race ?max_evaluations ~domains
      ~config_cache:(not no_cache) ~seed name
  in
  checked
    Term.(
      const budget $ base_budget_term $ seed_term
      $ (if cache then no_cache_term else const false)
      $ domains_term
      $ if portfolio then portfolio_terms else const (1, false, None))

let likelihood_term =
  let rate name doc =
    Arg.(value & opt (some float) None & info [ name ] ~docv:"PER_YEAR" ~doc)
  in
  let likelihood object_rate array_rate site_rate =
    E.Request.likelihood ?object_rate ?array_rate ?site_rate ()
  in
  checked
    Term.(
      const likelihood
      $ rate "object-rate" "Data-object failures per year (default 1/3)."
      $ rate "array-rate" "Disk-array failures per year (default 1/3)."
      $ rate "site-rate" "Site disasters per year (default 1/5).")

let instance_term =
  checked
    Term.(const (fun env apps -> E.Request.instance ?apps env) $ env_term
          $ apps_term)

(* ------------------------------------------------------------------ *)
(* catalogs                                                            *)
(* ------------------------------------------------------------------ *)

let catalogs_cmd =
  let run () =
    E.Report.table1 fmt ();
    Format.fprintf fmt "@.";
    E.Report.table2 fmt ();
    Format.fprintf fmt "@.";
    E.Report.table3 fmt ()
  in
  Cmd.v (Cmd.info "catalogs" ~doc:"Print the Table 1-3 catalogs.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let print_solution (candidate : Candidate.t) =
  E.Report.table4 fmt (E.Case_study.rows_of_candidate candidate);
  Format.fprintf fmt "@.%a@." Cost.Summary.pp (Candidate.summary candidate);
  Format.fprintf fmt "@.annual outlay breakdown:@.";
  List.iter
    (fun (name, m) ->
       Format.fprintf fmt "  %-16s %s@." name (Units.Money.to_string m))
    (Cost.Outlay.breakdown candidate.Candidate.eval.Cost.Evaluate.provision);
  Format.fprintf fmt "@.expected annual penalties per application:@.";
  List.iter
    (fun (p : Cost.Penalty.per_app) ->
       Format.fprintf fmt "  %-12s outage %10s  loss %10s@."
         p.Cost.Penalty.app.Workload.App.name
         (Units.Money.to_string p.Cost.Penalty.outage)
         (Units.Money.to_string p.Cost.Penalty.loss))
    candidate.Candidate.eval.Cost.Evaluate.penalty.Cost.Penalty.by_app

let output_term =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the chosen design to FILE (re-read it with \
                 $(b,dstool audit --design)).")

let solve_cmd =
  let run (env, apps) likelihood budget output obs_flags =
    let obs = obs_of obs_flags in
    let* solved =
      E.Request.run_solve ~obs
        { E.Request.env; apps; likelihood; budget; deadline_s = None }
    in
    let best = E.Request.best solved in
    print_solution best;
    Format.fprintf fmt "@.service levels achieved:@.%a" Cost.Slo_report.pp
      (Cost.Slo_report.of_evaluation best.Candidate.eval);
    (match solved with
     | E.Request.Single outcome ->
       Format.fprintf fmt
         "@.search: %d configuration-solver calls, %d refit rounds, refit \
          %s@."
         outcome.Design_solver.evaluations
         outcome.Design_solver.refit_rounds_run
         (if outcome.Design_solver.improved_by_refit then
            "improved the greedy design"
          else "kept the greedy design")
     | E.Request.Portfolio r ->
       Format.fprintf fmt
         "@.portfolio: winner restart %d of %d run (%d raced off), %d \
          configuration-solver calls total@."
         r.Search.winner r.Search.restarts_run r.Search.raced_off
         r.Search.total_evaluations);
    let obs_status = report_obs obs_flags obs in
    let output_status =
      match output with
      | None -> Ok ()
      | Some path ->
        (match Design.Design_io.write_file path best.Candidate.design with
         | Ok () ->
           Format.fprintf fmt "design written to %s@." path;
           Ok ()
         | Error msg -> Error msg)
    in
    exit_with (Result.bind obs_status (fun () -> output_status))
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Run the automated design tool on an environment and print the \
             chosen data protection design.")
    Term.(ret (const run $ instance_term $ likelihood_term
               $ budget_term ~cache:true ~portfolio:true ()
               $ output_term $ obs_terms))

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let design_term =
    Arg.(required & opt (some string) None
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Design file written by $(b,dstool solve --output).")
  in
  let run (env, workloads) likelihood path =
    match Design.Design_io.read_file env workloads path with
    | Error msg -> `Error (false, msg)
    | Ok design ->
      (match Cost.Evaluate.design design likelihood with
       | Error e ->
         `Error
           (false,
            Format.asprintf "design is infeasible: %a"
              Design.Provision.pp_infeasibility e)
       | Ok eval ->
         Format.fprintf fmt "%a@.@." Cost.Summary.pp eval.Cost.Evaluate.summary;
         Format.fprintf fmt "lint:@.%a@." Design.Lint.pp
           (Design.Lint.check design);
         Format.fprintf fmt "service levels achieved:@.%a@." Cost.Slo_report.pp
           (Cost.Slo_report.of_evaluation eval);
         Format.fprintf fmt "per-scenario recovery:@.";
         List.iter
           (fun ((scen : Failure.Scenario.t), outcomes) ->
              if outcomes <> [] then begin
                Format.fprintf fmt "  %a:@." Failure.Scenario.pp scen;
                List.iter
                  (fun o -> Format.fprintf fmt "    %a@." Recovery.Outcome.pp o)
                  outcomes
              end)
           eval.Cost.Evaluate.penalty.Cost.Penalty.details;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Evaluate a saved design: cost, achieved RTO/RPO per \
             application, and the per-scenario recovery log.")
    Term.(ret (const run $ instance_term $ likelihood_term $ design_term))

(* ------------------------------------------------------------------ *)
(* risk                                                                *)
(* ------------------------------------------------------------------ *)

let risk_cmd =
  let design_term =
    Arg.(value & opt (some string) None
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Saved design to analyze (default: solve first).")
  in
  let years_term =
    Arg.(value & opt int 10_000
         & info [ "years" ] ~docv:"N" ~doc:"Simulated years.")
  in
  (* Rare-event tail engine (Risk.Tail_sim): --sla turns it on and
     certifies; --tilt/--strata shape the importance sampling. Like
     every Exec consumer the engine is deterministic in --domains. *)
  let sla_term =
    Arg.(value & opt (some float) None
         & info [ "sla" ] ~docv:"A"
             ~doc:"Certify the design against an availability SLA (e.g. \
                   $(b,0.99999999999) for eleven nines): run the \
                   variance-reduced rare-event engine over $(b,--years) \
                   simulated years and report pass/fail/inconclusive with \
                   the confidence bound that decided it.")
  in
  let tilt_term =
    Arg.(value & opt float 8.
         & info [ "tilt" ] ~docv:"T"
             ~doc:"Importance-sampling rate tilt: tilted strata inflate \
                   their scenario class's failure rates by T (exact \
                   likelihood-ratio reweighting keeps every estimate \
                   unbiased under the nominal rates). Default 8.")
  in
  let strata_term =
    Arg.(value & opt string "scope"
         & info [ "strata" ] ~docv:"STRATA"
             ~doc:"Stratification of the tail engine: $(b,scope) (one \
                   tilted stratum per failure-scope class — object, \
                   array, site — plus an untilted nominal stratum; \
                   default) or $(b,none) (a single untilted stratum, \
                   plain Monte Carlo with unit weights).")
  in
  let run (env, apps) likelihood budget design years sla tilt strata
      obs_flags =
    let obs = obs_of obs_flags in
    let read path = In_channel.with_open_bin path In_channel.input_all in
    let* design =
      try Ok (Option.map read design)
      with Sys_error msg -> Error (E.Request.Invalid msg)
    in
    let* report =
      E.Request.run_risk ~obs
        { E.Request.solve =
            { E.Request.env; apps; likelihood; budget; deadline_s = None };
          design; years; sla; tilt; strata }
    in
    Format.fprintf fmt "%a@." Risk.Year_sim.pp report.E.Request.year_sim;
    let analytic =
      Cost.Penalty.expected_annual report.E.Request.provision likelihood
    in
    Format.fprintf fmt "analytic expectation: %s@."
      (Units.Money.to_string
         (Units.Money.add analytic.Cost.Penalty.outage_total
            analytic.Cost.Penalty.loss_total));
    Option.iter
      (fun (tail, cert) ->
        Format.fprintf fmt "@.%a@." Risk.Tail_sim.pp tail;
        Format.fprintf fmt "@.%a@." Risk.Tail_sim.pp_certification cert)
      report.E.Request.tail;
    exit_with (report_obs obs_flags obs)
  in
  Cmd.v
    (Cmd.info "risk"
       ~doc:"Monte Carlo distribution of annual penalty cost for a design \
             (tail risk beyond the expected-value objective), plus an \
             importance-sampled rare-event engine that certifies the \
             design against deep availability SLAs ($(b,--sla)).")
    Term.(ret (const run $ instance_term $ likelihood_term
               $ budget_term ~cache:true () $ design_term $ years_term
               $ sla_term $ tilt_term $ strata_term $ obs_terms))

(* ------------------------------------------------------------------ *)
(* ablate                                                              *)
(* ------------------------------------------------------------------ *)

let ablate_cmd =
  let which_conv =
    let parse = function
      | "stages" -> Ok `Stages
      | "config" -> Ok `Config
      | "vault" -> Ok `Vault
      | "scheduling" -> Ok `Scheduling
      | "all" -> Ok `All
      | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown ablation %S (stages|config|vault|scheduling|all)" s))
    in
    Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<ablation>")
  in
  let which_term =
    Arg.(value & pos 0 which_conv `All
         & info [] ~docv:"WHICH" ~doc:"stages, config, vault, scheduling or all.")
  in
  let run budgets which =
    let sections =
      [ (`Stages, "Design-solver stages (peer sites)",
         fun () -> E.Ablation.solver_stages ~budgets ());
        (`Stages, "Refit search shape: breadth x depth (peer sites)",
         fun () -> E.Ablation.search_shape ~budgets ());
        (`Config, "Configuration-solver features (peer sites)",
         fun () -> E.Ablation.config_features ~budgets ());
        (`Vault, "Vault staleness semantics (peer sites)",
         fun () -> E.Ablation.vault_modes ~budgets ());
        (`Scheduling, "Recovery scheduling policies (fixed design)",
         fun () -> E.Ablation.scheduling_policies ~budgets ()) ]
    in
    List.iter
      (fun (tag, title, f) ->
         if which = `All || which = tag then begin
           E.Ablation.pp fmt ~title (f ());
           Format.fprintf fmt "@."
         end)
      sections
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Ablation studies of the tool's own design choices.")
    Term.(const run $ budget_term () $ which_term)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let metaheuristics_term =
    Arg.(value & flag
         & info [ "metaheuristics" ]
             ~doc:"Also run the simulated-annealing and tabu-search \
                   baselines (related-work comparisons, not in the paper).")
  in
  let run (env, workloads) likelihood budget metaheuristics obs_flags =
    let obs = obs_of obs_flags in
    let entries =
      E.Compare.run ~budgets:budget ~metaheuristics ~obs env workloads
        likelihood
    in
    E.Report.figure3 fmt entries;
    exit_with (report_obs obs_flags obs)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare the design tool with the human and random heuristics \
             (Figure 3).")
    Term.(ret (const run $ instance_term $ likelihood_term
               $ budget_term ~cache:true ~portfolio:true ()
               $ metaheuristics_term $ obs_terms))

(* ------------------------------------------------------------------ *)
(* sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let samples_term =
    Arg.(value & opt int 20_000
         & info [ "samples" ] ~docv:"N" ~doc:"Number of random designs.")
  in
  let bins_term =
    Arg.(value & opt int 14
         & info [ "bins" ] ~docv:"B" ~doc:"Histogram buckets.")
  in
  let run (env, workloads) likelihood seed samples bins =
    let stats = E.Space_sampler.sample ~seed ~samples env workloads likelihood in
    E.Report.figure2 fmt stats ~bins ~marks:[]
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Sample the solution space and print the cost distribution \
             (Figure 2).")
    Term.(const run $ instance_term $ likelihood_term $ seed_term
          $ samples_term $ bins_term)

(* ------------------------------------------------------------------ *)
(* scale                                                               *)
(* ------------------------------------------------------------------ *)

let scale_cmd =
  let rounds_term =
    Arg.(value & opt (list int) [ 1; 2; 3; 4; 5 ]
         & info [ "rounds" ] ~docv:"R1,R2,..."
             ~doc:"Scaling rounds (4 applications each).")
  in
  let fleet_pods_term =
    Arg.(value & opt (some (list int)) None
         & info [ "fleet-pods" ] ~docv:"P1,P2,..."
             ~doc:"Switch the sweep to the sharded fleet coordinator: one \
                   cold fleet solve per pod count (each pod is 4 fully \
                   connected sites holding $(b,--apps-per-pod) \
                   applications) instead of the Figure 4 rounds. \
                   $(b,--fleet-pods 128) reaches 1,024 applications.")
  in
  let apps_per_pod_term =
    Arg.(value & opt int 8
         & info [ "apps-per-pod" ] ~docv:"N"
             ~doc:"Applications per pod on the fleet axis (default 8; \
                   ignored without $(b,--fleet-pods)).")
  in
  let run budget rounds fleet_pods apps_per_pod =
    match fleet_pods with
    | Some pods ->
      let points =
        E.Scalability.run_fleet ~budgets:budget ~apps_per_pod ~pods ()
      in
      E.Report.fleet_scale fmt points
    | None ->
      let points = E.Scalability.run ~budgets:budget ~rounds () in
      E.Report.figure4 fmt points
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Scalability experiment: Figure 4 rounds on four fully \
             connected sites, or (with $(b,--fleet-pods)) the sharded \
             fleet coordinator past 1,000 applications.")
    Term.(const run $ budget_term () $ rounds_term $ fleet_pods_term
          $ apps_per_pod_term)

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_cmd =
  let pods_term =
    Arg.(value & opt int 16
         & info [ "pods" ] ~docv:"N"
             ~doc:"Four-site pods in the fleet environment (fleet size = \
                   pods x $(b,--apps-per-pod)).")
  in
  let apps_per_pod_term =
    Arg.(value & opt int 8
         & info [ "apps-per-pod" ] ~docv:"N"
             ~doc:"Applications per pod (default 8).")
  in
  let shards_term =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Shard count (default: one shard per failure domain, \
                   i.e. one per pod). More shards than domains makes \
                   shards contend for sites and exercises the reconcile \
                   pass.")
  in
  let drift_term =
    Arg.(value & opt (some int) None
         & info [ "drift" ] ~docv:"APP_ID"
             ~doc:"After the cold solve, scale application APP_ID's \
                   penalty and update rates by $(b,--drift-factor) and \
                   warm re-solve the fleet: only the dirty app's shard \
                   re-enters the solver, every other shard is reused \
                   byte-for-byte.")
  in
  let drift_factor_term =
    Arg.(value & opt float 2.
         & info [ "drift-factor" ] ~docv:"X"
             ~doc:"Multiplier applied by $(b,--drift) (default 2).")
  in
  let shard_mode (r : Fleet.shard_result) =
    if r.Fleet.reused then "reused"
    else
      match r.Fleet.outcome with
      | Some _ -> "solved"
      | None -> "infeasible"
  in
  let print_fleet label started (result : Fleet.t) =
    let seconds = Obs.Metrics.now_s () -. started in
    let napps = List.length result.Fleet.apps in
    Format.fprintf fmt
      "%s: cost %s, %d evaluations, %d conflicts, %d reconcile passes, %d \
       unplaced, %.2fs (%.1f apps/s)@."
      label
      (Units.Money.to_string result.Fleet.cost)
      result.Fleet.evaluations result.Fleet.conflicts
      result.Fleet.reconcile_passes
      (List.length result.Fleet.unplaced)
      seconds
      (if seconds > 0. then float_of_int napps /. seconds else 0.)
  in
  let print_shards (result : Fleet.t) =
    Format.fprintf fmt "%-6s %6s %-20s %12s %8s %s@." "shard" "apps" "sites"
      "cost" "evals" "mode";
    List.iter
      (fun (r : Fleet.shard_result) ->
         let sites =
           String.concat ","
             (List.map (Printf.sprintf "P%d") r.Fleet.shard.Fleet.sites)
         in
         let cost, evals =
           match r.Fleet.outcome with
           | Some o ->
             (Units.Money.to_string
                (Cost.Summary.total
                   (Candidate.summary o.Design_solver.best)),
              string_of_int o.Design_solver.evaluations)
           | None -> ("-", "-")
         in
         Format.fprintf fmt "%-6d %6d %-20s %12s %8s %s@."
           r.Fleet.shard.Fleet.index
           (List.length r.Fleet.shard.Fleet.apps)
           sites cost evals (shard_mode r))
      result.Fleet.shard_results
  in
  let run pods apps_per_pod shards drift drift_factor budget likelihood
      obs_flags =
    let obs = obs_of obs_flags in
    let started = Obs.Metrics.now_s () in
    let* cold =
      E.Request.run_fleet ~obs
        { E.Request.pods; apps_per_pod; shards; likelihood; budget }
    in
    let result = cold.E.Request.result in
    Format.fprintf fmt "fleet: %d applications over %d pods (%d sites)@."
      (List.length result.Fleet.apps) pods
      (List.length (Resources.Env.site_ids cold.E.Request.sites));
    print_fleet "cold solve" started result;
    if List.length result.Fleet.shard_results <= 32 then print_shards result;
    let drift_status =
      match drift with
      | None -> Ok ()
      | Some app_id ->
        let started = Obs.Metrics.now_s () in
        (match
           E.Request.run_resolve ~obs cold
             { E.Request.drift = [ (app_id, drift_factor) ]; dirty = None;
               catalog_revision = None }
         with
         | Error e -> Error (E.Request.error_message e)
         | Ok warm ->
           let warm = warm.E.Request.result in
           Format.fprintf fmt
             "@.drifted app %d by x%g; %d of %d shards reused byte-for-byte@."
             app_id drift_factor
             (List.length
                (List.filter (fun r -> r.Fleet.reused)
                   warm.Fleet.shard_results))
             (List.length warm.Fleet.shard_results);
           print_fleet "warm re-solve" started warm;
           Format.fprintf fmt
             "warm used %d evaluations vs %d cold (%.1fx fewer)@."
             warm.Fleet.evaluations result.Fleet.evaluations
             (if warm.Fleet.evaluations > 0 then
                float_of_int result.Fleet.evaluations
                /. float_of_int warm.Fleet.evaluations
              else Float.infinity);
           Ok ())
    in
    let obs_status = report_obs obs_flags obs in
    exit_with (Result.bind drift_status (fun () -> obs_status))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Solve a pod-structured fleet with the sharded coordinator: \
             per-failure-domain shard solves in parallel, index-order \
             merge, bounded reconcile. With $(b,--drift), demonstrate the \
             warm incremental re-solve.")
    Term.(ret (const run $ pods_term $ apps_per_pod_term $ shards_term
               $ drift_term $ drift_factor_term $ budget_term ()
               $ likelihood_term $ obs_terms))

(* ------------------------------------------------------------------ *)
(* sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let sensitivity_cmd =
  let axis_conv =
    let parse = function
      | "object" -> Ok E.Sensitivity.Object_failure
      | "array" -> Ok E.Sensitivity.Array_failure
      | "site" -> Ok E.Sensitivity.Site_failure
      | s ->
        Error (`Msg (Printf.sprintf "unknown axis %S (object|array|site)" s))
    in
    Arg.conv
      (parse, fun ppf a -> Format.pp_print_string ppf (E.Sensitivity.axis_name a))
  in
  let axis_term =
    Arg.(required & pos 0 (some axis_conv) None
         & info [] ~docv:"AXIS" ~doc:"Swept axis: object, array or site.")
  in
  let apps_count_term =
    Arg.(value & opt int 16 & info [ "apps" ] ~docv:"N" ~doc:"Applications.")
  in
  let run budget axis apps =
    let points = E.Sensitivity.run ~budgets:budget ~apps axis in
    E.Report.sensitivity fmt axis points
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Failure-likelihood sensitivity sweeps (Figures 5-7).")
    Term.(const run $ budget_term () $ axis_term $ apps_count_term)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)
(* ------------------------------------------------------------------ *)

let diff_cmd =
  let file_term idx name =
    Arg.(required & pos idx (some string) None
         & info [] ~docv:name ~doc:(name ^ " design file."))
  in
  let run (env, workloads) before_path after_path =
    match
      Design.Design_io.read_file env workloads before_path,
      Design.Design_io.read_file env workloads after_path
    with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok before, Ok after ->
      (match Design.Design_io.diff before after with
       | [] -> Format.fprintf fmt "designs are identical@."; `Ok ()
       | changes ->
         List.iter
           (fun c -> Format.fprintf fmt "%a@." Design.Design_io.pp_change c)
           changes;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two saved designs application by application.")
    Term.(ret (const run $ instance_term $ file_term 0 "BEFORE"
               $ file_term 1 "AFTER"))

(* ------------------------------------------------------------------ *)
(* frontier                                                            *)
(* ------------------------------------------------------------------ *)

let frontier_cmd =
  let multipliers_term =
    Arg.(value & opt (list float) E.Frontier.default_multipliers
         & info [ "multipliers" ] ~docv:"M1,M2,..."
             ~doc:"Risk-aversion multipliers applied to the penalty rates.")
  in
  let run (env, workloads) likelihood budget multipliers =
    let points =
      E.Frontier.run ~budgets:budget ~multipliers env workloads likelihood
    in
    Format.fprintf fmt "Outlay / penalty trade-off frontier:@.";
    E.Frontier.pp fmt points
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Sweep a risk-aversion multiplier and trace the outlay vs \
             expected-penalty trade-off frontier.")
    Term.(const run $ instance_term $ likelihood_term $ budget_term ()
          $ multipliers_term)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* The bench harness's parallel-refit shape (bench/main.ml), run under
   a fully instrumented capability (metrics + trace) and rendered as a
   ds-prof/1 report: refit dominates and polish is off, so the report
   attributes exactly the probe-map behaviour — worker busy/idle, memo
   lock waits, spawn/join overhead, Gc deltas. Other runs are profiled
   in place with --profile on solve, compare and risk. *)
let profile_cmd =
  let out_term =
    Arg.(value & opt string "profile.json"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the ds-prof/1 JSON report.")
  in
  let trace_out_term =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Also write the Chrome trace-event JSON (one lane per \
                   worker domain) to FILE and print the span tree.")
  in
  let run (env, workloads) likelihood budget out trace_out =
    let flags = (trace_out, false, None, Some out) in
    let obs = obs_of flags in
    let params =
      { budget.E.Budgets.solver with
        Design_solver.breadth = 4;
        depth = 4;
        refit_rounds = 12;
        patience = 13;
        polish = None }
    in
    match Design_solver.solve ~params ~obs env workloads likelihood with
    | None -> `Error (false, E.Request.error_message E.Request.No_design)
    | Some _ -> exit_with (report_obs flags obs)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the bench harness's refit-heavy solve fully instrumented \
             and write a structured profiling report: per-stage \
             wall/allocation breakdown, domain-pool utilization (worker \
             busy/idle, spawn/join), lock-wait totals and histogram \
             percentiles, plus an optional per-domain-lane Chrome trace.")
    Term.(ret (const run $ instance_term $ likelihood_term $ budget_term ()
               $ out_term $ trace_out_term))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let float_opt name default doc =
    Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)
  in
  let run seed iops writes skew hours scale =
    let profile =
      { Trace.Synth.default with
        Trace.Synth.mean_iops = iops;
        write_fraction = writes;
        zipf_skew = skew;
        duration = Units.Time.hours hours }
    in
    match Trace.Synth.validate profile with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      let trace = Trace.Synth.generate (Prng.Rng.of_int seed) profile in
      let c = Trace.Characterize.analyze trace in
      Format.fprintf fmt "%a@." Trace.Trace.pp trace;
      Format.fprintf fmt "%a@." Trace.Characterize.pp c;
      let app =
        Trace.Characterize.to_app ~id:1 ~name:"traced" ~class_tag:"T"
          ~outage_per_hour:(Units.Money.k 100.)
          ~loss_per_hour:(Units.Money.k 100.) ~scale c
      in
      Format.fprintf fmt "as a Table 1 row (at $100K/hr penalties):@.%a@."
        Workload.App.pp_row app;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Generate a synthetic cello-like I/O trace and derive the \
             workload characteristics the design tool consumes.")
    Term.(ret (const run $ seed_term
               $ float_opt "iops" 120. "Mean request rate (1/s)."
               $ float_opt "writes" 0.4 "Write fraction in [0,1]."
               $ float_opt "skew" 0.8 "Zipf popularity skew."
               $ float_opt "hours" 2. "Trace duration in hours."
               $ float_opt "scale" 1. "Scale factor for the derived app."))

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let port_term =
  Arg.(value & opt int Server.Daemon.default_config.Server.Daemon.port
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port (default 7411; 0 picks an ephemeral port).")

let host_term =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"Bind / connect address.")

let serve_cmd =
  let concurrency_term =
    Arg.(value & opt int 2
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Worker threads serving heavy requests (solve, \
                   resolve, fleet, risk) concurrently.")
  in
  let queue_term =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission-queue depth: heavy requests beyond N \
                   waiting are rejected with the $(i,overloaded) error \
                   instead of queuing unboundedly.")
  in
  let cache_size_term =
    Arg.(value & opt int 4096
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Resident configuration-cache capacity, shared across \
                   requests (resizable at runtime via the \
                   $(i,cache_resize) method).")
  in
  let run host port concurrency queue budget_evals domains cache_size =
    let config =
      { Server.Daemon.host; port; concurrency; queue_depth = queue;
        budget_evals; cache_capacity = cache_size; domains }
    in
    match Server.Daemon.create config with
    | exception Unix.Unix_error (e, _, _) ->
      `Error
        (false,
         Printf.sprintf "cannot listen on %s:%d: %s" host port
           (Unix.error_message e))
    | exception Invalid_argument msg -> `Error (false, msg)
    | daemon ->
      (* Flushed before serving so scripts (CI smoke, tests) can wait
         for the line and read the ephemeral port out of it. *)
      Format.fprintf fmt "dstool server listening on %s:%d@." host
        (Server.Daemon.port daemon);
      Server.Daemon.run daemon;
      Format.fprintf fmt "dstool server drained, exiting@.";
      `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the design tool as a long-running JSON-RPC service: a \
             resident solver pool and configuration cache serve solve / \
             resolve / risk / fleet / metrics requests over \
             newline-delimited JSON-RPC 2.0 on TCP until a shutdown \
             request drains it.")
    Term.(ret (const run $ host_term $ port_term $ concurrency_term
               $ queue_term $ budget_evals_term $ domains_term
               $ cache_size_term))

let client_cmd =
  let method_term =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"METHOD"
             ~doc:"RPC method: solve, resolve, fleet, risk, metrics, \
                   health, cache_resize or shutdown.")
  in
  let params_term =
    Arg.(value & pos 1 string "{}"
         & info [] ~docv:"PARAMS"
             ~doc:"Request parameters as a JSON object (default {}).")
  in
  let run host port method_ params =
    match Server.Json.of_string params with
    | Error msg -> `Error (false, "PARAMS: " ^ msg)
    | Ok params ->
      (match Server.Client.connect ~host ~port () with
       | exception Unix.Unix_error (e, _, _) ->
         `Error
           (false,
            Printf.sprintf "cannot connect to %s:%d: %s" host port
              (Unix.error_message e))
       | client ->
         let result =
           Server.Client.call
             ~on_note:(fun ~method_ params ->
               Format.fprintf fmt "note %s: %s@." method_
                 (Server.Json.to_string params))
             client ~method_ params
         in
         Server.Client.close client;
         (match result with
          | Ok v ->
            Format.fprintf fmt "%s@." (Server.Json.to_string v);
            `Ok ()
          | Error msg -> `Error (false, msg)))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one JSON-RPC request to a running $(b,dstool serve) \
             and print the result (progress notifications stream to \
             stdout as they arrive).")
    Term.(ret (const run $ host_term $ port_term $ method_term
               $ params_term))

(* ------------------------------------------------------------------ *)

let main =
  let doc = "automated design of dependable storage solutions (DSN'06)" in
  Cmd.group
    (Cmd.info "dstool" ~version:"1.0.0" ~doc)
    [ catalogs_cmd; solve_cmd; audit_cmd; compare_cmd; sample_cmd; scale_cmd;
      fleet_cmd; sensitivity_cmd; ablate_cmd; risk_cmd; frontier_cmd;
      profile_cmd; trace_cmd; diff_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
