(* Benchmark & reproduction harness.

   Two halves:
   1. Artifact regeneration — re-runs every experiment from the paper's
      evaluation section (Tables 1-4, Figures 2-7) and prints each in a
      shape comparable to the original (see EXPERIMENTS.md for the
      paper-vs-measured record).
   2. Bechamel micro-benchmarks — one Test per paper artifact, timing the
      computational kernel that regenerating it leans on.

   Environment knobs:
     DS_BENCH_BUDGET=quick|default   iteration budgets (default: default)
     DS_BENCH_SKIP_SLOW=1            skip Figure 4 and Figures 5-7 sweeps
     DS_BENCH_SAMPLES=<n>            override Figure 2 sample count
     DS_BENCH_JSON=<path>            where to write the machine-readable
                                     results (default: BENCH_results.json)

   Every section is timed through Obs' monotonic clock; per-section wall
   times plus the instrumented solver/simulation counters land in
   BENCH_results.json — the repo's perf trajectory record. *)

open Dependable_storage
module E = Experiments
module Money = Units.Money
module Summary = Cost.Summary
module Likelihood = Failure.Likelihood
module Design_solver = Solver.Design_solver

let fmt = Format.std_formatter

let section title = Format.fprintf fmt "@.=== %s ===@.@." title

let budgets =
  match Sys.getenv_opt "DS_BENCH_BUDGET" with
  | Some "quick" -> E.Budgets.quick
  | _ -> E.Budgets.default

(* Figures 4-7 cover many solver runs; a trimmed budget keeps the full
   harness in minutes while preserving the trends. *)
let sweep_budgets =
  { budgets with
    E.Budgets.solver =
      { budgets.E.Budgets.solver with
        Design_solver.refit_rounds = 6; depth = 4 };
    human_attempts = 12;
    random_attempts = 60 }

let skip_slow = Sys.getenv_opt "DS_BENCH_SKIP_SLOW" = Some "1"

let samples =
  match Option.map int_of_string_opt (Sys.getenv_opt "DS_BENCH_SAMPLES") with
  | Some (Some n) when n > 0 -> n
  | _ -> budgets.E.Budgets.space_samples

(* One Obs capability for the whole harness: sections time through its
   registry's monotonic clock and the instrumented stack (the figure-3
   solver + heuristics run) accumulates counters into the same registry. *)
let obs = Obs.create ~metrics:true ()

let sections : (string * float) list ref = ref []

(* Per-section allocation deltas (Gc.quick_stat across the section, main
   domain only — worker-domain allocation lands in the exec.* metrics),
   keyed like [sections] and joined back in [write_results]. *)
let section_gc : (string * (float * float * int * int)) list ref = ref []

let timed label f =
  let gc0 = Gc.quick_stat () in
  let t0 = Obs.Metrics.now_s () in
  let r = f () in
  let dt = Obs.Metrics.now_s () -. t0 in
  let gc1 = Gc.quick_stat () in
  sections := (label, dt) :: !sections;
  section_gc :=
    ( label,
      ( gc1.Gc.minor_words -. gc0.Gc.minor_words,
        gc1.Gc.major_words -. gc0.Gc.major_words,
        gc1.Gc.minor_collections - gc0.Gc.minor_collections,
        gc1.Gc.major_collections - gc0.Gc.major_collections ) )
    :: !section_gc;
  (match Obs.metrics obs with
   | Some reg -> Obs.Metrics.observe (Obs.Metrics.histogram reg "bench.section_s") dt
   | None -> ());
  Format.fprintf fmt "@.[%s took %.1fs]@." label dt;
  r

(* The instrument-overhead section's summary object, once it has run. *)
let overhead_json : string option ref = ref None

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write_results ~total () =
  let path =
    Option.value ~default:"BENCH_results.json" (Sys.getenv_opt "DS_BENCH_JSON")
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"schema\":\"ds-bench/1\",";
  Buffer.add_string buf
    (Printf.sprintf "\"budget\":\"%s\",\"samples\":%d,\"skip_slow\":%b,"
       (match Sys.getenv_opt "DS_BENCH_BUDGET" with
        | Some b -> json_escape b
        | None -> "default")
       samples skip_slow);
  (* Run metadata, so a results file is interpretable on its own: the
     parallel head-to-heads only mean something next to the core count,
     and DS_BENCH_ONLY_* runs carry a section subset. *)
  let only_knob =
    List.find_opt
      (fun k -> Sys.getenv_opt k = Some "1")
      [ "DS_BENCH_ONLY_CACHE"; "DS_BENCH_ONLY_PARALLEL"; "DS_BENCH_ONLY_EXEC";
        "DS_BENCH_ONLY_PORTFOLIO"; "DS_BENCH_ONLY_TAIL";
        "DS_BENCH_ONLY_FLEET"; "DS_BENCH_ONLY_SERVE" ]
  in
  Buffer.add_string buf
    (Printf.sprintf "\"nproc\":%d,\"ocaml\":\"%s\",\"only\":%s,"
       (Domain.recommended_domain_count ())
       (json_escape Sys.ocaml_version)
       (match only_knob with
        | Some k -> Printf.sprintf "\"%s\"" (json_escape k)
        | None -> "null"));
  Buffer.add_string buf "\"sections\":[";
  List.iteri
    (fun i (label, dt) ->
       if i > 0 then Buffer.add_char buf ',';
       let minor, major, minor_col, major_col =
         match List.assoc_opt label !section_gc with
         | Some gc -> gc
         | None -> (0., 0., 0, 0)
       in
       Buffer.add_string buf
         (Printf.sprintf
            "{\"name\":\"%s\",\"seconds\":%.3f,\"minor_words\":%.0f,\
             \"major_words\":%.0f,\"minor_collections\":%d,\
             \"major_collections\":%d}"
            (json_escape label) dt minor major minor_col major_col))
    (List.rev !sections);
  Buffer.add_string buf "],";
  (match Obs.metrics obs with
   | Some reg ->
     Buffer.add_string buf
       (Printf.sprintf "\"metrics\":%s," (Obs.Metrics.to_json reg));
     (* The same registry folded into a ds-prof/1 report (stage list is
        empty — the harness traces nothing — but the pool-accounting and
        lock-wait sections carry the parallel head-to-heads' story). *)
     Buffer.add_string buf
       (Printf.sprintf "\"profile\":%s,"
          (Obs.Prof.to_json (Obs.Prof.capture ~label:"bench" ~registry:reg ())))
   | None -> ());
  (match !overhead_json with
   | Some json ->
     Buffer.add_string buf (Printf.sprintf "\"instrument_overhead\":%s," json)
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "\"total_seconds\":%.3f}" total);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Buffer.contents buf));
  Format.fprintf fmt "results written to %s@." path

(* ------------------------------------------------------------------ *)
(* Artifact regeneration                                               *)
(* ------------------------------------------------------------------ *)

let catalogs () =
  section "Catalogs (Tables 1-3)";
  E.Report.table1 fmt ();
  Format.fprintf fmt "@.";
  E.Report.table2 fmt ();
  Format.fprintf fmt "@.";
  E.Report.table3 fmt ()

let table4_and_figure3 () =
  section "Table 4 + Figure 3 (peer-sites case study)";
  let entries =
    timed "figure 3" (fun () ->
        E.Compare.run ~budgets ~obs (E.Envs.peer_sites ()) (E.Envs.peer_apps ())
          Likelihood.default)
  in
  (match timed "table 4" (fun () -> E.Case_study.run ~budgets ()) with
   | Some candidate ->
     E.Report.table4 fmt (E.Case_study.rows_of_candidate candidate);
     Format.fprintf fmt "@.design tool solution: %a@." Solver.Candidate.pp
       candidate
   | None -> Format.fprintf fmt "table 4: no feasible design@.");
  Format.fprintf fmt "@.";
  E.Report.figure3 fmt entries;
  entries

let figure2 entries =
  section "Figure 2 (solution-space distribution, peer sites)";
  let stats =
    timed
      (Printf.sprintf "figure 2 (%d samples)" samples)
      (fun () ->
         E.Space_sampler.sample ~seed:7 ~samples (E.Envs.peer_sites ())
           (E.Envs.peer_apps ()) Likelihood.default)
  in
  let marks =
    List.filter_map
      (fun (e : E.Compare.entry) ->
         Option.map
           (fun s -> (e.E.Compare.label, Money.to_dollars (Summary.total s)))
           e.E.Compare.summary)
      entries
  in
  E.Report.figure2 fmt stats ~bins:14 ~marks

let figure4 () =
  section "Figure 4 (scalability, four fully connected sites)";
  if skip_slow then Format.fprintf fmt "skipped (DS_BENCH_SKIP_SLOW=1)@."
  else
    let points =
      timed "figure 4" (fun () ->
          E.Scalability.run ~budgets:sweep_budgets ~rounds:[ 1; 2; 3; 4; 5; 6 ] ())
    in
    E.Report.figure4 fmt points

let sensitivity axis label =
  section label;
  if skip_slow then Format.fprintf fmt "skipped (DS_BENCH_SKIP_SLOW=1)@."
  else
    let points =
      timed label (fun () -> E.Sensitivity.run ~budgets:sweep_budgets axis)
    in
    E.Report.sensitivity fmt axis points

let frontier () =
  section "Frontier (outlay vs penalty trade-off; not in the paper)";
  if skip_slow then Format.fprintf fmt "skipped (DS_BENCH_SKIP_SLOW=1)@."
  else begin
    let points = timed "frontier" (fun () -> E.Frontier.run_peer ~budgets ()) in
    E.Frontier.pp fmt points
  end

let ablations () =
  section "Ablations (tool design choices; not in the paper)";
  let run title f = E.Ablation.pp fmt ~title (f ()); Format.fprintf fmt "@." in
  run "Design-solver stages (peer sites)" (fun () ->
      E.Ablation.solver_stages ~budgets ());
  run "Refit search shape: breadth x depth (peer sites)" (fun () ->
      E.Ablation.search_shape ~budgets ());
  run "Configuration-solver features (peer sites)" (fun () ->
      E.Ablation.config_features ~budgets ());
  run "Vault staleness semantics (fixed all-tape design)" (fun () ->
      E.Ablation.vault_modes ~budgets ());
  run "Recovery scheduling policies (fixed all-tape design)" (fun () ->
      E.Ablation.scheduling_policies ~budgets ())

(* ------------------------------------------------------------------ *)
(* Configuration-solver memo cache                                     *)
(* ------------------------------------------------------------------ *)

(* Head-to-head: the same refit-heavy search with the memo cache off and
   on. The refit stage revisits near-identical designs, which is exactly
   where memoization pays; patience is raised past the round budget so
   neither run stops early and both perform the same amount of search.
   CI's bench-smoke job gates on "solver cached" beating "solver
   uncached" in BENCH_results.json. *)
let cache_speedup () =
  section "Config-solver memo cache (cached vs uncached refit search)";
  (* Deliberately not trimmed under DS_BENCH_BUDGET=quick: fewer rounds
     shrink the hit-heavy tail of the search and understate the cache. *)
  let refit_params =
    { budgets.E.Budgets.solver with
      Design_solver.breadth = 3; depth = 4; refit_rounds = 12;
      patience = 13; polish = None }
  in
  let run label config_cache_size =
    timed label (fun () ->
        Design_solver.solve ~obs
          ~params:{ refit_params with Design_solver.config_cache_size }
          (E.Envs.peer_sites ()) (E.Envs.peer_apps ()) Likelihood.default)
  in
  let uncached = run "solver uncached" 0 in
  let cached = run "solver cached" 8192 in
  (match uncached, cached with
   | Some u, Some c ->
     let bytes o =
       Design.Design_io.to_string o.Design_solver.best.Solver.Candidate.design
     in
     if bytes u <> bytes c
        || u.Design_solver.evaluations <> c.Design_solver.evaluations
     then begin
       prerr_endline
         "FATAL: memo cache changed the solver result (design or \
          evaluation count differs)";
       exit 1
     end;
     let seconds label = List.assoc label !sections in
     Format.fprintf fmt
       "cache transparency: OK (byte-identical designs, %d evaluations \
        each)@.speedup: %.2fx (uncached %.1fs, cached %.1fs)@."
       u.Design_solver.evaluations
       (seconds "solver uncached" /. seconds "solver cached")
       (seconds "solver uncached") (seconds "solver cached")
   | _ ->
     prerr_endline "FATAL: memo-cache benchmark found no feasible design";
     exit 1)

(* ------------------------------------------------------------------ *)
(* Parallel refit                                                      *)
(* ------------------------------------------------------------------ *)

(* Head-to-head: the same refit-heavy search run sequentially and on 4
   domains. The parallel refit is deterministic by construction (probe
   RNG streams pre-split in probe order, probe results merged in probe
   order), so this section first proves the byte-identity contract and
   then reports the speedup. A breadth of 4 gives every domain a probe
   per round. CI's bench-smoke job gates on "refit parallel" not being
   slower than "refit sequential"; the speedup itself depends on the
   host's core count (a single-core runner can at best break even). *)
let parallel_refit_speedup () =
  section "Parallel refit (sequential vs 4 domains)";
  let refit_params =
    { budgets.E.Budgets.solver with
      Design_solver.breadth = 4; depth = 4; refit_rounds = 12;
      patience = 13; polish = None }
  in
  let run label domains =
    timed label (fun () ->
        Design_solver.solve ~obs
          ~params:{ refit_params with Design_solver.domains }
          (E.Envs.peer_sites ()) (E.Envs.peer_apps ()) Likelihood.default)
  in
  let sequential = run "refit sequential" 1 in
  let parallel = run "refit parallel" 4 in
  (match sequential, parallel with
   | Some s, Some p ->
     let bytes o =
       Design.Design_io.to_string o.Design_solver.best.Solver.Candidate.design
     in
     if bytes s <> bytes p
        || s.Design_solver.evaluations <> p.Design_solver.evaluations
     then begin
       prerr_endline
         "FATAL: parallel refit changed the solver result (design or \
          evaluation count differs between 1 and 4 domains)";
       exit 1
     end;
     let seconds label = List.assoc label !sections in
     Format.fprintf fmt
       "domain transparency: OK (byte-identical designs, %d evaluations \
        each)@.speedup: %.2fx on %d cores (sequential %.1fs, 4 domains \
        %.1fs)@."
       s.Design_solver.evaluations
       (seconds "refit sequential" /. seconds "refit parallel")
       (Domain.recommended_domain_count ())
       (seconds "refit sequential") (seconds "refit parallel")
   | _ ->
     prerr_endline "FATAL: parallel-refit benchmark found no feasible design";
     exit 1)

(* ------------------------------------------------------------------ *)
(* Exec pool: Monte Carlo years and experiment sweeps                  *)
(* ------------------------------------------------------------------ *)

(* A deterministic feasible design to benchmark kernels on (also the
   bechamel fixture below). *)
let kernel_fixture () =
  let env = E.Envs.peer_sites () in
  let apps = E.Envs.peer_apps () in
  let rec build seed =
    let rng = Prng.Rng.of_int seed in
    match Heuristics.Random_search.sample_design rng env apps with
    | Some design ->
      (match Design.Provision.minimum design with
       | Ok prov -> (design, prov)
       | Error _ -> build (seed + 1))
    | None -> build (seed + 1)
  in
  build 99

(* Head-to-head: the same Monte Carlo risk simulation run sequentially
   and on a 4-domain Exec pool. Year_sim's nominal run pre-splits one RNG
   stream per fixed-size chunk of years in chunk order, so the pool width
   is pure scheduling — the section proves the identity (the full
   per-year samples, not just the aggregates) and then reports the
   speedup. CI's
   bench-smoke job gates on "year_sim parallel" not being slower than
   "year_sim sequential". *)
let year_sim_speedup () =
  section "Exec pool: Monte Carlo years (sequential vs 4 domains)";
  let _, prov = kernel_fixture () in
  let likelihood = Likelihood.default in
  let years = 400_000 in
  let run label domains =
    timed label (fun () ->
        Risk.Year_sim.simulate ~years ~obs ~pool:(Exec.create ~domains ())
          (Prng.Rng.of_int 42) prov likelihood)
  in
  let sequential = run "year_sim sequential" 1 in
  let parallel = run "year_sim parallel" 4 in
  if sequential.Risk.Year_sim.samples <> parallel.Risk.Year_sim.samples then begin
    prerr_endline
      "FATAL: Exec pool changed the Monte Carlo sample (yearly results \
       differ between 1 and 4 domains)";
    exit 1
  end;
  let seconds label = List.assoc label !sections in
  Format.fprintf fmt
    "domain transparency: OK (identical %d-year samples)@.speedup: %.2fx \
     on %d cores (sequential %.1fs, 4 domains %.1fs)@."
    years
    (seconds "year_sim sequential" /. seconds "year_sim parallel")
    (Domain.recommended_domain_count ())
    (seconds "year_sim sequential") (seconds "year_sim parallel")

(* Head-to-head: the rare-event tail engine run sequentially and on a
   4-domain Exec pool. Tail_sim enumerates (stratum, chunk) tasks
   stratum-major with one pre-split RNG stream per task, so the pool
   width is pure scheduling — the section compares the estimates, CIs,
   ESS and certification verdict fatally (any divergence means the
   determinism contract broke, not just noise) before reporting the
   speedup. CI's bench-smoke job gates on "risk tail parallel" not
   being slower than "risk tail sequential". *)
let tail_speedup () =
  section "Rare-event tail engine (sequential vs 4 domains)";
  let _, prov = kernel_fixture () in
  let likelihood = Likelihood.default in
  let years = 200_000 in
  let run label domains =
    timed label (fun () ->
        Risk.Tail_sim.simulate ~years ~obs ~pool:(Exec.create ~domains ())
          (Prng.Rng.of_int 42) prov likelihood)
  in
  let sequential = run "risk tail sequential" 1 in
  let parallel = run "risk tail parallel" 4 in
  let fingerprint (t : Risk.Tail_sim.t) =
    let e (est : Risk.Tail_sim.estimate) =
      (est.Risk.Tail_sim.value, est.Risk.Tail_sim.lower, est.Risk.Tail_sim.upper)
    in
    ( e t.Risk.Tail_sim.mean_total,
      e t.Risk.Tail_sim.mean_downtime,
      e t.Risk.Tail_sim.unavailability,
      t.Risk.Tail_sim.ess,
      (Risk.Tail_sim.certify t ~availability:0.99999999999)
        .Risk.Tail_sim.verdict )
  in
  if fingerprint sequential <> fingerprint parallel then begin
    prerr_endline
      "FATAL: Exec pool changed the tail estimates (estimate, CI, ESS or \
       verdict differs between 1 and 4 domains)";
    exit 1
  end;
  let seconds label = List.assoc label !sections in
  Format.fprintf fmt
    "domain transparency: OK (identical estimates, CIs, ESS %.1f and \
     verdict over %d years)@.speedup: %.2fx on %d cores (sequential %.1fs, \
     4 domains %.1fs)@."
    sequential.Risk.Tail_sim.ess years
    (seconds "risk tail sequential" /. seconds "risk tail parallel")
    (Domain.recommended_domain_count ())
    (seconds "risk tail sequential") (seconds "risk tail parallel")

(* Head-to-head: the same sensitivity sweep with its points scheduled
   sequentially and on a 4-domain Exec pool (each point's solver runs
   single-domain either way; the sweep level is where the parallelism
   lives). Points are compared fatally before reporting the speedup.
   CI's bench-smoke job gates on "sweep parallel" not being slower than
   "sweep sequential". *)
let sweep_speedup () =
  section "Exec pool: sensitivity sweep (sequential vs 4 domains)";
  let sweep_rates = [ 2.; 1.; 0.5; 0.25 ] in
  let trimmed =
    { budgets with
      E.Budgets.solver =
        { budgets.E.Budgets.solver with
          Design_solver.refit_rounds = 2; depth = 2; breadth = 2;
          stage1_restarts = 2 } }
  in
  let run label domains =
    timed label (fun () ->
        E.Sensitivity.run
          ~budgets:(E.Budgets.with_domains trimmed domains)
          ~rates:sweep_rates ~apps:4 E.Sensitivity.Object_failure)
  in
  let sequential = run "sweep sequential" 1 in
  let parallel = run "sweep parallel" 4 in
  let totals points =
    List.map
      (fun (p : E.Sensitivity.point) ->
         (p.E.Sensitivity.rate, Option.map Summary.total p.E.Sensitivity.summary))
      points
  in
  if totals sequential <> totals parallel then begin
    prerr_endline
      "FATAL: Exec pool changed the sensitivity sweep (points differ \
       between 1 and 4 domains)";
    exit 1
  end;
  let seconds label = List.assoc label !sections in
  Format.fprintf fmt
    "domain transparency: OK (identical %d-point sweeps)@.speedup: %.2fx \
     on %d cores (sequential %.1fs, 4 domains %.1fs)@."
    (List.length sweep_rates)
    (seconds "sweep sequential" /. seconds "sweep parallel")
    (Domain.recommended_domain_count ())
    (seconds "sweep sequential") (seconds "sweep parallel")

(* Head-to-head: the same 6-restart portfolio run on a sequential pool
   and on 4 domains. Restart streams are pre-split in restart order and
   restarts commit in restart order, so the pool width is pure
   scheduling; racing may only cut losing refit rounds short, never
   change the winner. The section proves both identities fatally
   (sequential vs parallel designs, and racing on vs off at 4 domains)
   before reporting the speedup. CI's bench-smoke job gates on
   "portfolio parallel" not being slower than "portfolio sequential". *)
let portfolio_speedup () =
  section "Portfolio meta-solver (6 restarts: sequential vs 4 domains)";
  let params =
    { budgets.E.Budgets.solver with
      Design_solver.breadth = 3; depth = 3; refit_rounds = 8;
      patience = 9; polish = None }
  in
  let restarts = 6 in
  let run label ~race domains =
    timed label (fun () ->
        Search.run ~restarts ~race ~params ~pool:(Exec.create ~domains ())
          ~obs (E.Envs.peer_sites ()) (E.Envs.peer_apps ())
          Likelihood.default)
  in
  let sequential = run "portfolio sequential" ~race:false 1 in
  let parallel = run "portfolio parallel" ~race:false 4 in
  let raced = run "portfolio racing" ~race:true 4 in
  match sequential, parallel, raced with
  | Some s, Some p, Some r ->
    let bytes (res : Search.result) =
      Design.Design_io.to_string res.Search.best.Solver.Candidate.design
    in
    if bytes s <> bytes p || s.Search.winner <> p.Search.winner
       || s.Search.total_evaluations <> p.Search.total_evaluations
    then begin
      prerr_endline
        "FATAL: portfolio changed its result between 1 and 4 domains \
         (design, winner or evaluation count differs)";
      exit 1
    end;
    if bytes s <> bytes r || s.Search.winner <> r.Search.winner then begin
      prerr_endline
        "FATAL: racing changed the portfolio winner (design or winner \
         index differs from the unraced run)";
      exit 1
    end;
    let seconds label = List.assoc label !sections in
    Format.fprintf fmt
      "domain transparency: OK (byte-identical designs, winner restart %d, \
       %d evaluations each)@.racing transparency: OK (same winner, %d of \
       %d restarts raced off)@.speedup: %.2fx on %d cores (sequential \
       %.1fs, 4 domains %.1fs, 4 domains racing %.1fs)@."
      s.Search.winner s.Search.total_evaluations r.Search.raced_off
      r.Search.restarts_run
      (seconds "portfolio sequential" /. seconds "portfolio parallel")
      (Domain.recommended_domain_count ())
      (seconds "portfolio sequential") (seconds "portfolio parallel")
      (seconds "portfolio racing")
  | _ ->
    prerr_endline "FATAL: portfolio benchmark found no feasible design";
    exit 1

(* ------------------------------------------------------------------ *)
(* Fleet coordinator                                                   *)
(* ------------------------------------------------------------------ *)

(* Head-to-head at fleet scale: a 1,024-application fleet (128 four-site
   pods) solved cold on a sequential pool and on 4 domains — shard RNG
   streams are pre-split in shard-index order and shard designs merge in
   index order, so the pool width is pure scheduling and the merged
   designs must be byte-identical. Then the warm-start story: a
   forced-dirty re-solve of the unchanged fleet must never come back
   costlier than the incumbent (the anytime floor), and a re-solve after
   a single application drifts must reuse every untouched shard and
   spend at least 5x fewer configuration-solver calls than the cold
   solve. All three properties are checked fatally — a violation is a
   broken contract, not noise. CI's bench-smoke job gates on "fleet
   parallel" not being slower than "fleet sequential". *)
let fleet_speedup () =
  section "Fleet coordinator (1,024 apps over 128 pods: cold, parallel, warm)";
  let pods = 128 and apps_per_pod = 8 in
  let env = E.Envs.fleet_sites ~pods () in
  let apps = E.Envs.fleet_apps ~pods ~apps_per_pod in
  let likelihood = Likelihood.default in
  (* Shard solves dominate; a trimmed per-shard budget keeps 128 of them
     in seconds while leaving the coordinator paths (partition, merge,
     reconcile, warm reuse) fully exercised. *)
  let trimmed =
    { budgets.E.Budgets.solver with
      Design_solver.refit_rounds = 2; depth = 2; breadth = 2;
      stage1_restarts = 2 }
  in
  let run label domains =
    timed label (fun () ->
        Fleet.solve ~obs ~params:{ trimmed with Design_solver.domains } env
          apps likelihood)
  in
  let sequential = run "fleet sequential" 1 in
  let parallel = run "fleet parallel" 4 in
  let bytes (r : Fleet.t) = Design.Design_io.to_string r.Fleet.design in
  if bytes sequential <> bytes parallel
     || sequential.Fleet.evaluations <> parallel.Fleet.evaluations
  then begin
    prerr_endline
      "FATAL: fleet coordinator changed its result between 1 and 4 domains \
       (merged design or evaluation count differs)";
    exit 1
  end;
  let warm_params = { trimmed with Design_solver.domains = 4 } in
  (* Anytime floor: force one app dirty without changing it — the warm
     re-solve starts from the incumbent's rebased design, so it can
     polish the fleet cheaper but never return it costlier. *)
  let floored =
    timed "fleet warm floor" (fun () ->
        Fleet.resolve ~obs ~params:warm_params ~dirty:[ 1 ]
          ~incumbent:parallel env apps likelihood)
  in
  if Money.to_dollars floored.Fleet.cost
     > Money.to_dollars parallel.Fleet.cost +. 1e-6
  then begin
    prerr_endline
      "FATAL: warm fleet re-solve returned a costlier design than its \
       incumbent (the anytime floor broke)";
    exit 1
  end;
  (* Incremental re-solve: drift one app and re-solve warm. Only the
     dirty app's shard may spend solver calls. *)
  let drift_id = 5 in
  let drifted =
    List.map
      (fun a ->
         if a.Workload.App.id = drift_id then Workload.App.drift ~factor:2. a
         else a)
      apps
  in
  let warm =
    timed "fleet warm drift" (fun () ->
        Fleet.resolve ~obs ~params:warm_params ~incumbent:parallel env drifted
          likelihood)
  in
  let shard_count = List.length warm.Fleet.shard_results in
  let reused =
    List.length (List.filter (fun r -> r.Fleet.reused) warm.Fleet.shard_results)
  in
  if warm.Fleet.evaluations * 5 > sequential.Fleet.evaluations then begin
    prerr_endline
      (Printf.sprintf
         "FATAL: warm fleet re-solve after a single-app drift spent %d \
          evaluations against %d cold — less than the required 5x saving"
         warm.Fleet.evaluations sequential.Fleet.evaluations);
    exit 1
  end;
  let seconds label = List.assoc label !sections in
  Format.fprintf fmt
    "domain transparency: OK (byte-identical merged designs over %d apps, \
     %d evaluations each)@.anytime floor: OK (warm cost %s <= incumbent \
     %s)@.warm re-solve: %d of %d shards reused, %d evaluations vs %d cold \
     (%.1fx fewer)@.speedup: %.2fx on %d cores (sequential %.1fs, 4 \
     domains %.1fs); warm drift re-solve %.2fs@."
    (List.length apps) sequential.Fleet.evaluations
    (Money.to_string floored.Fleet.cost)
    (Money.to_string parallel.Fleet.cost)
    reused shard_count warm.Fleet.evaluations sequential.Fleet.evaluations
    (float_of_int sequential.Fleet.evaluations
     /. float_of_int (max 1 warm.Fleet.evaluations))
    (seconds "fleet sequential" /. seconds "fleet parallel")
    (Domain.recommended_domain_count ())
    (seconds "fleet sequential") (seconds "fleet parallel")
    (seconds "fleet warm drift")

(* ------------------------------------------------------------------ *)
(* dstool server round trips                                           *)
(* ------------------------------------------------------------------ *)

(* An in-process daemon on an ephemeral port, sharing the harness
   metrics registry, driven by one closed-loop client. The same quick
   solve is issued twice: request #2 must beat request #1 (it runs
   against the resident configuration cache) and both must return the
   design a direct in-process solve produces, byte for byte — the
   service determinism contract (DESIGN.md §16). scripts/bench_gate.sh
   gates "serve warm solve" <= "serve cold solve". *)
let serve_roundtrips () =
  section "dstool serve (cold vs warm round trips)";
  let registry =
    match Obs.metrics obs with Some r -> r | None -> Obs.Metrics.create ()
  in
  let d =
    Server.Daemon.create ~registry
      { Server.Daemon.default_config with Server.Daemon.port = 0 }
  in
  let server = Thread.create (fun () -> Server.Daemon.run d) () in
  let c = Server.Client.connect ~port:(Server.Daemon.port d) () in
  let params =
    Server.Json.Obj
      [ ("budget", Server.Json.Str "quick"); ("seed", Server.Json.Num 42.) ]
  in
  let design_of label = function
    | Ok r ->
      Option.get
        (Option.bind (Server.Json.member "design" r) Server.Json.str_opt)
    | Error msg ->
      prerr_endline (Printf.sprintf "FATAL: %s failed: %s" label msg);
      exit 1
  in
  let solve label =
    design_of label
      (timed label (fun () -> Server.Client.call c ~method_:"solve" params))
  in
  let cold = solve "serve cold solve" in
  let warm = solve "serve warm solve" in
  (* Closed-loop warm round trips: the steady-state service rate. *)
  let lat = Obs.Metrics.histogram registry "serve.client_round_trip_s" in
  let rounds = 16 in
  let t0 = Obs.Metrics.now_s () in
  for _ = 1 to rounds do
    ignore
      (design_of "serve steady-state solve"
         (Obs.Metrics.time lat (fun () ->
              Server.Client.call c ~method_:"solve" params)))
  done;
  let dt = Obs.Metrics.now_s () -. t0 in
  let rps = float_of_int rounds /. dt in
  Obs.Metrics.set (Obs.Metrics.gauge registry "serve.warm_rps") rps;
  let hits =
    match Server.Client.call c ~method_:"metrics" (Server.Json.Obj []) with
    | Ok m ->
      Option.value ~default:0.
        (Option.bind
           (Server.Json.member "config.cache_hits" m)
           Server.Json.num_opt)
    | Error _ -> 0.
  in
  ignore (Server.Client.call c ~method_:"shutdown" (Server.Json.Obj []));
  Server.Client.close c;
  Thread.join server;
  let direct =
    let budget = E.Budgets.with_seed E.Budgets.quick 42 in
    match
      Design_solver.solve ~params:budget.E.Budgets.solver
        (E.Envs.peer_sites ()) (E.Envs.peer_apps ()) Likelihood.default
    with
    | Some o ->
      Design.Design_io.to_string o.Design_solver.best.Solver.Candidate.design
    | None ->
      prerr_endline "FATAL: direct solve found no design";
      exit 1
  in
  if cold <> direct || warm <> direct then begin
    prerr_endline
      "FATAL: server designs are not byte-identical to a direct solve";
    exit 1
  end;
  if hits <= 0. then begin
    prerr_endline
      "FATAL: a repeated identical request missed the resident config cache";
    exit 1
  end;
  let seconds label = List.assoc label !sections in
  let cold_s = seconds "serve cold solve" in
  let warm_s = seconds "serve warm solve" in
  if warm_s >= cold_s then begin
    prerr_endline
      (Printf.sprintf
         "FATAL: warm server request (%.3fs) not faster than cold (%.3fs) \
          despite %d resident-cache hits"
         warm_s cold_s (int_of_float hits));
    exit 1
  end;
  Format.fprintf fmt
    "round trips: cold %.3fs, warm %.3fs (%.1fx); steady state %.1f req/s \
     (p50 %.1f ms, p99 %.1f ms over %d warm requests); designs \
     byte-identical to a direct solve, %d resident-cache hits@."
    cold_s warm_s (cold_s /. warm_s) rps
    (1e3 *. Obs.Metrics.percentile lat 0.5)
    (1e3 *. Obs.Metrics.percentile lat 0.99)
    rounds (int_of_float hits)

(* Plain against metered solves of one problem shape, interleaved on one
   domain: what leaving metrics on costs, as [dstool serve] always does.
   Allocation and registry locking are deterministic, so they are gated
   fatally: metered minor words may exceed plain by at most 2%, and once
   a warm-up has created every instrument, the measured metered solves
   must not take the registry lock at all. The wall ratio is only
   reported (median and quartiles of the per-pair ratios): pairs on a
   shared VM spread by about +-0.05. *)
let instrument_overhead () =
  section "Instrument overhead (quad, 6 apps, quick)";
  let module R = E.Request in
  let ok = function
    | Ok v -> v
    | Error e ->
      prerr_endline ("FATAL: instrument overhead: " ^ R.error_message e);
      exit 1
  in
  let env, apps = ok (R.instance ~apps:6 "quad") in
  let solve ~seed obs =
    let budget = ok (R.budget ~domains:1 ~seed "quick") in
    ignore
      (R.best
         (ok
            (R.run_solve ~obs
               { R.env; apps; likelihood = Likelihood.default; budget;
                 deadline_s = None })))
  in
  let registry = Obs.Metrics.create () in
  let metered = Obs.attach ~metrics:registry () in
  let registry_locks () =
    Obs.Lockstat.acquisitions
      (List.assoc "metrics.registry" (Obs.Metrics.lock_stats registry))
  in
  let seeds = [ 7; 8; 9; 10 ] in
  List.iter (fun seed -> solve ~seed metered) seeds;
  let locks0 = registry_locks () in
  (* One leg: its section (seconds and Gc deltas in the JSON) and its
     exact minor words, from this domain's allocation counter. *)
  let leg kind round seed obs =
    let label = Printf.sprintf "overhead %s seed %d round %d" kind seed round in
    let w0 = Gc.minor_words () in
    timed label (fun () -> solve ~seed obs);
    (List.assoc label !sections, Gc.minor_words () -. w0)
  in
  let pairs =
    List.concat_map
      (fun round ->
         List.mapi
           (fun i seed ->
              (* Alternate which side runs first. *)
              if (i + round) mod 2 = 0 then
                let plain = leg "plain" round seed Obs.noop in
                (plain, leg "metered" round seed metered)
              else
                let m = leg "metered" round seed metered in
                (leg "plain" round seed Obs.noop, m))
           seeds)
      [ 1; 2 ]
  in
  let warm_locks = registry_locks () - locks0 in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. pairs in
  let plain_words = sum (fun ((_, w), _) -> w) in
  let metered_words = sum (fun (_, (_, w)) -> w) in
  let words_ratio = metered_words /. plain_words in
  let ratios =
    List.map (fun ((p, _), (m, _)) -> m /. p) pairs
    |> List.sort Float.compare |> Array.of_list
  in
  let rank q =
    ratios.(min (Array.length ratios - 1)
              (int_of_float (q *. float_of_int (Array.length ratios))))
  in
  let q1, median, q3 = (rank 0.25, rank 0.5, rank 0.75) in
  Format.fprintf fmt
    "%d pairs over seeds %s: metered/plain wall ratio median %.3f \
     (quartiles %.3f-%.3f, not gated); minor words %.1f -> %.1f Mw \
     (%.4fx, gate 1.02x); registry locks in the warm metered solves: %d \
     (gate 0)@."
    (List.length pairs)
    (String.concat "," (List.map string_of_int seeds))
    median q1 q3 (plain_words /. 1e6) (metered_words /. 1e6) words_ratio
    warm_locks;
  overhead_json :=
    Some
      (Printf.sprintf
         "{\"pairs\":%d,\"wall_ratio_median\":%.4f,\"wall_ratio_q1\":%.4f,\
          \"wall_ratio_q3\":%.4f,\"plain_minor_words\":%.0f,\
          \"metered_minor_words\":%.0f,\"minor_words_ratio\":%.5f,\
          \"warm_registry_locks\":%d}"
         (List.length pairs) median q1 q3 plain_words metered_words
         words_ratio warm_locks);
  if words_ratio > 1.02 then begin
    prerr_endline
      (Printf.sprintf
         "FATAL: metered solves allocated %.4fx the minor words of plain ones \
          (limit 1.02x)"
         words_ratio);
    exit 1
  end;
  if warm_locks > 0 then begin
    prerr_endline
      (Printf.sprintf
         "FATAL: metered solves on a warm registry took its lock %d times \
          (limit 0)"
         warm_locks);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Microbenchmarks (bechamel)";
  let open Bechamel in
  let design, prov = kernel_fixture () in
  let likelihood = Likelihood.default in
  let scen =
    { Failure.Scenario.scope = Failure.Scenario.Site_disaster 1;
      annual_rate = 0.2 }
  in
  let quick_solver_params =
    { Design_solver.default_params with
      Design_solver.refit_rounds = 0; depth = 1; breadth = 1;
      stage1_restarts = 1;
      options =
        { Solver.Config_solver.search_options with
          Solver.Config_solver.max_growth_steps = 1 } }
  in
  let tests =
    [ Test.make ~name:"table4:design-solver-greedy"
        (Staged.stage (fun () ->
             ignore
               (Design_solver.solve ~params:quick_solver_params
                  (E.Envs.peer_sites ()) (E.Envs.peer_apps ()) likelihood)));
      Test.make ~name:"figure2:sample+evaluate"
        (Staged.stage
           (let rng = Prng.Rng.of_int 5 in
            fun () ->
              match
                Heuristics.Random_search.sample_design rng (E.Envs.peer_sites ())
                  (E.Envs.peer_apps ())
              with
              | Some d -> ignore (Cost.Evaluate.design d likelihood)
              | None -> ()));
      Test.make ~name:"figure3:config-solver"
        (Staged.stage (fun () ->
             ignore
               (Solver.Config_solver.solve
                  ~options:Solver.Config_solver.search_options design likelihood)));
      Test.make ~name:"figure4:minimum-provision"
        (Staged.stage (fun () -> ignore (Design.Provision.minimum design)));
      Test.make ~name:"figure5:penalty-evaluation"
        (Staged.stage (fun () ->
             ignore (Cost.Penalty.expected_annual prov likelihood)));
      Test.make ~name:"figure6:recovery-simulation"
        (Staged.stage (fun () -> ignore (Recovery.Simulate.scenario prov scen)));
      Test.make ~name:"figure7:scenario-enumeration"
        (Staged.stage (fun () ->
             ignore (Failure.Scenario.enumerate likelihood design))) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Format.fprintf fmt "%-32s %16s@." "kernel" "time/run";
  List.iter
    (fun test ->
       let results = Benchmark.all cfg [ instance ] test in
       let analyzed = Analyze.all ols instance results in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              if est >= 1e6 then
                Format.fprintf fmt "%-32s %13.2f ms@." name (est /. 1e6)
              else Format.fprintf fmt "%-32s %13.1f ns@." name est
            | _ -> Format.fprintf fmt "%-32s %16s@." name "(no estimate)")
         analyzed)
    tests

let () =
  (* Debug knob: run just the memo-cache head-to-head (the section CI's
     bench-smoke job gates on) without the full artifact regeneration. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_CACHE" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    cache_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* Same knob for the parallel-refit head-to-head. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_PARALLEL" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    parallel_refit_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* And for the Exec-pool head-to-heads (year_sim + sweep). *)
  if Sys.getenv_opt "DS_BENCH_ONLY_EXEC" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    year_sim_speedup ();
    sweep_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* And for the portfolio head-to-head. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_PORTFOLIO" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    portfolio_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* And for the rare-event tail head-to-head. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_TAIL" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    tail_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* And for the fleet-coordinator head-to-head. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_FLEET" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    fleet_speedup ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  (* And for the server round trips. *)
  if Sys.getenv_opt "DS_BENCH_ONLY_SERVE" = Some "1" then begin
    let t0 = Obs.Metrics.now_s () in
    serve_roundtrips ();
    write_results ~total:(Obs.Metrics.now_s () -. t0) ();
    exit 0
  end;
  Format.fprintf fmt "dependable-storage reproduction harness@.";
  Format.fprintf fmt "budget: %s, figure-2 samples: %d%s@."
    (match Sys.getenv_opt "DS_BENCH_BUDGET" with Some b -> b | None -> "default")
    samples
    (if skip_slow then ", slow sweeps skipped" else "");
  let t0 = Obs.Metrics.now_s () in
  timed "catalogs" catalogs;
  let entries = table4_and_figure3 () in
  figure2 entries;
  figure4 ();
  sensitivity E.Sensitivity.Object_failure
    "Figure 5 (sensitivity: data-object failure likelihood)";
  sensitivity E.Sensitivity.Array_failure
    "Figure 6 (sensitivity: disk-array failure likelihood)";
  sensitivity E.Sensitivity.Site_failure
    "Figure 7 (sensitivity: site-disaster likelihood)";
  frontier ();
  timed "ablations" ablations;
  cache_speedup ();
  parallel_refit_speedup ();
  year_sim_speedup ();
  tail_speedup ();
  sweep_speedup ();
  portfolio_speedup ();
  fleet_speedup ();
  serve_roundtrips ();
  instrument_overhead ();
  timed "microbenchmarks" bechamel_suite;
  let total = Obs.Metrics.now_s () -. t0 in
  Format.fprintf fmt "@.total harness time: %.1fs@." total;
  write_results ~total ()
