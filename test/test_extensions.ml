(* Tests for the extension features: SLO reports, design serialization,
   the exhaustive ground-truth solver, recovery-scheduling policies and
   the ablation harness. *)

open Dependable_storage
open Dependable_storage.Units
module D = Design.Design
module Design_io = Design.Design_io
module Provision = Design.Provision
module Likelihood = Failure.Likelihood
module Evaluate = Cost.Evaluate
module Slo_report = Cost.Slo_report
module Engine = Sim.Engine
module Params = Recovery.Recovery_params
module T = Protection.Technique_catalog
module App = Workload.App
module Candidate = Solver.Candidate
module Config_solver = Solver.Config_solver
module Design_solver = Solver.Design_solver
module Exhaustive = Solver.Exhaustive
module E = Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains = Fixtures.contains

let likelihood = Likelihood.default

let eval_of design =
  match Evaluate.design design likelihood with
  | Ok eval -> eval
  | Error e -> Alcotest.failf "infeasible: %a" Provision.pp_infeasibility e

let slo_tests =
  [ Alcotest.test_case "report covers every app with sane values" `Quick
      (fun () ->
         let eval = eval_of (Fixtures.two_app_design ()) in
         let report = Slo_report.of_evaluation eval in
         check_int "two entries" 2 (List.length report);
         List.iter
           (fun (e : Slo_report.entry) ->
              check_bool "rto positive" true Time.(Time.zero < e.Slo_report.rto);
              check_bool "rpo positive" true Time.(Time.zero < e.Slo_report.rpo);
              check_bool "downtime <= rto x rates" true
                Time.(e.Slo_report.expected_downtime <= Time.scale 3. e.Slo_report.rto);
              check_bool "availability in range" true
                (let a = Slo_report.availability e in
                 a >= 0. && a <= 1.))
           report);
    Alcotest.test_case "failover app has much better RTO than tape-only" `Quick
      (fun () ->
         let eval = eval_of (Fixtures.two_app_design ()) in
         let report = Slo_report.of_evaluation eval in
         let find id = List.find (fun (e : Slo_report.entry) -> e.Slo_report.app.App.id = id) report in
         let b = find 1 and s = find 4 in
         (* B fails over everywhere except object failures; S waits for
            the vault after a site disaster. *)
         check_bool "b recovers faster" true
           Time.(b.Slo_report.rto < s.Slo_report.rto);
         check_bool "b loses less" true Time.(b.Slo_report.rpo < s.Slo_report.rpo));
    Alcotest.test_case "report renders" `Quick (fun () ->
        let eval = eval_of (Fixtures.two_app_design ()) in
        let s =
          Format.asprintf "%a" Slo_report.pp (Slo_report.of_evaluation eval)
        in
        check_bool "mentions app" true
          (String.length s > 0 && contains s "B1"))
  ]

let io_tests =
  [ Alcotest.test_case "round trip preserves the design" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let text = Design_io.to_string design in
        let apps = [ Fixtures.b_app; Fixtures.s_app ] in
        match Design_io.of_string (Fixtures.peer_env ()) apps text with
        | Error msg -> Alcotest.fail msg
        | Ok parsed ->
          check_int "same size" (D.size design) (D.size parsed);
          Alcotest.(check string) "identical re-serialization" text
            (Design_io.to_string parsed));
    Alcotest.test_case "round trip keeps custom windows" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        (* Retune app 1's windows through the config-solver path. *)
        let chain =
          Protection.Backup.with_snapshot_win Protection.Backup.default
            (Time.hours 6.)
        in
        let asg = Option.get (D.find design 1) in
        let technique =
          Protection.Technique.with_backup_chain
            asg.Design.Assignment.technique chain
        in
        let design' = D.remove design 1 in
        let asg' =
          Design.Assignment.v ~app:Fixtures.b_app ~technique
            ~primary:(Fixtures.slot 1 0) ~mirror:(Fixtures.slot 2 0)
            ~backup:(Fixtures.tape 1) ()
        in
        let design' =
          Fixtures.ok
            (D.add design' asg' ~primary_model:Resources.Device_catalog.xp1200
               ~mirror_model:Resources.Device_catalog.xp1200
               ~tape_model:Resources.Device_catalog.tape_high ())
        in
        let text = Design_io.to_string design' in
        match
          Design_io.of_string (Fixtures.peer_env ())
            [ Fixtures.b_app; Fixtures.s_app ] text
        with
        | Error msg -> Alcotest.fail msg
        | Ok parsed ->
          let asg = Option.get (D.find parsed 1) in
          (match asg.Design.Assignment.technique.Protection.Technique.backup with
           | Some chain ->
             Alcotest.(check (float 1e-9)) "6h snapshot" 6.
               (Time.to_hours chain.Protection.Backup.snapshot_win)
           | None -> Alcotest.fail "backup lost"));
    Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
        let apps = [ Fixtures.b_app ] in
        let env = Fixtures.peer_env () in
        let check_err text fragment =
          match Design_io.of_string env apps text with
          | Ok _ -> Alcotest.failf "accepted %S" text
          | Error msg ->
            check_bool
              (Printf.sprintf "%S mentions %S (got %S)" text fragment msg)
              true (contains msg fragment)
        in
        check_err "gibberish" "unknown directive";
        check_err "array-model 1 0 ZZTOP" "unknown array model";
        check_err "app 1 technique 42 primary 1 0" "unknown technique";
        check_err "app 99 technique 1 primary 1 0" "unknown application";
        check_err "array-model 1 0 XP1200\napp 1 technique 9 primary 1 0 backup 1"
          "no tape-model";
        check_err "app 1 technique 9 primary 1 0 backup 1" "no array-model");
    Alcotest.test_case "comments and blank lines are ignored" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let text = "# a comment\n\n" ^ Design_io.to_string design ^ "\n# end\n" in
        match
          Design_io.of_string (Fixtures.peer_env ())
            [ Fixtures.b_app; Fixtures.s_app ] text
        with
        | Ok parsed -> check_int "parsed" 2 (D.size parsed)
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "diff reports nothing for identical designs" `Quick
      (fun () ->
         let design = Fixtures.two_app_design () in
         check_int "no changes" 0 (List.length (Design_io.diff design design)));
    Alcotest.test_case "diff catches adds, removes and swaps" `Quick (fun () ->
        let before = Fixtures.two_app_design () in
        (* Remove S, change B's technique, add C. *)
        let after = D.remove before 4 in
        let after = D.remove after 1 in
        let after =
          Fixtures.ok
            (Fixtures.assign_full ~technique:T.sync_reconstruct_backup
               Fixtures.b_app after)
        in
        let after = Fixtures.ok (Fixtures.assign_tape_only Fixtures.c_app after) in
        let changes = Design_io.diff before after in
        let has pred = List.exists pred changes in
        check_bool "C added" true
          (has (function Design_io.Added 2 -> true | _ -> false));
        check_bool "S removed" true
          (has (function Design_io.Removed 4 -> true | _ -> false));
        check_bool "B technique changed" true
          (has (function Design_io.Technique_changed (1, _, _) -> true | _ -> false));
        List.iter
          (fun c ->
             check_bool "renders" true
               (String.length (Format.asprintf "%a" Design_io.pp_change c) > 0))
          changes);
    Alcotest.test_case "diff catches placement moves" `Quick (fun () ->
        let before = Fixtures.two_app_design () in
        let after = D.remove before 4 in
        let after = Fixtures.ok (Fixtures.assign_tape_only ~site:2 Fixtures.s_app after) in
        let changes = Design_io.diff before after in
        check_bool "S moved" true
          (List.exists
             (function Design_io.Placement_changed (4, _, _) -> true | _ -> false)
             changes));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let path = Filename.temp_file "dstool" ".design" in
        (match Design_io.write_file path design with
         | Ok () -> ()
         | Error msg -> Alcotest.fail msg);
        (match
           Design_io.read_file (Fixtures.peer_env ())
             [ Fixtures.b_app; Fixtures.s_app ] path
         with
         | Ok parsed -> check_int "parsed" 2 (D.size parsed)
         | Error msg -> Alcotest.fail msg);
        Sys.remove path) ]

(* A tiny environment where exhaustive search is cheap: one array model,
   one bay per site, one tape model. *)
let tiny_env () =
  Resources.Env.fully_connected ~name:"tiny" ~site_count:2 ~bays_per_site:1
    ~array_models:[ Resources.Device_catalog.xp1200 ]
    ~tape_models:[ Resources.Device_catalog.tape_high ]
    ~link_model:Resources.Device_catalog.link_high ~max_link_units:32
    ~compute_slots_per_site:4 ()

let fast_options =
  { Config_solver.search_options with
    Config_solver.max_growth_steps = 2;
    window_scope = Config_solver.Skip }

let exhaustive_tests =
  [ Alcotest.test_case "enumerates the whole tiny space" `Slow (fun () ->
        let apps = [ Fixtures.b_app ] in
        let r = Exhaustive.solve ~options:fast_options (tiny_env ()) apps likelihood in
        check_bool "found optimum" true (r.Exhaustive.best <> None);
        check_bool "not truncated" false r.Exhaustive.truncated;
        (* B is gold: 4 techniques; 2 bays x 1 model each; mirrors forced
           to the other site; backups on either library when present. *)
        check_bool "explored a handful" true (r.Exhaustive.explored > 4));
    Alcotest.test_case "heuristic solver is near the tiny-instance optimum"
      `Slow (fun () ->
          let apps = [ Fixtures.b_app; Fixtures.s_app ] in
          let exact =
            Exhaustive.solve ~options:fast_options (tiny_env ()) apps likelihood
          in
          let params =
            { Design_solver.default_params with
              Design_solver.options = fast_options; refit_rounds = 4;
              polish = None }
          in
          match exact.Exhaustive.best,
                Design_solver.solve ~params (tiny_env ()) apps likelihood with
          | Some optimum, Some outcome ->
            let opt = Money.to_dollars (Candidate.cost optimum) in
            let heur = Money.to_dollars (Candidate.cost outcome.Design_solver.best) in
            check_bool "heuristic >= optimum" true (heur >= opt -. 1e-6);
            check_bool
              (Printf.sprintf "within 10%% of optimal (%.3g vs %.3g)" heur opt)
              true
              (heur <= 1.1 *. opt)
          | None, _ -> Alcotest.fail "exhaustive found nothing"
          | _, None -> Alcotest.fail "heuristic found nothing");
    Alcotest.test_case "max_nodes truncates" `Quick (fun () ->
        let apps = [ Fixtures.b_app; Fixtures.c_app ] in
        let r =
          Exhaustive.solve ~options:fast_options ~max_nodes:3 (tiny_env ()) apps
            likelihood
        in
        check_bool "truncated" true r.Exhaustive.truncated;
        check_int "respected the cap" 3 r.Exhaustive.explored);
    Alcotest.test_case "space_size grows multiplicatively" `Quick (fun () ->
        let one = Exhaustive.space_size (tiny_env ()) [ Fixtures.b_app ] in
        let two =
          Exhaustive.space_size (tiny_env ()) [ Fixtures.b_app; Fixtures.b_app ]
        in
        check_bool "quadratic" true (Float.abs (two -. (one *. one)) < 1e-6)) ]

let scheduling_tests =
  [ Alcotest.test_case "fifo serves submission order regardless of priority"
      `Quick (fun () ->
          let e = Engine.create ~policy:Engine.Fifo () in
          let r = Engine.resource e "r" in
          let low = Engine.submit e ~name:"low" ~priority:1.
              [ Engine.Hold ([ r ], Time.hours 1.) ] in
          let high = Engine.submit e ~name:"high" ~priority:9.
              [ Engine.Hold ([ r ], Time.hours 1.) ] in
          check_bool "low first" true
            Time.(Engine.completion_time e low < Engine.completion_time e high));
    Alcotest.test_case "smallest-first runs the short job first" `Quick
      (fun () ->
         let e = Engine.create ~policy:Engine.Smallest_first () in
         let r = Engine.resource e "r" in
         let long = Engine.submit e ~name:"long" ~priority:9.
             [ Engine.Hold ([ r ], Time.hours 5.) ] in
         let short = Engine.submit e ~name:"short" ~priority:1.
             [ Engine.Hold ([ r ], Time.hours 1.) ] in
         check_bool "short first" true
           Time.(Engine.completion_time e short < Engine.completion_time e long));
    Alcotest.test_case "policy changes recovery outcomes on a contended design"
      `Quick (fun () ->
          (* Two tape-only apps restoring from the same library; the app
             with the LOWER id (submitted first, favored by FIFO) has the
             LOWER priority, so FIFO and priority must disagree. *)
          let cheap =
            App.v ~id:1 ~name:"cheap" ~class_tag:"S"
              ~outage_per_hour:(Money.k 1.) ~loss_per_hour:(Money.k 1.)
              ~data_size:(Size.gb 1000.) ~avg_update:(Rate.mb_per_sec 1.)
              ~peak_update:(Rate.mb_per_sec 2.) ~avg_access:(Rate.mb_per_sec 5.)
              ()
          in
          let precious =
            App.v ~id:2 ~name:"precious" ~class_tag:"S"
              ~outage_per_hour:(Money.m 1.) ~loss_per_hour:(Money.m 1.)
              ~data_size:(Size.gb 1000.) ~avg_update:(Rate.mb_per_sec 1.)
              ~peak_update:(Rate.mb_per_sec 2.) ~avg_access:(Rate.mb_per_sec 5.)
              ()
          in
          let design = D.empty (Fixtures.peer_env ()) in
          let design = Fixtures.ok (Fixtures.assign_tape_only cheap design) in
          let design = Fixtures.ok (Fixtures.assign_tape_only precious design) in
          let prov = Fixtures.feasible (Provision.minimum design) in
          let scen =
            { Failure.Scenario.scope =
                Failure.Scenario.Array_failure (Fixtures.slot 1 0);
              annual_rate = 1. }
          in
          let recovery_of policy id =
            let params = { Params.default with Params.scheduling = policy } in
            let outcomes = Recovery.Simulate.scenario ~params prov scen in
            (List.find (fun (o : Recovery.Outcome.t) -> o.Recovery.Outcome.app.App.id = id)
               outcomes).Recovery.Outcome.recovery_time
          in
          check_bool "priority favors the precious app" true
            Time.(recovery_of Engine.Priority 2 < recovery_of Engine.Priority 1);
          check_bool "fifo favors the first-submitted app" true
            Time.(recovery_of Engine.Fifo 1 < recovery_of Engine.Fifo 2)) ]

let tiny_budgets =
  { E.Budgets.solver =
      { Design_solver.default_params with
        Design_solver.refit_rounds = 1; depth = 1; breadth = 2;
        stage1_restarts = 2;
        options = fast_options };
    human_attempts = 3;
    random_attempts = 5;
    space_samples = 100;
    domains = 1;
    restarts = 1;
    race = false;
    portfolio_evaluations = None }

let ablation_tests =
  [ Alcotest.test_case "solver stages never get worse with more search" `Slow
      (fun () ->
         let rows = E.Ablation.solver_stages ~budgets:tiny_budgets () in
         check_int "three rows" 3 (List.length rows);
         match List.map (fun (r : E.Ablation.row) -> r.E.Ablation.total) rows with
         | [ Some greedy; Some refit; Some full ] ->
           check_bool "refit <= greedy" true Money.(refit <= greedy);
           check_bool "full <= refit" true Money.(full <= refit)
         | _ -> Alcotest.fail "missing rows");
    Alcotest.test_case "config features: the full solver wins" `Slow (fun () ->
        let rows = E.Ablation.config_features ~budgets:tiny_budgets () in
        check_int "four rows" 4 (List.length rows);
        let total label =
          List.find (fun (r : E.Ablation.row) -> r.E.Ablation.label = label) rows
          |> fun r ->
          match r.E.Ablation.total with
          | Some m -> Money.to_dollars m
          | None -> Float.infinity
        in
        check_bool "growth helps" true
          (total "windows + growth" <= total "minimum provisioning" +. 1.));
    Alcotest.test_case "search-shape sweep returns a row per shape" `Slow
      (fun () ->
         let rows = E.Ablation.search_shape ~budgets:tiny_budgets () in
         check_int "four shapes" 4 (List.length rows);
         List.iter
           (fun (r : E.Ablation.row) ->
              check_bool "feasible" true (r.E.Ablation.total <> None))
           rows);
    Alcotest.test_case "scheduling rows render and priority is present" `Slow
      (fun () ->
         let rows = E.Ablation.scheduling_policies ~budgets:tiny_budgets () in
         check_int "three policies" 3 (List.length rows);
         check_bool "has priority row" true
           (List.exists
              (fun (r : E.Ablation.row) -> r.E.Ablation.label = "priority (paper)")
              rows);
         let s =
           Format.asprintf "%a"
             (fun ppf rows -> E.Ablation.pp ppf ~title:"x" rows)
             rows
         in
         check_bool "renders" true (String.length s > 0)) ]

let lint_tests =
  [ Alcotest.test_case "well-protected apps draw no per-app warnings" `Quick
      (fun () ->
         (* The fixture co-locates both primaries, so the design-wide
            concentration warning is expected; the applications
            themselves are protected to class. *)
         let findings = Design.Lint.check (Fixtures.two_app_design ()) in
         check_bool "no app-level warnings" true
           (List.for_all
              (fun (f : Design.Lint.finding) ->
                 f.Design.Lint.severity <> Design.Lint.Warning
                 || f.Design.Lint.app = None)
              findings));
    Alcotest.test_case "mirror-only high-loss app is flagged" `Quick (fun () ->
        let asg =
          Design.Assignment.v ~app:Fixtures.b_app ~technique:T.sync_failover
            ~primary:(Fixtures.slot 1 0) ~mirror:(Fixtures.slot 2 0) ()
        in
        let design =
          Fixtures.ok
            (D.add (D.empty (Fixtures.peer_env ())) asg
               ~primary_model:Resources.Device_catalog.xp1200
               ~mirror_model:Resources.Device_catalog.xp1200 ())
        in
        let findings = Design.Lint.check design in
        check_bool "warned about missing PIT copy" true
          (List.exists
             (fun (f : Design.Lint.finding) ->
                f.Design.Lint.severity = Design.Lint.Warning
                && f.Design.Lint.app = Some 1
                && contains f.Design.Lint.message "point-in-time")
             findings));
    Alcotest.test_case "under-classed protection is flagged" `Quick (fun () ->
        (* Gold-class B on bronze tape backup. *)
        let design =
          Fixtures.ok
            (Fixtures.assign_tape_only Fixtures.b_app
               (D.empty (Fixtures.peer_env ())))
        in
        let findings = Design.Lint.check design in
        check_bool "class warning" true
          (List.exists
             (fun (f : Design.Lint.finding) ->
                contains f.Design.Lint.message "gold-class application")
             findings));
    Alcotest.test_case "single-site concentration is flagged" `Quick (fun () ->
        let design = D.empty (Fixtures.peer_env ()) in
        let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.s_app design) in
        let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.c_app design) in
        let findings = Design.Lint.check design in
        check_bool "site concentration" true
          (List.exists
             (fun (f : Design.Lint.finding) ->
                contains f.Design.Lint.message "one site")
             findings));
    Alcotest.test_case "warnings sort before advice" `Quick (fun () ->
        let design =
          Fixtures.ok
            (Fixtures.assign_tape_only Fixtures.b_app
               (D.empty (Fixtures.peer_env ())))
        in
        let findings = Design.Lint.check design in
        let ranks =
          List.map
            (fun (f : Design.Lint.finding) ->
               match f.Design.Lint.severity with
               | Design.Lint.Warning -> 0
               | Design.Lint.Advice -> 1)
            findings
        in
        check_bool "sorted" true (List.sort Int.compare ranks = ranks);
        check_bool "renders" true
          (String.length (Format.asprintf "%a" Design.Lint.pp findings) > 0)) ]

let suites =
  [ ("ext.slo", slo_tests);
    ("ext.lint", lint_tests);
    ("ext.design_io", io_tests);
    ("ext.exhaustive", exhaustive_tests);
    ("ext.scheduling", scheduling_tests);
    ("ext.ablation", ablation_tests) ]
