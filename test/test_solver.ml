(* Tests for ds_solver: layout selection, configuration solver,
   reconfiguration and the two-stage design solver. *)

open Dependable_storage
open Dependable_storage.Units
module Rng = Prng.Rng
module App = Workload.App
module T = Protection.Technique_catalog
module Technique = Protection.Technique
module Slot = Resources.Slot
module D = Design.Design
module Likelihood = Failure.Likelihood
module Layout = Solver.Layout
module Candidate = Solver.Candidate
module Config_solver = Solver.Config_solver
module Reconfigure = Solver.Reconfigure
module Design_solver = Solver.Design_solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let likelihood = Likelihood.default

(* Cheap options keep the solver tests fast. *)
let fast_options =
  { Config_solver.search_options with
    Config_solver.max_growth_steps = 2;
    window_scope = Config_solver.Skip }

let fast_params =
  { Design_solver.default_params with
    Design_solver.breadth = 2; depth = 2; refit_rounds = 2; patience = 1;
    stage1_restarts = 2; options = fast_options;
    domains = Fixtures.test_domains }

let layout_tests =
  [ Alcotest.test_case "enumerate_primaries offers every fitting slot/model"
      `Quick (fun () ->
          let design = D.empty (Fixtures.peer_env ()) in
          (* Empty design: 4 bays x 3 models, minus those too small. The
             S app (500 GB, 5 MB/s) fits everything. *)
          check_int "all combos" 12
            (List.length (Layout.enumerate_primaries design Fixtures.s_app)));
    Alcotest.test_case "populated slots keep their installed model" `Quick
      (fun () ->
         let design = Fixtures.two_app_design () in
         let cands = Layout.enumerate_primaries design Fixtures.c_app in
         let on_populated =
           List.filter
             (fun ((slot : Slot.Array_slot.t), _) ->
                Slot.Array_slot.equal slot (Fixtures.slot 1 0))
             cands
         in
         check_int "one option for a populated bay" 1 (List.length on_populated));
    Alcotest.test_case "choose produces a valid, applicable layout" `Quick
      (fun () ->
         let rng = Rng.of_int 1 in
         let history = Layout.History.create () in
         let design = D.empty (Fixtures.peer_env ()) in
         for _ = 1 to 50 do
           match
             Layout.choose rng history design Fixtures.b_app
               T.async_failover_backup
           with
           | Some choice ->
             let applied = Layout.apply design choice in
             check_bool "applies" true (Result.is_ok applied)
           | None -> Alcotest.fail "no layout found"
         done);
    Alcotest.test_case "choose honors technique structure" `Quick (fun () ->
        let rng = Rng.of_int 2 in
        let history = Layout.History.create () in
        let design = D.empty (Fixtures.peer_env ()) in
        (match Layout.choose rng history design Fixtures.s_app T.tape_backup with
         | Some choice ->
           check_bool "no mirror" true (choice.Layout.assignment.Design.Assignment.mirror = None);
           check_bool "has tape" true (choice.Layout.assignment.Design.Assignment.backup <> None)
         | None -> Alcotest.fail "no layout");
        match Layout.choose rng history design Fixtures.b_app T.sync_failover with
        | Some choice ->
          check_bool "has mirror" true
            (choice.Layout.assignment.Design.Assignment.mirror <> None);
          check_bool "no tape" true
            (choice.Layout.assignment.Design.Assignment.backup = None)
        | None -> Alcotest.fail "no layout");
    Alcotest.test_case "mirror always lands on a connected distinct site" `Quick
      (fun () ->
         let rng = Rng.of_int 3 in
         let history = Layout.History.create () in
         let design = D.empty (Fixtures.quad_env ()) in
         for _ = 1 to 100 do
           match
             Layout.choose rng history design Fixtures.c_app
               T.sync_reconstruct_backup
           with
           | Some choice ->
             let asg = choice.Layout.assignment in
             let p = asg.Design.Assignment.primary.Slot.Array_slot.site in
             (match asg.Design.Assignment.mirror with
              | Some m -> check_bool "distinct site" true (m.Slot.Array_slot.site <> p)
              | None -> Alcotest.fail "mirror missing")
           | None -> Alcotest.fail "no layout"
         done);
    Alcotest.test_case "no placement in a one-site world for mirrors" `Quick
      (fun () ->
         let env =
           Resources.Env.fully_connected ~name:"solo" ~site_count:1
             ~bays_per_site:2 ~array_models:Resources.Device_catalog.array_models
             ~tape_models:Resources.Device_catalog.tape_models
             ~link_model:Resources.Device_catalog.link_high ~max_link_units:4
             ~compute_slots_per_site:8 ()
         in
         let rng = Rng.of_int 4 in
         let history = Layout.History.create () in
         check_bool "none" true
           (Layout.choose rng history (D.empty env) Fixtures.b_app
              T.sync_failover = None));
    Alcotest.test_case "history usage fraction" `Quick (fun () ->
        let history = Layout.History.create () in
        let slot = Fixtures.slot 1 0 in
        Alcotest.(check (float 1e-9)) "empty" 0. (Layout.History.usage history 1 slot);
        Layout.History.record history 1 slot;
        Layout.History.record history 1 (Fixtures.slot 1 1);
        Alcotest.(check (float 1e-9)) "half" 0.5 (Layout.History.usage history 1 slot));
    Alcotest.test_case "choose_uniform covers distinct placements" `Quick
      (fun () ->
         let rng = Rng.of_int 5 in
         let design = D.empty (Fixtures.peer_env ()) in
         let sites = Hashtbl.create 4 in
         for _ = 1 to 200 do
           match Layout.choose_uniform rng design Fixtures.s_app T.tape_backup with
           | Some choice ->
             Hashtbl.replace sites
               choice.Layout.assignment.Design.Assignment.primary.Slot.Array_slot.site
               ()
           | None -> Alcotest.fail "no layout"
         done;
         check_int "both sites seen" 2 (Hashtbl.length sites)) ]

let config_tests =
  [ Alcotest.test_case "solve completes a feasible design" `Quick (fun () ->
        match
          Config_solver.solve ~options:fast_options (Fixtures.two_app_design ())
            likelihood
        with
        | Ok candidate -> check_int "apps kept" 2 (D.size candidate.Candidate.design)
        | Error e -> Alcotest.failf "infeasible: %a" Design.Provision.pp_infeasibility e);
    Alcotest.test_case "growth never increases total cost" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let base =
          match Config_solver.solve ~options:{ fast_options with Config_solver.max_growth_steps = 0 }
                  design likelihood with
          | Ok c -> Candidate.cost c
          | Error _ -> Alcotest.fail "infeasible"
        in
        let grown =
          match Config_solver.solve ~options:{ fast_options with Config_solver.max_growth_steps = 12 }
                  design likelihood with
          | Ok c -> Candidate.cost c
          | Error _ -> Alcotest.fail "infeasible"
        in
        check_bool "growth helps or is neutral" true Money.(grown <= base));
    Alcotest.test_case "window search helps or is neutral" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let skip =
          match Config_solver.solve ~options:fast_options design likelihood with
          | Ok c -> Candidate.cost c
          | Error _ -> Alcotest.fail "infeasible"
        in
        let searched =
          match
            Config_solver.solve
              ~options:{ fast_options with Config_solver.window_scope = Config_solver.All_apps }
              design likelihood
          with
          | Ok c -> Candidate.cost c
          | Error _ -> Alcotest.fail "infeasible"
        in
        check_bool "windows help" true Money.(searched <= skip));
    Alcotest.test_case "infeasible design is rejected" `Quick (fun () ->
        let env =
          Resources.Env.fully_connected ~name:"tiny" ~site_count:2 ~bays_per_site:2
            ~array_models:Resources.Device_catalog.array_models
            ~tape_models:Resources.Device_catalog.tape_models
            ~link_model:Resources.Device_catalog.link_high ~max_link_units:32
            ~compute_slots_per_site:1 ()
        in
        let design = D.empty env in
        let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.s_app design) in
        let asg =
          Design.Assignment.v ~app:Fixtures.c_app ~technique:T.tape_backup
            ~primary:(Fixtures.slot 1 0) ~backup:(Fixtures.tape 1) ()
        in
        let design =
          Fixtures.ok
            (D.add design asg ~primary_model:Resources.Device_catalog.xp1200
               ~tape_model:Resources.Device_catalog.tape_high ())
        in
        check_bool "rejected" true
          (Result.is_error (Config_solver.solve ~options:fast_options design likelihood))) ]

let reconfigure_tests =
  [ Alcotest.test_case "eligible techniques follow the class ladder" `Quick
      (fun () ->
         check_int "gold app" 4
           (List.length (Reconfigure.eligible_techniques Fixtures.b_app));
         check_int "silver app" 8
           (List.length (Reconfigure.eligible_techniques Fixtures.c_app));
         check_int "bronze app" 9
           (List.length (Reconfigure.eligible_techniques Fixtures.s_app)));
    Alcotest.test_case "assign_best places an app feasibly" `Quick (fun () ->
        let state =
          Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 11) likelihood
        in
        let design = D.empty (Fixtures.peer_env ()) in
        match Reconfigure.assign_best state design Fixtures.s_app with
        | Some candidate ->
          check_int "placed" 1 (D.size candidate.Candidate.design);
          check_bool "evaluations counted" true (state.Reconfigure.evaluations > 0)
        | None -> Alcotest.fail "no placement");
    Alcotest.test_case "assign_best is byte-identical across pool widths"
      `Quick (fun () ->
          (* The greedy step draws every layout on the calling domain in
             technique order and folds the solves in index order, so both
             the chosen candidate and the evaluation count are a
             function of the seed alone, never of the pool. *)
          let run pool =
            let state =
              Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 11)
                likelihood
            in
            let design = D.empty (Fixtures.peer_env ()) in
            match Reconfigure.assign_best ~pool state design Fixtures.s_app with
            | Some candidate ->
              (Design.Design_io.to_string candidate.Candidate.design,
               state.Reconfigure.evaluations)
            | None -> Alcotest.fail "no placement"
          in
          let reference = run (Exec.create ~domains:1 ()) in
          List.iter
            (fun domains ->
               let got = run (Exec.create ~domains ()) in
               Alcotest.(check string)
                 (Printf.sprintf "%d-domain design" domains)
                 (fst reference) (fst got);
               check_int
                 (Printf.sprintf "%d-domain evaluations" domains)
                 (snd reference) (snd got))
            [ 1; 2; 4 ]);
    Alcotest.test_case "reconfigure keeps the app count" `Quick (fun () ->
        let state =
          Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 12) likelihood
        in
        match Config_solver.solve ~options:fast_options (Fixtures.two_app_design ()) likelihood with
        | Error _ -> Alcotest.fail "infeasible start"
        | Ok start ->
          let reconfigured = ref 0 in
          for _ = 1 to 10 do
            match Reconfigure.reconfigure state start with
            | Some next ->
              incr reconfigured;
              check_int "same apps" 2 (D.size next.Candidate.design)
            | None -> ()
          done;
          check_bool "mostly succeeds" true (!reconfigured >= 5)) ]

let peer_apps () = Ds_experiments.Envs.peer_apps ()

let design_solver_tests =
  [ Alcotest.test_case "greedy covers every application" `Slow (fun () ->
        let state =
          Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 21) likelihood
        in
        match
          Design_solver.greedy state fast_params (Fixtures.peer_env ())
            (peer_apps ())
        with
        | Some candidate -> check_int "all placed" 8 (D.size candidate.Candidate.design)
        | None -> Alcotest.fail "greedy failed");
    Alcotest.test_case "refit never worsens the incumbent" `Slow (fun () ->
        let state =
          Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 22) likelihood
        in
        match
          Design_solver.greedy state fast_params (Fixtures.peer_env ())
            (peer_apps ())
        with
        | None -> Alcotest.fail "greedy failed"
        | Some start ->
          let refined, _rounds = Design_solver.refit state fast_params start in
          check_bool "no worse" true
            Money.(Candidate.cost refined <= Candidate.cost start));
    Alcotest.test_case "solve returns a complete feasible design" `Slow (fun () ->
        match
          Design_solver.solve ~params:fast_params (Fixtures.peer_env ())
            (peer_apps ()) likelihood
        with
        | Some outcome ->
          let c = outcome.Design_solver.best in
          check_int "all apps" 8 (D.size c.Candidate.design);
          check_bool "positive cost" true Money.(Money.zero < Candidate.cost c);
          check_bool "evaluations counted" true (outcome.Design_solver.evaluations > 0)
        | None -> Alcotest.fail "no feasible design");
    Alcotest.test_case "solve is deterministic for a fixed seed" `Slow (fun () ->
        let run () =
          Design_solver.solve ~params:fast_params (Fixtures.peer_env ())
            (peer_apps ()) likelihood
          |> Option.map (fun o -> Money.to_dollars (Candidate.cost o.Design_solver.best))
        in
        Alcotest.(check (option (float 1e-3))) "same cost" (run ()) (run ()));
    Alcotest.test_case "refit is byte-identical at 1 and 4 domains" `Slow
      (fun () ->
         let run domains =
           Design_solver.solve
             ~params:{ fast_params with Design_solver.domains }
             (Fixtures.peer_env ()) (peer_apps ()) likelihood
           |> Option.map (fun o ->
               (Design.Design_io.to_string o.Design_solver.best.Candidate.design,
                o.Design_solver.evaluations))
         in
         Alcotest.(check (option (pair string int)))
           "same design text and evaluation count" (run 1) (run 4));
    Alcotest.test_case "solve fails gracefully when impossible" `Quick (fun () ->
        (* One compute slot per site cannot host 8 applications. *)
        let env =
          Resources.Env.fully_connected ~name:"impossible" ~site_count:2
            ~bays_per_site:2 ~array_models:Resources.Device_catalog.array_models
            ~tape_models:Resources.Device_catalog.tape_models
            ~link_model:Resources.Device_catalog.link_high ~max_link_units:32
            ~compute_slots_per_site:1 ()
        in
        check_bool "no design" true
          (Design_solver.solve ~params:fast_params env (peer_apps ()) likelihood
           = None));
    Alcotest.test_case "a failed round does not abort the remaining rounds"
      `Slow (fun () ->
          (* Regression: the refit loop used to return outright when a
             round produced no feasible candidate, silently abandoning
             every remaining round. A failed round must instead count
             against patience like a non-improving one. breadth = 0
             makes every round fail deterministically, so the fixed
             solver runs until patience (3 rounds) while the old one
             stopped after 1. *)
          let params =
            { fast_params with
              Design_solver.breadth = 0; refit_rounds = 10; patience = 3 }
          in
          let state =
            Reconfigure.state ~options:fast_options ~rng:(Rng.of_int 23)
              likelihood
          in
          match
            Design_solver.greedy state fast_params (Fixtures.peer_env ())
              (peer_apps ())
          with
          | None -> Alcotest.fail "greedy failed"
          | Some start ->
            let refined, rounds_run = Design_solver.refit state params start in
            check_int "failed rounds count against patience, not the search"
              3 rounds_run;
            check_bool "incumbent unchanged" true
              (Money.compare (Candidate.cost refined) (Candidate.cost start)
               = 0));
    Alcotest.test_case "high-outage apps get failover in the solution" `Slow
      (fun () ->
         match
           Design_solver.solve ~params:fast_params (Fixtures.peer_env ())
             (peer_apps ()) likelihood
         with
         | Some outcome ->
           let design = outcome.Design_solver.best.Candidate.design in
           (* Every B app (outage $5M/hr) should use failover. *)
           List.iter
             (fun (asg : Design.Assignment.t) ->
                if String.equal asg.Design.Assignment.app.App.class_tag "B" then
                  check_bool "B fails over" true
                    (Technique.needs_standby_compute asg.Design.Assignment.technique))
             (D.assignments design)
         | None -> Alcotest.fail "no feasible design") ]

(* ------------------------------------------------------------------ *)
(* Warm-start re-solve                                                 *)
(* ------------------------------------------------------------------ *)

let resolve_tests =
  let cold () =
    match
      Design_solver.solve ~params:fast_params (Fixtures.peer_env ())
        (peer_apps ()) likelihood
    with
    | Some o -> o
    | None -> Alcotest.fail "cold solve found no design"
  in
  let bytes d = Design.Design_io.to_string d in
  [ Alcotest.test_case "empty dirty set is a byte-identical no-op" `Slow
      (fun () ->
         (* Nothing drifted and nothing is dirty: the anytime floor is
            the incumbent itself and ties keep its bytes, so the
            re-solve must return the incumbent unchanged. *)
         let incumbent = (cold ()).Design_solver.best.Candidate.design in
         match
           Design_solver.resolve ~params:fast_params ~incumbent ~dirty:[]
             (Fixtures.peer_env ()) (peer_apps ()) likelihood
         with
         | Some o ->
           Alcotest.(check string) "same bytes" (bytes incumbent)
             (bytes o.Design_solver.best.Candidate.design)
         | None -> Alcotest.fail "resolve failed");
    Alcotest.test_case "forced-dirty re-solve never returns a costlier design"
      `Slow (fun () ->
          let outcome = cold () in
          let incumbent = outcome.Design_solver.best.Candidate.design in
          match
            Design_solver.resolve ~params:fast_params ~incumbent ~dirty:[ 3 ]
              (Fixtures.peer_env ()) (peer_apps ()) likelihood
          with
          | Some o ->
            check_bool "never above the incumbent" true
              Money.(Candidate.cost o.Design_solver.best
                     <= Candidate.cost outcome.Design_solver.best)
          | None -> Alcotest.fail "resolve failed");
    Alcotest.test_case "single-app drift re-solves only the dirty app" `Slow
      (fun () ->
         let outcome = cold () in
         let incumbent = outcome.Design_solver.best.Candidate.design in
         let drifted =
           List.map
             (fun (a : App.t) -> if a.App.id = 3 then App.drift ~factor:4. a else a)
             (peer_apps ())
         in
         match
           Design_solver.resolve ~params:fast_params ~incumbent ~dirty:[ 3 ]
             (Fixtures.peer_env ()) drifted likelihood
         with
         | Some o ->
           check_int "every app still placed" 8
             (D.size o.Design_solver.best.Candidate.design);
           check_bool "cheaper than a cold solve of the whole fleet" true
             (o.Design_solver.evaluations < outcome.Design_solver.evaluations)
         | None -> Alcotest.fail "resolve failed");
    Alcotest.test_case "new arrivals join the dirty set" `Slow (fun () ->
        let apps = peer_apps () in
        let seven = List.filteri (fun i _ -> i < 7) apps in
        let incumbent =
          match
            Design_solver.solve ~params:fast_params (Fixtures.peer_env ())
              seven likelihood
          with
          | Some o -> o.Design_solver.best.Candidate.design
          | None -> Alcotest.fail "cold solve found no design"
        in
        match
          Design_solver.resolve ~params:fast_params ~incumbent ~dirty:[]
            (Fixtures.peer_env ()) apps likelihood
        with
        | Some o ->
          check_int "arrival placed" 8 (D.size o.Design_solver.best.Candidate.design)
        | None -> Alcotest.fail "resolve failed");
    Alcotest.test_case "resolve is byte-identical at 1 and 4 domains" `Slow
      (fun () ->
         let incumbent = (cold ()).Design_solver.best.Candidate.design in
         let drifted =
           List.map
             (fun (a : App.t) -> if a.App.id = 2 then App.drift ~factor:3. a else a)
             (peer_apps ())
         in
         let run domains =
           Design_solver.resolve
             ~params:{ fast_params with Design_solver.domains } ~incumbent
             ~dirty:[ 2 ] (Fixtures.peer_env ()) drifted likelihood
           |> Option.map (fun o ->
               (bytes o.Design_solver.best.Candidate.design,
                o.Design_solver.evaluations))
         in
         Alcotest.(check (option (pair string int)))
           "same design text and evaluation count" (run 1) (run 4)) ]

(* ------------------------------------------------------------------ *)
(* Memo: the bounded LRU behind the configuration-solver cache          *)
(* ------------------------------------------------------------------ *)

let memo_tests =
  [ Alcotest.test_case "find counts misses then hits" `Quick (fun () ->
        let m = Solver.Memo.create ~capacity:4 () in
        check_bool "empty miss" true (Solver.Memo.find m "a" = None);
        check_bool "no eviction" false (Solver.Memo.add m "a" 1);
        check_bool "hit" true (Solver.Memo.find m "a" = Some 1);
        check_int "hits" 1 (Solver.Memo.hits m);
        check_int "misses" 1 (Solver.Memo.misses m);
        check_int "length" 1 (Solver.Memo.length m));
    Alcotest.test_case "eviction drops the least recently used" `Quick
      (fun () ->
         let m = Solver.Memo.create ~capacity:2 () in
         ignore (Solver.Memo.add m "a" 1);
         ignore (Solver.Memo.add m "b" 2);
         (* Touch "a" so "b" becomes the eviction candidate. *)
         check_bool "refresh a" true (Solver.Memo.find m "a" = Some 1);
         check_bool "adding c evicts" true (Solver.Memo.add m "c" 3);
         check_bool "b evicted" true (Solver.Memo.find m "b" = None);
         check_bool "a survives" true (Solver.Memo.find m "a" = Some 1);
         check_bool "c present" true (Solver.Memo.find m "c" = Some 3);
         check_int "one eviction" 1 (Solver.Memo.evictions m);
         check_int "at capacity" 2 (Solver.Memo.length m));
    Alcotest.test_case "re-adding a key refreshes without evicting" `Quick
      (fun () ->
         let m = Solver.Memo.create ~capacity:2 () in
         ignore (Solver.Memo.add m "a" 1);
         ignore (Solver.Memo.add m "b" 2);
         (* "a" is the LRU; re-adding it must refresh, not grow. *)
         check_bool "no eviction on refresh" false (Solver.Memo.add m "a" 10);
         check_bool "adding c evicts b" true (Solver.Memo.add m "c" 3);
         check_bool "b evicted" true (Solver.Memo.find m "b" = None);
         check_bool "a updated" true (Solver.Memo.find m "a" = Some 10));
    Alcotest.test_case "clear empties entries and zeros the counters" `Quick
      (fun () ->
         let m = Solver.Memo.create ~capacity:2 () in
         ignore (Solver.Memo.add m "a" 1);
         ignore (Solver.Memo.add m "b" 2);
         check_bool "hit" true (Solver.Memo.find m "a" = Some 1);
         ignore (Solver.Memo.add m "c" 3) (* evicts *);
         Solver.Memo.clear m;
         check_int "empty" 0 (Solver.Memo.length m);
         (* A reset cache has no history: stale counters would misreport
            the config.cache_* metrics of whatever runs next. *)
         check_int "hits zeroed" 0 (Solver.Memo.hits m);
         check_int "misses zeroed" 0 (Solver.Memo.misses m);
         check_int "evictions zeroed" 0 (Solver.Memo.evictions m);
         check_int "capacity kept" 2 (Solver.Memo.capacity m);
         check_bool "gone" true (Solver.Memo.find m "a" = None);
         check_int "post-clear miss counted" 1 (Solver.Memo.misses m));
    Alcotest.test_case "concurrent fills keep the table consistent" `Quick
      (fun () ->
         (* 4 domains hammer a small shared cache with overlapping keys:
            the linked list must stay consistent (no crash, no lost
            structure) and the bookkeeping must balance. *)
         let m = Solver.Memo.create ~capacity:8 () in
         let worker d () =
           for i = 0 to 999 do
             let key = "k" ^ string_of_int ((i + d) mod 16) in
             (match Solver.Memo.find m key with
              | Some _ -> ()
              | None -> ignore (Solver.Memo.add m key (i * d)));
             ignore (Solver.Memo.length m)
           done
         in
         let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
         List.iter Domain.join domains;
         check_bool "within capacity" true (Solver.Memo.length m <= 8);
         check_int "every lookup hit or missed" 4000
           (Solver.Memo.hits m + Solver.Memo.misses m));
    Alcotest.test_case "zero capacity is rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Memo.create: capacity must be positive")
          (fun () -> ignore (Solver.Memo.create ~capacity:0 ())));
    Alcotest.test_case "resize below length evicts in LRU order" `Quick
      (fun () ->
         let m = Solver.Memo.create ~capacity:4 () in
         ignore (Solver.Memo.add m "a" 1);
         ignore (Solver.Memo.add m "b" 2);
         ignore (Solver.Memo.add m "c" 3);
         ignore (Solver.Memo.add m "d" 4);
         (* Touch "a": recency is now b < c < d < a, oldest first. *)
         check_bool "refresh a" true (Solver.Memo.find m "a" = Some 1);
         Solver.Memo.resize m 2;
         check_int "capacity updated" 2 (Solver.Memo.capacity m);
         check_int "shrunk immediately" 2 (Solver.Memo.length m);
         check_int "two evictions counted" 2 (Solver.Memo.evictions m);
         check_bool "b (oldest) evicted" true (Solver.Memo.find m "b" = None);
         check_bool "c (next) evicted" true (Solver.Memo.find m "c" = None);
         check_bool "d survives" true (Solver.Memo.find m "d" = Some 4);
         check_bool "a survives" true (Solver.Memo.find m "a" = Some 1));
    Alcotest.test_case "growing a cache drops nothing" `Quick (fun () ->
        let m = Solver.Memo.create ~capacity:2 () in
        ignore (Solver.Memo.add m "a" 1);
        ignore (Solver.Memo.add m "b" 2);
        Solver.Memo.resize m 4;
        check_int "capacity updated" 4 (Solver.Memo.capacity m);
        check_int "entries kept" 2 (Solver.Memo.length m);
        check_int "no evictions" 0 (Solver.Memo.evictions m);
        ignore (Solver.Memo.add m "c" 3);
        check_bool "no eviction at 4/4" false (Solver.Memo.add m "d" 4);
        check_bool "eviction at 5/4" true (Solver.Memo.add m "e" 5);
        check_bool "a (LRU) evicted" true (Solver.Memo.find m "a" = None));
    Alcotest.test_case "resize to zero is rejected" `Quick (fun () ->
        let m = Solver.Memo.create ~capacity:2 () in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Memo.resize: capacity must be positive")
          (fun () -> Solver.Memo.resize m 0)) ]

(* ------------------------------------------------------------------ *)
(* Fingerprints: the cache key must collide exactly on Design.equal     *)
(* ------------------------------------------------------------------ *)

module Backup = Protection.Backup
module Assignment = Design.Assignment
module Device_catalog = Resources.Device_catalog

(* Small menus keep the recipe domain tiny, so random pairs of recipes
   coincide often enough to exercise the "equal designs, equal
   fingerprints" direction and not just injectivity. *)
let snapshot_wins = [| Time.hours 6.; Time.hours 12. |]
let tape_wins = [| Time.days 7.; Time.days 14. |]

let chain ~snap ~tape =
  Backup.with_tape_win
    (Backup.with_snapshot_win Backup.default snapshot_wins.(snap))
    tape_wins.(tape)

(* A recipe drives two placements from the fixture helpers: the B app
   mirrored + backed up (windows retuned as the configuration solver
   would), and the S app on tape alone at a chosen site. *)
type recipe = (int * int) option * (int * int) option

let build_design ?(reverse = false) ((b_spec, s_spec) : recipe) =
  let add_b design =
    match b_spec with
    | None -> design
    | Some (snap, tape) ->
      let technique =
        Technique.with_backup_chain T.async_failover_backup (chain ~snap ~tape)
      in
      Fixtures.ok (Fixtures.assign_full ~technique Fixtures.b_app design)
  in
  let add_s design =
    match s_spec with
    | None -> design
    | Some (site, tape) ->
      let technique =
        Technique.with_backup_chain T.tape_backup (chain ~snap:0 ~tape)
      in
      let asg =
        Assignment.v ~app:Fixtures.s_app ~technique
          ~primary:(Fixtures.slot site 0) ~backup:(Fixtures.tape site) ()
      in
      Fixtures.ok
        (D.add design asg ~primary_model:Device_catalog.xp1200
           ~tape_model:Device_catalog.tape_high ())
  in
  let design = D.empty (Fixtures.peer_env ()) in
  if reverse then add_b (add_s design) else add_s (add_b design)

let gen_recipe : recipe QCheck2.Gen.t =
  QCheck2.Gen.(
    pair
      (option (pair (int_range 0 1) (int_range 0 1)))
      (option (pair (int_range 1 2) (int_range 0 1))))

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let fingerprint_tests =
  [ prop "fingerprint collides exactly when Design.equal holds" ~count:400
      QCheck2.Gen.(pair gen_recipe gen_recipe)
      (fun (r1, r2) ->
         let d1 = build_design r1 and d2 = build_design r2 in
         Bool.equal (D.equal d1 d2)
           (String.equal (D.fingerprint d1) (D.fingerprint d2)));
    prop "construction order changes neither equality nor fingerprint"
      gen_recipe
      (fun recipe ->
         let fwd = build_design recipe
         and rev = build_design ~reverse:true recipe in
         D.equal fwd rev
         && String.equal (D.fingerprint fwd) (D.fingerprint rev));
    prop "retuning one backup window changes the fingerprint"
      QCheck2.Gen.(
        pair (pair (int_range 0 1) (int_range 0 1))
          (option (pair (int_range 1 2) (int_range 0 1))))
      (fun ((snap, tape), s_spec) ->
         let d1 = build_design (Some (snap, tape), s_spec)
         and d2 = build_design (Some (1 - snap, tape), s_spec) in
         (not (D.equal d1 d2))
         && not (String.equal (D.fingerprint d1) (D.fingerprint d2)));
    (* Uniform random complete designs: same seed builds structurally
       equal designs from scratch; distinct seeds almost always differ.
       Either way the fingerprint must agree with Design.equal. *)
    prop "sampled designs: fingerprint agrees with Design.equal" ~count:150
      QCheck2.Gen.(pair (int_range 0 20) (int_range 0 20))
      (fun (s1, s2) ->
         let sample seed =
           let rec go attempt =
             let rng = Rng.of_int (seed + (attempt * 7919)) in
             match
               Heuristics.Random_search.sample_design rng (Fixtures.peer_env ())
                 (peer_apps ())
             with
             | Some design -> design
             | None -> go (attempt + 1)
           in
           go 0
         in
         let d1 = sample s1 and d2 = sample s2 in
         Bool.equal (D.equal d1 d2)
           (String.equal (D.fingerprint d1) (D.fingerprint d2))
         && (s1 <> s2 || D.equal d1 d2)) ]

(* ------------------------------------------------------------------ *)
(* Fixed-seed pins: figures recorded before window and growth trials
   became incremental, so the design, its cost and the search work may
   not move; only the split of scenario outcomes between simulated and
   reused may. Pinned at one domain: [Memo] computes outside its lock,
   so a wider pool can race two misses into one extra config solve. *)
(* ------------------------------------------------------------------ *)

let pin_tests =
  [ Alcotest.test_case "quad, 6 apps, quick, seed 7 keeps its pins" `Slow
      (fun () ->
        let module R = Experiments.Request in
        let ok = function
          | Ok v -> v
          | Error e -> Alcotest.fail (R.error_message e)
        in
        let env, apps = ok (R.instance ~apps:6 "quad") in
        let budget = ok (R.budget ~domains:1 ~seed:7 "quick") in
        let obs = Obs.create ~metrics:true () in
        let best =
          R.best
            (ok
               (R.run_solve ~obs
                  { R.env; apps; likelihood; budget; deadline_s = None }))
        in
        let count name =
          Obs.Metrics.count
            (Obs.Metrics.counter (Option.get (Obs.metrics obs)) name)
        in
        Alcotest.(check string) "design digest"
          "9ea447313ec6bbd0e7d1e5f90beb7354"
          (Digest.to_hex
             (Digest.string (Design.Design_io.to_string best.Candidate.design)));
        Alcotest.(check string) "cost" "0x1.8eaff93c9367fp+25"
          (Printf.sprintf "%h" (Money.to_dollars (Candidate.cost best)));
        check_int "solver.evaluations" 743 (count "solver.evaluations");
        let simulated = count "recovery.scenarios" in
        check_int "every scenario outcome simulated or reused" 94_554
          (simulated + count "recovery.reused");
        check_bool
          (Printf.sprintf "at most half simulated (%d)" simulated)
          true (simulated <= 47_277));
    Alcotest.test_case "quad, 6 apps, quick, seed 7 keeps its metered counts"
      `Slow (fun () ->
        (* Counts recorded before instruments became lock-free on lookup,
           engine accounting was held per batch and recovery jobs went
           unnamed: how the metrics are kept may change, what they count
           may not. Every instrument keeps its name too. The exec counts
           are 6 solver.assign and 4 solver.probes maps: configuration
           solves map nothing. *)
        let module R = Experiments.Request in
        let ok = function
          | Ok v -> v
          | Error e -> Alcotest.fail (R.error_message e)
        in
        let env, apps = ok (R.instance ~apps:6 "quad") in
        let budget = ok (R.budget ~domains:1 ~seed:7 "quick") in
        let obs = Obs.create ~metrics:true () in
        ignore
          (R.best
             (ok
                (R.run_solve ~obs
                   { R.env; apps; likelihood; budget; deadline_s = None })));
        let reg = Option.get (Obs.metrics obs) in
        List.iter
          (fun (name, expected) ->
             check_int name expected
               (Obs.Metrics.count (Obs.Metrics.counter reg name)))
          [ ("config.solves", 743); ("config.cache_hits", 264);
            ("config.cache_misses", 479); ("config.window_trials", 6_264);
            ("config.growth_steps", 311); ("cost.evaluations", 9_683);
            ("exec.maps", 10); ("exec.tasks", 53);
            ("recovery.scenarios", 40_109); ("recovery.reused", 54_445);
            ("recovery.affected", 92_527); ("recovery.unrecoverable", 600);
            ("sim.runs", 40_109); ("sim.jobs", 92_527);
            ("sim.events", 216_068); ("solver.evaluations", 743);
            ("solver.probes", 12); ("solver.probe_steps", 36);
            ("solver.probe_improved", 12) ];
        let devices =
          [ "s1/bay0"; "s1/bay1"; "s1<->s2"; "s1<->s4"; "s2/bay0"; "s2/bay1";
            "s3/bay0"; "s3<->s4"; "s4/bay0"; "s4/bay1"; "s4/tape" ]
        in
        Alcotest.(check (list string)) "instrument names"
          (List.sort String.compare
             ([ "config.cache_hits"; "config.cache_misses";
                "config.growth_steps"; "config.solves"; "config.window_trials";
                "cost.evaluations"; "exec.busy_imbalance_s"; "exec.join_s";
                "exec.major_collections"; "exec.major_words"; "exec.map_wall_s";
                "exec.maps"; "exec.minor_collections"; "exec.minor_words";
                "exec.spawn_s"; "exec.task_imbalance"; "exec.tasks";
                "exec.tasks_completed"; "exec.worker_busy_s";
                "exec.worker_idle_s"; "exec.workers_max";
                "memo.lock_acquisitions"; "memo.lock_contended";
                "memo.lock_wait_s"; "memo.lock_wait_total_s";
                "recovery.affected"; "recovery.reused"; "recovery.scenarios";
                "recovery.unrecoverable"; "sim.events"; "sim.jobs";
                "sim.queue_wait_s"; "sim.runs"; "solver.evaluations";
                "solver.probe_improved"; "solver.probe_steps"; "solver.probes" ]
              @ List.map (fun d -> "sim.busy_s." ^ d) devices
              @ List.map (fun d -> "sim.wait_s." ^ d) devices))
          (Obs.Metrics.names reg)) ]

let suites =
  [ ("solver.layout", layout_tests);
    ("solver.config", config_tests);
    ("solver.reconfigure", reconfigure_tests);
    ("solver.design_solver", design_solver_tests);
    ("solver.resolve", resolve_tests);
    ("solver.memo", memo_tests);
    ("solver.fingerprint", fingerprint_tests);
    ("solver.pins", pin_tests) ]
