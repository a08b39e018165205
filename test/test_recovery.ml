(* Tests for ds_recovery: surviving copies, staleness, recovery paths,
   contention, and the full scenario simulator. *)

open Dependable_storage
open Dependable_storage.Units
module T = Protection.Technique_catalog
module Backup = Protection.Backup
module Scenario = Failure.Scenario
module Likelihood = Failure.Likelihood
module Params = Recovery.Recovery_params
module Copy_source = Recovery.Copy_source
module Outcome = Recovery.Outcome
module Simulate = Recovery.Simulate
module Provision = Design.Provision
module D = Design.Design
module Assignment = Design.Assignment
module App = Workload.App

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params = Params.default

let full_asg technique =
  Assignment.v ~app:Fixtures.b_app ~technique ~primary:(Fixtures.slot 1 0)
    ~mirror:(Fixtures.slot 2 0) ~backup:(Fixtures.tape 1) ()

let kinds copies = List.map (fun c -> c.Copy_source.kind) copies

let has kind copies = List.mem kind (kinds copies)

let surviving scope technique =
  Copy_source.surviving ~params ~tape_propagation:(Time.hours 2.)
    (full_asg technique) scope

let copy_tests =
  [ Alcotest.test_case "object failure: corruption kills the mirror" `Quick
      (fun () ->
         let copies = surviving (Scenario.Data_object 1) T.sync_failover_backup in
         check_bool "no mirror" false (has Copy_source.Mirror copies);
         check_bool "snapshot lives" true (has Copy_source.Snapshot copies);
         check_bool "tape lives" true (has Copy_source.Tape copies);
         check_bool "vault lives" true (has Copy_source.Vault copies));
    Alcotest.test_case "array failure: snapshots die with the array" `Quick
      (fun () ->
         let copies =
           surviving (Scenario.Array_failure (Fixtures.slot 1 0))
             T.sync_failover_backup
         in
         check_bool "no snapshot" false (has Copy_source.Snapshot copies);
         check_bool "mirror lives" true (has Copy_source.Mirror copies);
         check_bool "tape lives" true (has Copy_source.Tape copies));
    Alcotest.test_case "site disaster: local tape dies, vault survives" `Quick
      (fun () ->
         let copies =
           surviving (Scenario.Site_disaster 1) T.sync_failover_backup
         in
         check_bool "no snapshot" false (has Copy_source.Snapshot copies);
         check_bool "no local tape" false (has Copy_source.Tape copies);
         check_bool "mirror lives" true (has Copy_source.Mirror copies);
         check_bool "vault lives" true (has Copy_source.Vault copies));
    Alcotest.test_case "remote tape survives a primary-site disaster" `Quick
      (fun () ->
         let asg =
           Assignment.v ~app:Fixtures.b_app ~technique:T.tape_backup
             ~primary:(Fixtures.slot 1 0) ~backup:(Fixtures.tape 2) ()
         in
         let copies =
           Copy_source.surviving ~params ~tape_propagation:(Time.hours 2.) asg
             (Scenario.Site_disaster 1)
         in
         check_bool "remote tape lives" true (has Copy_source.Tape copies));
    Alcotest.test_case "mirror-only technique has nothing after object failure"
      `Quick (fun () ->
          let asg =
            Assignment.v ~app:Fixtures.b_app ~technique:T.sync_failover
              ~primary:(Fixtures.slot 1 0) ~mirror:(Fixtures.slot 2 0) ()
          in
          let copies =
            Copy_source.surviving ~params ~tape_propagation:Time.zero asg
              (Scenario.Data_object 1)
          in
          check_int "none" 0 (List.length copies));
    Alcotest.test_case "best picks minimum staleness" `Quick (fun () ->
        let copies =
          surviving (Scenario.Array_failure (Fixtures.slot 1 0))
            T.async_failover_backup
        in
        match Copy_source.best copies with
        | Some { Copy_source.kind = Copy_source.Mirror; staleness } ->
          check_bool "10min" true
            (Float.abs (Time.to_minutes staleness -. 10.) < 1e-9)
        | _ -> Alcotest.fail "expected the mirror");
    Alcotest.test_case "best of nothing is None" `Quick (fun () ->
        check_bool "none" true (Copy_source.best [] = None));
    Alcotest.test_case "staleness ordering mirror < snapshot < tape < vault"
      `Quick (fun () ->
          let copies = surviving (Scenario.Array_failure (Fixtures.slot 2 1))
              T.sync_reconstruct_backup in
          (* Scope elsewhere: everything survives. *)
          let stale kind =
            List.find (fun c -> c.Copy_source.kind = kind) copies
            |> fun c -> c.Copy_source.staleness
          in
          check_bool "mirror freshest" true
            Time.(stale Copy_source.Mirror < stale Copy_source.Snapshot);
          check_bool "snapshot fresher than tape" true
            Time.(stale Copy_source.Snapshot < stale Copy_source.Tape);
          check_bool "tape fresher than vault" true
            Time.(stale Copy_source.Tape < stale Copy_source.Vault));
    Alcotest.test_case "vault staleness modes" `Quick (fun () ->
        let tape_only =
          Assignment.v ~app:Fixtures.s_app ~technique:T.tape_backup
            ~primary:(Fixtures.slot 1 0) ~backup:(Fixtures.tape 1) ()
        in
        let cyc =
          Copy_source.surviving ~params:{ params with Params.vault_mode = Params.Cycle }
            ~tape_propagation:Time.zero tape_only (Scenario.Site_disaster 1)
        in
        let cont =
          Copy_source.surviving
            ~params:{ params with Params.vault_mode = Params.Continuous }
            ~tape_propagation:Time.zero tape_only (Scenario.Site_disaster 1)
        in
        let vault copies =
          List.find (fun c -> c.Copy_source.kind = Copy_source.Vault) copies
        in
        check_bool "continuous is fresher" true
          Time.((vault cont).Copy_source.staleness
                < (vault cyc).Copy_source.staleness)) ]

let prov_of design = Fixtures.feasible (Provision.minimum design)

let outcome_for outcomes id =
  List.find (fun (o : Outcome.t) -> o.Outcome.app.App.id = id) outcomes

let scenario_of _design scope rate = { Scenario.scope; annual_rate = rate }

let simulate_tests =
  [ Alcotest.test_case "failover recovery is minutes, loss is mirror window"
      `Quick (fun () ->
          let design = Fixtures.two_app_design () in
          let prov = prov_of design in
          let outcomes =
            Simulate.scenario prov
              (scenario_of design (Scenario.Array_failure (Fixtures.slot 1 0)) 1.)
          in
          let b = outcome_for outcomes 1 in
          check_bool "failed over" true (b.Outcome.mode = Outcome.Failed_over);
          check_bool "15 minutes" true
            (Float.abs (Time.to_minutes b.Outcome.recovery_time -. 15.) < 1e-6);
          check_bool "10 min loss (async)" true
            (Float.abs (Time.to_minutes b.Outcome.loss_time -. 10.) < 1e-6));
    Alcotest.test_case "tape-only app restores from tape after array failure"
      `Quick (fun () ->
          let design = Fixtures.two_app_design () in
          let prov = prov_of design in
          let outcomes =
            Simulate.scenario prov
              (scenario_of design (Scenario.Array_failure (Fixtures.slot 1 0)) 1.)
          in
          let s = outcome_for outcomes 4 in
          check_bool "restored from tape" true
            (s.Outcome.mode = Outcome.Restored Copy_source.Tape);
          (* At least the repair time. *)
          check_bool "after repair" true
            Time.(params.Params.array_repair <= s.Outcome.recovery_time));
    Alcotest.test_case "object failure restores from snapshot, no repair" `Quick
      (fun () ->
         let design = Fixtures.two_app_design () in
         let prov = prov_of design in
         let outcomes =
           Simulate.scenario prov
             (scenario_of design (Scenario.Data_object 4) 1.)
         in
         let s = outcome_for outcomes 4 in
         check_bool "snapshot" true
           (s.Outcome.mode = Outcome.Restored Copy_source.Snapshot);
         check_bool "faster than a repair" true
           Time.(s.Outcome.recovery_time < params.Params.array_repair);
         check_bool "loss = snapshot window" true
           (Float.abs (Time.to_hours s.Outcome.loss_time -. 12.) < 1e-6));
    Alcotest.test_case "mirror-only app is unrecoverable after object failure"
      `Quick (fun () ->
          let design = D.empty (Fixtures.peer_env ()) in
          let asg =
            Assignment.v ~app:Fixtures.b_app ~technique:T.sync_failover
              ~primary:(Fixtures.slot 1 0) ~mirror:(Fixtures.slot 2 0) ()
          in
          let design =
            Fixtures.ok
              (D.add design asg
                 ~primary_model:Resources.Device_catalog.xp1200
                 ~mirror_model:Resources.Device_catalog.xp1200 ())
          in
          let prov = prov_of design in
          let outcomes =
            Simulate.scenario prov (scenario_of design (Scenario.Data_object 1) 1.)
          in
          let b = outcome_for outcomes 1 in
          check_bool "unrecoverable" true (b.Outcome.mode = Outcome.Unrecoverable);
          check_bool "horizon loss" true
            (Time.equal b.Outcome.loss_time params.Params.loss_horizon));
    Alcotest.test_case "site disaster: reconstruct promotes the mirror" `Quick
      (fun () ->
         let design = D.empty (Fixtures.peer_env ()) in
         let design =
           Fixtures.ok
             (Fixtures.assign_full ~technique:T.sync_reconstruct_backup
                Fixtures.b_app design)
         in
         let prov = prov_of design in
         let outcomes =
           Simulate.scenario prov (scenario_of design (Scenario.Site_disaster 1) 1.)
         in
         let b = outcome_for outcomes 1 in
         check_bool "restored from mirror" true
           (b.Outcome.mode = Outcome.Restored Copy_source.Mirror);
         let expected =
           Time.add params.Params.detection
             (Time.add params.Params.site_reconfig params.Params.mirror_promote)
         in
         check_bool "reconfig + promote" true
           (Float.abs (Time.to_hours b.Outcome.recovery_time
                       -. Time.to_hours expected) < 1e-6));
    Alcotest.test_case "site disaster: tape-only app waits for the vault" `Quick
      (fun () ->
         let design = D.empty (Fixtures.peer_env ()) in
         let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.s_app design) in
         let prov = prov_of design in
         let outcomes =
           Simulate.scenario prov (scenario_of design (Scenario.Site_disaster 1) 1.)
         in
         let s = outcome_for outcomes 4 in
         check_bool "vault" true (s.Outcome.mode = Outcome.Restored Copy_source.Vault);
         check_bool "site rebuild + vault fetch" true
           Time.(Time.add params.Params.site_rebuild params.Params.vault_fetch
                 <= s.Outcome.recovery_time));
    Alcotest.test_case "unaffected scenarios yield no outcomes" `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let prov = prov_of design in
        check_int "empty" 0
          (List.length
             (Simulate.scenario prov
                (scenario_of design (Scenario.Site_disaster 2) 1.))));
    Alcotest.test_case "contention: the lower-priority app waits" `Quick (fun () ->
        (* B and C share the primary array and both reconstruct from tape
           after an array failure: the tape library serializes them. *)
        let design = D.empty (Fixtures.peer_env ()) in
        let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.b_app design) in
        let design = Fixtures.ok (Fixtures.assign_tape_only Fixtures.s_app design) in
        let prov = prov_of design in
        let outcomes =
          Simulate.scenario prov
            (scenario_of design (Scenario.Array_failure (Fixtures.slot 1 0)) 1.)
        in
        let b = outcome_for outcomes 1 and s = outcome_for outcomes 4 in
        (* B's penalty rates dominate: it must not finish after S. *)
        check_bool "priority order" true
          Time.(b.Outcome.recovery_time <= s.Outcome.recovery_time);
        check_bool "S actually waited" true
          Time.(b.Outcome.recovery_time < s.Outcome.recovery_time));
    Alcotest.test_case "all enumerates and simulates every scenario" `Quick
      (fun () ->
         let design = Fixtures.two_app_design () in
         let prov = prov_of design in
         let results = Simulate.all prov Likelihood.default in
         check_int "four scenarios" 4 (List.length results);
         List.iter
           (fun ((scen : Scenario.t), outcomes) ->
              let expected =
                List.length (Scenario.affected design scen.Scenario.scope)
              in
              check_int "outcomes per scenario" expected (List.length outcomes))
           results);
    Alcotest.test_case "tape propagation reflects provisioned drives" `Quick
      (fun () ->
         let design = Fixtures.two_app_design () in
         let prov = prov_of design in
         let asg = List.hd (D.assignments design) in
         let prop = Simulate.tape_propagation prov asg in
         check_bool "positive, finite" true
           (Time.is_finite prop && not (Time.is_zero prop)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"recovery never beats the detection delay"
         ~count:30
         QCheck2.Gen.(int_range 1 4)
         (fun n ->
            let design = Fixtures.two_app_design () in
            let prov = prov_of design in
            let scope =
              match n with
              | 1 -> Scenario.Data_object 1
              | 2 -> Scenario.Data_object 4
              | 3 -> Scenario.Array_failure (Fixtures.slot 1 0)
              | _ -> Scenario.Site_disaster 1
            in
            Simulate.scenario prov (scenario_of design scope 1.)
            |> List.for_all (fun (o : Outcome.t) ->
                Time.(params.Params.detection <= o.Outcome.recovery_time)))) ]

(* A footprint must name every device a scenario's recovery can read:
   the incremental evaluator keeps a scenario's outcomes whenever a move
   touches none of them. *)
let footprint_tests =
  let sort_arrays = List.sort_uniq Resources.Slot.Array_slot.compare in
  let sort_tapes = List.sort_uniq Resources.Slot.Tape_slot.compare in
  let sort_links = List.sort_uniq Resources.Slot.Pair.compare in
  [ Alcotest.test_case "an assignment's footprint is every device it reads"
      `Quick (fun () ->
        let mirrored = full_asg T.async_reconstruct_backup in
        let remote_tape =
          Assignment.v ~app:Fixtures.s_app ~technique:T.tape_backup
            ~primary:(Fixtures.slot 1 1) ~backup:(Fixtures.tape 2) ()
        in
        let fp = Simulate.footprint_of [ mirrored; remote_tape ] in
        Alcotest.(check (list int)) "apps" [ 1; 4 ] fp.Simulate.apps;
        check_bool "primaries and the mirror" true
          (sort_arrays fp.Simulate.arrays
           = sort_arrays [ Fixtures.slot 1 0; Fixtures.slot 2 0; Fixtures.slot 1 1 ]);
        check_bool "both libraries" true
          (sort_tapes fp.Simulate.tapes
           = sort_tapes [ Fixtures.tape 1; Fixtures.tape 2 ]);
        check_bool "the mirror pair and the remote backup pair" true
          (sort_links fp.Simulate.links = [ Resources.Slot.Pair.v 1 2 ]
           && List.length fp.Simulate.links = 2));
    Alcotest.test_case "a scenario's footprint covers its affected apps"
      `Quick (fun () ->
        let design = Fixtures.two_app_design () in
        let footprint scope =
          Simulate.footprint design { Scenario.scope; annual_rate = 1. }
        in
        Alcotest.(check (list int)) "site disaster" [ 1; 4 ]
          (footprint (Scenario.Site_disaster 1)).Simulate.apps;
        Alcotest.(check (list int)) "data object" [ 4 ]
          (footprint (Scenario.Data_object 4)).Simulate.apps;
        let empty = footprint (Scenario.Site_disaster 2) in
        check_bool "nothing affected, nothing read" true
          (empty.Simulate.apps = [] && empty.Simulate.arrays = []
           && empty.Simulate.tapes = [] && empty.Simulate.links = [])) ]

let suites =
  [ ("recovery.copies", copy_tests);
    ("recovery.simulate", simulate_tests);
    ("recovery.footprint", footprint_tests) ]
