(* Tests for ds_cost: outlays, expected penalties, full evaluation. *)

open Dependable_storage
open Dependable_storage.Units
module D = Design.Design
module Provision = Design.Provision
module Likelihood = Failure.Likelihood
module Outlay = Cost.Outlay
module Penalty = Cost.Penalty
module Summary = Cost.Summary
module Evaluate = Cost.Evaluate
module Outcome = Recovery.Outcome
module Copy_source = Recovery.Copy_source
module App = Workload.App
module T = Protection.Technique_catalog

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let dollars m = Money.to_dollars m

let prov_of design = Fixtures.feasible (Provision.minimum design)

let summary_tests =
  [ Alcotest.test_case "total sums the components" `Quick (fun () ->
        let s = Summary.v ~outlay:(Money.m 1.) ~outage:(Money.m 2.) ~loss:(Money.m 3.) in
        check_float "6M" 6e6 (dollars (Summary.total s)));
    Alcotest.test_case "add and compare" `Quick (fun () ->
        let a = Summary.v ~outlay:(Money.m 1.) ~outage:Money.zero ~loss:Money.zero in
        let b = Summary.v ~outlay:(Money.m 2.) ~outage:Money.zero ~loss:Money.zero in
        check_bool "a < b" true (Summary.compare_total a b < 0);
        check_float "sum" 3e6 (dollars (Summary.total (Summary.add a b)))) ]

let outlay_tests =
  [ Alcotest.test_case "annual = purchase / 3" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        check_float "amortized" (dollars (Outlay.purchase prov) /. 3.)
          (dollars (Outlay.annual prov)));
    Alcotest.test_case "purchase covers all component classes" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let parts = Outlay.breakdown prov in
        Alcotest.(check (list string)) "names"
          [ "sites"; "disk arrays"; "tape libraries"; "network links"; "compute" ]
          (List.map fst parts);
        (* Two sites, two arrays, one tape lib, one link pair, 3 compute. *)
        let get name = dollars (List.assoc name parts) in
        check_float "sites" (2e6 /. 3.) (get "sites");
        check_bool "arrays positive" true (get "disk arrays" > 0.);
        check_bool "tapes positive" true (get "tape libraries" > 0.);
        check_float "one link" (500_000. /. 3.) (get "network links");
        check_float "compute: 2 primaries + 1 standby" (3. *. 125_000. /. 3.)
          (get "compute");
        let sum = List.fold_left (fun acc (_, m) -> acc +. dollars m) 0. parts in
        check_bool "breakdown sums to annual" true
          (Float.abs (sum -. dollars (Outlay.annual prov)) < 1.));
    Alcotest.test_case "breakdown reacts to provisioning growth" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let pair = Resources.Slot.Pair.v 1 2 in
        match Provision.grow prov (Provision.Grow_link pair) with
        | Some grown ->
          check_bool "more links cost more" true
            (dollars (Outlay.annual grown) > dollars (Outlay.annual prov))
        | None -> Alcotest.fail "grow failed");
    Alcotest.test_case "app_share positive and bounded" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let share1 = dollars (Outlay.app_share prov 1) in
        let share4 = dollars (Outlay.app_share prov 4) in
        check_bool "positive" true (share1 > 0. && share4 > 0.);
        check_bool "B costs more than S" true (share1 > share4);
        check_bool "bounded by total" true
          (share1 +. share4 <= dollars (Outlay.annual prov) +. 1.));
    Alcotest.test_case "app_share of unknown app is zero" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        check_float "zero" 0. (dollars (Outlay.app_share prov 99))) ]

let penalty_tests =
  [ Alcotest.test_case "of_outcome weights by annual rate" `Quick (fun () ->
        let outcome =
          { Outcome.app = Fixtures.b_app; mode = Outcome.Failed_over;
            recovery_time = Time.hours 1.; loss_time = Time.hours 2. }
        in
        let outage, loss = Penalty.of_outcome ~annual_rate:0.5 outcome in
        (* B: outage $5M/hr, loss $5M/hr. *)
        check_float "outage" (5e6 *. 0.5) (dollars outage);
        check_float "loss" (2. *. 5e6 *. 0.5) (dollars loss));
    Alcotest.test_case "expected_annual covers every app" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let p = Penalty.expected_annual prov Likelihood.default in
        Alcotest.(check (list int)) "apps" [ 1; 4 ]
          (List.map (fun (x : Penalty.per_app) -> x.Penalty.app.App.id)
             p.Penalty.by_app);
        check_bool "totals positive" true
          (dollars p.Penalty.outage_total > 0. && dollars p.Penalty.loss_total > 0.);
        let sum_outage =
          List.fold_left (fun acc (x : Penalty.per_app) -> acc +. dollars x.Penalty.outage)
            0. p.Penalty.by_app
        in
        check_float "by_app sums to total" (dollars p.Penalty.outage_total) sum_outage);
    Alcotest.test_case "higher likelihood means higher penalties" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let base = Penalty.expected_annual prov Likelihood.default in
        let double =
          Penalty.expected_annual prov
            (Likelihood.v ~data_object_per_year:(2. /. 3.)
               ~array_per_year:(2. /. 3.) ~site_per_year:0.4)
        in
        check_float "outage doubles" (2. *. dollars base.Penalty.outage_total)
          (dollars double.Penalty.outage_total);
        check_float "loss doubles" (2. *. dollars base.Penalty.loss_total)
          (dollars double.Penalty.loss_total)) ]

let evaluate_tests =
  [ Alcotest.test_case "design evaluates at minimum provisioning" `Quick (fun () ->
        match Evaluate.design (Fixtures.two_app_design ()) Likelihood.default with
        | Ok eval ->
          check_bool "total = summary" true
            (Float.abs (dollars (Evaluate.total eval)
                        -. dollars (Summary.total eval.Evaluate.summary)) < 1e-6)
        | Error e ->
          Alcotest.failf "infeasible: %a" Provision.pp_infeasibility e);
    Alcotest.test_case "infeasible design reports the constraint" `Quick (fun () ->
        let big =
          App.v ~id:9 ~name:"huge" ~class_tag:"W" ~outage_per_hour:(Money.k 1.)
            ~loss_per_hour:(Money.k 1.) ~data_size:(Size.tb 25.)
            ~avg_update:(Rate.mb_per_sec 1.) ~peak_update:(Rate.mb_per_sec 2.)
            ~avg_access:(Rate.mb_per_sec 5.) ()
        in
        let asg =
          Design.Assignment.v ~app:big ~technique:T.tape_backup
            ~primary:(Fixtures.slot 1 0) ~backup:(Fixtures.tape 1) ()
        in
        let design =
          Fixtures.ok
            (D.add (D.empty (Fixtures.peer_env ())) asg
               ~primary_model:Resources.Device_catalog.msa1500
               ~tape_model:Resources.Device_catalog.tape_high ())
        in
        check_bool "error" true
          (Result.is_error (Evaluate.design design Likelihood.default)));
    Alcotest.test_case "app_burden includes penalties and outlay share" `Quick
      (fun () ->
         match Evaluate.design (Fixtures.two_app_design ()) Likelihood.default with
         | Ok eval ->
           let burden = dollars (Evaluate.app_burden eval 1) in
           let share = dollars (Outlay.app_share eval.Evaluate.provision 1) in
           check_bool "burden >= outlay share" true (burden >= share)
         | Error _ -> Alcotest.fail "infeasible");
    Alcotest.test_case "growing bandwidth cannot worsen penalties" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let base = Evaluate.provisioned prov Likelihood.default in
        let pair = Resources.Slot.Pair.v 1 2 in
        match Provision.grow prov (Provision.Grow_link pair) with
        | Some grown ->
          let after = Evaluate.provisioned grown Likelihood.default in
          let penalties e =
            dollars e.Evaluate.summary.Summary.outage_penalty
            +. dollars e.Evaluate.summary.Summary.loss_penalty
          in
          check_bool "penalties not worse" true (penalties after <= penalties base +. 1e-6)
        | None -> Alcotest.fail "grow failed") ]

(* The incremental evaluator against its from-scratch oracle. Inputs are
   fixed-seed solved designs plus one partial greedy design; every
   default-menu window combination of every backup-bearing app and every
   growth move is costed both ways and must agree bit for bit. *)
module Simulate = Recovery.Simulate
module Scenario = Failure.Scenario
module Assignment = Design.Assignment
module Backup = Protection.Backup
module Technique = Protection.Technique
module Candidate = Solver.Candidate
module Config_solver = Solver.Config_solver
module Request = Experiments.Request

let likelihood = Likelihood.default

let solved ?apps env ~seed () =
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Request.error_message e)
  in
  let env, apps = ok (Request.instance ?apps env) in
  let budget = ok (Request.budget ~seed "quick") in
  Request.best
    (ok
       (Request.run_solve
          { Request.env; apps; likelihood; budget; deadline_s = None }))

(* Greedy placement of the first three of the quad six-app mix: a design
   that leaves apps out. *)
let partial_greedy () =
  match Request.instance ~apps:6 "quad" with
  | Error e -> Alcotest.fail (Request.error_message e)
  | Ok (env, apps) ->
    let params = Experiments.Budgets.quick.Experiments.Budgets.solver in
    let state =
      Solver.Reconfigure.state ~options:params.Solver.Design_solver.options
        ~rng:(Prng.Rng.of_int 5) likelihood
    in
    (match
       Solver.Design_solver.greedy state params env
         (List.filteri (fun i _ -> i < 3) apps)
     with
     | Some c -> c
     | None -> Alcotest.fail "greedy found no design")

(* The two-app fixture shares one array below its controller ceiling, so
   a window trial on one app re-sizes the array and moves its bandwidth
   under the other app's recovery: the case the device rule exists for,
   which capacity-sized solved designs (at the ceiling) rarely reach. *)
let shared_array () =
  let design = Fixtures.two_app_design () in
  Candidate.v design (Fixtures.feasible (Evaluate.design design likelihood))

let oracle_inputs =
  lazy
    [ ("quad 6 apps seed 7", solved ~apps:6 "quad" ~seed:7 ());
      ("quad 6 apps seed 11", solved ~apps:6 "quad" ~seed:11 ());
      ("peer seed 3", solved "peer" ~seed:3 ());
      ("partial greedy", partial_greedy ());
      ("shared array", shared_array ()) ]

let footprints_of design =
  Array.of_list
    (List.map (Simulate.footprint design) (Scenario.enumerate likelihood design))

(* Bit-for-bit agreement of two evaluations: totals, every per-app entry
   and every scenario's outcome list. *)
let agrees (a : Evaluate.t) (b : Evaluate.t) =
  let bits m = Int64.bits_of_float (Money.to_dollars m) in
  let pa = a.Evaluate.penalty and pb = b.Evaluate.penalty in
  bits pa.Penalty.outage_total = bits pb.Penalty.outage_total
  && bits pa.Penalty.loss_total = bits pb.Penalty.loss_total
  && bits (Evaluate.total a) = bits (Evaluate.total b)
  && List.length pa.Penalty.by_app = List.length pb.Penalty.by_app
  && List.for_all2
       (fun (x : Penalty.per_app) (y : Penalty.per_app) ->
          x.Penalty.app.App.id = y.Penalty.app.App.id
          && bits x.Penalty.outage = bits y.Penalty.outage
          && bits x.Penalty.loss = bits y.Penalty.loss)
       pa.Penalty.by_app pb.Penalty.by_app
  && List.length pa.Penalty.details = List.length pb.Penalty.details
  && List.for_all2
       (fun (s, o) (s', o') -> s = s' && o = o')
       pa.Penalty.details pb.Penalty.details

let window_combos =
  let o = Config_solver.default_options in
  List.concat_map
    (fun sw ->
       List.concat_map
         (fun tw -> List.map (fun fe -> (sw, tw, fe)) o.Config_solver.fulls_menu)
         o.Config_solver.tape_menu)
    o.Config_solver.snapshot_menu

let with_windows design (asg : Assignment.t) (sw, tw, fe) =
  match asg.Assignment.technique.Technique.backup with
  | None -> None
  | Some chain ->
    let chain =
      Backup.with_fulls_every
        (Backup.with_tape_win (Backup.with_snapshot_win chain sw) tw)
        fe
    in
    D.swap_technique design asg.Assignment.app.App.id
      (Technique.with_backup_chain asg.Assignment.technique chain)

(* Window trials app by app, each app's trials costed from the previous
   app's last trial — the chain the configuration solver builds when a
   trial wins. Returns the number of trials checked. *)
let check_windows name design =
  let footprints = footprints_of design in
  let base = Fixtures.feasible (Evaluate.design design likelihood) in
  let checked = ref 0 in
  ignore
    (List.fold_left
       (fun (design, base) (asg : Assignment.t) ->
          List.fold_left
            (fun (design, base) combo ->
               match with_windows design asg combo with
               | None -> (design, base)
               | Some trial ->
                 (match Provision.minimum trial with
                  | Error _ -> (design, base)
                  | Ok prov ->
                    let got =
                      Evaluate.update ~footprints base
                        (Evaluate.Windows asg.Assignment.app.App.id) prov
                    in
                    incr checked;
                    if not (agrees (Evaluate.provisioned prov likelihood) got)
                    then
                      Alcotest.failf "%s: window trial on app %d disagrees" name
                        asg.Assignment.app.App.id;
                    (trial, got)))
            (design, base) window_combos)
       (design, base)
       (List.filter
          (fun (a : Assignment.t) -> Technique.has_backup a.Assignment.technique)
          (D.assignments design)));
  !checked

(* [Provision.rewindow] against its oracle [Provision.minimum], on the
   same window trials: unit maps equal, demand entries equal bit for
   bit, the same constraint named when a trial is infeasible. Window
   trials never move a chain's backup window, hence its drive and link
   bandwidth; each combination is also tried with the window cut to a
   quarter, so the library's drives and a remote library's link are
   re-sized too. Returns (trials checked, infeasible among them). *)
module Slot = Resources.Slot
module Demand = Design.Demand

let same_provision (a : Provision.t) (b : Provision.t) =
  let size x = Int64.bits_of_float (Size.to_bytes x) in
  let rate x = Int64.bits_of_float (Rate.to_bytes_per_sec x) in
  let da = a.Provision.demand and db = b.Provision.demand in
  Slot.Array_slot.Map.equal Int.equal a.Provision.array_units b.Provision.array_units
  && Slot.Tape_slot.Map.equal Int.equal a.Provision.tape_drives b.Provision.tape_drives
  && Slot.Tape_slot.Map.equal Int.equal a.Provision.tape_cartridges
       b.Provision.tape_cartridges
  && Slot.Pair.Map.equal Int.equal a.Provision.link_units b.Provision.link_units
  && Resources.Site.Id_map.equal Int.equal a.Provision.compute b.Provision.compute
  && Slot.Array_slot.Map.equal
       (fun (x : Demand.array_use) (y : Demand.array_use) ->
          size x.Demand.capacity = size y.Demand.capacity
          && rate x.Demand.bandwidth = rate y.Demand.bandwidth)
       da.Demand.arrays db.Demand.arrays
  && Slot.Tape_slot.Map.equal
       (fun (x : Demand.tape_use) (y : Demand.tape_use) ->
          size x.Demand.tape_capacity = size y.Demand.tape_capacity
          && rate x.Demand.tape_bandwidth = rate y.Demand.tape_bandwidth)
       da.Demand.tapes db.Demand.tapes
  && Slot.Pair.Map.equal (fun x y -> rate x = rate y) da.Demand.links db.Demand.links
  && Resources.Site.Id_map.equal Int.equal da.Demand.compute db.Demand.compute
  && D.equal a.Provision.design b.Provision.design

let quarter_window design id =
  match D.find design id with
  | Some { Assignment.technique = { Technique.backup = Some c; _ } as t; _ } ->
    let c = { c with Backup.backup_window = Time.scale 0.25 c.Backup.backup_window } in
    D.swap_technique design id (Technique.with_backup_chain t c)
  | _ -> None

let check_rewindow name design =
  let checked = ref 0 and infeasible = ref 0 in
  (* One trial from [base]; its minimum provisioning when feasible. *)
  let check base id trial =
    incr checked;
    match Provision.minimum trial, Provision.rewindow base trial id with
    | Ok want, Ok got ->
      if not (same_provision want got) then
        Alcotest.failf "%s: app %d's trial re-sized differently" name id;
      Some want
    | Error want, Error got ->
      incr infeasible;
      if want <> got then
        Alcotest.failf "%s: app %d's trial broke another constraint" name id;
      None
    | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.failf "%s: app %d's trial feasible one way only" name id
  in
  ignore
    (List.fold_left
       (fun (design, base) (asg : Assignment.t) ->
          let id = asg.Assignment.app.App.id in
          List.fold_left
            (fun (design, base) combo ->
               match with_windows design asg combo with
               | None -> (design, base)
               | Some trial ->
                 Option.iter
                   (fun quartered -> ignore (check base id quartered))
                   (quarter_window trial id);
                 (match check base id trial with
                  | Some prov -> (trial, prov)
                  | None -> (design, base)))
            (design, base) window_combos)
       (design, Fixtures.feasible (Provision.minimum design))
       (List.filter
          (fun (a : Assignment.t) -> Technique.has_backup a.Assignment.technique)
          (D.assignments design)));
  (!checked, !infeasible)

(* Every growth move from [base], then every move from the first move's
   result — an incremental base, as in the solver's later rounds.
   [report moves i] is the move handed to [update] for [moves.(i)];
   the default reports it honestly. Returns (moves checked,
   disagreements). *)
let check_growth ?(report = Array.get) footprints base =
  let checked = ref 0 and wrong = ref 0 in
  let round base =
    let moves = Array.of_list (Provision.growth_moves base.Evaluate.provision) in
    Array.to_list
      (Array.mapi
         (fun i g ->
            match Provision.grow base.Evaluate.provision g with
            | None -> None
            | Some prov ->
              let got =
                Evaluate.update ~footprints base
                  (Evaluate.Growth (report moves i)) prov
              in
              incr checked;
              if not (agrees (Evaluate.provisioned prov likelihood) got) then
                incr wrong;
              Some got)
         moves)
  in
  (match List.find_map Fun.id (round base) with
   | Some next -> ignore (round next)
   | None -> ());
  (!checked, !wrong)

let incremental_tests =
  [ Alcotest.test_case "window trials agree with a from-scratch evaluation"
      `Slow (fun () ->
        List.iter
          (fun (name, (c : Candidate.t)) ->
             check_bool (name ^ ": some window trials") true
               (check_windows name c.Candidate.design > 0))
          (Lazy.force oracle_inputs));
    Alcotest.test_case "window trials re-size as the minimum provisioning"
      `Slow (fun () ->
        let infeasible =
          List.fold_left
            (fun acc (name, (c : Candidate.t)) ->
               let checked, infeasible = check_rewindow name c.Candidate.design in
               check_bool (name ^ ": some window trials") true (checked > 0);
               acc + infeasible)
            0 (Lazy.force oracle_inputs)
        in
        check_bool "some trials infeasible" true (infeasible > 0));
    Alcotest.test_case "growth moves agree with a from-scratch evaluation"
      `Slow (fun () ->
        List.iter
          (fun (name, (c : Candidate.t)) ->
             let design = c.Candidate.design in
             let footprints = footprints_of design in
             List.iter
               (fun (label, base) ->
                  let checked, wrong = check_growth footprints base in
                  check_bool (Printf.sprintf "%s, %s: some moves" name label)
                    true (checked > 0);
                  Alcotest.(check int)
                    (Printf.sprintf "%s, %s: disagreements" name label)
                    0 wrong)
               [ ("minimum", Fixtures.feasible (Evaluate.design design likelihood));
                 ("solved",
                  Evaluate.provisioned c.Candidate.eval.Evaluate.provision
                    likelihood) ])
          (Lazy.force oracle_inputs));
    Alcotest.test_case "a move reported on the wrong device disagrees" `Slow
      (fun () ->
        (* The oracle can fail: crediting each growth move to the next
           device in the move list leaves the grown device's scenarios
           stale somewhere. *)
        let wrong =
          List.fold_left
            (fun acc (_, (c : Candidate.t)) ->
               let design = c.Candidate.design in
               let base = Fixtures.feasible (Evaluate.design design likelihood) in
               let next moves i = moves.((i + 1) mod Array.length moves) in
               acc + snd (check_growth ~report:next (footprints_of design) base))
            0 (Lazy.force oracle_inputs)
        in
        check_bool "some disagreement" true (wrong > 0));
    Alcotest.test_case "footprints must match the base's scenarios" `Quick
      (fun () ->
        let base =
          Fixtures.feasible (Evaluate.design (Fixtures.two_app_design ()) likelihood)
        in
        Alcotest.check_raises "length"
          (Invalid_argument
             "Evaluate.update: one footprint per scenario of the base")
          (fun () ->
             ignore
               (Evaluate.update ~footprints:[||] base (Evaluate.Windows 1)
                  base.Evaluate.provision))) ]

let suites =
  [ ("cost.summary", summary_tests);
    ("cost.outlay", outlay_tests);
    ("cost.penalty", penalty_tests);
    ("cost.evaluate", evaluate_tests);
    ("cost.incremental", incremental_tests) ]
