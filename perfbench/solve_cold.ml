(* solve-cold: the paper's tool without process start. Each operation is
   one quick-budget Design_solver.solve of the same problem shape (four
   fully connected sites, six Table 1 applications — what
   `dstool solve --env quad --apps 6 --budget quick --seed S` solves),
   with a fresh per-solve memo, obs off and one domain. *)

open Dependable_storage
module Lib = Perfbench_lib
module Design_solver = Solver.Design_solver
module Candidate = Solver.Candidate
module Money = Units.Money

let inputs = 100
let min_ops = inputs
let rechecked = 3
let setups = 3
let warmup_seed = 1
let likelihood = Failure.Likelihood.default

type problem = { env : Resources.Env.t; apps : Workload.App.t list }

let problem () =
  { env = Experiments.Envs.quad_sites (); apps = Workload.Workload_catalog.mix ~count:6 }

let params seed =
  { Experiments.Budgets.quick.Experiments.Budgets.solver with
    Design_solver.seed; domains = 1 }

let solve ?obs p seed = Design_solver.solve ~params:(params seed) ?obs p.env p.apps likelihood

(* Set-up: generate the inputs, then one untimed warm-up solve of a
   fixed seed (first-touch heap growth and lazy initialisation). *)
let setup ~seed () =
  let seeds = Lib.Gen.solver_seeds ~seed ~count:inputs in
  let p = problem () in
  ignore (solve p warmup_seed);
  (seeds, p)

let bytes (o : Design_solver.outcome) =
  Design.Design_io.to_string o.Design_solver.best.Candidate.design

let run ~seed ~seconds =
  let (seeds, p), setup_s =
    Report.repeated_setup ~times:setups (fun () -> Lib.Yardstick.timed_step (setup ~seed))
  in
  let tally = Lib.Tally.create () in
  let results = ref [] in
  let loop =
    Lib.Loop.run ~seconds ~min_ops ~cap_s:120.
      (fun i ->
        let op = Lib.Tally.attempt tally in
        let r =
          try solve p seeds.(i mod inputs)
          with e ->
            Lib.Tally.fail tally op (Printexc.to_string e);
            None
        in
        results := r :: !results)
  in
  let peak = Report.peak_rss_mb "self" in
  Report.host_line loop;
  (* Output checks, after the timed loop: a design per operation, and
     every returned design re-costed from scratch to exactly its
     reported cost. *)
  let first = Hashtbl.create inputs in
  List.iteri
    (fun op r ->
      match r with
      | None -> Lib.Tally.fail tally op "no design returned"
      | Some o ->
        if not (Hashtbl.mem first (op mod inputs)) then
          Hashtbl.add first (op mod inputs) (bytes o, Candidate.cost o.Design_solver.best);
        Lib.Tally.check tally op
          (Report.reproduces_cost likelihood o.Design_solver.best)
          (lazy "re-evaluating the design does not reproduce its cost"))
    (List.rev !results);
  (* Determinism, untimed: solving the first inputs again returns their
     designs byte for byte. *)
  for k = 0 to rechecked - 1 do
    match Hashtbl.find_opt first k with
    | None -> ()
    | Some (b, _) ->
      Lib.Tally.check tally k
        ((try Option.map bytes (solve p seeds.(k)) with _ -> None) = Some b)
        (lazy "solving an input again returned a different design")
  done;
  let complete = Hashtbl.length first = inputs in
  let per_input f = List.init inputs (fun k -> Option.map f (Hashtbl.find_opt first k)) in
  let cost_usd =
    List.fold_left (fun acc c -> acc +. Option.value ~default:0. c) 0.
      (per_input (fun (_, c) -> Money.to_dollars c))
  in
  Report.info "workload solve-cold: %d operations, %d distinct inputs, design digest %s"
    (Lib.Loop.ops loop) (Hashtbl.length first)
    (Report.digest (List.filter_map Fun.id (per_input fst)));
  match Lib.Loop.end_to_end loop ~setup:setup_s with
  | Error msg -> Error msg
  | Ok e2e ->
    Ok (tally, complete, e2e @ [ ("cost_usd", cost_usd); ("peak_rss_mb", peak) ])

let trace_ops = 4

(* The traced run: the first inputs solved plain, metrics-only and
   traced, then the cost / provisioning / rebase / Design_io layers
   replayed on the plain pass's designs. *)
let trace ~seed =
  let seeds, p = setup ~seed () in
  let designs = Array.make trace_ops None in
  let layers =
    Report.three_passes ~ops:trace_ops (fun ~obs i ->
        let r = solve ~obs p seeds.(i) in
        if Option.is_none designs.(i) then designs.(i) <- r)
  in
  let outs = Array.to_list designs |> List.filter_map Fun.id in
  let bests = List.map (fun (o : Design_solver.outcome) -> o.Design_solver.best) outs in
  let round_robin = Report.per_call_each (Array.of_list bests) in
  let replay =
    [ ( "cost.evaluate_s_per_call",
        round_robin (fun b ->
            ignore
              (Cost.Evaluate.provisioned b.Candidate.eval.Cost.Evaluate.provision likelihood)) );
      ( "design.provision_s_per_call",
        round_robin (fun b -> ignore (Design.Provision.minimum b.Candidate.design)) );
      ( "design.rebase_s_per_call",
        round_robin (fun b ->
            ignore (Design.Design.rebase ~env:p.env ~apps:p.apps b.Candidate.design)) );
      ( "design.io_s_per_call",
        round_robin (fun b ->
            ignore
              (Design.Design_io.of_string p.env p.apps
                 (Design.Design_io.to_string b.Candidate.design))) ) ]
  in
  let factor = Report.host_factor_now () in
  (List.length outs = trace_ops, layers @ Report.normalise_times factor replay)
