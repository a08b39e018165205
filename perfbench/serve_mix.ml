(* serve-mix: a real `dstool serve` child at one domain and one worker
   thread, driven by one client connection in a closed loop through a
   seeded mix of requests (Gen.block). It is the only workload that goes
   through JSON, the admission queue, the resident memo, Search and Risk.
   The yardstick runs here, in the client, while the daemon waits for the
   next request. *)

open Dependable_storage
module Lib = Perfbench_lib
module Json = Server.Json
module Protocol = Server.Protocol
module Design_solver = Solver.Design_solver
module Candidate = Solver.Candidate
module Money = Units.Money
module Budgets = Experiments.Budgets

let fleet_pods = 4
let fleet_apps_per_pod = 8
let fleet_seed = 7
let portfolio_restarts = 3
let portfolio_cap = 2400
let risk_years = 10_000
let sla = 0.999
let min_ops = Lib.Gen.counted_blocks * Lib.Gen.block_size
let script_blocks = 60
let setups = 3
let likelihood = Failure.Likelihood.default

(* Every solve and risk request names the solve-cold problem shape. *)
let shape = [ ("env", Json.Str "quad"); ("apps", Json.Num 6.); ("budget", Json.Str "quick") ]
let num n = Json.Num (float_of_int n)

let solve_params seed = Json.Obj (shape @ [ ("seed", num seed) ])

let portfolio_params seed =
  Json.Obj
    (shape
    @ [ ("seed", num seed); ("restarts", num portfolio_restarts); ("race", Json.Bool true);
        ("max_evaluations", num portfolio_cap) ])

(* ---- The daemon and the connection ---------------------------------- *)

type daemon = {
  pid : int;
  out : in_channel;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
  mutable alive : bool;
}

let spawn dstool =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process dstool
      [| dstool; "serve"; "--port"; "0"; "--concurrency"; "1"; "--domains"; "1" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let port =
    match input_line out with
    | line -> Scanf.sscanf_opt line "dstool server listening on %_s@:%d" Fun.id
    | exception End_of_file -> None
  in
  match port with
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith "dstool serve did not report its port"
  | Some port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    { pid;
      out;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      next_id = 1;
      alive = true }

let encode d ~method_ params =
  let id = num d.next_id in
  d.next_id <- d.next_id + 1;
  Protocol.request ~id ~method_ ~params ^ "\n"

(* Write one encoded request and read lines up to its reply; the raw
   reply line is kept for the decode replay. *)
let exchange d line =
  output_string d.oc line;
  flush d.oc;
  let rec await () =
    let reply = input_line d.ic in
    match Protocol.parse_incoming reply with
    | Ok (Protocol.Reply { result; _ }) -> (reply, result)
    | Ok (Protocol.Note _) -> await ()
    | Error msg -> (reply, Error { Protocol.code = 0; message = msg; data = None })
  in
  await ()

let call d ~method_ params = snd (exchange d (encode d ~method_ params))

let member_str k v = Option.bind (Json.member k v) Json.str_opt
let member_num k v = Option.bind (Json.member k v) Json.num_opt

let stop d =
  (try ignore (call d ~method_:"shutdown" (Json.Obj [])) with _ -> ());
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.ic;
  close_in_noerr d.out;
  d.alive <- false;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
  end

let with_daemon d f =
  match f d with
  | v -> v
  | exception e ->
    kill d;
    raise e

(* ---- Set-up --------------------------------------------------------- *)

type ready = { d : daemon; designs : string array }

(* Spawn to first healthy reply, create the server-held fleet, then one
   warm-up pass over the working set (its designs feed the risk
   requests). Each of these steps is timed and host-normalised on its
   own, between yardstick samples taken by the client, so a host phase
   during one step is not judged by samples seconds away; the set-up
   time is their sum. *)
let setup ~dstool ~(mix : Lib.Gen.serve_mix) () =
  let total = ref 0. in
  let step f =
    let v, norm = Lib.Yardstick.timed_step f in
    total := !total +. norm;
    v
  in
  let d =
    step (fun () ->
        let d = spawn dstool in
        with_daemon d @@ fun d ->
        let rec healthy tries =
          match call d ~method_:"health" (Json.Obj []) with
          | Ok h when member_str "status" h = Some "ok" -> ()
          | _ when tries > 0 ->
            Unix.sleepf 0.01;
            healthy (tries - 1)
          | _ -> failwith "dstool serve never reported healthy"
        in
        healthy 500;
        d)
  in
  with_daemon d @@ fun d ->
  step (fun () ->
      match
        call d ~method_:"fleet"
          (Json.Obj
             [ ("name", Json.Str "bench"); ("pods", num fleet_pods);
               ("apps_per_pod", num fleet_apps_per_pod); ("budget", Json.Str "quick");
               ("seed", num fleet_seed) ])
      with
      | Ok f when Option.bind (Json.member "unplaced" f) Json.list_opt = Some [] -> ()
      | _ -> failwith "creating the server-held fleet failed");
  let designs =
    Array.map
      (fun s ->
        match step (fun () -> call d ~method_:"solve" (solve_params s)) with
        | Ok r -> Option.value ~default:"" (member_str "design" r)
        | Error _ -> "")
      mix.Lib.Gen.working_set
  in
  ({ d; designs }, !total)

(* ---- Requests ------------------------------------------------------- *)

(* The server compounds drift on its resident apps, so each resolve
   sends the factor that takes the app from its current load to the
   script's target (relative to the original): loads stay bounded. *)
let requests (mix : Lib.Gen.serve_mix) designs =
  let current = Array.make (fleet_pods * fleet_apps_per_pod + 1) 1. in
  Array.map
    (fun (r : Lib.Gen.request) ->
      match r with
      | Lib.Gen.Health -> ("health", Json.Obj [])
      | Lib.Gen.Metrics -> ("metrics", Json.Obj [])
      | Lib.Gen.Risk { design; seed; sla = certify } ->
        ( "risk",
          Json.Obj
            (shape
            @ [ ("design", Json.Str designs.(design)); ("seed", num seed);
                ("years", num risk_years) ]
            @ if certify then [ ("sla", Json.Num sla) ] else []) )
      | Lib.Gen.Repeat i -> ("solve", solve_params mix.Lib.Gen.working_set.(i))
      | Lib.Gen.Fresh s -> ("solve", solve_params s)
      | Lib.Gen.Portfolio s -> ("solve", portfolio_params s)
      | Lib.Gen.Resolve { app_id; factor } ->
        let step = factor /. current.(app_id) in
        current.(app_id) <- factor;
        ( "resolve",
          Json.Obj
            [ ("name", Json.Str "bench");
              ( "drift",
                Json.List [ Json.Obj [ ("app_id", num app_id); ("factor", Json.Num step) ] ] ) ] ))
    mix.Lib.Gen.script

(* ---- Output checks -------------------------------------------------- *)

let quad () = (Experiments.Envs.quad_sites (), Workload.Workload_catalog.mix ~count:6)

(* A served solve request as (portfolio?, solver seed). *)
let solve_of (mix : Lib.Gen.serve_mix) (r : Lib.Gen.request) =
  match r with
  | Lib.Gen.Repeat i -> Some (false, mix.Lib.Gen.working_set.(i))
  | Lib.Gen.Fresh s -> Some (false, s)
  | Lib.Gen.Portfolio s -> Some (true, s)
  | _ -> None

(* The in-process twin of a served solve request: the same budget
   shaping as the daemon, the same design solver or portfolio. *)
let solve_in_process ?obs (portfolio, seed) =
  let env, apps = quad () in
  let budget = Budgets.with_seed Budgets.quick seed in
  if portfolio then
    let b = Budgets.with_portfolio ~race:true ~max_evaluations:portfolio_cap budget portfolio_restarts in
    Option.map
      (fun (res : Search.result) -> res.Search.best)
      (Search.run ~restarts:b.Budgets.restarts ~race:b.Budgets.race
         ?max_evaluations:b.Budgets.portfolio_evaluations ~params:b.Budgets.solver
         ~pool:(Exec.auto_width (Exec.create ~domains:1 ()))
         ?obs env apps likelihood)
  else
    Option.map
      (fun (o : Design_solver.outcome) -> o.Design_solver.best)
      (Design_solver.solve ~params:budget.Budgets.solver ?obs env apps likelihood)

(* A served design matches its in-process twin byte for byte, the cost
   it reports is the twin's, and re-costing the twin's provisioning from
   scratch reproduces that cost exactly. *)
let solve_matches req reply =
  match solve_in_process req with
  | None -> Some "the in-process solve found no design"
  | Some best ->
    if member_str "design" reply <> Some (Design.Design_io.to_string best.Candidate.design)
    then Some "served design differs from the in-process solve"
    else if member_num "cost_dollars" reply <> Some (Money.to_dollars (Candidate.cost best))
    then Some "served cost differs from the in-process solve"
    else if not (Report.reproduces_cost likelihood best)
    then Some "re-evaluating the design does not reproduce its cost"
    else None

let check_reply (r : Lib.Gen.request) reply =
  let has k = Json.member k reply <> None in
  match r with
  | Lib.Gen.Health ->
    if member_str "status" reply = Some "ok" then None else Some "health is not ok"
  | Lib.Gen.Metrics ->
    if has "server.requests" then None else Some "metrics reply lacks server.requests"
  | Lib.Gen.Risk { sla = certify; _ } ->
    if not (match member_num "mean_dollars" reply with Some m -> Float.is_finite m | None -> false)
    then Some "risk reply lacks a finite mean"
    else if certify && not (has "certification") then Some "risk reply lacks its certification"
    else None
  | Lib.Gen.Resolve _ ->
    let n k = Option.value ~default:(-1.) (member_num k reply) in
    if Option.bind (Json.member "unplaced" reply) Json.list_opt <> Some [] then
      Some "resolve left apps unplaced"
    else if n "shards_reused" < n "shards" -. 1. then
      Some "resolve re-solved a shard the drift did not touch"
    else None
  | Lib.Gen.Repeat _ | Lib.Gen.Fresh _ | Lib.Gen.Portfolio _ ->
    if has "design" then None else Some "solve reply lacks a design"

(* ---- The timed run -------------------------------------------------- *)

type outcome = {
  kinds : string array;
  replies : (string * (Json.t, Protocol.rpc_error) result) array;
  loop : Lib.Loop.t;
}

(* Drive [reqs] through the measurement loop, one whole block at a time. *)
let drive ?(min_ops = min_ops) ~seconds d (mix : Lib.Gen.serve_mix) reqs ~tally =
  let lines = Array.map (fun (m, p) -> encode d ~method_:m p) reqs in
  let replies = ref [] in
  let loop =
    Lib.Loop.run ~seconds ~min_ops ~cap_s:120.
      ~boundary:(fun i -> i mod Lib.Gen.block_size = 0)
      (fun i ->
        ignore (Lib.Tally.attempt tally);
        replies := exchange d lines.(i mod Array.length lines) :: !replies)
  in
  let replies = Array.of_list (List.rev !replies) in
  let kinds =
    Array.mapi
      (fun i _ -> Lib.Gen.kind mix.Lib.Gen.script.(i mod Array.length mix.Lib.Gen.script))
      replies
  in
  { kinds; replies; loop }

let run ~dstool ~seed ~seconds =
  let mix =
    Lib.Gen.serve_mix ~seed ~blocks:script_blocks ~fleet_apps:(fleet_pods * fleet_apps_per_pod)
  in
  (* Set up [setups] daemons in turn, each timed alone; keep the last. *)
  let ready, setup_s =
    Report.repeated_setup ~times:setups
      ~discard:(fun r -> ignore (stop r.d))
      (setup ~dstool ~mix)
  in
  let d = ready.d in
  with_daemon d @@ fun d ->
  let setup_ok = Array.for_all (fun s -> s <> "") ready.designs in
  let tally = Lib.Tally.create () in
  let o = drive ~seconds d mix (requests mix ready.designs) ~tally in
  let peak = Report.peak_rss_mb (string_of_int d.pid) in
  Report.host_line o.loop;
  let clean_exit = stop d in
  (* Checks, after the timed loop and with the daemon gone: every reply
     a result (not an error, not `overloaded`) of the right shape; every
     solve matching its in-process twin (once per distinct request). *)
  let twins = Hashtbl.create 64 and counted = Hashtbl.create 64 in
  let cost_usd = ref 0. and designs = ref [] in
  Array.iteri
    (fun op (_, result) ->
      let r = mix.Lib.Gen.script.(op mod Array.length mix.Lib.Gen.script) in
      match result with
      | Error e -> Lib.Tally.fail tally op (Format.asprintf "%a" Protocol.pp_rpc_error e)
      | Ok reply ->
        (match check_reply r reply with
         | Some reason -> Lib.Tally.fail tally op reason
         | None -> ());
        (match solve_of mix r with
         | Some req ->
           let verdict =
             match Hashtbl.find_opt twins req with
             | Some v -> v
             | None ->
               let v = solve_matches req reply in
               Hashtbl.add twins req v;
               v
           in
           (match verdict with Some reason -> Lib.Tally.fail tally op reason | None -> ());
           (* Each distinct design counts once: a repeat returns the
              same design again. *)
           if op < min_ops && not (Hashtbl.mem counted req) then begin
             Hashtbl.add counted req ();
             cost_usd := !cost_usd +. Option.value ~default:0. (member_num "cost_dollars" reply);
             designs := Option.value ~default:"" (member_str "design" reply) :: !designs
           end
         | None -> ()))
    o.replies;
  Report.info "workload serve-mix: %d requests, design digest %s" (Lib.Loop.ops o.loop)
    (Report.digest (List.rev !designs));
  (* Per kind: count, median normalised latency, share of the run's time. *)
  let total = Lib.Stats.sum o.loop.Lib.Loop.norm in
  List.iter
    (fun (k, _) ->
      let times =
        List.filteri (fun i _ -> o.kinds.(i) = k) (Array.to_list o.loop.Lib.Loop.norm)
        |> Array.of_list
      in
      if times <> [||] then
        Report.info "  %-9s %4d requests, median %.6f s, %.1f%% of the time" k
          (Array.length times) (Lib.Stats.median times)
          (100. *. Lib.Stats.sum times /. total))
    Lib.Gen.block;
  match Lib.Loop.end_to_end o.loop ~setup:setup_s with
  | Error msg -> Error msg
  | Ok e2e ->
    Ok
      ( tally,
        setup_ok && clean_exit,
        e2e @ [ ("cost_usd", !cost_usd); ("peak_rss_mb", peak) ] )

(* ---- The traced run ------------------------------------------------- *)

let trace_blocks = 2

let counters = function Json.Obj kv -> kv | _ -> []

let metric_value kv name field =
  match List.assoc_opt name kv with
  | Some (Json.Num n) -> n
  | Some (Json.Obj _ as h) -> Option.value ~default:0. (member_num field h)
  | _ -> 0.

(* Client side: encode, round trip and decode per request, timed around
   the same calls the timed run makes. Server side: the daemon's own
   registry (the server, config cache, cost, sim, risk, fleet and
   portfolio instruments) read through `metrics` before and after. Span self
   times, gc and obs figures come from an in-process replay of the mix's
   fresh solves, since the daemon records no spans. *)
let trace ~dstool ~seed =
  let mix =
    Lib.Gen.serve_mix ~seed ~blocks:script_blocks ~fleet_apps:(fleet_pods * fleet_apps_per_pod)
  in
  let ready, _ = setup ~dstool ~mix () in
  let d = ready.d in
  with_daemon d @@ fun d ->
  let reqs = Array.sub (requests mix ready.designs) 0 (trace_blocks * Lib.Gen.block_size) in
  (* A worker thread records a heavy request's time just after sending
     its reply; a pause before each snapshot lets that land, so the two
     snapshots bracket exactly the requests timed here. *)
  let settle () = Unix.sleepf 0.05 in
  settle ();
  let before = call d ~method_:"metrics" (Json.Obj []) in
  let tally = Lib.Tally.create () in
  let o = drive ~min_ops:(Array.length reqs) ~seconds:0. d mix reqs ~tally in
  settle ();
  let after = call d ~method_:"metrics" (Json.Obj []) in
  let ok = stop d in
  let n = float_of_int (Lib.Loop.ops o.loop) in
  let kv r = match r with Ok v -> counters v | Error _ -> [] in
  let b = kv before and a = kv after in
  let delta name field = metric_value a name field -. metric_value b name field in
  let count_delta name = delta name "" in
  let p50 name = metric_value a name "p50_s" in
  (* RPC overhead from the health requests, whose reply is trivial to
     build: the client's round trip, less the daemon's time for the
     request (encoding and writing the reply) and less the client's own
     decoding of the reply. *)
  let health = List.filter (fun i -> o.kinds.(i) = "health") (List.init (Array.length o.kinds) Fun.id) in
  let health_client = List.fold_left (fun acc i -> acc +. o.loop.Lib.Loop.raw.(i)) 0. health in
  let health_decode =
    float_of_int (List.length health)
    *. Report.per_call_each
         (Array.of_list (List.map (fun i -> fst o.replies.(i)) health))
         (fun l -> ignore (Protocol.parse_incoming l))
  in
  let replies_ok = Array.for_all (fun (_, r) -> Result.is_ok r) o.replies in
  let portfolio =
    List.filter_map
      (fun i ->
        match mix.Lib.Gen.script.(i), snd o.replies.(i) with
        | Lib.Gen.Portfolio _, Ok r -> Some r
        | _ -> None)
      (List.init (Array.length o.replies) Fun.id)
  in
  let over_portfolio k =
    let total = List.fold_left (fun acc r -> acc +. Option.value ~default:0. (member_num k r)) 0. portfolio in
    total /. float_of_int (max 1 (List.length portfolio))
  in
  let restarts = over_portfolio "restarts_run" in
  let resp_lines = Array.map fst o.replies in
  let hits = count_delta "config.cache_hits" and misses = count_delta "config.cache_misses" in
  let resolves = float_of_int (Array.fold_left (fun acc k -> if k = "resolve" then acc + 1 else acc) 0 o.kinds) in
  let k = Report.host_factor o.loop in
  let server =
    Report.normalise_times k
      [ ("server.queue_wait_p50_s", p50 "server.queue_wait_s");
        ("server.request_p50_s.solve", p50 "server.solve_s");
        ("server.request_p50_s.risk", p50 "server.risk_s");
        ("server.request_p50_s.resolve", p50 "server.resolve_s");
        ("server.request_p50_s.metrics", p50 "server.metrics_s");
        ( "server.rpc_overhead_s_per_req",
          Report.ratio
            (health_client -. delta "server.health_s" "total_s" -. health_decode)
            (delta "server.health_s" "count") );
        ( "json.encode_s_per_req",
          Report.per_call_each reqs (fun (m, p) ->
              ignore (Protocol.request ~id:(Json.Num 1.) ~method_:m ~params:p)) );
        ( "json.decode_s_per_resp",
          Report.per_call_each resp_lines (fun l -> ignore (Protocol.parse_incoming l)) ) ]
    @ [ ("server.errors", metric_value a "server.errors" "");
        ("server.overloaded", metric_value a "server.overloaded" "");
        ( "json.resp_bytes_p50",
          Lib.Stats.median (Array.map (fun l -> float_of_int (String.length l)) resp_lines) );
        ("memo.hit_ratio", Report.ratio hits (hits +. misses));
        ("memo.evictions_per_op", count_delta "config.cache_evictions" /. n);
        ("solver.evaluations_per_op", count_delta "solver.evaluations" /. n);
        ("solver.resolve_dirty_per_op", count_delta "solver.resolve_dirty" /. n);
        ("config.solves_per_op", count_delta "config.solves" /. n);
        ("config.growth_steps_per_op", count_delta "config.growth_steps" /. n);
        ("recovery.scenarios_per_op", count_delta "recovery.scenarios" /. n);
        ("sim.events_per_op", count_delta "sim.events" /. n);
        ("sim.jobs_per_op", count_delta "sim.jobs" /. n);
        ("cost.evaluations_per_op", count_delta "cost.evaluations" /. n);
        ("fleet.reconcile_passes_per_op", count_delta "fleet.reconcile_passes" /. n);
        ("fleet.conflicts_per_op", count_delta "fleet.conflicts" /. n);
        ( "fleet.shards_reused_ratio",
          Report.ratio (count_delta "fleet.shards_reused")
            (resolves *. metric_value a "fleet.shards" "") );
        ("exec.maps_per_op", count_delta "exec.maps" /. n);
        ("exec.tasks_per_op", count_delta "exec.tasks" /. n);
        ("search.restarts_per_request", restarts);
        ("search.raced_off_ratio", Report.ratio (over_portfolio "portfolio_raced_off") restarts);
        ("search.evaluations_per_request", over_portfolio "total_evaluations") ]
    @ Report.host_layers o.loop
  in
  (* The served working-set designs, parsed back: the cost, design and
     risk layers are replayed on them. *)
  let env, apps = quad () in
  let designs =
    Array.to_list ready.designs
    |> List.filter_map (fun text -> Result.to_option (Design.Design_io.of_string env apps text))
    |> Array.of_list
  in
  let provs =
    Array.to_list designs
    |> List.filter_map (fun d -> Result.to_option (Design.Provision.minimum d))
    |> Array.of_list
  in
  let layers =
    if Array.length provs <> Lib.Gen.ws_pool then []
    else begin
      let kyears = float_of_int risk_years /. 1000. in
      let rng () = Prng.Rng.of_int 1 in
      let tail = Risk.Tail_sim.simulate ~years:risk_years (rng ()) provs.(0) likelihood in
      Report.normalise_times (Report.host_factor_now ())
        [ ( "cost.evaluate_s_per_call",
            Report.per_call_each provs (fun p -> ignore (Cost.Evaluate.provisioned p likelihood)) );
          ( "design.provision_s_per_call",
            Report.per_call_each designs (fun d -> ignore (Design.Provision.minimum d)) );
          ( "design.rebase_s_per_call",
            Report.per_call_each designs (fun d -> ignore (Design.Design.rebase ~env ~apps d)) );
          ( "design.io_s_per_call",
            Report.per_call_each designs (fun d ->
                ignore (Design.Design_io.of_string env apps (Design.Design_io.to_string d))) );
          ( "risk.year_sim_s_per_kyear",
            Report.per_call_each provs (fun p ->
                ignore (Risk.Year_sim.simulate ~years:risk_years (rng ()) p likelihood))
            /. kyears );
          ( "risk.tail_sim_s_per_kyear",
            Report.per_call_each provs (fun p ->
                ignore (Risk.Tail_sim.simulate ~years:risk_years (rng ()) p likelihood))
            /. kyears ) ]
      @ [ ("risk.tail_ess_per_kyear", tail.Risk.Tail_sim.ess /. kyears) ]
    end
  in
  let fresh =
    List.filter_map
      (fun (r : Lib.Gen.request) -> match r with Lib.Gen.Fresh s -> Some (false, s) | _ -> None)
      (Array.to_list mix.Lib.Gen.script)
    |> List.filteri (fun i _ -> i < 3)
    |> Array.of_list
  in
  let replay =
    Report.three_passes ~ops:(Array.length fresh) (fun ~obs i ->
        ignore (solve_in_process ~obs fresh.(i)))
  in
  (* First binding wins when the report looks a name up: the daemon's own
     figures over the replay's. *)
  (ok && replies_ok && layers <> [], server @ layers @ replay)
