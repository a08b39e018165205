(* The design tool as a long-running service (DESIGN.md §16).

   A one-shot [dstool] run pays the full setup bill every time: pool
   creation, a cold configuration cache, a fresh metrics registry. The
   daemon keeps all three resident and serves requests over
   newline-delimited JSON-RPC 2.0 on TCP.

   Threading (systhreads, not domains — request handling is mostly
   waiting on the solver, whose own [Exec] pool provides the domain
   parallelism):

     - an accept loop on the calling thread, select()ing over the
       listen socket and a self-pipe so [stop] can interrupt it;
     - one reader thread per connection, answering cheap methods
       (health / metrics / cache_resize / shutdown) inline and pushing
       heavy ones (solve / resolve / fleet / risk / sleep) through the
       bounded admission queue — a full queue answers [overloaded]
       immediately rather than blocking the reader;
     - [concurrency] worker threads draining the queue.

   Shutdown drains: the phase moves Running -> Draining (stop
   accepting, reject newly read heavy requests with [shutting_down],
   finish everything admitted) -> Stopped (workers exit, connections
   are shut down to wake their readers, [run] returns).

   Determinism: every request carries its own seed and runs through
   [Request], the code [dstool solve|risk|fleet] runs; this module only
   decodes JSON params and encodes results. The shared memo cache is
   result-transparent
   (identical keys map to identical values) and the resident pool is
   pure scheduling, so a request's design is byte-identical whether
   served alone, under concurrent load, or computed by [dstool solve]. *)

module Metrics = Ds_obs.Metrics
module Obs = Ds_obs.Obs
module Progress = Ds_obs.Progress
module Design_io = Ds_design.Design_io
module Summary = Ds_cost.Summary
module Candidate = Ds_solver.Candidate
module Design_solver = Ds_solver.Design_solver
module Config_solver = Ds_solver.Config_solver
module Memo = Ds_solver.Memo
module Search = Ds_search.Search
module Fleet = Ds_fleet.Fleet
module Year_sim = Ds_risk.Year_sim
module Tail_sim = Ds_risk.Tail_sim
module Exec = Ds_exec.Exec
module Request = Ds_experiments.Request
module Money = Ds_units.Money

type config = {
  host : string;
  port : int;
  concurrency : int;
  queue_depth : int;
  budget_evals : int option;
  cache_capacity : int;
  domains : int;
}

let default_config =
  { host = "127.0.0.1";
    port = 7411;
    concurrency = 2;
    queue_depth = 16;
    budget_evals = None;
    cache_capacity = 4096;
    domains = 1 }

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  out_lock : Mutex.t;
  (* Checked under [out_lock] before every write, flipped before the fd
     is closed: the kernel reuses descriptor numbers, so a worker still
     holding a job for a dead connection must never write to the raw fd
     again — it could be someone else's socket by then. *)
  mutable alive : bool;
}

type job = {
  j_conn : conn;
  j_req : Protocol.request;
  enqueued_at : float;
}

type phase = Running | Draining | Stopped

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  registry : Metrics.registry;
  memo : Config_solver.cache;
  pool : Exec.pool;
  started_at : float;
  lock : Mutex.t;
  work : Condition.t;  (* workers wait for jobs *)
  idle : Condition.t;  (* the drain waits for queue empty && inflight 0 *)
  queue : job Queue.t;
  mutable inflight : int;
  mutable phase : phase;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  wake_r : Unix.file_descr;  (* self-pipe: [stop] interrupts the select *)
  wake_w : Unix.file_descr;
  fleets : (string, Request.fleet_state) Hashtbl.t;  (* guarded by [lock] *)
}

let port t = t.bound_port
let registry t = t.registry

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ ->
    (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
     with Not_found | Invalid_argument _ ->
       invalid_arg (Printf.sprintf "Daemon.create: unknown host %S" host))

let create ?registry config =
  if config.concurrency < 1 then
    invalid_arg "Daemon.create: concurrency must be positive";
  if config.queue_depth < 1 then
    invalid_arg "Daemon.create: queue_depth must be positive";
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (resolve_host config.host, config.port));
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let wake_r, wake_w = Unix.pipe () in
  { config;
    listen_fd;
    bound_port;
    registry;
    memo = Config_solver.create_cache ~size:(max 1 config.cache_capacity) ();
    pool = Exec.create ~domains:(max 1 config.domains) ();
    started_at = Metrics.now_s ();
    lock = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    queue = Queue.create ();
    inflight = 0;
    phase = Running;
    conns = [];
    readers = [];
    wake_r;
    wake_w;
    fleets = Hashtbl.create 8 }

(* ---- Wire helpers ------------------------------------------------- *)

let send conn line =
  try
    Mutex.protect conn.out_lock (fun () ->
        if conn.alive then begin
          output_string conn.oc line;
          output_char conn.oc '\n';
          flush conn.oc
        end)
  with Sys_error _ | Unix.Unix_error _ -> ()

let send_reply conn id = function
  | Ok result -> send conn (Protocol.response ~id result)
  | Error (code, message) ->
    send conn (Protocol.error_response ~id ~code message)

let observe_request t method_ ~since =
  let dt = Metrics.now_s () -. since in
  Metrics.observe (Metrics.histogram t.registry "server.request_s") dt;
  Metrics.observe
    (Metrics.histogram t.registry (Printf.sprintf "server.%s_s" method_))
    dt

(* ---- JSON codec over Request ------------------------------------- *)

let ( let* ) = Result.bind
let bad msg = Error (Protocol.invalid_params, msg)
let lift r = Result.map_error (fun m -> (Protocol.invalid_params, m)) r
let int_json n = Json.Num (float_of_int n)
let money_json m = Json.Num (Money.to_dollars m)

let ran = function
  | Ok v -> Ok v
  | Error (Request.Invalid msg) -> bad msg
  | Error Request.No_design ->
    Error (Protocol.internal_error, Request.error_message Request.No_design)

let checked r = Result.map_error Request.error_message r

let likelihood_of params =
  let* object_rate = Json.find_num "object_rate" params in
  let* array_rate = Json.find_num "array_rate" params in
  let* site_rate = Json.find_num "site_rate" params in
  checked (Request.likelihood ?object_rate ?array_rate ?site_rate ())

(* The server's --budget-evals caps portfolios that bring no cap; its
   --domains is the solver's width only for fleets (the shard pool). *)
let budget_of ?domains t params =
  let* seed = Json.get_int ~default:42 "seed" params in
  let* name = Json.get_str ~default:"default" "budget" params in
  let* restarts = Json.get_int ~default:1 "restarts" params in
  let* race = Json.get_bool ~default:false "race" params in
  let* max_evaluations = Json.find_int "max_evaluations" params in
  let max_evaluations =
    if max_evaluations = None && restarts > 1 then t.config.budget_evals
    else max_evaluations
  in
  checked
    (Request.budget ~restarts ~race ?max_evaluations ?domains ~seed name)

let solve_of t params =
  let* env = Json.get_str ~default:"peer" "env" params in
  let* apps = Json.find_int "apps" params in
  let* env, apps = checked (Request.instance ?apps env) in
  let* likelihood = likelihood_of params in
  let* budget = budget_of t params in
  let* deadline_s = Json.find_num "deadline_s" params in
  Ok { Request.env; apps; likelihood; budget; deadline_s }

let risk_of t params =
  let* solve = solve_of t params in
  let* design = Json.find_str "design" params in
  let* years = Json.get_int ~default:10_000 "years" params in
  let* sla = Json.find_num "sla" params in
  let* tilt = Json.get_num ~default:8. "tilt" params in
  let* strata = Json.get_str ~default:"scope" "strata" params in
  Ok { Request.solve; design; years; sla; tilt; strata }

let fleet_of t params =
  let* pods = Json.get_int ~default:4 "pods" params in
  let* apps_per_pod = Json.get_int ~default:8 "apps_per_pod" params in
  let* shards = Json.find_int "shards" params in
  let* likelihood = likelihood_of params in
  let* budget = budget_of ~domains:(max 1 t.config.domains) t params in
  Ok { Request.pods; apps_per_pod; shards; likelihood; budget }

let all f items =
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* x = f item in
      Ok (x :: acc))
    items (Ok [])

let resolve_of params =
  let* drift =
    match Json.member "drift" params with
    | None -> Ok []
    | Some (Json.List items) ->
      all
        (fun item ->
          let* app_id = Json.get_int "app_id" item in
          let* factor = Json.get_num ~default:2. "factor" item in
          Ok (app_id, factor))
        items
    | Some _ -> Error "drift must be a list of {app_id, factor} objects"
  in
  let* dirty = Json.find_list "dirty" params in
  let* dirty =
    match dirty with
    | None -> Ok None
    | Some ids ->
      let id v = Option.to_result ~none:"dirty must list app ids" v in
      Result.map Option.some (all (fun v -> id (Json.int_opt v)) ids)
  in
  let* catalog_revision = Json.find_int "catalog_revision" params in
  Ok { Request.drift; dirty; catalog_revision }

(* ---- Progress notifications --------------------------------------- *)

let progress_json id (e : Progress.entry) =
  let base =
    [ ("id", id); ("evaluations", int_json e.Progress.evaluations) ]
  in
  let rest =
    match e.Progress.event with
    | Progress.Stage s -> [ ("event", Json.Str "stage"); ("stage", Json.Str s) ]
    | Progress.Incumbent c ->
      [ ("event", Json.Str "incumbent"); ("cost_dollars", Json.Num c) ]
    | Progress.Accepted -> [ ("event", Json.Str "accept") ]
    | Progress.Rejected -> [ ("event", Json.Str "reject") ]
    | Progress.Portfolio { restart; cost } ->
      [ ("event", Json.Str "portfolio"); ("restart", int_json restart);
        ("cost_dollars", Json.Num cost) ]
    | Progress.Shard { shard; cost } ->
      [ ("event", Json.Str "shard"); ("shard", int_json shard);
        ("cost_dollars", Json.Num cost) ]
  in
  Json.Obj (base @ rest)

(* Every request records into the resident registry; a request that
   asked for progress additionally streams each event down its own
   connection as a notification tagged with the request id, so a client
   multiplexing several in-flight calls can route them. *)
let request_obs t conn id ~progress =
  if not progress then Obs.attach ~metrics:t.registry ()
  else
    let stream =
      Progress.create
        ~on_event:(fun e ->
          send conn
            (Protocol.notification ~method_:"progress"
               ~params:(progress_json id e)))
        ()
    in
    Obs.attach ~metrics:t.registry ~progress:stream ()

(* ---- Method handlers ---------------------------------------------- *)

let outcome_json solved =
  let best = Request.best solved in
  let o, extra =
    match solved with
    | Request.Single o -> (o, [])
    | Request.Portfolio r ->
      ( r.Search.outcome,
        [ ("winner", int_json r.Search.winner);
          ("restarts_run", int_json r.Search.restarts_run);
          ("portfolio_raced_off", int_json r.Search.raced_off);
          ("total_evaluations", int_json r.Search.total_evaluations) ] )
  in
  Json.Obj
    ([ ("design", Json.Str (Design_io.to_string best.Candidate.design));
       ( "cost_dollars",
         money_json (Summary.total (Candidate.summary best)) );
       ("evaluations", int_json o.Design_solver.evaluations);
       ("refit_rounds", int_json o.Design_solver.refit_rounds_run);
       ("improved_by_refit", Json.Bool o.Design_solver.improved_by_refit);
       ("raced_off", Json.Bool o.Design_solver.raced_off) ]
     @ extra)

let fleet_json (f : Fleet.t) =
  Json.Obj
    [ ("cost_dollars", money_json f.Fleet.cost);
      ("evaluations", int_json f.Fleet.evaluations);
      ("conflicts", int_json f.Fleet.conflicts);
      ("reconcile_passes", int_json f.Fleet.reconcile_passes);
      ("unplaced", Json.List (List.map int_json f.Fleet.unplaced));
      ("shards", int_json (List.length f.Fleet.shard_results));
      ( "shards_reused",
        int_json
          (List.length
             (List.filter
                (fun (r : Fleet.shard_result) -> r.Fleet.reused)
                f.Fleet.shard_results)) ) ]

let certification_json (c : Tail_sim.certification) =
  Json.Obj
    [ ("verdict", Json.Str (Tail_sim.verdict_to_string c.Tail_sim.verdict));
      ("availability", Json.Num c.Tail_sim.availability);
      ("downtime_budget_h", Json.Num c.Tail_sim.downtime_budget);
      ("deciding_bound", Json.Num c.Tail_sim.deciding_bound);
      ("ess", Json.Num c.Tail_sim.ess);
      ( "uncovered",
        Json.List (List.map (fun s -> Json.Str s) c.Tail_sim.uncovered) );
      ("reason", Json.Str c.Tail_sim.reason) ]

let risk_json (r : Request.risk) (report : Request.risk_report) =
  let sim = report.Request.year_sim in
  Json.Obj
    ([ ("years", int_json r.Request.years);
       ("mean_dollars", money_json sim.Year_sim.mean);
       ("p50_dollars", money_json sim.Year_sim.p50);
       ("p90_dollars", money_json sim.Year_sim.p90);
       ("p99_dollars", money_json sim.Year_sim.p99);
       ("worst_dollars", money_json sim.Year_sim.worst);
       ("quiet_fraction", Json.Num sim.Year_sim.quiet_fraction) ]
    @
    match report.Request.tail with
    | None -> []
    | Some (_, cert) -> [ ("certification", certification_json cert) ])

(* Test and bench aid: occupies a worker for a deterministic duration,
   which is how the admission tests fill the queue and how drain tests
   leave a request in flight. Not part of the documented surface. *)
let handle_sleep params =
  let* seconds = lift (Json.get_num ~default:0.05 "seconds" params) in
  if seconds < 0. || seconds > 60. then bad "seconds must be in [0, 60]"
  else begin
    Thread.delay seconds;
    Ok (Json.Obj [ ("slept_s", Json.Num seconds) ])
  end

(* Fleets are held server-side under a name: [fleet] stores a cold
   solve and [resolve] warm re-solves from the stored state. Concurrent
   resolves of one fleet each start from the state they found; the last
   to finish becomes the incumbent. *)
let store t name state =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.fleets name state);
  fleet_json state.Request.result

(* Budget semantics (DESIGN.md §16): [max_evaluations] binds portfolio
   requests through the portfolio's anytime admission; [deadline_s]
   binds single solves through the [abandon] race hook, which returns
   the anytime incumbent with [raced_off = true] instead of failing. *)
let handle_heavy t conn (req : Protocol.request) =
  let params = req.Protocol.params in
  let* progress = lift (Json.get_bool ~default:false "progress" params) in
  let obs = request_obs t conn req.Protocol.id ~progress in
  let name = lift (Json.get_str ~default:"default" "name" params) in
  match req.Protocol.method_ with
  | "solve" ->
    let* r = lift (solve_of t params) in
    Result.map outcome_json
      (ran (Request.run_solve ~memo:t.memo ~pool:t.pool ~obs r))
  | "risk" ->
    let* r = lift (risk_of t params) in
    Result.map (risk_json r)
      (ran (Request.run_risk ~memo:t.memo ~pool:t.pool ~obs r))
  | "fleet" ->
    let* name = name in
    let* r = lift (fleet_of t params) in
    Result.map (store t name) (ran (Request.run_fleet ~obs r))
  | "resolve" ->
    let* name = name in
    let* r = lift (resolve_of params) in
    (match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.fleets name) with
     | None ->
       bad
         (Printf.sprintf "unknown fleet %S (create it with the fleet method)"
            name)
     | Some state ->
       Result.map (store t name) (ran (Request.run_resolve ~obs state r)))
  | "sleep" -> handle_sleep params
  | m -> Error (Protocol.method_not_found, "unknown method " ^ m)

let health_json t =
  let queued, inflight, phase =
    Mutex.protect t.lock (fun () ->
        (Queue.length t.queue, t.inflight, t.phase))
  in
  Json.Obj
    [ ( "status",
        Json.Str
          (match phase with
           | Running -> "ok"
           | Draining -> "draining"
           | Stopped -> "stopped") );
      ("queued", int_json queued);
      ("inflight", int_json inflight);
      ("uptime_s", Json.Num (Metrics.now_s () -. t.started_at));
      ("port", int_json t.bound_port);
      ("cache_entries", int_json (Memo.length t.memo));
      ("cache_capacity", int_json (Memo.capacity t.memo)) ]

let metrics_json t =
  let dump = Metrics.to_json t.registry in
  match Json.of_string dump with Ok v -> v | Error _ -> Json.Str dump

let handle_cache_resize t (req : Protocol.request) =
  let* capacity = lift (Json.get_int "capacity" req.Protocol.params) in
  match Memo.resize t.memo capacity with
  | () ->
    Ok
      (Json.Obj
         [ ("capacity", int_json (Memo.capacity t.memo));
           ("entries", int_json (Memo.length t.memo)) ])
  | exception Invalid_argument msg -> bad msg

(* ---- Dispatch ----------------------------------------------------- *)

let heavy = function
  | "solve" | "resolve" | "fleet" | "risk" | "sleep" -> true
  | _ -> false

let run_job t (job : job) =
  Metrics.observe
    (Metrics.histogram t.registry "server.queue_wait_s")
    (Metrics.now_s () -. job.enqueued_at);
  let reply =
    try handle_heavy t job.j_conn job.j_req
    with exn -> Error (Protocol.internal_error, Printexc.to_string exn)
  in
  (match reply with
   | Error _ -> Metrics.incr (Metrics.counter t.registry "server.errors")
   | Ok _ -> ());
  send_reply job.j_conn job.j_req.Protocol.id reply;
  observe_request t job.j_req.Protocol.method_ ~since:job.enqueued_at

let set_queue_gauge t =
  Metrics.set
    (Metrics.gauge t.registry "server.queue_depth")
    (float_of_int (Queue.length t.queue))

let rec worker_loop t =
  let job =
    Mutex.protect t.lock (fun () ->
        while Queue.is_empty t.queue && t.phase <> Stopped do
          Condition.wait t.work t.lock
        done;
        if Queue.is_empty t.queue then None
        else begin
          let job = Queue.pop t.queue in
          t.inflight <- t.inflight + 1;
          set_queue_gauge t;
          Some job
        end)
  in
  match job with
  | None -> ()
  | Some job ->
    run_job t job;
    Mutex.protect t.lock (fun () ->
        t.inflight <- t.inflight - 1;
        if t.inflight = 0 && Queue.is_empty t.queue then
          Condition.broadcast t.idle);
    worker_loop t

let admit t conn (req : Protocol.request) =
  let enqueued_at = Metrics.now_s () in
  let verdict =
    Mutex.protect t.lock (fun () ->
        if t.phase <> Running then `Shutting_down
        else if Queue.length t.queue >= t.config.queue_depth then `Overloaded
        else begin
          Queue.push { j_conn = conn; j_req = req; enqueued_at } t.queue;
          set_queue_gauge t;
          Condition.signal t.work;
          `Admitted
        end)
  in
  match verdict with
  | `Admitted -> ()
  | `Shutting_down ->
    send_reply conn req.Protocol.id
      (Error (Protocol.shutting_down, "server is draining"))
  | `Overloaded ->
    Metrics.incr (Metrics.counter t.registry "server.overloaded");
    send_reply conn req.Protocol.id
      (Error
         ( Protocol.overloaded,
           Printf.sprintf "admission queue full (%d queued, %d workers)"
             t.config.queue_depth t.config.concurrency ))

let stop t =
  let changed =
    Mutex.protect t.lock (fun () ->
        if t.phase = Running then begin
          t.phase <- Draining;
          true
        end
        else false)
  in
  if changed then
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let handle_line t conn line =
  if String.trim line <> "" then begin
    Metrics.incr (Metrics.counter t.registry "server.requests");
    match Protocol.parse_request line with
    | Error (code, message) ->
      Metrics.incr (Metrics.counter t.registry "server.errors");
      send conn (Protocol.error_response ~id:Json.Null ~code message)
    | Ok req ->
      let inline reply =
        let since = Metrics.now_s () in
        send_reply conn req.Protocol.id reply;
        observe_request t req.Protocol.method_ ~since
      in
      (match req.Protocol.method_ with
       | "health" -> inline (Ok (health_json t))
       | "metrics" -> inline (Ok (metrics_json t))
       | "cache_resize" -> inline (handle_cache_resize t req)
       | "shutdown" ->
         (* Reply before draining so the client sees the acknowledgment
            even when its connection is among those shut down. *)
         inline (Ok (Json.Obj [ ("draining", Json.Bool true) ]));
         stop t
       | m when heavy m -> admit t conn req
       | m ->
         send_reply conn req.Protocol.id
           (Error (Protocol.method_not_found, "unknown method " ^ m)))
  end

let close_conn t conn =
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns);
  Mutex.protect conn.out_lock (fun () ->
      if conn.alive then begin
        conn.alive <- false;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let max_line_bytes = 1 lsl 20

(* [input_line] that stops at [max_line_bytes]: [Some line] for a line
   of at most that many bytes (a last line without its newline
   included), [None] once a line runs past it. Raises [End_of_file] at
   the end of input with nothing read, as [input_line] does. *)
let read_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Buffer.contents buf)
    | _ when Buffer.length buf >= max_line_bytes -> None
    | ch ->
      Buffer.add_char buf ch;
      go ()
    | exception End_of_file when Buffer.length buf > 0 ->
      Some (Buffer.contents buf)
  in
  go ()

let reader_loop t conn =
  let buf = Buffer.create 256 in
  let rec loop () =
    match read_line conn.ic buf with
    | Some line ->
      handle_line t conn line;
      loop ()
    | None ->
      (* Refused once, then the connection ends: no request boundary
         can be trusted after an over-long line. *)
      Metrics.incr (Metrics.counter t.registry "server.requests");
      Metrics.incr (Metrics.counter t.registry "server.errors");
      send conn
        (Protocol.error_response ~id:Json.Null ~code:Protocol.invalid_request
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))
    | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  close_conn t conn

let rec accept_loop t =
  let running = Mutex.protect t.lock (fun () -> t.phase = Running) in
  if running then begin
    (match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.) with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | readable, _, _ ->
       if List.mem t.wake_r readable then
         ignore (Unix.read t.wake_r (Bytes.create 8) 0 8);
       if List.mem t.listen_fd readable then begin
         match Unix.accept t.listen_fd with
         | exception Unix.Unix_error _ -> ()
         | fd, _ ->
           let conn =
             { fd;
               ic = Unix.in_channel_of_descr fd;
               oc = Unix.out_channel_of_descr fd;
               out_lock = Mutex.create ();
               alive = true }
           in
           Metrics.incr (Metrics.counter t.registry "server.connections");
           Mutex.protect t.lock (fun () -> t.conns <- conn :: t.conns);
           let th = Thread.create (fun () -> reader_loop t conn) () in
           Mutex.protect t.lock (fun () -> t.readers <- th :: t.readers)
       end);
    accept_loop t
  end

let run t =
  (* A client hanging up mid-response must surface as a failed write,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let workers =
    List.init t.config.concurrency (fun _ ->
        Thread.create (fun () -> worker_loop t) ())
  in
  accept_loop t;
  (* Draining: refuse new connections immediately... *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* ...finish everything admitted (readers keep answering health /
     metrics and rejecting heavy requests with [shutting_down])... *)
  Mutex.protect t.lock (fun () ->
      while not (Queue.is_empty t.queue && t.inflight = 0) do
        Condition.wait t.idle t.lock
      done;
      t.phase <- Stopped;
      Condition.broadcast t.work);
  List.iter Thread.join workers;
  (* ...then wake every blocked reader by shutting its socket down
     (close alone would not interrupt a blocked read, and the fd number
     must stay reserved until the reader is done with it). *)
  let conns, readers =
    Mutex.protect t.lock (fun () -> (t.conns, t.readers))
  in
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join readers;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())
