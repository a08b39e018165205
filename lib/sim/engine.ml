module Time = Ds_units.Time
module Obs = Ds_obs.Obs
module Metrics = Ds_obs.Obs.Metrics

(* Metered runs touch shared instruments as little as possible. The
   solvers run thousands of single-use engines, so instruments are
   resolved once per simulation batch ({!meters} and the device gauges
   handed to {!resource_with}), and a batch's engines hold what they
   measure per grant instead of publishing it: busy and wait seconds go
   to flat float cells and queue waits to a list, with no allocation or
   lock per grant, until the batch's owner publishes them. Only runs on
   the domain that resolved the meters hold; a run on any other domain
   (a wide pool's worker sharing the batch) publishes as it goes, since
   two domains cannot share unsynchronised cells. So do gauges without
   cells and the meters of a standalone {!create}. *)
type device_gauges = {
  busy_g : Metrics.gauge option;
  wait_g : Metrics.gauge option;
  cells : Float.Array.t;  (* held busy then wait seconds; empty: publish *)
}

let no_cells = Float.Array.make 0 0.

let no_gauges = { busy_g = None; wait_g = None; cells = no_cells }

let device_gauges obs name =
  match Obs.metrics obs with
  | None -> no_gauges
  | Some reg ->
    { busy_g = Some (Metrics.gauge reg ("sim.busy_s." ^ name));
      wait_g = Some (Metrics.gauge reg ("sim.wait_s." ^ name));
      cells = no_cells }

let held_gauges dg =
  if dg.busy_g = None then dg else { dg with cells = Float.Array.make 2 0. }

(* [i] is 0 for busy seconds, 1 for wait seconds. *)
let publish_one dg i s =
  match if i = 0 then dg.busy_g else dg.wait_g with
  | Some g -> Metrics.gauge_add g s
  | None -> ()

let publish_gauges dg =
  for i = 0 to Float.Array.length dg.cells - 1 do
    let s = Float.Array.get dg.cells i in
    if s <> 0. then begin
      Float.Array.set dg.cells i 0.;
      publish_one dg i s
    end
  done

(* How a run meters: not at all, holding what it measures for the
   batch's owner, or publishing it directly. *)
type mode = Off | Held | Direct

(* Which domain resolved a batch's meters: a token per domain, compared
   physically — cheaper than asking the runtime for the domain id. *)
let domain_token = Domain.DLS.new_key (fun () -> ref ())

type resource = {
  owner : int;
  rname : string;
  mutable busy : bool;
  gauges : device_gauges;
}

(* One device's share of a grant: [i] seconds of busy (0) or wait (1)
   time, held in its cells or published. *)
let accrue mode i s dg =
  match mode with
  | Held ->
    let cells = dg.cells in
    if Float.Array.length cells > 0 then
      Float.Array.unsafe_set cells i (Float.Array.unsafe_get cells i +. s)
    else publish_one dg i s
  | Direct -> publish_one dg i s
  | Off -> ()

(* Per-grant accounting: a loop, not [List.iter] with a closure. *)
let rec accrue_all mode i s = function
  | [] -> ()
  | r :: rest ->
    accrue mode i s r.gauges;
    accrue_all mode i s rest

(* Engine-wide instruments, likewise resolvable once per batch, with the
   queue waits held for [m_home]'s domain. *)
type meters = {
  m_runs : Metrics.counter option;
  m_jobs : Metrics.counter option;
  m_events : Metrics.counter option;
  m_contended : Metrics.counter option;
  m_queue_wait : Metrics.histogram option;
  m_home : unit ref;  (* the resolving domain's [domain_token] *)
  mutable m_waits : float list;  (* newest first *)
}

let runs_h = Metrics.counter_handle "sim.runs"
let jobs_h = Metrics.counter_handle "sim.jobs"
let events_h = Metrics.counter_handle "sim.events"
let contended_h = Metrics.counter_handle "sim.contended"
let queue_wait_h = Metrics.histogram_handle "sim.queue_wait_s"

let meters_at home obs =
  { m_runs = Obs.instrument obs runs_h;
    m_jobs = Obs.instrument obs jobs_h;
    m_events = Obs.instrument obs events_h;
    m_contended = Obs.instrument obs contended_h;
    m_queue_wait = Obs.instrument obs queue_wait_h;
    m_home = home;
    m_waits = [] }

(* The one rule for how a run meters: held when it runs on the domain
   that resolved its meters, published directly anywhere else. *)
let mode_of m =
  match m.m_runs with
  | None -> Off
  | Some _ -> if Domain.DLS.get domain_token == m.m_home then Held else Direct

(* A run's engine-wide counts: [jobs] jobs passing [events] stages. *)
let count_run m ~jobs ~events =
  (match m.m_runs with Some c -> Metrics.incr c | None -> ());
  (match m.m_jobs with Some c -> Metrics.add c jobs | None -> ());
  match m.m_events with Some c -> Metrics.add c events | None -> ()

let no_meters = meters_at (ref ()) Obs.noop

let meters_of_obs obs =
  if Obs.metrics_on obs then meters_at (Domain.DLS.get domain_token) obs
  else no_meters

let publish_meters m =
  match m.m_queue_wait, m.m_waits with
  | Some h, (_ :: _ as waits) ->
    m.m_waits <- [];
    Metrics.observe_list h (List.rev waits)
  | _ -> ()

let queue_wait mode m s =
  match m.m_queue_wait with
  | None -> ()
  | Some h ->
    (match mode with
     | Held -> m.m_waits <- s :: m.m_waits
     | Direct | Off -> Metrics.observe h s)

type 'd stage_of =
  | Delay of Time.t
  | Hold of 'd list * Time.t

type stage = resource stage_of

type state = Idle | Sleeping | Holding | Blocked | Done

type job = {
  jid : int;
  jname : string;
  priority : float;
  stages : stage array;
  mutable idx : int;
  mutable wake : float;
  mutable held : resource list;
  mutable state : state;
  mutable completion : float;
  mutable blocked_since : float;
}

type job_id = int

type policy = Priority | Fifo | Smallest_first

type t = {
  eid : int;
  policy : policy;
  obs : Obs.t;
  meters : meters;
  mutable jobs : job list;  (* reverse submission order *)
  mutable next_jid : int;
  mutable ran : bool;
}

(* Engines are created concurrently by the design solver's parallel refit
   probes; the id well is atomic so every engine stays distinct. The ids
   only tag resources with their owner — no result depends on which
   numbers a run hands out. *)
let next_eid = Atomic.make 0

let create_with ?(policy = Priority) ?(obs = Obs.noop) ~meters () =
  let eid = 1 + Atomic.fetch_and_add next_eid 1 in
  { eid; policy; obs; meters; jobs = []; next_jid = 0; ran = false }

(* A home no domain has: a standalone engine publishes as it goes. *)
let create ?policy ?(obs = Obs.noop) () =
  let meters = if Obs.metrics_on obs then meters_at (ref ()) obs else no_meters in
  create_with ?policy ~obs ~meters ()

let resource_with t ~gauges name =
  { owner = t.eid; rname = name; busy = false; gauges }

let resource t name = resource_with t ~gauges:(device_gauges t.obs name) name

let check_stage t = function
  | Delay d ->
    if Float.is_nan (Time.to_seconds d) then invalid_arg "Engine: NaN duration"
  | Hold (resources, d) ->
    if Float.is_nan (Time.to_seconds d) then invalid_arg "Engine: NaN duration";
    List.iter (fun r ->
        if r.owner <> t.eid then invalid_arg "Engine: foreign resource")
      resources

(* Distinct resources of a hold set (a device listed twice is held once).
   Hold sets are tiny and almost never contain duplicates, so the common
   path detects that without allocating and returns the list as-is. *)
let rec has_dup = function
  | [] | [ _ ] -> false
  | r :: rest -> List.memq r rest || has_dup rest

let distinct resources =
  if not (has_dup resources) then resources
  else
    List.fold_left
      (fun acc r -> if List.memq r acc then acc else r :: acc)
      [] resources

let submit t ?(name = "") ~priority stages =
  if t.ran then invalid_arg "Engine.submit: engine already ran";
  if Float.is_nan priority then invalid_arg "Engine.submit: NaN priority";
  List.iter (check_stage t) stages;
  (* Hold sets are deduplicated once here, not on every grant attempt in
     the scheduler's retry loop. *)
  let stages =
    List.map
      (function
        | Hold (resources, d) as s ->
          let resources' = distinct resources in
          if resources' == resources then s else Hold (resources', d)
        | Delay _ as s -> s)
      stages
  in
  let jid = t.next_jid in
  t.next_jid <- jid + 1;
  let job =
    { jid; jname = name; priority; stages = Array.of_list stages;
      idx = 0; wake = Float.nan; held = []; state = Idle;
      completion = Float.nan; blocked_since = Float.nan }
  in
  t.jobs <- job :: t.jobs;
  jid

let run t =
  if t.ran then ()
  else begin
    t.ran <- true;
    (* Pre-resolved engine-wide instruments (see [meters] above). *)
    let m = t.meters in
    let mode = mode_of m in
    let total_work job =
      Array.fold_left
        (fun acc -> function
           | Delay d | Hold (_, d) -> acc +. Time.to_seconds d)
        0. job.stages
    in
    let compare_jobs a b =
      let tie = Int.compare a.jid b.jid in
      match t.policy with
      | Priority ->
        (match Float.compare b.priority a.priority with 0 -> tie | c -> c)
      | Fifo -> tie
      | Smallest_first ->
        (match Float.compare (total_work a) (total_work b) with
         | 0 -> tie
         | c -> c)
    in
    let order = List.sort compare_jobs t.jobs in
    let now = ref 0. in
    (* Let every runnable job start its next stage; loop to a fixpoint
       because a zero-length stage finishes immediately and enables the
       next one. Grants scan in priority order. *)
    let settle () =
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun job ->
             match job.state with
             | Sleeping | Holding | Done -> ()
             | Idle | Blocked ->
               if job.idx >= Array.length job.stages then begin
                 job.state <- Done;
                 job.completion <- !now;
                 changed := true
               end
               else begin
                 match job.stages.(job.idx) with
                 | Delay d ->
                   job.wake <- !now +. Time.to_seconds d;
                   job.state <- Sleeping;
                   changed := true
                 | Hold (resources, d) ->
                   if List.for_all (fun r -> not r.busy) resources then begin
                     (match mode with
                      | Off -> ()
                      | Held | Direct ->
                        accrue_all mode 0 (Time.to_seconds d) resources;
                        if job.state = Blocked
                        && not (Float.is_nan job.blocked_since) then begin
                          let waited = !now -. job.blocked_since in
                          queue_wait mode m waited;
                          accrue_all mode 1 waited resources
                        end);
                     List.iter (fun r -> r.busy <- true) resources;
                     job.held <- resources;
                     job.wake <- !now +. Time.to_seconds d;
                     job.state <- Holding;
                     changed := true
                   end
                   else if job.state = Idle then begin
                     job.blocked_since <- !now;
                     job.state <- Blocked;
                     changed := true
                   end
               end)
          order
      done
    in
    let finished () =
      List.for_all (fun job -> job.state = Done) order
    in
    settle ();
    while not (finished ()) do
      let next =
        List.fold_left
          (fun acc job ->
             match job.state with
             | Sleeping | Holding -> Float.min acc job.wake
             | Idle | Blocked | Done -> acc)
          Float.infinity order
      in
      if Float.is_finite next then begin
        now := next;
        List.iter
          (fun job ->
             match job.state with
             | (Sleeping | Holding) when job.wake <= !now ->
               List.iter (fun r -> r.busy <- false) job.held;
               job.held <- [];
               job.idx <- job.idx + 1;
               job.state <- Idle
             | _ -> ())
          order;
        settle ()
      end
      else begin
        (* Either a stage has infinite duration, or (impossibly) everyone
           is blocked. Remaining jobs never finish. *)
        List.iter
          (fun job ->
             if job.state <> Done then begin
               job.state <- Done;
               job.completion <- Float.infinity
             end)
          order
      end
    done;
    (* Every event advanced one job by one stage, so the events are the
       stages passed: the counters are touched once per run. *)
    match mode with
    | Off -> ()
    | Held | Direct ->
      count_run m ~jobs:(List.length order)
        ~events:(List.fold_left (fun n job -> n + job.idx) 0 order)
  end

let find_job t jid = List.find (fun job -> job.jid = jid) t.jobs

let completion_time t jid =
  run t;
  Time.seconds (find_job t jid).completion

let results t =
  run t;
  List.rev t.jobs
  |> List.map (fun job -> (job.jname, Time.seconds job.completion))

(* ------------------------------------------------------------------ *)
(* Jobs given as data                                                  *)
(* ------------------------------------------------------------------ *)

type 'd plan = { priority : float; stages : 'd stage_of list }

(* The clock of [run], for a job that never waits: [now] advances to
   exactly the job's own wake time, where its next stage starts, so it
   completes at the left fold of its durations from zero — the same
   float additions in the same order. *)
let summed_completion stages =
  List.fold_left
    (fun now -> function Delay d | Hold (_, d) -> now +. Time.to_seconds d)
    0. stages

let rec mem equal d = function
  | [] -> false
  | x :: rest -> equal d x || mem equal d rest

(* Does one of [jobs] hold [d] in some stage? *)
let rec held_by equal d = function
  | [] -> false
  | job :: jobs -> holds equal d job.stages || held_by equal d jobs

and holds equal d = function
  | [] -> false
  | Delay _ :: stages -> holds equal d stages
  | Hold (ds, _) :: stages -> mem equal d ds || holds equal d stages

(* Is some device held by two of the jobs? Loops, not closures: this
   runs once per recovery scenario. *)
let rec contended equal = function
  | [] -> false
  | job :: others -> clashes equal others job.stages || contended equal others

and clashes equal others = function
  | [] -> false
  | Delay _ :: stages -> clashes equal others stages
  | Hold (ds, _) :: stages ->
    any_held_by equal others ds || clashes equal others stages

and any_held_by equal others = function
  | [] -> false
  | d :: ds -> held_by equal d others || any_held_by equal others ds

(* Jobs [submit] would accept whose sums [run] reaches: a NaN priority
   or duration, or a sum that is not finite, is left to the engine. *)
let rec summable = function
  | [] -> true
  | job :: jobs ->
    (not (Float.is_nan job.priority))
    && Float.is_finite (summed_completion job.stages)
    && summable jobs

let rec stage_count n = function
  | [] -> n
  | job :: jobs -> stage_count (n + List.length job.stages) jobs

(* What [run] records per grant when no job ever waits: each distinct
   device of a hold is busy for its duration. *)
let rec accrue_holds mode equal gauges = function
  | [] -> ()
  | Delay _ :: stages -> accrue_holds mode equal gauges stages
  | Hold (ds, d) :: stages ->
    accrue_distinct mode equal gauges (Time.to_seconds d) ds;
    accrue_holds mode equal gauges stages

and accrue_distinct mode equal gauges s = function
  | [] -> ()
  | d :: ds ->
    if not (mem equal d ds) then accrue mode 0 s (gauges d);
    accrue_distinct mode equal gauges s ds

let rec accrue_jobs mode equal gauges = function
  | [] -> ()
  | job :: jobs ->
    accrue_holds mode equal gauges job.stages;
    accrue_jobs mode equal gauges jobs

(* One engine, one resource per distinct device. *)
let run_jobs ?policy m ~equal ~gauges jobs =
  let t = create_with ?policy ~meters:m () in
  let known = ref [] in
  let resource_of d =
    match List.find_opt (fun (d', _) -> equal d d') !known with
    | Some (_, r) -> r
    | None ->
      let gauges = match m.m_runs with Some _ -> gauges d | None -> no_gauges in
      let r = resource_with t ~gauges "" in
      known := (d, r) :: !known;
      r
  in
  let stage = function
    | Delay d -> Delay d
    | Hold (ds, d) -> Hold (List.map resource_of ds, d)
  in
  List.iter
    (fun job ->
       ignore (submit t ~priority:job.priority (List.map stage job.stages)))
    jobs;
  run t;
  List.rev_map (fun job -> Time.seconds job.completion) t.jobs

let schedule ?policy ~meters:m ~equal ~gauges jobs =
  if contended equal jobs then begin
    (match m.m_contended with Some c -> Metrics.incr c | None -> ());
    run_jobs ?policy m ~equal ~gauges jobs
  end
  else if summable jobs then begin
    (match mode_of m with
     | Off -> ()
     | (Held | Direct) as mode ->
       count_run m ~jobs:(List.length jobs) ~events:(stage_count 0 jobs);
       accrue_jobs mode equal gauges jobs);
    List.map (fun job -> Time.seconds (summed_completion job.stages)) jobs
  end
  else run_jobs ?policy m ~equal ~gauges jobs
