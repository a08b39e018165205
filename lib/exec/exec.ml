module Rng = Ds_prng.Rng
module Obs = Ds_obs.Obs
module Metrics = Obs.Metrics

let now_s = Metrics.now_s

(* Stage-aware width policy: per map label, remember the observed
   per-task cost (an EWMA of busy seconds per task) and size the next
   map of that label from its projected serial time [tasks x cost].
   Small stages — a handful of growth moves, a short window menu —
   clamp to one worker and never pay domain spawn/join; only stages
   whose projected time can amortize the spawn cost fan out.

   The table is an atomic assoc list updated from whichever domain ran
   the map; a racing insert can at worst drop a peer's fresh estimate,
   which the next map of that label simply re-learns. Width is pure
   scheduling (the strided schedule and index-order merges make every
   width byte-identical), so the policy cannot steer results. *)
type cost_model = {
  threshold_s : float;  (* target serial seconds per worker *)
  costs : (string * float Atomic.t) list Atomic.t;
}

type pool = { domains : int; auto : cost_model option }

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Exec.create: domains must be >= 1";
  { domains; auto = None }

let sequential = { domains = 1; auto = None }

(* Default threshold: a domain spawn/join round trip costs on the order
   of 100 us; below ~1 ms of projected serial work the fan-out cannot
   amortize it. *)
let auto_width ?(threshold_s = 1e-3) pool =
  if threshold_s <= 0. then invalid_arg "Exec.auto_width: threshold must be > 0";
  (* A one-domain pool can never widen, so it has nothing to learn. *)
  if pool.domains = 1 then pool
  else { pool with auto = Some { threshold_s; costs = Atomic.make [] } }

let domains pool = pool.domains

let workers pool ~tasks = max 1 (min pool.domains tasks)

let observed_cost cm label =
  match List.assoc_opt label (Atomic.get cm.costs) with
  | Some slot -> Some (Atomic.get slot)
  | None -> None

let note_cost cm label per_task_s =
  if Float.is_finite per_task_s && per_task_s >= 0. then begin
    let entries = Atomic.get cm.costs in
    match List.assoc_opt label entries with
    | Some slot ->
      (* EWMA smooths one-off stalls; plain set — a lost race loses one
         observation, not correctness. *)
      Atomic.set slot ((0.7 *. Atomic.get slot) +. (0.3 *. per_task_s))
    | None ->
      Atomic.set cm.costs ((label, Atomic.make per_task_s) :: entries)
  end

(* The width an auto-sizing pool gives a map: full width while the label
   is unknown (first map learns), then the smallest width that keeps
   each worker's projected share around [threshold_s]. *)
let width_for pool ~label ~tasks =
  let full = workers pool ~tasks in
  match pool.auto with
  | None -> full
  | Some cm ->
    if full <= 1 then full
    else begin
      match observed_cost cm label with
      | None -> full
      | Some per_task ->
        let projected = per_task *. float_of_int tasks in
        if projected < cm.threshold_s then 1
        else min full (max 1 (int_of_float (projected /. cm.threshold_s)))
    end

(* Pool-accounting instruments, pre-resolved once per metrics registry:
   the solvers run thousands of instrumented maps per second, and
   re-resolving a dozen fixed names through the registry lock on every
   map dominated the accounting's own allocation. One-slot cache with a
   benign race: a concurrent refill re-resolves the same names and the
   registry hands back the same instruments, so totals are unchanged. *)
type acct_instruments = {
  ai_reg : Metrics.registry;
  maps_c : Metrics.counter;
  tasks_c : Metrics.counter;
  workers_max_g : Metrics.gauge;
  map_wall_h : Metrics.histogram;
  spawn_h : Metrics.histogram;
  join_h : Metrics.histogram;
  worker_busy_h : Metrics.histogram;
  worker_idle_h : Metrics.histogram;
  tasks_completed_c : Metrics.counter;
  busy_imbalance_h : Metrics.histogram;
  task_imbalance_h : Metrics.histogram;
  minor_words_g : Metrics.gauge;
  major_words_g : Metrics.gauge;
  minor_col_c : Metrics.counter;
  major_col_c : Metrics.counter;
}

let acct_slot : acct_instruments option Atomic.t = Atomic.make None

let acct_instruments reg =
  match Atomic.get acct_slot with
  | Some ai when ai.ai_reg == reg -> ai
  | _ ->
    let ai =
      { ai_reg = reg;
        maps_c = Metrics.counter reg "exec.maps";
        tasks_c = Metrics.counter reg "exec.tasks";
        workers_max_g = Metrics.gauge reg "exec.workers_max";
        map_wall_h = Metrics.histogram reg "exec.map_wall_s";
        spawn_h = Metrics.histogram reg "exec.spawn_s";
        join_h = Metrics.histogram reg "exec.join_s";
        worker_busy_h = Metrics.histogram reg "exec.worker_busy_s";
        worker_idle_h = Metrics.histogram reg "exec.worker_idle_s";
        tasks_completed_c = Metrics.counter reg "exec.tasks_completed";
        busy_imbalance_h = Metrics.histogram reg "exec.busy_imbalance_s";
        task_imbalance_h = Metrics.histogram reg "exec.task_imbalance";
        minor_words_g = Metrics.gauge reg "exec.minor_words";
        major_words_g = Metrics.gauge reg "exec.major_words";
        minor_col_c = Metrics.counter reg "exec.minor_collections";
        major_col_c = Metrics.counter reg "exec.major_collections" }
    in
    Atomic.set acct_slot (Some ai);
    ai

(* Everything the caller-side accounting needs about one finished map.
   Collected into plain per-worker arrays (disjoint slots, like the
   result array) and emitted from the calling domain only after every
   worker has joined — observers never race, and the emission order is
   deterministic. *)
type acct = {
  busy : float array;  (* per worker: wall time of its stride *)
  tasks_run : int array;
  minor : float array;  (* per worker: Gc.quick_stat deltas *)
  major : float array;
  minor_col : int array;
  major_col : int array;
}

let emit_acct ai a ~n ~w ~wall ~spawn_s ~join_s =
  Metrics.incr ai.maps_c;
  Metrics.add ai.tasks_c n;
  Metrics.gauge_max ai.workers_max_g (float_of_int w);
  Metrics.observe ai.map_wall_h wall;
  (match spawn_s with Some s -> Metrics.observe ai.spawn_h s | None -> ());
  (match join_s with Some s -> Metrics.observe ai.join_h s | None -> ());
  let busy_lo = ref Float.infinity and busy_hi = ref 0. in
  let run_lo = ref max_int and run_hi = ref 0 in
  let completed = ref 0 in
  let minor = ref 0. and major = ref 0. in
  let minor_col = ref 0 and major_col = ref 0 in
  for k = 0 to w - 1 do
    Metrics.observe ai.worker_busy_h a.busy.(k);
    Metrics.observe ai.worker_idle_h (Float.max 0. (wall -. a.busy.(k)));
    busy_lo := Float.min !busy_lo a.busy.(k);
    busy_hi := Float.max !busy_hi a.busy.(k);
    run_lo := min !run_lo a.tasks_run.(k);
    run_hi := max !run_hi a.tasks_run.(k);
    completed := !completed + a.tasks_run.(k);
    minor := !minor +. a.minor.(k);
    major := !major +. a.major.(k);
    minor_col := !minor_col + a.minor_col.(k);
    major_col := !major_col + a.major_col.(k)
  done;
  Metrics.add ai.tasks_completed_c !completed;
  Metrics.observe ai.busy_imbalance_h (!busy_hi -. !busy_lo);
  Metrics.observe ai.task_imbalance_h (float_of_int (!run_hi - !run_lo));
  Metrics.gauge_add ai.minor_words_g !minor;
  Metrics.gauge_add ai.major_words_g !major;
  Metrics.add ai.minor_col_c !minor_col;
  Metrics.add ai.major_col_c !major_col

(* A task's slot in the result array. Slot [i] belongs to task [i]
   alone: the strided schedule assigns disjoint index sets to the
   workers, so the array is written race-free without locks. *)
type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* The one schedule. Worker [k] runs tasks [k], [k + w], ... on its own
   domain (the coordinator takes stride 0), under its own trace lane,
   timing its stride and its Gc delta into slot [k] of [a]. Everything
   the caller sees (results, the re-raised failure, accounting, the
   learned cost) is read back in index order after every domain joins,
   so the width [w] is pure scheduling. *)
let run_strided pool ~label ~obs ~traced ~w f tasks =
  let n = Array.length tasks in
  let slots = Array.make n Pending in
  let a =
    { busy = Array.make w 0.;
      tasks_run = Array.make w 0;
      minor = Array.make w 0.;
      major = Array.make w 0.;
      minor_col = Array.make w 0;
      major_col = Array.make w 0 }
  in
  let stride wobs k =
    let gc0 = Gc.quick_stat () in
    let t0 = now_s () in
    let run () =
      let i = ref k in
      while !i < n do
        let idx = !i in
        (match
           if traced then
             Obs.with_span wobs ~args:[ ("task", string_of_int idx) ] "task"
               (fun () -> f wobs idx tasks.(idx))
           else f wobs idx tasks.(idx)
         with
         | v -> slots.(idx) <- Done v
         | exception e ->
           slots.(idx) <- Failed (e, Printexc.get_raw_backtrace ()));
        i := idx + w
      done
    in
    if traced then
      Obs.with_span wobs ~args:[ ("worker", string_of_int k) ] "worker" run
    else run ();
    a.busy.(k) <- now_s () -. t0;
    a.tasks_run.(k) <- (n - k + w - 1) / w;
    let gc1 = Gc.quick_stat () in
    a.minor.(k) <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
    a.major.(k) <- gc1.Gc.major_words -. gc0.Gc.major_words;
    a.minor_col.(k) <- gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    a.major_col.(k) <- gc1.Gc.major_collections - gc0.Gc.major_collections
  in
  let t_region = now_s () in
  let spawn_s, join_s =
    if w = 1 then begin
      stride obs 0;
      (None, None)
    end
    else begin
      (* Lanes are forked here, while [label]'s span is open, so worker
         spans root under it; they merge back after every join, in
         worker-index order. *)
      let lanes =
        Array.init (w - 1) (fun j -> Obs.fork_lane obs ~tid:(j + 2))
      in
      let t_spawn = now_s () in
      let spawned =
        Array.mapi
          (fun j (wobs, _) -> Domain.spawn (fun () -> stride wobs (j + 1)))
          lanes
      in
      let spawn_s = now_s () -. t_spawn in
      stride obs 0;
      let t_join = now_s () in
      Array.iter Domain.join spawned;
      Array.iter (fun (_, lane) -> Obs.merge_lane obs lane) lanes;
      (Some spawn_s, Some (now_s () -. t_join))
    end
  in
  (match Obs.metrics obs with
   | Some reg ->
     emit_acct (acct_instruments reg) a ~n ~w ~wall:(now_s () -. t_region)
       ~spawn_s ~join_s
   | None -> ());
  (* Busy seconds per task is the one cost signal: idle and spawn/join
     overhead are excluded, so the estimate is width-independent. *)
  (match pool.auto with
   | Some cm ->
     note_cost cm label (Array.fold_left ( +. ) 0. a.busy /. float_of_int n)
   | None -> ());
  (* [Array.map] walks in index order: the lowest-index failure raises. *)
  Array.map
    (function
      | Done v -> v
      | Failed (e, backtrace) -> Printexc.raise_with_backtrace e backtrace
      | Pending -> assert false)
    slots

let map pool ?(label = "exec.map") ?(obs = Obs.noop) f tasks =
  let n = Array.length tasks in
  let traced = Option.is_some (Obs.trace obs) in
  if pool.domains = 1 && not (traced || Obs.metrics_on obs) then
    Array.mapi (f obs) tasks
  else if n = 0 then [||]
  else begin
    let w = width_for pool ~label ~tasks:n in
    let region () = run_strided pool ~label ~obs ~traced ~w f tasks in
    if traced then
      Obs.with_span obs
        ~args:[ ("tasks", string_of_int n); ("workers", string_of_int w) ]
        label region
    else region ()
  end

let map_rng pool ?label ?obs ~rng f tasks =
  (* Pre-split in index order on the calling domain: every task's
     stream is fixed here, before any task runs anywhere, and nothing
     below draws from [rng]. *)
  let rngs = Array.init (Array.length tasks) (fun _ -> Rng.split rng) in
  map pool ?label ?obs (fun wobs i x -> f wobs rngs.(i) x) tasks
