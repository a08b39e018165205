module Rng = Ds_prng.Rng
module Obs = Ds_obs.Obs
module Metrics = Obs.Metrics

let now_s = Metrics.now_s

type pool = { domains : int }

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Exec.create: domains must be >= 1";
  { domains }

let sequential = { domains = 1 }

let auto_width pool = pool

let domains pool = pool.domains

let workers pool ~tasks = max 1 (min pool.domains tasks)

(* Pool-accounting instruments, named once: each map resolves these
   handles without a lookup. *)
let maps_c = Metrics.counter_handle "exec.maps"
let tasks_c = Metrics.counter_handle "exec.tasks"
let workers_max_g = Metrics.gauge_handle "exec.workers_max"
let map_wall_h = Metrics.histogram_handle "exec.map_wall_s"
let spawn_h = Metrics.histogram_handle "exec.spawn_s"
let join_h = Metrics.histogram_handle "exec.join_s"
let worker_busy_h = Metrics.histogram_handle "exec.worker_busy_s"
let worker_idle_h = Metrics.histogram_handle "exec.worker_idle_s"
let tasks_completed_c = Metrics.counter_handle "exec.tasks_completed"
let busy_imbalance_h = Metrics.histogram_handle "exec.busy_imbalance_s"
let task_imbalance_h = Metrics.histogram_handle "exec.task_imbalance"
let minor_words_g = Metrics.gauge_handle "exec.minor_words"
let major_words_g = Metrics.gauge_handle "exec.major_words"
let minor_col_c = Metrics.counter_handle "exec.minor_collections"
let major_col_c = Metrics.counter_handle "exec.major_collections"

(* Everything the caller-side accounting needs about one finished map.
   Collected into plain per-worker arrays (disjoint slots, like the
   result array) and emitted from the calling domain only after every
   worker has joined — observers never race, and the emission order is
   deterministic. *)
type acct = {
  busy : float array;  (* per worker: wall time of its stride *)
  tasks_run : int array;
}

(* Whether this domain is running a stride of a metered map. A map
   started there is nested: its allocation lies inside the outer map's
   region, so only an outermost map adds a Gc delta. Every stride of a
   metered map sets the flag on the domain that runs it, so a map nested
   in a task that a worker domain runs sees it too. *)
let in_metered_stride = Domain.DLS.new_key (fun () -> ref false)

let emit_acct reg a ~n ~w ~wall ~spawn_s ~join_s ~gc =
  let r h = Metrics.resolve reg h in
  Metrics.incr (r maps_c);
  Metrics.add (r tasks_c) n;
  Metrics.gauge_max (r workers_max_g) (float_of_int w);
  Metrics.observe (r map_wall_h) wall;
  (* Every instrument is resolved on every map, so each exists from the
     first map on, though only a wide map spawns and only an outermost
     one takes Gc counts. *)
  let spawn = r spawn_h and join = r join_h in
  (match spawn_s with Some s -> Metrics.observe spawn s | None -> ());
  (match join_s with Some s -> Metrics.observe join s | None -> ());
  let busy_h = r worker_busy_h and idle_h = r worker_idle_h in
  let busy_lo = ref Float.infinity and busy_hi = ref 0. in
  let run_lo = ref max_int and run_hi = ref 0 in
  let completed = ref 0 in
  for k = 0 to w - 1 do
    Metrics.observe busy_h a.busy.(k);
    Metrics.observe idle_h (Float.max 0. (wall -. a.busy.(k)));
    busy_lo := Float.min !busy_lo a.busy.(k);
    busy_hi := Float.max !busy_hi a.busy.(k);
    run_lo := min !run_lo a.tasks_run.(k);
    run_hi := max !run_hi a.tasks_run.(k);
    completed := !completed + a.tasks_run.(k)
  done;
  Metrics.add (r tasks_completed_c) !completed;
  Metrics.observe (r busy_imbalance_h) (!busy_hi -. !busy_lo);
  Metrics.observe (r task_imbalance_h) (float_of_int (!run_hi - !run_lo));
  let minor = r minor_words_g and major = r major_words_g in
  let minor_col = r minor_col_c and major_col = r major_col_c in
  match gc with
  | None -> ()
  | Some ((g0 : Gc.stat), (g1 : Gc.stat)) ->
    Metrics.gauge_add minor (g1.minor_words -. g0.minor_words);
    Metrics.gauge_add major (g1.major_words -. g0.major_words);
    Metrics.add minor_col (g1.minor_collections - g0.minor_collections);
    Metrics.add major_col (g1.major_collections - g0.major_collections)

(* A task's slot in the result array. Slot [i] belongs to task [i]
   alone: the strided schedule assigns disjoint index sets to the
   workers, so the array is written race-free without locks. *)
type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* The one schedule. Worker [k] runs tasks [k], [k + w], ... on its own
   domain (the coordinator takes stride 0), under its own trace lane,
   timing its stride into slot [k] of [a]. Everything the caller sees
   (results, the re-raised failure, accounting) is read back in index
   order after every domain joins, so the width [w] is pure
   scheduling. An outermost metered map also takes the Gc's
   counts around the whole region, spawned domains included. *)
let run_strided ~obs ~traced ~w f tasks =
  let n = Array.length tasks in
  let slots = Array.make n Pending in
  let a = { busy = Array.make w 0.; tasks_run = Array.make w 0 } in
  let metered = Obs.metrics_on obs in
  let gc0 =
    if metered && not !(Domain.DLS.get in_metered_stride) then
      Some (Gc.quick_stat ())
    else None
  in
  let stride wobs k =
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
    let inside = Domain.DLS.get in_metered_stride in
    let outer = !inside in
    if metered then inside := true;
    (match
       if traced then
         Obs.with_span wobs ~args:[ ("worker", string_of_int k) ] "worker" run
       else run ()
     with
     | () -> inside := outer
     | exception e ->
       let backtrace = Printexc.get_raw_backtrace () in
       inside := outer;
       Printexc.raise_with_backtrace e backtrace);
    a.busy.(k) <- now_s () -. t0;
    a.tasks_run.(k) <- (n - k + w - 1) / w
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
     let wall = now_s () -. t_region in
     let gc = Option.map (fun g0 -> (g0, Gc.quick_stat ())) gc0 in
     emit_acct reg a ~n ~w ~wall ~spawn_s ~join_s ~gc
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
    let w = workers pool ~tasks:n in
    let region () = run_strided ~obs ~traced ~w f tasks in
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
