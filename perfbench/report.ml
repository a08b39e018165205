open Dependable_storage

let end_to_end_units = Perfbench_lib.Names.end_to_end
let per_layer_units = Perfbench_lib.Names.per_layer

let info fmt = Printf.ksprintf print_endline fmt

(* A harness reads only the last line; everything before it is for
   people. A metric that is not a finite number makes the run incorrect
   rather than print an unparseable value. *)
let emit ~correct ~attempted ~failed ~units values =
  let value name =
    match List.assoc_opt name values with Some v -> v | None -> 0.
  in
  let bad =
    List.filter (fun (name, _) -> not (Float.is_finite (value name))) units
  in
  List.iter (fun (name, _) -> info "non-finite metric %s" name) bad;
  let body =
    List.map
      (fun (name, unit) ->
        let v = value name in
        Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          unit)
      units
  in
  print_endline
    (Printf.sprintf
       "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
       (correct && bad = []) attempted failed (String.concat "," body))

let emit_timed ~tally ~checks_ok values =
  List.iter
    (fun (op, reason) -> info "operation %d failed: %s" op reason)
    (Perfbench_lib.Tally.reasons tally);
  emit
    ~correct:(checks_ok && Perfbench_lib.Tally.failed tally = 0)
    ~attempted:(Perfbench_lib.Tally.attempted tally)
    ~failed:(Perfbench_lib.Tally.failed tally)
    ~units:end_to_end_units values

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ())
    in
    scan ()

(* Re-cost a returned design from scratch on its own provisioning: it
   must reproduce exactly the cost the solver reported. *)
let reproduces_cost likelihood (c : Solver.Candidate.t) =
  let again =
    Cost.Evaluate.provisioned c.Solver.Candidate.eval.Cost.Evaluate.provision likelihood
  in
  Units.Money.equal (Cost.Evaluate.total again) (Solver.Candidate.cost c)

(* Set up [times] times, each [set_up ()] returning its result and its
   normalised seconds; all but the last result are [discard]ed. *)
let repeated_setup ?(discard = ignore) ~times set_up =
  let steps = List.init times (fun _ -> set_up ()) in
  List.iteri (fun i (v, _) -> if i < times - 1 then discard v) steps;
  (fst (List.nth steps (times - 1)), Array.of_list (List.map snd steps))

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* Per-layer attribution summed over several Prof captures. A span's
   self time is its wall time minus its direct children's (Prof's wall_s
   is inclusive and summed over calls). Exec's bookkeeping spans and the
   solver's per-step spans are glue, not layers: their self time goes to
   the nearest enclosing layer span, so a probe walk's own work counts as
   refit and a fleet's per-shard reuse checks as fleet.resolve. Also
   summed: counters, gauges, pool overhead and lock acquisitions. *)
module Attr = struct
  type t = { self : (string, float) Hashtbl.t; count : (string, float) Hashtbl.t }

  let create () = { self = Hashtbl.create 32; count = Hashtbl.create 64 }

  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

  let glue =
    [ "exec.map"; "worker"; "task"; "solver.probes"; "solver.assign"; "fleet.shard";
      "portfolio.wave" ]

  let owner path =
    let parts = List.rev (String.split_on_char '/' path) in
    match List.find_opt (fun n -> not (List.mem n glue)) parts with
    | Some layer -> layer
    | None -> List.hd parts

  let add t (p : Obs.Prof.t) =
    List.iter
      (fun (s : Obs.Prof.stage) ->
        let prefix = s.Obs.Prof.path ^ "/" in
        let children =
          List.fold_left
            (fun acc (c : Obs.Prof.stage) ->
              if c.Obs.Prof.depth = s.Obs.Prof.depth + 1
                 && String.starts_with ~prefix c.Obs.Prof.path
              then acc +. c.Obs.Prof.wall_s
              else acc)
            0. p.Obs.Prof.stages
        in
        bump t.self (owner s.Obs.Prof.path) (s.Obs.Prof.wall_s -. children))
      p.Obs.Prof.stages;
    List.iter (fun (k, v) -> bump t.count k (float_of_int v)) p.Obs.Prof.counters;
    List.iter (fun (k, v) -> bump t.count k v) p.Obs.Prof.gauges;
    (match p.Obs.Prof.pool with
     | Some pool ->
       bump t.count "pool.overhead_s" (pool.Obs.Prof.map_wall_s -. pool.Obs.Prof.busy_s)
     | None -> ());
    List.iter
      (fun (l : Obs.Prof.lock) ->
        bump t.count "locks.acquisitions" (float_of_int l.Obs.Prof.acquisitions))
      p.Obs.Prof.locks

  let self t name = Option.value ~default:0. (Hashtbl.find_opt t.self name)
  let count t name = Option.value ~default:0. (Hashtbl.find_opt t.count name)
end

let ratio a b = if b = 0. then 0. else a /. b

(* Layer figures every in-process traced run derives the same way from
   its traced captures ([traced], over [ops] operations) and its
   metrics-only captures ([metered]). *)
let solver_layers ~ops ~traced ~metered =
  let per_op x = x /. float_of_int ops in
  let c = Attr.count traced and s = Attr.self traced in
  let hits = c "config.cache_hits" and misses = c "config.cache_misses" in
  [ ("solver.evaluations_per_op", per_op (c "solver.evaluations"));
    ("solver.greedy_self_s", per_op (s "solver.greedy"));
    ("solver.refit_self_s", per_op (s "solver.refit"));
    ("solver.polish_self_s", per_op (s "solver.polish"));
    ("solver.probe_yield", ratio (c "solver.probe_improved") (c "solver.probes"));
    ("solver.resolve_self_s", per_op (s "solver.resolve"));
    ("solver.resolve_dirty_per_op", per_op (c "solver.resolve_dirty"));
    ("config.solves_per_op", per_op (c "config.solves"));
    ("config.self_s", per_op (s "config.solve"));
    ("config.windows_self_s", per_op (s "config.windows"));
    ("config.growth_self_s", per_op (s "config.growth"));
    ("config.growth_steps_per_op", per_op (c "config.growth_steps"));
    ("memo.hit_ratio", ratio hits (hits +. misses));
    ("memo.evictions_per_op", per_op (c "config.cache_evictions"));
    ("recovery.scenarios_per_op", per_op (c "recovery.scenarios"));
    ("recovery.self_s", per_op (s "recovery.scenario"));
    ("sim.events_per_op", per_op (c "sim.events"));
    ("sim.jobs_per_op", per_op (c "sim.jobs"));
    ("cost.evaluations_per_op", per_op (c "cost.evaluations"));
    ("fleet.resolve_self_s", per_op (s "fleet.resolve"));
    ("fleet.reconcile_self_s", per_op (s "fleet.reconcile"));
    ("fleet.reconcile_passes_per_op", per_op (c "fleet.reconcile_passes"));
    ("fleet.conflicts_per_op", per_op (c "fleet.conflicts"));
    ("exec.maps_per_op", per_op (Attr.count metered "exec.maps"));
    ("exec.tasks_per_op", per_op (Attr.count metered "exec.tasks"));
    ("exec.overhead_s_per_op", per_op (Attr.count metered "pool.overhead_s"));
    ("obs.lock_acquisitions_per_op", per_op (Attr.count metered "locks.acquisitions")) ]

(* Mean seconds per call of [f], over at least 5 calls and 0.05 s. *)
let per_call f =
  let t0 = Perfbench_lib.Yardstick.now_s () in
  let rec go n =
    f ();
    let dt = Perfbench_lib.Yardstick.now_s () -. t0 in
    if n + 1 >= 5 && dt >= 0.05 then dt /. float_of_int (n + 1)
    else go (n + 1)
  in
  go 0

(* {!per_call} cycling through the elements of [a]. *)
let per_call_each a f =
  let i = ref 0 in
  per_call (fun () ->
      f a.(!i mod Array.length a);
      incr i)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  ( v,
    ( g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_words -. g0.Gc.major_words,
      g1.Gc.major_collections - g0.Gc.major_collections ) )

let gc_layers ~ops (minor, major, majors) =
  let per_op x = x /. float_of_int ops in
  [ ("gc.minor_mw_per_op", per_op minor /. 1e6);
    ("gc.major_mw_per_op", per_op major /. 1e6);
    ("gc.major_collections_per_op", per_op (float_of_int majors)) ]

let host_line (loop : Perfbench_lib.Loop.t) =
  let module S = Perfbench_lib.Stats in
  info "host: yardstick median %.6f s, spread %.4f over %d samples; raw op p50 %.6f s"
    (S.median loop.Perfbench_lib.Loop.samples)
    (S.spread loop.Perfbench_lib.Loop.samples)
    (Array.length loop.Perfbench_lib.Loop.samples)
    (Option.value ~default:0. (S.nearest_rank loop.Perfbench_lib.Loop.raw 50))

let host_layers (loop : Perfbench_lib.Loop.t) =
  let module S = Perfbench_lib.Stats in
  [ ("host.ref_s", S.median loop.Perfbench_lib.Loop.samples);
    ("host.ref_spread", S.spread loop.Perfbench_lib.Loop.samples);
    ( "host.raw_op_p50_s",
      Option.value ~default:0. (S.nearest_rank loop.Perfbench_lib.Loop.raw 50) ) ]

(* One pass of [ops] operations through the measurement loop, each under
   a fresh capability from [obs_of] (metrics and/or trace), folded into
   an [Attr] after the operation, outside its timing. Gc deltas are
   taken around the operations alone, so the yardstick's own allocation
   never counts. *)
let pass ~ops ~obs_of op =
  let attr = Attr.create () in
  let current = ref Obs.noop in
  let gc = ref (0., 0., 0) in
  let after _ =
    match Obs.metrics !current with
    | Some registry ->
      Attr.add attr (Obs.Prof.capture ~registry ?trace:(Obs.trace !current) ())
    | None -> ()
  in
  let loop =
    Perfbench_lib.Loop.run ~seconds:0. ~min_ops:ops ~cap_s:infinity ~after
      (fun i ->
        let obs = obs_of () in
        current := obs;
        let (), (minor, major, majors) = gc_delta (fun () -> op ~obs i) in
        let m0, j0, c0 = !gc in
        gc := (m0 +. minor, j0 +. major, c0 + majors))
  in
  (loop, attr, !gc)

let plain () = Obs.noop
let metered () = Obs.create ~metrics:true ()
let traced () = Obs.create ~metrics:true ~trace:true ()

(* Host-normalisation factor for per-layer times of a traced run: the
   nominal yardstick time over the median of the run's samples. *)
let host_factor (loop : Perfbench_lib.Loop.t) =
  Perfbench_lib.Yardstick.nominal_s
  /. Perfbench_lib.Stats.median loop.Perfbench_lib.Loop.samples

(* Scale every per-layer time (unit "s") by a host factor. *)
let normalise_times k =
  List.map (fun (name, v) ->
      if List.assoc_opt name per_layer_units = Some "s" then (name, v *. k)
      else (name, v))

(* The three passes every in-process traced run makes over the same
   operations: plain (host, gc and the overhead baseline), metrics only
   (pool, lock and memo-wait figures, the metrics overhead) and traced
   (self times and counts, the trace overhead). *)
let three_passes ~ops op =
  let base, _, gc = pass ~ops ~obs_of:plain op in
  let meter, metered_attr, _ = pass ~ops ~obs_of:metered op in
  let trace, traced_attr, _ = pass ~ops ~obs_of:traced op in
  let k = host_factor base in
  let sum (l : Perfbench_lib.Loop.t) = Perfbench_lib.Stats.sum l.Perfbench_lib.Loop.norm in
  normalise_times k (solver_layers ~ops ~traced:traced_attr ~metered:metered_attr)
  @ gc_layers ~ops gc
  @ host_layers base
  @ [ ("obs.metrics_overhead_ratio", ratio (sum meter) (sum base));
      ("obs.trace_overhead_ratio", ratio (sum trace) (sum base)) ]

(* The host factor measured now, from a short burst of samples. *)
let host_factor_now () =
  Perfbench_lib.Yardstick.nominal_s
  /. Perfbench_lib.Stats.median (Array.init 11 (fun _ -> Perfbench_lib.Yardstick.sample ()))
