(* Tests for the discrete-event engine: delays, exclusive holds, priority
   serialization, multi-resource grants, infinite stages, and job sets
   that [Engine.schedule] times without the event loop. *)

open Dependable_storage.Units
module Engine = Dependable_storage.Sim.Engine

let check_bool = Alcotest.(check bool)
let check_hours = Alcotest.(check (float 1e-6))

let hours t = Time.to_hours t

let engine_tests =
  [ Alcotest.test_case "single delay job" `Quick (fun () ->
        let e = Engine.create () in
        let j = Engine.submit e ~name:"a" ~priority:1. [ Engine.Delay (Time.hours 2.) ] in
        check_hours "2h" 2. (hours (Engine.completion_time e j)));
    Alcotest.test_case "empty job completes at zero" `Quick (fun () ->
        let e = Engine.create () in
        let j = Engine.submit e ~name:"a" ~priority:1. [] in
        check_hours "0" 0. (hours (Engine.completion_time e j)));
    Alcotest.test_case "stages are sequential" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "disk" in
        let j =
          Engine.submit e ~name:"a" ~priority:1.
            [ Engine.Delay (Time.hours 1.); Engine.Hold ([ r ], Time.hours 2.);
              Engine.Delay (Time.hours 0.5) ]
        in
        check_hours "3.5h" 3.5 (hours (Engine.completion_time e j)));
    Alcotest.test_case "delays run in parallel" `Quick (fun () ->
        let e = Engine.create () in
        let a = Engine.submit e ~name:"a" ~priority:1. [ Engine.Delay (Time.hours 4.) ] in
        let b = Engine.submit e ~name:"b" ~priority:1. [ Engine.Delay (Time.hours 4.) ] in
        check_hours "a" 4. (hours (Engine.completion_time e a));
        check_hours "b" 4. (hours (Engine.completion_time e b)));
    Alcotest.test_case "holds serialize on a shared device" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "tape" in
        let a = Engine.submit e ~name:"a" ~priority:1. [ Engine.Hold ([ r ], Time.hours 3.) ] in
        let b = Engine.submit e ~name:"b" ~priority:1. [ Engine.Hold ([ r ], Time.hours 3.) ] in
        check_hours "first" 3. (hours (Engine.completion_time e a));
        check_hours "second queued" 6. (hours (Engine.completion_time e b)));
    Alcotest.test_case "higher priority served first" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "link" in
        let low = Engine.submit e ~name:"low" ~priority:1. [ Engine.Hold ([ r ], Time.hours 2.) ] in
        let high = Engine.submit e ~name:"high" ~priority:10. [ Engine.Hold ([ r ], Time.hours 2.) ] in
        check_hours "high first" 2. (hours (Engine.completion_time e high));
        check_hours "low waits" 4. (hours (Engine.completion_time e low)));
    Alcotest.test_case "no preemption: a started hold finishes" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "link" in
        (* Low priority starts immediately; high priority arrives (becomes
           ready) only after a delay, and must wait. *)
        let low = Engine.submit e ~name:"low" ~priority:1. [ Engine.Hold ([ r ], Time.hours 5.) ] in
        let high =
          Engine.submit e ~name:"high" ~priority:10.
            [ Engine.Delay (Time.hours 1.); Engine.Hold ([ r ], Time.hours 1.) ]
        in
        check_hours "low kept the device" 5. (hours (Engine.completion_time e low));
        check_hours "high waited" 6. (hours (Engine.completion_time e high)));
    Alcotest.test_case "ties broken by submission order" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "x" in
        let first = Engine.submit e ~name:"first" ~priority:5. [ Engine.Hold ([ r ], Time.hours 1.) ] in
        let second = Engine.submit e ~name:"second" ~priority:5. [ Engine.Hold ([ r ], Time.hours 1.) ] in
        check_hours "first" 1. (hours (Engine.completion_time e first));
        check_hours "second" 2. (hours (Engine.completion_time e second)));
    Alcotest.test_case "multi-resource hold needs all devices" `Quick (fun () ->
        let e = Engine.create () in
        let r1 = Engine.resource e "r1" and r2 = Engine.resource e "r2" in
        let a = Engine.submit e ~name:"a" ~priority:2. [ Engine.Hold ([ r1 ], Time.hours 2.) ] in
        let b = Engine.submit e ~name:"b" ~priority:1. [ Engine.Hold ([ r1; r2 ], Time.hours 1.) ] in
        (* b wants r1+r2 but a holds r1 (same arrival, higher priority). *)
        check_hours "a" 2. (hours (Engine.completion_time e a));
        check_hours "b after a" 3. (hours (Engine.completion_time e b)));
    Alcotest.test_case "non-conflicting multi-resource holds overlap" `Quick (fun () ->
        let e = Engine.create () in
        let r1 = Engine.resource e "r1" and r2 = Engine.resource e "r2" in
        let a = Engine.submit e ~name:"a" ~priority:1. [ Engine.Hold ([ r1 ], Time.hours 2.) ] in
        let b = Engine.submit e ~name:"b" ~priority:1. [ Engine.Hold ([ r2 ], Time.hours 2.) ] in
        check_hours "a" 2. (hours (Engine.completion_time e a));
        check_hours "b parallel" 2. (hours (Engine.completion_time e b)));
    Alcotest.test_case "duplicate resource in one hold is harmless" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "r" in
        let a = Engine.submit e ~name:"a" ~priority:1. [ Engine.Hold ([ r; r ], Time.hours 1.) ] in
        check_hours "1h" 1. (hours (Engine.completion_time e a)));
    Alcotest.test_case "zero-duration stages chain at one instant" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "r" in
        let a =
          Engine.submit e ~name:"a" ~priority:1.
            [ Engine.Delay Time.zero; Engine.Hold ([ r ], Time.zero);
              Engine.Delay Time.zero ]
        in
        check_hours "instant" 0. (hours (Engine.completion_time e a)));
    Alcotest.test_case "infinite stage never completes; others unaffected" `Quick
      (fun () ->
         let e = Engine.create () in
         let r = Engine.resource e "r" in
         let stuck = Engine.submit e ~name:"stuck" ~priority:1. [ Engine.Delay Time.infinity ] in
         let fine = Engine.submit e ~name:"fine" ~priority:1. [ Engine.Hold ([ r ], Time.hours 1.) ] in
         check_hours "fine" 1. (hours (Engine.completion_time e fine));
         check_bool "stuck forever" false
           (Time.is_finite (Engine.completion_time e stuck)));
    Alcotest.test_case "infinite hold starves later holders" `Quick (fun () ->
        let e = Engine.create () in
        let r = Engine.resource e "r" in
        let hog = Engine.submit e ~name:"hog" ~priority:10. [ Engine.Hold ([ r ], Time.infinity) ] in
        let starved = Engine.submit e ~name:"starved" ~priority:1. [ Engine.Hold ([ r ], Time.hours 1.) ] in
        check_bool "hog" false (Time.is_finite (Engine.completion_time e hog));
        check_bool "starved" false (Time.is_finite (Engine.completion_time e starved)));
    Alcotest.test_case "submit after run rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.submit e ~name:"a" ~priority:1. []);
        Engine.run e;
        Alcotest.check_raises "late submit"
          (Invalid_argument "Engine.submit: engine already ran") (fun () ->
              ignore (Engine.submit e ~name:"b" ~priority:1. [])));
    Alcotest.test_case "foreign resource rejected" `Quick (fun () ->
        let e1 = Engine.create () and e2 = Engine.create () in
        let r = Engine.resource e1 "r" in
        Alcotest.check_raises "foreign" (Invalid_argument "Engine: foreign resource")
          (fun () ->
             ignore
               (Engine.submit e2 ~name:"a" ~priority:1.
                  [ Engine.Hold ([ r ], Time.hours 1.) ])));
    Alcotest.test_case "results lists all jobs in submission order" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.submit e ~name:"a" ~priority:1. [ Engine.Delay (Time.hours 1.) ]);
        ignore (Engine.submit e ~name:"b" ~priority:9. [ Engine.Delay (Time.hours 2.) ]);
        Alcotest.(check (list string)) "names" [ "a"; "b" ]
          (List.map fst (Engine.results e)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"serialized holds sum on one device" ~count:50
         QCheck2.Gen.(list_size (int_range 1 8) (float_range 0.1 10.))
         (fun durations ->
            let e = Engine.create () in
            let r = Engine.resource e "r" in
            let jobs =
              List.map
                (fun d ->
                   Engine.submit e ~name:"j" ~priority:1.
                     [ Engine.Hold ([ r ], Time.hours d) ])
                durations
            in
            let finish =
              List.fold_left
                (fun acc j -> Float.max acc (hours (Engine.completion_time e j)))
                0. jobs
            in
            let total = List.fold_left ( +. ) 0. durations in
            Float.abs (finish -. total) < 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"on one device, higher priority never finishes later" ~count:50
         QCheck2.Gen.(list_size (int_range 2 6) (pair (float_range 1. 9.) (float_range 0.1 5.)))
         (fun jobs_spec ->
            let e = Engine.create () in
            let r = Engine.resource e "r" in
            let jobs =
              List.map
                (fun (prio, d) ->
                   (prio,
                    Engine.submit e ~name:"j" ~priority:prio
                      [ Engine.Hold ([ r ], Time.hours d) ]))
                jobs_spec
            in
            (* The strictly-highest-priority job must finish no later than
               anyone else (equal priorities are FIFO by submission). *)
            let sorted =
              List.sort (fun (a, _) (b, _) -> Float.compare b a) jobs
            in
            match sorted with
            | (top_p, top_j) :: rest ->
              List.for_all
                (fun (p, j) ->
                   p = top_p
                   || hours (Engine.completion_time e top_j)
                      <= hours (Engine.completion_time e j) +. 1e-9)
                rest
            | [] -> true)) ]

(* Randomized stage plans over a few shared devices: the engine must
   terminate, and every job's completion must sit between its own work
   (lower bound) and the total work in the system (upper bound, since
   devices only ever serialize). *)
let fuzz_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"fuzz: completions bounded by own and total work"
         ~count:60
         QCheck2.Gen.(
           list_size (int_range 1 6)
             (pair (float_range 0. 9.)
                (list_size (int_range 0 4)
                   (pair (int_range 0 3) (float_range 0. 5.)))))
         (fun jobs_spec ->
            let e = Engine.create () in
            let devices =
              [| Engine.resource e "d0"; Engine.resource e "d1";
                 Engine.resource e "d2" |]
            in
            let jobs =
              List.map
                (fun (priority, stages_spec) ->
                   let stages =
                     List.map
                       (fun (which, dur) ->
                          if which = 3 then Engine.Delay (Time.hours dur)
                          else Engine.Hold ([ devices.(which) ], Time.hours dur))
                       stages_spec
                   in
                   let own =
                     List.fold_left
                       (fun acc (_, d) -> acc +. d) 0. stages_spec
                   in
                   (Engine.submit e ~name:"fuzz" ~priority stages, own))
                jobs_spec
            in
            let total = List.fold_left (fun acc (_, own) -> acc +. own) 0. jobs in
            List.for_all
              (fun (id, own) ->
                 let finish = Time.to_hours (Engine.completion_time e id) in
                 finish >= own -. 1e-9 && finish <= total +. 1e-9)
              jobs)) ]

(* [Engine.schedule] against its oracle, the event loop. A seeded
   family of job sets: 1-6 jobs of Delay and Hold stages, holds drawn
   from 1-5 devices (so some sets hold every device once and others
   share one), a quarter of the durations zero and a few infinite.
   Every set is timed both ways, each against a fresh registry:
   completion times must agree bit for bit, and so must the engine's
   counts, device seconds and queue waits. Sets that share no device
   are the ones [schedule] sums without an engine. *)
module Rng = Dependable_storage.Prng.Rng
module Obs = Dependable_storage.Obs
module Metrics = Obs.Metrics

let random_set rng =
  let devices = Rng.int_in rng 1 5 in
  let duration () =
    match Rng.int rng 40 with
    | 0 -> Time.infinity
    | n when n < 10 -> Time.zero
    | _ -> Time.seconds (Rng.float rng 1e5)
  in
  let stage () =
    if Rng.bool rng then Engine.Delay (duration ())
    else
      let held = List.init (Rng.int_in rng 1 3) (fun _ -> Rng.int rng devices) in
      Engine.Hold (held, duration ())
  in
  let plan () =
    { Engine.priority = float_of_int (Rng.int rng 3);
      stages = List.init (Rng.int rng 5) (fun _ -> stage ()) }
  in
  let policy =
    match Rng.int rng 3 with
    | 0 -> Engine.Priority
    | 1 -> Engine.Fifo
    | _ -> Engine.Smallest_first
  in
  (policy, devices, List.init (Rng.int_in rng 1 6) (fun _ -> plan ()))

let held_devices (p : int Engine.plan) =
  List.concat_map
    (function Engine.Delay _ -> [] | Engine.Hold (ds, _) -> ds)
    p.Engine.stages

(* Two plans hold one device: the test's own reading of contention. *)
let shares plans =
  let rec go = function
    | [] -> false
    | p :: rest ->
      List.exists
        (fun d -> List.exists (fun q -> List.mem d (held_devices q)) rest)
        (held_devices p)
      || go rest
  in
  go plans

let device_name i = Printf.sprintf "d%d" i

(* The reference: one engine, one resource per device, published as it
   goes. *)
let engine_times policy devices plans =
  let obs = Obs.create ~metrics:true () in
  let e = Engine.create ~policy ~obs () in
  let resources = Array.init devices (fun i -> Engine.resource e (device_name i)) in
  let ids =
    List.map
      (fun (p : int Engine.plan) ->
         Engine.submit e ~priority:p.Engine.priority
           (List.map
              (function
                | Engine.Delay d -> Engine.Delay d
                | Engine.Hold (ds, d) ->
                  Engine.Hold (List.map (Array.get resources) ds, d))
              p.Engine.stages))
      plans
  in
  (List.map (Engine.completion_time e) ids, Option.get (Obs.metrics obs))

(* [schedule] as the recovery simulator calls it: meters resolved once,
   device seconds held in cells, published when the batch ends. *)
let scheduled_times policy devices plans =
  let obs = Obs.create ~metrics:true () in
  let meters = Engine.meters_of_obs obs in
  let gauges =
    Array.init devices (fun i ->
        Engine.held_gauges (Engine.device_gauges obs (device_name i)))
  in
  let times =
    Engine.schedule ~policy ~meters ~equal:Int.equal ~gauges:(Array.get gauges)
      plans
  in
  Engine.publish_meters meters;
  Array.iter Engine.publish_gauges gauges;
  (times, Option.get (Obs.metrics obs))

let bits t = Int64.bits_of_float (Time.to_seconds t)

(* Everything the engine meters, as exact values: counts, and gauge and
   histogram sums by their bits. *)
let engine_readings devices reg =
  let count name = Int64.of_int (Metrics.count (Metrics.counter reg name)) in
  let gauge name = Int64.bits_of_float (Metrics.value (Metrics.gauge reg name)) in
  let waits = Metrics.histogram reg "sim.queue_wait_s" in
  [ ("sim.runs", count "sim.runs"); ("sim.jobs", count "sim.jobs");
    ("sim.events", count "sim.events");
    ("waits", Int64.of_int (Metrics.observations waits));
    ("wait total", Int64.bits_of_float (Metrics.total waits)) ]
  @ List.concat
      (List.init devices (fun i ->
           [ ("busy " ^ device_name i, gauge ("sim.busy_s." ^ device_name i));
             ("wait " ^ device_name i, gauge ("sim.wait_s." ^ device_name i)) ]))

let schedule_tests =
  [ Alcotest.test_case "schedule matches the engine on 10,000 seeded job sets"
      `Quick (fun () ->
        let rng = Rng.of_int 19 in
        let summed = ref 0 and shared = ref 0 and blocked = ref 0 in
        for set = 1 to 10_000 do
          let policy, devices, plans = random_set rng in
          let expected, ref_reg = engine_times policy devices plans in
          let got, reg = scheduled_times policy devices plans in
          let fail what = Alcotest.failf "set %d: %s disagree with the engine" set what in
          if List.map bits got <> List.map bits expected then fail "completion times";
          List.iter2
            (fun (name, want) (_, have) -> if want <> have then fail name)
            (engine_readings devices ref_reg) (engine_readings devices reg);
          let contended = Metrics.count (Metrics.counter reg "sim.contended") in
          if shares plans then begin
            incr shared;
            if contended <> 1 then fail "sim.contended";
            if Metrics.observations (Metrics.histogram reg "sim.queue_wait_s") > 0
            then incr blocked
          end
          else begin
            incr summed;
            if contended <> 0 then fail "sim.contended"
          end
        done;
        (* Both kinds of set, and real waiting among the shared ones. *)
        check_bool (Printf.sprintf "%d disjoint sets" !summed) true (!summed >= 2_000);
        check_bool (Printf.sprintf "%d shared sets" !shared) true (!shared >= 2_000);
        check_bool (Printf.sprintf "%d sets with a wait" !blocked) true
          (!blocked >= 1_000));
    Alcotest.test_case "schedule rejects NaN as submit does" `Quick (fun () ->
        let meters = Engine.meters_of_obs Obs.noop in
        let schedule plans =
          ignore
            (Engine.schedule ~meters ~equal:Int.equal
               ~gauges:(fun _ -> Engine.no_gauges) plans)
        in
        Alcotest.check_raises "priority"
          (Invalid_argument "Engine.submit: NaN priority") (fun () ->
              schedule [ { Engine.priority = Float.nan; stages = [] } ]);
        (* Zero times forever: the one NaN a [Time.t] can hold. *)
        let nan = Time.scale 0. Time.infinity in
        Alcotest.check_raises "duration"
          (Invalid_argument "Engine: NaN duration") (fun () ->
              schedule
                [ { Engine.priority = 1.; stages = [ Engine.Hold ([ 0 ], nan) ] } ])) ]

let suites =
  [ ("sim.engine", engine_tests); ("sim.fuzz", fuzz_tests);
    ("sim.schedule", schedule_tests) ]
