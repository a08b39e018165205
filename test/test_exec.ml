(* Tests for the deterministic domain-pool executor: scheduling never
   changes results, exceptions cross the domain boundary, and workers
   trace into lanes of their own. *)

open Dependable_storage
module Rng = Prng.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:50 gen f)

exception Boom of int

let api_tests =
  [ Alcotest.test_case "create rejects a non-positive domain count" `Quick
      (fun () ->
         Alcotest.check_raises "domains = 0"
           (Invalid_argument "Exec.create: domains must be >= 1") (fun () ->
             ignore (Exec.create ~domains:0 ())));
    Alcotest.test_case "empty input maps to empty output" `Quick (fun () ->
        List.iter
          (fun domains ->
             let pool = Exec.create ~domains () in
             check_int
               (Printf.sprintf "%d domains" domains)
               0
               (Array.length (Exec.map pool (fun _ _ x -> x + 1) [||])))
          [ 1; 4 ]);
    Alcotest.test_case "more domains than tasks" `Quick (fun () ->
        let pool = Exec.create ~domains:8 () in
        Alcotest.(check (array int))
          "three tasks on eight domains" [| 1; 2; 3 |]
          (Exec.map pool (fun _ _ x -> x + 1) [| 0; 1; 2 |]);
        check_int "workers clamp to the task count" 3
          (Exec.workers pool ~tasks:3));
    Alcotest.test_case "every map runs as wide as its task count allows"
      `Quick (fun () ->
        (* The width is a function of the pool and the task count alone:
           a cheap label mapped again and again keeps its full width,
           and [auto_width] changes nothing. *)
        let obs = Obs.create ~trace:true () in
        let pool = Exec.auto_width (Exec.create ~domains:4 ()) in
        List.iter
          (fun tasks ->
             for _ = 1 to 3 do
               ignore
                 (Exec.map pool ~label:"cheap" ~obs (fun _ _ x -> x)
                    (Array.make tasks 0))
             done)
          [ 8; 2 ];
        let widths =
          Obs.Trace.spans (Option.get (Obs.trace obs))
          |> List.filter (fun (s : Obs.Trace.span) -> s.name = "cheap")
          |> List.map (fun (s : Obs.Trace.span) -> List.assoc "workers" s.args)
        in
        Alcotest.(check (list string)) "workers per map"
          [ "4"; "4"; "4"; "2"; "2"; "2" ] widths);
    Alcotest.test_case "map passes the task index" `Quick (fun () ->
        let pool = Exec.create ~domains:4 () in
        Alcotest.(check (array int))
          "index plus value" [| 10; 21; 32; 43; 54 |]
          (Exec.map pool (fun _ i x -> (10 * (i + 1)) + x) [| 0; 1; 2; 3; 4 |]));
    Alcotest.test_case "a worker exception re-raises on the caller" `Quick
      (fun () ->
         let pool = Exec.create ~domains:4 () in
         match
           Exec.map pool
             (fun _ i x -> if i = 2 then raise (Boom i) else x)
             [| 0; 1; 2; 3 |]
         with
         | _ -> Alcotest.fail "expected the worker's exception"
         | exception Boom 2 -> ());
    Alcotest.test_case "the lowest-index failure wins" `Quick (fun () ->
        let pool = Exec.create ~domains:4 () in
        match
          Exec.map pool
            (fun _ i x -> if i = 1 || i = 3 then raise (Boom i) else x)
            [| 0; 1; 2; 3 |]
        with
        | _ -> Alcotest.fail "expected a worker exception"
        | exception Boom i -> check_int "index-1 failure reported" 1 i);
    Alcotest.test_case "a pool stays usable after a worker exception" `Quick
      (fun () ->
         (* Regression: domains are spawned per call, so a raising map
            must leave no poisoned state behind — the very next map on
            the same pool value runs normally. *)
         let pool = Exec.create ~domains:4 () in
         (match
            Exec.map pool
              (fun _ i x -> if i = 2 then raise (Boom i) else x)
              [| 0; 1; 2; 3 |]
          with
          | _ -> Alcotest.fail "expected the worker's exception"
          | exception Boom 2 -> ());
         Alcotest.(check (array int))
           "subsequent map on the same pool" [| 1; 2; 3; 4; 5 |]
           (Exec.map pool (fun _ _ x -> x + 1) [| 0; 1; 2; 3; 4 |])) ]

let determinism_tests =
  [ prop "output order equals input order at any domain count"
      QCheck2.Gen.(pair (int_range 1 6) (list small_int))
      (fun (domains, xs) ->
         let pool = Exec.create ~domains () in
         Exec.map pool (fun _ _ x -> (2 * x) + 1) (Array.of_list xs)
         = Array.of_list (List.map (fun x -> (2 * x) + 1) xs));
    Alcotest.test_case "map_rng draws identical streams at 1 and 4 domains"
      `Quick (fun () ->
        let tasks = Array.init 10 (fun i -> i) in
        let run domains =
          Exec.map_rng (Exec.create ~domains ()) ~rng:(Rng.of_int 7)
            (fun _ rng i -> (i, Rng.int rng 1_000_000, Rng.unit_float rng))
            tasks
        in
        check_bool "identical results" true (run 1 = run 4));
    Alcotest.test_case "stress: many tiny tasks across domains" `Quick
      (fun () ->
         (* CI's DS_TEST_DOMAINS=4 leg runs this with a real pool; the
            floor of 4 keeps it a parallel stress test locally too. *)
         let domains = max 4 Fixtures.test_domains in
         let n = 20_000 in
         let tasks = Array.init n (fun i -> i) in
         let out =
           Exec.map (Exec.create ~domains ()) (fun _ _ i -> (i * i) mod 97) tasks
         in
         check_int "length" n (Array.length out);
         Array.iteri
           (fun i v ->
              if v <> i * i mod 97 then
                Alcotest.failf "task %d: got %d, want %d" i v (i * i mod 97))
           out) ]

module Metrics = Obs.Metrics
module Trace = Obs.Trace

let acct_tests =
  [ Alcotest.test_case
      "an observed map matches an unobserved one and balances the accounting"
      `Quick (fun () ->
          let obs = Obs.create ~metrics:true ~trace:true () in
          let pool = Exec.create ~domains:4 () in
          let n = 10 in
          let tasks = Array.init n (fun i -> i) in
          let f _ i x = (10 * (i + 1)) + x in
          Alcotest.(check (array int)) "same results as without obs"
            (Exec.map pool f tasks)
            (Exec.map pool ~label:"region" ~obs f tasks);
          let reg = Option.get (Obs.metrics obs) in
          let count name = Metrics.count (Metrics.counter reg name) in
          check_int "one map" 1 (count "exec.maps");
          check_int "submitted" n (count "exec.tasks");
          check_int "completed" n (count "exec.tasks_completed");
          let w = Exec.workers pool ~tasks:n in
          Alcotest.(check (float 1e-9)) "widest pool" (float_of_int w)
            (Metrics.value (Metrics.gauge reg "exec.workers_max"));
          let hist name = Metrics.histogram reg name in
          check_int "one busy sample per worker" w
            (Metrics.observations (hist "exec.worker_busy_s"));
          check_int "one idle sample per worker" w
            (Metrics.observations (hist "exec.worker_idle_s"));
          check_int "one wall sample per map" 1
            (Metrics.observations (hist "exec.map_wall_s"));
          check_int "spawn timed once" 1
            (Metrics.observations (hist "exec.spawn_s"));
          check_int "join timed once" 1
            (Metrics.observations (hist "exec.join_s"));
          check_bool "strided schedule: task imbalance <= 1" true
            (Metrics.hist_max (hist "exec.task_imbalance") <= 1.);
          (* Busy time is measured inside the region, so it can never
             exceed the region wall times the pool width — the same
             invariant CI gates on in the uploaded profile. *)
          check_bool "busy fits inside wall x workers" true
            (Metrics.total (hist "exec.worker_busy_s")
             <= Metrics.total (hist "exec.map_wall_s")
                *. float_of_int w *. 1.01));
    Alcotest.test_case "a traced map merges one lane per domain" `Quick
      (fun () ->
         let obs = Obs.create ~trace:true () in
         let pool = Exec.create ~domains:4 () in
         let n = 10 in
         ignore
           (Exec.map pool ~label:"region" ~obs
              (fun _ i x -> i + x)
              (Array.init n (fun i -> i)));
         let spans = Trace.spans (Option.get (Obs.trace obs)) in
         let named name =
           List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans
         in
         check_int "one region span" 1 (List.length (named "region"));
         let workers = named "worker" in
         check_int "one worker span per domain" 4 (List.length workers);
         List.iter
           (fun (s : Trace.span) ->
              Alcotest.(check string) "rooted under the region"
                "region/worker" s.Trace.path)
           workers;
         Alcotest.(check (list int)) "one lane per domain, coordinator on 1"
           [ 1; 2; 3; 4 ]
           (List.sort_uniq compare
              (List.map (fun (s : Trace.span) -> s.Trace.tid) workers));
         let task_spans = named "task" in
         check_int "one task span per task" n (List.length task_spans);
         List.iter
           (fun (s : Trace.span) ->
              Alcotest.(check string) "nested in a worker"
                "region/worker/task" s.Trace.path)
           task_spans);
    Alcotest.test_case
      "profiled map_rng draws identical streams at any width"
      `Quick (fun () ->
          let tasks = Array.init 10 (fun i -> i) in
          let run domains obs =
            Exec.map_rng
              (Exec.create ~domains ())
              ~obs ~rng:(Rng.of_int 7)
              (fun _ rng i -> (i, Rng.int rng 1_000_000, Rng.unit_float rng))
              tasks
          in
          let plain = run 1 Obs.noop in
          check_bool "4-domain uninstrumented agrees" true
            (run 4 Obs.noop = plain);
          check_bool "1-domain profiled agrees" true
            (run 1 (Obs.create ~metrics:true ~trace:true ()) = plain);
          check_bool "4-domain profiled agrees" true
            (run 4 (Obs.create ~metrics:true ~trace:true ()) = plain));
    Alcotest.test_case
      "an observed map re-raises the lowest-index failure, accounting intact"
      `Quick (fun () ->
         let obs = Obs.create ~metrics:true () in
         let pool = Exec.create ~domains:4 () in
         (match
            Exec.map pool ~obs
              (fun _ i x -> if i = 1 || i = 3 then raise (Boom i) else x)
              [| 0; 1; 2; 3 |]
          with
          | _ -> Alcotest.fail "expected a worker exception"
          | exception Boom i -> check_int "index-1 failure reported" 1 i);
         let reg = Option.get (Obs.metrics obs) in
         (* A failed task still ran on its worker: the accounting counts
            it, so submitted == completed holds even on a raising map. *)
         check_int "failed tasks still count as run" 4
           (Metrics.count (Metrics.counter reg "exec.tasks_completed"))) ]

let obs_tests =
  [ Alcotest.test_case "the calling domain keeps the caller's trace" `Quick
      (fun () ->
         (* Spans nest by dynamic scope on one thread, so only tasks on
            the calling domain may record into the caller's collector;
            every spawned worker records into a lane of its own. *)
         let obs = Obs.create ~trace:true () in
         let caller = Obs.trace obs in
         let on_caller pool =
           Exec.map pool ~obs
             (fun wobs _ () -> Obs.trace wobs == caller)
             (Array.make 8 ())
         in
         Alcotest.(check (array bool))
           "stride 0 (tasks 0 and 4) on the caller's collector"
           [| true; false; false; false; true; false; false; false |]
           (on_caller (Exec.create ~domains:4 ()));
         check_bool "a one-domain pool runs every task on it" true
           (Array.for_all Fun.id (on_caller Exec.sequential))) ]

let suites =
  [ ("exec.api", api_tests);
    ("exec.determinism", determinism_tests);
    ("exec.accounting", acct_tests);
    ("exec.obs", obs_tests) ]
