(* Tests for ds_obs: metrics registry semantics, span nesting and
   Chrome-trace export, the progress stream, engine/simulator hooks, and
   the guarantee that instrumentation never changes solver results. *)

open Dependable_storage
open Dependable_storage.Units
module Rng = Prng.Rng
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Progress = Obs.Progress
module Likelihood = Failure.Likelihood
module Provision = Design.Provision
module Candidate = Solver.Candidate
module Config_solver = Solver.Config_solver
module Design_solver = Solver.Design_solver
module Engine = Sim.Engine
module Year_sim = Risk.Year_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains = Fixtures.contains

(* ------------------------------------------------------------------ *)
(* A minimal JSON well-formedness checker (no JSON library in the      *)
(* dependency set). Accepts the value grammar of RFC 8259.             *)
(* ------------------------------------------------------------------ *)

let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail ()
  in
  let literal word = String.iter (fun c -> expect c) word in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance (); go ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail ()
           done;
           go ()
         | _ -> fail ())
      | Some _ -> advance (); go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' -> seen := true; advance (); go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail ()
    in
    digits ();
    (match peek () with
     | Some '.' -> advance (); digits ()
     | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
     | Some '{' ->
       advance (); skip_ws ();
       (match peek () with
        | Some '}' -> advance ()
        | _ ->
          let rec members () =
            skip_ws (); string_lit (); skip_ws (); expect ':'; value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail ()
          in
          members ())
     | Some '[' ->
       advance (); skip_ws ();
       (match peek () with
        | Some ']' -> advance ()
        | _ ->
          let rec elements () =
            value (); skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail ()
          in
          elements ())
     | Some '"' -> string_lit ()
     | Some 't' -> literal "true"
     | Some 'f' -> literal "false"
     | Some 'n' -> literal "null"
     | Some _ -> number ()
     | None -> fail ());
    skip_ws ()
  in
  try
    value ();
    !pos = n
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [ Alcotest.test_case "counters accumulate and are shared by name" `Quick
      (fun () ->
         let reg = Metrics.create () in
         let c = Metrics.counter reg "a.count" in
         Metrics.incr c;
         Metrics.add c 4;
         (* A second lookup under the same name hits the same cell. *)
         Metrics.incr (Metrics.counter reg "a.count");
         check_int "value" 6 (Metrics.count c));
    Alcotest.test_case "kind mismatch on a registered name raises" `Quick
      (fun () ->
         let reg = Metrics.create () in
         ignore (Metrics.counter reg "x");
         Alcotest.check_raises "gauge over counter"
           (Invalid_argument "Obs.Metrics: \"x\" is already a counter")
           (fun () -> ignore (Metrics.gauge reg "x")));
    Alcotest.test_case "histogram statistics" `Quick (fun () ->
        let reg = Metrics.create () in
        let h = Metrics.histogram reg "h" in
        check_int "empty" 0 (Metrics.observations h);
        Alcotest.(check (float 1e-9)) "empty mean" 0. (Metrics.mean h);
        List.iter (Metrics.observe h) [ 0.5; 1.5; 1.0 ];
        Metrics.observe h (-1.0) (* dropped *);
        Metrics.observe h Float.nan (* dropped *);
        check_int "count" 3 (Metrics.observations h);
        Alcotest.(check (float 1e-9)) "total" 3.0 (Metrics.total h);
        Alcotest.(check (float 1e-9)) "mean" 1.0 (Metrics.mean h);
        Alcotest.(check (float 1e-9)) "min" 0.5 (Metrics.hist_min h);
        Alcotest.(check (float 1e-9)) "max" 1.5 (Metrics.hist_max h));
    Alcotest.test_case "time observes a positive duration" `Quick (fun () ->
        let reg = Metrics.create () in
        let h = Metrics.histogram reg "t" in
        let r = Metrics.time h (fun () -> 42) in
        check_int "result" 42 r;
        check_int "observed" 1 (Metrics.observations h);
        check_bool "non-negative" true (Metrics.total h >= 0.));
    Alcotest.test_case "names are sorted; renderers cover every kind" `Quick
      (fun () ->
         let reg = Metrics.create () in
         Metrics.incr (Metrics.counter reg "b.counter");
         Metrics.set (Metrics.gauge reg "a.gauge") 2.5;
         Metrics.observe (Metrics.histogram reg "c.hist") 0.25;
         Alcotest.(check (list string)) "sorted"
           [ "a.gauge"; "b.counter"; "c.hist" ] (Metrics.names reg);
         let text = Format.asprintf "%a" Metrics.pp reg in
         List.iter
           (fun needle -> check_bool needle true (contains text needle))
           [ "a.gauge"; "b.counter"; "c.hist" ];
         check_bool "json well-formed" true
           (json_well_formed (Metrics.to_json reg)));
    Alcotest.test_case "json escapes awkward names" `Quick (fun () ->
        let reg = Metrics.create () in
        Metrics.incr (Metrics.counter reg "weird \"name\"\\path");
        check_bool "well-formed" true (json_well_formed (Metrics.to_json reg)));
    Alcotest.test_case "dumping while domains observe never shows a torn \
                        histogram" `Quick (fun () ->
        (* Four writer domains hammer one histogram with a constant
           sample while the main domain snapshots continuously: a torn
           read would show a count that disagrees with the sum, or a
           [lo, hi] envelope that excludes the only value ever
           observed. *)
        let reg = Metrics.create () in
        let per_domain = 10_000 in
        let finished = Atomic.make 0 in
        let writers =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  let c = Metrics.counter reg "race.dump.count" in
                  let h = Metrics.histogram reg "race.dump.hist" in
                  for _ = 1 to per_domain do
                    Metrics.incr c;
                    Metrics.observe h 0.25
                  done;
                  Atomic.incr finished))
        in
        let dumps = ref 0 in
        while Atomic.get finished < 4 do
          incr dumps;
          (match List.assoc_opt "race.dump.hist" (Metrics.snapshot reg) with
           | None | Some (Metrics.Counter_value _ | Metrics.Gauge_value _) ->
             ()
           | Some (Metrics.Histogram_value h) ->
             if h.Metrics.snap_count > 0 then begin
               if h.Metrics.snap_min <> 0.25 || h.Metrics.snap_max <> 0.25
               then
                 Alcotest.failf "torn envelope: min=%g max=%g (count=%d)"
                   h.Metrics.snap_min h.Metrics.snap_max h.Metrics.snap_count;
               let want = 0.25 *. float_of_int h.Metrics.snap_count in
               if Float.abs (h.Metrics.snap_total -. want) > 1e-6 then
                 Alcotest.failf "torn sum: total=%g, count says %g"
                   h.Metrics.snap_total want;
               if h.Metrics.snap_p50 <> 0.25 then
                 Alcotest.failf "torn percentile: p50=%g" h.Metrics.snap_p50
             end);
          if !dumps mod 32 = 0 then
            check_bool "json stays well-formed under fire" true
              (json_well_formed (Metrics.to_json reg))
        done;
        List.iter Domain.join writers;
        check_int "no lost increments" (4 * per_domain)
          (Metrics.count (Metrics.counter reg "race.dump.count"));
        check_int "no lost observations" (4 * per_domain)
          (Metrics.observations (Metrics.histogram reg "race.dump.hist"))) ]

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                               *)
(* ------------------------------------------------------------------ *)

let percentile_tests =
  [ Alcotest.test_case "a constant sample pins every percentile" `Quick
      (fun () ->
         let reg = Metrics.create () in
         let h = Metrics.histogram reg "const" in
         for _ = 1 to 10 do Metrics.observe h 0.25 done;
         List.iter
           (fun q ->
              Alcotest.(check (float 1e-12))
                (Printf.sprintf "p%g" (q *. 100.))
                0.25 (Metrics.percentile h q))
           [ 0.; 0.5; 0.9; 0.99; 1. ]);
    Alcotest.test_case "uniform 1..1000 ms lands within a bucket width" `Quick
      (fun () ->
         let reg = Metrics.create () in
         let h = Metrics.histogram reg "uniform" in
         for k = 1 to 1000 do
           Metrics.observe h (float_of_int k /. 1000.)
         done;
         (* Quarter-power-of-two buckets are ~19% wide; interpolation
            inside the covering bucket and clamping into [min, max] can
            only tighten the estimate. *)
         let within name want got tol =
           if Float.abs (got -. want) > tol then
             Alcotest.failf "%s: got %.6f, want %.6f +/- %.6f" name got want
               tol
         in
         within "p50" 0.5 (Metrics.percentile h 0.5) 0.12;
         within "p90" 0.9 (Metrics.percentile h 0.9) 0.2;
         within "p99" 0.99 (Metrics.percentile h 0.99) 0.2;
         within "p0 stays near min" 0.001 (Metrics.percentile h 0.) 0.0003;
         Alcotest.(check (float 1e-9)) "p100 clamps to max" 1.
           (Metrics.percentile h 1.));
    Alcotest.test_case "overflow and underflow clamp to the observed envelope"
      `Quick (fun () ->
          let reg = Metrics.create () in
          let over = Metrics.histogram reg "over" in
          Metrics.observe over 100. (* beyond the 64 s bucket span *);
          Alcotest.(check (float 1e-9)) "overflow median" 100.
            (Metrics.percentile over 0.5);
          let under = Metrics.histogram reg "under" in
          Metrics.observe under 1e-9 (* below the ~15 ns bucket floor *);
          Alcotest.(check (float 1e-15)) "underflow median" 1e-9
            (Metrics.percentile under 0.5));
    Alcotest.test_case "empty histogram and out-of-range q" `Quick (fun () ->
        let reg = Metrics.create () in
        let h = Metrics.histogram reg "h" in
        Alcotest.(check (float 1e-12)) "empty" 0. (Metrics.percentile h 0.5);
        Alcotest.check_raises "q > 1"
          (Invalid_argument "Obs.Metrics.percentile: q outside [0, 1]")
          (fun () -> ignore (Metrics.percentile h 2.));
        Alcotest.check_raises "q < 0"
          (Invalid_argument "Obs.Metrics.percentile: q outside [0, 1]")
          (fun () -> ignore (Metrics.percentile h (-0.1))));
    Alcotest.test_case "renderers expose the percentile columns" `Quick
      (fun () ->
         let reg = Metrics.create () in
         let h = Metrics.histogram reg "h" in
         List.iter (Metrics.observe h) [ 0.1; 0.2; 0.4 ];
         let json = Metrics.to_json reg in
         check_bool "well-formed" true (json_well_formed json);
         List.iter
           (fun needle -> check_bool needle true (contains json needle))
           [ "\"p50_s\":"; "\"p90_s\":"; "\"p99_s\":" ];
         let text = Format.asprintf "%a" Metrics.pp reg in
         List.iter
           (fun needle -> check_bool needle true (contains text needle))
           [ "p50="; "p90="; "p99=" ]) ]

(* ------------------------------------------------------------------ *)
(* Lockstat                                                            *)
(* ------------------------------------------------------------------ *)

let lockstat_tests =
  [ Alcotest.test_case "uncontended protects count without waits" `Quick
      (fun () ->
         let l = Obs.Lockstat.create () in
         check_int "result" 7 (Obs.Lockstat.protect l (fun () -> 7));
         Obs.Lockstat.protect l (fun () -> ());
         let s = Obs.Lockstat.stats l in
         check_int "acquisitions" 2 (Obs.Lockstat.acquisitions s);
         check_int "contended" 0 (Obs.Lockstat.contended s);
         Alcotest.(check (float 1e-12)) "no wait" 0. (Obs.Lockstat.wait_s s));
    Alcotest.test_case "a shared stats cell aggregates several locks" `Quick
      (fun () ->
         let s = Obs.Lockstat.create_stats () in
         let l1 = Obs.Lockstat.create ~stats:s () in
         let l2 = Obs.Lockstat.create ~stats:s () in
         Obs.Lockstat.protect l1 (fun () -> ());
         Obs.Lockstat.protect l2 (fun () -> ());
         Obs.Lockstat.protect l2 (fun () -> ());
         check_int "aggregated" 3 (Obs.Lockstat.acquisitions s));
    Alcotest.test_case "protect unlocks on raise" `Quick (fun () ->
        let l = Obs.Lockstat.create () in
        (try Obs.Lockstat.protect l (fun () -> failwith "boom")
         with Failure _ -> ());
        check_int "still usable" 3 (Obs.Lockstat.protect l (fun () -> 3));
        check_int "both counted" 2
          (Obs.Lockstat.acquisitions (Obs.Lockstat.stats l)));
    Alcotest.test_case "a blocked acquisition is contended, timed and hooked"
      `Quick (fun () ->
          let l = Obs.Lockstat.create () in
          let s = Obs.Lockstat.stats l in
          let hook_calls = Atomic.make 0 in
          let hook_total = Atomic.make 0. in
          Obs.Lockstat.set_on_wait s
            (Some
               (fun w ->
                  Atomic.incr hook_calls;
                  let rec add () =
                    let v = Atomic.get hook_total in
                    if not (Atomic.compare_and_set hook_total v (v +. w)) then
                      add ()
                  in
                  add ()));
          Obs.Lockstat.lock l;
          let d =
            Domain.spawn (fun () -> Obs.Lockstat.protect l (fun () -> 42))
          in
          (* The worker bumps the acquisition counter before trying the
             mutex; once that write is visible, grant it a generous
             grace period to reach the blocking path, then release. *)
          while Obs.Lockstat.acquisitions s < 2 do
            Domain.cpu_relax ()
          done;
          let t0 = Metrics.now_s () in
          while Metrics.now_s () -. t0 < 0.2 do
            Domain.cpu_relax ()
          done;
          Obs.Lockstat.unlock l;
          check_int "worker result" 42 (Domain.join d);
          check_int "contended" 1 (Obs.Lockstat.contended s);
          check_bool "wait recorded" true (Obs.Lockstat.wait_s s > 0.);
          check_int "hook fired once" 1 (Atomic.get hook_calls);
          Alcotest.(check (float 1e-6)) "hook total equals the stat"
            (Obs.Lockstat.wait_s s)
            (Atomic.get hook_total);
          Obs.Lockstat.set_on_wait s None) ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_tests =
  [ Alcotest.test_case "spans nest, close on exception, and count" `Quick
      (fun () ->
         let c = Trace.create () in
         let r =
           Trace.with_span c "outer" (fun () ->
               Trace.with_span c "inner" (fun () -> 1)
               + Trace.with_span c "inner" (fun () -> 2))
         in
         check_int "result" 3 r;
         (try Trace.with_span c "boom" (fun () -> failwith "boom")
          with Failure _ -> ());
         check_int "completed spans" 4 (Trace.span_count c));
    Alcotest.test_case "chrome export is valid JSON with span names" `Quick
      (fun () ->
         let c = Trace.create () in
         Trace.with_span c ~args:[ ("k", "v\"quoted\"") ] "outer" (fun () ->
             Trace.with_span c "inner" (fun () -> ()));
         let json = Trace.to_chrome_json c in
         check_bool "well-formed" true (json_well_formed json);
         List.iter
           (fun needle -> check_bool needle true (contains json needle))
           [ "\"ph\":\"X\""; "\"name\":\"outer\""; "\"name\":\"inner\"";
             "\"ts\":"; "\"dur\":" ]);
    Alcotest.test_case "tree aggregates repeated paths in order" `Quick
      (fun () ->
         let c = Trace.create () in
         for _ = 1 to 3 do
           Trace.with_span c "solve" (fun () ->
               Trace.with_span c "step" (fun () -> ()))
         done;
         let tree = Format.asprintf "%a" Trace.pp_tree c in
         check_bool "parent line" true (contains tree "solve");
         check_bool "child aggregated x3" true (contains tree "x3");
         check_bool "child indented" true (contains tree "  step")) ]

(* ------------------------------------------------------------------ *)
(* Per-domain trace lanes                                              *)
(* ------------------------------------------------------------------ *)

let lane_tests =
  [ Alcotest.test_case "worker lanes root under the forking span and merge"
      `Quick (fun () ->
          let c = Trace.create () in
          Trace.with_span c "region" (fun () ->
              (* Forked while "region" is open, so lane spans nest under
                 it. Lanes are plain collectors; driving them from one
                 thread here keeps the test deterministic. *)
              let l2 = Trace.worker c ~tid:2 in
              let l3 = Trace.worker c ~tid:3 in
              Trace.with_span l2 "worker" (fun () ->
                  Trace.with_span l2 "task" (fun () -> ()));
              Trace.with_span l3 "worker" (fun () -> ());
              Trace.merge ~into:c l2;
              Trace.merge ~into:c l3);
          check_int "all lanes' spans counted" 4 (Trace.span_count c);
          let spans = Trace.spans c in
          Alcotest.(check (list int)) "sorted by lane"
            [ 1; 2; 2; 3 ]
            (List.map (fun (s : Trace.span) -> s.Trace.tid) spans);
          List.iter
            (fun (s : Trace.span) ->
               match s.Trace.name with
               | "region" ->
                 check_string "root path" "region" s.Trace.path;
                 check_int "root depth" 0 s.Trace.depth
               | "worker" ->
                 check_string "lane path" "region/worker" s.Trace.path;
                 check_int "lane depth" 1 s.Trace.depth
               | "task" ->
                 check_string "nested path" "region/worker/task" s.Trace.path;
                 check_int "nested depth" 2 s.Trace.depth
               | other -> Alcotest.failf "unexpected span %S" other)
            spans;
          let json = Trace.to_chrome_json c in
          check_bool "chrome export well-formed" true (json_well_formed json);
          List.iter
            (fun needle -> check_bool needle true (contains json needle))
            [ "\"tid\":1"; "\"tid\":2"; "\"tid\":3"; "\"minor_words\":" ];
          (* The same path on two lanes folds into one tree line. *)
          let tree = Format.asprintf "%a" Trace.pp_tree c in
          check_bool "lanes aggregate in the tree" true (contains tree "x2"));
    Alcotest.test_case "fork_lane and merge_lane are inert without a trace"
      `Quick (fun () ->
          let obs = Obs.create ~metrics:true () in
          let wobs, lane = Obs.fork_lane obs ~tid:2 in
          check_bool "no lane handle" true (lane = None);
          check_int "capability still works" 5
            (Obs.with_span wobs "x" (fun () -> 5));
          Obs.merge_lane obs lane (* no-op, must not raise *));
    Alcotest.test_case "fork_lane gives each worker its own tid" `Quick
      (fun () ->
         let obs = Obs.create ~trace:true () in
         let parent = Option.get (Obs.trace obs) in
         Obs.with_span obs "region" (fun () ->
             let wobs, lane = Obs.fork_lane obs ~tid:2 in
             let lane_c = Option.get lane in
             check_int "lane tid" 2 (Trace.tid lane_c);
             check_bool "fresh collector" true
               (not (lane_c == parent));
             Obs.with_span wobs "worker" (fun () -> ());
             Obs.merge_lane obs lane);
         let spans = Trace.spans parent in
         check_int "both spans merged" 2 (List.length spans);
         check_bool "lane span rooted under region" true
           (List.exists
              (fun (s : Trace.span) ->
                 s.Trace.path = "region/worker" && s.Trace.tid = 2)
              spans)) ]

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)
(* ------------------------------------------------------------------ *)

let progress_tests =
  [ Alcotest.test_case "incumbent column is monotonically non-increasing"
      `Quick (fun () ->
          let s = Progress.create () in
          Progress.stage s ~evaluations:0 "greedy";
          Progress.incumbent s ~evaluations:5 100.;
          Progress.incumbent s ~evaluations:6 120. (* worse: dropped *);
          Progress.incumbent s ~evaluations:9 80.;
          Progress.incumbent s ~evaluations:11 80. (* equal: dropped *);
          let incumbents =
            List.filter_map
              (fun (e : Progress.entry) ->
                 match e.Progress.event with
                 | Progress.Incumbent c -> Some c
                 | _ -> None)
              (Progress.entries s)
          in
          Alcotest.(check (list (float 1e-9))) "kept" [ 100.; 80. ] incumbents;
          Alcotest.(check (option (float 1e-9))) "best" (Some 80.)
            (Progress.best s));
    Alcotest.test_case "csv shape and accept/reject bookkeeping" `Quick
      (fun () ->
         let s = Progress.create () in
         Progress.stage s ~evaluations:0 "greedy";
         Progress.incumbent s ~evaluations:3 42.5;
         Progress.accepted s ~evaluations:4;
         Progress.rejected s ~evaluations:5;
         check_int "accepted" 1 (Progress.accepted_count s);
         check_int "rejected" 1 (Progress.rejected_count s);
         let csv = Progress.to_csv s in
         let lines = String.split_on_char '\n' (String.trim csv) in
         check_int "lines" 5 (List.length lines);
         check_string "header" "evaluations,event,stage,cost" (List.hd lines);
         check_bool "stage row" true (List.mem "0,stage,greedy," lines);
         check_bool "incumbent row" true (List.mem "3,incumbent,,42.50" lines);
         check_bool "accept row" true (List.mem "4,accept,," lines);
         check_bool "reject row" true (List.mem "5,reject,," lines));
    Alcotest.test_case "on_event fires per entry and skips suppressed samples"
      `Quick (fun () ->
         let seen = ref [] in
         let s =
           Progress.create
             ~on_event:(fun e -> seen := Progress.csv_line e :: !seen) ()
         in
         Progress.stage s ~evaluations:0 "greedy";
         Progress.incumbent s ~evaluations:2 100.;
         Progress.incumbent s ~evaluations:3 150. (* worse: suppressed *);
         Progress.incumbent s ~evaluations:5 80.;
         check_int "three events reached the hook" 3 (List.length !seen);
         check_bool "suppressed sample never fired" true
           (not (List.exists (fun l -> l = "3,incumbent,,150.00\n") !seen)));
    Alcotest.test_case "streaming writer is visible before the producer ends"
      `Quick (fun () ->
         (* The flush-per-event contract: a reader on the other side of a
            pipe sees each event while the producing stream is still
            live (to_csv only materializes at the end). *)
         let r, w = Unix.pipe () in
         let oc = Unix.out_channel_of_descr w in
         let s = Progress.streaming oc in
         Progress.stage s ~evaluations:0 "greedy";
         Progress.incumbent s ~evaluations:4 99.5;
         (* The producer is NOT done: the stream is still open and the
            channel unclosed; everything flushed must already be in the
            pipe. *)
         let buf = Bytes.create 4096 in
         let n = Unix.read r buf 0 4096 in
         let got = Bytes.sub_string buf 0 n in
         check_string "reader sees header and both rows"
           "evaluations,event,stage,cost\n0,stage,greedy,\n4,incumbent,,99.50\n"
           got;
         (* Still usable afterwards: a later event flushes too. *)
         Progress.accepted s ~evaluations:6;
         let n = Unix.read r buf 0 4096 in
         check_string "later event flushed on its own"
           "6,accept,,\n" (Bytes.sub_string buf 0 n);
         close_out oc;
         Unix.close r) ]

(* ------------------------------------------------------------------ *)
(* Hooks in the engine and the solver stack                            *)
(* ------------------------------------------------------------------ *)

let hook_tests =
  [ Alcotest.test_case "engine records events, busy and queue wait" `Quick
      (fun () ->
         let obs = Obs.create ~metrics:true () in
         let engine = Engine.create ~obs () in
         let r = Engine.resource engine "dev" in
         let hold d = Engine.Hold ([ r ], Time.hours d) in
         let a = Engine.submit engine ~name:"a" ~priority:2. [ hold 1. ] in
         let b = Engine.submit engine ~name:"b" ~priority:1. [ hold 1. ] in
         Engine.run engine;
         Alcotest.(check (float 1e-6)) "a done at 1h" 1.
           (Time.to_hours (Engine.completion_time engine a));
         Alcotest.(check (float 1e-6)) "b done at 2h" 2.
           (Time.to_hours (Engine.completion_time engine b));
         let reg = Option.get (Obs.metrics obs) in
         check_int "jobs" 2 (Metrics.count (Metrics.counter reg "sim.jobs"));
         check_int "events" 2 (Metrics.count (Metrics.counter reg "sim.events"));
         Alcotest.(check (float 1e-6)) "busy 2h" (2. *. 3600.)
           (Metrics.value (Metrics.gauge reg "sim.busy_s.dev"));
         Alcotest.(check (float 1e-6)) "waited 1h" 3600.
           (Metrics.value (Metrics.gauge reg "sim.wait_s.dev"));
         check_int "one waiter" 1
           (Metrics.observations (Metrics.histogram reg "sim.queue_wait_s")));
    Alcotest.test_case "all-off capability behaves like noop" `Quick (fun () ->
        let obs = Obs.create () in
        check_bool "no metrics" true (Obs.metrics obs = None);
        check_bool "metrics_on false" true (not (Obs.metrics_on obs));
        (* Hooks are callable and inert on both. *)
        List.iter
          (fun o ->
             Obs.incr o "x";
             Obs.observe o "h" 0.5;
             Obs.stage o ~evaluations:0 "s";
             check_int "with_span passthrough" 7
               (Obs.with_span o "span" (fun () -> 7));
             check_int "time passthrough" 9 (Obs.time o "t" (fun () -> 9)))
          [ obs; Obs.noop ]) ]

(* Cheap search settings, mirroring test_solver's fast fixtures. *)
let fast_options =
  { Config_solver.search_options with
    Config_solver.max_growth_steps = 2;
    window_scope = Config_solver.Skip }

let fast_params =
  { Design_solver.default_params with
    Design_solver.breadth = 2; depth = 2; refit_rounds = 2; patience = 1;
    stage1_restarts = 2; options = fast_options;
    domains = Fixtures.test_domains }

let solver_tests =
  [ Alcotest.test_case
      "same seed, byte-identical design with 1 domain vs 4" `Slow
      (fun () ->
         (* The determinism contract of the parallel refit: the domain
            count schedules work, it must never steer it. Probe RNG
            streams are pre-split in index order and probe results merge
            in index order, so sequential and 4-domain runs agree to the
            byte — and do exactly the same amount of search work. *)
         let solve domains =
           let params =
             { fast_params with
               Design_solver.breadth = 4; refit_rounds = 3; patience = 2;
               domains }
           in
           Design_solver.solve ~params (Fixtures.peer_env ())
             (Experiments.Envs.peer_apps ()) Likelihood.default
         in
         match solve 1, solve 4 with
         | Some seq, Some par ->
           check_string "byte-identical design"
             (Design.Design_io.to_string seq.Design_solver.best.Candidate.design)
             (Design.Design_io.to_string par.Design_solver.best.Candidate.design);
           Alcotest.(check (float 1e-9)) "identical cost"
             (Money.to_dollars (Candidate.cost seq.Design_solver.best))
             (Money.to_dollars (Candidate.cost par.Design_solver.best));
           check_int "identical evaluation count"
             seq.Design_solver.evaluations par.Design_solver.evaluations;
           check_int "identical refit rounds" seq.Design_solver.refit_rounds_run
             par.Design_solver.refit_rounds_run
         | _ -> Alcotest.fail "solver found no design");
    Alcotest.test_case "Metrics.incr is domain-safe" `Quick (fun () ->
        (* 4 domains x 25k increments on one counter, plus concurrent
           gauge_add and histogram observes: nothing may be lost. With
           the old plain-int cells this dropped updates. *)
        let reg = Metrics.create () in
        let per_domain = 25_000 in
        let worker () =
          (* Look the instruments up inside the domain: registry lookup
             itself must also be safe under contention. *)
          let c = Metrics.counter reg "race.count" in
          let g = Metrics.gauge reg "race.gauge" in
          let h = Metrics.histogram reg "race.hist" in
          for _ = 1 to per_domain do
            Metrics.incr c;
            Metrics.gauge_add g 1.;
            Metrics.observe h 0.5
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        List.iter Domain.join domains;
        check_int "no lost counter increments" (4 * per_domain)
          (Metrics.count (Metrics.counter reg "race.count"));
        Alcotest.(check (float 1e-6)) "no lost gauge adds"
          (float_of_int (4 * per_domain))
          (Metrics.value (Metrics.gauge reg "race.gauge"));
        check_int "no lost observations" (4 * per_domain)
          (Metrics.observations (Metrics.histogram reg "race.hist"))) ]
  @
  [ Alcotest.test_case
      "same seed, identical design with instrumentation on vs off" `Slow
      (fun () ->
         let solve obs =
           Design_solver.solve ~params:fast_params ~obs (Fixtures.peer_env ())
             (Experiments.Envs.peer_apps ()) Likelihood.default
         in
         let plain = solve Obs.noop in
         let full =
           solve (Obs.create ~metrics:true ~trace:true ~progress:true ())
         in
         match plain, full with
         | Some plain, Some full ->
           check_string "identical design"
             (Design.Design_io.to_string plain.Design_solver.best.Candidate.design)
             (Design.Design_io.to_string full.Design_solver.best.Candidate.design);
           Alcotest.(check (float 1e-6)) "identical cost"
             (Money.to_dollars (Candidate.cost plain.Design_solver.best))
             (Money.to_dollars (Candidate.cost full.Design_solver.best));
           check_int "identical evaluation count" plain.Design_solver.evaluations
             full.Design_solver.evaluations
         | _ -> Alcotest.fail "solver found no design");
    Alcotest.test_case
      "outcome.evaluations matches the solver.evaluations metric" `Slow
      (fun () ->
         let obs = Obs.create ~metrics:true ~progress:true () in
         match
           Design_solver.solve ~params:fast_params ~obs (Fixtures.peer_env ())
             (Experiments.Envs.peer_apps ()) Likelihood.default
         with
         | None -> Alcotest.fail "no design"
         | Some outcome ->
           let reg = Option.get (Obs.metrics obs) in
           check_int "metric agrees" outcome.Design_solver.evaluations
             (Metrics.count (Metrics.counter reg "solver.evaluations"));
           (* Every counted evaluation is an actual configuration-solver
              call, so the config.solves counter can never lag behind. *)
           check_bool "no phantom evaluations" true
             (outcome.Design_solver.evaluations
              <= Metrics.count (Metrics.counter reg "config.solves"));
           check_bool "recovery simulated" true
             (Metrics.count (Metrics.counter reg "recovery.scenarios") > 0);
           check_bool "engine ran" true
             (Metrics.count (Metrics.counter reg "sim.runs") > 0);
           (* Progress stream caught the stage transitions. *)
           let stream = Option.get (Obs.progress obs) in
           let stages =
             List.filter_map
               (fun (e : Progress.entry) ->
                  match e.Progress.event with
                  | Progress.Stage s -> Some s
                  | _ -> None)
               (Progress.entries stream)
           in
           check_bool "greedy stage" true (List.mem "greedy" stages);
           check_bool "refit stage" true (List.mem "refit" stages);
           check_bool "polish stage" true (List.mem "polish" stages));
    Alcotest.test_case
      "same seed, identical design with the config cache on vs off" `Slow
      (fun () ->
         let solve obs config_cache_size =
           Design_solver.solve
             ~params:{ fast_params with Design_solver.config_cache_size }
             ~obs (Fixtures.peer_env ()) (Experiments.Envs.peer_apps ())
             Likelihood.default
         in
         let obs = Obs.create ~metrics:true () in
         let uncached = solve Obs.noop 0 in
         let cached = solve obs 256 in
         match uncached, cached with
         | Some uncached, Some cached ->
           check_string "identical design"
             (Design.Design_io.to_string
                uncached.Design_solver.best.Candidate.design)
             (Design.Design_io.to_string
                cached.Design_solver.best.Candidate.design);
           Alcotest.(check (float 1e-6)) "identical cost"
             (Money.to_dollars (Candidate.cost uncached.Design_solver.best))
             (Money.to_dollars (Candidate.cost cached.Design_solver.best));
           check_int "identical evaluation count"
             uncached.Design_solver.evaluations cached.Design_solver.evaluations;
           let reg = Option.get (Obs.metrics obs) in
           let count name = Metrics.count (Metrics.counter reg name) in
           check_bool "cache was exercised" true (count "config.cache_hits" > 0);
           check_int "every solve is a hit or a miss" (count "config.solves")
             (count "config.cache_hits" + count "config.cache_misses")
         | _ -> Alcotest.fail "solver found no design");
    Alcotest.test_case
      "full profiling is transparent at 1 and 4 domains" `Slow (fun () ->
        (* The profiling layer's core contract: metrics, trace lanes and
           the lock-wait hooks never steer the search — at any domain
           count, a fully profiled solve is byte-identical to a bare
           one, and the profile it leaves behind is coherent. *)
        List.iter
          (fun domains ->
             let params =
               { fast_params with
                 Design_solver.breadth = 4; refit_rounds = 3; patience = 2;
                 domains }
             in
             let solve obs =
               Design_solver.solve ~params ~obs (Fixtures.peer_env ())
                 (Experiments.Envs.peer_apps ()) Likelihood.default
             in
             let plain = solve Obs.noop in
             let obs =
               Obs.create ~metrics:true ~trace:true ~progress:true ()
             in
             let full = solve obs in
             (match plain, full with
              | Some plain, Some full ->
                check_string
                  (Printf.sprintf "byte-identical design (%d domains)" domains)
                  (Design.Design_io.to_string
                     plain.Design_solver.best.Candidate.design)
                  (Design.Design_io.to_string
                     full.Design_solver.best.Candidate.design);
                check_int
                  (Printf.sprintf "identical evaluations (%d domains)" domains)
                  plain.Design_solver.evaluations full.Design_solver.evaluations
              | _ -> Alcotest.fail "solver found no design");
             let p =
               Obs.Prof.capture ?registry:(Obs.metrics obs)
                 ?trace:(Obs.trace obs) ()
             in
             (match p.Obs.Prof.pool with
              | None -> Alcotest.fail "no pool accounting captured"
              | Some pl ->
                check_int
                  (Printf.sprintf "tasks all completed (%d domains)" domains)
                  pl.Obs.Prof.tasks_submitted pl.Obs.Prof.tasks_completed;
                check_bool "busy fits inside wall x workers" true
                  (pl.Obs.Prof.busy_s
                   <= pl.Obs.Prof.map_wall_s
                      *. float_of_int pl.Obs.Prof.workers_max
                      *. 1.01));
             check_bool "memo lock row present" true
               (List.exists
                  (fun (l : Obs.Prof.lock) ->
                     l.Obs.Prof.lock_name = "solver.memo")
                  p.Obs.Prof.locks);
             check_bool "profile json well-formed" true
               (json_well_formed (Obs.Prof.to_json p)))
          [ 1; 4 ]);
    Alcotest.test_case "risk simulation is obs-invariant" `Quick (fun () ->
        let prov =
          Fixtures.feasible (Provision.minimum (Fixtures.two_app_design ()))
        in
        let run obs =
          let rng = Rng.of_int 7 in
          (Year_sim.simulate ~years:200 ?obs rng prov Likelihood.default)
            .Year_sim.mean
        in
        let obs = Obs.create ~metrics:true ~trace:true () in
        Alcotest.(check (float 1e-6)) "same mean"
          (Money.to_dollars (run None))
          (Money.to_dollars (run (Some obs)));
        let reg = Option.get (Obs.metrics obs) in
        check_int "years counted" 200
          (Metrics.count (Metrics.counter reg "risk.tail.years"))) ]

(* ------------------------------------------------------------------ *)
(* Instrument overhead: what a metered solve pays for its metrics       *)
(* ------------------------------------------------------------------ *)

(* The quad, 6-app, quick-budget solve at seed 7, on one domain. *)
let quad_solve obs =
  let module R = Experiments.Request in
  let ok = function Ok v -> v | Error e -> Alcotest.fail (R.error_message e) in
  let env, apps = ok (R.instance ~apps:6 "quad") in
  let budget = ok (R.budget ~domains:1 ~seed:7 "quick") in
  ignore
    (R.best
       (ok
          (R.run_solve ~obs
             { R.env; apps; likelihood = Likelihood.default; budget;
               deadline_s = None })))

let registry_acquisitions reg =
  Obs.Lockstat.acquisitions (List.assoc "metrics.registry" (Metrics.lock_stats reg))

let overhead_tests =
  [ Alcotest.test_case "a warm registry takes no lock for a metered solve" `Slow
      (fun () ->
         (* Lookups of existing instruments read an immutable snapshot;
            the registry lock only guards creation. Once one solve has
            created every instrument, the same solve again creates none
            and so never locks. *)
         let reg = Metrics.create () in
         let obs = Obs.attach ~metrics:reg () in
         quad_solve obs;
         let created = registry_acquisitions reg in
         check_bool (Printf.sprintf "first solve created instruments (%d)" created)
           true (created > 0);
         quad_solve obs;
         check_int "registry acquisitions in the warm solve" 0
           (registry_acquisitions reg - created));
    Alcotest.test_case "exec Gc accounting counts a nested map once" `Slow
      (fun () ->
         (* config.windows and config.growth maps run inside solver.assign
            and solver.probes tasks. Only the outermost map adds its Gc
            delta, so the total cannot exceed what the whole solve
            allocated. *)
         let obs = Obs.create ~metrics:true () in
         let g0 = Gc.quick_stat () in
         quad_solve obs;
         let g1 = Gc.quick_stat () in
         let reg = Option.get (Obs.metrics obs) in
         let solve_words = g1.Gc.minor_words -. g0.Gc.minor_words in
         let exec_words = Metrics.value (Metrics.gauge reg "exec.minor_words") in
         check_bool
           (Printf.sprintf "exec.minor_words %.0f in (0, %.0f]" exec_words
              solve_words)
           true
           (exec_words > 0. && exec_words <= solve_words);
         check_bool "exec.minor_collections within the solve's" true
           (Metrics.count (Metrics.counter reg "exec.minor_collections")
            <= g1.Gc.minor_collections - g0.Gc.minor_collections));
    Alcotest.test_case "engine meters an unnamed job waiting on a two-device hold"
      `Quick (fun () ->
        let obs = Obs.create ~metrics:true () in
        let engine = Engine.create ~obs () in
        let dev = Engine.resource engine "dev" in
        let dev2 = Engine.resource engine "dev2" in
        let hold rs d = Engine.Hold (rs, Time.hours d) in
        (* a holds dev 0-1h; b waits 1h, then holds dev 1-2h; the unnamed
           c needs dev and dev2 together, waits 2h, holds both 2-4h. *)
        let a = Engine.submit engine ~name:"a" ~priority:3. [ hold [ dev ] 1. ] in
        let b = Engine.submit engine ~name:"b" ~priority:2. [ hold [ dev ] 1. ] in
        let c = Engine.submit engine ~priority:1. [ hold [ dev; dev2 ] 2. ] in
        Engine.run engine;
        List.iter
          (fun (label, job, h) ->
             Alcotest.(check (float 1e-6)) label h
               (Time.to_hours (Engine.completion_time engine job)))
          [ ("a at 1h", a, 1.); ("b at 2h", b, 2.); ("c at 4h", c, 4.) ];
        Alcotest.(check (list string)) "the unnamed job reports an empty name"
          [ "a"; "b"; "" ] (List.map fst (Engine.results engine));
        let reg = Option.get (Obs.metrics obs) in
        let gauge name = Metrics.value (Metrics.gauge reg name) in
        let seconds h = h *. 3600. in
        Alcotest.(check (float 1e-6)) "dev busy 1h + 1h + 2h" (seconds 4.)
          (gauge "sim.busy_s.dev");
        Alcotest.(check (float 1e-6)) "dev2 busy 2h" (seconds 2.)
          (gauge "sim.busy_s.dev2");
        Alcotest.(check (float 1e-6)) "dev waited 1h (b) + 2h (c)" (seconds 3.)
          (gauge "sim.wait_s.dev");
        Alcotest.(check (float 1e-6)) "dev2 waited 2h (c)" (seconds 2.)
          (gauge "sim.wait_s.dev2");
        let waits = Metrics.histogram reg "sim.queue_wait_s" in
        check_int "two waiters" 2 (Metrics.observations waits);
        Alcotest.(check (float 1e-6)) "queue wait total" (seconds 3.)
          (Metrics.total waits);
        check_int "jobs" 3 (Metrics.count (Metrics.counter reg "sim.jobs"));
        check_int "events" 3 (Metrics.count (Metrics.counter reg "sim.events")));
    Alcotest.test_case "domains racing to create one name share one instrument"
      `Quick (fun () ->
        let reg = Metrics.create () in
        let ready = Atomic.make 0 in
        let per_domain = 10_000 in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < 4 do Domain.cpu_relax () done;
          let c = Metrics.counter reg "race.fresh" in
          let h = Metrics.histogram reg "race.fresh_s" in
          for _ = 1 to per_domain do
            Metrics.incr c;
            Metrics.observe h 1e-3
          done;
          c
        in
        let counters =
          List.map Domain.join (List.init 4 (fun _ -> Domain.spawn worker))
        in
        check_bool "every domain got the same counter" true
          (List.for_all (fun c -> c == List.hd counters) counters);
        Alcotest.(check (list string)) "one instrument per name"
          [ "race.fresh"; "race.fresh_s" ] (Metrics.names reg);
        check_int "no lost increments" (4 * per_domain)
          (Metrics.count (Metrics.counter reg "race.fresh"));
        check_int "no lost observations" (4 * per_domain)
          (Metrics.observations (Metrics.histogram reg "race.fresh_s"))) ]

(* ------------------------------------------------------------------ *)
(* Prof: structured profiling reports                                  *)
(* ------------------------------------------------------------------ *)

let prof_tests =
  [ Alcotest.test_case "an empty capture is well-formed" `Quick (fun () ->
        let p = Obs.Prof.capture () in
        check_bool "no pool" true (p.Obs.Prof.pool = None);
        check_bool "no stages" true (p.Obs.Prof.stages = []);
        check_bool "no locks" true (p.Obs.Prof.locks = []);
        let json = Obs.Prof.to_json p in
        check_bool "json" true (json_well_formed json);
        check_bool "schema tag" true
          (contains json "\"schema\":\"ds-prof/1\""));
    Alcotest.test_case "capture folds an instrumented parallel map" `Quick
      (fun () ->
         let obs = Obs.create ~metrics:true ~trace:true () in
         let pool = Exec.create ~domains:4 () in
         let n = 12 in
         let out =
           Exec.map pool ~label:"region" ~obs
             (fun _ i x -> i + x)
             (Array.init n (fun i -> i))
         in
         check_int "mapped" n (Array.length out);
         let p =
           Obs.Prof.capture ~label:"test" ?registry:(Obs.metrics obs)
             ?trace:(Obs.trace obs) ()
         in
         (match p.Obs.Prof.pool with
          | None -> Alcotest.fail "no pool section"
          | Some pl ->
            check_int "one map" 1 pl.Obs.Prof.maps;
            check_int "submitted" n pl.Obs.Prof.tasks_submitted;
            check_int "completed" n pl.Obs.Prof.tasks_completed;
            check_int "widest pool" 4 pl.Obs.Prof.workers_max;
            check_bool "busy fits inside wall x workers" true
              (pl.Obs.Prof.busy_s <= pl.Obs.Prof.map_wall_s *. 4. *. 1.01);
            let u = Obs.Prof.utilization pl in
            check_bool "utilization in [0, 1]" true (u >= 0. && u <= 1.));
         let stage path =
           List.find_opt (fun s -> s.Obs.Prof.path = path) p.Obs.Prof.stages
         in
         (match stage "region" with
          | None -> Alcotest.fail "region stage missing"
          | Some s -> check_int "one region call" 1 s.Obs.Prof.calls);
         (match stage "region/worker" with
          | None -> Alcotest.fail "worker stage missing"
          | Some s -> check_int "one call per worker" 4 s.Obs.Prof.calls);
         (match stage "region/worker/task" with
          | None -> Alcotest.fail "task stage missing"
          | Some s -> check_int "one call per task" n s.Obs.Prof.calls);
         check_bool "registry lock row" true
           (List.exists
              (fun (l : Obs.Prof.lock) ->
                 l.Obs.Prof.lock_name = "metrics.registry")
              p.Obs.Prof.locks);
         let json = Obs.Prof.to_json p in
         check_bool "json" true (json_well_formed json);
         List.iter
           (fun needle -> check_bool needle true (contains json needle))
           [ "\"schema\":\"ds-prof/1\"";
             "\"pool\":{";
             "\"utilization\":";
             "\"region/worker/task\"" ];
         let text = Format.asprintf "%a" Obs.Prof.pp p in
         List.iter
           (fun needle -> check_bool needle true (contains text needle))
           [ "region"; "pool:"; "locks:" ]) ]

(* ------------------------------------------------------------------ *)
(* Sink export to files                                                 *)
(* ------------------------------------------------------------------ *)

let io_tests =
  [ Alcotest.test_case "write_file round-trips contents" `Quick (fun () ->
        let path = Filename.temp_file "ds_obs_test" ".json" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            (match Obs.write_file path "{\"ok\":true}" with
             | Ok () -> ()
             | Error msg -> Alcotest.fail msg);
            let ic = open_in_bin path in
            let contents =
              Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                  really_input_string ic (in_channel_length ic))
            in
            check_string "contents" "{\"ok\":true}" contents));
    Alcotest.test_case "write_file reports unwritable paths as Error" `Quick
      (fun () ->
         match Obs.write_file "/nonexistent-dir/ds_obs_test.json" "x" with
         | Ok () -> Alcotest.fail "expected Error for an unwritable path"
         | Error msg ->
           check_bool "names the path" true
             (contains msg "/nonexistent-dir/ds_obs_test.json"));
    (* End-to-end guard for the CLI: an unwritable sink path must not
       exit 0, or CI silently loses the artifact it asked for. The dstool
       binary is a declared test dependency, built next to the test
       executable's directory regardless of the invocation cwd. *)
    Alcotest.test_case "dstool exits nonzero when a sink path is unwritable"
      `Slow (fun () ->
          let dstool =
            Filename.concat
              (Filename.dirname Sys.executable_name)
              (Filename.concat Filename.parent_dir_name "bin/dstool.exe")
          in
          let run extra =
            Sys.command
              (Printf.sprintf
                 "%s solve --env peer --budget quick %s >/dev/null 2>/dev/null"
                 (Filename.quote dstool) extra)
          in
          check_int "clean run exits 0" 0 (run "");
          check_bool "unwritable --progress exits nonzero" true
            (run "--progress /nonexistent-dir/p.csv" <> 0);
          check_bool "unwritable --trace exits nonzero" true
            (run "--trace /nonexistent-dir/t.json" <> 0)) ]

let suites =
  [ ("obs.metrics", metrics_tests);
    ("obs.percentile", percentile_tests);
    ("obs.lockstat", lockstat_tests);
    ("obs.trace", trace_tests);
    ("obs.lanes", lane_tests);
    ("obs.progress", progress_tests);
    ("obs.hooks", hook_tests);
    ("obs.solver", solver_tests);
    ("obs.overhead", overhead_tests);
    ("obs.prof", prof_tests);
    ("obs.io", io_tests) ]
