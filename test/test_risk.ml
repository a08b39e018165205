(* Tests for the Monte Carlo risk analyzer (Year_sim, a view of
   Tail_sim's nominal run), the rare-event engine and the
   simulated-annealing baseline. *)

open Dependable_storage
open Dependable_storage.Units
module Rng = Prng.Rng
module Provision = Design.Provision
module Likelihood = Failure.Likelihood
module Penalty = Cost.Penalty
module Year_sim = Risk.Year_sim
module Tail_sim = Risk.Tail_sim
module Annealing = Heuristics.Annealing
module Candidate = Solver.Candidate
module Config_solver = Solver.Config_solver
module Heuristic_result = Heuristics.Heuristic_result

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let likelihood = Likelihood.default

let prov_of design = Fixtures.feasible (Provision.minimum design)

let risk_tests =
  [ Alcotest.test_case "mean converges to the analytic expectation" `Slow
      (fun () ->
         let prov = prov_of (Fixtures.two_app_design ()) in
         let analytic = Penalty.expected_annual prov likelihood in
         let expected =
           Money.to_dollars
             (Money.add analytic.Penalty.outage_total analytic.Penalty.loss_total)
         in
         let sim =
           Year_sim.simulate ~years:40_000 (Rng.of_int 11) prov likelihood
         in
         let mean = Money.to_dollars sim.Year_sim.mean in
         check_bool
           (Printf.sprintf "within 10%% (analytic %.3g, simulated %.3g)"
              expected mean)
           true
           (Float.abs (mean -. expected) <= 0.1 *. expected));
    Alcotest.test_case "percentiles are ordered" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let sim = Year_sim.simulate ~years:2_000 (Rng.of_int 12) prov likelihood in
        check_bool "p50 <= p90" true Money.(sim.Year_sim.p50 <= sim.Year_sim.p90);
        check_bool "p90 <= p99" true Money.(sim.Year_sim.p90 <= sim.Year_sim.p99);
        check_bool "p99 <= worst" true Money.(sim.Year_sim.p99 <= sim.Year_sim.worst);
        check_bool "mean between extremes" true
          Money.(sim.Year_sim.mean <= sim.Year_sim.worst));
    Alcotest.test_case "quiet years match the Poisson void probability" `Slow
      (fun () ->
         (* Total event rate for the two-app design: 2 object (1/3 each)
            + 1 array (1/3) + 1 site (1/5) = 1.2/yr; P(no events) =
            exp(-1.2) ~ 0.301. *)
         let prov = prov_of (Fixtures.two_app_design ()) in
         let sim =
           Year_sim.simulate ~years:40_000 (Rng.of_int 13) prov likelihood
         in
         check_bool
           (Printf.sprintf "quiet fraction %.3f near 0.301"
              sim.Year_sim.quiet_fraction)
           true
           (Float.abs (sim.Year_sim.quiet_fraction -. exp (-1.2)) < 0.02));
    Alcotest.test_case "deterministic per generator seed" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let run () =
          (Year_sim.simulate ~years:500 (Rng.of_int 14) prov likelihood).Year_sim.mean
        in
        Alcotest.(check (float 1e-9)) "same mean"
          (Money.to_dollars (run ())) (Money.to_dollars (run ())));
    Alcotest.test_case "percentile argument validation" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let sim = Year_sim.simulate ~years:100 (Rng.of_int 15) prov likelihood in
        check_bool "p0 <= p100" true
          Money.(Year_sim.percentile sim 0. <= Year_sim.percentile sim 1.);
        Alcotest.check_raises "out of range"
          (Invalid_argument "Year_sim.percentile: q outside [0, 1]") (fun () ->
              ignore (Year_sim.percentile sim 1.5));
        Alcotest.check_raises "bad years"
          (Invalid_argument "Year_sim.simulate: years must be positive")
          (fun () ->
             ignore (Year_sim.simulate ~years:0 (Rng.of_int 1) prov likelihood)));
    Alcotest.test_case "tail risk exceeds the mean for rare failures" `Quick
      (fun () ->
         (* With ~1.2 events/yr, p99 years see several events: the tail
            must sit well above the mean. *)
         let prov = prov_of (Fixtures.two_app_design ()) in
         let sim = Year_sim.simulate ~years:5_000 (Rng.of_int 16) prov likelihood in
         check_bool "p99 > mean" true Money.(sim.Year_sim.mean < sim.Year_sim.p99));
    Alcotest.test_case "pool width never changes the sample" `Quick (fun () ->
        (* 3,000 years spans multiple chunks, so the 4-domain run really
           interleaves; every per-year sample must still match the
           sequential run exactly. *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let run pool =
          Year_sim.simulate ~years:3_000 ~pool (Rng.of_int 17) prov likelihood
        in
        let sequential = run (Exec.create ~domains:1 ()) in
        List.iter
          (fun pool ->
             let parallel = run pool in
             check_bool "identical per-year samples" true
               (sequential.Year_sim.samples = parallel.Year_sim.samples);
             check_bool "identical sorted totals" true
               (sequential.Year_sim.sorted_totals
                = parallel.Year_sim.sorted_totals))
          [ Exec.create ~domains:2 ();
            Exec.create ~domains:4 ();
            Exec.auto_width (Exec.create ~domains:4 ()) ]);
    Alcotest.test_case "percentile reads the stored sorted totals" `Quick
      (fun () ->
         let prov = prov_of (Fixtures.two_app_design ()) in
         let sim = Year_sim.simulate ~years:2_000 (Rng.of_int 18) prov likelihood in
         List.iter
           (fun (q, field) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "percentile %.2f equals the stored field" q)
                (Money.to_dollars field)
                (Money.to_dollars (Year_sim.percentile sim q)))
           [ (0.5, sim.Year_sim.p50); (0.9, sim.Year_sim.p90);
             (0.99, sim.Year_sim.p99); (1., sim.Year_sim.worst) ]);
    Alcotest.test_case "it is the statistics of a nominal Tail_sim run" `Quick
      (fun () ->
         (* Recomputed here from the nominal run's samples, not through
            Year_sim: sorted totals, their in-order sum, conservative
            nearest ranks, quiet years. Every figure must be identical. *)
         let prov = prov_of (Fixtures.two_app_design ()) in
         let years = 2_500 in
         let sim = Year_sim.simulate ~years (Rng.of_int 19) prov likelihood in
         let run =
           Tail_sim.simulate ~years ~strategy:Tail_sim.Nominal_only
             (Rng.of_int 19) prov likelihood
         in
         let samples = run.Tail_sim.samples.(0) in
         check_bool "same samples" true (sim.Year_sim.samples = samples);
         let totals = Array.map (fun s -> s.Tail_sim.total) samples in
         Array.sort Float.compare totals;
         let n = float_of_int years in
         let at q = totals.(min (years - 1) (int_of_float (Float.ceil (q *. n)))) in
         let exact name want got =
           Alcotest.(check (float 0.)) name want (Money.to_dollars got)
         in
         exact "mean" (Array.fold_left ( +. ) 0. totals /. n) sim.Year_sim.mean;
         exact "p50" (at 0.5) sim.Year_sim.p50;
         exact "p90" (at 0.9) sim.Year_sim.p90;
         exact "p99" (at 0.99) sim.Year_sim.p99;
         exact "worst" totals.(years - 1) sim.Year_sim.worst;
         Alcotest.(check (float 0.)) "quiet fraction"
           (float_of_int
              (Array.fold_left
                 (fun acc s -> if s.Tail_sim.events = 0 then acc + 1 else acc)
                 0 samples)
            /. n)
           sim.Year_sim.quiet_fraction);
    Alcotest.test_case "the nominal run draws what the old sampler drew"
      `Quick (fun () ->
        (* An independent re-implementation of the pre-view Year_sim
           sampler: one stream pre-split per 1,024-year chunk, one
           Poisson count per scenario in enumeration order, outage and
           loss summed apart. Its per-year event counts and the
           generator's final state must match exactly; the totals may
           differ in the last bits only, because the nominal run sums
           outage and loss per scenario. 2,500 years leaves a partial
           last chunk. *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let years = 2_500 in
        let per_event =
          Failure.Scenario.enumerate likelihood prov.Provision.design
          |> List.map (fun (scen : Failure.Scenario.t) ->
              let outage, loss =
                List.fold_left
                  (fun (outage, loss) outcome ->
                     let o, l = Penalty.of_outcome ~annual_rate:1. outcome in
                     (outage +. Money.to_dollars o, loss +. Money.to_dollars l))
                  (0., 0.)
                  (Recovery.Simulate.scenario prov scen)
              in
              (scen.Failure.Scenario.annual_rate, outage, loss))
        in
        let old_rng = Rng.of_int 20 in
        let streams =
          Array.init ((years + 1_023) / 1_024) (fun _ -> Rng.split old_rng)
        in
        let old_years =
          Array.init years (fun y ->
              let rng = streams.(y / 1_024) in
              List.fold_left
                (fun (events, outage, loss) (rate, o, l) ->
                   let k = Prng.Sample.poisson rng rate in
                   let kf = float_of_int k in
                   (events + k, outage +. (kf *. o), loss +. (kf *. l)))
                (0, 0., 0.) per_event)
        in
        let new_rng = Rng.of_int 20 in
        let sim = Year_sim.simulate ~years new_rng prov likelihood in
        Array.iteri
          (fun y (events, outage, loss) ->
             let s = sim.Year_sim.samples.(y) in
             if s.Tail_sim.events <> events then
               Alcotest.failf "year %d: %d events, the old sampler drew %d" y
                 s.Tail_sim.events events;
             let old_total = outage +. loss in
             if Float.abs (s.Tail_sim.total -. old_total) > 1e-9 *. old_total
             then
               Alcotest.failf "year %d: total %h, the old sampler's %h" y
                 s.Tail_sim.total old_total)
          old_years;
        check_int "generator ends in the same state" (Rng.int old_rng 1_000_000)
          (Rng.int new_rng 1_000_000)) ]

let percentile_tests =
  [ Alcotest.test_case "singleton array answers every q" `Quick (fun () ->
        List.iter
          (fun q ->
             Alcotest.(check (float 0.))
               (Printf.sprintf "q=%.2f" q)
               5.
               (Money.to_dollars (Year_sim.percentile_of_sorted [| 5. |] q)))
          [ 0.; 0.25; 0.5; 0.99; 1. ]);
    Alcotest.test_case "q=0 is the first element, q=1 the last" `Quick
      (fun () ->
        let totals = [| 1.; 2.; 3.; 4. |] in
        Alcotest.(check (float 0.)) "q=0" 1.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.));
        Alcotest.(check (float 0.)) "q=1" 4.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 1.)));
    Alcotest.test_case "regression: p99 of 100 sorted years reads index 99"
      `Quick (fun () ->
        (* The floor-truncated index [q * (n - 1)] of earlier releases
           read index 98 here — a risk report understating its own
           worst percentile. *)
        let totals = Array.init 100 float_of_int in
        Alcotest.(check (float 0.)) "p99" 99.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.99));
        Alcotest.(check (float 0.)) "p50" 50.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.5)));
    Alcotest.test_case "duplicated totals keep the conservative rank" `Quick
      (fun () ->
        let totals = [| 1.; 1.; 2.; 2. |] in
        Alcotest.(check (float 0.)) "median of duplicates" 2.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.5));
        Alcotest.(check (float 0.)) "q=0.25 rounds up" 1.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.25));
        Alcotest.(check (float 0.)) "q just above a jump" 2.
          (Money.to_dollars (Year_sim.percentile_of_sorted totals 0.51)));
    Alcotest.test_case "empty array raises" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Year_sim.percentile_of_sorted: empty") (fun () ->
            ignore (Year_sim.percentile_of_sorted [||] 0.5)));
    Alcotest.test_case "a NaN quantile is rejected, not read as 0 or 1" `Quick
      (fun () ->
        (* [q < 0. || q > 1.] is false for NaN: the percentile readers
           once answered it with the best year (sorted) or the worst
           (weighted) instead of raising. *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let rng () = Rng.of_int 21 in
        let sim = Year_sim.simulate ~years:1_000 (rng ()) prov likelihood in
        let tail = Tail_sim.simulate ~years:1_000 (rng ()) prov likelihood in
        Alcotest.check_raises "Year_sim.percentile"
          (Invalid_argument "Year_sim.percentile: q outside [0, 1]") (fun () ->
            ignore (Year_sim.percentile sim Float.nan));
        Alcotest.check_raises "Year_sim.percentile_of_sorted"
          (Invalid_argument "Year_sim.percentile_of_sorted: q outside [0, 1]")
          (fun () ->
             ignore (Year_sim.percentile_of_sorted [| 1.; 2. |] Float.nan));
        Alcotest.check_raises "Tail_sim.tail_percentile"
          (Invalid_argument "Tail_sim.tail_percentile: q outside [0, 1]")
          (fun () -> ignore (Tail_sim.tail_percentile tail Float.nan))) ]

let zero_likelihood =
  Likelihood.v ~data_object_per_year:0. ~array_per_year:0. ~site_per_year:0.

let trace_likelihood =
  Likelihood.v ~data_object_per_year:1e-9 ~array_per_year:1e-9
    ~site_per_year:1e-9

let eleven_nines = 0.99999999999

let tail_tests =
  [ Alcotest.test_case "pool width never changes estimates or verdicts"
      `Quick (fun () ->
        (* 3,000 years across 4 strata spans several chunks per stratum;
           the full sample arrays, every estimate, the ESS and the
           certification verdict must be byte-identical whatever the
           domain count (the acceptance contract of DESIGN.md §14). *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let run pool =
          Tail_sim.simulate ~years:3_000 ~pool (Rng.of_int 31) prov likelihood
        in
        let reference = run (Exec.create ~domains:1 ()) in
        let cert_ref = Tail_sim.certify reference ~availability:eleven_nines in
        List.iter
          (fun pool ->
             let other = run pool in
             check_bool "identical samples" true
               (reference.Tail_sim.samples = other.Tail_sim.samples);
             check_bool "identical estimates" true
               (reference.Tail_sim.mean_total = other.Tail_sim.mean_total
                && reference.Tail_sim.mean_downtime
                   = other.Tail_sim.mean_downtime
                && reference.Tail_sim.unavailability
                   = other.Tail_sim.unavailability);
             Alcotest.(check (float 0.)) "identical ESS"
               reference.Tail_sim.ess other.Tail_sim.ess;
             check_bool "identical scenario coverage" true
               (reference.Tail_sim.scenario_events
                = other.Tail_sim.scenario_events);
             let cert = Tail_sim.certify other ~availability:eleven_nines in
             check_bool "identical verdict" true
               (cert_ref.Tail_sim.verdict = cert.Tail_sim.verdict
                && cert_ref.Tail_sim.deciding_bound
                   = cert.Tail_sim.deciding_bound))
          [ Exec.create ~domains:2 ();
            Exec.create ~domains:4 ();
            Exec.auto_width (Exec.create ~domains:4 ()) ]);
    Alcotest.test_case "mixture estimate agrees with the analytic mean" `Slow
      (fun () ->
        (* The balance-heuristic weighting must keep the tilted strata
           unbiased for the plain expectation: the stratified estimate
           has to land near Penalty.expected_annual and its 99% CI has
           to cover it (fixed seed, so this is a regression anchor, not
           a flaky coin flip). *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let analytic = Penalty.expected_annual prov likelihood in
        let expected =
          Money.to_dollars
            (Money.add analytic.Penalty.outage_total
               analytic.Penalty.loss_total)
        in
        let t =
          Tail_sim.simulate ~years:20_000 (Rng.of_int 32) prov likelihood
        in
        let e = t.Tail_sim.mean_total in
        check_bool
          (Printf.sprintf "within 10%% (analytic %.4g, estimate %.4g)"
             expected e.Tail_sim.value)
          true
          (Float.abs (e.Tail_sim.value -. expected) <= 0.1 *. expected);
        check_bool
          (Printf.sprintf "CI [%.4g, %.4g] covers the analytic mean"
             e.Tail_sim.lower e.Tail_sim.upper)
          true
          (e.Tail_sim.lower <= expected && expected <= e.Tail_sim.upper));
    Alcotest.test_case "nominal-only strategy is plain Monte Carlo" `Quick
      (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t =
          Tail_sim.simulate ~years:1_000 ~strategy:Tail_sim.Nominal_only
            (Rng.of_int 33) prov likelihood
        in
        check_int "one stratum" 1 (Array.length t.Tail_sim.strata);
        check_bool "unit weights" true
          (Array.for_all
             (fun (s : Tail_sim.year_sample) -> s.Tail_sim.log_weight = 0.)
             t.Tail_sim.samples.(0));
        Alcotest.(check (float 1e-6)) "ESS equals years" 1_000.
          t.Tail_sim.ess);
    Alcotest.test_case "tilting raises tail resolution, weights stay bounded"
      `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t =
          Tail_sim.simulate ~years:2_000 (Rng.of_int 34) prov likelihood
        in
        (* Mixture weights are bounded by 1/share_nominal by
           construction; with 4 strata that is ~4. *)
        let bound = -.log t.Tail_sim.strata.(0).Tail_sim.share +. 1e-9 in
        Array.iter
          (Array.iter (fun (s : Tail_sim.year_sample) ->
               check_bool "log weight within mixture bound" true
                 (s.Tail_sim.log_weight <= bound)))
          t.Tail_sim.samples;
        let p99 = Money.to_dollars (Tail_sim.tail_percentile t 0.99) in
        let p999 = Money.to_dollars (Tail_sim.tail_percentile t 0.999) in
        let p9999 = Money.to_dollars (Tail_sim.tail_percentile t 0.9999) in
        check_bool "percentiles ordered" true (p99 <= p999 && p999 <= p9999);
        let exc_low =
          (Tail_sim.exceedance t (Money.dollars 1.)).Tail_sim.value
        in
        let exc_high =
          (Tail_sim.exceedance t (Money.dollars 1e9)).Tail_sim.value
        in
        check_bool "exceedance decreasing and in [0,1]" true
          (exc_low >= exc_high && exc_low <= 1. && exc_high >= 0.));
    Alcotest.test_case "one sort serves every tail quantile" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t = Tail_sim.simulate ~years:4_000 (Rng.of_int 36) prov likelihood in
        let qs = [ 0.; 0.5; 0.99; 0.999; 0.9999; 1. ] in
        (* The list-building, per-call sort [tail_percentile] used before
           one sort served all quantiles. *)
        let reference q =
          let items = ref [] in
          Array.iteri
            (fun s (chunk : Tail_sim.year_sample array) ->
               let scale =
                 t.Tail_sim.strata.(s).Tail_sim.share
                 /. float_of_int (Array.length chunk)
               in
               Array.iter
                 (fun (smp : Tail_sim.year_sample) ->
                    items :=
                      (smp.Tail_sim.total, scale *. exp smp.Tail_sim.log_weight)
                      :: !items)
                 chunk)
            t.Tail_sim.samples;
          let arr = Array.of_list !items in
          Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
          let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. arr in
          let cum = ref 0. and found = ref None in
          Array.iter
            (fun (v, w) ->
               cum := !cum +. (w /. total);
               if !found = None && !cum > q then found := Some v)
            arr;
          Option.value ~default:(fst arr.(Array.length arr - 1)) !found
        in
        let hex m = Printf.sprintf "%h" (Money.to_dollars m) in
        Alcotest.(check (list string)) "one call = single calls"
          (List.map (fun q -> hex (Tail_sim.tail_percentile t q)) qs)
          (List.map hex (Tail_sim.tail_percentiles t qs));
        Alcotest.(check (list string)) "single calls = the old sort"
          (List.map (fun q -> Printf.sprintf "%h" (reference q)) qs)
          (List.map (fun q -> hex (Tail_sim.tail_percentile t q)) qs);
        Alcotest.check_raises "range checked"
          (Invalid_argument "Tail_sim.tail_percentiles: q outside [0, 1]")
          (fun () -> ignore (Tail_sim.tail_percentiles t [ 0.5; -0.1 ])));
    Alcotest.test_case "certify fails default rates at eleven nines" `Quick
      (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t =
          Tail_sim.simulate ~years:2_000 (Rng.of_int 35) prov likelihood
        in
        let cert = Tail_sim.certify t ~availability:eleven_nines in
        check_bool "verdict" true (cert.Tail_sim.verdict = Tail_sim.Fail);
        Alcotest.(check (float 0.)) "deciding bound is the lower CI bound"
          cert.Tail_sim.unavailability.Tail_sim.lower
          cert.Tail_sim.deciding_bound;
        (* ~1.2 events/yr and a sub-millisecond budget: any event year
           breaches, so P(breach) ~ 1 - exp (-1.2) ~ 0.70. *)
        check_bool
          (Printf.sprintf "breach probability %.3f near 0.70"
             cert.Tail_sim.breach_probability.Tail_sim.value)
          true
          (Float.abs
             (cert.Tail_sim.breach_probability.Tail_sim.value
              -. (1. -. exp (-1.2)))
           < 0.05));
    Alcotest.test_case "certify passes a failure-free world" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t =
          Tail_sim.simulate ~years:500 (Rng.of_int 36) prov zero_likelihood
        in
        let cert = Tail_sim.certify t ~availability:eleven_nines in
        check_bool "verdict" true (cert.Tail_sim.verdict = Tail_sim.Pass);
        check_bool "nothing uncovered" true (cert.Tail_sim.uncovered = []);
        Alcotest.(check (float 0.)) "unavailability is exactly zero" 0.
          cert.Tail_sim.unavailability.Tail_sim.value);
    Alcotest.test_case
      "coverage guard: unsampled scenarios block a cheap pass" `Quick
      (fun () ->
        (* Rates of 1e-9/yr over 400 years sample nothing even tilted:
           the CI collapses to [0, 0], which must NOT certify — the
           guard downgrades it to Inconclusive and names the holes. *)
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t =
          Tail_sim.simulate ~years:400 (Rng.of_int 37) prov trace_likelihood
        in
        let cert = Tail_sim.certify t ~availability:eleven_nines in
        check_bool "verdict" true
          (cert.Tail_sim.verdict = Tail_sim.Inconclusive);
        check_bool "uncovered scenarios listed" true
          (cert.Tail_sim.uncovered <> []));
    Alcotest.test_case "obs gauges record ESS and CI width" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let obs = Obs.create ~metrics:true () in
        let t =
          Tail_sim.simulate ~years:500 ~obs (Rng.of_int 38) prov likelihood
        in
        match Obs.metrics obs with
        | None -> Alcotest.fail "metrics registry missing"
        | Some reg ->
          Alcotest.(check (float 1e-9)) "risk.tail.ess gauge"
            t.Tail_sim.ess
            (Obs.Metrics.value (Obs.Metrics.gauge reg "risk.tail.ess"));
          Alcotest.(check (float 1e-9)) "risk.tail.ci_width gauge"
            (t.Tail_sim.mean_total.Tail_sim.upper
             -. t.Tail_sim.mean_total.Tail_sim.lower)
            (Obs.Metrics.value (Obs.Metrics.gauge reg "risk.tail.ci_width")));
    Alcotest.test_case "argument validation" `Quick (fun () ->
        let prov = prov_of (Fixtures.two_app_design ()) in
        let t = Tail_sim.simulate ~years:100 (Rng.of_int 39) prov likelihood in
        Alcotest.check_raises "years 0"
          (Invalid_argument "Tail_sim.simulate: years must be positive")
          (fun () ->
            ignore (Tail_sim.simulate ~years:0 (Rng.of_int 1) prov likelihood));
        Alcotest.check_raises "years below stratum count"
          (Invalid_argument
             "Tail_sim.simulate: 2 years cannot cover 4 strata (one year \
              per stratum minimum)") (fun () ->
            ignore (Tail_sim.simulate ~years:2 (Rng.of_int 1) prov likelihood));
        Alcotest.check_raises "tilt 0"
          (Invalid_argument
             "Tail_sim.simulate: tilt must be positive and finite") (fun () ->
            ignore
              (Tail_sim.simulate ~years:100 ~tilt:0. (Rng.of_int 1) prov
                 likelihood));
        Alcotest.check_raises "availability 1"
          (Invalid_argument "Tail_sim.certify: availability must be in (0, 1)")
          (fun () -> ignore (Tail_sim.certify t ~availability:1.));
        Alcotest.check_raises "percentile out of range"
          (Invalid_argument "Tail_sim.tail_percentile: q outside [0, 1]")
          (fun () -> ignore (Tail_sim.tail_percentile t 1.5)));
    Alcotest.test_case "a fixed-seed risk request keeps its certification"
      `Quick (fun () ->
        (* The tail stream is [Rng.split] of the generator after the
           nominal run, so it moves if that run ever draws a different
           number of streams. Figures recorded as hex floats before
           Year_sim became a view of the nominal run. *)
        let module R = Ds_experiments.Request in
        let solve =
          { R.env = Fixtures.peer_env ();
            apps = [ Fixtures.b_app; Fixtures.s_app ];
            likelihood;
            budget = Ds_experiments.Budgets.with_seed Ds_experiments.Budgets.quick 23;
            deadline_s = None }
        in
        let request =
          { R.solve;
            design = Some (Design.Design_io.to_string (Fixtures.two_app_design ()));
            years = 2_500;
            sla = Some 0.999;
            tilt = 8.;
            strata = "scope" }
        in
        match R.run_risk request with
        | Error e -> Alcotest.fail (R.error_message e)
        | Ok { R.tail = None; _ } -> Alcotest.fail "no certification"
        | Ok { R.tail = Some (t, cert); _ } ->
          let pinned name hex got =
            Alcotest.(check string) name hex (Printf.sprintf "%h" got)
          in
          pinned "ESS" "0x1.29ded0915c82cp+10" t.Tail_sim.ess;
          pinned "unavailability" "0x1.534b05702de7ep-8"
            cert.Tail_sim.unavailability.Tail_sim.value;
          pinned "lower bound" "0x1.381d5f66fa88ep-8"
            cert.Tail_sim.unavailability.Tail_sim.lower;
          pinned "upper bound" "0x1.6e78ab796146ep-8"
            cert.Tail_sim.unavailability.Tail_sim.upper;
          pinned "breach probability" "0x1.b1615c3d2cf38p-2"
            cert.Tail_sim.breach_probability.Tail_sim.value;
          check_bool "verdict" true (cert.Tail_sim.verdict = Tail_sim.Fail);
          pinned "deciding bound" "0x1.381d5f66fa88ep-8"
            cert.Tail_sim.deciding_bound) ]

let fast_options =
  { Config_solver.search_options with
    Config_solver.max_growth_steps = 1;
    window_scope = Config_solver.Skip }

let annealing_tests =
  [ Alcotest.test_case "parameter validation" `Quick (fun () ->
        let bad params =
          Alcotest.check_raises "invalid" (Invalid_argument "Annealing: cooling must be in (0, 1)")
            (fun () ->
               ignore
                 (Annealing.run ~params ~seed:1 (Fixtures.peer_env ())
                    [ Fixtures.s_app ] likelihood))
        in
        bad { Annealing.default_params with Annealing.cooling = 1.5 });
    Alcotest.test_case "finds a feasible design and improves on the start"
      `Slow (fun () ->
          let apps = Ds_experiments.Envs.peer_apps () in
          let params =
            { Annealing.iterations = 60; initial_temperature = 20e6;
              cooling = 0.95 }
          in
          let result =
            Annealing.run ~options:fast_options ~params ~seed:21
              (Fixtures.peer_env ()) apps likelihood
          in
          match result.Heuristic_result.best with
          | None -> Alcotest.fail "no feasible design"
          | Some best ->
            check_int "all apps placed" 8
              (Design.Design.size best.Candidate.design);
            check_bool "feasible steps recorded" true
              (result.Heuristic_result.feasible > 1));
    Alcotest.test_case "deterministic per seed" `Slow (fun () ->
        let apps = [ Fixtures.b_app; Fixtures.s_app ] in
        let params =
          { Annealing.iterations = 30; initial_temperature = 20e6;
            cooling = 0.95 }
        in
        let cost () =
          (Annealing.run ~options:fast_options ~params ~seed:22
             (Fixtures.peer_env ()) apps likelihood).Heuristic_result.best
          |> Option.map (fun c -> Money.to_dollars (Candidate.cost c))
        in
        Alcotest.(check (option (float 1e-3))) "same" (cost ()) (cost ()));
    Alcotest.test_case "impossible environment yields none" `Quick (fun () ->
        let env =
          Resources.Env.fully_connected ~name:"impossible" ~site_count:2
            ~bays_per_site:2 ~array_models:Resources.Device_catalog.array_models
            ~tape_models:Resources.Device_catalog.tape_models
            ~link_model:Resources.Device_catalog.link_high ~max_link_units:32
            ~compute_slots_per_site:0 ()
        in
        let params =
          { Annealing.iterations = 5; initial_temperature = 1e6; cooling = 0.9 }
        in
        let result =
          Annealing.run ~options:fast_options ~params ~seed:23 env
            [ Fixtures.s_app ] likelihood
        in
        check_bool "none" true (result.Heuristic_result.best = None)) ]

let suites =
  [ ("risk.year_sim", risk_tests);
    ("risk.percentile", percentile_tests);
    ("risk.tail_sim", tail_tests);
    ("heuristics.annealing", annealing_tests) ]
