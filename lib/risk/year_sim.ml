module Money = Ds_units.Money
module Rng = Ds_prng.Rng
module Provision = Ds_design.Provision
module Likelihood = Ds_failure.Likelihood

type t = {
  samples : Tail_sim.year_sample array;
  sorted_totals : float array;
  mean : Money.t;
  p50 : Money.t;
  p90 : Money.t;
  p99 : Money.t;
  worst : Money.t;
  quiet_fraction : float;
}

(* Conservative nearest-rank: index ceil(q*n) clamped to [0, n-1] — the
   smallest order statistic whose empirical CDF strictly exceeds q.
   Never biased low (the previous floor of q*(n-1) read p99 of 100
   years at index 98), and q = 1 lands on the worst year exactly. *)
let percentile_of_sorted totals q =
  let n = Array.length totals in
  if n = 0 then invalid_arg "Year_sim.percentile_of_sorted: empty";
  Tail_sim.check_quantile "Year_sim.percentile_of_sorted" q;
  let idx = int_of_float (Float.ceil (q *. float_of_int n)) in
  Money.dollars totals.(max 0 (min (n - 1) idx))

let simulate ?params ?years ?obs ?pool rng prov likelihood =
  (match years with
   | Some y when y <= 0 ->
     invalid_arg "Year_sim.simulate: years must be positive"
   | _ -> ());
  let run =
    Tail_sim.simulate ?params ?years ~strategy:Tail_sim.Nominal_only ?obs ?pool
      rng prov likelihood
  in
  let samples = run.Tail_sim.samples.(0) in
  let n = float_of_int (Array.length samples) in
  let totals = Array.map (fun (s : Tail_sim.year_sample) -> s.total) samples in
  (* Merge sort: on 10k years it takes about two thirds of the heap
     sort's time, and totals (never NaN, never -0.) sort to the same
     array either way. *)
  Array.stable_sort Float.compare totals;
  let quiet =
    Array.fold_left
      (fun acc (s : Tail_sim.year_sample) ->
         if s.events = 0 then acc + 1 else acc)
      0 samples
  in
  { samples;
    sorted_totals = totals;
    mean = Money.dollars (Array.fold_left ( +. ) 0. totals /. n);
    p50 = percentile_of_sorted totals 0.5;
    p90 = percentile_of_sorted totals 0.9;
    p99 = percentile_of_sorted totals 0.99;
    worst = Money.dollars totals.(Array.length totals - 1);
    quiet_fraction = float_of_int quiet /. n }

let percentile t q =
  Tail_sim.check_quantile "Year_sim.percentile" q;
  percentile_of_sorted t.sorted_totals q

let pp ppf t =
  Format.fprintf ppf
    "annual penalty over %d simulated years: mean %a, median %a, p90 %a, \
     p99 %a, worst %a; %.1f%% quiet years"
    (Array.length t.samples) Money.pp t.mean Money.pp t.p50 Money.pp t.p90
    Money.pp t.p99 Money.pp t.worst (100. *. t.quiet_fraction)
