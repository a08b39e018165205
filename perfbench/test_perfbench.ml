open Perfbench_lib
module Json = Dependable_storage.Server.Json

let float_opt = Alcotest.(option (float 0.))
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let stats =
  [ Alcotest.test_case "nearest rank picks the ceil(p n / 100)-th sample" `Quick (fun () ->
        let xs = [| 7.; 3.; 10.; 1.; 5.; 9.; 2.; 8.; 4.; 6. |] in
        Alcotest.check float_opt "p50 of 1..10" (Some 5.) (Stats.nearest_rank xs 50);
        Alcotest.check float_opt "p90 of 1..10" (Some 9.) (Stats.nearest_rank xs 90);
        Alcotest.check float_opt "p1 is the minimum" (Some 1.) (Stats.nearest_rank xs 1);
        Alcotest.check float_opt "p100 is the maximum" (Some 10.) (Stats.nearest_rank xs 100);
        Alcotest.check float_opt "p7 of 1..100 is 7, not 8" (Some 7.)
          (Stats.nearest_rank (ints 100) 7);
        Alcotest.check float_opt "no samples" None (Stats.nearest_rank [||] 50));
    Alcotest.test_case "a tail percentile needs ten samples beyond it" `Quick (fun () ->
        Alcotest.(check int) "99 samples leave 9 beyond p90" 9 (Stats.beyond ~n:99 90);
        Alcotest.check float_opt "so no p90 of 99" None (Stats.tail_percentile (ints 99) 90);
        Alcotest.check float_opt "p90 of 100 is the 90th" (Some 90.)
          (Stats.tail_percentile (ints 100) 90);
        Alcotest.check float_opt "p99 of 1000 has ten beyond" (Some 990.)
          (Stats.tail_percentile (ints 1000) 99);
        Alcotest.check float_opt "but not of 999" None (Stats.tail_percentile (ints 999) 99));
    Alcotest.test_case "median and spread" `Quick (fun () ->
        Alcotest.(check (float 0.)) "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
        Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
        Alcotest.(check (float 1e-12)) "spread" 1. (Stats.spread [| 1.; 2.; 3. |])) ]

let yardstick =
  let samples = [| 0.004; 0.005; 0.0045; 0.006; 0.0042; 0.0051 |] in
  let raws = [| 0.31; 0.29; 0.4; 0.35; 0.33 |] in
  [ Alcotest.test_case "twice as slow everywhere leaves normalised time unchanged" `Quick
      (fun () ->
        let twice = Array.map (fun x -> 2. *. x) in
        Alcotest.(check (array (float 0.))) "normalised"
          (Yardstick.normalised samples raws)
          (Yardstick.normalised (twice samples) (twice raws)));
    Alcotest.test_case "a constant yardstick at nominal gives the raw time" `Quick (fun () ->
        let flat = Array.make (Array.length raws + 1) Yardstick.nominal_s in
        Alcotest.(check (array (float 0.))) "raw" raws (Yardstick.normalised flat raws));
    Alcotest.test_case "the local time is a median of nearby samples" `Quick (fun () ->
        let s = Array.make 40 Yardstick.nominal_s in
        s.(20) <- 100. *. Yardstick.nominal_s;
        Alcotest.(check (float 0.)) "one outlier is ignored" Yardstick.nominal_s
          (Yardstick.local s 20);
        let slow = Array.mapi (fun i x -> if i >= 20 then 2. *. x else x) s in
        Alcotest.(check (float 0.)) "a slow phase is followed" (2. *. Yardstick.nominal_s)
          (Yardstick.local slow 30));
    Alcotest.test_case "lengths must agree" `Quick (fun () ->
        Alcotest.check_raises "one sample short"
          (Invalid_argument "Yardstick.normalised: need one more sample than operations")
          (fun () -> ignore (Yardstick.normalised [| 1. |] [| 1. |]))) ]

let tally =
  [ Alcotest.test_case "each failed operation counts once" `Quick (fun () ->
        let t = Tally.create () in
        let ops = List.init 5 (fun _ -> Tally.attempt t) in
        Alcotest.(check (list int)) "indices" [ 0; 1; 2; 3; 4 ] ops;
        Tally.fail t 1 "errored";
        Tally.fail t 1 "also failed a check";
        Tally.check t 3 true (lazy "never");
        Tally.check t 4 false (lazy "wrong cost");
        Alcotest.(check int) "attempted" 5 (Tally.attempted t);
        Alcotest.(check int) "failed" 2 (Tally.failed t);
        Alcotest.(check (list (pair int string))) "first reason kept"
          [ (1, "errored"); (4, "wrong cost") ]
          (Tally.reasons t));
    Alcotest.test_case "only attempted operations can fail" `Quick (fun () ->
        let t = Tally.create () in
        Alcotest.check_raises "never attempted"
          (Invalid_argument "Tally.fail: unknown operation") (fun () -> Tally.fail t 0 "x")) ]

let gen =
  let mix seed = Gen.serve_mix ~seed ~blocks:Gen.counted_blocks ~fleet_apps:32 in
  [ Alcotest.test_case "same seed, same inputs; another seed, other inputs" `Quick (fun () ->
        Alcotest.(check bool) "solver seeds" true
          (Gen.solver_seeds ~seed:5 ~count:50 = Gen.solver_seeds ~seed:5 ~count:50);
        Alcotest.(check bool) "drifts" true
          (Gen.drifts ~seed:5 ~count:50 ~apps:64 = Gen.drifts ~seed:5 ~count:50 ~apps:64);
        Alcotest.(check bool) "serve mix" true (mix 5 = mix 5);
        Alcotest.(check bool) "solver seeds differ" false
          (Gen.solver_seeds ~seed:5 ~count:50 = Gen.solver_seeds ~seed:6 ~count:50);
        Alcotest.(check bool) "drifts differ" false
          (Gen.drifts ~seed:5 ~count:50 ~apps:64 = Gen.drifts ~seed:6 ~count:50 ~apps:64);
        Alcotest.(check bool) "serve mixes differ" false (mix 5 = mix 6));
    Alcotest.test_case "solver seeds and drifts: one fixed pool, a seed-dependent order" `Quick
      (fun () ->
        let s = Gen.solver_seeds ~seed:3 ~count:100 in
        Alcotest.(check int) "distinct" 100
          (List.length (List.sort_uniq compare (Array.to_list s)));
        let sorted a = List.sort compare (Array.to_list a) in
        Alcotest.(check (list int)) "same solver seeds for every workload seed"
          (sorted (Gen.solver_seeds ~seed:3 ~count:100))
          (sorted (Gen.solver_seeds ~seed:4 ~count:100));
        Alcotest.(check bool) "same drift steps for every workload seed" true
          (sorted (Gen.drifts ~seed:3 ~count:100 ~apps:64)
           = sorted (Gen.drifts ~seed:4 ~count:100 ~apps:64)));
    Alcotest.test_case "drifts stay in range and always change the load" `Quick (fun () ->
        Array.iter
          (fun (id, f) ->
            Alcotest.(check bool) "app id" true (id >= 1 && id <= 64);
            Alcotest.(check bool) "factor" true (f >= 1. /. 1.5 && f <= 1.5 && f <> 1.))
          (Gen.drifts ~seed:9 ~count:1000 ~apps:64));
    Alcotest.test_case "every serve-mix block has the stated shares" `Quick (fun () ->
        let m = mix 11 in
        Alcotest.(check int) "length" (Gen.counted_blocks * Gen.block_size)
          (Array.length m.Gen.script);
        for b = 0 to Gen.counted_blocks - 1 do
          let kinds =
            Array.to_list (Array.sub m.Gen.script (b * Gen.block_size) Gen.block_size)
            |> List.map Gen.kind
          in
          List.iter
            (fun (k, n) ->
              Alcotest.(check int) k n (List.length (List.filter (String.equal k) kinds)))
            Gen.block
        done);
    Alcotest.test_case "the counted blocks solve the same seeds for every workload seed"
      `Quick (fun () ->
        let solved seed =
          let m = mix seed in
          Array.to_list m.Gen.script
          |> List.filter_map (function
               | Gen.Repeat i -> Some m.Gen.working_set.(i)
               | Gen.Fresh s | Gen.Portfolio s -> Some s
               | _ -> None)
          |> List.sort_uniq compare
        in
        Alcotest.(check (list int)) "seeds 5 and 6" (solved 5) (solved 6);
        let m = mix 7 in
        let first_block =
          Array.to_list (Array.sub m.Gen.script 0 Gen.block_size)
          |> List.filter_map (function Gen.Repeat i -> Some i | _ -> None)
        in
        Alcotest.(check (list int)) "each block repeats the whole working set"
          (List.init Gen.ws_pool Fun.id)
          (List.sort_uniq compare first_block));
    Alcotest.test_case "new solves are new, even past the end of their pools" `Quick
      (fun () ->
        let m = Gen.serve_mix ~seed:13 ~blocks:40 ~fleet_apps:32 in
        let solved =
          Array.to_list m.Gen.script
          |> List.filter_map (function Gen.Fresh s | Gen.Portfolio s -> Some s | _ -> None)
        in
        Alcotest.(check bool) "past the pools" true
          (List.length solved > Gen.fresh_pool + Gen.portfolio_pool);
        Alcotest.(check int) "pairwise distinct" (List.length solved)
          (List.length (List.sort_uniq compare solved));
        List.iter
          (fun s -> Alcotest.(check bool) "not in the working set" false (Array.mem s m.Gen.working_set))
          solved) ]

let loop =
  [ Alcotest.test_case "min_ops, boundaries and one sample per gap" `Quick (fun () ->
        let l =
          Loop.run ~seconds:0. ~min_ops:7 ~cap_s:60.
            ~boundary:(fun i -> i mod 5 = 0)
            (fun _ -> ())
        in
        Alcotest.(check int) "stops at the next boundary" 10 (Loop.ops l);
        Alcotest.(check int) "samples" 11 (Array.length l.Loop.samples);
        Alcotest.(check bool) "too few for p90" true
          (Result.is_error (Loop.end_to_end l ~setup:[| 1. |]))) ]

(* BENCHMARK.json lists exactly the metrics a run prints, with the same
   units, in the same order. *)
let benchmark_json =
  [ Alcotest.test_case "BENCHMARK.json matches the printed metrics" `Quick (fun () ->
        let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
        let doc = match Json.of_string text with Ok v -> v | Error e -> Alcotest.fail e in
        let listed key =
          match Option.bind (Json.member key doc) Json.list_opt with
          | None -> Alcotest.fail ("no " ^ key)
          | Some items ->
            List.map
              (fun m ->
                match
                  ( Option.bind (Json.member "name" m) Json.str_opt,
                    Option.bind (Json.member "unit" m) Json.str_opt )
                with
                | Some n, Some u -> (n, u)
                | _ -> Alcotest.fail "metric without name or unit")
              items
        in
        let pairs = Alcotest.(list (pair string string)) in
        Alcotest.check pairs "end_to_end" Names.end_to_end (listed "end_to_end");
        Alcotest.check pairs "per_layer" Names.per_layer (listed "per_layer")) ]

let () =
  Alcotest.run "perfbench"
    [ ("perfbench.stats", stats);
      ("perfbench.yardstick", yardstick);
      ("perfbench.tally", tally);
      ("perfbench.gen", gen);
      ("perfbench.loop", loop);
      ("perfbench.benchmark_json", benchmark_json) ]
