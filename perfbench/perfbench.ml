(* Entry point: one workload, timed (--trace 0: the end-to-end metrics)
   or traced (--trace 1: the per-layer metrics). The last line of
   standard output is the run's JSON result; see README.md. *)

let usage =
  "perfbench --workload solve-cold|fleet-drift|serve-mix --seed N --seconds S \
   --trace 0|1 [--dstool PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dstool = ref "_build/default/bin/dstool.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--dstool", Arg.Set_string dstool, "PATH dstool executable (serve-mix)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed = !seed and seconds = !seconds and dstool = !dstool in
  let timed = function
    | Ok (tally, checks_ok, values) -> Report.emit_timed ~tally ~checks_ok values
    | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  in
  let traced ops (ok, values) =
    Report.emit ~correct:ok ~attempted:ops ~failed:(if ok then 0 else ops)
      ~units:Report.per_layer_units values
  in
  match !trace, !workload with
  | 0, "solve-cold" -> timed (Solve_cold.run ~seed ~seconds)
  | 0, "fleet-drift" -> timed (Fleet_drift.run ~seed ~seconds)
  | 0, "serve-mix" -> timed (Serve_mix.run ~dstool ~seed ~seconds)
  | 1, "solve-cold" -> traced Solve_cold.trace_ops (Solve_cold.trace ~seed)
  | 1, "fleet-drift" -> traced Fleet_drift.trace_ops (Fleet_drift.trace ~seed)
  | 1, "serve-mix" ->
    traced (Serve_mix.trace_blocks * Perfbench_lib.Gen.block_size) (Serve_mix.trace ~dstool ~seed)
  | _ ->
    prerr_endline usage;
    exit 2
