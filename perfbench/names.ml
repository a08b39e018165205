let end_to_end =
  [ ("setup_s", "s"); ("op_p50_s", "s"); ("op_p90_s", "s");
    ("ops_per_s", "1/s"); ("cost_usd", "USD"); ("peak_rss_mb", "MB") ]

(* Every traced run prints all of these; a layer the workload never
   reaches reads 0. Self times and per-op counts are per operation of
   the traced run, *_per_call figures come from replaying the layer's
   public functions on the workload's own outputs. *)
let per_layer =
  [ ("solver.evaluations_per_op", "count");
    ("solver.greedy_self_s", "s");
    ("solver.refit_self_s", "s");
    ("solver.polish_self_s", "s");
    ("solver.probe_yield", "ratio");
    ("solver.resolve_self_s", "s");
    ("solver.resolve_dirty_per_op", "count");
    ("config.solves_per_op", "count");
    ("config.self_s", "s");
    ("config.windows_self_s", "s");
    ("config.growth_self_s", "s");
    ("config.growth_steps_per_op", "count");
    ("memo.hit_ratio", "ratio");
    ("memo.evictions_per_op", "count");
    ("recovery.scenarios_per_op", "count");
    ("recovery.self_s", "s");
    ("sim.events_per_op", "count");
    ("sim.jobs_per_op", "count");
    ("cost.evaluations_per_op", "count");
    ("cost.evaluate_s_per_call", "s");
    ("design.provision_s_per_call", "s");
    ("design.rebase_s_per_call", "s");
    ("design.io_s_per_call", "s");
    ("fleet.resolve_self_s", "s");
    ("fleet.reconcile_self_s", "s");
    ("fleet.shards_reused_ratio", "ratio");
    ("fleet.reconcile_passes_per_op", "count");
    ("fleet.conflicts_per_op", "count");
    ("search.restarts_per_request", "count");
    ("search.raced_off_ratio", "ratio");
    ("search.evaluations_per_request", "count");
    ("risk.year_sim_s_per_kyear", "s");
    ("risk.tail_sim_s_per_kyear", "s");
    ("risk.tail_ess_per_kyear", "count");
    ("exec.maps_per_op", "count");
    ("exec.tasks_per_op", "count");
    ("exec.overhead_s_per_op", "s");
    ("server.queue_wait_p50_s", "s");
    ("server.request_p50_s.solve", "s");
    ("server.request_p50_s.risk", "s");
    ("server.request_p50_s.resolve", "s");
    ("server.request_p50_s.metrics", "s");
    ("server.rpc_overhead_s_per_req", "s");
    ("server.errors", "count");
    ("server.overloaded", "count");
    ("json.encode_s_per_req", "s");
    ("json.decode_s_per_resp", "s");
    ("json.resp_bytes_p50", "bytes");
    ("obs.metrics_overhead_ratio", "ratio");
    ("obs.trace_overhead_ratio", "ratio");
    ("obs.lock_acquisitions_per_op", "count");
    ("gc.minor_mw_per_op", "Mw");
    ("gc.major_mw_per_op", "Mw");
    ("gc.major_collections_per_op", "count");
    ("host.ref_s", "s");
    ("host.ref_spread", "ratio");
    ("host.raw_op_p50_s", "s") ]
