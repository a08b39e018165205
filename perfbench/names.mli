(** Every metric a run prints, with its unit, in print order; the
    [end_to_end] and [per_layer] lists of BENCHMARK.json must match. *)

val end_to_end : (string * string) list
(** Printed by a timed run ([--trace 0]). *)

val per_layer : (string * string) list
(** Printed by a traced run ([--trace 1]); 0 for a layer the workload
    does not reach. *)
