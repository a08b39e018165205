(** The closed measurement loop shared by every workload: one yardstick
    sample before each operation and one after the last, the operation
    timed alone. *)

type t = {
  samples : float array;  (** Yardstick samples, one more than operations. *)
  raw : float array;  (** Wall seconds per operation. *)
  norm : float array;  (** Host-normalised seconds per operation. *)
}

val run :
  ?boundary:(int -> bool) ->
  ?after:(int -> unit) ->
  seconds:float ->
  min_ops:int ->
  cap_s:float ->
  (int -> unit) ->
  t
(** [run ~seconds ~min_ops ~cap_s op] calls [op 0], [op 1], ... until
    [seconds] have passed and at least [min_ops] operations ran, stopping
    only before an index [i] with [boundary i] (default: any). After
    [cap_s] seconds it stops regardless. [after i] runs untimed right
    after operation [i] (collecting its instruments, say). *)

val ops : t -> int

val end_to_end : t -> setup:float array -> ((string * float) list, string) result
(** [setup_s] (median of the normalised set-up times), [op_p50_s],
    [op_p90_s] and [ops_per_s]; [Error] when too few operations ran for
    a p90 with ten beyond it. *)
