(** Order statistics for per-operation timings. *)

val nearest_rank : float array -> int -> float option
(** [nearest_rank xs p] is the [p]-th percentile ([p] in 1..100) by the
    nearest-rank rule: the [ceil (p n / 100)]-th smallest sample. [None]
    on no samples. @raise Invalid_argument when [p] is outside 1..100. *)

val beyond : n:int -> int -> int
(** Samples strictly above the nearest-rank [p]-th percentile of [n]. *)

val tail_percentile : float array -> int -> float option
(** {!nearest_rank}, but only when at least ten samples fall beyond it — a tail percentile resting on fewer samples
    is one slow operation, not a percentile. *)

val median : float array -> float
(** Midpoint median (mean of the middle pair on even counts).
    @raise Invalid_argument on no samples. *)

val sum : float array -> float

val spread : float array -> float
(** [(max - min) / median]; 0 when the median is 0. *)
