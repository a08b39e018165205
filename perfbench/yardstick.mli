(** Host-normalised time.

    On a shared host the same work can take a third longer from one
    minute to the next. Between operations — never during one — the
    benchmark times a fixed kernel, the yardstick, and scales each
    operation's wall time by [nominal_s / local], where [local] is the
    median of the yardstick samples nearest the operation. A host phase
    that slows both the kernel and the program cancels out; the result
    reads in seconds of a host on which the kernel takes [nominal_s].

    The kernel calls nothing in the program's libraries and allocates
    only data that dies young. It must not change: every recorded
    normalised time is relative to it. *)

val now_s : unit -> float
(** Monotonic clock, seconds. *)

val kernel : unit -> unit
(** One run of the yardstick kernel. *)

val sample : unit -> float
(** Wall time of one {!kernel} run, seconds. *)

val nominal_s : float
(** The kernel's fixed nominal time. *)

val window : int
(** An operation's local yardstick time is the median of the [window]
    samples on each side of it (fewer at the ends of a run). *)

val local : float array -> int -> float
(** [local samples i]: the local yardstick time of operation [i], which
    ran between [samples.(i)] and [samples.(i + 1)]. *)

val normalise : local:float -> float -> float
(** [normalise ~local raw = raw * (nominal_s / local)]: exact when the
    yardstick and the operation scale by the same power of two, and the
    raw time itself when [local = nominal_s]. *)

val normalised : float array -> float array -> float array
(** [normalised samples raws]: every operation's normalised time; one
    more sample than operations (one before each, one after the last).
    @raise Invalid_argument on a length mismatch. *)

val timed_step : (unit -> 'a) -> 'a * float
(** Time a one-off step (a set-up) between three samples taken just
    before and three just after it: the result and its normalised
    seconds against the median of those samples. *)
