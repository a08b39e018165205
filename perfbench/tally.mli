(** Attempted and failed operation counts.

    An operation fails when it errors, is refused, returns no design, or
    fails an output check — checks may run long after the operation, so
    failures are recorded against the operation's index, and an
    operation failing several checks still counts once. *)

type t

val create : unit -> t

val attempt : t -> int
(** Count one more attempted operation and return its index. *)

val fail : t -> int -> string -> unit
(** Mark an attempted operation failed; the first reason is kept.
    @raise Invalid_argument for an index never attempted. *)

val check : t -> int -> bool -> string Lazy.t -> unit
(** [check t op ok reason]: {!fail} unless [ok]. *)

val attempted : t -> int
val failed : t -> int

val reasons : t -> (int * string) list
(** Failed operations with their first reason, by index. *)
