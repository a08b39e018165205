(** Minimal JSON values, parser and printer — the wire format of the
    dstool server.

    Self-contained (the repo carries no external JSON dependency).
    Covers RFC 8259: every escape including [\uXXXX] with surrogate
    pairs (decoded to UTF-8), numbers as OCaml floats, arrays and
    objects nested up to {!max_depth} deep. Object member order is
    preserved and duplicate keys are kept ({!member} returns the
    first). The printer emits integral doubles without a fractional
    part, so request ids and counters survive a textual round trip;
    non-finite numbers print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val max_depth : int
(** 64: the deepest nesting of arrays and objects {!of_string}
    accepts. Deeper input is an [Error], never a stack overflow. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; anything but trailing whitespace
    after it is an error. Errors carry the byte offset. *)

val to_string : t -> string
(** Compact (single-line) rendering — safe to frame newline-delimited,
    since the printer never emits a literal newline. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] on non-objects. *)

val str_opt : t -> string option
val bool_opt : t -> bool option
val num_opt : t -> float option

val int_opt : t -> int option
(** [Some] only for integral doubles below 10{^15} in magnitude. *)

val list_opt : t -> t list option

(** {1 Checked object lookups} — shared by the RPC method handlers;
    the [Error] strings are user-facing "invalid params" messages. A
    member of the wrong type is always an [Error]. *)

val find_str : string -> t -> (string option, string) result
(** [Ok None] when the key is absent. *)

val find_int : string -> t -> (int option, string) result
val find_num : string -> t -> (float option, string) result
val find_list : string -> t -> (t list option, string) result

val get_str : ?default:string -> string -> t -> (string, string) result
val get_int : ?default:int -> string -> t -> (int, string) result
val get_num : ?default:float -> string -> t -> (float, string) result
val get_bool : default:bool -> string -> t -> (bool, string) result
