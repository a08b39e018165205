(** Discrete provisioning: how many units populate each used device.

    The configuration solver starts from {!minimum} — the least
    provisioning that satisfies normal-operation demand — and then adds
    units ({!grow}) wherever that lowers overall cost by shortening
    recovery (Section 3.2.2). Its window trials, which change one app's
    backup chain, re-size just that app's devices ({!rewindow}). *)

module Size = Ds_units.Size
module Rate = Ds_units.Rate
module Slot = Ds_resources.Slot
module Site = Ds_resources.Site

type t = {
  design : Design.t;
  demand : Demand.t;  (** Normal-operation demand this provisioning serves. *)
  array_units : int Slot.Array_slot.Map.t;
  tape_drives : int Slot.Tape_slot.Map.t;
  tape_cartridges : int Slot.Tape_slot.Map.t;
  link_units : int Slot.Pair.Map.t;
  compute : int Site.Id_map.t;
}

type infeasibility =
  | Array_capacity of Slot.Array_slot.t
  | Array_bandwidth of Slot.Array_slot.t
  | Tape_capacity of Slot.Tape_slot.t
  | Tape_bandwidth of Slot.Tape_slot.t
  | Link_bandwidth of Slot.Pair.t
  | Compute_slots of Site.id
  | Missing_model of string

val pp_infeasibility : Format.formatter -> infeasibility -> unit

val minimum : Design.t -> (t, infeasibility) result
(** Smallest provisioning meeting the design's normal-operation demand, or
    the first constraint that cannot be met. *)

val rewindow : t -> Design.t -> Ds_workload.App.id -> (t, infeasibility) result
(** [rewindow base design id] is [minimum design], bit for bit, when
    [base] is [minimum] of a design that [design] differs from only in
    app [id]'s backup chain (a configuration-solver window trial). Only
    that app's primary array, backup library and backup link are
    re-summed ({!Demand.array_use_in} and friends) and re-sized, with
    the per-device sizing [minimum] uses; every other entry is [base]'s.
    @raise Invalid_argument if [design] does not assign [id]. *)

val array_bw : t -> Slot.Array_slot.t -> Rate.t
(** Deliverable bandwidth of the slot as provisioned (zero if unused). *)

val tape_bw : t -> Slot.Tape_slot.t -> Rate.t
val link_bw : t -> Slot.Pair.t -> Rate.t

type growth =
  | Grow_array of Slot.Array_slot.t
  | Grow_tape_drive of Slot.Tape_slot.t
  | Grow_link of Slot.Pair.t

val pp_growth : Format.formatter -> growth -> unit

val growth_moves : t -> growth list
(** Every single-unit addition still within device and environment
    limits. *)

val grow : t -> growth -> t option
(** Apply one addition; [None] when the device is already at its limit. *)

val pp : Format.formatter -> t -> unit
