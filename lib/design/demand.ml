module Size = Ds_units.Size
module Rate = Ds_units.Rate
module App = Ds_workload.App
module Mirror = Ds_protection.Mirror
module Backup = Ds_protection.Backup
module Technique = Ds_protection.Technique
module Slot = Ds_resources.Slot
module Site = Ds_resources.Site

type array_use = { capacity : Size.t; bandwidth : Rate.t }
type tape_use = { tape_capacity : Size.t; tape_bandwidth : Rate.t }

type t = {
  arrays : array_use Slot.Array_slot.Map.t;
  tapes : tape_use Slot.Tape_slot.Map.t;
  links : Rate.t Slot.Pair.Map.t;
  compute : int Site.Id_map.t;
}

let zero_array = { capacity = Size.zero; bandwidth = Rate.zero }
let zero_tape = { tape_capacity = Size.zero; tape_bandwidth = Rate.zero }

let sum_array prev use =
  { capacity = Size.add prev.capacity use.capacity;
    bandwidth = Rate.add prev.bandwidth use.bandwidth }

let sum_tape prev use =
  { tape_capacity = Size.add prev.tape_capacity use.tape_capacity;
    tape_bandwidth = Rate.add prev.tape_bandwidth use.tape_bandwidth }

let add_array m slot use =
  let prev = Option.value ~default:zero_array (Slot.Array_slot.Map.find_opt slot m) in
  Slot.Array_slot.Map.add slot (sum_array prev use) m

let add_tape m slot use =
  let prev = Option.value ~default:zero_tape (Slot.Tape_slot.Map.find_opt slot m) in
  Slot.Tape_slot.Map.add slot (sum_tape prev use) m

let add_link m pair rate =
  let prev = Option.value ~default:Rate.zero (Slot.Pair.Map.find_opt pair m) in
  Slot.Pair.Map.add pair (Rate.add prev rate) m

let add_compute m site n =
  let prev = Option.value ~default:0 (Site.Id_map.find_opt site m) in
  Site.Id_map.add site (prev + n) m

let primary_contribution (asg : Assignment.t) =
  let app = asg.app in
  let snapshot_space =
    match asg.technique.Technique.backup with
    | Some chain -> Backup.snapshot_space chain app
    | None -> Size.zero
  in
  { capacity = Size.add app.App.data_size snapshot_space;
    bandwidth = app.App.avg_access_rate }

let mirror_contribution (asg : Assignment.t) =
  match asg.technique.Technique.mirror with
  | None -> zero_array
  | Some m ->
    { capacity = asg.app.App.data_size;
      bandwidth = Mirror.network_demand m asg.app }

let tape_contribution (asg : Assignment.t) =
  match asg.technique.Technique.backup with
  | None -> zero_tape
  | Some chain ->
    { tape_capacity = Backup.tape_space chain asg.app;
      tape_bandwidth = Backup.tape_bandwidth_demand chain asg.app }

let backup_link_rate (asg : Assignment.t) =
  match asg.technique.Technique.backup with
  | None -> Rate.zero
  | Some chain -> Backup.tape_bandwidth_demand chain asg.app

let mirror_rate (asg : Assignment.t) =
  match asg.technique.Technique.mirror with
  | Some m -> Mirror.network_demand m asg.app
  | None -> Rate.zero

(* Runs once per candidate provisioning — the maps are functional (the
   result is shared and long-lived) but the running components live in
   local refs, not per-step record copies. The per-device folds below
   ([array_use_in] and friends) add the same terms in the same order. *)
let of_assignments _design assignments =
  let arrays = ref Slot.Array_slot.Map.empty in
  let tapes = ref Slot.Tape_slot.Map.empty in
  let links = ref Slot.Pair.Map.empty in
  let compute = ref Site.Id_map.empty in
  List.iter
    (fun (asg : Assignment.t) ->
       arrays := add_array !arrays asg.primary (primary_contribution asg);
       (match asg.mirror with
        | None -> ()
        | Some slot ->
          arrays := add_array !arrays slot (mirror_contribution asg);
          (match Assignment.mirror_pair asg with
           | Some pair -> links := add_link !links pair (mirror_rate asg)
           | None -> ()));
       (match asg.backup with
        | None -> ()
        | Some slot ->
          tapes := add_tape !tapes slot (tape_contribution asg);
          (match Assignment.backup_pair asg with
           | Some pair -> links := add_link !links pair (backup_link_rate asg)
           | None -> ()));
       compute := add_compute !compute asg.primary.Slot.Array_slot.site 1;
       if Technique.needs_standby_compute asg.technique then
         match asg.mirror with
         | Some m ->
           compute := add_compute !compute m.Slot.Array_slot.site 1
         | None -> ())
    assignments;
  { arrays = !arrays; tapes = !tapes; links = !links; compute = !compute }

(* One device's entry of [of_assignments], folded alone over the same
   assignments: each assignment's terms for that device, added to the
   running sum in the order [of_assignments] adds them, from zero. *)
let array_use_in assignments slot =
  List.fold_left
    (fun use (asg : Assignment.t) ->
       let use =
         if Slot.Array_slot.equal asg.primary slot then
           sum_array use (primary_contribution asg)
         else use
       in
       match asg.mirror with
       | Some m when Slot.Array_slot.equal m slot ->
         sum_array use (mirror_contribution asg)
       | _ -> use)
    zero_array assignments

let tape_use_in assignments slot =
  List.fold_left
    (fun use (asg : Assignment.t) ->
       match asg.backup with
       | Some b when Slot.Tape_slot.equal b slot ->
         sum_tape use (tape_contribution asg)
       | _ -> use)
    zero_tape assignments

let link_use_in assignments pair =
  List.fold_left
    (fun rate (asg : Assignment.t) ->
       let rate =
         match asg.mirror, Assignment.mirror_pair asg with
         | Some _, Some p when Slot.Pair.equal p pair ->
           Rate.add rate (mirror_rate asg)
         | _ -> rate
       in
       match asg.backup, Assignment.backup_pair asg with
       | Some _, Some p when Slot.Pair.equal p pair ->
         Rate.add rate (backup_link_rate asg)
       | _ -> rate)
    Rate.zero assignments

(* Per-assignment bandwidth shares, for computing recovery-time residual
   load as [total demand - affected shares] instead of re-folding the
   unaffected assignments into fresh maps on every scenario. Each share
   mirrors exactly one bandwidth term of [of_assignments]. *)

let array_bw_share (asg : Assignment.t) slot =
  let primary =
    if Slot.Array_slot.equal asg.primary slot then asg.app.App.avg_access_rate
    else Rate.zero
  in
  match asg.mirror with
  | Some m when Slot.Array_slot.equal m slot -> Rate.add primary (mirror_rate asg)
  | _ -> primary

let tape_bw_share (asg : Assignment.t) slot =
  match asg.backup with
  | Some b when Slot.Tape_slot.equal b slot ->
    (match asg.technique.Technique.backup with
     | Some chain -> Backup.tape_bandwidth_demand chain asg.app
     | None -> Rate.zero)
  | _ -> Rate.zero

let link_share (asg : Assignment.t) pair =
  let mirror =
    match Assignment.mirror_pair asg with
    | Some p when Slot.Pair.equal p pair -> mirror_rate asg
    | _ -> Rate.zero
  in
  match Assignment.backup_pair asg with
  | Some p when Slot.Pair.equal p pair -> Rate.add mirror (backup_link_rate asg)
  | _ -> mirror

let of_design design = of_assignments design (Design.assignments design)

let array_use t slot =
  Option.value ~default:zero_array (Slot.Array_slot.Map.find_opt slot t.arrays)

let tape_use t slot =
  Option.value ~default:zero_tape (Slot.Tape_slot.Map.find_opt slot t.tapes)

let link_use t pair =
  Option.value ~default:Rate.zero (Slot.Pair.Map.find_opt pair t.links)

let compute_use t site = Option.value ~default:0 (Site.Id_map.find_opt site t.compute)

let pp ppf t =
  Slot.Array_slot.Map.iter (fun slot use ->
      Format.fprintf ppf "  %a: %a cap, %a bw@," Slot.Array_slot.pp slot
        Size.pp use.capacity Rate.pp use.bandwidth)
    t.arrays;
  Slot.Tape_slot.Map.iter (fun slot use ->
      Format.fprintf ppf "  %a: %a cap, %a bw@," Slot.Tape_slot.pp slot
        Size.pp use.tape_capacity Rate.pp use.tape_bandwidth)
    t.tapes;
  Slot.Pair.Map.iter (fun pair rate ->
      Format.fprintf ppf "  %a: %a@," Slot.Pair.pp pair Rate.pp rate)
    t.links;
  Site.Id_map.iter (fun site n -> Format.fprintf ppf "  s%d: %d compute@," site n)
    t.compute
