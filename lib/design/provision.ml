module Size = Ds_units.Size
module Rate = Ds_units.Rate
module Array_model = Ds_resources.Array_model
module Tape_model = Ds_resources.Tape_model
module Link_model = Ds_resources.Link_model
module Env = Ds_resources.Env
module Slot = Ds_resources.Slot
module Site = Ds_resources.Site

type t = {
  design : Design.t;
  demand : Demand.t;
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

let pp_infeasibility ppf = function
  | Array_capacity s ->
    Format.fprintf ppf "array %a out of capacity" Slot.Array_slot.pp s
  | Array_bandwidth s ->
    Format.fprintf ppf "array %a out of bandwidth" Slot.Array_slot.pp s
  | Tape_capacity s ->
    Format.fprintf ppf "tape %a out of cartridge slots" Slot.Tape_slot.pp s
  | Tape_bandwidth s ->
    Format.fprintf ppf "tape %a out of drive bays" Slot.Tape_slot.pp s
  | Link_bandwidth p ->
    Format.fprintf ppf "link %a out of units" Slot.Pair.pp p
  | Compute_slots s -> Format.fprintf ppf "site s%d out of compute slots" s
  | Missing_model what -> Format.fprintf ppf "missing model for %s" what

(* Runs once per candidate evaluation. Plain loops with an exceptional
   early exit keep the per-call allocation to the result maps themselves
   — no [Ok]-wrapped intermediate accumulators. *)
exception Infeasible of infeasibility

(* Per-device sizing, shared by [minimum] and [rewindow]: the fewest
   units meeting the device's demand, or the constraint it breaks. *)
let array_units design slot (use : Demand.array_use) =
  match Design.array_model design slot with
  | None ->
    raise_notrace
      (Infeasible (Missing_model (Format.asprintf "%a" Slot.Array_slot.pp slot)))
  | Some model ->
    if Rate.(model.Array_model.max_bw < use.Demand.bandwidth) then
      raise_notrace (Infeasible (Array_bandwidth slot));
    let n_cap = Array_model.units_for_capacity model use.Demand.capacity in
    let n_bw = Array_model.units_for_bw model use.Demand.bandwidth in
    let units = max n_cap n_bw in
    if units > model.Array_model.max_units then
      raise_notrace (Infeasible (Array_capacity slot));
    units

(* Drives (at least one) and cartridges. *)
let tape_units design slot (use : Demand.tape_use) =
  match Design.tape_model design slot with
  | None ->
    raise_notrace
      (Infeasible (Missing_model (Format.asprintf "%a" Slot.Tape_slot.pp slot)))
  | Some model ->
    let drives = Tape_model.drives_for_bw model use.Demand.tape_bandwidth in
    if drives > model.Tape_model.max_drives then
      raise_notrace (Infeasible (Tape_bandwidth slot));
    let carts = Tape_model.cartridges_for_capacity model use.Demand.tape_capacity in
    if carts > model.Tape_model.max_cartridges then
      raise_notrace (Infeasible (Tape_capacity slot));
    (max 1 drives, carts)

let link_units env pair rate =
  let units = max 1 (Link_model.units_for_bw env.Env.link_model rate) in
  if units > env.Env.max_link_units then
    raise_notrace (Infeasible (Link_bandwidth pair));
  units

let minimum design =
  let env = design.Design.env in
  let demand = Demand.of_design design in
  try
    let array_units =
      List.fold_left
        (fun acc slot ->
           Slot.Array_slot.Map.add slot
             (array_units design slot (Demand.array_use demand slot)) acc)
        Slot.Array_slot.Map.empty
        (Design.used_array_slots design)
    in
    let tape_drives, tape_cartridges =
      List.fold_left
        (fun (drives_map, carts_map) slot ->
           let drives, carts = tape_units design slot (Demand.tape_use demand slot) in
           (Slot.Tape_slot.Map.add slot drives drives_map,
            Slot.Tape_slot.Map.add slot carts carts_map))
        (Slot.Tape_slot.Map.empty, Slot.Tape_slot.Map.empty)
        (Design.used_tape_slots design)
    in
    let link_units =
      List.fold_left
        (fun acc pair ->
           Slot.Pair.Map.add pair (link_units env pair (Demand.link_use demand pair))
             acc)
        Slot.Pair.Map.empty
        (Design.used_pairs design)
    in
    let compute =
      List.fold_left
        (fun acc site ->
           let n = Demand.compute_use demand site in
           if n > env.Env.compute_slots_per_site then
             raise_notrace (Infeasible (Compute_slots site));
           if n = 0 then acc else Site.Id_map.add site n acc)
        Site.Id_map.empty
        (Env.site_ids env)
    in
    Ok { design; demand; array_units; tape_drives; tape_cartridges;
         link_units; compute }
  with Infeasible why -> Error why

(* A new backup chain for one app moves only three terms of the demand:
   snapshot space on its primary array, its library's capacity and drive
   bandwidth, and its backup traffic on a remote library's link (compute
   and every other device keep theirs, hence their units). Those devices
   are re-summed and re-sized in [minimum]'s order — arrays, then
   libraries, then links — so an infeasible trial breaks the constraint
   [minimum] reports first. *)
let rewindow base design id =
  match Design.find design id with
  | None -> invalid_arg "Provision.rewindow: app not assigned"
  | Some asg ->
    let assignments = Design.assignments design in
    let demand = base.demand in
    (try
       let primary = asg.Assignment.primary in
       let use = Demand.array_use_in assignments primary in
       let array_units =
         Slot.Array_slot.Map.add primary (array_units design primary use)
           base.array_units
       in
       let arrays = Slot.Array_slot.Map.add primary use demand.Demand.arrays in
       let tapes, tape_drives, tape_cartridges =
         match asg.Assignment.backup with
         | None -> (demand.Demand.tapes, base.tape_drives, base.tape_cartridges)
         | Some slot ->
           let use = Demand.tape_use_in assignments slot in
           let drives, carts = tape_units design slot use in
           (Slot.Tape_slot.Map.add slot use demand.Demand.tapes,
            Slot.Tape_slot.Map.add slot drives base.tape_drives,
            Slot.Tape_slot.Map.add slot carts base.tape_cartridges)
       in
       let links, link_units =
         match Assignment.backup_pair asg with
         | None -> (demand.Demand.links, base.link_units)
         | Some pair ->
           let rate = Demand.link_use_in assignments pair in
           (Slot.Pair.Map.add pair rate demand.Demand.links,
            Slot.Pair.Map.add pair (link_units design.Design.env pair rate)
              base.link_units)
       in
       Ok { design; demand = { demand with Demand.arrays; tapes; links };
            array_units; tape_drives; tape_cartridges; link_units;
            compute = base.compute }
     with Infeasible why -> Error why)

let array_bw t slot =
  match Design.array_model t.design slot,
        Slot.Array_slot.Map.find_opt slot t.array_units with
  | Some model, Some units -> Array_model.bw_of_units model units
  | _ -> Rate.zero

let tape_bw t slot =
  match Design.tape_model t.design slot,
        Slot.Tape_slot.Map.find_opt slot t.tape_drives with
  | Some model, Some drives -> Tape_model.bw_of_drives model drives
  | _ -> Rate.zero

let link_bw t pair =
  match Slot.Pair.Map.find_opt pair t.link_units with
  | Some units -> Link_model.bw_of_units t.design.Design.env.Env.link_model units
  | None -> Rate.zero

type growth =
  | Grow_array of Slot.Array_slot.t
  | Grow_tape_drive of Slot.Tape_slot.t
  | Grow_link of Slot.Pair.t

let pp_growth ppf = function
  | Grow_array s -> Format.fprintf ppf "+1 disk @@ %a" Slot.Array_slot.pp s
  | Grow_tape_drive s -> Format.fprintf ppf "+1 drive @@ %a" Slot.Tape_slot.pp s
  | Grow_link p -> Format.fprintf ppf "+1 link @@ %a" Slot.Pair.pp p

let grow t = function
  | Grow_array slot ->
    (match Design.array_model t.design slot,
           Slot.Array_slot.Map.find_opt slot t.array_units with
     | Some model, Some units ->
       (* Adding disks beyond the controller ceiling adds no bandwidth. *)
       if units >= model.Array_model.max_units
       || Rate.equal (Array_model.bw_of_units model units) model.Array_model.max_bw
       then None
       else
         Some { t with array_units = Slot.Array_slot.Map.add slot (units + 1) t.array_units }
     | _ -> None)
  | Grow_tape_drive slot ->
    (match Design.tape_model t.design slot,
           Slot.Tape_slot.Map.find_opt slot t.tape_drives with
     | Some model, Some drives ->
       if drives >= model.Tape_model.max_drives then None
       else
         Some { t with tape_drives = Slot.Tape_slot.Map.add slot (drives + 1) t.tape_drives }
     | _ -> None)
  | Grow_link pair ->
    (match Slot.Pair.Map.find_opt pair t.link_units with
     | Some units ->
       if units >= t.design.Design.env.Env.max_link_units then None
       else Some { t with link_units = Slot.Pair.Map.add pair (units + 1) t.link_units }
     | None -> None)

let growth_moves t =
  let arrays =
    Slot.Array_slot.Map.bindings t.array_units
    |> List.filter_map (fun (slot, _) ->
        match grow t (Grow_array slot) with
        | Some _ -> Some (Grow_array slot)
        | None -> None)
  in
  let drives =
    Slot.Tape_slot.Map.bindings t.tape_drives
    |> List.filter_map (fun (slot, _) ->
        match grow t (Grow_tape_drive slot) with
        | Some _ -> Some (Grow_tape_drive slot)
        | None -> None)
  in
  let links =
    Slot.Pair.Map.bindings t.link_units
    |> List.filter_map (fun (pair, _) ->
        match grow t (Grow_link pair) with
        | Some _ -> Some (Grow_link pair)
        | None -> None)
  in
  arrays @ drives @ links

let pp ppf t =
  Slot.Array_slot.Map.iter (fun slot units ->
      Format.fprintf ppf "  %a: %d disks@," Slot.Array_slot.pp slot units)
    t.array_units;
  Slot.Tape_slot.Map.iter (fun slot drives ->
      let carts =
        Option.value ~default:0 (Slot.Tape_slot.Map.find_opt slot t.tape_cartridges)
      in
      Format.fprintf ppf "  %a: %d drives, %d cartridges@," Slot.Tape_slot.pp slot
        drives carts)
    t.tape_drives;
  Slot.Pair.Map.iter (fun pair units ->
      Format.fprintf ppf "  %a: %d links@," Slot.Pair.pp pair units)
    t.link_units;
  Site.Id_map.iter (fun site n ->
      Format.fprintf ppf "  s%d: %d compute@," site n)
    t.compute
