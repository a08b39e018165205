(* Shared fixtures: the peer-sites world of Section 4.3 plus helpers for
   building small designs by hand. *)

open Dependable_storage
module Env = Resources.Env
module Device_catalog = Resources.Device_catalog
module Slot = Resources.Slot
module App = Workload.App
module W = Workload.Workload_catalog
module T = Protection.Technique_catalog
module D = Design.Design
module Assignment = Design.Assignment

let peer_env () =
  Env.fully_connected ~name:"peer-sites" ~site_count:2 ~bays_per_site:2
    ~array_models:Device_catalog.array_models
    ~tape_models:Device_catalog.tape_models
    ~link_model:Device_catalog.link_high ~max_link_units:32
    ~compute_slots_per_site:8 ()

let quad_env () =
  Env.fully_connected ~name:"quad-sites" ~site_count:4 ~bays_per_site:2
    ~array_models:Device_catalog.array_models
    ~tape_models:Device_catalog.tape_models
    ~link_model:Device_catalog.link_high ~max_link_units:16
    ~compute_slots_per_site:8 ()

let b_app = W.instantiate W.central_banking ~id:1
let c_app = W.instantiate W.consumer_banking ~id:2
let w_app = W.instantiate W.web_service ~id:3
let s_app = W.instantiate W.student_accounts ~id:4

let slot site bay = Slot.Array_slot.v ~site ~bay
let tape site = Slot.Tape_slot.v ~site

(* A full assignment: app on s1/bay0 (XP1200), mirrored to s2/bay0
   (XP1200), backed up to the s1 library (high-end). *)
let assign_full ?(technique = T.async_failover_backup) app design =
  let asg =
    Assignment.v ~app ~technique ~primary:(slot 1 0) ~mirror:(slot 2 0)
      ~backup:(tape 1) ()
  in
  D.add design asg ~primary_model:Device_catalog.xp1200
    ~mirror_model:Device_catalog.xp1200 ~tape_model:Device_catalog.tape_high ()

(* Tape-backup-only assignment at a site. *)
let assign_tape_only ?(site = 1) app design =
  let asg =
    Assignment.v ~app ~technique:T.tape_backup ~primary:(slot site 0)
      ~backup:(tape site) ()
  in
  D.add design asg ~primary_model:Device_catalog.xp1200
    ~tape_model:Device_catalog.tape_high ()

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected design error: %s" msg

let feasible = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "unexpected infeasibility: %a" Design.Provision.pp_infeasibility e

(* Domain count the solver tests run with. CI sets DS_TEST_DOMAINS=4 to
   exercise the parallel refit; the default single domain keeps local
   runs cheap. Results are domain-count-invariant by design, so the
   whole suite must pass identically under either setting. *)
let test_domains =
  match Sys.getenv_opt "DS_TEST_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None ->
       invalid_arg ("DS_TEST_DOMAINS must be a positive integer, got " ^ s))

(* The canonical two-app world: B mirrored+backed up, S tape-only, both
   primaries at site 1. *)
let two_app_design () =
  let design = D.empty (peer_env ()) in
  let design = ok (assign_full b_app design) in
  ok (assign_tape_only s_app design)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0
