module Metrics = Metrics
module Trace = Trace
module Progress = Progress
module Lockstat = Lockstat
module Prof = Prof

type t = {
  metrics : Metrics.registry option;
  trace : Trace.collector option;
  progress : Progress.stream option;
}

let noop = { metrics = None; trace = None; progress = None }

let create ?(metrics = false) ?(trace = false) ?(progress = false) () =
  { metrics = (if metrics then Some (Metrics.create ()) else None);
    trace = (if trace then Some (Trace.create ()) else None);
    progress = (if progress then Some (Progress.create ()) else None) }

(* [create] makes fresh sinks; [attach] wraps existing ones. The server
   hands every request the same resident metrics registry but its own
   progress stream, which [create]'s fresh-registry-per-capability shape
   cannot express. *)
let attach ?metrics ?trace ?progress () = { metrics; trace; progress }

let metrics t = t.metrics
let trace t = t.trace
let progress t = t.progress

let fork_lane t ~tid =
  match t.trace with
  | None -> (t, None)
  | Some parent ->
    let lane = Trace.worker parent ~tid in
    ({ t with trace = Some lane }, Some lane)

let merge_lane t lane =
  match (t.trace, lane) with
  | Some parent, Some lane -> Trace.merge ~into:parent lane
  | _ -> ()

let metrics_on t = t.metrics <> None

let incr t name =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.incr (Metrics.counter reg name)

let add t name k =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.add (Metrics.counter reg name) k

let gauge_add t name dv =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.gauge_add (Metrics.gauge reg name) dv

let gauge_set t name v =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.set (Metrics.gauge reg name) v

let observe t name s =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.observe (Metrics.histogram reg name) s

let time t name f =
  match t.metrics with
  | None -> f ()
  | Some reg -> Metrics.time (Metrics.histogram reg name) f

let with_span t ?args name f =
  match t.trace with
  | None -> f ()
  | Some c -> Trace.with_span c ?args name f

let stage t ~evaluations name =
  match t.progress with
  | None -> ()
  | Some s -> Progress.stage s ~evaluations name

let incumbent t ~evaluations cost =
  match t.progress with
  | None -> ()
  | Some s -> Progress.incumbent s ~evaluations cost

let portfolio_incumbent t ~evaluations ~restart cost =
  match t.progress with
  | None -> ()
  | Some s -> Progress.portfolio_incumbent s ~evaluations ~restart cost

let shard_done t ~evaluations ~shard cost =
  match t.progress with
  | None -> ()
  | Some s -> Progress.shard_done s ~evaluations ~shard cost

let refit_accepted t ~evaluations =
  match t.progress with
  | None -> ()
  | Some s -> Progress.accepted s ~evaluations

let refit_rejected t ~evaluations =
  match t.progress with
  | None -> ()
  | Some s -> Progress.rejected s ~evaluations

let write_file path contents =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc contents);
    Ok ()
  with Sys_error reason ->
    Error
      (Printf.sprintf "cannot write %s: %s"
         (if path = "" then "''" else path) reason)
