(* Domain-safe instruments: the design solver's parallel refit bumps
   counters from worker domains concurrently, so counters and gauges are
   Atomic-backed and histograms take a per-instrument lock.

   The registry is an immutable name -> instrument map held in an
   [Atomic]. Looking up an existing instrument reads the current map and
   takes no lock, so instruments resolved by name on every call cost a
   map search, never a mutex. Only creation locks: the registry lock
   serializes insertions, which re-check the map and publish a new one.
   Both mutexes are [Lockstat]-wrapped, so the registry can report its
   own contention; the registry lock's acquisitions are its creations,
   plus any lookup that raced a peer creating the same name.

   Renderers never read mutable instrument state directly: they go
   through {!snapshot}, which copies each instrument under its lock —
   a dump racing concurrent observers sees a consistent (count, sum,
   lo, hi, buckets) tuple, never a torn one. *)

type counter = int Atomic.t

type gauge = float Atomic.t

(* Histogram buckets are quarter-powers-of-two spanning 2^-26 s (~15 ns)
   to 2^6 s (64 s): bucket 0 is the underflow range [0, 2^-26), buckets
   1..128 cover the log-spaced span, bucket 129 is overflow. The ~19%
   bucket width bounds the raw percentile error; linear interpolation
   inside the bucket and clamping into [lo, hi] tighten it further. *)
let min_exponent = -26
let max_exponent = 6
let buckets_per_octave = 4

let log_buckets = (max_exponent - min_exponent) * buckets_per_octave
let bucket_count = log_buckets + 2
let min_edge = 2. ** float_of_int min_exponent
let max_edge = 2. ** float_of_int max_exponent

let bucket_of s =
  if s < min_edge then 0
  else if s >= max_edge then bucket_count - 1
  else
    let raw =
      int_of_float
        (Float.floor
           ((Float.log2 s -. float_of_int min_exponent)
            *. float_of_int buckets_per_octave))
    in
    1 + max 0 (min (log_buckets - 1) raw)

(* Lower edge of bucket [b] for b in [1, log_buckets]; bucket b covers
   [edge b, edge (b + 1)). *)
let edge b =
  2.
  ** (float_of_int min_exponent
      +. (float_of_int (b - 1) /. float_of_int buckets_per_octave))

(* The float statistics live in their own all-float record, which OCaml
   stores flat: updating them allocates nothing, where float fields of
   the mixed [histogram] record would box on every write. *)
type moments = {
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type histogram = {
  lock : Lockstat.t;
  mutable observed : int;
  m : moments;
  buckets : int array;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

module Names = Map.Make (String)

type registry = {
  tbl : instrument Names.t Atomic.t;  (* replaced, never mutated *)
  lock : Lockstat.t;  (* serializes insertions only *)
  hist_lock_stats : Lockstat.stats;
      (* One shared cell: per-histogram contention aggregated across
         every histogram in the registry. *)
}

let create () : registry =
  { tbl = Atomic.make Names.empty;
    lock = Lockstat.create ();
    hist_lock_stats = Lockstat.create_stats () }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

type kind = K_counter | K_gauge | K_histogram

let make reg = function
  | K_counter -> Counter (Atomic.make 0)
  | K_gauge -> Gauge (Atomic.make 0.)
  | K_histogram ->
    Histogram
      { lock = Lockstat.create ~stats:reg.hist_lock_stats ();
        observed = 0;
        m = { sum = 0.; lo = 0.; hi = 0. };
        buckets = Array.make bucket_count 0 }

(* Creation: re-check under the lock (a peer may have inserted [name]
   since the lock-free miss), then publish a new map. Readers holding
   the old map simply miss and come here. *)
let insert reg name kind =
  Lockstat.protect reg.lock (fun () ->
      let tbl = Atomic.get reg.tbl in
      match Names.find name tbl with
      | instr -> instr
      | exception Not_found ->
        let instr = make reg kind in
        Atomic.set reg.tbl (Names.add name instr tbl);
        instr)

let lookup reg name kind =
  match Names.find name (Atomic.get reg.tbl) with
  | instr -> instr
  | exception Not_found -> insert reg name kind

let mismatch name instr =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is already a %s" name (kind_name instr))

let counter reg name =
  match lookup reg name K_counter with
  | Counter c -> c
  | instr -> mismatch name instr

let gauge reg name =
  match lookup reg name K_gauge with
  | Gauge g -> g
  | instr -> mismatch name instr

let histogram reg name =
  match lookup reg name K_histogram with
  | Histogram h -> h
  | instr -> mismatch name instr

(* A handle remembers the last registry it resolved in, so a call site
   that names its instrument once, where the code is loaded, neither
   builds nor looks up that name again while the registry stays the
   same. Resolving in another registry replaces the memory; a racing
   replacement only costs a peer one more lookup of the same name. *)
type 'a handle = {
  h_name : string;
  h_find : registry -> string -> 'a;
  last : (registry * 'a) option Atomic.t;
}

let handle h_find h_name = { h_name; h_find; last = Atomic.make None }
let counter_handle = handle counter
let gauge_handle = handle gauge
let histogram_handle = handle histogram

let resolve reg h =
  match Atomic.get h.last with
  | Some (r, instr) when r == reg -> instr
  | _ ->
    let instr = h.h_find reg h.h_name in
    Atomic.set h.last (Some (reg, instr));
    instr

let incr c = Atomic.incr c
let add c k = ignore (Atomic.fetch_and_add c k)
let count c = Atomic.get c

let set g v = Atomic.set g v

let rec gauge_add g dv =
  let v = Atomic.get g in
  if not (Atomic.compare_and_set g v (v +. dv)) then gauge_add g dv

let rec gauge_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then gauge_max g v

let value g = Atomic.get g

let valid_sample s = not (Float.is_nan s || s < 0.)

(* Caller holds [h.lock]. *)
let add_sample (h : histogram) s b =
  let m = h.m in
  if h.observed = 0 then begin m.lo <- s; m.hi <- s end
  else begin m.lo <- Float.min m.lo s; m.hi <- Float.max m.hi s end;
  h.observed <- h.observed + 1;
  m.sum <- m.sum +. s;
  h.buckets.(b) <- h.buckets.(b) + 1

(* The bucket is found before the lock is taken, and the body cannot
   raise, so the lock is held without a [protect] closure. *)
let observe (h : histogram) s =
  if valid_sample s then begin
    let b = bucket_of s in
    Lockstat.lock h.lock;
    add_sample h s b;
    Lockstat.unlock h.lock
  end

let observe_list (h : histogram) samples =
  Lockstat.lock h.lock;
  List.iter (fun s -> if valid_sample s then add_sample h s (bucket_of s)) samples;
  Lockstat.unlock h.lock

let observations h = h.observed
let total h = h.m.sum
let mean h = if h.observed = 0 then 0. else h.m.sum /. float_of_int h.observed
let hist_min h = h.m.lo
let hist_max h = h.m.hi

(* Percentile from the bucket counts of a consistent histogram state
   (caller holds the lock or owns a snapshot): find the bucket holding
   the target rank, interpolate linearly between its edges, clamp into
   the exact [lo, hi] envelope. *)
let percentile_of ~observed ~lo ~hi (buckets : int array) q =
  if observed = 0 then 0.
  else begin
    let target = Float.max 1. (Float.round (q *. float_of_int observed)) in
    let b = ref 0 and cum = ref 0 in
    while
      !b < bucket_count - 1
      && float_of_int (!cum + buckets.(!b)) < target
    do
      cum := !cum + buckets.(!b);
      b := !b + 1
    done;
    let b = !b in
    let in_bucket = buckets.(b) in
    let frac =
      if in_bucket = 0 then 1.
      else (target -. float_of_int !cum) /. float_of_int in_bucket
    in
    let b_lo, b_hi =
      if b = 0 then (0., min_edge)
      else if b = bucket_count - 1 then (max_edge, Float.max max_edge hi)
      else (edge b, edge (b + 1))
    in
    let v = b_lo +. (frac *. (b_hi -. b_lo)) in
    Float.min hi (Float.max lo v)
  end

let percentile (h : histogram) q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Obs.Metrics.percentile: q outside [0, 1]";
  Lockstat.protect h.lock (fun () ->
      percentile_of ~observed:h.observed ~lo:h.m.lo ~hi:h.m.hi h.buckets q)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time h f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> observe h (now_s () -. t0)) f

(* ------------------------------------------------------------------ *)
(* Consistent snapshots: every read of mutable instrument state for     *)
(* rendering goes through here.                                         *)
(* ------------------------------------------------------------------ *)

type histogram_snapshot = {
  snap_count : int;
  snap_total : float;
  snap_mean : float;
  snap_min : float;
  snap_max : float;
  snap_p50 : float;
  snap_p90 : float;
  snap_p99 : float;
}

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

let snapshot_histogram (h : histogram) =
  Lockstat.protect h.lock (fun () ->
      let m = h.m in
      let pct = percentile_of ~observed:h.observed ~lo:m.lo ~hi:m.hi h.buckets in
      { snap_count = h.observed;
        snap_total = m.sum;
        snap_mean =
          (if h.observed = 0 then 0. else m.sum /. float_of_int h.observed);
        snap_min = m.lo;
        snap_max = m.hi;
        snap_p50 = pct 0.5;
        snap_p90 = pct 0.9;
        snap_p99 = pct 0.99 })

let snapshot reg =
  (* One read of the current map: its bindings are already sorted by
     name, and names and instrument identities never change once
     created, so each instrument's state is then read under its own
     lock (or atomically). *)
  List.map
    (fun (name, instr) ->
       let v =
         match instr with
         | Counter c -> Counter_value (Atomic.get c)
         | Gauge g -> Gauge_value (Atomic.get g)
         | Histogram h -> Histogram_value (snapshot_histogram h)
       in
       (name, v))
    (Names.bindings (Atomic.get reg.tbl))

let names reg = List.map fst (Names.bindings (Atomic.get reg.tbl))

let lock_stats reg =
  [ ("metrics.registry", Lockstat.stats reg.lock);
    ("metrics.histograms", reg.hist_lock_stats) ]

let pp ppf reg =
  List.iter
    (fun (name, v) ->
       match v with
       | Counter_value c -> Format.fprintf ppf "%-44s %12d@." name c
       | Gauge_value g -> Format.fprintf ppf "%-44s %12.6g@." name g
       | Histogram_value h ->
         Format.fprintf ppf
           "%-44s n=%d total=%.6fs mean=%.6fs min=%.6fs p50=%.6fs \
            p90=%.6fs p99=%.6fs max=%.6fs@."
           name h.snap_count h.snap_total h.snap_mean h.snap_min h.snap_p50
           h.snap_p90 h.snap_p99 h.snap_max)
    (snapshot reg)

(* JSON string escaping for instrument names. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.9g" x

let histogram_snapshot_json h =
  Printf.sprintf
    "{\"count\":%d,\"total_s\":%s,\"mean_s\":%s,\"min_s\":%s,\"max_s\":%s,\
     \"p50_s\":%s,\"p90_s\":%s,\"p99_s\":%s}"
    h.snap_count (json_float h.snap_total) (json_float h.snap_mean)
    (json_float h.snap_min) (json_float h.snap_max) (json_float h.snap_p50)
    (json_float h.snap_p90) (json_float h.snap_p99)

let json_escape = escape

let to_json reg =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf (Printf.sprintf "\"%s\":" (escape name));
       match v with
       | Counter_value c -> Buffer.add_string buf (string_of_int c)
       | Gauge_value g -> Buffer.add_string buf (json_float g)
       | Histogram_value h -> Buffer.add_string buf (histogram_snapshot_json h))
    (snapshot reg);
  Buffer.add_char buf '}';
  Buffer.contents buf
