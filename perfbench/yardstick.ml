let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Short lists of fresh tuples and boxed floats, folded and dropped at
   once: everything dies in the minor heap, so a sample adds almost no
   major-GC work, and a large major heap does not slow it (README.md has
   the measurements). A round allocates 192 words; 5,500 rounds stream
   through about four default minor heaps, as the allocation-heavy
   program does. *)
let rounds = 5_500

let kernel () =
  let acc = ref 0 and x = ref 0.5 in
  for r = 1 to rounds do
    let rec build k l =
      if k = 0 then l else build (k - 1) ((k lxor r, float_of_int k) :: l)
    in
    List.iter
      (fun (a, f) ->
        acc := ((!acc * 31) + a) land 0xFFFFFF;
        x := (!x *. 0.999) +. (f *. 1e-3))
      (Sys.opaque_identity (build 24 []))
  done;
  ignore (Sys.opaque_identity (!acc, !x))

(* Emptying the minor heap first (untimed) gives every sample the same
   number of minor collections, wherever the program left off. Paying
   the program's owed major-GC work here as well (Gc.major_slice 0) did
   not make a sample taken after an operation any steadier. *)
let sample () =
  Gc.minor ();
  let t0 = now_s () in
  kernel ();
  now_s () -. t0

let nominal_s = 0.002

(* Host phases on a shared host flip within a second or two; the two
   samples on each side of an operation follow them far better than a
   wider window (same work, six runs: p50 spread 1.7% at two, 3.4% at
   five). *)
let window = 2

let local samples i =
  let n = Array.length samples in
  let lo = max 0 (i + 1 - window) and hi = min (n - 1) (i + window) in
  Stats.median (Array.sub samples lo (hi - lo + 1))

let normalise ~local raw = raw *. (nominal_s /. local)

let normalised samples raws =
  if Array.length samples <> Array.length raws + 1 then
    invalid_arg "Yardstick.normalised: need one more sample than operations";
  Array.mapi (fun i raw -> normalise ~local:(local samples i) raw) raws

let bracket = 3

let timed_step f =
  let before = Array.init bracket (fun _ -> sample ()) in
  let t0 = now_s () in
  let v = f () in
  let raw = now_s () -. t0 in
  let after = Array.init bracket (fun _ -> sample ()) in
  (v, normalise ~local:(Stats.median (Array.append before after)) raw)
