(* Each generator draws from its own stream of the workload seed, so
   adding a draw to one workload never shifts another's inputs. *)
let stream seed salt = Random.State.make [| seed; salt |]

(* Distinct positive solver seeds; [avoid] holds seeds already taken. *)
let fresh_seed st avoid =
  let rec draw () =
    let s = 1 + Random.State.int st 0x3FFFFFFF in
    if Hashtbl.mem avoid s then draw ()
    else begin
      Hashtbl.add avoid s ();
      s
    end
  in
  draw ()

(* Fixed pools of distinct solver seeds, the same for every workload
   seed: a run takes them in a seed-dependent order. Problems drawn
   freely per run made the per-run medians spread with the luck of the
   draw (op_p50_s 7.9% across five solve-cold seeds, ops_per_s 15%
   across five serve-mix seeds), and made cost_usd differ from seed to
   seed; with shared pools every run of a commit returns the same
   designs, so cost_usd is exact. *)
let pools ~salt sizes =
  let st = stream 0 salt and avoid = Hashtbl.create 256 in
  (List.map (fun n -> Array.init n (fun _ -> fresh_seed st avoid)) sizes, avoid)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permuted st a =
  let a = Array.copy a in
  shuffle st a;
  a

let solver_seeds ~seed ~count =
  match pools ~salt:101 [ count ] with
  | [ p ], _ -> permuted (stream seed 1) p
  | _ -> assert false

(* Log-uniform in [1/1.5, 1.5]: a load swing of up to half again either
   way, never exactly 1, so every drift really dirties its app. *)
let drift_factor st =
  let span = log 1.5 in
  exp (Random.State.float st (2. *. span) -. span)

let drifts ~seed ~count ~apps =
  let st = stream 0 103 in
  let steps =
    Array.init count (fun _ ->
        let app_id = 1 + Random.State.int st apps in
        (app_id, drift_factor st))
  in
  permuted (stream seed 2) steps

type request =
  | Health
  | Metrics
  | Risk of { design : int; seed : int; sla : bool }
  | Repeat of int
  | Resolve of { app_id : int; factor : float }
  | Fresh of int
  | Portfolio of int

let kind = function
  | Health -> "health"
  | Metrics -> "metrics"
  | Risk { sla = false; _ } -> "risk"
  | Risk { sla = true; _ } -> "risk_sla"
  | Repeat _ -> "repeat"
  | Resolve _ -> "resolve"
  | Fresh _ -> "fresh"
  | Portfolio _ -> "portfolio"

(* Shares per block, cheapest kind first. Cumulative: 8 of 20 requests
   are cheaper than a repeat and 13 are at most a repeat, so the median
   (rank 10 of 20) lands inside the repeats; 16 are at most a resolve and
   19 at most a fresh solve, so p90 (rank 18) lands inside the fresh
   solves — neither sits on the boundary between two kinds. *)
let block =
  [ ("health", 2); ("metrics", 2); ("risk", 2); ("risk_sla", 2);
    ("repeat", 5); ("resolve", 3); ("fresh", 3); ("portfolio", 1) ]

let block_size = List.fold_left (fun acc (_, n) -> acc + n) 0 block

let counted_blocks = 5

type serve_mix = { working_set : int array; script : request array }

let ws_pool = 3
let fresh_pool = 24
let portfolio_pool = 8

(* [a] shuffled within its first [head] seeds and within the rest: the
   first [head] draws always take the same seeds. *)
let permuted_head st ~head a =
  let n = Array.length a in
  Array.append (permuted st (Array.sub a 0 head)) (permuted st (Array.sub a head (n - head)))

let serve_mix ~seed ~blocks ~fleet_apps =
  let st = stream seed 3 in
  let head kind = counted_blocks * List.assoc kind block in
  let ws, fresh, portfolio, avoid =
    match pools ~salt:102 [ ws_pool; fresh_pool; portfolio_pool ] with
    | [ w; f; p ], avoid ->
      ( permuted st w,
        permuted_head st ~head:(head "fresh") f,
        permuted_head st ~head:(head "portfolio") p,
        avoid )
    | _ -> assert false
  in
  (* Past the end of its pool a kind draws seeds no pool holds, so a
     "fresh" solve is always new to the server. *)
  let from pool =
    let next = ref 0 in
    fun () ->
      let i = !next in
      incr next;
      if i < Array.length pool then pool.(i) else fresh_seed st avoid
  in
  let next_fresh = from fresh and next_portfolio = from portfolio in
  (* Repeats cycle through the working set, so every block solves each
     of its seeds at least once. *)
  let repeats = ref 0 in
  let draw name =
    match name with
    | "health" -> Health
    | "metrics" -> Metrics
    | "risk" | "risk_sla" ->
      Risk
        { design = Random.State.int st ws_pool;
          seed = 1 + Random.State.int st 0x3FFFFFFF;
          sla = name = "risk_sla" }
    | "repeat" ->
      incr repeats;
      Repeat ((!repeats - 1) mod ws_pool)
    | "resolve" ->
      let app_id = 1 + Random.State.int st fleet_apps in
      Resolve { app_id; factor = drift_factor st }
    | "fresh" -> Fresh (next_fresh ())
    | "portfolio" -> Portfolio (next_portfolio ())
    | other -> invalid_arg ("Gen.serve_mix: unknown kind " ^ other)
  in
  let one_block () =
    let b =
      Array.of_list
        (List.concat_map (fun (name, n) -> List.init n (fun _ -> draw name)) block)
    in
    shuffle st b;
    b
  in
  { working_set = ws; script = Array.concat (List.init blocks (fun _ -> one_block ())) }
