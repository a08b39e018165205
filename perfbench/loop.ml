type t = { samples : float array; raw : float array; norm : float array }

let run ?(boundary = fun _ -> true) ?(after = ignore) ~seconds ~min_ops ~cap_s
    op =
  let t0 = Yardstick.now_s () in
  let stop_at = t0 +. seconds and cap_at = t0 +. cap_s in
  let samples = ref [] and raws = ref [] in
  let rec go i =
    let now = Yardstick.now_s () in
    if now >= cap_at || (i >= min_ops && now >= stop_at && boundary i) then ()
    else begin
      samples := Yardstick.sample () :: !samples;
      let t = Yardstick.now_s () in
      op i;
      raws := (Yardstick.now_s () -. t) :: !raws;
      after i;
      go (i + 1)
    end
  in
  go 0;
  samples := Yardstick.sample () :: !samples;
  let samples = Array.of_list (List.rev !samples)
  and raw = Array.of_list (List.rev !raws) in
  { samples; raw; norm = Yardstick.normalised samples raw }

let ops t = Array.length t.raw

let end_to_end t ~setup =
  let n = ops t in
  match Stats.nearest_rank t.norm 50, Stats.tail_percentile t.norm 90 with
  | Some p50, Some p90 ->
    Ok
      [ ("setup_s", Stats.median setup);
        ("op_p50_s", p50);
        ("op_p90_s", p90);
        ("ops_per_s", float_of_int n /. Stats.sum t.norm) ]
  | _ ->
    Error
      (Printf.sprintf
         "%d operations leave fewer than 10 beyond p90; no p90 to report" n)
