let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* ceil (p * n / 100) in integers: the float product 0.9 *. 100. happens to
   be exact, but 0.07 *. 100. is not, and a rank must never drift by one. *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let nearest_rank xs p =
  if p < 1 || p > 100 then invalid_arg "Stats.nearest_rank: p in 1..100";
  let n = Array.length xs in
  if n = 0 then None else Some (sorted xs).(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

let tail_percentile xs p =
  let n = Array.length xs in
  if n = 0 || beyond ~n p < 10 then None else nearest_rank xs p

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = Array.fold_left ( +. ) 0. xs

let spread xs =
  let m = median xs in
  let a = sorted xs in
  if m = 0. then 0. else (a.(Array.length a - 1) -. a.(0)) /. m
