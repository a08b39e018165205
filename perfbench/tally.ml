type t = { mutable attempted : int; failures : (int, string) Hashtbl.t }

let create () = { attempted = 0; failures = Hashtbl.create 8 }

let attempt t =
  let op = t.attempted in
  t.attempted <- op + 1;
  op

let fail t op reason =
  if op < 0 || op >= t.attempted then invalid_arg "Tally.fail: unknown operation";
  if not (Hashtbl.mem t.failures op) then Hashtbl.replace t.failures op reason

let check t op ok reason = if not ok then fail t op (Lazy.force reason)

let attempted t = t.attempted
let failed t = Hashtbl.length t.failures

let reasons t =
  Hashtbl.fold (fun op r acc -> (op, r) :: acc) t.failures []
  |> List.sort compare
