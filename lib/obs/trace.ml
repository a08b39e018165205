type alloc = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  name : string;
  args : (string * string) list;
  start_ns : int64;  (* relative to the collector origin *)
  dur_ns : int64;
  depth : int;
  path : string;  (* "/"-joined ancestor names, self included *)
  tid : int;  (* lane: 1 = the creating thread, 2.. = worker lanes *)
  alloc : alloc;  (* allocated across the span, this domain *)
}

(* A collector is single-threaded by construction: spans nest by dynamic
   scope on one thread of control. Worker domains get their own lane
   collectors ({!worker}) sharing the parent's clock origin; completed
   lanes are folded back with {!merge} after the domains join. *)
type collector = {
  origin : int64;
  tid : int;
  base_path : string option;  (* enclosing parent-lane path, if any *)
  mutable stack : string list;  (* open span paths, innermost first *)
  mutable spans : span list;  (* completed, reverse completion order *)
  mutable completed : int;
  (* Last (parent, name, parent ^ "/" ^ name): the hot loops open the
     same span under the same parent thousands of times in a row, so the
     concatenation is recomputed only when either component changes
     (compared physically — literals and open-span paths are stable). *)
  mutable path_cache : (string * string * string) option;
}

let create () =
  { origin = Monotonic_clock.now ();
    tid = 1;
    base_path = None;
    stack = [];
    spans = [];
    completed = 0;
    path_cache = None }

let tid c = c.tid

(* The parent's currently open path (if any) seeds the lane's nesting so
   merged worker spans aggregate under the span that forked them. *)
let worker parent ~tid =
  { origin = parent.origin;
    tid;
    base_path =
      (match parent.stack with
       | path :: _ -> Some path
       | [] -> parent.base_path);
    stack = [];
    spans = [];
    completed = 0;
    path_cache = None }

let merge ~into child =
  into.spans <- child.spans @ into.spans;
  into.completed <- into.completed + child.completed

let rel c now = Int64.sub now c.origin

(* Minor words come from [Gc.minor_words], which counts this domain's
   allocation to the word; [Gc.quick_stat]'s figure lags until the next
   minor collection. *)
let alloc_delta ~minor_words (before : Gc.stat) (after : Gc.stat) =
  { minor_words;
    major_words = after.Gc.major_words -. before.Gc.major_words;
    minor_collections = after.Gc.minor_collections - before.Gc.minor_collections;
    major_collections = after.Gc.major_collections - before.Gc.major_collections }

let with_span c ?(args = []) name f =
  let parent =
    match c.stack with
    | path :: _ -> Some path
    | [] -> c.base_path
  in
  let path =
    match parent with
    | None -> name
    | Some parent ->
      (match c.path_cache with
       | Some (p, n, path) when p == parent && n == name -> path
       | _ ->
         let path = parent ^ "/" ^ name in
         c.path_cache <- Some (parent, name, path);
         path)
  in
  let depth =
    List.length c.stack + (match c.base_path with None -> 0 | Some _ -> 1)
  in
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let start_ns = rel c (Monotonic_clock.now ()) in
  c.stack <- path :: c.stack;
  Fun.protect
    ~finally:(fun () ->
        let minor_words = Gc.minor_words () -. minor0 in
        let dur_ns = Int64.sub (rel c (Monotonic_clock.now ())) start_ns in
        let alloc = alloc_delta ~minor_words gc0 (Gc.quick_stat ()) in
        c.stack <- List.tl c.stack;
        c.spans <-
          { name; args; start_ns; dur_ns; depth; path; tid = c.tid; alloc }
          :: c.spans;
        c.completed <- c.completed + 1)
    f

let span_count c = c.completed

let spans c =
  List.rev c.spans
  |> List.sort (fun (a : span) (b : span) ->
      match compare a.tid b.tid with
      | 0 -> Int64.compare a.start_ns b.start_ns
      | n -> n)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | ch when Char.code ch < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
       | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let us ns = Int64.to_float ns /. 1e3

let to_chrome_json c =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf
         (Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"ds\",\"ph\":\"X\",\"ts\":%.3f,\
             \"dur\":%.3f,\"pid\":1,\"tid\":%d"
            (escape s.name) (us s.start_ns) (us s.dur_ns) s.tid);
       Buffer.add_string buf ",\"args\":{";
       List.iter
         (fun (k, v) ->
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"," (escape k) (escape v)))
         s.args;
       Buffer.add_string buf
         (Printf.sprintf
            "\"minor_words\":%.0f,\"major_words\":%.0f,\
             \"minor_collections\":%d,\"major_collections\":%d}}"
            s.alloc.minor_words s.alloc.major_words
            s.alloc.minor_collections s.alloc.major_collections))
    (spans c);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Aggregate completed spans by path. First-occurrence order (in span
   start order, lanes interleaved by time) keeps the tree stable and
   readable; a path seen on several lanes folds into one line. *)
let pp_tree ppf c =
  let spans =
    List.rev c.spans
    |> List.sort (fun a b -> Int64.compare a.start_ns b.start_ns)
  in
  let table : (string, int * int64) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
       match Hashtbl.find_opt table s.path with
       | Some (n, total) ->
         Hashtbl.replace table s.path (n + 1, Int64.add total s.dur_ns)
       | None ->
         Hashtbl.add table s.path (1, s.dur_ns);
         order := (s.path, s.name, s.depth) :: !order)
    spans;
  List.iter
    (fun (path, name, depth) ->
       let n, total = Hashtbl.find table path in
       Format.fprintf ppf "%s%-*s x%-6d %10.3f ms@."
         (String.make (2 * depth) ' ')
         (max 1 (36 - (2 * depth)))
         name n
         (Int64.to_float total /. 1e6))
    (List.rev !order)
