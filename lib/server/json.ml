(* Minimal JSON: the wire format of the dstool server.

   The repo deliberately has no external dependencies beyond the OCaml
   toolchain, so the newline-delimited JSON-RPC endpoint carries its own
   parser and printer. The subset is full JSON (RFC 8259): all escapes
   including \uXXXX with surrogate pairs (decoded to UTF-8 bytes),
   numbers as OCaml floats, arrays/objects nested up to [max_depth]
   deep. Object member order is preserved; duplicate keys keep every
   occurrence ([member] returns the first). The printer emits integral doubles without a fractional
   part so ids and counters survive a round trip textually. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- Parsing ----------------------------------------------------- *)

exception Fail of string

type cursor = { src : string; mutable pos : int }

let error c fmt =
  Printf.ksprintf
    (fun msg -> raise (Fail (Printf.sprintf "at byte %d: %s" c.pos msg)))
    fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
    c.pos <- c.pos + 1;
    ch
  | None -> error c "unexpected end of input"

let expect c ch =
  let got = next c in
  if got <> ch then error c "expected '%c', got '%c'" ch got

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> c.pos <- c.pos + 1
    | _ -> continue := false
  done

let expect_word c word value =
  String.iter (fun ch -> expect c ch) word;
  value

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> error c "invalid hex digit '%c'" ch

let hex4 c =
  let d3 = hex_digit c (next c) in
  let d2 = hex_digit c (next c) in
  let d1 = hex_digit c (next c) in
  let d0 = hex_digit c (next c) in
  (d3 lsl 12) lor (d2 lsl 8) lor (d1 lsl 4) lor d0

(* UTF-8 encode one code point into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  (* Opening quote already consumed. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next c with
       | '"' -> Buffer.add_char buf '"'; go ()
       | '\\' -> Buffer.add_char buf '\\'; go ()
       | '/' -> Buffer.add_char buf '/'; go ()
       | 'b' -> Buffer.add_char buf '\b'; go ()
       | 'f' -> Buffer.add_char buf '\012'; go ()
       | 'n' -> Buffer.add_char buf '\n'; go ()
       | 'r' -> Buffer.add_char buf '\r'; go ()
       | 't' -> Buffer.add_char buf '\t'; go ()
       | 'u' ->
         let cp = hex4 c in
         let cp =
           (* A high surrogate must pair with a following \uDC00-\uDFFF
              low surrogate; decode the pair to one code point. *)
           if cp >= 0xD800 && cp <= 0xDBFF then begin
             expect c '\\';
             expect c 'u';
             let lo = hex4 c in
             if lo < 0xDC00 || lo > 0xDFFF then
               error c "unpaired surrogate \\u%04X" cp;
             0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
           end
           else if cp >= 0xDC00 && cp <= 0xDFFF then
             error c "unpaired low surrogate \\u%04X" cp
           else cp
         in
         add_utf8 buf cp;
         go ()
       | ch -> error c "invalid escape '\\%c'" ch)
    | '\000' .. '\031' -> error c "unescaped control character in string"
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    let continue = ref true in
    while !continue do
      match peek c with
      | Some ch when pred ch -> c.pos <- c.pos + 1
      | _ -> continue := false
    done
  in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek c = Some '.' then begin
    c.pos <- c.pos + 1;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek c with
   | Some ('e' | 'E') ->
     c.pos <- c.pos + 1;
     (match peek c with
      | Some ('+' | '-') -> c.pos <- c.pos + 1
      | _ -> ());
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error c "invalid number %S" text

(* The parser recurses once per open array or object, so one hostile
   line of [[[[... could otherwise overflow the stack. Valid requests
   nest about four deep. *)
let max_depth = 64

(* [depth] counts the containers enclosing the value being parsed. *)
let enter c depth =
  if depth >= max_depth then error c "nesting deeper than %d" max_depth;
  depth + 1

let rec parse_value c depth =
  skip_ws c;
  match next c with
  | 'n' -> expect_word c "ull" Null
  | 't' -> expect_word c "rue" (Bool true)
  | 'f' -> expect_word c "alse" (Bool false)
  | '"' -> Str (parse_string c)
  | '[' ->
    let depth = enter c depth in
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        items := parse_value c depth :: !items;
        skip_ws c;
        match next c with
        | ',' -> ()
        | ']' -> continue := false
        | ch -> error c "expected ',' or ']' in array, got '%c'" ch
      done;
      List (List.rev !items)
    end
  | '{' ->
    let depth = enter c depth in
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let members = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws c;
        expect c '"';
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c depth in
        members := (key, value) :: !members;
        skip_ws c;
        match next c with
        | ',' -> ()
        | '}' -> continue := false
        | ch -> error c "expected ',' or '}' in object, got '%c'" ch
      done;
      Obj (List.rev !members)
    end
  | ('-' | '0' .. '9') ->
    c.pos <- c.pos - 1;
    parse_number c
  | ch -> error c "unexpected character '%c'" ch

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "at byte %d: trailing garbage" c.pos)
    else Ok v
  | exception Fail msg -> Error msg

(* ---- Printing ---------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | '\000' .. '\031' ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
       | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else
    (* JSON has no inf/nan; null is the conventional spelling. *)
    Buffer.add_string buf "null"

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f -> add_number buf f
  | Str s -> add_escaped buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
         if i > 0 then Buffer.add_char buf ',';
         add_value buf item)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
         if i > 0 then Buffer.add_char buf ',';
         add_escaped buf key;
         Buffer.add_char buf ':';
         add_value buf value)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_value buf v;
  Buffer.contents buf

(* ---- Accessors --------------------------------------------------- *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let str_opt = function Str s -> Some s | _ -> None
let bool_opt = function Bool b -> Some b | _ -> None
let num_opt = function Num f -> Some f | _ -> None

let int_opt = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Some (int_of_float f)
  | _ -> None

let list_opt = function List items -> Some items | _ -> None

(* A present member of the wrong type is an error, never a silent
   [None]: a request that misspells a type must not run with a default. *)
let find conv kind key v =
  match member key v with
  | None -> Ok None
  | Some x ->
    (match conv x with
     | Some y -> Ok (Some y)
     | None -> Error (Printf.sprintf "%S must be %s" key kind))

let get conv kind ?default key v =
  match find conv kind key v, default with
  | Ok (Some y), _ | Ok None, Some y -> Ok y
  | Ok None, None -> Error (Printf.sprintf "missing required member %S" key)
  | (Error _ as e), _ -> e

let find_str = find str_opt "a string"
let find_int = find int_opt "an integer"
let find_num = find num_opt "a number"
let find_list = find list_opt "a list"
let get_str ?default = get str_opt "a string" ?default
let get_int ?default = get int_opt "an integer" ?default
let get_num ?default = get num_opt "a number" ?default
let get_bool ~default = get bool_opt "a boolean" ~default
