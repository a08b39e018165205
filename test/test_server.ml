(* The dstool server: wire format, framing, and end-to-end daemon
   behaviour — byte-identical designs under concurrent load, bounded
   admission, deadline budgets and graceful drain (DESIGN.md §16). *)

open Dependable_storage
module Json = Server.Json
module Protocol = Server.Protocol
module Daemon = Server.Daemon
module Client = Server.Client
module Design_solver = Solver.Design_solver
module Design_io = Design.Design_io
module Candidate = Solver.Candidate
module E = Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ---- Json --------------------------------------------------------- *)

let json_tests =
  [ Alcotest.test_case "integers survive a textual round trip" `Quick
      (fun () ->
         let j = Json.Obj [ ("id", Json.Num 3.); ("x", Json.Num 1.5) ] in
         let s = Json.to_string j in
         check_string "integral doubles print bare" {|{"id":3,"x":1.5}|} s;
         let back = ok_exn (Json.of_string s) in
         check_int "id parses back as an int" 3
           (Option.get (Option.bind (Json.member "id" back) Json.int_opt)));
    Alcotest.test_case "escapes decode and re-encode" `Quick (fun () ->
        let unicode_a = "\\" ^ "u0041" in
        let v =
          ok_exn (Json.of_string ({|"a\"b\\c\nd|} ^ unicode_a ^ {|"|}))
        in
        check_string "all escapes decoded" "a\"b\\c\ndA"
          (Option.get (Json.str_opt v));
        check_string "newline re-escapes on output" {|"line\nbreak"|}
          (Json.to_string (Json.Str "line\nbreak")));
    Alcotest.test_case "surrogate pairs decode to UTF-8" `Quick (fun () ->
        let v = ok_exn (Json.of_string {|"😀"|}) in
        check_int "one four-byte scalar" 4
          (String.length (Option.get (Json.str_opt v))));
    Alcotest.test_case "member returns the first duplicate" `Quick (fun () ->
        let v = ok_exn (Json.of_string {|{"k":1,"k":2}|}) in
        check_int "first binding wins" 1
          (Option.get (Option.bind (Json.member "k" v) Json.int_opt)));
    Alcotest.test_case "trailing garbage is rejected" `Quick (fun () ->
        check_bool "error" true (Result.is_error (Json.of_string "{} x")));
    Alcotest.test_case "nesting is capped at max_depth" `Quick (fun () ->
        let nested depth =
          String.make depth '[' ^ String.make depth ']'
        in
        check_bool "max_depth arrays parse" true
          (Result.is_ok (Json.of_string (nested Json.max_depth)));
        check_bool "one more is rejected" true
          (Result.is_error (Json.of_string (nested (Json.max_depth + 1))));
        let objects depth =
          String.concat "" (List.init depth (fun _ -> {|{"k":|}))
          ^ "1" ^ String.make depth '}'
        in
        check_bool "max_depth objects parse" true
          (Result.is_ok (Json.of_string (objects Json.max_depth)));
        check_bool "objects count too" true
          (Result.is_error (Json.of_string (objects (Json.max_depth + 1)))));
    Alcotest.test_case "checked lookups default and reject" `Quick (fun () ->
        let o = Json.Obj [ ("n", Json.Str "not a number") ] in
        check_int "default on absent key" 7
          (ok_exn (Json.get_int ~default:7 "missing" o));
        check_bool "type mismatch is an error" true
          (Result.is_error (Json.get_int ~default:7 "n" o))) ]

(* ---- Protocol ----------------------------------------------------- *)

let protocol_tests =
  [ Alcotest.test_case "requests parse" `Quick (fun () ->
        let r =
          match
            Protocol.parse_request
              {|{"jsonrpc":"2.0","id":4,"method":"health","params":{}}|}
          with
          | Ok r -> r
          | Error (_, m) -> Alcotest.failf "parse failed: %s" m
        in
        check_string "method" "health" r.Protocol.method_;
        check_bool "id" true (r.Protocol.id = Json.Num 4.));
    Alcotest.test_case "garbage is a parse error, bad shape invalid" `Quick
      (fun () ->
         (match Protocol.parse_request "not json" with
          | Error (code, _) -> check_int "parse_error" Protocol.parse_error code
          | Ok _ -> Alcotest.fail "garbage accepted");
         (match Protocol.parse_request "[1,2]" with
          | Error (code, _) ->
            check_int "invalid_request" Protocol.invalid_request code
          | Ok _ -> Alcotest.fail "non-request accepted");
         match Protocol.parse_request {|{"method":"x","id":[1]}|} with
         | Error (code, _) ->
           check_int "structured id rejected" Protocol.invalid_request code
         | Ok _ -> Alcotest.fail "structured id accepted");
    Alcotest.test_case "server lines round-trip through the client parser"
      `Quick (fun () ->
          (match
             Protocol.parse_incoming
               (Protocol.response ~id:(Json.Num 9.) (Json.Bool true))
           with
           | Ok (Protocol.Reply { id; result = Ok v }) ->
             check_bool "id" true (id = Json.Num 9.);
             check_bool "result" true (v = Json.Bool true)
           | _ -> Alcotest.fail "response did not parse as a reply");
          (match
             Protocol.parse_incoming
               (Protocol.error_response ~id:(Json.Num 2.)
                  ~code:Protocol.overloaded "full")
           with
           | Ok (Protocol.Reply { result = Error e; _ }) ->
             check_int "code" Protocol.overloaded e.Protocol.code;
             check_string "message" "full" e.Protocol.message
           | _ -> Alcotest.fail "error response did not parse");
          match
            Protocol.parse_incoming
              (Protocol.notification ~method_:"progress"
                 ~params:(Json.Obj [ ("id", Json.Num 1.) ]))
          with
          | Ok (Protocol.Note { method_; _ }) ->
            check_string "note method" "progress" method_
          | _ -> Alcotest.fail "notification did not parse as a note") ]

(* ---- End-to-end daemon helpers ------------------------------------ *)

let with_daemon config f =
  let d = Daemon.create { config with Daemon.port = 0 } in
  let th = Thread.create (fun () -> Daemon.run d) () in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Thread.join th)
    (fun () -> f d)

let with_client d f =
  let c = Client.connect ~port:(Daemon.port d) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let design_of response =
  Option.get (Option.bind (Json.member "design" response) Json.str_opt)

let solve_params seed =
  Json.Obj [ ("budget", Json.Str "quick"); ("seed", Json.Num (float_of_int seed)) ]

(* The design the server must reproduce byte-for-byte: the same budget
   construction [dstool solve --budget quick --seed N] performs. *)
let direct_design seed =
  let budget = E.Budgets.with_seed E.Budgets.quick seed in
  match
    Design_solver.solve ~params:budget.E.Budgets.solver (E.Envs.peer_sites ())
      (E.Envs.peer_apps ()) Failure.Likelihood.default
  with
  | Some o -> Design_io.to_string o.Design_solver.best.Candidate.design
  | None -> Alcotest.fail "direct solve found no design"

(* A plain socket to the daemon, for lines no client would send. A read
   that gets no answer fails after 10 s instead of hanging the suite. *)
let with_raw_conn d f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
       Unix.connect fd
         (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port d));
       f (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

let health_line =
  Protocol.request ~id:(Json.Num 1.) ~method_:"health" ~params:(Json.Obj [])

let check_health ic =
  match Protocol.parse_incoming (input_line ic) with
  | Ok (Protocol.Reply { result = Ok h; _ }) ->
    check_bool "health answers" true
      (Json.member "status" h = Some (Json.Str "ok"))
  | _ -> Alcotest.fail "expected a health reply"

let base_config =
  { Daemon.default_config with
    Daemon.port = 0;
    concurrency = 2;
    queue_depth = 16;
    domains = Fixtures.test_domains }

(* ---- Determinism and resident state ------------------------------- *)

let determinism_tests =
  [ Alcotest.test_case "solve matches the CLI byte for byte, twice" `Quick
      (fun () ->
         let expected = direct_design 7 in
         with_daemon base_config (fun d ->
             with_client d (fun c ->
                 let first =
                   ok_exn (Client.call c ~method_:"solve" (solve_params 7))
                 in
                 check_string "cold request" expected (design_of first);
                 let second =
                   ok_exn (Client.call c ~method_:"solve" (solve_params 7))
                 in
                 check_string "warm request (memo hits)" expected
                   (design_of second);
                 (* The identical second request must have hit the
                    resident configuration cache. *)
                 let metrics =
                   ok_exn (Client.call c ~method_:"metrics" (Json.Obj []))
                 in
                 let hits =
                   Option.value ~default:0.
                     (Option.bind
                        (Json.member "config.cache_hits" metrics)
                        Json.num_opt)
                 in
                 check_bool "cache_hits > 0" true (hits > 0.))));
    Alcotest.test_case "concurrent clients get byte-identical designs"
      `Quick (fun () ->
          let expected = direct_design 11 in
          with_daemon base_config (fun d ->
              let results = Array.make 4 "" in
              let client i =
                with_client d (fun c ->
                    let r =
                      ok_exn (Client.call c ~method_:"solve" (solve_params 11))
                    in
                    results.(i) <- design_of r)
              in
              let threads =
                Array.init (Array.length results) (fun i ->
                    Thread.create client i)
              in
              Array.iter Thread.join threads;
              Array.iteri
                (fun i got ->
                   check_string (Printf.sprintf "client %d" i) expected got)
                results));
    Alcotest.test_case "progress notifications stream during a solve" `Quick
      (fun () ->
         with_daemon base_config (fun d ->
             with_client d (fun c ->
                 let notes = ref 0 in
                 let tagged = ref true in
                 let params =
                   Json.Obj
                     [ ("budget", Json.Str "quick");
                       ("seed", Json.Num 3.);
                       ("progress", Json.Bool true) ]
                 in
                 let on_note ~method_ params =
                   if method_ = "progress" then begin
                     incr notes;
                     if Json.member "id" params = None then tagged := false
                   end
                 in
                 let r =
                   ok_exn (Client.call ~on_note c ~method_:"solve" params)
                 in
                 check_bool "a design came back" true (design_of r <> "");
                 check_bool "progress events arrived first" true (!notes > 0);
                 check_bool "every event carries the request id" true !tagged)));
    Alcotest.test_case "deadline_s returns the anytime incumbent" `Quick
      (fun () ->
         with_daemon base_config (fun d ->
             with_client d (fun c ->
                 let params =
                   Json.Obj
                     [ ("budget", Json.Str "quick");
                       ("seed", Json.Num 5.);
                       ("deadline_s", Json.Num 0.) ]
                 in
                 let r = ok_exn (Client.call c ~method_:"solve" params) in
                 check_bool "raced_off reported" true
                   (Json.member "raced_off" r = Some (Json.Bool true));
                 check_bool "incumbent design returned" true
                   (design_of r <> ""))));
    Alcotest.test_case "cache_resize shrinks and rejects zero" `Quick
      (fun () ->
         with_daemon base_config (fun d ->
             with_client d (fun c ->
                 let r =
                   ok_exn
                     (Client.call c ~method_:"cache_resize"
                        (Json.Obj [ ("capacity", Json.Num 8.) ]))
                 in
                 check_int "capacity applied" 8
                   (Option.get
                      (Option.bind (Json.member "capacity" r) Json.int_opt));
                 match
                   Client.call c ~method_:"cache_resize"
                     (Json.Obj [ ("capacity", Json.Num 0.) ])
                 with
                 | Ok _ -> Alcotest.fail "zero capacity accepted"
                 | Error msg ->
                   check_bool "invalid params" true
                     (String.length msg > 0))));
    Alcotest.test_case "health answers and unknown methods are rejected"
      `Quick (fun () ->
          with_daemon base_config (fun d ->
              with_client d (fun c ->
                  let h = ok_exn (Client.call c ~method_:"health" (Json.Obj [])) in
                  check_bool "status ok" true
                    (Json.member "status" h = Some (Json.Str "ok"));
                  check_int "port echoed" (Daemon.port d)
                    (Option.get
                       (Option.bind (Json.member "port" h) Json.int_opt));
                  match Client.call c ~method_:"no_such_method" (Json.Obj []) with
                  | Ok _ -> Alcotest.fail "unknown method accepted"
                  | Error msg ->
                    check_bool "method_not_found code in message" true
                      (let needle = "-32601" in
                       let n = String.length needle in
                       let rec scan i =
                         i + n <= String.length msg
                         && (String.sub msg i n = needle || scan (i + 1))
                       in
                       scan 0))));
    Alcotest.test_case "unparseable lines get a null-id error reply" `Quick
      (fun () ->
         with_daemon base_config (fun d ->
             with_raw_conn d (fun ic oc ->
                 output_string oc "this is not json\n";
                 flush oc;
                 match Protocol.parse_incoming (input_line ic) with
                 | Ok (Protocol.Reply { id; result = Error e }) ->
                   check_bool "null id" true (id = Json.Null);
                   check_int "parse_error" Protocol.parse_error
                     e.Protocol.code
                 | _ -> Alcotest.fail "expected a parse-error reply")));
    Alcotest.test_case "a too-deep line is a parse error and serving goes on"
      `Quick (fun () ->
         with_daemon base_config (fun d ->
             with_raw_conn d (fun ic oc ->
                 (* Well-formed but 100,000 arrays deep: an uncapped
                    parser accepts it (and then answers -32600, not a
                    request) or, with a smaller stack, overflows. *)
                 output_string oc
                   (String.make 100_000 '[' ^ String.make 100_000 ']' ^ "\n");
                 flush oc;
                 (match Protocol.parse_incoming (input_line ic) with
                  | Ok (Protocol.Reply { result = Error e; _ }) ->
                    check_int "parse_error" Protocol.parse_error
                      e.Protocol.code
                  | _ -> Alcotest.fail "expected a parse-error reply");
                 output_string oc (health_line ^ "\n");
                 flush oc;
                 check_health ic)));
    Alcotest.test_case "an over-long line is refused, then the link closes"
      `Quick (fun () ->
         with_daemon base_config (fun d ->
             let cap = Daemon.max_line_bytes in
             let padded n =
               health_line ^ String.make (n - String.length health_line) ' '
             in
             (* A request of exactly the cap is read whole. *)
             with_raw_conn d (fun ic oc ->
                 output_string oc (padded cap ^ "\n");
                 flush oc;
                 check_health ic);
             with_raw_conn d (fun ic oc ->
                 output_string oc (padded (cap + 1) ^ "\n");
                 flush oc;
                 (match Protocol.parse_incoming (input_line ic) with
                  | Ok (Protocol.Reply { id; result = Error e }) ->
                    check_bool "null id" true (id = Json.Null);
                    check_int "invalid_request" Protocol.invalid_request
                      e.Protocol.code;
                    check_bool "the message names the cap" true
                      (Fixtures.contains e.Protocol.message (string_of_int cap))
                  | _ -> Alcotest.fail "expected an invalid-request reply");
                 check_bool "then the connection closes" true
                   (match input_line ic with
                    | _ -> false
                    | exception End_of_file -> true));
             with_raw_conn d (fun ic oc ->
                 output_string oc (health_line ^ "\n");
                 flush oc;
                 check_health ic))) ]

(* ---- Admission control and lifecycle ------------------------------ *)

let sleep_params seconds =
  Json.Obj [ ("seconds", Json.Num seconds) ]

let admission_tests =
  [ Alcotest.test_case "a full queue rejects with overloaded" `Quick
      (fun () ->
         let config =
           { base_config with Daemon.concurrency = 1; queue_depth = 1 }
         in
         with_daemon config (fun d ->
             (* One request occupies the single worker, one fills the
                queue; the third must bounce immediately. *)
             let occupy () =
               with_client d (fun c ->
                   ignore (Client.call c ~method_:"sleep" (sleep_params 0.6)))
             in
             let t1 = Thread.create occupy () in
             Thread.delay 0.15;
             let t2 = Thread.create occupy () in
             Thread.delay 0.15;
             with_client d (fun c ->
                 match Client.call c ~method_:"sleep" (sleep_params 0.1) with
                 | Ok _ -> Alcotest.fail "overloaded server accepted work"
                 | Error msg ->
                   check_bool "overloaded error" true
                     (let needle = "admission queue full" in
                      let n = String.length needle in
                      let rec scan i =
                        i + n <= String.length msg
                        && (String.sub msg i n = needle || scan (i + 1))
                      in
                      scan 0));
             Thread.join t1;
             Thread.join t2));
    Alcotest.test_case "shutdown drains in-flight work before exiting"
      `Quick (fun () ->
          let config =
            { base_config with Daemon.concurrency = 1; queue_depth = 4 }
          in
          let d = Daemon.create config in
          let server = Thread.create (fun () -> Daemon.run d) () in
          let slow_result = ref (Error "never ran") in
          let slow =
            Thread.create
              (fun () ->
                with_client d (fun c ->
                    slow_result :=
                      Client.call c ~method_:"sleep" (sleep_params 0.4)))
              ()
          in
          Thread.delay 0.15;
          with_client d (fun c ->
              let r = ok_exn (Client.call c ~method_:"shutdown" (Json.Obj [])) in
              check_bool "acknowledges the drain" true
                (Json.member "draining" r = Some (Json.Bool true)));
          Thread.join server;
          Thread.join slow;
          (match !slow_result with
           | Ok r ->
             check_bool "in-flight sleep completed" true
               (Json.member "slept_s" r <> None || r <> Json.Null)
           | Error msg -> Alcotest.failf "in-flight request lost: %s" msg)) ]

(* ---- The two front ends against each other ------------------------ *)

let contains = Fixtures.contains

(* The dstool binary is a declared test dependency, built next to the
   test executable's directory regardless of the invocation cwd. *)
let run_dstool args =
  let dstool =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/dstool.exe")
  in
  let out = Filename.temp_file "dstool" ".out" in
  let err = Filename.temp_file "dstool" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote dstool) args
         (Filename.quote out) (Filename.quote err))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let result = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  result

(* The same invalid input as CLI arguments and as a request, with the
   message both front ends must give. The resolve row drifts an app of
   the one-pod, two-app fleet "v" that the server test creates first. *)
let invalid_inputs =
  [ ("risk --years 0", "risk", {|{"years":0}|}, "years must be positive");
    ("risk --years=-5", "risk", {|{"years":-5}|}, "years must be positive");
    ("solve --apps=-3", "solve", {|{"apps":-3}|}, "apps must be non-negative");
    ( "solve --object-rate=-1", "solve", {|{"object_rate":-1}|},
      "object_rate must be finite and non-negative" );
    ("fleet --pods 0", "fleet", {|{"pods":0}|}, "pods must be positive");
    ("fleet --shards 0", "fleet", {|{"shards":0}|}, "shards must be positive");
    ( "fleet --apps-per-pod 0", "fleet", {|{"apps_per_pod":0}|},
      "apps_per_pod must be positive" );
    ("risk --sla 2", "risk", {|{"sla":2}|}, "sla must be in (0, 1)");
    ( "fleet --pods 1 --apps-per-pod 2 --budget quick --drift 99", "resolve",
      {|{"name":"v","drift":[{"app_id":99}]}|},
      "drift: no application with id 99 (fleet ids are 1..2)" ) ]

(* Optional members of the wrong type, which the CLI's flag parser
   cannot express: each must be rejected, never dropped. *)
let mistyped_inputs =
  [ ("risk", {|{"sla":"0.999"}|});
    ("solve", {|{"apps":"six"}|});
    ("solve", {|{"restarts":2,"max_evaluations":"10"}|});
    ("solve", {|{"deadline_s":"1"}|});
    ("fleet", {|{"shards":"2"}|});
    ("risk", {|{"design":5}|});
    ("resolve", {|{"name":"v","dirty":"oops"}|});
    ("resolve", {|{"name":"v","dirty":[1,"two"]}|}) ]

let frontend_tests =
  [ Alcotest.test_case "dstool rejects invalid input with an error exit"
      `Slow (fun () ->
          List.iter
            (fun (args, _, _, message) ->
               let code, _, err = run_dstool args in
               check_bool (args ^ ": nonzero exit, not a crash") true
                 (code <> 0 && code <> 125);
               check_bool (args ^ ": prints the message") true
                 (contains err ("dstool: " ^ message ^ "\n")))
            invalid_inputs);
    Alcotest.test_case "invalid params answer -32602 with the CLI's message"
      `Slow (fun () ->
          with_daemon base_config (fun d ->
              with_client d (fun c ->
                  let call method_ params =
                    Client.call c ~method_ (ok_exn (Json.of_string params))
                  in
                  ignore
                    (ok_exn
                       (call "fleet"
                          {|{"name":"v","pods":1,"apps_per_pod":2,
                             "budget":"quick"}|}));
                  let rejects method_ params =
                    match call method_ params with
                    | Ok _ -> Alcotest.failf "%s %s was accepted" method_ params
                    | Error msg -> msg
                  in
                  List.iter
                    (fun (_, method_, params, message) ->
                       check_string params
                         (Printf.sprintf "server error %d: %s"
                            Protocol.invalid_params message)
                         (rejects method_ params))
                    invalid_inputs;
                  List.iter
                    (fun (method_, params) ->
                       check_bool params true
                         (contains (rejects method_ params)
                            (Printf.sprintf "server error %d: "
                               Protocol.invalid_params)))
                    mistyped_inputs)));
    Alcotest.test_case "dstool and the server give the same design and verdict"
      `Slow (fun () ->
          let file = Filename.temp_file "dstool" ".design" in
          let code, _, _ =
            run_dstool
              ("solve --budget quick --seed 7 -o " ^ Filename.quote file)
          in
          check_int "solve exits 0" 0 code;
          let cli_design = In_channel.with_open_bin file In_channel.input_all in
          let code, risk_out, _ =
            run_dstool
              ("risk --seed 3 --years 2000 --sla 0.999 --design "
               ^ Filename.quote file)
          in
          Sys.remove file;
          check_int "risk exits 0" 0 code;
          with_daemon base_config (fun d ->
              with_client d (fun c ->
                  let served =
                    ok_exn (Client.call c ~method_:"solve" (solve_params 7))
                  in
                  check_string "design bytes" cli_design (design_of served);
                  let risk =
                    ok_exn
                      (Client.call c ~method_:"risk"
                         (Json.Obj
                            [ ("design", Json.Str cli_design);
                              ("seed", Json.Num 3.);
                              ("years", Json.Num 2000.);
                              ("sla", Json.Num 0.999) ]))
                  in
                  let cert = Option.get (Json.member "certification" risk) in
                  let field k conv =
                    Option.get (Option.bind (Json.member k cert) conv)
                  in
                  check_bool "the CLI prints the served verdict" true
                    (contains risk_out
                       ("hours/year): " ^ field "verdict" Json.str_opt ^ "\n"));
                  check_bool "the CLI prints the served ESS" true
                    (contains risk_out
                       (Printf.sprintf "effective sample size %.1f\n"
                          (field "ess" Json.num_opt)))))) ]

let suites =
  [ ("server.json", json_tests);
    ("server.protocol", protocol_tests);
    ("server.e2e", determinism_tests);
    ("server.admission", admission_tests);
    ("server.frontends", frontend_tests) ]
