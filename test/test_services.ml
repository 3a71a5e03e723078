(* Tests for the simulated Web-service substrate (lib/services). *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module D = Axml_core.Document
module Validate = Axml_core.Validate
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Resilience = Axml_services.Resilience
module Execute = Axml_core.Execute

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let city = R.sym (Schema.A_label "city")
let temp = R.sym (Schema.A_label "temp")

let get_temp_service ?(cost = 0.) ?(acl = []) behaviour =
  Service.make ~cost ~acl ~input:city ~output:temp "Get_Temp" behaviour

let temp_reply = [ D.elem "temp" [ D.data "15" ] ]

let base_schema =
  match
    Axml_schema.Schema_parser.parse_result
      {|
element city = #data
element temp = #data
function Get_Temp : city -> temp
|}
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema: %s" e

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_invoke_and_accounting () =
  let reg = Registry.create () in
  Registry.register reg (get_temp_service ~cost:2.5 (Oracle.constant temp_reply));
  let result = Registry.invoke reg "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] in
  check "result" true (D.equal_forest result temp_reply);
  ignore (Registry.invoke reg "Get_Temp" []);
  check_int "count" 2 (Registry.invocation_count reg);
  Alcotest.(check (float 0.001)) "cost" 5.0 (Registry.total_cost reg);
  Registry.reset_accounting reg;
  check_int "reset" 0 (Registry.invocation_count reg)

let test_unknown_service () =
  let reg = Registry.create () in
  match Registry.invoke reg "Nope" [] with
  | exception Registry.Unknown_service "Nope" -> ()
  | _ -> Alcotest.fail "expected Unknown_service"

let test_acl () =
  let service = get_temp_service ~acl:[ "alice" ] (Oracle.constant temp_reply) in
  let mallory = Registry.create ~principal:"mallory" () in
  Registry.register mallory service;
  (match Registry.invoke mallory "Get_Temp" [] with
   | exception Registry.Access_denied { principal = "mallory"; _ } -> ()
   | _ -> Alcotest.fail "expected Access_denied");
  check_int "a refused call is not counted" 0 (Registry.invocation_count mallory);
  let alice = Registry.create ~principal:"alice" () in
  Registry.register alice service;
  check "alice may call" true
    (D.equal_forest (Registry.invoke alice "Get_Temp" []) temp_reply)

(* Two domains invoking through one registry lose no count and no fee:
   the accounting is the one locked section. *)
let test_accounting_across_domains () =
  let reg = Registry.create () in
  Registry.register reg (get_temp_service ~cost:0.25 (fun _ -> temp_reply));
  let calls = 100_000 in
  let invoke () =
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Registry.invoke reg "Get_Temp" []))
    done
  in
  List.iter Domain.join [ Domain.spawn invoke; Domain.spawn invoke ];
  check_int "count" (2 * calls) (Registry.invocation_count reg);
  (* 0.25 is exact in binary, and so is every partial sum here *)
  Alcotest.(check (float 0.)) "cost" (0.25 *. float_of_int (2 * calls))
    (Registry.total_cost reg)

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let test_scripted () =
  let b = Oracle.scripted [ [ D.data "1" ]; [ D.data "2" ] ] in
  Alcotest.(check string) "first" "1"
    (match b [] with [ D.Data v ] -> v | _ -> "?");
  Alcotest.(check string) "second" "2"
    (match b [] with [ D.Data v ] -> v | _ -> "?");
  Alcotest.(check string) "wraps around" "1"
    (match b [] with [ D.Data v ] -> v | _ -> "?")

let test_flaky_and_counting () =
  let inner, count = Oracle.counting (Oracle.constant temp_reply) in
  let b = Oracle.flaky ~period:3 inner in
  ignore (b []);
  ignore (b []);
  (match b [] with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "expected the third call to fail");
  check_int "two successful calls counted" 2 (count ())

let test_honest_random () =
  let ctx = Validate.ctx base_schema in
  let b = Oracle.honest_random ~seed:5 base_schema "Get_Temp" in
  for _ = 1 to 10 do
    let forest = b [] in
    if Validate.output_instance ctx "Get_Temp" forest <> [] then
      Alcotest.fail "random output is not an output instance"
  done

let test_scripted_long_run () =
  (* regression: the index wraps in place instead of growing without
     bound *)
  let b = Oracle.scripted [ [ D.data "a" ]; [ D.data "b" ]; [ D.data "c" ] ] in
  for i = 0 to 2999 do
    let expected = [| "a"; "b"; "c" |].(i mod 3) in
    match b [] with
    | [ D.Data v ] -> if v <> expected then Alcotest.failf "call %d: %s" i v
    | _ -> Alcotest.fail "unexpected reply shape"
  done

(* ------------------------------------------------------------------ *)
(* Resilience                                                          *)
(* ------------------------------------------------------------------ *)

let quick_policy ?timeout_s ?(max_retries = 2) ?(breaker_threshold = 5)
    ?(breaker_cooldown_s = 5.0) () =
  Resilience.policy ~max_retries ~backoff_s:0.01 ~jitter:0. ?timeout_s
    ~breaker_threshold ~breaker_cooldown_s ()

let test_retry_recovers () =
  let r = Resilience.create ~policy:(quick_policy ())
      ~clock:(Resilience.manual_clock ()) () in
  (* fails on the first call, succeeds on the retry *)
  let calls = ref 0 in
  let fail_once _params =
    incr calls;
    if !calls = 1 then failwith "transient" else temp_reply
  in
  let b = Resilience.wrap_behaviour r ~name:"Get_Temp" fail_once in
  let result = b [] in
  check "recovered" true (D.equal_forest result temp_reply);
  let s = Resilience.stats r "Get_Temp" in
  check_int "one guarded call" 1 s.Resilience.calls;
  check_int "two attempts" 2 s.Resilience.attempts;
  check_int "one retry" 1 s.Resilience.retries;
  check_int "one success" 1 s.Resilience.successes;
  check_int "no give-up" 0 s.Resilience.gave_up

let test_give_up_attempts () =
  let r = Resilience.create ~policy:(quick_policy ~max_retries:2 ())
      ~clock:(Resilience.manual_clock ()) () in
  let b = Resilience.wrap_behaviour r ~name:"Down" (Oracle.failing "down") in
  (match b [] with
   | exception Execute.Invocation_failed { fname = "Down"; attempts = 3; cause = Failure _ } -> ()
   | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected Invocation_failed");
  let s = Resilience.stats r "Down" in
  check_int "three attempts" 3 s.Resilience.attempts;
  check_int "two retries" 2 s.Resilience.retries;
  check_int "one give-up" 1 s.Resilience.gave_up

let test_timeout_budget () =
  let clock = Resilience.manual_clock () in
  let r = Resilience.create ~policy:(quick_policy ~timeout_s:0.5 ~max_retries:10 ())
      ~clock () in
  (* each attempt burns 0.3 virtual seconds and fails: the second
     attempt starts past the 0.5 s budget *)
  let slow_and_broken = Oracle.timing_out ~clock ~delay_s:0.3 (Oracle.failing "slow") in
  let b = Resilience.wrap_behaviour r ~name:"Slow" slow_and_broken in
  (match b [] with
   | exception Execute.Invocation_failed { cause = Resilience.Timed_out _; _ } -> ()
   | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected a timeout");
  let s = Resilience.stats r "Slow" in
  check_int "timed out once" 1 s.Resilience.timeouts;
  check "bounded attempts" true (s.Resilience.attempts <= 3)

let test_late_success_is_timeout () =
  let clock = Resilience.manual_clock () in
  let r = Resilience.create ~policy:(quick_policy ~timeout_s:0.1 ()) ~clock () in
  (* the call eventually answers — but only after the deadline *)
  let slow = Oracle.timing_out ~clock ~delay_s:0.2 (Oracle.constant temp_reply) in
  let b = Resilience.wrap_behaviour r ~name:"Late" slow in
  (match b [] with
   | exception Execute.Invocation_failed { cause = Resilience.Timed_out _; _ } -> ()
   | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected a timeout");
  check_int "timed out" 1 (Resilience.stats r "Late").Resilience.timeouts

let test_breaker_trip_and_recovery () =
  let clock = Resilience.manual_clock () in
  let r =
    Resilience.create
      ~policy:(quick_policy ~max_retries:0 ~breaker_threshold:3
                 ~breaker_cooldown_s:5. ())
      ~clock ()
  in
  let healthy = ref false in
  let service _params = if !healthy then temp_reply else failwith "down" in
  let b = Resilience.wrap_behaviour r ~name:"S" service in
  let expect_give_up () =
    match b [] with
    | exception Execute.Invocation_failed _ -> ()
    | _ -> Alcotest.fail "expected failure"
  in
  (* three consecutive failures trip the breaker *)
  expect_give_up (); expect_give_up (); expect_give_up ();
  Alcotest.(check string) "breaker open" "open"
    (match Resilience.breaker_state r "S" with
     | `Open -> "open" | `Closed -> "closed" | `Half_open -> "half-open");
  check_int "one trip" 1 (Resilience.stats r "S").Resilience.trips;
  (* while open, calls are rejected without touching the service *)
  let attempts_before = (Resilience.stats r "S").Resilience.attempts in
  expect_give_up ();
  check_int "short-circuited" 1 (Resilience.stats r "S").Resilience.short_circuited;
  check_int "service untouched" attempts_before (Resilience.stats r "S").Resilience.attempts;
  (* cooldown elapses; the half-open probe fails and re-opens *)
  clock.Resilience.sleep 6.;
  expect_give_up ();
  check_int "probe re-trips" 2 (Resilience.stats r "S").Resilience.trips;
  (* cooldown again; the service recovered: probe closes the circuit *)
  clock.Resilience.sleep 6.;
  healthy := true;
  check "probe succeeds" true (D.equal_forest (b []) temp_reply);
  Alcotest.(check string) "breaker closed again" "closed"
    (match Resilience.breaker_state r "S" with
     | `Open -> "open" | `Closed -> "closed" | `Half_open -> "half-open");
  check "subsequent calls flow" true (D.equal_forest (b []) temp_reply)

let test_wrap_invoker_passes_name () =
  let r = Resilience.create ~policy:(quick_policy ())
      ~clock:(Resilience.manual_clock ()) () in
  let invoker = Resilience.wrap_invoker r (fun name _ ->
      if name = "A" then temp_reply else failwith "no") in
  check "A answers" true (D.equal_forest (invoker "A" []) temp_reply);
  (match invoker "B" [] with
   | exception Execute.Invocation_failed { fname = "B"; _ } -> ()
   | _ -> Alcotest.fail "expected a give-up on B");
  check_int "A counted separately" 1 (Resilience.stats r "A").Resilience.calls;
  check_int "B counted separately" 1 (Resilience.stats r "B").Resilience.calls;
  let t = Resilience.total r in
  check_int "total calls" 2 t.Resilience.calls

(* A policy-wrapped honest service is observationally equivalent to the
   bare service. *)
let prop_wrapped_honest_equiv =
  QCheck.Test.make ~count:100 ~name:"wrapped honest service == bare service"
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, params) ->
      let params = List.map (fun i -> D.data (string_of_int i)) params in
      let bare = Oracle.honest_random ~seed base_schema "Get_Temp" in
      let wrapped =
        let r = Resilience.create ~policy:(quick_policy ())
            ~clock:(Resilience.manual_clock ()) () in
        Resilience.wrap_behaviour r ~name:"Get_Temp"
          (Oracle.honest_random ~seed base_schema "Get_Temp")
      in
      D.equal_forest (bare params) (wrapped params))

(* ------------------------------------------------------------------ *)
(* Allocation (deterministic on a non-flambda compiler: [Gc.minor_words] *)
(* deltas)                                                             *)
(* ------------------------------------------------------------------ *)

(* An invocation allocates nothing of its own: the lock is taken by
   hand, not through a closure, the service is found without an
   option, and the fee is added to a flat float record. *)
let test_invoke_allocates_nothing () =
  let reg = Registry.create () in
  Registry.register reg (get_temp_service ~cost:0.5 (fun _ -> temp_reply));
  ignore (Registry.invoke reg "Get_Temp" []);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Registry.invoke reg "Get_Temp" []))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "words allocated" 0. words;
  check_int "count" 1001 (Registry.invocation_count reg);
  Alcotest.(check (float 0.001)) "cost" 500.5 (Registry.total_cost reg)

let () =
  Alcotest.run "services"
    [ ("registry",
       [ Alcotest.test_case "invoke + accounting" `Quick test_invoke_and_accounting;
         Alcotest.test_case "unknown service" `Quick test_unknown_service;
         Alcotest.test_case "acl" `Quick test_acl;
         Alcotest.test_case "accounting across two domains" `Quick
           test_accounting_across_domains
       ]);
      ("oracles",
       [ Alcotest.test_case "scripted" `Quick test_scripted;
         Alcotest.test_case "scripted long run wraps" `Quick test_scripted_long_run;
         Alcotest.test_case "flaky + counting" `Quick test_flaky_and_counting;
         Alcotest.test_case "honest random" `Quick test_honest_random
       ]);
      ("resilience",
       [ Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
         Alcotest.test_case "give-up reports attempts" `Quick test_give_up_attempts;
         Alcotest.test_case "timeout budget" `Quick test_timeout_budget;
         Alcotest.test_case "late success is a timeout" `Quick
           test_late_success_is_timeout;
         Alcotest.test_case "breaker trip + half-open recovery" `Quick
           test_breaker_trip_and_recovery;
         Alcotest.test_case "wrapped invoker" `Quick test_wrap_invoker_passes_name;
         QCheck_alcotest.to_alcotest prop_wrapped_honest_equiv
       ]);
      ("allocation",
       [ Alcotest.test_case "an invocation allocates nothing" `Quick
           test_invoke_allocates_nothing ])
    ]
