(* Tests for the workload engine (lib/workload): seeded mixes are
   deterministic and schema-valid, schedules slice time correctly, the
   scheduled oracle follows its fault timeline, and a short in-process
   soak produces a passing verdict and well-formed JSON. *)

module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Validate = Axml_core.Validate
module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics
module Oracle = Axml_services.Oracle
module Resilience = Axml_services.Resilience
module Mix = Axml_workload.Mix
module Schedule = Axml_workload.Schedule
module Soak = Axml_workload.Soak

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let schema =
  match
    Schema_parser.parse_result
      {|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title = #data
element date = #data
element temp = #data
element exhibit = title.(Get_Date | date)
function Get_Temp : #data -> temp
function Get_Date : title -> date
function TimeOut : #data -> exhibit*
|}
  with
  | Ok s -> s
  | Error e -> failwith e

let take n stream = List.init n (fun _ -> Mix.next stream)

let items_equal (a : Mix.item) (b : Mix.item) =
  a.Mix.seq = b.Mix.seq
  && a.Mix.doc_name = b.Mix.doc_name
  && a.Mix.profile_name = b.Mix.profile_name
  && D.equal a.Mix.doc b.Mix.doc

(* ---------------- mixes ---------------- *)

let test_stream_deterministic () =
  let a = take 50 (Mix.stream ~seed:7 ~schema Mix.steady) in
  let b = take 50 (Mix.stream ~seed:7 ~schema Mix.steady) in
  check "same seed, item-for-item identical" true
    (List.for_all2 items_equal a b)

let prop_stream_deterministic =
  QCheck.Test.make ~count:50
    ~name:"any seed reproduces its stream" QCheck.small_int
    (fun seed ->
      let a = take 10 (Mix.stream ~seed ~schema Mix.steady) in
      let b = take 10 (Mix.stream ~seed ~schema Mix.steady) in
      List.for_all2 items_equal a b)

let test_stream_seed_sensitivity () =
  let a = take 20 (Mix.stream ~seed:1 ~schema Mix.steady) in
  let b = take 20 (Mix.stream ~seed:2 ~schema Mix.steady) in
  check "different seeds diverge" false (List.for_all2 items_equal a b)

let test_stream_documents_validate () =
  let ctx = Validate.ctx schema in
  List.iter
    (fun mix ->
      List.iter
        (fun (it : Mix.item) ->
          match Validate.document_violations ctx it.Mix.doc with
          | [] -> ()
          | v :: _ ->
            Alcotest.failf "generated %s is not an instance: %a"
              it.Mix.doc_name Validate.pp_violation v)
        (take 50 (Mix.stream ~seed:11 ~schema mix)))
    [ Mix.steady; Mix.flash_crowd ]

let test_stream_names_and_profiles () =
  let s = Mix.stream ~seed:3 ~schema Mix.steady in
  let items = take 200 s in
  check_str "names are stable per position" "w-000000"
    (List.hd items).Mix.doc_name;
  check_int "drawn counts" 200 (Mix.drawn s);
  let profiles = List.map (fun p -> p.Mix.name) (Mix.profiles Mix.steady) in
  check "every item names a profile of the mix" true
    (List.for_all
       (fun (it : Mix.item) -> List.mem it.Mix.profile_name profiles)
       items);
  (* with weights 3:1 over 200 draws, both profiles must appear *)
  check "weighted picking reaches every profile" true
    (List.for_all
       (fun p ->
         List.exists (fun (it : Mix.item) -> it.Mix.profile_name = p) items)
       profiles)

let test_stream_threaded_determinism () =
  let reference = take 60 (Mix.stream ~seed:5 ~schema Mix.steady) in
  let s = Mix.stream ~seed:5 ~schema Mix.steady in
  let results = Array.make 60 None in
  let worker () =
    for _ = 1 to 15 do
      let it = Mix.next s in
      results.(it.Mix.seq) <- Some it
    done
  in
  let threads = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  List.iteri
    (fun i r ->
      match results.(i) with
      | None -> Alcotest.failf "sequence number %d never handed out" i
      | Some it ->
        if not (items_equal r it) then
          Alcotest.failf "item %d differs across threads" i)
    reference

let test_mix_validation () =
  check "empty mix rejected" true
    (match Mix.v [] with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check "weight 0 rejected" true
    (match Mix.profile ~weight:0 "p" with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---------------- schedules ---------------- *)

let test_phase_at () =
  let p name d = Schedule.phase ~duration_s:d ~mix:Mix.steady name in
  let t = Schedule.v [ p "a" 1.; p "b" 2. ] in
  let name_at e = (snd (Schedule.phase_at t e)).Schedule.name in
  check_str "first phase" "a" (name_at 0.);
  check_str "still first" "a" (name_at 0.99);
  check_str "second phase" "b" (name_at 1.5);
  check_str "past the end clamps to the last" "b" (name_at 100.);
  check_int "index moves" 1 (fst (Schedule.phase_at t 1.5));
  check "total" true (abs_float (Schedule.total_s t -. 3.) < 1e-9)

let test_fault_timeline () =
  let p name ?fault d =
    Schedule.phase ~duration_s:d ~mix:Mix.steady ?fault name
  in
  let t =
    Schedule.v [ p "a" 1.; p "b" ~fault:Schedule.Dead 2.; p "c" 1. ]
  in
  (match Schedule.fault_timeline t with
   | [ (0., Schedule.Healthy); (1., Schedule.Dead); (3., Schedule.Healthy) ] ->
     ()
   | _ -> Alcotest.fail "timeline offsets are phase starts")

let test_default_schedule () =
  let t = Schedule.default ~workers:2 ~total_s:10. () in
  check "durations sum to total" true
    (abs_float (Schedule.total_s t -. 10.) < 1e-6);
  let names = List.map (fun p -> p.Schedule.name) t.Schedule.phases in
  List.iter
    (fun n -> check (n ^ " present") true (List.mem n names))
    [ "warmup"; "steady"; "churn"; "flash"; "brownout-slow"; "brownout-dead";
      "recovery" ];
  check_int "flash crowd concurrency" 8 (Schedule.max_workers t);
  let churnless = Schedule.default ~workers:2 ~churn:false ~total_s:10. () in
  check "no churn phase when disabled" false
    (List.exists
       (fun p -> p.Schedule.exchange = `Churned)
       churnless.Schedule.phases);
  check "durations still sum to total" true
    (abs_float (Schedule.total_s churnless -. 10.) < 1e-6);
  let dead =
    List.find (fun p -> p.Schedule.name = "brownout-dead") t.Schedule.phases
  in
  check "brownout-dead kills services" true (dead.Schedule.fault = Schedule.Dead);
  check "brownout-dead is expected degraded" true dead.Schedule.expect_degraded

let test_schedule_validation () =
  check "zero duration rejected" true
    (match Schedule.phase ~duration_s:0. ~mix:Mix.steady "p" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check "empty schedule rejected" true
    (match Schedule.v [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---------------- the scheduled oracle ---------------- *)

let test_oracle_scheduled () =
  let clock = Resilience.manual_clock () in
  let a = Oracle.constant [ D.data "a" ]
  and b = Oracle.constant [ D.data "b" ]
  and c = Oracle.constant [ D.data "c" ] in
  let beh = Oracle.scheduled ~clock [ (0., a); (10., b); (20., c) ] in
  let tag () =
    match beh [] with [ d ] -> D.equal d | _ -> fun _ -> false
  in
  check "at 0 the first entry is active" true (tag () (D.data "a"));
  clock.Resilience.sleep 10.;
  check "after the switch point" true (tag () (D.data "b"));
  clock.Resilience.sleep 5.;
  check "between switch points" true (tag () (D.data "b"));
  clock.Resilience.sleep 5.;
  check "last entry sticks" true (tag () (D.data "c"));
  clock.Resilience.sleep 100.;
  check "forever" true (tag () (D.data "c"))

let test_oracle_scheduled_validation () =
  check "empty timeline rejected" true
    (try
       let _ : Axml_services.Service.behaviour = Oracle.scheduled [] in
       false
     with Invalid_argument _ -> true);
  check "timeline must start at 0" true
    (try
       let _ : Axml_services.Service.behaviour =
         Oracle.scheduled [ (5., Oracle.echo) ]
       in
       false
     with Invalid_argument _ -> true)

(* ---------------- a short in-process soak ---------------- *)

(* No sockets here (the CLI and CI cover the served path): the send
   callback simulates a peer whose flash-crowd requests cost 10x, so the
   structural verdict must pass and the report must be well-formed. *)
let test_soak_inprocess () =
  let registry = Metrics.create () in
  let resilience = Resilience.create () in
  let p name ?(workers = 2) ?(degraded = false) ~mix d =
    Schedule.phase ~duration_s:d ~workers ~think_s:0.0005 ~mix
      ~expect_degraded:degraded name
  in
  let schedule =
    Schedule.v ~seed:42
      [ p "steady" ~mix:Mix.steady 0.4;
        p "flash" ~workers:4 ~degraded:true ~mix:Mix.flash_crowd 0.3 ]
  in
  let send ~worker:_ ~(phase : Schedule.phase) (_ : Mix.item) =
    Unix.sleepf
      (if phase.Schedule.name = "flash" then 0.003 else 0.0003);
    Soak.Accepted
  in
  let config = Soak.config ~window_s:0.2 schedule in
  let windows_seen = ref 0 in
  let report =
    Soak.run ~registry
      ~on_window:(fun _ -> incr windows_seen)
      ~config ~resilience ~schema ~send ()
  in
  check "windows recorded" true (List.length report.Soak.windows >= 3);
  check_int "on_window fired per window" (List.length report.Soak.windows)
    !windows_seen;
  List.iter
    (fun name ->
      match
        List.find_opt (fun s -> s.Soak.s_name = name) report.Soak.phases
      with
      | None -> Alcotest.failf "phase %s missing from the report" name
      | Some s ->
        check (name ^ " recorded requests") true (s.Soak.s_requests > 0);
        check (name ^ " accepted everything") true
          (s.Soak.s_error_rate = 0.))
    [ "steady"; "flash" ];
  check "verdict passes" true report.Soak.verdict.Soak.pass;
  let flash_check =
    List.find
      (fun c -> c.Soak.check = "flash-p99-moved")
      report.Soak.verdict.Soak.checks
  in
  check "flash moved the p99" true flash_check.Soak.ok;
  check "10x slowdown is visible in the detail" true
    (contains flash_check.Soak.detail "factor");
  check "heap high water recorded" true
    (report.Soak.heap_high_water_words > 0);
  let v =
    Jsonv.parse_exn "soak report" (Json.to_string_pretty (Soak.report_to_json report))
  in
  List.iter
    (fun path ->
      check (String.concat "." path ^ " in JSON") true (Jsonv.at path v <> None))
    [ [ "schema_version" ]; [ "windows"; "0"; "p999" ]; [ "phases" ];
      [ "verdict"; "pass" ]; [ "resilience"; "trips" ];
      [ "heap_high_water_words" ] ];
  (* the soak metric families live in the passed registry *)
  let prom = Metrics.to_prometheus registry in
  check "latency family registered" true
    (contains prom "axml_soak_latency_seconds");
  check "request counters labeled by phase" true
    (contains prom "axml_soak_requests_total")

(* The structural verdict is deterministic: grading the same aggregates
   twice yields the same checks (exercised indirectly by running the
   JSON through the checker twice in CI; here we assert the skip logic). *)
let test_soak_verdict_skips () =
  let registry = Metrics.create () in
  let resilience = Resilience.create () in
  let schedule =
    Schedule.v
      [ Schedule.phase ~duration_s:0.2 ~workers:1 ~mix:Mix.steady "warmup" ]
  in
  let send ~worker:_ ~phase:_ (_ : Mix.item) = Soak.Accepted in
  let report =
    Soak.run ~registry
      ~config:(Soak.config ~window_s:0.1 schedule)
      ~resilience ~schema ~send ()
  in
  (* no steady/flash/fault phases: those checks must self-skip, and the
     verdict must still pass *)
  check "verdict passes without optional phases" true
    report.Soak.verdict.Soak.pass;
  List.iter
    (fun c ->
      if c.Soak.check <> "error-budget" then
        check (c.Soak.check ^ " skipped") true
          (contains c.Soak.detail "skipped"))
    report.Soak.verdict.Soak.checks

(* Non-finite rates and quantiles print as null, never as the invalid
   bare words nan / inf. *)
let test_soak_json_non_finite () =
  let window =
    { Soak.w_index = 0; w_start_s = 0.; w_end_s = 0.1; w_phase = "steady";
      w_requests = 0; w_p50 = Float.nan; w_p99 = Float.nan; w_p999 = Float.nan;
      w_rate = infinity; w_heap_words = 0; w_trips = 0; w_retries = 0;
      w_short_circuited = 0; w_breakers = [] }
  in
  let report =
    { Soak.seed = 1; total_s = 0.1; windows = [ window ]; phases = [];
      resilience = Resilience.zero_stats; heap_high_water_words = 0;
      verdict = { Soak.pass = true; checks = [] } }
  in
  let v =
    Jsonv.parse_exn "soak report" (Json.to_string (Soak.report_to_json report))
  in
  Jsonv.check_at "infinite rate is null" v [ "windows"; "0"; "rate" ] Json.Null;
  Jsonv.check_at "empty-window p50 is null" v [ "windows"; "0"; "p50" ] Json.Null

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "workload"
    [ ( "mix",
        [ Alcotest.test_case "stream determinism" `Quick
            test_stream_deterministic;
          QCheck_alcotest.to_alcotest prop_stream_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_stream_seed_sensitivity;
          Alcotest.test_case "documents validate" `Quick
            test_stream_documents_validate;
          Alcotest.test_case "names and profiles" `Quick
            test_stream_names_and_profiles;
          Alcotest.test_case "threaded determinism" `Quick
            test_stream_threaded_determinism;
          Alcotest.test_case "constructor validation" `Quick
            test_mix_validation ] );
      ( "schedule",
        [ Alcotest.test_case "phase_at" `Quick test_phase_at;
          Alcotest.test_case "fault timeline" `Quick test_fault_timeline;
          Alcotest.test_case "default schedule" `Quick test_default_schedule;
          Alcotest.test_case "validation" `Quick test_schedule_validation ] );
      ( "oracle",
        [ Alcotest.test_case "scheduled timeline" `Quick test_oracle_scheduled;
          Alcotest.test_case "scheduled validation" `Quick
            test_oracle_scheduled_validation ] );
      ( "soak",
        [ Alcotest.test_case "in-process soak" `Quick test_soak_inprocess;
          Alcotest.test_case "verdict skip logic" `Quick
            test_soak_verdict_skips;
          Alcotest.test_case "report json non-finite" `Quick
            test_soak_json_non_finite ] ) ]
