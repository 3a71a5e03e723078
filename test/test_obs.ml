(* Tests for the observability layer (lib/obs): metrics registry
   semantics, exporter formats, the trace ring buffer, and the
   guarantee that attaching a sink never changes enforcement
   outcomes. *)

module Json = Axml_obs.Json
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Generate = Axml_core.Generate
module Rewriter = Axml_core.Rewriter
module Enforcement = Axml_peer.Enforcement
module Pipeline = Enforcement.Pipeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- counters and gauges ---------------- *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test_total" in
  check_int "starts at 0" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "1 + 4" 5 (Metrics.counter_value c);
  Metrics.inc ~by:0 c;
  check_int "by:0 is a no-op" 5 (Metrics.counter_value c);
  (* same name + labels = same underlying child *)
  let c' = Metrics.counter ~registry:r "test_total" in
  Metrics.inc c';
  check_int "idempotent registration" 6 (Metrics.counter_value c);
  check "negative increment rejected" true
    (match Metrics.inc ~by:(-1) c with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_labels_canonical () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "lbl_total" in
  let b = Metrics.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "lbl_total" in
  Metrics.inc a;
  Metrics.inc b;
  check_int "label order does not split children" 2 (Metrics.counter_value a)

let test_type_conflict () =
  let r = Metrics.create () in
  let _ = Metrics.counter ~registry:r "conflict_metric" in
  check "re-registering as a gauge raises" true
    (match Metrics.gauge ~registry:r "conflict_metric" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "g" in
  Metrics.set g 2.5;
  Metrics.add g (-1.0);
  Alcotest.(check (float 1e-9)) "set then add" 1.5 (Metrics.gauge_value g)

(* ---------------- histograms ---------------- *)

let test_histogram_le_semantics () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[ 1.0; 2.0; 5.0 ] "h_seconds" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 6.0 ];
  let s = Metrics.histogram_snapshot h in
  check_int "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 11.0 s.Metrics.sum;
  (* cumulative buckets, le semantics: a value equal to a bound lands
     in that bound's bucket *)
  (match s.Metrics.buckets with
   | [ (b1, c1); (b2, c2); (b3, c3) ] ->
     Alcotest.(check (float 0.)) "bound 1" 1.0 b1;
     check_int "le 1.0 (0.5 and 1.0)" 2 c1;
     Alcotest.(check (float 0.)) "bound 2" 2.0 b2;
     check_int "le 2.0 (+ 1.5 and 2.0)" 4 c2;
     Alcotest.(check (float 0.)) "bound 5" 5.0 b3;
     check_int "le 5.0 (6.0 overflows to +Inf)" 4 c3
   | bs -> Alcotest.failf "expected 3 buckets, got %d" (List.length bs))

let test_histogram_time_uses_clock () =
  let r = Metrics.create () in
  let now = ref 10.0 in
  Metrics.set_clock r (fun () -> !now);
  let h = Metrics.histogram ~registry:r ~buckets:[ 1.0 ] "timed_seconds" in
  let v = Metrics.time h (fun () -> now := !now +. 0.25; 42) in
  check_int "returns the result" 42 v;
  let s = Metrics.histogram_snapshot h in
  check_int "one observation" 1 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "observed the clock delta" 0.25 s.Metrics.sum

let test_histogram_window_diff () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[ 1.0; 2.0 ] "w_seconds" in
  List.iter (Metrics.observe h) [ 0.5; 1.5 ];
  let before = Metrics.histogram_snapshot h in
  List.iter (Metrics.observe h) [ 0.5; 0.5; 5.0 ];
  let after = Metrics.histogram_snapshot h in
  let w = Metrics.diff_histogram_snapshot ~before after in
  check_int "window count" 3 w.Metrics.count;
  Alcotest.(check (float 1e-9)) "window sum" 6.0 w.Metrics.sum;
  (match w.Metrics.buckets with
   | [ (_, c1); (_, c2) ] ->
     check_int "le 1.0 in window" 2 c1;
     check_int "le 2.0 in window" 2 c2
   | _ -> Alcotest.fail "bucket layout preserved");
  (* same-snapshot diff is the empty window *)
  let z = Metrics.diff_histogram_snapshot ~before:after after in
  check_int "empty window" 0 z.Metrics.count;
  (* layouts must match *)
  let other = Metrics.histogram ~registry:r ~buckets:[ 9.0 ] "other_seconds" in
  check "different layouts rejected" true
    (match
       Metrics.diff_histogram_snapshot
         ~before:(Metrics.histogram_snapshot other) after
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_snapshot_quantile () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram ~registry:r ~buckets:[ 0.1; 0.2; 0.4; 1.0 ] "q_seconds"
  in
  (* 100 observations spread evenly across the 0.1 and 0.2 buckets *)
  for _ = 1 to 50 do Metrics.observe h 0.05 done;
  for _ = 1 to 50 do Metrics.observe h 0.15 done;
  let s = Metrics.histogram_snapshot h in
  check "p50 at the first bucket bound" true
    (abs_float (Metrics.snapshot_quantile s 0.5 -. 0.1) < 1e-9);
  let p75 = Metrics.snapshot_quantile s 0.75 in
  check "p75 interpolates inside the second bucket" true
    (p75 > 0.1 && p75 <= 0.2);
  check "p100 is the last occupied bound" true
    (abs_float (Metrics.snapshot_quantile s 1.0 -. 0.2) < 1e-9);
  (* ranks past the last finite bound clamp to it *)
  Metrics.observe h 99.0;
  let s = Metrics.histogram_snapshot h in
  check "overflow rank reports the last finite bound" true
    (abs_float (Metrics.snapshot_quantile s 1.0 -. 1.0) < 1e-9);
  check "empty snapshot is nan" true
    (Float.is_nan
       (Metrics.snapshot_quantile
          (Metrics.histogram_snapshot
             (Metrics.histogram ~registry:r ~buckets:[ 1.0 ] "q2_seconds"))
          0.5));
  check "quantile out of range rejected" true
    (match Metrics.snapshot_quantile s 1.5 with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* A histogram sums integer counts of its unit: nanoseconds for a
   [_seconds] family, whole units for any other; a value no integer
   count holds is summed as a float. *)
let test_histogram_sum_units () =
  let r = Metrics.create () in
  let sum h = (Metrics.histogram_snapshot h).Metrics.sum in
  let secs = Metrics.histogram ~registry:r "unit_seconds" in
  Metrics.observe secs 1.2345678904;
  Metrics.observe secs 0.0000000006;
  Alcotest.(check (float 1e-12)) "seconds round to the nanosecond" 1.234567891 (sum secs);
  let bytes = Metrics.histogram ~registry:r ~buckets:[ 1024. ] "unit_bytes" in
  List.iter (Metrics.observe bytes) [ 100.; 1.6; 4096. ];
  Alcotest.(check (float 0.)) "bytes count whole units" 4198. (sum bytes);
  Metrics.observe bytes 1e30;
  Alcotest.(check (float 1e16)) "a value past an int's range is still summed" 1e30 (sum bytes);
  check "it reaches the text export" true
    (contains (Metrics.to_prometheus r) "unit_seconds_sum 1.23456789")

(* An observation of a value computed at the call boxes nothing: the sum
   is an integer, and [observe] is inlined, so the float stays
   unboxed. *)
let test_observe_allocates_nothing () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "alloc_seconds" in
  let b = Metrics.histogram ~registry:r ~buckets:[ 256.; 4096. ] "alloc_bytes" in
  let xs = Array.init 64 (fun i -> float_of_int i *. 1e-6) in
  Metrics.observe h (xs.(1) *. 2.);
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Metrics.observe h (xs.(i land 63) *. 2.);
    Metrics.observe b (float_of_int (i land 8191))
  done;
  let words = Gc.minor_words () -. before in
  if words <> 0. then Alcotest.failf "20,000 observations allocated %.0f words" words;
  check_int "every observation counted" 10_001 (Metrics.histogram_snapshot h).Metrics.count

(* ---------------- exporters ---------------- *)

let populated_registry () =
  let r = Metrics.create () in
  let c =
    Metrics.counter ~registry:r ~help:"help with \\ and\nnewline"
      ~labels:[ ("svc", "we\"ird\\na\nme") ]
      "exp_total"
  in
  Metrics.inc ~by:3 c;
  let h = Metrics.histogram ~registry:r ~buckets:[ 0.1; 1.0 ] "exp_seconds" in
  Metrics.observe h 0.05;
  Metrics.observe h 5.0;
  let g = Metrics.gauge ~registry:r "exp_state" in
  Metrics.set g 2.0;
  r

let test_prometheus_format () =
  let out = Metrics.to_prometheus (populated_registry ()) in
  check "TYPE line" true (contains out "# TYPE exp_total counter");
  check "histogram TYPE" true (contains out "# TYPE exp_seconds histogram");
  check "label value escaped" true
    (contains out "svc=\"we\\\"ird\\\\na\\nme\"");
  check "help escaped" true (contains out "help with \\\\ and\\nnewline");
  check "cumulative +Inf bucket" true
    (contains out "exp_seconds_bucket{le=\"+Inf\"} 2");
  check "sum line" true (contains out "exp_seconds_sum");
  check "count line" true (contains out "exp_seconds_count 2");
  check "gauge sample" true (contains out "exp_state 2")

(* The family of [name] in a parsed [Metrics.to_json] dump. *)
let family json name =
  match
    List.find_opt
      (fun f -> Jsonv.at [ "name" ] f = Some (Json.String name))
      (Jsonv.elements [ "metrics" ] json)
  with
  | Some f -> f
  | None -> Alcotest.failf "family %s missing" name

let test_json_export_valid () =
  let json = Metrics.to_json (populated_registry ()) in
  let v = Jsonv.parse_exn "metrics JSON" (Json.to_string_pretty json) in
  check "reads back as printed" true (Jsonv.equal json v);
  Jsonv.check_at "counter value" (family v "exp_total") [ "values"; "0"; "value" ]
    (Json.Int 3);
  Jsonv.check_at "counter label survives escaping" (family v "exp_total")
    [ "values"; "0"; "labels"; "svc" ] (Json.String "we\"ird\\na\nme");
  Jsonv.check_at "+Inf spelled as string" (family v "exp_seconds")
    [ "values"; "0"; "buckets"; "2"; "le" ] (Json.String "+Inf")

(* NaN and infinity have no JSON spelling: they must print as null,
   not as the invalid bare words nan / inf. *)
let test_json_non_finite () =
  let r = Metrics.create () in
  Metrics.set (Metrics.gauge ~registry:r "nf_gauge") Float.nan;
  Metrics.observe (Metrics.histogram ~registry:r ~buckets:[ 1.0 ] "nf_seconds") infinity;
  let v = Jsonv.parse_exn "non-finite metrics" (Json.to_string (Metrics.to_json r)) in
  Jsonv.check_at "nan gauge is null" (family v "nf_gauge") [ "values"; "0"; "value" ]
    Json.Null;
  Jsonv.check_at "infinite sum is null" (family v "nf_seconds") [ "values"; "0"; "sum" ]
    Json.Null

let test_json_string_escaping () =
  let js s = Json.to_string (Json.String s) in
  check_str "plain" "\"abc\"" (js "abc");
  check_str "quote and backslash" "\"a\\\"b\\\\c\"" (js "a\"b\\c");
  check_str "newline and tab" "\"a\\nb\\tc\"" (js "a\nb\tc");
  check_str "control chars escaped" "\"a\\u0001b\"" (js "a\x01b");
  check "result reads back" true
    (Jsonv.parse (js "we\"ird\\\n\x02") = Json.String "we\"ird\\\n\x02")

(* The reader is strict RFC 8259: the number spellings a lax validator
   lets through are refused. *)
let test_reader_strict () =
  List.iter
    (fun s -> check (s ^ " rejected") false (Jsonv.is_valid s))
    [ "01"; "1."; ".5"; "+1"; "nan"; "inf"; "-"; "1e"; "[1,]"; "{\"a\"}"; "\"\x01\"";
      "1 2"; "" ];
  List.iter
    (fun s -> check (s ^ " accepted") true (Jsonv.is_valid s))
    [ "0"; "-0"; "1.5e-3"; "1E+2"; "[]"; "{}"; " [1, {\"a\": null}] "; "\"\\u00e9\"" ]

(* Printer and reader agree on every value: strings over all 256 bytes,
   finite floats including subnormals, both layouts. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let finite =
    oneof
      [ float; map Int64.float_of_bits (map (fun n -> Int64.of_int n) (int_bound 1_000_000));
        map (fun n -> float_of_int n) int ]
    >|= fun f -> if Float.is_finite f then f else 0.5
  in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [ return Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun n -> Json.Int n) int; map (fun f -> Json.Float f) finite;
               map (fun s -> Json.String s) str ]
         in
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun vs -> Json.List vs) (list_size (0 -- 4) (self (depth - 1))));
               ( 1,
                 map (fun ms -> Json.Obj ms)
                   (list_size (0 -- 4) (pair str (self (depth - 1)))) ) ])

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Jsonv.parse inverts both layouts"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      let line = Json.to_string v in
      (not (String.contains line '\n'))
      && Jsonv.equal v (Jsonv.parse line)
      && Jsonv.equal v (Jsonv.parse (Json.to_string_pretty v)))

(* ---------------- trace ring buffer ---------------- *)

let test_ring_wraparound () =
  let buf = Trace.buffer ~capacity:3 () in
  let now = ref 0.0 in
  let tracer = Trace.create ~clock:(fun () -> now := !now +. 1.0; !now) () in
  Trace.set_clock_every tracer 1;
  Trace.set_sink tracer (Trace.Memory buf);
  for i = 1 to 8 do
    Trace.emit ~tracer (Trace.Note (string_of_int i))
  done;
  check_int "pushed counts everything" 8 (Trace.buffer_pushed buf);
  check_int "capacity" 3 (Trace.buffer_capacity buf);
  let events = Trace.buffer_events buf in
  check_int "retains capacity events" 3 (List.length events);
  let notes =
    List.map
      (fun e -> match e.Trace.kind with Trace.Note s -> s | _ -> "?")
      events
  in
  Alcotest.(check (list string)) "last three, oldest first" [ "6"; "7"; "8" ] notes;
  let seqs = List.map (fun e -> e.Trace.seq) events in
  Alcotest.(check (list int)) "sequence numbers survive" [ 5; 6; 7 ] seqs;
  check "timestamps monotone" true
    (let ts = List.map (fun e -> e.Trace.time_s) events in
     List.sort compare ts = ts);
  Trace.buffer_clear buf;
  check_int "clear resets pushed" 0 (Trace.buffer_pushed buf);
  check_int "clear drops events" 0 (List.length (Trace.buffer_events buf))

let test_with_span_depth_and_errors () =
  let buf = Trace.buffer ~capacity:16 () in
  let tracer = Trace.create ~sink:(Trace.Memory buf) () in
  (try
     Trace.with_span ~tracer "outer" (fun () ->
         Trace.emit ~tracer (Trace.Note "inside");
         failwith "boom")
   with Failure _ -> ());
  let events = Trace.buffer_events buf in
  check_int "open + note + close" 3 (List.length events);
  (match events with
   | [ o; n; c ] ->
     check "opens outer" true
       (match o.Trace.kind with Trace.Span_open { name = "outer"; _ } -> true | _ -> false);
     check_int "note is nested" 1 n.Trace.depth;
     check "span closed despite the raise" true
       (match c.Trace.kind with Trace.Span_close { name = "outer"; _ } -> true | _ -> false);
     check_int "close back at depth 0" 0 c.Trace.depth
   | _ -> Alcotest.fail "unexpected event shape");
  (* detail thunks must not be forced when the tracer is disabled *)
  let disabled = Trace.create () in
  let forced = ref false in
  let v =
    Trace.with_span ~tracer:disabled ~detail:(fun () -> forced := true; "d")
      "quiet" (fun () -> 7)
  in
  check_int "passthrough result" 7 v;
  check "detail not forced on Null" false !forced

let test_event_json () =
  let kinds =
    [ Trace.Span_open { name = "enforce"; detail = "doc \"1\"" };
      Trace.Span_close { name = "enforce"; elapsed_s = 1e-4 };
      Trace.Cache_query { cache = "safe"; hit = true };
      Trace.Fork_choice { fname = "Get_Temp"; choice = "invoke" };
      Trace.Attempt { fname = "f"; number = 1 };
      Trace.Retry { fname = "f"; attempt = 1; backoff_s = 0.01 };
      Trace.Breaker { fname = "f"; transition = "trip" };
      Trace.Invocation { fname = "f"; attempts = 2; ok = false };
      Trace.Decision
        { subject = "doc"; verdict = Trace.Accept; detail = "a\\b\nc" };
      Trace.Note "free\tform" ]
  in
  List.iteri
    (fun i kind ->
      let e = { Trace.seq = i; time_s = 0.5; depth = 1; kind } in
      let json = Trace.event_to_json e in
      let line = Json.to_string json in
      check "one line" false (String.contains line '\n');
      check (Fmt.str "event %d reads back" i) true
        (Jsonv.equal json (Jsonv.parse_exn "event" line)))
    kinds

(* ---------------- sink parity ---------------- *)

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema parse error: %s" e

let common = {|
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.(Get_Date | date)
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
function Get_Date : title -> date
|}

let schema_star =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|} ^ common)

let schema_star2 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.(TimeOut | exhibit*)
|} ^ common)

(* One enforcement run over [seed]-generated documents with honest
   random services, entirely deterministic in [seed]. *)
let run_batch ~config ~seed sink =
  let g = Generate.create ~seed schema_star in
  let docs = List.init 30 (fun _ -> Generate.document g) in
  let oracle = Generate.create ~seed:(seed + 1) schema_star in
  let invoker fname _params = Generate.output_instance oracle fname in
  let p =
    Pipeline.create ~config ~s0:schema_star ~exchange:schema_star2 ~invoker ()
  in
  Trace.set_sink Trace.default sink;
  Fun.protect
    ~finally:(fun () -> Trace.set_sink Trace.default Trace.Null)
    (fun () -> Pipeline.enforce_many p ~jobs:1 docs)

let invocation_equal (a : Rewriter.located_invocation)
    (b : Rewriter.located_invocation) =
  a.at = b.at
  && String.equal a.invocation.inv_name b.invocation.inv_name
  && List.equal D.equal a.invocation.inv_params b.invocation.inv_params

(* Same document, action and invocation list (name, parameters,
   position), or the same error with the same failures. *)
let outcome_equal a b =
  match (a, b) with
  | Ok (d1, r1), Ok (d2, r2) ->
    D.equal d1 d2
    && r1.Enforcement.action = r2.Enforcement.action
    && List.equal invocation_equal r1.Enforcement.invocations
         r2.Enforcement.invocations
  | Error (Enforcement.Rejected f1), Error (Enforcement.Rejected f2)
  | Error (Enforcement.Attempt_failed f1), Error (Enforcement.Attempt_failed f2)
  | Error (Enforcement.Service_fault f1), Error (Enforcement.Service_fault f2) ->
    f1 = f2
  | _ -> false

(* The default plus the configs that reach the possible fallback and
   deeper rewriting. *)
let parity_configs =
  let d = Enforcement.default_config in
  [ d; { d with k = 2 }; { d with fallback_possible = true } ]

let test_sink_parity =
  QCheck.Test.make ~name:"memory sink never changes enforcement outcomes"
    ~count:20
    QCheck.(small_int)
    (fun seed ->
      List.for_all
        (fun config ->
          let plain = run_batch ~config ~seed Trace.Null in
          let traced =
            run_batch ~config ~seed
              (Trace.Memory (Trace.buffer ~capacity:64 ()))
          in
          List.length plain = List.length traced
          && List.for_all2 outcome_equal plain traced)
        parity_configs)

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "label canonicalization" `Quick test_labels_canonical;
          Alcotest.test_case "type conflict" `Quick test_type_conflict;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram le buckets" `Quick
            test_histogram_le_semantics;
          Alcotest.test_case "histogram time + clock" `Quick
            test_histogram_time_uses_clock;
          Alcotest.test_case "histogram window diff" `Quick
            test_histogram_window_diff;
          Alcotest.test_case "snapshot quantile" `Quick
            test_snapshot_quantile;
          Alcotest.test_case "histogram sum units" `Quick test_histogram_sum_units ] );
      ( "alloc",
        [ Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing ] );
      ( "export",
        [ Alcotest.test_case "prometheus text format" `Quick
            test_prometheus_format;
          Alcotest.test_case "json export is valid" `Quick test_json_export_valid;
          Alcotest.test_case "json non-finite values" `Quick test_json_non_finite;
          Alcotest.test_case "json string escaping" `Quick
            test_json_string_escaping;
          Alcotest.test_case "json reader is strict" `Quick test_reader_strict;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] );
      ( "trace",
        [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "span depth and errors" `Quick
            test_with_span_depth_and_errors;
          Alcotest.test_case "event json" `Quick test_event_json ] );
      ( "parity",
        [ QCheck_alcotest.to_alcotest test_sink_parity ] ) ]
