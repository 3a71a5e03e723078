(* Integration tests for the axml command-line driver: they run the
   actual binary (declared as a dune dependency) against files on disk
   and check exit codes and outputs. *)

let cli = "../bin/axml_cli.exe"

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* Run the CLI; returns (exit code, combined output). *)
let run args =
  let out = Filename.temp_file "axml_cli" ".out" in
  let cmd =
    Fmt.str "%s %s > %s 2>&1" (Filename.quote cli)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let output = read_file out in
  Sys.remove out;
  (code, output)

(* As [run], but with stdout and stderr captured separately — the JSON
   envelope tests assert that stdout alone is one valid JSON value. *)
let run_split args =
  let out = Filename.temp_file "axml_cli" ".out" in
  let err = Filename.temp_file "axml_cli" ".err" in
  let cmd =
    Fmt.str "%s %s > %s 2> %s" (Filename.quote cli)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

module Json = Axml_obs.Json

let str s = Json.String s

(* stdout of a --format json command: exactly one line holding one JSON
   envelope with the shared diagnostics and summary members. *)
let check_json_envelope label s =
  check (label ^ ": one line") true
    (String.index_opt s '\n' = Some (String.length s - 1));
  let v = Jsonv.parse_exn label s in
  check (label ^ ": has diagnostics") true (Jsonv.at [ "diagnostics" ] v <> None);
  check (label ^ ": has summary") true (Jsonv.at [ "summary"; "errors" ] v <> None);
  v

let dir = Filename.get_temp_dir_name ()
let path name = Filename.concat dir ("axml_test_" ^ name)

let sender_schema = {|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
|}

let exchange_schema = {|
root newspaper
element newspaper = title.date.temp.(TimeOut | exhibit*)
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
|}

let strict_schema = {|
root newspaper
element newspaper = title.date.temp.exhibit*
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
|}

let doc_xml = {|<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title>The Sun</title><date>04/10/2002</date>
  <int:fun methodName="Get_Temp"><int:params><int:param><city>Paris</city></int:param></int:params></int:fun>
  <int:fun methodName="TimeOut"><int:params><int:param>exhibits</int:param></int:params></int:fun>
</newspaper>
|}

let setup () =
  write_file (path "sender.axs") sender_schema;
  write_file (path "exchange.axs") exchange_schema;
  write_file (path "strict.axs") strict_schema;
  write_file (path "doc.xml") doc_xml

let test_validate_ok () =
  setup ();
  let code, out = run [ "validate"; "-s"; path "sender.axs"; path "doc.xml" ] in
  check_int "exit 0" 0 code;
  check "says valid" true (contains out "valid")

let test_validate_fails () =
  setup ();
  let code, out = run [ "validate"; "-s"; path "exchange.axs"; path "doc.xml" ] in
  check_int "exit 1" 1 code;
  check "explains" true (contains out "newspaper")

let test_check_safe () =
  setup ();
  let code, out =
    run [ "check"; "-f"; path "sender.axs"; "-t"; path "exchange.axs"; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  check "says safe" true (contains out "safe");
  let code, _ =
    run [ "check"; "-f"; path "sender.axs"; "-t"; path "strict.axs"; path "doc.xml" ]
  in
  check_int "strict target: exit 1" 1 code;
  let code, _ =
    run [ "check"; "--possible"; "-f"; path "sender.axs"; "-t"; path "strict.axs";
          path "doc.xml" ]
  in
  check_int "but possible: exit 0" 0 code

let test_rewrite () =
  setup ();
  let out_file = path "out.xml" in
  let code, log =
    run [ "rewrite"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "-o"; out_file; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  check "one invocation" true (contains log "1 invocation");
  let produced = read_file out_file in
  check "temp materialized" true (contains produced "<temp>");
  check "TimeOut kept" true (contains produced "TimeOut");
  (* the produced document validates against the exchange schema *)
  let code, _ = run [ "validate"; "-s"; path "exchange.axs"; out_file ] in
  check_int "output validates" 0 code

let test_rewrite_rejected () =
  setup ();
  let code, out =
    run [ "rewrite"; "-f"; path "sender.axs"; "-t"; path "strict.axs"; path "doc.xml" ]
  in
  check_int "exit 1" 1 code;
  check "rejected" true (contains out "rejected")

let test_batch () =
  setup ();
  let json_file = path "batch_stats.json" in
  let code, out =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--stats-json"; json_file;
          path "doc.xml"; path "doc.xml"; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  check "per-doc outcome lines" true (contains out "rewritten, 1 invocation");
  check "batch summary" true (contains out "3 docs");
  check "cache summary" true (contains out "hit rate");
  let v = Jsonv.parse_exn "stats JSON" (read_file json_file) in
  Jsonv.check_at "json docs" v [ "docs" ] (Json.Int 3);
  Jsonv.check_at "json rewritten" v [ "rewritten" ] (Json.Int 3);
  check "json cache" true (Jsonv.at [ "cache"; "hits" ] v <> None);
  check "json hit rate" true (Jsonv.at [ "cache_hit_rate" ] v <> None);
  Jsonv.check_at "json faults" v [ "faults" ] (Json.Int 0);
  check "json resilience" true (Jsonv.at [ "resilience"; "calls" ] v <> None);
  (* a rejected document fails the batch *)
  let code, out =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "strict.axs";
          path "doc.xml"; path "doc.xml" ]
  in
  check_int "rejections: exit 1" 1 code;
  check "marked rejected" true (contains out "REJECTED")

let test_batch_fault_tolerance () =
  setup ();
  (* every call fails: the batch must finish with per-document fault
     outcomes instead of aborting, and account the breaker activity *)
  let json_file = path "fault_stats.json" in
  let code, out =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--oracle"; "fail"; "--retries"; "1"; "--breaker-threshold"; "2";
          "--stats-json"; json_file;
          path "doc.xml"; path "doc.xml"; path "doc.xml" ]
  in
  check_int "faults: exit 1" 1 code;
  check "marked as service faults" true (contains out "SERVICE-FAULT");
  let v = Jsonv.parse_exn "fault stats JSON" (read_file json_file) in
  Jsonv.check_at "json faults" v [ "faults" ] (Json.Int 3);
  Jsonv.check_at "json gave up" v [ "resilience"; "gave_up" ] (Json.Int 1);
  Jsonv.check_at "json breaker trip" v [ "resilience"; "trips" ] (Json.Int 1);
  (* a flaky service (every 7th call dies) is absorbed by the retries *)
  let json_file = path "flaky_stats.json" in
  let code, _ =
    run ([ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
           "--oracle"; "flaky"; "--stats-json"; json_file ]
         @ List.init 7 (fun _ -> path "doc.xml"))
  in
  check_int "flaky absorbed: exit 0" 0 code;
  let v = Jsonv.parse_exn "flaky stats JSON" (read_file json_file) in
  Jsonv.check_at "no faults surfaced" v [ "faults" ] (Json.Int 0);
  Jsonv.check_at "one retry recorded" v [ "resilience"; "retries" ] (Json.Int 1)

let test_batch_stats_json_shape () =
  setup ();
  let json_file = path "shape_stats.json" in
  let code, _ =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--stats-json"; json_file; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  let v = Jsonv.parse_exn "stats JSON" (read_file json_file) in
  Jsonv.check_at "names the sender schema" v [ "sender_schema" ]
    (str (path "sender.axs"));
  Jsonv.check_at "names the exchange schema" v [ "exchange_schema" ]
    (str (path "exchange.axs"));
  check "stamps the run" true
    (match Jsonv.at [ "timestamp" ] v with
     | Some (Json.String t) -> String.length t > 0 && t.[0] = '2'
     | _ -> false)

let test_batch_metrics_out () =
  setup ();
  let prom_file = path "metrics.prom" in
  let code, _ =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--metrics-out"; prom_file; path "doc.xml"; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  let prom = read_file prom_file in
  check "typed counter" true
    (contains prom "# TYPE axml_enforcement_documents_total counter");
  check "labelled sample" true
    (contains prom "axml_enforcement_documents_total{outcome=\"rewritten\"} 2");
  check "histogram exported" true
    (contains prom "# TYPE axml_enforcement_seconds histogram");
  check "+Inf bucket" true
    (contains prom "axml_enforcement_seconds_bucket{le=\"+Inf\"} 2");
  (* a .json suffix switches the dump format *)
  let json_file = path "metrics.json" in
  let code, _ =
    run [ "batch"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--metrics-out"; json_file; path "doc.xml" ]
  in
  check_int "json variant: exit 0" 0 code;
  let v = Jsonv.parse_exn "metrics JSON" (read_file json_file) in
  check "execute metrics present" true
    (Jsonv.exists [ "metrics" ] [ "name" ] (str "axml_execute_invocations_total") v)

let test_trace () =
  setup ();
  let jsonl_file = path "trace.jsonl" in
  let code, out =
    run [ "trace"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "--jsonl"; jsonl_file; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  check "header line" true (contains out "trace:");
  check "verification outcome" true
    (contains out "decision newspaper: ACCEPT — safely rewritten");
  check "cache query" true (contains out "cache safe");
  check "fork choice" true (contains out "fork Get_Temp: invoke");
  check "invocation outcome" true (contains out "invoke Get_Temp: ok");
  check "verdict" true (contains out "decision newspaper: ACCEPT");
  (* every recorded event round-trips as one JSON object per line *)
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file jsonl_file))
  in
  check "events exported" true (List.length lines > 5);
  List.iter
    (fun l ->
      match Jsonv.explain l with
      | None -> ()
      | Some why -> Alcotest.failf "bad JSONL line %S: %s" l why)
    lines;
  (* a rejected document still yields a trace, and the exit code says so *)
  let code, out =
    run [ "trace"; "-f"; path "sender.axs"; "-t"; path "strict.axs";
          path "doc.xml" ]
  in
  check_int "rejection: exit 1" 1 code;
  check "reject verdict traced" true (contains out "REJECT")

let test_compat () =
  setup ();
  let code, out =
    run [ "compat"; "-f"; path "sender.axs"; "-t"; path "exchange.axs" ]
  in
  check_int "compatible: exit 0" 0 code;
  check "says compatible" true (contains out "COMPATIBLE");
  let code, out =
    run [ "compat"; "-f"; path "sender.axs"; "-t"; path "strict.axs" ]
  in
  check_int "incompatible: exit 1" 1 code;
  check "culprit reported" true (contains out "newspaper")

let test_compat_wildcard_target () =
  List.iteri
    (fun i (name, s0, target) ->
      let f = path (Fmt.str "s6_sender_%d.axs" i) in
      let t = path (Fmt.str "s6_target_%d.axs" i) in
      write_file f s0;
      write_file t target;
      let code, out = run [ "compat"; "-f"; f; "-t"; t ] in
      check_int (name ^ ": exit 1") 1 code;
      check (name ^ ": says incompatible") true (contains out "INCOMPATIBLE"))
    Section6_fixtures.pairs

(* compat decides the left-to-right game with no look-ahead, check one
   document at a time: on this pair they differ, and the FAIL line says
   which game failed. *)
let test_compat_no_lookahead () =
  let f = path "lookahead_sender.axs" and t = path "lookahead_target.axs" in
  write_file f Section6_fixtures.lookahead_sender;
  write_file t Section6_fixtures.lookahead_target;
  let code, out = run [ "compat"; "-f"; f; "-t"; t ] in
  check_int "compat: exit 1" 1 code;
  check "says incompatible" true (contains out "INCOMPATIBLE");
  check "names the left-to-right game" true (contains out "left-to-right strategy");
  List.iteri
    (fun i doc ->
      let d = path (Fmt.str "lookahead_%d.xml" i) in
      write_file d doc;
      let code, out = run [ "check"; "-f"; f; "-t"; t; d ] in
      check_int (Fmt.str "check doc %d: exit 0" i) 0 code;
      check (Fmt.str "check doc %d: safe" i) true (contains out "safe"))
    Section6_fixtures.lookahead_docs

(* A schema is compatible with itself, an empty content model
   included. *)
let test_compat_reflexive_empty () =
  let f = path "empty_content.axs" in
  write_file f Section6_fixtures.empty_content;
  let code, out = run [ "compat"; "-f"; f; "-t"; f ] in
  check_int "exit 0" 0 code;
  check "says compatible" true (contains out "COMPATIBLE")

let test_schema_convert () =
  setup ();
  let xml_file = path "schema.xml" in
  let code, _ =
    run [ "schema"; "-s"; path "sender.axs"; "--to"; "xml"; "-o"; xml_file ]
  in
  check_int "convert to xml: exit 0" 0 code;
  check "xml syntax" true (contains (read_file xml_file) "<schema");
  (* the XML form loads back and still certifies the same compat verdict *)
  let code, _ = run [ "compat"; "-f"; xml_file; "-t"; path "exchange.axs" ] in
  check_int "xml schema usable: exit 0" 0 code

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let messy_schema = {|
root r
element r = (a.b | a.c).s
element s = d* | d
element a = #data
element b = #data
element c = #data
element d = #data
element orphan = #data
element loop = loop.e
element e = #data
function Unused : #data -> #data
|}

let doomed_sender = {|
root r
element r = a | F
element a = #data
element b = #data
function F : #data -> b
function G : #data -> a
|}

let doomed_target = {|
root r
element r = a
element a = #data
element b = #data
function F : #data -> b
|}

let clean_pair_sender = {|
root r
element r = a.(F | b)
element a = #data
element b = #data
function F : #data -> b
|}

let clean_pair_target = {|
root r
element r = a.b
element a = #data
element b = #data
|}

let doomed_doc = {|<r xmlns:int="http://www.activexml.com/ns/int">
  <int:fun methodName="Ghost"><int:params><int:param>x</int:param></int:params></int:fun>
  <int:fun methodName="F"><int:params><int:param>x</int:param></int:params></int:fun>
</r>
|}

let setup_lint () =
  write_file (path "messy.axs") messy_schema;
  write_file (path "noroot.axs") "element a = #data\n";
  write_file (path "doomed_sender.axs") doomed_sender;
  write_file (path "doomed_target.axs") doomed_target;
  write_file (path "clean_sender.axs") clean_pair_sender;
  write_file (path "clean_target.axs") clean_pair_target;
  write_file (path "doomed_doc.xml") doomed_doc

let test_lint_schema () =
  setup_lint ();
  let code, out = run [ "lint"; "-s"; path "messy.axs" ] in
  check_int "errors deny by default: exit 1" 1 code;
  List.iter
    (fun c -> check (c ^ " reported") true (contains out c))
    [ "AXM002"; "AXM003"; "AXM010"; "AXM011"; "AXM012" ];
  check "position rendered" true (contains out "messy.axs:9:");
  check "summary line" true (contains out "error(s)");
  let code, out = run [ "lint"; "-s"; path "noroot.axs" ] in
  check_int "hints alone pass: exit 0" 0 code;
  check "missing root hinted" true (contains out "AXM014");
  (* a quiet schema under the strictest threshold *)
  let code, out = run [ "lint"; "--deny"; "hint"; "-s"; path "clean_sender.axs" ] in
  check_int "clean schema: exit 0" 0 code;
  check "nothing found" true (contains out "0 error(s), 0 warning(s), 0 hint(s)")

let test_lint_contract_json () =
  setup_lint ();
  let code, out =
    run [ "lint"; "--format"; "json"; "-f"; path "doomed_sender.axs";
          "-t"; path "doomed_target.axs"; path "doomed_doc.xml" ]
  in
  check_int "doomed pair: exit 1" 1 code;
  let v = Jsonv.parse_exn "lint JSON" out in
  (* contract, schema and document level findings, all in one report *)
  List.iter
    (fun c -> check (c ^ " reported") true (Jsonv.exists [ "diagnostics" ] [ "code" ] (str c) v))
    [ "AXM012"; "AXM020"; "AXM021"; "AXM022"; "AXM023"; "AXM030"; "AXM031" ];
  check "summary object" true (Jsonv.at [ "summary"; "errors" ] v <> None);
  check "files attributed" true
    (Jsonv.exists [ "diagnostics" ] [ "file" ] (str (path "doomed_doc.xml")) v)

let test_lint_deny_thresholds () =
  setup_lint ();
  (* identical schemas: nothing at all, even at the hint threshold *)
  let code, _ =
    run [ "lint"; "--deny"; "hint"; "-f"; path "clean_sender.axs";
          "-t"; path "clean_sender.axs" ]
  in
  check_int "identical pair: exit 0" 0 code;
  (* dropping F from the target content leaves one AXM022 hint: visible
     at --deny hint, ignored at --deny warning *)
  let code, out =
    run [ "lint"; "-f"; path "clean_sender.axs"; "-t"; path "clean_target.axs" ]
  in
  check_int "hints don't deny by default: exit 0" 0 code;
  check "materialize hint" true (contains out "AXM022");
  let code, _ =
    run [ "lint"; "--deny"; "warning"; "-f"; path "clean_sender.axs";
          "-t"; path "clean_target.axs" ]
  in
  check_int "deny warning ignores hints: exit 0" 0 code;
  let code, _ =
    run [ "lint"; "--deny"; "hint"; "-f"; path "clean_sender.axs";
          "-t"; path "clean_target.axs" ]
  in
  check_int "deny hint: exit 1" 1 code;
  (* bad usage *)
  let code, _ = run [ "lint"; "-s"; path "messy.axs"; path "doomed_doc.xml" ] in
  check_int "docs with -s: exit 2" 2 code;
  let code, _ = run [ "lint" ] in
  check_int "no schemas: exit 2" 2 code

(* --- schema evolution: diff / migrate / compat --format json ------- *)

(* Mirrors the checked-in newspaper example: v2 narrows newspaper
   (at least one exhibit), widens exhibit (embedded Get_Date survives)
   and flips Get_Date's invocability. *)
let evo_v1_schema = {|
root newspaper
element newspaper = title.date.temp.exhibit*
element title = #data
element date = #data
element temp = #data
element exhibit = title.date
|}

let evo_v2_schema = {|
root newspaper
element newspaper = title.date.temp.exhibit.exhibit*
element title = #data
element date = #data
element temp = #data
element exhibit = title.(Get_Date | date)
noninvocable function Get_Date : title -> date
|}

let evo_sender_schema = {|
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

let evo_sun_xml = {|<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title>The Sun</title><date>04/10/2002</date>
  <int:fun methodName="Get_Temp"><int:params><int:param>Paris</int:param></int:params></int:fun>
  <int:fun methodName="TimeOut"><int:params><int:param>exhibits</int:param></int:params></int:fun>
</newspaper>
|}

let evo_tribune_xml = {|<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title>The Tribune</title><date>06/10/2002</date>
  <int:fun methodName="Get_Temp"><int:params><int:param>Paris</int:param></int:params></int:fun>
  <exhibit><title>Sculpture</title><date>20/10/2002</date></exhibit>
</newspaper>
|}

let evo_gazette_xml = {|<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title>The Gazette</title><date>07/10/2002</date><temp>15C</temp>
</newspaper>
|}

let setup_evolution () =
  write_file (path "evo_v1.axs") evo_v1_schema;
  write_file (path "evo_v2.axs") evo_v2_schema;
  write_file (path "evo_sender.axs") evo_sender_schema;
  write_file (path "evo_sun.xml") evo_sun_xml;
  write_file (path "evo_tribune.xml") evo_tribune_xml;
  write_file (path "evo_gazette.xml") evo_gazette_xml

let test_diff_cli () =
  setup_evolution ();
  let code, out =
    run [ "diff"; "-f"; path "evo_v1.axs"; "-t"; path "evo_v2.axs" ]
  in
  check_int "warnings alone: exit 0" 0 code;
  (* the planted changes, with stable codes and file:line:col *)
  List.iter
    (fun c -> check (c ^ " reported") true (contains out c))
    [ "AXM040"; "AXM041"; "AXM043" ];
  check "narrowing located at newspaper's declaration" true
    (contains out (path "evo_v2.axs" ^ ":3:"));
  check "widening located at exhibit's declaration" true
    (contains out (path "evo_v2.axs" ^ ":7:"));
  check "narrowing classified" true (contains out "narrowed");
  check "lost word named" true (contains out "title.date.temp");
  let code, _ =
    run [ "diff"; "--deny"; "warning"; "-f"; path "evo_v1.axs";
          "-t"; path "evo_v2.axs" ]
  in
  check_int "deny warning: exit 1" 1 code;
  (* an unchanged schema diffs clean under the strictest threshold *)
  let code, _ =
    run [ "diff"; "--deny"; "hint"; "-f"; path "evo_v1.axs";
          "-t"; path "evo_v1.axs" ]
  in
  check_int "identity: exit 0" 0 code;
  (* the invocability flip against the sender's declaration *)
  let _, out =
    run [ "diff"; "-f"; path "evo_sender.axs"; "-t"; path "evo_v2.axs" ]
  in
  check "AXM044 reported" true (contains out "AXM044")

let test_diff_cli_json () =
  setup_evolution ();
  let code, out =
    run [ "diff"; "--format"; "json"; "-f"; path "evo_v1.axs";
          "-t"; path "evo_v2.axs" ]
  in
  check_int "exit 0" 0 code;
  let v = check_json_envelope "diff JSON" out in
  Jsonv.check_at "command" v [ "command" ] (str "diff");
  List.iter
    (fun (what, arr, sub, expected) ->
      check (what ^ " present") true (Jsonv.exists [ arr ] [ sub ] expected v))
    [ ("narrowed label", "labels", "change", str "narrowed");
      ("widened label", "labels", "change", str "widened");
      ("new call", "labels", "new_calls", Json.List [ str "Get_Date" ]);
      ("witness", "labels", "witness", str "title.date.temp");
      ("possible verdict", "verdicts", "verdict", str "possible");
      ("AXM040", "diagnostics", "code", str "AXM040") ]

let test_migrate_cli () =
  setup_evolution ();
  let code, out =
    run [ "migrate"; "-f"; path "evo_sender.axs"; "-t"; path "evo_v2.axs";
          path "evo_sun.xml"; path "evo_tribune.xml"; path "evo_gazette.xml" ]
  in
  check_int "doomed corpus: exit 1" 1 code;
  (* each document gets its advisory, with the exact calls named *)
  check "sun is possible-only" true (contains out "possible");
  check "sun names Get_Temp" true (contains out "Get_Temp (at /2)");
  check "sun names TimeOut" true (contains out "TimeOut (at /3)");
  check "tribune materializes" true (contains out "materialize");
  check "gazette is doomed" true (contains out "DOOMED");
  check "verdict line" true (contains out "NOT MIGRATABLE");
  (* a corpus of safe documents migrates: exit by advisory *)
  let code, out =
    run [ "migrate"; "-f"; path "evo_sender.axs"; "-t"; path "evo_v2.axs";
          path "evo_tribune.xml" ]
  in
  check_int "clean corpus: exit 0" 0 code;
  check "migratable" true (contains out "MIGRATABLE")

let test_migrate_cli_json () =
  setup_evolution ();
  let code, out =
    run [ "migrate"; "--format"; "json"; "-f"; path "evo_sender.axs";
          "-t"; path "evo_v2.axs";
          path "evo_sun.xml"; path "evo_tribune.xml"; path "evo_gazette.xml" ]
  in
  check_int "exit 1" 1 code;
  let v = check_json_envelope "migrate JSON" out in
  Jsonv.check_at "command" v [ "command" ] (str "migrate");
  List.iter
    (fun a ->
      check (a ^ " advisory") true (Jsonv.exists [ "documents" ] [ "advisory" ] (str a) v))
    [ "possible"; "materialize"; "doomed" ];
  Jsonv.check_at "not migratable" v [ "migratable" ] (Json.Bool false);
  check "AXM042 reported" true (Jsonv.exists [ "diagnostics" ] [ "code" ] (str "AXM042") v)

let test_compat_json () =
  setup_evolution ();
  setup ();
  let code, out =
    run [ "compat"; "--format"; "json"; "-k"; "2"; "-f"; path "sender.axs";
          "-t"; path "exchange.axs" ]
  in
  check_int "compatible pair: exit 0" 0 code;
  let v = check_json_envelope "compat JSON" out in
  Jsonv.check_at "command tagged" v [ "command" ] (str "compat");
  Jsonv.check_at "compatible" v [ "compatible" ] (Json.Bool true);
  Jsonv.check_at "depth recorded" v [ "k" ] (Json.Int 2);
  (* the evolved pair is not whole-schema compatible *)
  let code, out =
    run [ "compat"; "--format"; "json"; "-f"; path "evo_sender.axs";
          "-t"; path "evo_v2.axs" ]
  in
  check_int "evolved pair: exit 1" 1 code;
  Jsonv.check_at "incompatible" (Jsonv.parse_exn "compat JSON" out) [ "compatible" ]
    (Json.Bool false)

(* Error paths under --format json: stdout must still carry exactly one
   valid envelope (the error as an AXM000 diagnostic), the human
   message goes to stderr, and the exit code is 2 per LINTING.md. *)
let test_json_error_envelopes () =
  setup ();
  write_file (path "broken.axs") "element = nonsense";
  let check_error_envelope label args =
    let code, stdout, stderr = run_split args in
    check_int (label ^ ": exit 2") 2 code;
    let v = check_json_envelope label stdout in
    Jsonv.check_at (label ^ ": AXM000 diagnostic") v [ "diagnostics"; "0"; "code" ]
      (str "AXM000");
    check (label ^ ": message on stderr") true (contains stderr "error:")
  in
  check_error_envelope "diff"
    [ "diff"; "--format"; "json"; "-f"; path "broken.axs";
      "-t"; path "exchange.axs" ];
  check_error_envelope "migrate"
    [ "migrate"; "--format"; "json"; "-f"; path "broken.axs";
      "-t"; path "exchange.axs"; path "doc.xml" ];
  check_error_envelope "lint"
    [ "lint"; "--format"; "json"; "-s"; path "broken.axs" ];
  write_file (path "broken.xml") "<a><b></a>";
  check_error_envelope "batch"
    [ "batch"; "--format"; "json"; "-f"; path "sender.axs";
      "-t"; path "exchange.axs"; path "broken.xml" ]

let test_batch_json () =
  setup ();
  let code, stdout, stderr =
    run_split [ "batch"; "--format"; "json"; "-f"; path "sender.axs";
                "-t"; path "exchange.axs"; path "doc.xml"; path "doc.xml" ]
  in
  check_int "exit 0" 0 code;
  (* one envelope on one line: the stats block is no longer spliced in
     as indented lines after it *)
  let v = check_json_envelope "batch ok" stdout in
  check_int "outcomes present" 2 (List.length (Jsonv.elements [ "outcomes" ] v));
  Jsonv.check_at "action recorded" v [ "outcomes"; "0"; "action" ] (str "rewritten");
  Jsonv.check_at "stats embedded" v [ "stats"; "docs" ] (Json.Int 2);
  check "outcome lines on stderr" true (contains stderr "rewritten");
  (* an enforcement failure becomes an AXM033 diagnostic and exit 1 *)
  let code, stdout, _ =
    run_split [ "batch"; "--format"; "json"; "-f"; path "sender.axs";
                "-t"; path "strict.axs"; path "doc.xml" ]
  in
  check_int "rejection: exit 1" 1 code;
  let v = check_json_envelope "batch rejected" stdout in
  Jsonv.check_at "AXM033 diagnostic" v [ "diagnostics"; "0"; "code" ] (str "AXM033");
  Jsonv.check_at "failed outcome" v [ "outcomes"; "0"; "ok" ] (Json.Bool false)

(* The numbers of a k = 2 batch over the four example documents with
   the minimal-k search, at --jobs 1 (at --jobs 2 the seeded random
   oracle's draws interleave across domains): every statistic apart
   from the wall-clock members, in the --stats-json file and in the
   --format json envelope, and every non-timing value of the
   enforcement series in the --metrics-out dump. *)
let example_docs =
  List.map
    (fun d -> Filename.concat "../examples/docs" ("newspaper_" ^ d ^ ".xml"))
    [ "gazette"; "herald"; "sun"; "tribune" ]

let example_sender = "../examples/schemas/newspaper_sender.axs"
let example_exchange = "../examples/schemas/newspaper_exchange.axs"

let pinned_batch_stats =
  let int n = Json.Int n in
  Json.Obj
    [ ("sender_schema", str example_sender);
      ("exchange_schema", str example_exchange);
      ("docs", int 4); ("conformed", int 1); ("rewritten", int 3);
      ("rewritten_possible", int 0); ("rejected", int 0);
      ("attempt_failed", int 0); ("faults", int 0); ("invocations", int 4);
      ("cache", Json.Obj [ ("hits", int 38); ("misses", int 22); ("entries", int 53) ]);
      ("cache_hit_rate", Json.Float (38. /. 60.));
      ( "resilience",
        Json.Obj
          [ ("calls", int 4); ("attempts", int 4); ("retries", int 0);
            ("successes", int 4); ("gave_up", int 0); ("timeouts", int 0);
            ("trips", int 0); ("short_circuited", int 0) ] );
      ( "min_k",
        Json.Obj
          [ ("measured", int 4);
            ("distribution", Json.Obj [ ("0", int 1); ("1", int 3) ]);
            ("over_budget", int 0) ] ) ]

let pinned_batch_series =
  [ "axml_enforce_min_k_total{k=\"0\",kind=\"possible\"} 1";
    "axml_enforce_min_k_total{k=\"0\",kind=\"safe\"} 1";
    "axml_enforce_min_k_total{k=\"1\",kind=\"possible\"} 3";
    "axml_enforce_min_k_total{k=\"1\",kind=\"safe\"} 3";
    "axml_enforcement_documents_total{outcome=\"attempt_failed\"} 0";
    "axml_enforcement_documents_total{outcome=\"conformed\"} 1";
    "axml_enforcement_documents_total{outcome=\"fault\"} 0";
    "axml_enforcement_documents_total{outcome=\"rejected\"} 0";
    "axml_enforcement_documents_total{outcome=\"rewritten\"} 3";
    "axml_enforcement_documents_total{outcome=\"rewritten_possible\"} 0";
    "axml_enforcement_invocations_total 4";
    "axml_enforcement_seconds_count 4" ]

let test_batch_pinned_numbers () =
  let wall_clock = [ "timestamp"; "elapsed_s"; "docs_per_s" ] in
  let without_wall_clock label = function
    | Some (Json.Obj ms) ->
      List.iter
        (fun key ->
          check (label ^ ": has " ^ key) true (List.mem_assoc key ms))
        wall_clock;
      Json.Obj (List.filter (fun (key, _) -> not (List.mem key wall_clock)) ms)
    | _ -> Alcotest.failf "%s: not an object" label
  in
  let check_stats label v =
    Alcotest.check Jsonv.testable label pinned_batch_stats
      (without_wall_clock label v)
  in
  (* the enforcement series of the dump, timing buckets and sums aside *)
  let series prom =
    List.filter
      (fun l ->
        (String.starts_with ~prefix:"axml_enforcement_" l
         || String.starts_with ~prefix:"axml_enforce_min_k_total" l)
        && not
             (String.starts_with ~prefix:"axml_enforcement_seconds_bucket" l
             || String.starts_with ~prefix:"axml_enforcement_seconds_sum" l))
      (String.split_on_char '\n' prom)
  in
  List.iter
    (fun format ->
      let stats_file = path ("pinned_stats_" ^ format ^ ".json") in
      let prom_file = path ("pinned_metrics_" ^ format ^ ".prom") in
      let code, stdout, _ =
        run_split
          ([ "batch"; "-k"; "2"; "--possible"; "--min-k"; "--jobs"; "1";
             "--format"; format; "--stats-json"; stats_file;
             "--metrics-out"; prom_file; "-f"; example_sender;
             "-t"; example_exchange ]
          @ example_docs)
      in
      check_int (format ^ ": exit 0") 0 code;
      check_stats (format ^ ": --stats-json")
        (Some (Jsonv.parse_exn "pinned stats" (read_file stats_file)));
      if format = "json" then
        check_stats "json: envelope stats"
          (Jsonv.at [ "stats" ] (check_json_envelope "pinned batch" stdout));
      Alcotest.(check (list string)) (format ^ ": enforcement series")
        pinned_batch_series (series (read_file prom_file)))
    [ "text"; "json" ]

let test_bad_inputs () =
  setup ();
  write_file (path "broken.axs") "element = nonsense";
  let code, out = run [ "validate"; "-s"; path "broken.axs"; path "doc.xml" ] in
  check_int "exit 2" 2 code;
  check "error message" true (contains out "error");
  write_file (path "broken.xml") "<a><b></a>";
  let code, _ = run [ "validate"; "-s"; path "sender.axs"; path "broken.xml" ] in
  check_int "bad xml: exit 2" 2 code;
  let code, _ = run [ "validate"; "-s"; path "sender.axs"; "/nonexistent.xml" ] in
  check "missing file fails" true (code <> 0)

(* A very short spawned soak: too brief for the verdict to be
   meaningful (the breaker cooldown outlives the recovery phase), so we
   assert the harness mechanics — exit code 0/1, a parseable
   BENCH_SOAK.json with the documented fields — not the verdict. The
   @ci alias runs the full --smoke soak with a passing verdict. *)
let test_soak_shape () =
  setup ();
  let json_file = path "soak.json" in
  let code, out =
    run [ "soak"; "--spawn"; "-f"; path "sender.axs"; "-t"; path "exchange.axs";
          "-k"; "2"; "--duration"; "2.4"; "--window"; "0.4"; "--workers"; "1";
          "-o"; json_file ]
  in
  check "exit 0 or 1 (verdict), never a usage/transport error" true
    (code = 0 || code = 1);
  check "printed per-window lines" true (contains out "steady");
  check "printed the verdict" true (contains out "soak ");
  let v = Jsonv.parse_exn "BENCH_SOAK.json" (read_file json_file) in
  List.iter
    (fun key -> check (key ^ " present") true (Jsonv.at [ key ] v <> None))
    [ "schema_version"; "seed"; "windows"; "phases"; "verdict"; "resilience";
      "heap_high_water_words" ];
  List.iter
    (fun key ->
      check (key ^ " per window") true (Jsonv.at [ "windows"; "0"; key ] v <> None))
    [ "p50"; "p99"; "p999"; "breakers" ]

let () =
  Alcotest.run "cli"
    [ ("cli",
       [ Alcotest.test_case "validate ok" `Quick test_validate_ok;
         Alcotest.test_case "validate fails" `Quick test_validate_fails;
         Alcotest.test_case "check" `Quick test_check_safe;
         Alcotest.test_case "rewrite" `Quick test_rewrite;
         Alcotest.test_case "rewrite rejected" `Quick test_rewrite_rejected;
         Alcotest.test_case "batch" `Quick test_batch;
         Alcotest.test_case "batch fault tolerance" `Quick test_batch_fault_tolerance;
         Alcotest.test_case "batch stats json shape" `Quick test_batch_stats_json_shape;
         Alcotest.test_case "batch metrics out" `Quick test_batch_metrics_out;
         Alcotest.test_case "trace" `Quick test_trace;
         Alcotest.test_case "compat" `Quick test_compat;
         Alcotest.test_case "compat wildcard target" `Quick
           test_compat_wildcard_target;
         Alcotest.test_case "compat without look-ahead" `Quick test_compat_no_lookahead;
         Alcotest.test_case "compat reflexive on empty content" `Quick
           test_compat_reflexive_empty;
         Alcotest.test_case "lint schema" `Quick test_lint_schema;
         Alcotest.test_case "lint contract json" `Quick test_lint_contract_json;
         Alcotest.test_case "lint deny thresholds" `Quick test_lint_deny_thresholds;
         Alcotest.test_case "diff" `Quick test_diff_cli;
         Alcotest.test_case "diff json" `Quick test_diff_cli_json;
         Alcotest.test_case "migrate" `Quick test_migrate_cli;
         Alcotest.test_case "migrate json" `Quick test_migrate_cli_json;
         Alcotest.test_case "compat json" `Quick test_compat_json;
         Alcotest.test_case "schema convert" `Quick test_schema_convert;
         Alcotest.test_case "soak shape" `Quick test_soak_shape;
         Alcotest.test_case "json error envelopes" `Quick test_json_error_envelopes;
         Alcotest.test_case "batch json" `Quick test_batch_json;
         Alcotest.test_case "batch pinned numbers" `Quick test_batch_pinned_numbers;
         Alcotest.test_case "bad inputs" `Quick test_bad_inputs
       ])
    ]
