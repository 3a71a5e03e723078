(* Tests for the Active XML layer (lib/axml): wire syntax, SOAP, XML
   Schema_int, WSDL_int, policies, the Schema Enforcement module, and
   peer-to-peer exchanges. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module D = Axml_core.Document
module Validate = Axml_core.Validate
module Contract = Axml_core.Contract
module Rewriter = Axml_core.Rewriter
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Resilience = Axml_services.Resilience
module Syntax = Axml_peer.Syntax
module Soap = Axml_peer.Soap
module Xml_schema_int = Axml_peer.Xml_schema_int
module Wsdl = Axml_peer.Wsdl
module Policy = Axml_peer.Policy
module Enforcement = Axml_peer.Enforcement
module Peer = Axml_peer.Peer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

let schema_star3 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.exhibit*
|} ^ common)

let fig2a =
  D.elem "newspaper"
    [ D.elem "title" [ D.data "The Sun" ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]

(* ------------------------------------------------------------------ *)
(* Wire syntax                                                         *)
(* ------------------------------------------------------------------ *)

let test_syntax_roundtrip () =
  let xml = Syntax.to_xml_string fig2a in
  let back = Syntax.of_xml_string xml in
  check "roundtrip" true (D.equal fig2a back)

(* The example document of Section 7, as literal XML. *)
let paper_xml = {|<?xml version="1.0"?>
<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap"
           methodName="Get_Temp"
           namespaceURI="urn:xmethods-weather">
    <int:params>
      <int:param><city>Paris</city></int:param>
    </int:params>
  </int:fun>
  <int:fun endpointURL="http://www.timeout.com/paris"
           methodName="TimeOut"
           namespaceURI="urn:timeout-program">
    <int:params>
      <int:param>exhibits</int:param>
    </int:params>
  </int:fun>
</newspaper>|}

let test_paper_xml_parses () =
  let doc = Syntax.of_xml_string paper_xml in
  (match doc with
   | D.Elem { label = "newspaper"; children; _ } ->
     check_int "four children" 4 (List.length children);
     (match children with
      | [ _; _; D.Call { name = "Get_Temp"; params = [ D.Elem { label = "city"; _ } ]; _ };
          D.Call { name = "TimeOut"; params = [ D.Data _ ]; _ } ] -> ()
      | _ -> Alcotest.failf "unexpected structure: %a" D.pp doc)
   | _ -> Alcotest.fail "expected a newspaper element")

let test_syntax_custom_prefix_ns () =
  (* a different prefix bound to the int namespace must still be a call *)
  let xml = {|<doc xmlns:axml="http://www.activexml.com/ns/int">
      <axml:fun methodName="F"/></doc>|} in
  match Syntax.of_xml_string xml with
  | D.Elem { children = [ D.Call { name = "F"; params = []; _ } ]; _ } -> ()
  | d -> Alcotest.failf "unexpected: %a" D.pp d

let test_syntax_errors () =
  let no_method = {|<doc xmlns:int="http://www.activexml.com/ns/int">
      <int:fun endpointURL="x"/></doc>|} in
  (match Syntax.of_xml_string no_method with
   | exception Syntax.Syntax_error _ -> ()
   | _ -> Alcotest.fail "expected Syntax_error");
  let bad_params = {|<doc xmlns:int="http://www.activexml.com/ns/int">
      <int:fun methodName="F"><int:params><bogus/></int:params></int:fun></doc>|} in
  (match Syntax.of_xml_string bad_params with
   | exception Syntax.Syntax_error _ -> ()
   | _ -> Alcotest.fail "expected Syntax_error")

(* ------------------------------------------------------------------ *)
(* SOAP                                                                *)
(* ------------------------------------------------------------------ *)

let test_soap_roundtrip () =
  let params = [ D.elem "city" [ D.data "Paris" ]; D.call "F" [ D.data "x" ] ] in
  (match Soap.decode (Soap.encode (Soap.Request { method_name = "Get_Temp"; params })) with
   | Soap.Request { method_name = "Get_Temp"; params = p } ->
     check "params preserved" true (D.equal_forest params p)
   | _ -> Alcotest.fail "bad request roundtrip");
  (match Soap.decode (Soap.encode (Soap.Response { method_name = "M"; result = [] })) with
   | Soap.Response { method_name = "M"; result = [] } -> ()
   | _ -> Alcotest.fail "bad response roundtrip");
  (match Soap.decode (Soap.encode (Soap.Fault { code = "Server"; reason = "boom" })) with
   | Soap.Fault { code = "Server"; reason = "boom" } -> ()
   | _ -> Alcotest.fail "bad fault roundtrip")

let test_soap_garbage () =
  (match Soap.decode "not xml at all <" with
   | exception Soap.Protocol_error _ -> ()
   | _ -> Alcotest.fail "expected Protocol_error");
  (match Soap.decode "<root/>" with
   | exception Soap.Protocol_error _ -> ()
   | _ -> Alcotest.fail "expected Protocol_error")

let test_soap_versioning () =
  let msg = Soap.Request { method_name = "M"; params = [] } in
  (* the current version is stamped on every envelope *)
  check "wire declares current version" true
    (Soap.wire_version (Soap.encode msg) = Some Soap.protocol_version);
  (* older versions up to the current one still decode *)
  (match Soap.decode (Soap.encode ~version:1 msg) with
   | Soap.Request { method_name = "M"; _ } -> ()
   | _ -> Alcotest.fail "version-1 envelope refused");
  (* an envelope without the attribute is the historical version 1 *)
  let legacy =
    Fmt.str
      {|<soap:Envelope xmlns:soap=%S xmlns:int=%S><soap:Body><int:request method="M"><int:args/></int:request></soap:Body></soap:Envelope>|}
      Soap.soap_ns Syntax.axml_ns
  in
  check "legacy envelope is version 1" true (Soap.wire_version legacy = Some 1);
  (match Soap.decode legacy with
   | Soap.Request { method_name = "M"; params = [] } -> ()
   | _ -> Alcotest.fail "legacy envelope refused");
  (* a future version is a typed refusal, not a generic decode error *)
  let future = Soap.encode ~version:99 msg in
  check "future version visible pre-flight" true
    (Soap.wire_version future = Some 99);
  (match Soap.decode future with
   | exception Soap.Unsupported_version { got = 99; supported } ->
     check_int "supported version" Soap.protocol_version supported
   | _ -> Alcotest.fail "expected Unsupported_version");
  (* bytes that are not XML at all have no version to report *)
  check "non-XML has no version" true (Soap.wire_version "not xml <" = None)

(* An int:fun without its methodName inside int:args: the envelope is
   well formed, its intensional payload is not. *)
let soap_bad_call =
  Printf.sprintf
    {|<soap:Envelope xmlns:soap="%s" xmlns:int="%s" int:protocol="2"><soap:Body><int:request method="x"><int:args><int:fun xmlns:int="%s"/></int:args></int:request></soap:Body></soap:Envelope>|}
    Soap.soap_ns Syntax.axml_ns Syntax.axml_ns

let test_soap_bad_payload () =
  (match Soap.decode soap_bad_call with
   | exception Soap.Protocol_error _ -> ()
   | _ -> Alcotest.fail "expected Protocol_error");
  let response =
    Printf.sprintf
      {|<soap:Envelope xmlns:soap="%s" xmlns:int="%s"><soap:Body><int:response method="x"><int:result><int:fun><int:params/><int:params/></int:fun></int:result></int:response></soap:Body></soap:Envelope>|}
      Soap.soap_ns Syntax.axml_ns
  in
  (match Soap.decode response with
   | exception Soap.Protocol_error _ -> ()
   | _ -> Alcotest.fail "expected Protocol_error");
  let provider = Peer.create ~name:"p" ~schema:schema_star () in
  match Soap.decode (Peer.handle_wire provider soap_bad_call) with
  | Soap.Fault { code = "Client"; _ } -> ()
  | _ -> Alcotest.fail "expected a Client fault"

(* ------------------------------------------------------------------ *)
(* XML Schema_int                                                      *)
(* ------------------------------------------------------------------ *)

let newspaper_xml_schema = {|
<schema root="newspaper">
  <element name="newspaper">
    <complexType>
      <sequence>
        <element ref="title"/>
        <element ref="date"/>
        <choice>
          <function ref="Get_Temp"/>
          <element ref="temp"/>
        </choice>
        <choice>
          <function ref="TimeOut"/>
          <element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/>
        </choice>
      </sequence>
    </complexType>
  </element>
  <element name="title"><data/></element>
  <element name="date"><data/></element>
  <element name="temp"><data/></element>
  <element name="city"><data/></element>
  <element name="exhibit">
    <sequence>
      <element ref="title"/>
      <choice><function ref="Get_Date"/><element ref="date"/></choice>
    </sequence>
  </element>
  <element name="performance">
    <sequence><element ref="title"/><element ref="date"/></sequence>
  </element>
  <function name="Get_Temp" endpointURL="http://www.forecast.com/soap"
            namespaceURI="urn:xmethods-weather">
    <params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return>
  </function>
  <function name="TimeOut">
    <params><param><data/></param></params>
    <return>
      <choice minOccurs="0" maxOccurs="unbounded">
        <element ref="exhibit"/>
        <element ref="performance"/>
      </choice>
    </return>
  </function>
  <function name="Get_Date">
    <params><param><element ref="title"/></param></params>
    <return><element ref="date"/></return>
  </function>
</schema>
|}

let content_language_equal env c1 c2 =
  Auto.Dfa.equal_language
    (Auto.Dfa.of_regex (Schema.compile_content env c1))
    (Auto.Dfa.of_regex (Schema.compile_content env c2))

let test_xml_schema_int_parse () =
  let s = Xml_schema_int.of_string newspaper_xml_schema in
  Alcotest.(check (option string)) "root" (Some "newspaper") s.Schema.root;
  let env = Schema.env_of_schema s in
  let envt = Schema.env_of_schema schema_star in
  List.iter
    (fun label ->
      match Schema.find_element s label, Schema.find_element schema_star label with
      | Some c1, Some c2 ->
        let d1 = Auto.Dfa.of_regex (Schema.compile_content env c1) in
        let d2 = Auto.Dfa.of_regex (Schema.compile_content envt c2) in
        if not (Auto.Dfa.equal_language d1 d2) then
          Alcotest.failf "content of %s differs" label
      | _ -> Alcotest.failf "element %s missing" label)
    [ "newspaper"; "title"; "exhibit"; "performance" ];
  (match Schema.find_function s "Get_Temp" with
   | Some f ->
     Alcotest.(check (option string)) "endpoint"
       (Some "http://www.forecast.com/soap") f.Schema.f_endpoint
   | None -> Alcotest.fail "Get_Temp missing")

let test_xml_schema_int_roundtrip () =
  let s = Xml_schema_int.of_string newspaper_xml_schema in
  let s2 = Xml_schema_int.of_string (Xml_schema_int.to_string s) in
  let env = Schema.env_of_schema s in
  List.iter
    (fun label ->
      match Schema.find_element s label, Schema.find_element s2 label with
      | Some c1, Some c2 ->
        if not (content_language_equal env c1 c2) then
          Alcotest.failf "roundtrip changed the content of %s" label
      | _ -> Alcotest.failf "element %s lost in roundtrip" label)
    (Schema.element_names s);
  List.iter
    (fun fname ->
      match Schema.find_function s fname, Schema.find_function s2 fname with
      | Some f1, Some f2 ->
        if not (content_language_equal env f1.Schema.f_output f2.Schema.f_output)
        then Alcotest.failf "roundtrip changed the output of %s" fname
      | _ -> Alcotest.failf "function %s lost in roundtrip" fname)
    (Schema.function_names s)

let test_xml_schema_int_all () =
  let s =
    Xml_schema_int.of_string
      {|
<schema>
  <element name="mix"><all>
    <element ref="a"/><element ref="b"/><element ref="c"/>
  </all></element>
  <element name="a"><data/></element>
  <element name="b"><data/></element>
  <element name="c"><data/></element>
</schema>|}
  in
  let env = Schema.env_of_schema s in
  let dfa =
    Auto.Dfa.of_regex
      (Schema.compile_content env (Option.get (Schema.find_element s "mix")))
  in
  let w l = List.map (fun x -> Symbol.Label x) l in
  check "cab accepted" true (Auto.Dfa.accepts dfa (w [ "c"; "a"; "b" ]));
  check "abc accepted" true (Auto.Dfa.accepts dfa (w [ "a"; "b"; "c" ]));
  check "ab rejected" false (Auto.Dfa.accepts dfa (w [ "a"; "b" ]));
  check "aabc rejected" false (Auto.Dfa.accepts dfa (w [ "a"; "a"; "b"; "c" ]))

let test_xml_schema_int_errors () =
  let bad = [
    {|<schema><element name="x"><bogus/></element></schema>|};
    {|<schema><element><data/></element></schema>|};
    {|<schema><element name="x"><element ref="nope"/></element></schema>|};
    {|<notaschema/>|};
  ] in
  List.iter
    (fun text ->
      match Xml_schema_int.of_string text with
      | exception Xml_schema_int.Schema_syntax_error _ -> ()
      | _ -> Alcotest.failf "expected rejection of %s" text)
    bad

(* ------------------------------------------------------------------ *)
(* WSDL_int                                                            *)
(* ------------------------------------------------------------------ *)

let test_wsdl_roundtrip () =
  let service =
    Service.make ~endpoint:"http://www.forecast.com/soap"
      ~namespace:"urn:xmethods-weather"
      ~input:(R.sym (Schema.A_label "city"))
      ~output:(R.sym (Schema.A_label "temp"))
      "Get_Temp" (Oracle.constant [])
  in
  let descriptor = Wsdl.describe_string ~types:schema_star service in
  let f, types = Wsdl.parse_string descriptor in
  Alcotest.(check string) "name" "Get_Temp" f.Schema.f_name;
  check "city type carried" true (Option.is_some (Schema.find_element types "city"));
  (* import into a fresh schema *)
  let s = Wsdl.import Schema.empty (f, types) in
  check "imported" true (Option.is_some (Schema.find_function s "Get_Temp"));
  (* conflicting import is rejected *)
  let conflicting =
    Schema.add_function Schema.empty
      (Schema.func "Get_Temp" ~input:R.epsilon ~output:R.epsilon)
  in
  match Wsdl.import conflicting (f, types) with
  | exception Wsdl.Wsdl_error _ -> ()
  | _ -> Alcotest.fail "expected a signature conflict"

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

let test_policy_extensional () =
  let projected = Policy.extensional schema_star in
  let env = Schema.env_of_schema projected in
  let envt = Schema.env_of_schema schema_star3 in
  let c1 = Option.get (Schema.find_element projected "newspaper") in
  let c2 = Option.get (Schema.find_element schema_star3 "newspaper") in
  let d1 = Auto.Dfa.of_regex (Schema.compile_content env c1) in
  let d2 = Auto.Dfa.of_regex (Schema.compile_content envt c2) in
  (* dropping all functions from the 'star' schema's newspaper type gives
     exactly the fully-extensional 'star-star-star' type *)
  check "extensional = fully materialized" true (Auto.Dfa.equal_language d1 d2)

let test_policy_restrict () =
  let projected = Policy.restrict_functions ~trust:(String.equal "TimeOut") schema_star in
  let env = Schema.env_of_schema projected in
  let envt = Schema.env_of_schema schema_star2 in
  let c1 = Option.get (Schema.find_element projected "newspaper") in
  let c2 = Option.get (Schema.find_element schema_star2 "newspaper") in
  check "trusting TimeOut only = schema 2" true
    (Auto.Dfa.equal_language
       (Auto.Dfa.of_regex (Schema.compile_content env c1))
       (Auto.Dfa.of_regex (Schema.compile_content envt c2)));
  (* the exhibit type still mentions Get_Date, which is untrusted *)
  let c = Option.get (Schema.find_element projected "exhibit") in
  let dfa = Auto.Dfa.of_regex (Schema.compile_content env c) in
  check "Get_Date erased from exhibit" false
    (Auto.Dfa.accepts dfa [ Symbol.Label "title"; Symbol.Fun "Get_Date" ]);
  check "date fine" true
    (Auto.Dfa.accepts dfa [ Symbol.Label "title"; Symbol.Label "date" ])

let test_policy_inconsistent () =
  let only_f =
    parse_schema {|
element root = F
function F : () -> ()
|}
  in
  match Policy.extensional only_f with
  | exception Policy.Empty_content "root" -> ()
  | _ -> Alcotest.fail "expected Empty_content"

let test_policy_preserve () =
  let s = Policy.preserve_functions ~keep:(String.equal "TimeOut") schema_star in
  match Schema.find_function s "TimeOut", Schema.find_function s "Get_Temp" with
  | Some t, Some g ->
    check "TimeOut frozen" false t.Schema.f_invocable;
    check "Get_Temp untouched" true g.Schema.f_invocable
  | _ -> Alcotest.fail "functions lost"

(* ------------------------------------------------------------------ *)
(* Schema Enforcement module                                           *)
(* ------------------------------------------------------------------ *)

let make_registry () =
  let reg = Registry.create () in
  Registry.register_all reg
    [ Service.make ~input:(R.sym (Schema.A_label "city"))
        ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
        (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]);
      Service.make ~input:(R.sym Schema.A_data)
        ~output:
          (R.star
             (R.alt (R.sym (Schema.A_label "exhibit"))
                (R.sym (Schema.A_label "performance"))))
        "TimeOut"
        (Oracle.constant
           [ D.elem "exhibit"
               [ D.elem "title" [ D.data "Monet" ]; D.elem "date" [ D.data "now" ] ] ]);
      Service.make ~input:(R.sym (Schema.A_label "title"))
        ~output:(R.sym (Schema.A_label "date")) "Get_Date"
        (Oracle.constant [ D.elem "date" [ D.data "today" ] ])
    ];
  reg

let test_enforce_conformed () =
  let reg = make_registry () in
  match
    Enforcement.enforce ~s0:schema_star ~exchange:schema_star
      ~invoker:(Registry.invoker reg) fig2a
  with
  | Ok (doc, report) ->
    check "unchanged" true (D.equal doc fig2a);
    check "conformed" true (report.Enforcement.action = Enforcement.Conformed);
    check_int "no calls" 0 (Registry.invocation_count reg)
  | Error e -> Alcotest.failf "unexpected: %a" Enforcement.pp_error e

let test_enforce_rewritten () =
  let reg = make_registry () in
  match
    Enforcement.enforce ~s0:schema_star ~exchange:schema_star2
      ~invoker:(Registry.invoker reg) fig2a
  with
  | Ok (doc, report) ->
    check "rewritten" true (report.Enforcement.action = Enforcement.Rewritten);
    check_int "one call" 1 (Registry.invocation_count reg);
    let env = Schema.env_of_schemas schema_star schema_star2 in
    let ctx = Validate.ctx ~env schema_star2 in
    check "conforms" true (Validate.document_violations ctx doc = [])
  | Error e -> Alcotest.failf "unexpected: %a" Enforcement.pp_error e

let test_enforce_rejected () =
  let reg = make_registry () in
  match
    Enforcement.enforce ~s0:schema_star ~exchange:schema_star3
      ~invoker:(Registry.invoker reg) fig2a
  with
  | Error (Enforcement.Rejected _) ->
    check_int "no side effects before rejection" 0 (Registry.invocation_count reg)
  | Error e -> Alcotest.failf "wrong error: %a" Enforcement.pp_error e
  | Ok _ -> Alcotest.fail "expected rejection"

let test_enforce_possible_fallback () =
  let reg = make_registry () in
  let config = { Enforcement.default_config with Enforcement.fallback_possible = true } in
  match
    Enforcement.enforce ~config ~s0:schema_star ~exchange:schema_star3
      ~invoker:(Registry.invoker reg) fig2a
  with
  | Ok (doc, report) ->
    check "possible" true (report.Enforcement.action = Enforcement.Rewritten_possible);
    let env = Schema.env_of_schemas schema_star schema_star3 in
    let ctx = Validate.ctx ~env schema_star3 in
    check "conforms" true (Validate.document_violations ctx doc = [])
  | Error e -> Alcotest.failf "unexpected: %a" Enforcement.pp_error e

let test_enforce_possible_fails_at_runtime () =
  let reg = make_registry () in
  (* make TimeOut return a performance: the attempt must fail *)
  Registry.register reg
    (Service.make ~input:(R.sym Schema.A_data)
       ~output:
         (R.star
            (R.alt (R.sym (Schema.A_label "exhibit"))
               (R.sym (Schema.A_label "performance"))))
       "TimeOut"
       (Oracle.constant
          [ D.elem "performance"
              [ D.elem "title" [ D.data "Hamlet" ]; D.elem "date" [ D.data "8pm" ] ] ]));
  let config = { Enforcement.default_config with Enforcement.fallback_possible = true } in
  match
    Enforcement.enforce ~config ~s0:schema_star ~exchange:schema_star3
      ~invoker:(Registry.invoker reg) fig2a
  with
  | Error (Enforcement.Attempt_failed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Enforcement.pp_error e
  | Ok _ -> Alcotest.fail "expected a run-time failure"

(* A fully extensional exchange schema and a TimeOut service whose
   exhibits embed a Get_Date call: flattening a TimeOut result needs a
   second rewriting level. *)
let schema_extensional =
  parse_schema
    {|
root newspaper
element newspaper = title.date.temp.exhibit*
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
|}

let make_deep_registry () =
  let reg = make_registry () in
  Registry.register reg
    (Service.make ~input:(R.sym Schema.A_data)
       ~output:
         (R.star
            (R.alt (R.sym (Schema.A_label "exhibit"))
               (R.sym (Schema.A_label "performance"))))
       "TimeOut"
       (Oracle.constant
          [ D.elem "exhibit"
              [ D.elem "title" [ D.data "Monet" ];
                D.call "Get_Date" [ D.elem "title" [ D.data "Monet" ] ] ] ]));
  reg

(* The k=1 enforcement gap and its closure: at depth 1 a materialized
   TimeOut result is spliced as-is (footnote 5), so the embedded
   Get_Date survives enforcement and an extensional receiver would
   refuse the document; from k=2 on, the returned forest is re-enforced
   against the remaining budget and ships extensional. *)
let test_enforce_deep_k_gap () =
  let enforce ~k =
    let reg = make_deep_registry () in
    let config =
      { Enforcement.default_config with
        Enforcement.k; fallback_possible = true }
    in
    ( Enforcement.enforce ~config ~s0:schema_star ~exchange:schema_extensional
        ~invoker:(Registry.invoker reg) fig2a,
      reg )
  in
  (match enforce ~k:1 with
   | Ok (doc, _), _ ->
     check "k=1: embedded call survives (the gap)" false
       (D.is_extensional doc)
   | Error e, _ -> Alcotest.failf "k=1 unexpectedly refused: %a" Enforcement.pp_error e);
  match enforce ~k:2 with
  | Ok (doc, _), reg ->
    check "k=2: fully extensional" true (D.is_extensional doc);
    check_int "k=2: TimeOut, Get_Temp and the embedded Get_Date" 3
      (Registry.invocation_count reg);
    let env = Schema.env_of_schemas schema_star schema_extensional in
    let ctx = Validate.ctx ~env schema_extensional in
    check "k=2: receiver-side validation passes" true
      (Validate.document_violations ctx doc = [])
  | Error e, _ -> Alcotest.failf "k=2 refused: %a" Enforcement.pp_error e

(* ------------------------------------------------------------------ *)
(* Batch enforcement pipelines                                         *)
(* ------------------------------------------------------------------ *)

module Pipeline = Enforcement.Pipeline

(* A batch on one domain, the outcome counts of its results, and the
   win-table activity it caused on the pipeline's contract. *)
let batch_activity p docs =
  let c = Pipeline.contract p in
  let before = Contract.stats c in
  let results = Pipeline.enforce_many p ~jobs:1 docs in
  (results, Enforcement.counts results, Contract.diff_stats ~before (Contract.stats c))

(* The counters of the pipeline's resilience guard: a fresh guard per
   pipeline in these tests, so its totals are the pipeline's. *)
let guard_total p =
  match (Pipeline.config p).Enforcement.resilience with
  | Some guard -> Resilience.total guard
  | None -> Alcotest.fail "the pipeline has no resilience guard"

let test_pipeline_batch () =
  let reg = make_registry () in
  let p =
    Pipeline.create ~s0:schema_star ~exchange:schema_star2
      ~invoker:(Registry.invoker reg) ()
  in
  let results, counts, cache = batch_activity p [ fig2a; fig2a; fig2a ] in
  check_int "three results" 3 (List.length results);
  List.iter
    (function
      | Ok (_, report) ->
        check "rewritten" true (report.Enforcement.action = Enforcement.Rewritten)
      | Error e -> Alcotest.failf "unexpected: %a" Enforcement.pp_error e)
    results;
  check_int "batch rewritten" 3 counts.Enforcement.rewritten;
  check_int "batch rejected" 0 counts.Enforcement.rejected;
  check_int "batch invocations" 3 counts.Enforcement.invocations;
  check "repeated docs hit the cache" true (cache.Contract.hits > 0);
  (* a second batch rides the tables the first one filled *)
  let results2, _, cache2 = batch_activity p [ fig2a ] in
  check_int "second batch: 1 doc" 1 (List.length results2);
  check_int "second batch: all cached" 0 cache2.Contract.misses

let test_pipeline_outcome_counters () =
  let reg = make_registry () in
  (* star -> star3 without fallback: every doc is rejected *)
  let p =
    Pipeline.create ~s0:schema_star ~exchange:schema_star3
      ~invoker:(Registry.invoker reg) ()
  in
  let results, counts, _ = batch_activity p [ fig2a; fig2a ] in
  check "all rejected" true
    (List.for_all (function Error (Enforcement.Rejected _) -> true | _ -> false)
       results);
  check_int "rejected counted" 2 counts.Enforcement.rejected;
  check_int "nothing conformed" 0 counts.Enforcement.conformed;
  (* with the fallback the same stream is rewritten possibly *)
  let config =
    { Enforcement.default_config with Enforcement.fallback_possible = true }
  in
  let p' =
    Pipeline.create ~config ~s0:schema_star ~exchange:schema_star3
      ~invoker:(Registry.invoker reg) ()
  in
  let _, counts', _ = batch_activity p' [ fig2a; fig2a ] in
  check_int "possible rewrites counted" 2 counts'.Enforcement.rewritten_possible;
  (* and an already-conforming stream counts as conformed *)
  let p'' =
    Pipeline.create ~s0:schema_star ~exchange:schema_star
      ~invoker:(Registry.invoker reg) ()
  in
  let _, counts'', _ = batch_activity p'' [ fig2a ] in
  check_int "conformed counted" 1 counts''.Enforcement.conformed

let test_pipeline_minimal_k () =
  let reg = make_registry () in
  let p =
    Pipeline.create ~s0:schema_star ~exchange:schema_star2
      ~invoker:(Registry.invoker reg) ()
  in
  let searched kind k =
    Axml_obs.Metrics.counter_value
      (Axml_obs.Metrics.counter ~labels:[ ("kind", kind); ("k", k) ]
         "axml_enforce_min_k_total")
  in
  (* enforcing never searches *)
  let before = searched "safe" "1" in
  ignore (Pipeline.enforce_many p ~jobs:1 [ fig2a ]);
  check_int "enforcing does not search" before (searched "safe" "1");
  (* one statically-conforming doc (depth 0) and two needing one
     materialization level each *)
  let conformed =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "t" ];
        D.elem "date" [ D.data "d" ];
        D.elem "temp" [ D.data "15" ] ]
  in
  let safe_k doc = (Pipeline.minimal_k p doc).Rewriter.safe_k in
  check "fig2a: one level" true (safe_k fig2a = Some 1);
  check "conformed: depth 0" true (safe_k conformed = Some 0);
  check_int "the search counted" (before + 1) (searched "safe" "1")

let test_pipeline_of_contract () =
  let reg = make_registry () in
  let c = Contract.create ~s0:schema_star ~target:schema_star2 () in
  (* pre-warm the contract through a rewriter view *)
  ignore (Rewriter.check (Rewriter.of_contract c) fig2a);
  let p = Pipeline.of_contract ~invoker:(Registry.invoker reg) c in
  check "shares the contract" true (Pipeline.contract p == c);
  let _, _, cache = batch_activity p [ fig2a ] in
  check_int "pre-warmed: no misses" 0 cache.Contract.misses;
  check "pre-warmed: hits" true (cache.Contract.hits > 0);
  (* the contract fixes k: a k = 2 contract under the default config
     (k = 1) enforces, reports and searches minimal depths at 2. [f]'s
     result is a call to [g], so r[f()] is safe from depth 2 on. *)
  let decls = {|
root r
element a = #data
function f : #data -> g
function g : #data -> a
|} in
  let s0 = parse_schema ("element r = f" ^ decls)
  and target = parse_schema ("element r = a" ^ decls) in
  let reg = Registry.create () in
  Registry.register_all reg
    [ Service.make ~input:(R.sym Schema.A_data) ~output:(R.sym (Schema.A_fun "g"))
        "f" (Oracle.constant [ D.call "g" [ D.data "y" ] ]);
      Service.make ~input:(R.sym Schema.A_data) ~output:(R.sym (Schema.A_label "a"))
        "g" (Oracle.constant [ D.elem "a" [ D.data "1" ] ]) ];
  let c = Contract.create ~k:2 ~s0 ~target () in
  let p = Pipeline.of_contract ~invoker:(Registry.invoker reg) c in
  check_int "k is the contract's" 2 (Pipeline.config p).Enforcement.k;
  let doc = D.elem "r" [ D.call "f" [ D.data "x" ] ] in
  check "rewritten at depth 2" true
    (match Pipeline.enforce p doc with
     | Ok (_, r) -> List.length r.Enforcement.invocations = 2
     | Error _ -> false);
  check "minimal safe depth 2, within budget" true
    ((Pipeline.minimal_k p doc).Rewriter.safe_k = Some 2)

(* A pipeline config with a deterministic (manual-clock, jitter-free)
   resilience guard. *)
let resilient_config ?(fallback = false) ?(retries = 3) ?(threshold = 5) () =
  let guard =
    Resilience.create
      ~policy:
        (Resilience.policy ~max_retries:retries ~backoff_s:0.001 ~jitter:0.
           ~breaker_threshold:threshold ())
      ~clock:(Resilience.manual_clock ()) ()
  in
  { Enforcement.default_config with
    Enforcement.resilience = Some guard; fallback_possible = fallback }

let test_pipeline_flaky_recovers () =
  let reg = make_registry () in
  (* every second Get_Temp call throws; retries absorb the faults *)
  Registry.register reg
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.flaky ~period:2
          (Oracle.constant [ D.elem "temp" [ D.data "15" ] ])));
  let p =
    Pipeline.create ~config:(resilient_config ()) ~s0:schema_star
      ~exchange:schema_star2 ~invoker:(Registry.invoker reg) ()
  in
  let results, counts, _ = batch_activity p [ fig2a; fig2a; fig2a; fig2a ] in
  check "all rewritten despite the flaky service" true
    (List.for_all Result.is_ok results);
  check_int "no faults surfaced" 0 counts.Enforcement.faults;
  let r = guard_total p in
  check "retries recorded" true (r.Resilience.retries > 0);
  check_int "every doc's call eventually succeeded" 4 r.Resilience.successes;
  check_int "nothing gave up" 0 r.Resilience.gave_up

let test_pipeline_survives_dead_service () =
  let reg = make_registry () in
  Registry.register reg
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.failing "weather service down"));
  let p =
    Pipeline.create
      ~config:(resilient_config ~retries:1 ~threshold:2 ())
      ~s0:schema_star ~exchange:schema_star2 ~invoker:(Registry.invoker reg) ()
  in
  let docs = [ fig2a; fig2a; fig2a; fig2a ] in
  let results, counts, _ = batch_activity p docs in
  check_int "the batch still produced every outcome" 4 (List.length results);
  List.iter
    (function
      | Error (Enforcement.Service_fault fs) ->
        check "classified as a fault" true
          (List.for_all Rewriter.failure_is_fault fs)
      | Error e -> Alcotest.failf "wrong error: %a" Enforcement.pp_error e
      | Ok _ -> Alcotest.fail "expected a service fault")
    results;
  (match results with
   | Error (Enforcement.Service_fault (f :: _)) :: _ ->
     (match f.Rewriter.reason with
      | Rewriter.Service_failure { fname = "Get_Temp"; attempts = 2; _ } -> ()
      | r -> Alcotest.failf "wrong reason: %a" Rewriter.pp_reason r)
   | _ -> Alcotest.fail "expected a Service_failure on the first document");
  check_int "faults counted" 4 counts.Enforcement.faults;
  check_int "faults are not rejections" 0 counts.Enforcement.rejected;
  let r = guard_total p in
  check "gave up at least once" true (r.Resilience.gave_up >= 1);
  check_int "breaker tripped" 1 r.Resilience.trips;
  check "later docs short-circuited" true (r.Resilience.short_circuited > 0)

let test_pipeline_ill_typed_service_fault () =
  let reg = make_registry () in
  Registry.register reg
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.constant [ D.elem "bogus" [] ]));
  let p =
    Pipeline.create ~config:(resilient_config ()) ~s0:schema_star
      ~exchange:schema_star2 ~invoker:(Registry.invoker reg) ()
  in
  let results, counts, _ = batch_activity p [ fig2a ] in
  (match results with
   | [ Error (Enforcement.Service_fault [ f ]) ] ->
     (match f.Rewriter.reason with
      | Rewriter.Ill_typed_service { fname = "Get_Temp"; _ } -> ()
      | r -> Alcotest.failf "wrong reason: %a" Rewriter.pp_reason r)
   | _ -> Alcotest.fail "expected an ill-typed service fault");
  check_int "fault counted" 1 counts.Enforcement.faults

let test_pipeline_fault_skips_possible_fallback () =
  (* a broken service is not evidence that the document needs a possible
     rewriting: the fault must surface as-is even with the fallback on *)
  let reg = make_registry () in
  Registry.register reg
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.failing "down"));
  let p =
    Pipeline.create
      ~config:(resilient_config ~fallback:true ~retries:0 ())
      ~s0:schema_star ~exchange:schema_star2 ~invoker:(Registry.invoker reg) ()
  in
  let results, counts, _ = batch_activity p [ fig2a ] in
  (match results with
   | [ Error (Enforcement.Service_fault _) ] -> ()
   | [ Error e ] -> Alcotest.failf "wrong error: %a" Enforcement.pp_error e
   | _ -> Alcotest.fail "expected a service fault");
  check_int "no possible rewriting attempted" 0 counts.Enforcement.rewritten_possible;
  check_int "no attempt failure either" 0 counts.Enforcement.attempt_failed

let test_peer_exchange_pipeline_cached () =
  let sender = Peer.create ~name:"newspaper.com" ~schema:schema_star () in
  Registry.register_all (Peer.registry sender)
    [ Service.make ~input:(R.sym (Schema.A_label "city"))
        ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
        (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]) ];
  let receiver = Peer.create ~name:"reader" ~schema:schema_star2 () in
  let p1 = Peer.exchange_pipeline sender ~exchange:schema_star2 in
  let p2 = Peer.exchange_pipeline sender ~exchange:schema_star2 in
  check "pipeline cached per exchange schema" true (p1 == p2);
  (* repeated sends of the same agreement ride one contract cache *)
  (match
     Peer.send sender ~receiver ~exchange:schema_star2 ~as_name:"a" fig2a
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "send failed: %a" Enforcement.pp_error e);
  let after_one = Contract.stats (Pipeline.contract p1) in
  (match
     Peer.send sender ~receiver ~exchange:schema_star2 ~as_name:"b" fig2a
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "send failed: %a" Enforcement.pp_error e);
  let after_two = Contract.stats (Pipeline.contract p1) in
  check_int "second send: pure cache hits"
    after_one.Contract.misses after_two.Contract.misses;
  check "second send: hits grew" true
    (after_two.Contract.hits > after_one.Contract.hits);
  (* changing the configuration invalidates the compiled pipeline *)
  Peer.configure sender { Peer.default_config with Peer.fallback_possible = true };
  let p3 = Peer.exchange_pipeline sender ~exchange:schema_star2 in
  check "invalidated after configure" true (p3 != p1)

(* ------------------------------------------------------------------ *)
(* Peers                                                               *)
(* ------------------------------------------------------------------ *)

(* A receiver's refusal reads as its validation verdict: the violation
   text, not a rewriting verdict wrapped around it. *)
let test_peer_receive_refusal_message () =
  let receiver = Peer.create ~name:"reader" ~schema:schema_star2 () in
  let refusal wire =
    match Peer.receive receiver ~exchange:schema_star2 ~as_name:"x" wire with
    | Ok _ -> Alcotest.fail "an invalid document was stored"
    | Error e -> Fmt.str "%a" Enforcement.pp_error e
  in
  Alcotest.(check string) "non-instance"
    "rejected: /: children of <newspaper> form \
     title.date.Get_Temp().TimeOut(), outside its content model"
    (refusal (Syntax.to_xml_string ~pretty:false fig2a));
  Alcotest.(check string) "malformed"
    "rejected: /: malformed document: line 1, column 12: unterminated \
     element <newspaper>"
    (refusal "<newspaper>")

(* Judging a document codes its letters by lookup: refusing documents
   full of labels no schema declares, on the receiver and in the static
   check, must neither grow the process-wide symbol interner nor change
   a verdict. *)
let test_fresh_labels_not_interned () =
  let receiver = Peer.create ~name:"reader" ~schema:schema_star2 () in
  let rewriter = Rewriter.create ~s0:schema_star2 ~target:schema_star2 () in
  let receive i =
    let wire = Printf.sprintf "<newspaper><x%d/></newspaper>" i in
    match Peer.receive receiver ~exchange:schema_star2 ~as_name:"x" wire with
    | Ok _ -> Alcotest.fail "an invalid document was stored"
    | Error e -> Fmt.str "%a" Enforcement.pp_error e
  in
  let check_doc i =
    let report = Rewriter.check rewriter (D.elem "newspaper" [ D.elem (Printf.sprintf "y%d" i) [] ]) in
    ( report.Rewriter.ok,
      Fmt.str "%a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) report.Rewriter.failures )
  in
  ignore (receive 0, check_doc 0);
  let size () = Axml_regex.Interner.size Axml_regex.Interner.global in
  let before = size () in
  for i = 1 to 10_000 do
    let expected =
      Printf.sprintf
        "rejected: /: children of <newspaper> form x%d, outside its content model; /0: \
         element type \"x%d\" is not declared"
        i i
    in
    let got = receive i in
    if got <> expected then Alcotest.failf "receive %d: %s" i got
  done;
  for i = 1 to 10_000 do
    let expected =
      Printf.sprintf
        "/: children of <newspaper> (y%d) cannot be safely rewritten; /0: element type \
         \"y%d\" is not part of the exchange schema"
        i i
    in
    match check_doc i with
    | false, got when got = expected -> ()
    | _, got -> Alcotest.failf "check %d: %s" i got
  done;
  for i = 1 to 10_000 do
    let wire =
      Printf.sprintf
        "<newspaper xmlns:int=\"%s\"><z%d/><int:fun methodName=\"Zf%d\"/></newspaper>"
        Syntax.axml_ns i i
    in
    match Syntax.of_xml_string wire with
    | D.Elem { children = [ D.Elem { id = -1; _ }; D.Call { id = -1; _ } ]; _ } -> ()
    | d -> Alcotest.failf "decode %d: %a" i D.pp d
  done;
  check_int "no name interned" before (size ())

(* A node's symbol id is resolved when it is built. A document built
   before any schema declared its names (every id -1) and the same
   document decoded afterwards (every id set) must get the same
   verdicts, the same materialized output and the same invocations. *)
let test_node_ids_never_change_a_verdict () =
  let early =
    D.elem "nidfeed"
      [ D.elem "nidhead" [ D.data "h" ];
        D.elem "nidentry" [ D.elem "nidtitle" [ D.data "a" ];
                            D.call "NidPrice" [ D.elem "nidtitle" [ D.data "a" ] ] ];
        D.call "NidFetch" [ D.data "q" ];
        D.elem "nidentry" [ D.elem "nidtitle" [ D.data "b" ]; D.elem "nidprice" [ D.data "1" ] ] ]
  in
  let id = function D.Elem { id; _ } | D.Call { id; _ } -> id | D.Data _ -> 0 in
  check_int "built before the schema" (-1) (id early);
  let common = {|
element nidhead = #data
element nidtitle = #data
element nidprice = #data
function NidFetch : #data -> nidentry*
function NidPrice : nidtitle -> nidprice
|} in
  let s0 =
    parse_schema
      ("root nidfeed\nelement nidfeed = nidhead.(nidentry | NidFetch)*\n\
        element nidentry = nidtitle.(NidPrice | nidprice)" ^ common)
  in
  let target =
    parse_schema
      ("root nidfeed\nelement nidfeed = nidhead.nidentry*\n\
        element nidentry = nidtitle.nidprice" ^ common)
  in
  let rw = Rewriter.create ~k:2 ~s0 ~target () in
  let late = Syntax.of_xml_string (Syntax.to_xml_string ~pretty:false early) in
  check "same document" true (D.equal early late);
  check "decoded after the schema" true (id late >= 0);
  check "children too" true (List.for_all (fun c -> id c >= 0) (D.children late));
  let invoker name _params =
    match name with
    | "NidFetch" ->
      [ D.elem "nidentry" [ D.elem "nidtitle" [ D.data "f" ];
                            D.call "NidPrice" [ D.elem "nidtitle" [ D.data "f" ] ] ] ]
    | _ -> [ D.elem "nidprice" [ D.data "9" ] ]
  in
  let ctx = Contract.ctx (Rewriter.contract rw) in
  let judge doc =
    let violations =
      Fmt.str "%a" Fmt.(list ~sep:(any "; ") Validate.pp_violation)
        (Validate.document_violations ctx doc)
    in
    let report = Rewriter.check rw doc in
    let check =
      Fmt.str "%b %a" report.Rewriter.ok
        Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) report.Rewriter.failures
    in
    let materialized =
      match Rewriter.materialize rw ~invoker doc with
      | Ok (doc', invocations) ->
        Fmt.str "%a with %a" D.pp doc'
          Fmt.(list ~sep:(any "; ") (fun ppf (i : Rewriter.located_invocation) ->
                   Fmt.pf ppf "%a %s(%a) = %a" D.pp_path i.at i.invocation.inv_name
                     D.pp_forest i.invocation.inv_params D.pp_forest i.invocation.inv_result))
          invocations
      | Error fs -> Fmt.str "failed: %a" Fmt.(list ~sep:(any "; ") Rewriter.pp_failure) fs
    in
    (violations, check, materialized)
  in
  let v1, c1, m1 = judge early and v2, c2, m2 = judge late in
  Alcotest.(check string) "document_violations" v1 v2;
  Alcotest.(check string) "check" c1 c2;
  Alcotest.(check string) "materialize" m1 m2;
  check "violations found" true (v1 <> "");
  check "safe" true (String.starts_with ~prefix:"true" c1);
  match Rewriter.materialize rw ~invoker late with
  | Ok (_, invocations) ->
    (* NidFetch, the NidPrice of the document, the NidPrice it returned *)
    check_int "invocations" 3 (List.length invocations)
  | Error _ -> Alcotest.fail "the document does not materialize"

let test_peer_call_through_soap () =
  let provider = Peer.create ~name:"timeout.com" ~schema:schema_star () in
  Peer.store provider "exhibits"
    (D.elem "listing" [ D.elem "exhibit"
                          [ D.elem "title" [ D.data "Monet" ];
                            D.elem "date" [ D.data "now" ] ] ]);
  Peer.provide provider ~name:"List_Exhibits" ~input:(R.sym Schema.A_data)
    ~output:(R.star (R.sym (Schema.A_label "exhibit")))
    (Peer.Repository_path { doc = "exhibits"; path = "/listing/exhibit" });
  let client = Peer.create ~name:"newspaper.com" ~schema:schema_star () in
  Peer.connect client ~provider;
  let result = Registry.invoke (Peer.registry client) "List_Exhibits" [ D.data "all" ] in
  (match result with
   | [ D.Elem { label = "exhibit"; _ } ] -> ()
   | _ -> Alcotest.failf "unexpected result: %a" D.pp_forest result);
  check "WSDL imported" true
    (Option.is_some (Schema.find_function (Peer.schema client) "List_Exhibits"))

let test_peer_serve_enforces_output () =
  (* the provider's repository holds an intensional document; serving a
     request whose output type is extensional forces materialization *)
  let provider = Peer.create ~name:"newspaper.com" ~schema:schema_star () in
  Registry.register_all (Peer.registry provider)
    [ Service.make ~input:(R.sym (Schema.A_label "city"))
        ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
        (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]) ];
  Peer.store provider "front-page" fig2a;
  Peer.provide provider ~name:"Temperature" ~input:(R.sym Schema.A_data)
    ~output:(R.sym (Schema.A_label "temp"))
    (Peer.Compute
       (fun _ ->
         Peer.select provider ~doc:"front-page" ~path:"/newspaper/*"
         |> List.filter (fun d ->
                match D.symbol d with
                | Symbol.Fun "Get_Temp" | Symbol.Label "temp" -> true
                | _ -> false)));
  let client = Peer.create ~name:"reader" ~schema:schema_star () in
  Peer.connect client ~provider;
  match Registry.invoke (Peer.registry client) "Temperature" [ D.data "q" ] with
  | [ D.Elem { label = "temp"; _ } ] -> ()
  | other -> Alcotest.failf "expected a materialized temp, got %a" D.pp_forest other

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A provider whose registry can materialize Get_Temp calls, serving an
   identity [temp -> temp] service. *)
let echo_provider () =
  let provider = Peer.create ~name:"newspaper.com" ~schema:schema_star () in
  Registry.register_all (Peer.registry provider)
    [ Service.make ~input:(R.sym (Schema.A_label "city"))
        ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
        (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]) ];
  Peer.provide provider ~name:"Echo" ~input:(R.sym (Schema.A_label "temp"))
    ~output:(R.sym (Schema.A_label "temp")) (Peer.Compute Fun.id);
  provider

let test_peer_serve_rejects_params () =
  let provider = echo_provider () in
  match
    Peer.serve provider ~method_name:"Echo" [ D.elem "city" [ D.data "Paris" ] ]
  with
  | _ -> Alcotest.fail "unrewritable parameters were served"
  | exception Peer.Peer_error m ->
    check ("rejection message: " ^ m) true
      (contains m "parameters of Echo rejected")

let test_peer_serve_conforming_untouched () =
  let provider = echo_provider () in
  let registry = Peer.registry provider in
  let before = Registry.invocation_count registry in
  let params = [ D.elem "temp" [ D.data "12" ] ] in
  let result = Peer.serve provider ~method_name:"Echo" params in
  check "forest returned physically unchanged" true (result == params);
  check_int "no registry invocation" before (Registry.invocation_count registry)

(* ------------------------------------------------------------------ *)
(* Served calls run on the peer's config                               *)
(* ------------------------------------------------------------------ *)

let serve_error provider ~method_name params =
  match Peer.serve provider ~method_name params with
  | r -> Alcotest.failf "served %a" D.pp_forest r
  | exception Peer.Peer_error m -> m

(* [Forecast] may return a temperature or a city: a [temp] result
   holding a call to it can only possibly be rewritten. *)
let test_peer_serve_fallback () =
  let provider () =
    let p =
      Peer.create ~name:"weather.com"
        ~schema:(parse_schema ("function Forecast : #data -> (temp | city)\n" ^ common))
        ()
    in
    Registry.register (Peer.registry p)
      (Service.make ~input:(R.sym Schema.A_data)
         ~output:(R.alt (R.sym (Schema.A_label "temp")) (R.sym (Schema.A_label "city")))
         "Forecast"
         (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]));
    Peer.provide p ~name:"Temperature" ~input:(R.sym Schema.A_data)
      ~output:(R.sym (Schema.A_label "temp"))
      (Peer.Const [ D.call "Forecast" [ D.data "Paris" ] ]);
    p
  in
  let m = serve_error (provider ()) ~method_name:"Temperature" [ D.data "q" ] in
  check ("refused without the fallback: " ^ m) true
    (contains m "result of Temperature rejected");
  let p = provider () in
  Peer.configure p { Peer.default_config with Peer.fallback_possible = true };
  match Peer.serve p ~method_name:"Temperature" [ D.data "q" ] with
  | [ D.Elem { label = "temp"; _ } ] -> ()
  | other -> Alcotest.failf "expected a temp, got %a" D.pp_forest other

(* The provider's Get_Temp fails its first call only. *)
let test_peer_serve_resilience () =
  let provider () =
    let p = echo_provider () in
    let calls = Atomic.make 0 in
    Registry.register (Peer.registry p)
      (Service.make ~input:(R.sym (Schema.A_label "city"))
         ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
         (fun _ ->
           if Atomic.fetch_and_add calls 1 = 0 then failwith "weather hiccup"
           else [ D.elem "temp" [ D.data "15" ] ]));
    p
  in
  let params = [ D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] ] in
  let m = serve_error (provider ()) ~method_name:"Echo" params in
  check ("unguarded: a service fault: " ^ m) true
    (contains m "parameters of Echo service fault");
  let p = provider () in
  Peer.configure p (resilient_config ~retries:2 ());
  match Peer.serve p ~method_name:"Echo" params with
  | [ D.Elem { label = "temp"; _ } ] -> ()
  | other -> Alcotest.failf "expected a temp, got %a" D.pp_forest other

let documents_enforced () =
  List.fold_left
    (fun n outcome ->
      n
      + Axml_obs.Metrics.counter_value
          (Axml_obs.Metrics.counter ~labels:[ ("outcome", outcome) ]
             "axml_enforcement_documents_total"))
    0
    [ "conformed"; "rewritten"; "rewritten_possible"; "rejected";
      "attempt_failed"; "fault" ]

let test_peer_serve_observed () =
  let module Trace = Axml_obs.Trace in
  let provider = echo_provider () in
  let params = [ D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] ] in
  let before = documents_enforced () in
  let buf = Trace.buffer () in
  Trace.set_sink Trace.default (Trace.Memory buf);
  Fun.protect
    ~finally:(fun () -> Trace.set_sink Trace.default Trace.Null)
    (fun () -> ignore (Peer.serve provider ~method_name:"Echo" params));
  check_int "two documents enforced" 2 (documents_enforced () - before);
  let spans =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.kind with
        | Span_open { name = ("peer.serve" | "enforce") as name; _ } -> Some (name, e.depth)
        | _ -> None)
      (Trace.buffer_events buf)
  in
  (match spans with
   | [ ("peer.serve", d); ("enforce", d1); ("enforce", d2) ] ->
     check "params enforced inside peer.serve" true (d1 > d);
     check "result enforced inside peer.serve" true (d2 > d)
   | _ ->
     Alcotest.failf "spans: %s"
       (String.concat ", " (List.map (fun (n, d) -> Fmt.str "%s@%d" n d) spans)));
  check_int "one decision per direction" 2
    (List.length
       (List.filter
          (fun (e : Trace.event) ->
            match e.kind with Decision _ -> true | _ -> false)
          (Trace.buffer_events buf)))

(* Four systhreads serve conforming, rewritten and rejected parameters
   and receive documents on one peer; halfway through, the peer is
   reconfigured with the possible fallback, which turns the rejection of
   a call that only possibly rewrites into a served result. *)
let test_peer_concurrent_serve_receive () =
  let provider = echo_provider () in
  Registry.register (Peer.registry provider)
    (Service.make ~input:(R.sym Schema.A_data)
       ~output:
         (R.star
            (R.alt (R.sym (Schema.A_label "exhibit"))
               (R.sym (Schema.A_label "performance"))))
       "TimeOut"
       (Oracle.constant
          [ D.elem "exhibit" [ D.elem "title" [ D.data "Monet" ]; D.elem "date" [ D.data "d" ] ] ]));
  let exhibits = R.star (R.sym (Schema.A_label "exhibit")) in
  Peer.provide provider ~name:"Exhibits" ~input:exhibits ~output:exhibits
    (Peer.Compute Fun.id);
  let as_name = "received" in
  Peer.store provider as_name fig2a;
  let conforming = Syntax.to_xml_string ~pretty:false fig2a in
  let fig2b =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "The Sun" ]; D.elem "date" [ D.data "04/10/2002" ];
        D.elem "temp" [ D.data "15" ] ]
  in
  let extensional = Syntax.to_xml_string ~pretty:false fig2b in
  let call i =
    let serve_method method_name params =
      match Peer.serve provider ~method_name params with
      | r -> "served " ^ Fmt.str "%a" D.pp_forest r
      | exception Peer.Peer_error m -> "error " ^ m
    in
    let serve = serve_method "Echo" and serve_exhibits = serve_method "Exhibits" in
    let receive wire =
      match Peer.receive provider ~exchange:schema_star3 ~as_name wire with
      | Ok d -> "stored " ^ Fmt.str "%a" D.pp d
      | Error e -> Fmt.str "refused %a" Enforcement.pp_error e
    in
    match i mod 7 with
    | 0 -> serve [ D.elem "temp" [ D.data "12" ] ]
    | 1 -> serve [ D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ] ]
    | 2 -> serve [ D.elem "city" [ D.data "Paris" ] ]
    | 3 -> serve [ D.call "Get_Date" [ D.elem "title" [ D.data "Monet" ] ] ]
    | 4 -> receive conforming
    | 5 -> receive extensional
    | _ -> serve_exhibits [ D.call "TimeOut" [ D.data "q" ] ]
  in
  let calls = 200 and threads = 4 in
  let fallback = { Peer.default_config with Peer.fallback_possible = true } in
  let sequential = Array.init calls call in
  Peer.configure provider fallback;
  let sequential_fallback = Array.init calls call in
  check "the fallback changes an outcome" true (sequential <> sequential_fallback);
  Peer.configure provider Peer.default_config;
  let reconfigured = Atomic.make false in
  let failures = Atomic.make [] in
  let fail msg =
    let rec push () =
      let l = Atomic.get failures in
      if not (Atomic.compare_and_set failures l (msg :: l)) then push ()
    in
    push ()
  in
  let worker t () =
    for i = 0 to calls - 1 do
      let after = Atomic.get reconfigured in
      match call i with
      | got ->
        if after then begin
          if got <> sequential_fallback.(i) then
            fail (Fmt.str "thread %d call %d after configure: %s" t i got)
        end
        else if got <> sequential.(i) && got <> sequential_fallback.(i) then
          fail (Fmt.str "thread %d call %d: %s" t i got)
      | exception e -> fail (Fmt.str "thread %d call %d raised %s" t i (Printexc.to_string e))
    done
  in
  let invoked = Registry.invocation_count (Peer.registry provider) in
  let ts = Array.init threads (fun t -> Thread.create (worker t) ()) in
  while Registry.invocation_count (Peer.registry provider) - invoked < calls / 6 do
    Thread.yield ()
  done;
  Peer.configure provider fallback;
  Atomic.set reconfigured true;
  Array.iter Thread.join ts;
  Alcotest.(check (list string)) "every result as in a sequential run" [] (Atomic.get failures);
  (* after the run, one more sequential pass still answers with the
     fallback *)
  Array.iteri
    (fun i expected -> Alcotest.(check string) (Fmt.str "call %d" i) expected (call i))
    sequential_fallback

(* A served peer receives on one thread per connection, so receives from
   several systhreads into one peer must each store their document. *)
let test_peer_concurrent_receives () =
  let peer = Peer.create ~name:"reader" ~schema:schema_star3 () in
  let wire =
    Syntax.to_xml_string ~pretty:false
      (D.elem "newspaper"
         [ D.elem "title" [ D.data "The Sun" ]; D.elem "date" [ D.data "04/10/2002" ];
           D.elem "temp" [ D.data "15" ] ])
  in
  let threads = 4 and per_thread = 50_000 in
  let refused = Atomic.make 0 in
  let worker t () =
    for i = 0 to per_thread - 1 do
      let as_name = Printf.sprintf "%d.%d" t i in
      match Peer.receive peer ~exchange:schema_star3 ~as_name wire with
      | Ok _ -> ()
      | Error _ -> Atomic.incr refused
    done
  in
  List.iter Thread.join (List.init threads (fun t -> Thread.create (worker t) ()));
  check_int "refused" 0 (Atomic.get refused);
  check_int "stored" (threads * per_thread) (List.length (Peer.documents peer));
  for t = 0 to threads - 1 do
    ignore (Peer.fetch peer (Printf.sprintf "%d.%d" t (per_thread - 1)))
  done

let test_peer_send_document () =
  let sender = Peer.create ~name:"newspaper.com" ~schema:schema_star () in
  Registry.register_all (Peer.registry sender)
    [ Service.make ~input:(R.sym (Schema.A_label "city"))
        ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
        (Oracle.constant [ D.elem "temp" [ D.data "15" ] ]) ];
  let receiver = Peer.create ~name:"reader" ~schema:schema_star2 () in
  match
    Peer.send sender ~receiver ~exchange:schema_star2 ~as_name:"front-page" fig2a
  with
  | Ok outcome ->
    check "bytes counted" true (outcome.Peer.wire_bytes > 0);
    let stored = Peer.fetch receiver "front-page" in
    let env = Schema.env_of_schemas schema_star schema_star2 in
    let ctx = Validate.ctx ~env schema_star2 in
    check "stored copy conforms" true (Validate.document_violations ctx stored = [])
  | Error e -> Alcotest.failf "send failed: %a" Enforcement.pp_error e

let test_peer_version_mismatch_fault () =
  let provider = Peer.create ~name:"p" ~schema:schema_star () in
  let wire =
    Soap.encode ~version:99
      (Soap.Request { method_name = "Get_Temp"; params = [] })
  in
  match Soap.decode (Peer.handle_wire provider wire) with
  | Soap.Fault { code = "VersionMismatch"; _ } -> ()
  | _ -> Alcotest.fail "expected a VersionMismatch fault"

let test_peer_configure () =
  let peer = Peer.create ~name:"p" ~schema:schema_star () in
  let d = Peer.default_config in
  let c = Peer.current_config peer in
  check_int "default k" d.Peer.k c.Peer.k;
  check "no resilience guard by default" true (c.Peer.resilience = None);
  check "no fallback by default" false c.Peer.fallback_possible;
  (* compiled artifacts are cached while the config is stable... *)
  let p1 = Peer.exchange_pipeline peer ~exchange:schema_star2 in
  check "pipeline cached" true (p1 == Peer.exchange_pipeline peer ~exchange:schema_star2);
  (* ...and configure replaces the whole record atomically and
     invalidates them *)
  Peer.configure peer { d with Peer.k = 3; fallback_possible = true };
  let c = Peer.current_config peer in
  check_int "k applied" 3 c.Peer.k;
  check "fallback applied" true c.Peer.fallback_possible;
  check "configure invalidates compiled pipelines" true
    (p1 != Peer.exchange_pipeline peer ~exchange:schema_star2);
  (* the peer's record reaches its pipeline unchanged *)
  check "pipeline runs the peer's config" true
    (Pipeline.config (Peer.exchange_pipeline peer ~exchange:schema_star2)
     == Peer.current_config peer);
  (* a record update through configure touches its own field and
     preserves the rest *)
  Peer.configure peer
    { (Peer.current_config peer) with Peer.resilience = Some (Resilience.create ()) };
  let c = Peer.current_config peer in
  check_int "resilience update keeps k" 3 c.Peer.k;
  check "resilience installed" true (Option.is_some c.Peer.resilience);
  check "resilience update keeps fallback" true c.Peer.fallback_possible

let test_peer_unknown_service_fault () =
  let provider = Peer.create ~name:"p" ~schema:schema_star () in
  let client = Peer.create ~name:"c" ~schema:schema_star () in
  Peer.connect client ~provider;
  (* call directly through the wire: unknown method must fault *)
  let wire = Soap.encode (Soap.Request { method_name = "Nope"; params = [] }) in
  match Soap.decode (Peer.handle_wire provider wire) with
  | Soap.Fault { code = "Client"; _ } -> ()
  | _ -> Alcotest.fail "expected a fault"

(* ------------------------------------------------------------------ *)
(* XML Schema_int roundtrip on random schemas                          *)
(* ------------------------------------------------------------------ *)

let gen_content : Schema.content QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    map R.sym
      (oneofl
         [ Schema.A_label "a"; Schema.A_label "b"; Schema.A_fun "f";
           Schema.A_data ])
  in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [ (3, atom);
          (2, map2 R.seq (gen (n / 2)) (gen (n / 2)));
          (2, map2 R.alt (gen (n / 2)) (gen (n / 2)));
          (1, map R.star (gen (n - 1)));
          (1, map R.plus (gen (n - 1)));
          (1, map R.opt (gen (n - 1)))
        ]
  in
  gen 5

let arb_random_schema =
  let gen =
    let open QCheck.Gen in
    let* root_content = gen_content in
    let* out_f = gen_content in
    let s = Schema.empty in
    let s = Schema.add_element s "r" root_content in
    let s = Schema.add_element s "a" (R.sym Schema.A_data) in
    let s = Schema.add_element s "b" (R.sym Schema.A_data) in
    let s = Schema.add_function s (Schema.func "f" ~input:R.epsilon ~output:out_f) in
    return (Schema.with_root s "r")
  in
  QCheck.make ~print:(Fmt.str "%a" Schema.pp) gen

let prop_xml_schema_int_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"XML Schema_int printing/parsing preserves every content language"
    arb_random_schema
    (fun s ->
      let s2 =
        try Xml_schema_int.of_string (Xml_schema_int.to_string s)
        with Xml_schema_int.Schema_syntax_error m ->
          QCheck.Test.fail_reportf "reparse failed: %s" m
      in
      let env = Schema.env_of_schema s in
      List.for_all
        (fun label ->
          match Schema.find_element s label, Schema.find_element s2 label with
          | Some c1, Some c2 -> content_language_equal env c1 c2
          | _ -> false)
        (Schema.element_names s)
      && (match Schema.find_function s "f", Schema.find_function s2 "f" with
          | Some f1, Some f2 ->
            content_language_equal env f1.Schema.f_output f2.Schema.f_output
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Parallel batch enforcement                                          *)
(* ------------------------------------------------------------------ *)

module Generate = Axml_core.Generate

(* Results rendered for exact comparison: the document wire syntax on
   success, the printed error otherwise. *)
let render_result = function
  | Ok (doc, (report : Enforcement.report)) ->
    Printf.sprintf "%s#%d"
      (Syntax.to_xml_string ~pretty:false doc)
      (List.length report.Enforcement.invocations)
  | Error e -> Fmt.str "%a" Enforcement.pp_error e

let prop_batch_matches_per_document =
  QCheck.Test.make ~count:25
    ~name:
      "enforce_many returns the per-document results in input order, at \
       any jobs (honest services)"
    QCheck.(pair (oneofl [ 1; 2; 4 ]) small_int)
    (fun (jobs, seed) ->
      let g = Generate.create ~seed schema_star in
      let docs = List.init 24 (fun _ -> Generate.document g) in
      let pipeline () =
        Pipeline.create
          ~config:
            { Enforcement.default_config with Enforcement.fallback_possible = true }
          ~s0:schema_star ~exchange:schema_star2
          ~invoker:(Registry.invoker (make_registry ())) ()
      in
      (* the reference: a per-document loop on a fresh pipeline *)
      let reference = pipeline () in
      let expected = List.map (Pipeline.enforce reference) docs in
      let want = Contract.stats (Pipeline.contract reference) in
      let batch = pipeline () in
      let results = Pipeline.enforce_many batch ~jobs docs in
      let got = Contract.stats (Pipeline.contract batch) in
      (* which analyses hit may differ between domains racing to fill
         the same entry; how many ran and what they filled may not *)
      List.iter
        (fun (name, field) ->
          if field want <> field got then
            QCheck.Test.fail_reportf
              "jobs=%d: batch counted %d %s, loop %d" jobs (field got) name
              (field want))
        Contract.
          [ ("analyses", fun s -> s.hits + s.misses);
            ("entries", fun s -> s.entries) ];
      List.iteri
        (fun i (s, q) ->
          let s = render_result s and q = render_result q in
          if not (String.equal s q) then
            QCheck.Test.fail_reportf
              "jobs=%d: result %d diverges:@.per-document: %s@.batch:        %s"
              jobs i s q)
        (List.combine expected results);
      true)

(* [~jobs] routes enforce_many across domains. *)
let test_parallel_jobs () =
  let p =
    Pipeline.create ~s0:schema_star ~exchange:schema_star2
      ~invoker:(Registry.invoker (make_registry ())) ()
  in
  let c = Pipeline.contract p in
  let before = Contract.stats c in
  let results = Pipeline.enforce_many p ~jobs:2 [ fig2a; fig2a; fig2a; fig2a ] in
  let cache = Contract.diff_stats ~before (Contract.stats c) in
  check_int "four results" 4 (List.length results);
  check "all rewritten" true
    (List.for_all
       (function
         | Ok (_, r) -> r.Enforcement.action = Enforcement.Rewritten
         | Error _ -> false)
       results);
  (* only Get_Temp is materialized (TimeOut may stay intensional under
     the exchange schema): one invocation per document *)
  check_int "batch invocations" 4 (Enforcement.counts results).Enforcement.invocations;
  (* every worker counts on the one shared contract *)
  check "cache activity counted" true
    (cache.Contract.misses > 0 || cache.Contract.hits > 0)

(* A breaker tripped by whichever domain fails first is observed by the
   other: with a permanently-dead service, two domains and a threshold
   of 2, most of the batch must be short-circuited rather than
   attempted. *)
let test_parallel_breaker_shared () =
  let reg = make_registry () in
  Registry.register reg
    (Service.make ~input:(R.sym (Schema.A_label "city"))
       ~output:(R.sym (Schema.A_label "temp")) "Get_Temp"
       (Oracle.failing "permanently down"));
  let guard =
    Resilience.create
      ~policy:
        (Resilience.policy ~max_retries:0 ~breaker_threshold:2
           ~breaker_cooldown_s:3600. ())
      ()
  in
  let config =
    { Enforcement.default_config with Enforcement.resilience = Some guard }
  in
  let p =
    Pipeline.create ~config ~s0:schema_star ~exchange:schema_star2
      ~invoker:(Registry.invoker reg) ()
  in
  let docs = List.init 12 (fun _ -> fig2a) in
  let results = Pipeline.enforce_many p ~jobs:2 docs in
  check "every document faulted" true
    (List.for_all
       (function Error (Enforcement.Service_fault _) -> true | _ -> false)
       results);
  let r = Resilience.stats guard "Get_Temp" in
  check "breaker tripped" true (r.Resilience.trips >= 1);
  check "other domains short-circuited" true (r.Resilience.short_circuited > 0);
  check "attempts stopped after the trip" true
    (r.Resilience.attempts < List.length docs);
  check_int "faults counted" 12 (Enforcement.counts results).Enforcement.faults

let axml_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_xml_schema_int_roundtrip; prop_batch_matches_per_document ]

let test_peer_select_with_predicates () =
  let peer = Peer.create ~name:"library" ~schema:schema_star () in
  Peer.store peer "listing"
    (D.elem "listing"
       [ D.elem "exhibit" [ D.elem "title" [ D.data "Monet" ];
                            D.elem "date" [ D.data "june" ] ];
         D.elem "exhibit" [ D.elem "title" [ D.data "Picasso" ];
                            D.elem "date" [ D.data "july" ] ] ]);
  (match Peer.select peer ~doc:"listing" ~path:"/listing/exhibit[2]/title" with
   | [ D.Elem { label = "title"; children = [ D.Data "Picasso" ]; _ } ] -> ()
   | other -> Alcotest.failf "unexpected: %a" D.pp_forest other);
  check_int "all exhibits" 2
    (List.length (Peer.select peer ~doc:"listing" ~path:"//exhibit"))

let test_peer_three_hop () =
  (* source -> aggregator -> client: the aggregator's provided service
     calls the source through its own registry, so a client call crosses
     two SOAP hops *)
  let source = Peer.create ~name:"source" ~schema:schema_star () in
  Peer.provide source ~name:"Raw_Temp" ~input:(R.sym Schema.A_data)
    ~output:(R.sym (Schema.A_label "temp"))
    (Peer.Const [ D.elem "temp" [ D.data "15" ] ]);
  let aggregator = Peer.create ~name:"aggregator" ~schema:schema_star () in
  Peer.connect aggregator ~provider:source;
  Peer.provide aggregator ~name:"Nice_Temp" ~input:(R.sym Schema.A_data)
    ~output:(R.sym (Schema.A_label "temp"))
    (Peer.Compute
       (fun params -> Registry.invoke (Peer.registry aggregator) "Raw_Temp" params));
  let client = Peer.create ~name:"client" ~schema:schema_star () in
  Peer.connect client ~provider:aggregator;
  match Registry.invoke (Peer.registry client) "Nice_Temp" [ D.data "q" ] with
  | [ D.Elem { label = "temp"; children = [ D.Data "15" ]; _ } ] ->
    check_int "aggregator accounted one upstream call" 1
      (Axml_services.Registry.invocation_count (Peer.registry aggregator))
  | other -> Alcotest.failf "unexpected: %a" D.pp_forest other

(* ------------------------------------------------------------------ *)
(* Allocation (deterministic on a non-flambda compiler: [Gc.minor_words] *)
(* deltas)                                                             *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let example_schema name =
  parse_schema (In_channel.with_open_bin (Filename.concat "../examples/schemas" name)
                  In_channel.input_all)

(* The newspaper pair at k = 2, with services that answer from forests
   generated up front, so that only the exchange path allocates. *)
let newspaper_pipeline () =
  let s0 = example_schema "newspaper_sender.axs" in
  let exchange = example_schema "newspaper_exchange.axs" in
  let env = Schema.env_of_schemas s0 exchange in
  let registry = Registry.create () in
  List.iteri
    (fun i fname ->
      let f = Option.get (Schema.find_function s0 fname) in
      let honest = Oracle.honest_random ~seed:(11 + i) ~env s0 fname in
      let answers = Array.init 16 (fun _ -> honest []) in
      let next = Atomic.make 0 in
      Registry.register registry
        (Service.make ~input:f.Schema.f_input ~output:f.Schema.f_output fname (fun _ ->
             answers.(Atomic.fetch_and_add next 1 land 15))))
    (Schema.function_names s0);
  let config = { Enforcement.default_config with Enforcement.k = 2 } in
  ( Enforcement.Pipeline.create ~config ~s0 ~exchange ~invoker:(Registry.invoker registry) (),
    s0, env )

(* With tracing off, enforcing a document that already conforms
   allocates the report it returns and a small constant: no span
   closure, no boxed gauge, clock value or histogram observation, no
   per-node path. *)
let test_enforce_conforming_alloc () =
  let p, _, _ = newspaper_pipeline () in
  let doc =
    Syntax.of_xml_string
      "<newspaper><title>T</title><date>D</date><temp>15</temp>\
       <exhibit><title>a</title><date>b</date></exhibit></newspaper>"
  in
  (match Enforcement.Pipeline.enforce p doc with
   | Ok (d, { Enforcement.action = Enforcement.Conformed; _ }) ->
     check "unchanged" true (d == doc)
   | _ -> Alcotest.fail "expected Conformed");
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Enforcement.Pipeline.enforce p doc))
        done)
    /. 1000.
  in
  if words > 20. then
    Alcotest.failf "enforcing a conforming document allocated %.1f words (budget 20)" words

(* The [axml batch] loop on the newspaper pair at k = 2 — parse, decode,
   enforce, print — over 400 generated documents, about one and a half
   invocations each: words per document within 5% of what this loop
   measured when its budget was set (180.5, since neither the decode
   nor the print builds a tree). *)
let test_batch_loop_alloc () =
  let p, s0, env = newspaper_pipeline () in
  let stream = Axml_workload.Mix.stream ~seed:3 ~env ~schema:s0 Axml_workload.Mix.steady in
  let xml =
    Array.init 400 (fun _ ->
        Syntax.to_xml_string ~pretty:false (Axml_workload.Mix.next stream).Axml_workload.Mix.doc)
  in
  let loop () =
    Array.iter
      (fun x ->
        match Enforcement.Pipeline.enforce p (Syntax.of_xml_string x) with
        | Ok (d, _) -> ignore (Sys.opaque_identity (Syntax.to_xml_string ~pretty:false d))
        | Error e -> Alcotest.failf "refused: %a" Enforcement.pp_error e)
      xml
  in
  loop ();
  let invocations =
    (Enforcement.counts
       (Array.to_list
          (Array.map (fun x -> Enforcement.Pipeline.enforce p (Syntax.of_xml_string x)) xml)))
      .Enforcement.invocations
  in
  let per_doc = minor_words loop /. float_of_int (Array.length xml) in
  check "about one and a half invocations a document" true
    (let n = float_of_int invocations /. float_of_int (Array.length xml) in
     n > 1. && n < 2.);
  let budget = 180.5 *. 1.05 in
  if per_doc > budget then
    Alcotest.failf "the batch loop allocated %.1f words per document (budget %.1f)" per_doc
      budget

(* Words of the blocks of [d] that are not physically part of a tree or
   list of [shared]: a node that is not shared is 4 words (an element or
   a call) or 2 (a data leaf), a list cell 3. *)
let fresh_words (shared : D.forest list) (d : D.t) =
  let nodes = ref [] and cells = ref [] in
  let rec collect_list l =
    if not (List.memq l !cells) then begin
      cells := l :: !cells;
      match l with [] -> () | n :: rest -> collect n; collect_list rest
    end
  and collect n =
    if not (List.memq n !nodes) then begin
      nodes := n :: !nodes;
      match n with
      | D.Elem { children = l; _ } | D.Call { params = l; _ } -> collect_list l
      | D.Data _ -> ()
    end
  in
  List.iter collect_list shared;
  let rec node n =
    if List.memq n !nodes then 0
    else
      match n with
      | D.Elem { children = l; _ } | D.Call { params = l; _ } -> 4 + list l
      | D.Data _ -> 2
  and list l =
    if List.memq l !cells then 0 else match l with [] -> 0 | n :: rest -> 3 + node n + list rest
  in
  node d

(* The words of a report: per invocation its list cell (3), the located
   record (3), the invocation record (4) and its path's cells, which the
   invocations of one children word share. *)
let report_words (invs : Rewriter.located_invocation list) =
  let paths = ref [] in
  List.fold_left
    (fun acc (li : Rewriter.located_invocation) ->
      let path =
        if List.memq li.Rewriter.at !paths then 0
        else begin
          paths := li.Rewriter.at :: !paths;
          3 * List.length li.Rewriter.at
        end
      in
      acc + 10 + path)
    0 invs

(* What a one-call materialization allocates besides its output and
   report: the materialization's walk record (7 words), the [Ok] and
   its pair (5), the block of the invoked copy the walk enters (8), the
   report's cell before its one reversal (3) and the path cell of the
   exhibit, whose children are not all data (3). *)
let one_call_constant = 26

(* A newspaper document with one [Get_Temp] call, materialized at k = 2
   by a contract whose frames are warm: exactly its new output, its
   report and [one_call_constant]. *)
let one_call_guard () =
  let p, _, _ = newspaper_pipeline () in
  let c = Enforcement.Pipeline.contract p in
  let answer = [ D.elem "temp" [ D.data "15" ] ] in
  let invoker _ _ = answer in
  let doc =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "T" ]; D.elem "date" [ D.data "D" ];
        D.call "Get_Temp" [ D.data "Paris" ];
        D.elem "exhibit" [ D.elem "title" [ D.data "a" ]; D.elem "date" [ D.data "b" ] ] ]
  in
  let out, invs =
    match Rewriter.materialize c ~invoker doc with
    | Ok r -> r
    | Error fs -> Alcotest.failf "refused: %a" Fmt.(list Rewriter.pp_failure) fs
  in
  check_int "one invocation" 1 (List.length invs);
  let expected = fresh_words [ [ doc ]; answer ] out + report_words invs + one_call_constant in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Rewriter.materialize c ~invoker doc))
        done)
    /. 1000.
  in
  if words <> float_of_int expected then
    Alcotest.failf
      "a one-call materialization allocated %.1f words; its output %d, its report %d and \
       the constant %d make %d"
      words (fresh_words [ [ doc ]; answer ] out) (report_words invs) one_call_constant expected

let test_one_call_alloc () = one_call_guard ()

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* A [TimeOut] call whose exhibit holds a [Get_Date] call: at k = 2 the
   exhibit's word is walked again, nested in the newspaper's walk. *)
let timeout_doc tag =
  D.elem "newspaper"
    [ D.elem "title" [ D.data tag ]; D.elem "date" [ D.data "D" ];
      D.elem "temp" [ D.data "15" ]; D.call "TimeOut" [ D.data tag ] ]

let timeout_invoker tag ~on_date fname _ =
  match fname with
  | "TimeOut" ->
    List.init 3 (fun i ->
        let title = D.elem "title" [ D.data (Printf.sprintf "%s-%d" tag i) ] in
        D.elem "exhibit" [ title; D.call "Get_Date" [ title ] ])
  | "Get_Date" ->
    on_date ();
    [ D.elem "date" [ D.data (tag ^ "-date") ] ]
  | f -> Alcotest.failf "unexpected call %s" f

let materialized c doc invoker =
  match Rewriter.materialize c ~invoker doc with
  | Ok (d, invs) ->
    Fmt.str "%a | %a" D.pp d
      Fmt.(list ~sep:semi (fun ppf (li : Rewriter.located_invocation) ->
               pf ppf "%a %s(%a) -> %a" D.pp_path li.Rewriter.at
                 li.Rewriter.invocation.Axml_core.Execute.inv_name D.pp_forest
                 li.Rewriter.invocation.Axml_core.Execute.inv_params D.pp_forest
                 li.Rewriter.invocation.Axml_core.Execute.inv_result))
      invs
  | Error fs -> Fmt.str "error %a" Fmt.(list Rewriter.pp_failure) fs

(* A feed whose entries the sender may ship with a [Price] call: the
   exchange schema wants every entry extensional. *)
let feed_contract () =
  let common =
    {|
root feed
element head = #data
element title = #data
element price = #data
function Fetch : #data -> entry*
function Price : title -> price
|}
  in
  let s0 =
    parse_schema
      ({|
element feed = head.(entry | Fetch)*
element entry = title.(Price | price)
|} ^ common)
  in
  let exchange =
    parse_schema ({|
element feed = head.entry*
element entry = title.price
|} ^ common)
  in
  Contract.create ~k:2 ~s0 ~target:exchange ()

(* A [Fetch] call whose entries each hold a [Price] call: at k = 2 each
   entry's word is walked again, nested in the feed's walk. *)
let fetch_doc tag = D.elem "feed" [ D.elem "head" [ D.data tag ]; D.call "Fetch" [ D.data tag ] ]

let fetch_invoker tag ~on_price fname _ =
  match fname with
  | "Fetch" ->
    List.init 4 (fun i ->
        let title = D.elem "title" [ D.data (Printf.sprintf "%s-%d" tag i) ] in
        D.elem "entry" [ title; D.call "Price" [ title ] ])
  | "Price" ->
    on_price ();
    [ D.elem "price" [ D.data (tag ^ "-price") ] ]
  | f -> Alcotest.failf "unexpected call %s" f

(* Two systhreads of one domain, one enforcing a newspaper and the other
   a feed, meet at a barrier inside every call their nested walks make
   ([Get_Date], [Price]), each in the middle of a walk with a nested
   re-enforcement walk open, so that they alternate at every nested
   walk: four walks hold frames at once, frames are given back in an
   order no single thread would give them back in, and a frame handed
   to both would hold the other's table and word. Each thread's output
   and report must be the one it gets alone. *)
let test_frames_systhreads () =
  let p, _, _ = newspaper_pipeline () in
  let jobs =
    [| (Enforcement.Pipeline.contract p, timeout_doc "left",
        fun ~meet -> timeout_invoker "left" ~on_date:meet);
       (feed_contract (), fetch_doc "right", fun ~meet -> fetch_invoker "right" ~on_price:meet) |]
  in
  let alone = Array.map (fun (c, doc, invoker) -> materialized c doc (invoker ~meet:ignore)) jobs in
  check "both walks nest a re-enforcement" true
    (Array.for_all (fun a -> not (String.starts_with ~prefix:"error" a)) alone);
  let m = Mutex.create () and cond = Condition.create () in
  let arrived = ref 0 and generation = ref 0 and finished = ref 0 in
  (* Waits for the other thread, unless it has finished. *)
  let barrier () =
    Mutex.lock m;
    let gen = !generation in
    incr arrived;
    if !arrived = 2 then begin
      arrived := 0;
      incr generation;
      Condition.broadcast cond
    end
    else
      while !generation = gen && !finished = 0 do Condition.wait cond m done;
    Mutex.unlock m
  in
  for round = 1 to 50 do
    arrived := 0;
    finished := 0;
    let results = Array.make 2 "" in
    let threads =
      Array.mapi
        (fun j (c, doc, invoker) ->
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.lock m;
                  incr finished;
                  Condition.broadcast cond;
                  Mutex.unlock m)
                (fun () -> results.(j) <- materialized c doc (invoker ~meet:barrier)))
            ())
        jobs
    in
    Array.iter Thread.join threads;
    Array.iteri
      (fun j r ->
        if r <> alone.(j) then
          Alcotest.failf "round %d, thread %d:@.got  %s@.want %s" round j r alone.(j))
      results
  done

(* Walks that end in an exception give their frames back: after 10,000
   enforcements whose services raise or whose answers are refused, the
   one-call guard still holds, which it would not if every walk had to
   make a fresh frame. *)
let test_frames_after_failures () =
  let s0 = example_schema "newspaper_sender.axs" in
  let exchange = example_schema "newspaper_exchange.axs" in
  let n = ref 0 in
  let invoker fname _ =
    incr n;
    if !n land 1 = 0 then failwith ("down: " ^ fname) else [ D.elem "bogus" [] ]
  in
  let config = { Enforcement.default_config with Enforcement.k = 2 } in
  let p = Enforcement.Pipeline.create ~config ~s0 ~exchange ~invoker () in
  let faults = ref 0 and refusals = ref 0 in
  for i = 1 to 10_000 do
    match Enforcement.Pipeline.enforce p (timeout_doc (string_of_int (i land 7))) with
    | Error (Enforcement.Service_fault _) -> incr faults
    | Error (Enforcement.Rejected _ | Enforcement.Attempt_failed _) -> incr refusals
    | Ok _ -> Alcotest.fail "expected a failed walk"
  done;
  check "services raised" true (!faults > 0);
  check "answers were refused" true (!refusals > 0);
  one_call_guard ()

(* A walk over a 100,000-item word grows its frame past what a free frame
   keeps; given back, the frame drops those arrays, so the live heap
   grows by at most [Win.kept_words]. *)
let test_frames_drop_long_words () =
  let s0 =
    parse_schema
      {|
root feed
element feed = head.(entry | Fetch)*
element head = #data
element entry = title.price
element title = #data
element price = #data
function Fetch : #data -> entry*
|}
  in
  let exchange =
    parse_schema
      {|
root feed
element feed = head.entry*
element head = #data
element entry = title.price
element title = #data
element price = #data
|}
  in
  let c = Contract.create ~k:2 ~s0 ~target:exchange () in
  let entry i = D.elem "entry" [ D.elem "title" [ D.data (string_of_int i) ]; D.elem "price" [ D.data "1" ] ] in
  let answer = [ entry (-1) ] in
  let invoker _ _ = answer in
  let feed n = D.elem "feed" (D.elem "head" [ D.data "h" ] :: List.init n entry @ [ D.call "Fetch" [ D.data "q" ] ]) in
  let enforce doc =
    match Rewriter.materialize c ~invoker doc with
    | Ok (d, _) -> ignore (Sys.opaque_identity d)
    | Error fs -> Alcotest.failf "refused: %a" Fmt.(list Rewriter.pp_failure) fs
  in
  enforce (feed 3);
  let long = feed 100_000 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  enforce long;
  let after = live () in
  ignore (Sys.opaque_identity long);
  if after - before > Axml_core.Win.kept_words then
    Alcotest.failf "the live heap grew by %d words (a free frame keeps at most %d)" (after - before)
      Axml_core.Win.kept_words

(* ------------------------------------------------------------------ *)
(* Receive: the one pass against parse, decode, validate               *)
(* ------------------------------------------------------------------ *)

(* The tree route: parse to an [Xml_tree], then decode the tree. The
   oracle of the one-pass parity groups, kept apart from
   [Syntax.of_xml_string], which decodes in the one pass itself. *)
let tree_route wire =
  match Axml_xml.Xml_parser.parse_result wire with
  | Ok tree -> Syntax.of_xml tree
  | Error e -> raise (Syntax.Syntax_error e)

(* What a receiver did before the one pass, and still does to report a
   refusal: parse, decode, list the violations. *)
let reference_receive ctx wire =
  let refusal at detail = { Rewriter.at; reason = Rewriter.Not_instance { detail } } in
  match tree_route wire with
  | exception Syntax.Syntax_error m ->
    Error (Enforcement.Rejected [ refusal [] ("malformed document: " ^ m) ])
  | doc ->
    (match Validate.document_violations ctx doc with
     | [] -> Ok doc
     | vs ->
       Error
         (Enforcement.Rejected
            (List.map
               (fun v ->
                 refusal v.Validate.at (Fmt.str "%a" Validate.pp_violation_kind v.Validate.kind))
               vs)))

(* The same document with the same symbol id at every node. *)
let rec same_ids (a : D.t) (b : D.t) =
  match a, b with
  | D.Elem { id = i; children = c; _ }, D.Elem { id = j; children = e; _ }
  | D.Call { id = i; params = c; _ }, D.Call { id = j; params = e; _ } ->
    i = j && List.length c = List.length e && List.for_all2 same_ids c e
  | D.Data x, D.Data y -> String.equal x y
  | _ -> false

let feed_sender_text = {|
root feed
element feed = head.(entry | Fetch | Expand)*.(entry | Fetch | Expand)*
element head = #data
element entry = title.(Price | price)
element title = #data
element price = #data
function Fetch : #data -> entry*
function Expand : #data -> (entry | Fetch)*
function Price : title -> price
|}

let feed_exchange_text = {|
root feed
element feed = head.entry*
element head = #data
element entry = title.price
element title = #data
element price = #data
|}

(* A receiver of an agreement, and the sender schema its documents are
   generated from. *)
type receiving = {
  pair : string;
  receiver : Peer.t;
  agreed : Schema.t;
  source : Schema.t;
  env : Schema.env;
  vctx : Validate.ctx;
}

let receiving pair source agreed =
  let receiver = Peer.create ~name:("receiver-" ^ pair) ~schema:agreed () in
  { pair; receiver; agreed; source; env = Schema.env_of_schemas source agreed;
    vctx = Contract.ctx (Enforcement.Pipeline.contract (Peer.exchange_pipeline receiver ~exchange:agreed)) }

(* The newspaper and feed pairs, the newspaper sender schema agreed as
   is, under which the intensional documents conform, and a recursive
   schema, under which documents nest as deep as they like. *)
let receivings =
  lazy
    (let example name =
       parse_schema
         (In_channel.with_open_bin (Filename.concat "../examples/schemas" name)
            In_channel.input_all)
     in
     let sender = example "newspaper_sender.axs" in
     [ receiving "newspaper" sender (example "newspaper_exchange.axs");
       receiving "newspaper-intensional" sender sender;
       receiving "feed" (parse_schema feed_sender_text) (parse_schema feed_exchange_text);
       (let nested = parse_schema "root a\nelement a = (a | #data)\n" in
        receiving "nested" nested nested) ])

let outcome_text = function
  | Ok d -> "stored " ^ D.to_string d
  | Error e -> Fmt.str "%a" Enforcement.pp_error e

(* One input: the one pass accepts exactly what the route accepts, with
   the same document and ids, and [Peer.receive] answers and stores as
   the route does. *)
let receive_parity r wire =
  let reference = reference_receive r.vctx wire in
  (match Syntax.of_xml_string_checked r.vctx wire, reference with
   | Some d, Ok d' ->
     if not (D.equal d d' && same_ids d d') then
       Alcotest.failf "%s: %S: one pass decoded %a, the route %a" r.pair wire D.pp d D.pp d'
   | None, Error _ -> ()
   | Some d, Error _ ->
     Alcotest.failf "%s: %S: one pass accepted %a, the route refuses it: %s" r.pair wire D.pp d
       (outcome_text reference)
   | None, Ok _ -> Alcotest.failf "%s: %S: one pass refused a conforming document" r.pair wire);
  let got = Peer.receive r.receiver ~exchange:r.agreed ~as_name:"received" wire in
  (match got, reference with
   | Ok d, Ok d' ->
     if not (D.equal d d' && same_ids d d' && Peer.fetch r.receiver "received" == d) then
       Alcotest.failf "%s: %S: received %a, the route %a" r.pair wire D.pp d D.pp d'
   | _ ->
     if outcome_text got <> outcome_text reference then
       Alcotest.failf "%s: %S:@ received: %s@ the route: %s" r.pair wire (outcome_text got)
         (outcome_text reference));
  true

(* A generated document of the pair's source or agreed schema, printed
   compact or indented. *)
let gen_wire r : string QCheck.Gen.t =
  QCheck.Gen.map3
    (fun seed pretty agreed ->
      let schema = if agreed then r.agreed else r.source in
      let stream = Axml_workload.Mix.stream ~seed ~env:r.env ~schema Axml_workload.Mix.steady in
      Syntax.to_xml_string ~pretty (Axml_workload.Mix.next stream).Axml_workload.Mix.doc)
    QCheck.Gen.small_nat QCheck.Gen.bool QCheck.Gen.bool

let gen_receiving = QCheck.Gen.(map (fun i -> List.nth (Lazy.force receivings) i) (int_bound 3))

let prop_receive_generated =
  QCheck.Test.make ~count:600 ~name:"generated documents: one pass = parse, decode, validate"
    (QCheck.make QCheck.Gen.(gen_receiving >>= fun r -> map (fun w -> (r, w)) (gen_wire r))
       ~print:(fun (r, w) -> r.pair ^ ": " ^ String.escaped w))
    (fun (r, w) -> receive_parity r w)

(* [k] rounds of [Xml_fuzz.mutate]. *)
let rec mutations k s =
  QCheck.Gen.(if k = 0 then return s else Xml_fuzz.mutate s >>= mutations (k - 1))

let prop_receive_mutated =
  QCheck.Test.make ~count:1500 ~name:"mutated wire documents: one pass = parse, decode, validate"
    (QCheck.make
       QCheck.Gen.(
         gen_receiving >>= fun r ->
         pair (gen_wire r) (frequencyl [ (4, 1); (2, 2); (1, 3) ]) >>= fun (w, k) ->
         map (fun w -> (r, w)) (mutations k w))
       ~print:(fun (r, w) -> r.pair ^ ": " ^ String.escaped w))
    (fun (r, w) -> receive_parity r w)

(* Hand-written inputs, each received under every pair. *)
let receive_cases =
  let int = Printf.sprintf "xmlns:int=\"%s\"" Syntax.axml_ns in
  let head = "<title>t</title><date>d</date>" in
  let prefixes n =
    String.concat "" (List.init n (fun i -> Printf.sprintf " xmlns:p%d=\"urn:p%d\"" i i))
  in
  [ (* conforming, and prefixed labels *)
    "<newspaper>" ^ head ^ "<temp>15</temp><exhibit><title>a</title><date>b</date></exhibit></newspaper>";
    "<x:newspaper xmlns:x=\"urn:x\"><x:title>t</x:title><date>d</date><x:temp>1</x:temp></x:newspaper>";
    (* a prefix rebound mid-document: int:fun below the rebinding is a plain element *)
    Printf.sprintf "<newspaper %s>%s<temp>1</temp><exhibit xmlns:int=\"urn:other\"><title>a</title><int:fun methodName=\"Get_Date\"/></exhibit></newspaper>" int head;
    Printf.sprintf "<newspaper %s>%s<int:fun methodName=\"Get_Temp\"><int:params><int:param>Paris</int:param></int:params></int:fun><exhibit xmlns:int=\"urn:other\"><title>a</title><date>b</date></exhibit></newspaper>" int head;
    (* int declared only on the root *)
    Printf.sprintf "<newspaper %s>%s<int:fun methodName=\"Get_Temp\"><int:params><int:param>Paris</int:param></int:params></int:fun><int:fun methodName=\"TimeOut\"><int:params><int:param>x</int:param></int:params></int:fun></newspaper>" int head;
    (* a methodName with an entity reference *)
    Printf.sprintf "<newspaper>%s<int:fun %s methodName=\"Get&#95;Temp\"><int:params><int:param>Paris</int:param></int:params></int:fun></newspaper>" head int;
    Printf.sprintf "<newspaper>%s<int:fun %s methodName=\"Get_Temp\" methodName=\"TimeOut\"/><temp>1</temp></newspaper>" head int;
    (* CDATA, comments and PIs between children *)
    "<newspaper><!-- c --><title>t</title><?pi x?><date>d</date>\n  <temp>1</temp><!--z--></newspaper>";
    "<newspaper>" ^ head ^ "<![CDATA[x]]><temp>1</temp></newspaper>";
    "<newspaper><title><![CDATA[a]]><![CDATA[b]]></title><date>d</date><temp>1</temp></newspaper>";
    (* a text run broken by a comment *)
    "<newspaper><title>ab<!--c-->cd</title><date>d</date><temp>1</temp></newspaper>";
    (* \r\n in text *)
    "<newspaper><title>a\r\nb\rc</title><date>d</date><temp>1</temp></newspaper>";
    (* 64 and 65 bound prefixes *)
    "<newspaper" ^ prefixes 63 ^ " xmlns=\"urn:d\">" ^ head ^ "<temp>1</temp></newspaper>";
    "<newspaper" ^ prefixes 65 ^ ">" ^ head ^ "<temp>1</temp></newspaper>";
    (* an unknown label, the wrong root, an undeclared function *)
    "<newspaper>" ^ head ^ "<bogus/><temp>1</temp></newspaper>";
    "<title>x</title>";
    Printf.sprintf "<newspaper %s>%s<int:fun methodName=\"Nope\"/></newspaper>" int head;
    Printf.sprintf "<int:fun %s methodName=\"TimeOut\"/>" int;
    (* a second int:params, stray content, a missing methodName *)
    Printf.sprintf "<newspaper %s>%s<int:fun methodName=\"Get_Temp\"><int:params><int:param>P</int:param></int:params><int:params/></int:fun></newspaper>" int head;
    Printf.sprintf "<newspaper %s>%s<int:fun methodName=\"Get_Temp\">x<int:params/></int:fun></newspaper>" int head;
    Printf.sprintf "<newspaper %s>%s<int:fun endpointURL=\"u\"/></newspaper>" int head;
    (* malformed bytes, two roots, an empty root *)
    "<newspaper><title>t</title>";
    "<newspaper/><newspaper/>";
    "<newspaper/>";
    "";
    (* stacks past their first size: 300 exhibits, 100 nested elements *)
    "<newspaper>" ^ head ^ "<temp>1</temp>"
    ^ String.concat "" (List.init 300 (fun i -> Printf.sprintf "<exhibit><title>%d</title><date>d</date></exhibit>" i))
    ^ "</newspaper>";
    String.concat "" (List.init 100 (fun _ -> "<a>")) ^ "x" ^ String.concat "" (List.init 100 (fun _ -> "</a>"));
    String.concat "" (List.init 100 (fun _ -> "<a>")) ^ "x" ^ String.concat "" (List.init 99 (fun _ -> "</a>"));
    (* the feed pair *)
    "<feed><head>h</head><entry><title>a</title><price>1</price></entry></feed>";
    Printf.sprintf "<feed %s><head>h</head><int:fun methodName=\"Fetch\"><int:params><int:param>q</int:param></int:params></int:fun></feed>" int ]

let test_receive_cases () =
  List.iter
    (fun r -> List.iter (fun w -> ignore (receive_parity r w)) receive_cases)
    (Lazy.force receivings);
  (* the cases reach both verdicts on the one pass *)
  let r = List.hd (Lazy.force receivings) in
  check "the conforming case passes in one pass" true
    (Option.is_some (Syntax.of_xml_string_checked r.vctx (List.hd receive_cases)))

(* The words of a decoded document: 4 an element or call (its name is
   the interner's), 3 a list cell, 2 a data leaf and its string's. *)
let rec doc_words (d : D.t) =
  match d with
  | D.Data s -> 2 + (String.length s / 8) + 2
  | D.Elem { children = l; _ } | D.Call { params = l; _ } ->
    List.fold_left (fun w c -> w + 3 + doc_words c) 4 l

(* What a conforming receive allocates besides its document: the pull
   reader (6), the decoder's [Some] (2) and the [Ok] (2). Its pipeline
   is looked up by the exchange schema alone, with no slot and no
   option. *)
let receive_constant = 10

(* [Peer.receive] of a conforming newspaper: its document and the
   constant, nothing per token, per name or per check. *)
let test_receive_conforming_alloc () =
  let r = List.hd (Lazy.force receivings) in
  let wire =
    "<newspaper><title>The Sun</title><date>04/10/2002</date><temp>15</temp>\
     <exhibit><title>Monet</title><date>june</date></exhibit></newspaper>"
  in
  let doc =
    match Peer.receive r.receiver ~exchange:r.agreed ~as_name:"x" wire with
    | Ok d -> d
    | Error e -> Alcotest.failf "refused: %a" Enforcement.pp_error e
  in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Peer.receive r.receiver ~exchange:r.agreed ~as_name:"x" wire))
        done)
    /. 1000.
  in
  let budget = doc_words doc + receive_constant in
  if words > float_of_int budget then
    Alcotest.failf "a conforming receive allocated %.1f words; its document is %d, with the \
                    constant %d" words (doc_words doc) budget

(* ------------------------------------------------------------------ *)
(* Decode: the unchecked one pass against the tree route               *)
(* ------------------------------------------------------------------ *)

let decoded decode wire =
  match decode wire with d -> Ok d | exception Syntax.Syntax_error m -> Error m

(* One input: [Syntax.of_xml_string] returns the tree route's document,
   with the same symbol ids and the same compact print, or raises the
   tree route's error, with the same text. *)
let decode_parity wire =
  (match decoded Syntax.of_xml_string wire, decoded tree_route wire with
   | Ok d, Ok d' ->
     let print = Syntax.to_xml_string ~pretty:false in
     if not (D.equal d d' && same_ids d d' && String.equal (print d) (print d')) then
       Alcotest.failf "%S: decoded %a, the tree route %a" wire D.pp d D.pp d'
   | Error m, Error m' ->
     if not (String.equal m m') then
       Alcotest.failf "%S: refused with %S, the tree route with %S" wire m m'
   | Ok d, Error m -> Alcotest.failf "%S: decoded %a, the tree route refuses it: %s" wire D.pp d m
   | Error m, Ok d -> Alcotest.failf "%S: refused (%s), the tree route decodes %a" wire m D.pp d);
  true

let prop_decode_generated =
  QCheck.Test.make ~count:600 ~name:"generated documents: one pass = the tree route"
    (QCheck.make QCheck.Gen.(gen_receiving >>= gen_wire) ~print:String.escaped)
    decode_parity

let prop_decode_mutated =
  QCheck.Test.make ~count:1500 ~name:"mutated documents: one pass = the tree route"
    (QCheck.make
       QCheck.Gen.(
         gen_receiving >>= gen_wire >>= fun w ->
         frequencyl [ (4, 1); (2, 2); (1, 3) ] >>= fun k -> mutations k w)
       ~print:String.escaped)
    decode_parity

(* The receive cases, and one or more inputs for every offence that
   sends the one pass to the tree route. *)
let decode_cases =
  let int = Printf.sprintf "xmlns:int=\"%s\"" Syntax.axml_ns in
  let head = "<title>t</title><date>d</date>" in
  let in_newspaper body = Printf.sprintf "<newspaper %s>%s%s</newspaper>" int head body in
  let get_temp body = in_newspaper ("<int:fun methodName=\"Get_Temp\">" ^ body ^ "</int:fun>") in
  receive_cases
  @ [ (* names no schema declared: a label, a function, one deep in the document *)
      in_newspaper "<decode_unseen_label/>";
      in_newspaper "<int:fun methodName=\"Decode_unseen_fn\"/>";
      "<a><a><a><a>x<decode_unseen_label>y</decode_unseen_label></a></a></a></a>";
      (* the int prefix unbound: int:fun is an element named fun *)
      "<newspaper><int:fun methodName=\"Get_Temp\"/></newspaper>";
      (* content a call skips or refuses: an element before int:params,
         with or without them, and text or CDATA before or after them *)
      get_temp "<city>Paris</city><int:params/>";
      get_temp "<city>Paris</city>";
      get_temp "<int:params/>x";
      get_temp "<int:params/><![CDATA[ ]]>";
      get_temp "<![CDATA[c]]><int:params/>";
      get_temp "<int:params>x</int:params>";
      get_temp "<int:params><city/></int:params>";
      in_newspaper "<int:fun>x</int:fun>";
      (* layout around int:params, no parameters, a call in a parameter *)
      get_temp "\n <!-- c --><?p?>\n<int:params>\n<int:param>P</int:param>\n</int:params>\n";
      in_newspaper "<int:fun methodName=\"TimeOut\"></int:fun>";
      in_newspaper
        "<int:fun methodName=\"TimeOut\"><int:params><int:param><int:fun \
         methodName=\"Get_Temp\"><int:params><int:param><city>P</city></int:param></int:params>\
         </int:fun></int:param><int:param>x</int:param></int:params></int:fun>";
      (* no root, two roots, bytes after the root *)
      "<!-- only a comment -->";
      "  \n ";
      "<title>a</title><title>b</title>";
      "<newspaper/>junk";
      "<newspaper/><!-- c --><?p?>";
      (* malformed bytes mid-document *)
      "<newspaper><title>&bogus;</title></newspaper>";
      "<newspaper><title>t</date></newspaper>";
      (* a document no schema accepts is decoded all the same *)
      "<newspaper><temp>1</temp><temp>2</temp></newspaper>";
      (* 40 frames open at once *)
      String.concat "" (List.init 40 (fun _ -> "<a>")) ^ "x" ^ String.concat "" (List.init 40 (fun _ -> "</a>")) ]

let test_decode_cases () =
  ignore (Lazy.force receivings);
  List.iter (fun w -> ignore (decode_parity w)) decode_cases

(* What a decode allocates besides its document: the pull reader (6).
   A call that declares int itself, as every printed call does, puts
   the declaration in force with one list cell (3). *)
let decode_constant = 6
let declaring_call_words = 3

let decode_alloc_wire =
  Printf.sprintf
    "<newspaper><title>The Sun</title><date>04/10/2002</date><int:fun xmlns:int=\"%s\" \
     methodName=\"Get_Temp\"><int:params><int:param>Paris</int:param>\
     </int:params></int:fun><exhibit><title>Monet</title><date>june</date></exhibit></newspaper>"
    Syntax.axml_ns

(* [Syntax.of_xml_string] of a newspaper whose names are declared, with
   one call: its document, the constant and the call's binding, nothing
   per token, per name or per tree node. *)
let test_decode_alloc () =
  ignore (Lazy.force receivings);
  let doc = Syntax.of_xml_string decode_alloc_wire in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Syntax.of_xml_string decode_alloc_wire))
        done)
    /. 1000.
  in
  let expected = doc_words doc + decode_constant + (declaring_call_words * D.count_calls doc) in
  if words <> float_of_int expected then
    Alcotest.failf "a batch decode allocated %.1f words; its document is %d, %d in all" words
      (doc_words doc) expected

(* [f ()] in a systhread whose stack may grow to 32k words, far less
   than a recursion over 100,000 levels needs. *)
let in_small_stack f =
  let limit = (Gc.get ()).Gc.stack_limit in
  Gc.set { (Gc.get ()) with Gc.stack_limit = 32_768 };
  let result = ref (Error Exit) in
  Thread.join (Thread.create (fun () -> result := (try Ok (f ()) with e -> Error e)) ());
  Gc.set { (Gc.get ()) with Gc.stack_limit = limit };
  !result

(* A 100,000-deep chain of the nested schema's [a] decodes in the one
   pass on a stack where the tree route's recursion overflows. The
   stacks it grew are not kept: the live heap is what it was before,
   and the next decode allocates its document and the constant. *)
let test_decode_deep () =
  ignore (Lazy.force receivings);
  let depth = 100_000 in
  let wire =
    String.concat "" (List.init depth (fun _ -> "<a>")) ^ "x"
    ^ String.concat "" (List.init depth (fun _ -> "</a>"))
  in
  (match in_small_stack (fun () -> ignore (tree_route wire)) with
   | Error Stack_overflow -> ()
   | _ -> Alcotest.fail "the tree route must overflow the small stack");
  let rec chain n (d : D.t) =
    match d with
    | D.Elem { label = "a"; id; children = [ c ] } when id >= 0 -> chain (n + 1) c
    | D.Data "x" -> n
    | _ -> -1
  in
  let small = "<a><a>x</a></a>" in
  ignore (Syntax.of_xml_string small);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  (match in_small_stack (fun () -> chain 0 (Syntax.of_xml_string wire)) with
   | Ok n -> check_int "depth" depth n
   | Error e -> Alcotest.failf "the one pass raised %s" (Printexc.to_string e));
  let after = live () in
  if after - before > 1_000 then
    Alcotest.failf "the live heap grew by %d words over a deep decode" (after - before);
  let expected = doc_words (tree_route small) + decode_constant in
  let words =
    minor_words (fun () -> ignore (Sys.opaque_identity (Syntax.of_xml_string small)))
  in
  if words <> float_of_int expected then
    Alcotest.failf "the decode after a deep one allocated %.0f words, not %d" words expected

(* ------------------------------------------------------------------ *)
(* Print: the document printer against the tree route                  *)
(* ------------------------------------------------------------------ *)

(* [Syntax.to_xml_string] prints what [Xml_print] prints of [to_xml],
   in both modes. *)
let print_parity doc =
  let tree = Syntax.to_xml doc in
  List.iter
    (fun (mode, pretty, route) ->
      let got = Syntax.to_xml_string ~pretty doc and want = route tree in
      if not (String.equal got want) then
        Alcotest.failf "%s: %a@ printed %S@ the tree route %S" mode D.pp doc got want)
    [ ("compact", false, Axml_xml.Xml_print.to_string);
      ("indented", true, Axml_xml.Xml_print.to_pretty_string ~xml_decl:true) ];
  true

let prop_print_mix =
  QCheck.Test.make ~count:500 ~name:"Mix documents print as the tree route prints them"
    (QCheck.make
       QCheck.Gen.(
         triple gen_receiving (int_bound 100_000) bool >>= fun (r, seed, agreed) ->
         let schema = if agreed then r.agreed else r.source in
         let stream = Axml_workload.Mix.stream ~seed ~env:r.env ~schema Axml_workload.Mix.steady in
         return (Axml_workload.Mix.next stream).Axml_workload.Mix.doc)
       ~print:D.to_string)
    print_parity

(* Documents whose text, names and shapes the printer must take care
   of: the bytes it escapes, "]]>", CR, tab, C0 controls and UTF-8;
   empty and adjacent data nodes; calls without parameters, with data
   parameters and nested inside parameters. *)
let gen_hostile_doc =
  let open QCheck.Gen in
  let piece =
    oneofl [ ""; "&"; "<"; ">"; "\""; "'"; "]]>"; "a]]>b"; "\r"; "\r\n"; "\t"; "\n"; "\001";
             "\031"; "\127"; "caf\xc3\xa9"; "\xe6\x97\xa5"; " "; "x" ]
  in
  let text = map (String.concat "") (list_size (int_bound 4) piece) in
  let label = oneofl [ "a"; "b"; "p:q"; "title"; "x-y.z" ] in
  let fn = oneofl [ "F"; "Get_Temp"; "a&b"; "x<y\""; "ab" ] in
  sized_size (int_bound 40)
  @@ fix (fun self n ->
         if n = 0 then
           frequency
             [ (3, map D.data text);
               (1, map (fun l -> D.elem l []) label);
               (1, map (fun f -> D.call f []) fn) ]
         else
           frequency
             [ (2, map D.data text);
               (3, map2 D.elem label (list_size (int_bound 4) (self (n / 2))));
               (1, map2 (fun l t -> D.elem l [ D.data t ]) label text);
               (2, map2 D.call fn (list_size (int_bound 3) (self (n / 2)))) ])

let prop_print_hostile =
  QCheck.Test.make ~count:2000 ~name:"hostile documents print as the tree route prints them"
    (QCheck.make gen_hostile_doc ~print:(fun d -> String.escaped (D.to_string d)))
    print_parity

(* Hand cases: a lone data root, empty data children, a call whose
   parameter is an empty data node, and a chain 1,000 deep alternating
   elements and calls. *)
let test_print_cases () =
  let rec chain n =
    if n = 0 then D.data "end"
    else if n mod 2 = 0 then D.elem "a" [ chain (n - 1) ]
    else D.call "F" [ chain (n - 1); D.data "" ]
  in
  List.iter
    (fun d -> ignore (print_parity d))
    [ D.data "a&b"; D.data ""; D.elem "e" [ D.data "" ]; D.elem "e" [ D.data ""; D.data "" ];
      D.call "F" [ D.data "" ]; D.call "F" [ D.elem "e" [] ];
      D.elem "r" [ D.call "F" [ D.call "G" [ D.data "x" ] ]; D.data "y"; D.elem "z" [] ];
      chain 1000 ]

(* A compact print allocates its output string and nothing else: no
   tree, no frame, no attribute list. *)
let test_print_alloc () =
  let doc =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "The Sun" ]; D.elem "date" [ D.data "04/10/2002" ];
        D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
        D.elem "exhibit" [ D.elem "title" [ D.data "Monet & co" ]; D.elem "date" [ D.data "june" ] ] ]
  in
  let printed = Syntax.to_xml_string ~pretty:false doc in
  let output_words = (String.length printed / 8) + 2 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Syntax.to_xml_string ~pretty:false doc))
        done)
    /. 1000.
  in
  if words <> float_of_int output_words then
    Alcotest.failf "a print allocated %.1f words; its output string is %d" words output_words

(* ------------------------------------------------------------------ *)
(* SOAP mutation fuzz                                                  *)
(* ------------------------------------------------------------------ *)

(* A provider whose one service takes #data and answers a temp. *)
let soap_provider =
  lazy
    (let p = Peer.create ~name:"provider" ~schema:schema_star () in
     Peer.provide p ~name:"Temperature" ~input:(R.sym Schema.A_data)
       ~output:(R.sym (Schema.A_label "temp"))
       (Peer.Const [ D.elem "temp" [ D.data "15" ] ]);
     p)

(* Encoded requests and responses over generated documents. *)
let gen_envelope =
  let open QCheck.Gen in
  let forest =
    map
      (fun (seed, n) ->
        let g = Generate.create ~seed schema_star in
        List.init n (fun _ -> Generate.document g))
      (pair small_nat (int_bound 2))
  in
  let method_name = oneofl [ "Temperature"; "Get_Temp"; "Nope" ] in
  map3
    (fun request method_name forest ->
      Soap.encode
        (if request then Soap.Request { method_name; params = forest }
         else Soap.Response { method_name; result = forest }))
    bool method_name forest

(* An envelope damaged by one to three rounds of bit flips, markup,
   truncations and splices, after a slice of another envelope has been
   spliced in or not. *)
let gen_damaged_envelope =
  let open QCheck.Gen in
  pair gen_envelope gen_envelope >>= fun (a, b) ->
  let n = String.length a and m = String.length b in
  (frequency
     [ (1, return a);
       (1,
        map3
          (fun i j len ->
            String.sub a 0 i ^ String.sub b j (min len (m - j)) ^ String.sub a i (n - i))
          (int_bound n) (int_bound (m - 1)) (int_bound 64)) ]
   >>= fun s -> frequencyl [ (4, 1); (2, 2); (1, 3) ] >>= fun k -> mutations k s)

(* [f wire] returns within a second. *)
let within_a_second f wire =
  let t0 = Unix.gettimeofday () in
  f wire;
  Unix.gettimeofday () -. t0 < 1.0

let prop_soap_decode =
  QCheck.Test.make ~count:1500
    ~name:"soap fuzz: damaged envelopes decode or raise Protocol_error/Unsupported_version"
    (QCheck.make ~print:String.escaped gen_damaged_envelope)
    (within_a_second (fun wire ->
         match Soap.decode wire with
         | _ -> ()
         | exception (Soap.Protocol_error _ | Soap.Unsupported_version _) -> ()))

let prop_soap_handle =
  QCheck.Test.make ~count:1000
    ~name:"soap fuzz: a peer answers damaged envelopes with an envelope it reads"
    (QCheck.make ~print:String.escaped gen_damaged_envelope)
    (within_a_second (fun wire ->
         match Soap.decode (Peer.handle_wire (Lazy.force soap_provider) wire) with
         | Soap.Response _ | Soap.Fault _ -> ()
         | Soap.Request _ -> QCheck.Test.fail_report "the peer answered with a request"))

let () =
  Alcotest.run "axml"
    [ ("syntax",
       [ Alcotest.test_case "roundtrip" `Quick test_syntax_roundtrip;
         Alcotest.test_case "paper XML parses" `Quick test_paper_xml_parses;
         Alcotest.test_case "custom prefix" `Quick test_syntax_custom_prefix_ns;
         Alcotest.test_case "errors" `Quick test_syntax_errors
       ]);
      ("soap",
       [ Alcotest.test_case "roundtrip" `Quick test_soap_roundtrip;
         Alcotest.test_case "garbage" `Quick test_soap_garbage;
         Alcotest.test_case "versioning" `Quick test_soap_versioning;
         Alcotest.test_case "malformed payload" `Quick test_soap_bad_payload
       ]);
      ("soap-fuzz", List.map QCheck_alcotest.to_alcotest [ prop_soap_decode; prop_soap_handle ]);
      ("xml-schema-int",
       [ Alcotest.test_case "parse newspaper schema" `Quick test_xml_schema_int_parse;
         Alcotest.test_case "roundtrip" `Quick test_xml_schema_int_roundtrip;
         Alcotest.test_case "all compositor" `Quick test_xml_schema_int_all;
         Alcotest.test_case "errors" `Quick test_xml_schema_int_errors
       ]);
      ("wsdl", [ Alcotest.test_case "roundtrip + import" `Quick test_wsdl_roundtrip ]);
      ("policy",
       [ Alcotest.test_case "extensional" `Quick test_policy_extensional;
         Alcotest.test_case "restrict" `Quick test_policy_restrict;
         Alcotest.test_case "inconsistent" `Quick test_policy_inconsistent;
         Alcotest.test_case "preserve" `Quick test_policy_preserve
       ]);
      ("enforcement",
       [ Alcotest.test_case "conformed" `Quick test_enforce_conformed;
         Alcotest.test_case "rewritten" `Quick test_enforce_rewritten;
         Alcotest.test_case "rejected" `Quick test_enforce_rejected;
         Alcotest.test_case "possible fallback" `Quick test_enforce_possible_fallback;
         Alcotest.test_case "possible run-time failure" `Quick test_enforce_possible_fails_at_runtime;
         Alcotest.test_case "deep result: k=1 gap, closed at k=2" `Quick
           test_enforce_deep_k_gap
       ]);
      ("pipeline",
       [ Alcotest.test_case "batch stats" `Quick test_pipeline_batch;
         Alcotest.test_case "outcome counters" `Quick test_pipeline_outcome_counters;
         Alcotest.test_case "minimal-k stats" `Quick test_pipeline_minimal_k;
         Alcotest.test_case "from a shared contract" `Quick test_pipeline_of_contract;
         Alcotest.test_case "flaky service recovers" `Quick test_pipeline_flaky_recovers;
         Alcotest.test_case "survives a dead service" `Quick test_pipeline_survives_dead_service;
         Alcotest.test_case "ill-typed service fault" `Quick test_pipeline_ill_typed_service_fault;
         Alcotest.test_case "fault skips possible fallback" `Quick test_pipeline_fault_skips_possible_fallback;
         Alcotest.test_case "peer pipeline caching" `Quick test_peer_exchange_pipeline_cached;
         Alcotest.test_case "parallel jobs config" `Quick test_parallel_jobs;
         Alcotest.test_case "parallel shares the breaker" `Quick test_parallel_breaker_shared
       ]);
      ("properties", axml_qcheck);
      ("receive",
       Alcotest.test_case "hand cases" `Quick test_receive_cases
       :: List.map QCheck_alcotest.to_alcotest [ prop_receive_generated; prop_receive_mutated ]);
      ("allocation",
       [ Alcotest.test_case "enforcing a conforming document" `Quick
           test_enforce_conforming_alloc;
         Alcotest.test_case "the batch loop's words per document" `Quick
           test_batch_loop_alloc;
         Alcotest.test_case "a one-call materialization allocates its output" `Quick
           test_one_call_alloc;
         Alcotest.test_case "a conforming receive allocates its document" `Quick
           test_receive_conforming_alloc;
         Alcotest.test_case "a print allocates its output" `Quick test_print_alloc;
         Alcotest.test_case "a batch decode allocates its document" `Quick test_decode_alloc ]);
      ("decode",
       Alcotest.test_case "hand cases" `Quick test_decode_cases
       :: Alcotest.test_case "a 100,000-deep document" `Quick test_decode_deep
       :: List.map QCheck_alcotest.to_alcotest [ prop_decode_generated; prop_decode_mutated ]);
      ("print",
       Alcotest.test_case "hand cases" `Quick test_print_cases
       :: List.map QCheck_alcotest.to_alcotest [ prop_print_mix; prop_print_hostile ]);
      ("frames",
       [ Alcotest.test_case "systhreads meeting inside nested walks" `Quick
           test_frames_systhreads;
         Alcotest.test_case "failed walks give their frames back" `Quick
           test_frames_after_failures;
         Alcotest.test_case "a long word's arrays are dropped" `Quick
           test_frames_drop_long_words ]);
      ("peers",
       [ Alcotest.test_case "call through SOAP" `Quick test_peer_call_through_soap;
         Alcotest.test_case "serve enforces output" `Quick test_peer_serve_enforces_output;
         Alcotest.test_case "serve rejects parameters" `Quick
           test_peer_serve_rejects_params;
         Alcotest.test_case "serve leaves conforming io untouched" `Quick
           test_peer_serve_conforming_untouched;
         Alcotest.test_case "serve with the possible fallback" `Quick test_peer_serve_fallback;
         Alcotest.test_case "serve behind a resilience guard" `Quick
           test_peer_serve_resilience;
         Alcotest.test_case "serve is counted and traced" `Quick test_peer_serve_observed;
         Alcotest.test_case "concurrent serve and receive" `Quick
           test_peer_concurrent_serve_receive;
         Alcotest.test_case "concurrent receives store every document" `Quick
           test_peer_concurrent_receives;
         Alcotest.test_case "send document" `Quick test_peer_send_document;
         Alcotest.test_case "receive refusal message" `Quick
           test_peer_receive_refusal_message;
         Alcotest.test_case "fresh labels are not interned" `Quick
           test_fresh_labels_not_interned;
         Alcotest.test_case "node ids never change a verdict" `Quick
           test_node_ids_never_change_a_verdict;
         Alcotest.test_case "unknown service fault" `Quick test_peer_unknown_service_fault;
         Alcotest.test_case "version mismatch fault" `Quick test_peer_version_mismatch_fault;
         Alcotest.test_case "configure" `Quick test_peer_configure;
         Alcotest.test_case "select with predicates" `Quick test_peer_select_with_predicates;
         Alcotest.test_case "three-hop call" `Quick test_peer_three_hop
       ])
    ]
