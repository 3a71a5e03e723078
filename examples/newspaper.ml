(* The full newspaper scenario: one publisher peer, four receivers with
   the four materialization policies of the paper's introduction
   (performance, capabilities, security, functionalities). Each policy is
   expressed as a *different exchange schema*, derived from the
   publisher's schema with the [Policy] combinators — the paper's central
   idea that schemas control materialization.

   Run with:  dune exec examples/newspaper.exe *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Peer = Axml_peer.Peer
module Policy = Axml_peer.Policy
module Enforcement = Axml_peer.Enforcement

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Fmt.failwith "schema error: %s" e

let publisher_schema =
  parse_schema
    {|
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

let front_page =
  D.elem "newspaper"
    [ D.elem "title" [ D.data "The Sun" ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]

let services =
  [ Service.make "Get_Temp" ~cost:0.1
      ~endpoint:"http://www.forecast.com/soap" ~namespace:"urn:xmethods-weather"
      ~input:(R.sym (Schema.A_label "city"))
      ~output:(R.sym (Schema.A_label "temp"))
      (Oracle.constant [ D.elem "temp" [ D.data "15 C" ] ]);
    Service.make "TimeOut" ~cost:1.0
      ~endpoint:"http://www.timeout.com/paris" ~namespace:"urn:timeout-program"
      ~input:(R.sym Schema.A_data)
      ~output:
        (R.star
           (R.alt (R.sym (Schema.A_label "exhibit"))
              (R.sym (Schema.A_label "performance"))))
      (Oracle.scripted
         [ [ D.elem "exhibit"
               [ D.elem "title" [ D.data "Monet at Orsay" ];
                 D.elem "date" [ D.data "June 2003" ] ];
             D.elem "exhibit"
               [ D.elem "title" [ D.data "Picasso retrospective" ];
                 D.elem "date" [ D.data "July 2003" ] ] ] ])
  ]

let make_publisher () =
  let p = Peer.create ~name:"newspaper.com" ~schema:publisher_schema () in
  Registry.register_all (Peer.registry p) services;
  Peer.store p "front-page" front_page;
  p

let scenario ~name ~why ~exchange ?(config = Peer.default_config)
    ~receiver_schema () =
  Fmt.pr "@.--- %s ---@.%s@." name why;
  let publisher = make_publisher () in
  Peer.configure publisher config;
  let receiver = Peer.create ~name:"receiver" ~schema:receiver_schema () in
  match Peer.send publisher ~receiver ~exchange ~as_name:"front-page" front_page with
  | Error e -> Fmt.pr "exchange REFUSED: %a@." Enforcement.pp_error e
  | Ok outcome ->
    let invoked =
      List.map
        (fun li -> li.Axml_core.Rewriter.invocation.Axml_core.Execute.inv_name)
        outcome.Peer.report.Enforcement.invocations
    in
    Fmt.pr "action: %s@."
      (match outcome.Peer.report.Enforcement.action with
       | Enforcement.Conformed -> "sent as-is (already conforms)"
       | Enforcement.Rewritten -> "safely rewritten before sending"
       | Enforcement.Rewritten_possible -> "rewritten (possible mode)");
    Fmt.pr "invoked before sending: %a@." Fmt.(list ~sep:comma string) invoked;
    Fmt.pr "wire size: %d bytes, remaining embedded calls: %d@."
      outcome.Peer.wire_bytes (D.count_calls outcome.Peer.sent);
    Fmt.pr "publisher fees paid: %.2f@."
      (Registry.total_cost (Peer.registry publisher))

let () =
  Fmt.pr "Publisher document: %a@." D.pp front_page;

  (* CAPABILITIES: the receiver is a plain browser, it cannot invoke
     anything — the exchange schema forbids every function node. *)
  scenario ~name:"capabilities: plain browser"
    ~why:"The reader's browser cannot handle intensional parts: the \
          exchange schema is the extensional projection, so the sender \
          must materialize everything. No SAFE rewriting exists (TimeOut \
          may return performances), so the sender enables the \
          possible-rewriting fallback and the attempt succeeds when \
          TimeOut actually returns exhibits."
    ~exchange:(Policy.extensional publisher_schema)
    ~config:{ Peer.default_config with Peer.fallback_possible = true }
    ~receiver_schema:(Policy.extensional publisher_schema) ();

  (* SECURITY: the receiver only trusts the TimeOut service. *)
  scenario ~name:"security: trusted-services list"
    ~why:"The receiver refuses documents with calls to services outside \
          its trust list {TimeOut}: Get_Temp must be materialized away."
    ~exchange:(Policy.restrict_functions ~trust:(String.equal "TimeOut") publisher_schema)
    ~receiver_schema:publisher_schema ();

  (* PERFORMANCE: the sender is overloaded and delegates everything. *)
  scenario ~name:"performance: overloaded sender"
    ~why:"The sender keeps every call intensional (smaller file, zero \
          fees) and lets the receiver materialize on demand."
    ~exchange:publisher_schema ~receiver_schema:publisher_schema ();

  (* FUNCTIONALITIES: the origin of the temperature is what is requested
     (UDDI-registry style): Get_Temp must NOT be materialized. *)
  scenario ~name:"functionalities: provenance must be preserved"
    ~why:"The receiver wants the temperature *service*, not a stale \
          value: Get_Temp is marked non-invocable, so no rewriting may \
          fire it."
    ~exchange:(Policy.preserve_functions ~keep:(String.equal "Get_Temp") publisher_schema)
    ~receiver_schema:publisher_schema ();

  Fmt.pr "@.Done.@."
