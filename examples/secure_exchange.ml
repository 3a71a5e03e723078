(* Security-oriented exchange (the Security and Capabilities motivations
   of the introduction, with the function patterns of Section 2.1):

   - the exchange schema uses a *function pattern* Forecast whose
     predicates are a UDDI-like lookup (UDDIF) and an access-control
     check (InACL), each a yes/no answer for a function name;
   - the receiver accepts a weather call only if it is published AND
     the receiver may call it;
   - everything else must be materialized by the sender — and the
     sender's own registry enforces each service's ACL.

   Run with:  dune exec examples/secure_exchange.exe *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Enforcement = Axml_peer.Enforcement

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Fmt.failwith "schema error: %s" e

(* The sender may embed any of two concrete weather services. *)
let sender_schema =
  parse_schema
    {|
root report
element report = city.(Good_Weather | Shady_Weather | temp)
element city = #data
element temp = #data
function Good_Weather : city -> temp
function Shady_Weather : city -> temp
|}

(* The receiver's schema: a weather call may remain intensional only if
   it matches the Forecast pattern (published + ACL-cleared). *)
let receiver_schema =
  parse_schema
    {|
root report
element report = city.(Forecast | temp)
element city = #data
element temp = #data
function Good_Weather : city -> temp
function Shady_Weather : city -> temp
pattern Forecast requires UDDIF InACL : city -> temp
|}

(* The pattern predicates, answered for a function name: UDDIF (is the
   service published?) and InACL (may the receiver call it?). Only
   Good_Weather is published; an unknown predicate rejects every
   function. *)
let predicate pname fname =
  match pname with
  | "UDDIF" | "InACL" -> fname = "Good_Weather"
  | _ -> false

let services =
  [ Service.make "Good_Weather" ~cost:0.5
      ~input:(R.sym (Schema.A_label "city"))
      ~output:(R.sym (Schema.A_label "temp"))
      (Oracle.constant [ D.elem "temp" [ D.data "21 C" ] ]);
    Service.make "Shady_Weather" ~cost:0.1 ~acl:[ "newspaper.com" ]
      ~input:(R.sym (Schema.A_label "city"))
      ~output:(R.sym (Schema.A_label "temp"))
      (Oracle.constant [ D.elem "temp" [ D.data "19 C (allegedly)" ] ]) ]

(* A sender's registry, calling the services as [principal]. *)
let registry_as principal =
  let reg = Registry.create ~principal () in
  Registry.register_all reg services;
  reg

let registry = registry_as "newspaper.com"

let exchange ?(registry = registry) doc =
  match
    Enforcement.enforce ~predicate ~s0:sender_schema ~exchange:receiver_schema
      ~invoker:(Registry.invoker registry) doc
  with
  | Ok (sent, report) ->
    Fmt.pr "  -> %s: %a@."
      (match report.Enforcement.action with
       | Enforcement.Conformed -> "accepted as-is"
       | Enforcement.Rewritten -> "materialized where required"
       | Enforcement.Rewritten_possible -> "rewritten (possible)")
      D.pp sent
  | Error e -> Fmt.pr "  -> REFUSED: %a@." Enforcement.pp_error e

let () =
  let report call =
    D.elem "report" [ D.elem "city" [ D.data "Paris" ]; call ]
  in
  Fmt.pr "A call to the published, ACL-cleared Good_Weather may stay \
          intensional:@.";
  exchange (report (D.call "Good_Weather" [ D.elem "city" [ D.data "Paris" ] ]));

  Fmt.pr "@.A call to the unpublished Shady_Weather does NOT match the \
          Forecast pattern: the sender must invoke it before sending:@.";
  exchange (report (D.call "Shady_Weather" [ D.elem "city" [ D.data "Paris" ] ]));

  Fmt.pr "@.ACLs on the sender's side: a stranger peer cannot fire \
          Shady_Weather at all:@.";
  exchange ~registry:(registry_as "stranger")
    (report (D.call "Shady_Weather" [ D.elem "city" [ D.data "Paris" ] ]));
  Fmt.pr "@.Total fees paid by the sender: %.2f@." (Registry.total_cost registry)
