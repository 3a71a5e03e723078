(* Schema negotiation (Section 6 + the "negotiator" of the conclusion):
   before any data flows, the sender checks — at the schema level, no
   document in hand — which of the receiver's preference-ordered
   proposals ALL its documents can be safely rewritten into (the
   Section 6 test, [Schema_rewrite.check], which `axml compat` runs),
   then exchanges under the first one that passes.

   Run with:  dune exec examples/negotiation.exe *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Contract = Axml_core.Contract
module Schema_rewrite = Axml_core.Schema_rewrite
module Enforcement = Axml_peer.Enforcement

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Fmt.failwith "schema error: %s" e

let common = {|
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
|}

let sender_schema =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|} ^ common)

(* The receiver's proposals, most restrictive first. *)
let proposals =
  [ ( "fully-extensional (exhibits only)",
      parse_schema
        ({|
root newspaper
element newspaper = title.date.temp.exhibit*
|} ^ common) );
    ( "temperature materialized",
      parse_schema
        ({|
root newspaper
element newspaper = title.date.temp.(TimeOut | exhibit*)
|} ^ common) );
    ("anything goes", sender_schema) ]

(* The labels whose documents cannot all be safely rewritten into the
   proposal, with the reason; none when every document can. *)
let unsafe_labels schema =
  let result =
    Schema_rewrite.check ~root:"newspaper" (Contract.create ~s0:sender_schema ~target:schema ())
  in
  List.filter (fun v -> v.Schema_rewrite.v_verdict <> Contract.Safe) result.Schema_rewrite.verdicts

let pp_unsafe ppf (v : Schema_rewrite.label_verdict) =
  Fmt.pf ppf "%s (%s)" v.v_label (Option.value ~default:"?" v.v_reason)

let () =
  Fmt.pr "Negotiating an exchange schema for newspaper documents...@.";
  let rec first_fit = function
    | [] -> None
    | (name, schema) :: rest ->
      (match unsafe_labels schema with
       | [] -> Some (name, schema)
       | bad ->
         Fmt.pr "rejected %s: %a@." name Fmt.(list ~sep:(any "; ") pp_unsafe) bad;
         first_fit rest)
  in
  match first_fit proposals with
  | None -> Fmt.pr "no agreement possible@."
  | Some (name, agreed) ->
    Fmt.pr "AGREED on: %s@." name;
    (* now exchange a document under the agreed schema *)
    let reg = Registry.create () in
    Registry.register_all reg
      [ Service.make "Get_Temp" ~input:(R.sym (Schema.A_label "city"))
          ~output:(R.sym (Schema.A_label "temp"))
          (Oracle.constant [ D.elem "temp" [ D.data "15 C" ] ]) ];
    let doc =
      D.elem "newspaper"
        [ D.elem "title" [ D.data "The Sun" ];
          D.elem "date" [ D.data "04/10/2002" ];
          D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
          D.call "TimeOut" [ D.data "exhibits" ] ]
    in
    (match
       Enforcement.enforce ~s0:sender_schema
         ~exchange:agreed
         ~invoker:(Registry.invoker reg) doc
     with
     | Ok (sent, _) ->
       Fmt.pr "@.exchanged document: %a@." D.pp sent
     | Error e -> Fmt.pr "enforcement failed: %a@." Enforcement.pp_error e)
