(* Schema pairs on which the Section 6 reduction must answer "not
   compatible": the only document of [r] is <r><a>..</a></r>, and no
   rewriting of it lands in the exchange schema's model of [r]. Each
   exchange schema widens [r] with a wildcard or a pattern that a
   representative call would match if it were declared in a schema
   (the last pair also puts [#anyfun] in the sender's own model of [r],
   whose representative would then list itself). Shared by the core,
   lint, evolution, negotiation and CLI suites. *)

let sender = {|
root r
element r = a
element a = #data
element b = #data
|}

let anyfun_target = {|
root r
element r = b | #anyfun
element a = #data
element b = #data
|}

let pattern_target = {|
root r
element r = b | P
element a = #data
element b = #data
pattern P : () -> a
|}

let anyfun_sender = {|
root r
element r = a | #anyfun
element a = #data
element b = #data
function F : () -> b
|}

let anyfun_sender_target = {|
root r
element r = b | #anyfun
element a = #data
element b = #data
function F : () -> b
|}

(* (name, sender text, exchange text) *)
let pairs =
  [ ("#anyfun target", sender, anyfun_target);
    ("pattern target", sender, pattern_target);
    ("#anyfun in both models", anyfun_sender, anyfun_sender_target) ]

(* The game Section 6 decides has no look-ahead. Both documents of [r]
   rewrite safely one at a time (<r>F a</r> keeps F, <r>F b</r> invokes
   it), but a strategy must choose for F before it sees a or b: the
   pair is not compatible. *)
let lookahead_sender = {|
root r
element r = F.(a|b)
element a = #data
element b = #data
element c = #data
function F : () -> c
|}

let lookahead_target = {|
root r
element r = F.a | c.b
element a = #data
element b = #data
element c = #data
function F : () -> c
|}

(* The two documents of [lookahead_sender], as the CLI reads them. *)
let lookahead_docs =
  List.map
    (fun l ->
      Printf.sprintf
        "<r xmlns:int=\"http://www.activexml.com/ns/int\">\
         <int:fun methodName=\"F\"><int:params/></int:fun><%s>x</%s></r>" l l)
    [ "a"; "b" ]

(* [r] has no document at all: P has no member, so a.P is empty. Every
   document of [r] (there is none) rewrites into this same schema. *)
let empty_content = {|
root r
element r = a.P
element a = #data
pattern P : () -> a
|}

let parse text =
  match Axml_schema.Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> failwith ("fixture schema: " ^ e)
