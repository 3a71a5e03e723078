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

let parse text =
  match Axml_schema.Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> failwith ("fixture schema: " ^ e)
