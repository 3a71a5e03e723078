(* The recursive search-engine example of Section 3: a query answer
   carries some URLs plus a "More" handle — a service call returning more
   URLs and possibly another handle. A receiver that wants plain data
   forces the sender to chase the handles.

   This pattern is NEVER safe at any bounded depth k (the service may
   always return yet another handle), but it is always POSSIBLE — so the
   enforcement module needs the possible-rewriting fallback, and whether
   it succeeds depends on how deep the actual result pages go versus the
   allowed rewriting depth k.

   Run with:  dune exec examples/search_engine.exe *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module D = Axml_core.Document
module Rewriter = Axml_core.Rewriter
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Enforcement = Axml_peer.Enforcement
module Policy = Axml_peer.Policy

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Fmt.failwith "schema error: %s" e

let engine_schema =
  parse_schema
    {|
root results
element results = url*.More?
element url = #data
function More : () -> url*.More?
|}

(* The receiver wants plain URLs only. *)
let plain_schema = Policy.extensional engine_schema

(* A search service whose answer spans [pages] pages: each More call
   returns two URLs and, except on the last page, another More handle. *)
let paged_service ~pages =
  let page = ref 1 in
  Service.make "More" ~input:R.epsilon
    ~output:
      (R.seq
         (R.star (R.sym (Schema.A_label "url")))
         (R.opt (R.sym (Schema.A_fun "More"))))
    (fun _params ->
      incr page;
      let p = !page in
      let urls =
        [ D.elem "url" [ D.data (Fmt.str "http://example.org/p%d/a" p) ];
          D.elem "url" [ D.data (Fmt.str "http://example.org/p%d/b" p) ] ]
      in
      if p < pages then urls @ [ D.call "More" [] ] else urls)

let first_answer =
  D.elem "results"
    [ D.elem "url" [ D.data "http://example.org/p1/a" ];
      D.call "More" [] ]

let attempt ~k ~pages =
  let reg = Registry.create () in
  Registry.register reg (paged_service ~pages);
  let rw = Rewriter.create ~k ~s0:engine_schema ~target:plain_schema () in
  Fmt.pr "k=%d, actual pages=%d: safe? %b, possible? %b -> " k pages
    (Rewriter.check rw first_answer).ok
    (Rewriter.check ~mode:Rewriter.Check_possible rw first_answer).ok;
  let config =
    { Enforcement.default_config with Enforcement.k; fallback_possible = true }
  in
  match
    Enforcement.enforce ~config ~s0:engine_schema ~exchange:plain_schema
      ~invoker:(Registry.invoker reg) first_answer
  with
  | Ok (doc, _) ->
    Fmt.pr "MATERIALIZED %d urls with %d calls@."
      (List.length (D.children doc))
      (Registry.invocation_count reg)
  | Error (Enforcement.Attempt_failed _) ->
    Fmt.pr "attempt FAILED at run time (answer deeper than k)@."
  | Error (Enforcement.Rejected _) -> Fmt.pr "rejected statically@."
  | Error (Enforcement.Service_fault _) -> Fmt.pr "service FAULT@."

let () =
  Fmt.pr "Intensional answer: %a@.@." D.pp first_answer;
  (* the initial answer is page 1; chasing an n-page answer nests the
     returned More handles n-1 deep, so it needs rewriting depth n-1 *)
  attempt ~k:1 ~pages:2;
  attempt ~k:1 ~pages:3;
  attempt ~k:2 ~pages:3;
  attempt ~k:3 ~pages:5;
  attempt ~k:4 ~pages:5;
  Fmt.pr "@.Note: no k makes this SAFE (the signature always allows one \
          more handle); the possible-rewriting fallback is what chases \
          the pages, exactly as discussed in Section 3 of the paper.@."
