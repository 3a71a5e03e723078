(* Tests for the rewriting engine (lib/core): the paper's worked examples
   (Figures 2, 4-8, 10-11), depth-k behaviour, restricted invocations,
   patterns/wildcards, validation, generation, execution — plus qcheck
   properties cross-checking the automata-based engines against a
   brute-force reference implementation of the k-depth left-to-right
   game on star-free (finite-language) signatures. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module D = Axml_core.Document
module Contract = Axml_core.Contract
module Rewriter = Axml_core.Rewriter
module Marking = Axml_oracle.Marking
module Possible = Axml_oracle.Possible
module Reference = Axml_oracle.Reference
module Execute = Axml_core.Execute
module Validate = Axml_core.Validate
module Generate = Axml_core.Generate
module Schema_rewrite = Axml_core.Schema_rewrite
module Fork_automaton = Axml_oracle.Fork_automaton
module Win = Axml_core.Win

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema parse error: %s" e

(* ------------------------------------------------------------------ *)
(* The paper's running example                                         *)
(* ------------------------------------------------------------------ *)

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

(* schema 'star' of Section 2 *)
let schema_star =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|} ^ common)

(* schema 'star-star' *)
let schema_star2 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.(TimeOut | exhibit*)
|} ^ common)

(* schema 'star-star-star' *)
let schema_star3 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.exhibit*
|} ^ common)

(* the document of Figure 2.a *)
let fig2a =
  D.elem "newspaper"
    [ D.elem "title" [ D.data "The Sun" ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]

let honest_exhibit () =
  D.elem "exhibit" [ D.elem "title" [ D.data "Monet" ]; D.elem "date" [ D.data "today" ] ]

(* An honest service oracle for the example. *)
let honest_invoker ?(timeout_returns = `Exhibits) name _params =
  match name with
  | "Get_Temp" -> [ D.elem "temp" [ D.data "15 C" ] ]
  | "Get_Date" -> [ D.elem "date" [ D.data "04/10/2002" ] ]
  | "TimeOut" ->
    (match timeout_returns with
     | `Exhibits -> [ honest_exhibit (); honest_exhibit () ]
     | `Performance ->
       [ D.elem "performance"
           [ D.elem "title" [ D.data "Hamlet" ]; D.elem "date" [ D.data "tonight" ] ] ])
  | other -> Alcotest.failf "unexpected call to %s" other

let newspaper_word =
  [ Symbol.Label "title"; Symbol.Label "date"; Symbol.Fun "Get_Temp";
    Symbol.Fun "TimeOut" ]

let rewriter ?(k = 1) target = Rewriter.create ~k ~s0:schema_star ~target ()

let contract target = Contract.create ~s0:schema_star ~target ()

let contract_regex c label =
  match Contract.element_regex c label with
  | Some r -> r
  | None -> Alcotest.failf "no content model for %s" label

(* Figure 4: the A_w^1 automaton for the newspaper word. *)
let test_fork_automaton_shape () =
  let rw = rewriter schema_star2 in
  let fork =
    Fork_automaton.build ~outputs:(Fork_automaton.outputs (Rewriter.env rw)) ~k:1
      newspaper_word
  in
  let stats = Fork_automaton.stats fork in
  (* base: 5 states; Get_Temp output "temp" Glushkov: 2 states;
     TimeOut output "(exhibit|performance)*": 3 states *)
  check_int "states" 10 stats.Fork_automaton.states;
  check_int "forks" 2 stats.Fork_automaton.forks;
  (* base 4 edges + 1 edge in the temp copy + 6 edges in the
     exhibit-or-performance-star copy + 2 invoke eps + 1 exit eps for the
     temp copy + 3 exit eps for the star copy's three finals *)
  check_int "edges" 17 stats.Fork_automaton.edges

(* Figures 5-6: w safely rewrites into the (**) newspaper type; the
   extracted rewriting invokes Get_Temp and keeps TimeOut. *)
let test_safe_into_star2 () =
  let c = contract schema_star2 in
  let regex = contract_regex c "newspaper" in
  let analysis = Contract.safe_run c ~target_regex:regex newspaper_word in
  check "safe" true (Win.ok analysis);
  let items =
    [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]
  in
  match Execute.run analysis (honest_invoker ?timeout_returns:None) items with
  | Error e -> Alcotest.failf "safe execution failed: %a" Execute.pp_failure e
  | Ok outcome ->
    let names = List.map (fun i -> i.Execute.inv_name) outcome.Execute.invocations in
    Alcotest.(check (list string)) "invoked exactly Get_Temp" [ "Get_Temp" ] names;
    Alcotest.(check (list string)) "materialized word"
      [ "title"; "date"; "temp"; "TimeOut()" ]
      (List.map
         (fun d -> match D.symbol d with
            | Symbol.Label l -> l
            | Symbol.Fun f -> f ^ "()"
            | Symbol.Data -> "#data")
         outcome.Execute.materialized)
    |> fun () ->
    (* keep TimeOut intact: last item unchanged *)
    check "TimeOut kept" true
      (match List.rev outcome.Execute.materialized with
       | D.Call { name = "TimeOut"; _ } :: _ -> true
       | _ -> false)

(* Figures 7-8: no safe rewriting into the (***) newspaper type. *)
let test_unsafe_into_star3 () =
  let c = contract schema_star3 in
  let regex = contract_regex c "newspaper" in
  check "unsafe" false (Contract.is_safe c ~target_regex:regex newspaper_word)

(* Figures 10-11: but a possible rewriting exists. *)
let test_possible_into_star3 () =
  let c = contract schema_star3 in
  let regex = contract_regex c "newspaper" in
  let analysis = Contract.possible_run c ~target_regex:regex newspaper_word in
  check "possible" true (Win.ok analysis);
  let items =
    [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]
  in
  (* TimeOut returns only exhibits: the attempt succeeds, both invoked *)
  (match Execute.run analysis
           (honest_invoker ~timeout_returns:`Exhibits) items with
   | Error e -> Alcotest.failf "expected success, got %a" Execute.pp_failure e
   | Ok outcome ->
     let names =
       List.sort compare (List.map (fun i -> i.Execute.inv_name) outcome.Execute.invocations)
     in
     Alcotest.(check (list string)) "both invoked" [ "Get_Temp"; "TimeOut" ] names);
  (* TimeOut returns a performance: the attempt fails (Figure 9c) *)
  let analysis = Contract.possible_run c ~target_regex:regex newspaper_word in
  (match Execute.run analysis
           (honest_invoker ~timeout_returns:`Performance) items with
   | Error Execute.No_possible_path -> ()
   | Error e -> Alcotest.failf "expected No_possible_path, got %a" Execute.pp_failure e
   | Ok _ -> Alcotest.fail "expected run-time failure")

(* Already-conforming words need no invocation at all. *)
let test_already_instance () =
  let c = contract schema_star in
  let regex = contract_regex c "newspaper" in
  let analysis = Contract.safe_run c ~target_regex:regex newspaper_word in
  check "safe" true (Win.ok analysis);
  let items =
    [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]
  in
  match Execute.run analysis
          (fun name _ -> Alcotest.failf "unexpected call to %s" name) items with
  | Error e -> Alcotest.failf "execution failed: %a" Execute.pp_failure e
  | Ok outcome -> check_int "no invocations" 0 (List.length outcome.Execute.invocations)

(* ------------------------------------------------------------------ *)
(* Tree-level: the full document of Figure 2                           *)
(* ------------------------------------------------------------------ *)

let test_document_instance_of_star () =
  let ctx = Validate.ctx schema_star in
  Alcotest.(check (list string)) "no violations" []
    (List.map (Fmt.str "%a" Validate.pp_violation) (Validate.document_violations ctx fig2a))

let test_document_not_instance_of_star2 () =
  let ctx = Validate.ctx ~env:(Schema.env_of_schemas schema_star schema_star2) schema_star2 in
  check "violations found" true (Validate.document_violations ctx fig2a <> [])

let test_materialize_fig2_into_star2 () =
  let rw = rewriter schema_star2 in
  Alcotest.(check (list string)) "check passes" []
    (List.map (Fmt.str "%a" Rewriter.pp_failure) (Rewriter.check rw fig2a).failures);
  match Rewriter.materialize rw ~invoker:(honest_invoker ?timeout_returns:None) fig2a with
  | Error fs ->
    Alcotest.failf "materialize failed: %a" Fmt.(list Rewriter.pp_failure) fs
  | Ok (doc, invs) ->
    let names = List.map (fun li -> li.Rewriter.invocation.Execute.inv_name) invs in
    Alcotest.(check (list string)) "only Get_Temp" [ "Get_Temp" ] names;
    let ctx =
      Validate.ctx ~env:(Schema.env_of_schemas schema_star schema_star2) schema_star2
    in
    Alcotest.(check (list string)) "result conforms" []
      (List.map (Fmt.str "%a" Validate.pp_violation) (Validate.document_violations ctx doc))

let test_materialize_fig2_into_star3_possible () =
  let rw = rewriter schema_star3 in
  check "not safe" false (Rewriter.check rw fig2a).ok;
  check "possible" true (Rewriter.check ~mode:Rewriter.Check_possible rw fig2a).ok;
  match Rewriter.materialize ~mode:Rewriter.Possible rw
          ~invoker:(honest_invoker ~timeout_returns:`Exhibits) fig2a with
  | Error fs ->
    Alcotest.failf "materialize failed: %a" Fmt.(list Rewriter.pp_failure) fs
  | Ok (doc, _) ->
    (* the result still contains Get_Date calls inside returned exhibits?
       No: honest exhibits carry a materialized date, so the document is
       fully extensional here *)
    let ctx =
      Validate.ctx ~env:(Schema.env_of_schemas schema_star schema_star3) schema_star3
    in
    Alcotest.(check (list string)) "result conforms" []
      (List.map (Fmt.str "%a" Validate.pp_violation) (Validate.document_violations ctx doc))

(* Parameters containing calls are rewritten before the call is used
   (the deepest-first phase of Section 4). *)
let test_nested_parameters () =
  let s0 =
    parse_schema
      ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
function Get_City : #data -> city
|} ^ common)
  in
  let doc =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
        D.call "Get_Temp" [ D.call "Get_City" [ D.data "paris" ] ];
        D.call "TimeOut" [ D.data "x" ] ]
  in
  let rw = Rewriter.create ~k:1 ~s0 ~target:schema_star2 () in
  Alcotest.(check (list string)) "check passes" []
    (List.map (Fmt.str "%a" Rewriter.pp_failure) (Rewriter.check rw doc).failures);
  let invoker name params =
    match name with
    | "Get_City" -> [ D.elem "city" [ D.data "Paris" ] ]
    | "Get_Temp" ->
      (* the parameter must have been materialized into a city element *)
      (match params with
       | [ D.Elem { label = "city"; _ } ] -> [ D.elem "temp" [ D.data "15" ] ]
       | _ -> Alcotest.failf "Get_Temp called with unrewritten params")
    | other -> Alcotest.failf "unexpected call to %s" other
  in
  match Rewriter.materialize rw ~invoker doc with
  | Error fs -> Alcotest.failf "failed: %a" Fmt.(list Rewriter.pp_failure) fs
  | Ok (_, invs) ->
    let names = List.map (fun li -> li.Rewriter.invocation.Execute.inv_name) invs in
    check "Get_City before Get_Temp" true
      (names = [ "Get_City"; "Get_Temp" ])

(* A service breaking its WSDL contract is reported as a typed failure
   naming the offender, not an escaping exception. *)
let test_ill_typed_output () =
  let rw = rewriter schema_star2 in
  let bad_invoker name _ =
    match name with
    | "Get_Temp" -> [ D.elem "city" [ D.data "oops" ] ]  (* wrong type! *)
    | _ -> []
  in
  match Rewriter.materialize rw ~invoker:bad_invoker fig2a with
  | Error [ { Rewriter.reason = Rewriter.Ill_typed_service { fname; _ }; _ } as f ] ->
    Alcotest.(check string) "offender named" "Get_Temp" fname;
    check "classified as fault" true (Rewriter.failure_is_fault f)
  | Error fs ->
    Alcotest.failf "expected Ill_typed_service, got %a"
      Fmt.(list Rewriter.pp_failure) fs
  | Ok _ -> Alcotest.fail "expected a typed failure"

(* Regression: the offender must be the invocation whose output breaks
   its declared type — not simply the most recent one. P answers first
   with a forest that is fine at word level but breaks its output type
   at tree level (the walk continues past it, footnote 5 splices it
   as-is); Q answers later with a word-level-invalid forest where the
   walk actually dies. The principled report blames P, the first
   contract breaker — the old head-of-invocations heuristic blamed Q. *)
let offender_common = {|
element u = #data
element v = u
element w = #data
function P : #data -> v
function Q : #data -> w
|}

let test_ill_typed_offender_identified () =
  let s0 =
    parse_schema ({|
root doc
element doc = (P | v).(Q | w)
|} ^ offender_common)
  in
  let target =
    parse_schema ({|
root doc
element doc = v.w
|} ^ offender_common)
  in
  let rw = Rewriter.create ~k:1 ~s0 ~target () in
  let doc = D.elem "doc" [ D.call "P" [ D.data "x" ]; D.call "Q" [ D.data "y" ] ] in
  Alcotest.(check (list string)) "check passes" []
    (List.map (Fmt.str "%a" Rewriter.pp_failure) (Rewriter.check rw doc).failures);
  let invoker name _ =
    match name with
    | "P" -> [ D.elem "v" [ D.data "not-a-u" ] ]  (* tree-level ill-typed *)
    | "Q" -> [ D.elem "u" [ D.data "z" ] ]        (* word-level ill-typed *)
    | other -> Alcotest.failf "unexpected call to %s" other
  in
  match Rewriter.materialize rw ~invoker doc with
  | Error [ { Rewriter.reason = Rewriter.Ill_typed_service { fname; _ }; _ } ] ->
    Alcotest.(check string) "blames the first contract breaker" "P" fname
  | Error fs ->
    Alcotest.failf "expected Ill_typed_service, got %a"
      Fmt.(list Rewriter.pp_failure) fs
  | Ok _ -> Alcotest.fail "expected a typed failure"

(* A crashing service surfaces as a typed Service_failure, and sibling
   fork options are still explored (resilient backtracking). *)
let test_service_error_typed () =
  let rw = rewriter schema_star2 in
  let invoker name _ =
    match name with
    | "Get_Temp" -> failwith "connection refused"
    | _ -> []
  in
  match Rewriter.materialize rw ~invoker fig2a with
  | Error [ { Rewriter.reason = Rewriter.Service_failure { fname; attempts; _ }; _ } as f ] ->
    Alcotest.(check string) "names the service" "Get_Temp" fname;
    check_int "single attempt" 1 attempts;
    check "classified as fault" true (Rewriter.failure_is_fault f)
  | Error fs ->
    Alcotest.failf "expected Service_failure, got %a"
      Fmt.(list Rewriter.pp_failure) fs
  | Ok _ -> Alcotest.fail "expected a typed failure"

(* A structured give-up report from a resilient invoker keeps its
   attempt count through the typed channel. *)
let test_invocation_failed_attempts () =
  let rw = rewriter schema_star2 in
  let invoker name _ =
    match name with
    | "Get_Temp" ->
      raise (Execute.Invocation_failed
               { fname = "Get_Temp"; attempts = 4; cause = Failure "down" })
    | _ -> []
  in
  match Rewriter.materialize rw ~invoker fig2a with
  | Error [ { Rewriter.reason = Rewriter.Service_failure { fname; attempts; _ }; _ } ] ->
    Alcotest.(check string) "names the service" "Get_Temp" fname;
    check_int "attempts preserved" 4 attempts
  | Error fs ->
    Alcotest.failf "expected Service_failure, got %a"
      Fmt.(list Rewriter.pp_failure) fs
  | Ok _ -> Alcotest.fail "expected a typed failure"

(* SAFE-mode walks that fail with zero invocations are an engine
   invariant breach and must say so instead of silently failing: drive
   Execute.run directly with an analysis that does not match the
   items. *)
let test_zero_invocation_invariant () =
  let c = contract schema_star2 in
  let regex = contract_regex c "newspaper" in
  let analysis = Contract.safe_run c ~target_regex:regex newspaper_word in
  (* items that do not spell the analyzed word: the walk dies without
     invoking anything *)
  let items = [ D.elem "date" [ D.data "d" ] ] in
  match
    Execute.run analysis
      (fun name _ -> Alcotest.failf "unexpected call to %s" name)
      items
  with
  | Error (Execute.Invariant_violation _) -> ()
  | Error e ->
    Alcotest.failf "expected Invariant_violation, got %a" Execute.pp_failure e
  | Ok _ -> Alcotest.fail "expected failure"

(* ------------------------------------------------------------------ *)
(* Depth-k behaviour                                                   *)
(* ------------------------------------------------------------------ *)

let exhibits_schema =
  parse_schema {|
root listing
element listing = exhibit*
element exhibit = #data
function Get_Exhibits : () -> Get_Exhibit*
function Get_Exhibit : () -> exhibit
|}

let test_depth_k () =
  let word = [ Symbol.Fun "Get_Exhibits" ] in
  let target c = contract_regex c "listing" in
  let c1 = Contract.create ~k:1 ~s0:exhibits_schema ~target:exhibits_schema () in
  check "k=1 unsafe" false (Contract.is_safe c1 ~target_regex:(target c1) word);
  let c2 = Contract.create ~k:2 ~s0:exhibits_schema ~target:exhibits_schema () in
  check "k=2 safe" true (Contract.is_safe c2 ~target_regex:(target c2) word);
  (* execution at k=2: Get_Exhibits returns three Get_Exhibit calls *)
  let analysis = Contract.safe_run c2 ~target_regex:(target c2) word in
  let invoker name _ =
    match name with
    | "Get_Exhibits" -> List.init 3 (fun _ -> D.call "Get_Exhibit" [])
    | "Get_Exhibit" -> [ D.elem "exhibit" [ D.data "e" ] ]
    | other -> Alcotest.failf "unexpected %s" other
  in
  match Execute.run analysis invoker [ D.call "Get_Exhibits" [] ] with
  | Error e -> Alcotest.failf "execution failed: %a" Execute.pp_failure e
  | Ok outcome ->
    check_int "four invocations" 4 (List.length outcome.Execute.invocations);
    check_int "three exhibits" 3 (List.length outcome.Execute.materialized)

(* A call fires at most once per occurrence, and each occurrence of a
   call inside an answer is its own: F answers the same physical forest
   [G()] at both of its occurrences, so G must fire once under each. A
   cache keyed by the answer, or by its physical list, would fire G
   once and splice its first answer twice. *)
let test_occurrence_cache () =
  let s =
    parse_schema {|
root list
element list = a*
element a = #data
function F : () -> G
function G : () -> a
|}
  in
  let c = Contract.create ~k:2 ~s0:s ~target:s () in
  let answer = [ D.call "G" [] ] in
  let calls = ref 0 in
  let invoker name _ =
    match name with
    | "F" -> answer
    | "G" ->
      incr calls;
      [ D.elem "a" [ D.data (string_of_int !calls) ] ]
    | other -> Alcotest.failf "unexpected call to %s" other
  in
  let doc = D.elem "list" [ D.call "F" []; D.call "F" [] ] in
  match Rewriter.materialize c ~invoker doc with
  | Error fs -> Alcotest.failf "materialize failed: %a" Fmt.(list Rewriter.pp_failure) fs
  | Ok (doc', invocations) ->
    Alcotest.(check (list (pair (list int) string)))
      "one invocation per occurrence, chronological"
      [ ([], "F"); ([], "G"); ([], "F"); ([], "G") ]
      (List.map
         (fun (li : Rewriter.located_invocation) ->
           (li.Rewriter.at, li.Rewriter.invocation.Execute.inv_name))
         invocations);
    check "each G answer spliced once" true
      (D.equal doc'
         (D.elem "list" [ D.elem "a" [ D.data "1" ]; D.elem "a" [ D.data "2" ] ]))

(* The recursive search-engine pattern (Section 3): never safe at any
   bounded depth, but always possible. *)
let search_schema =
  parse_schema {|
root results
element results = url*.More?
element url = #data
function More : () -> url*.More?
|}

let test_recursive_never_safe () =
  let word = [ Symbol.Fun "More" ] in
  let target = R.star (R.sym (Symbol.Label "url")) in
  List.iter
    (fun k ->
      let c = Contract.create ~k ~s0:search_schema ~target:search_schema () in
      check (Fmt.str "k=%d unsafe" k) false
        (Contract.is_safe c ~target_regex:target word);
      check (Fmt.str "k=%d possible" k) true
        (Contract.is_possible c ~target_regex:target word))
    [ 1; 2; 3; 4 ]

(* k = 0 means: no invocation at all; safe iff already an instance. *)
let test_depth_zero () =
  let c0 = Contract.create ~k:0 ~s0:schema_star ~target:schema_star2 () in
  let regex = contract_regex c0 "newspaper" in
  check "not safe at k=0" false (Contract.is_safe c0 ~target_regex:regex newspaper_word);
  let conforming =
    [ Symbol.Label "title"; Symbol.Label "date"; Symbol.Label "temp";
      Symbol.Fun "TimeOut" ]
  in
  check "instance is safe at k=0" true
    (Contract.is_safe c0 ~target_regex:regex conforming)

(* ------------------------------------------------------------------ *)
(* Restricted invocations (Section 2.1)                                *)
(* ------------------------------------------------------------------ *)

let test_noninvocable () =
  let s0_restricted =
    parse_schema
      ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|}
       ^ {|
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.(Get_Date | date)
element performance = title.date
noninvocable function Get_Temp : city -> temp
function TimeOut : #data -> (exhibit | performance)*
function Get_Date : title -> date
|})
  in
  let c = Contract.create ~k:1 ~s0:s0_restricted ~target:schema_star2 () in
  let regex = contract_regex c "newspaper" in
  (* Get_Temp may not be invoked: no legal rewriting reaches (**) *)
  check "unsafe" false (Contract.is_safe c ~target_regex:regex newspaper_word);
  check "not even possible" false
    (Contract.is_possible c ~target_regex:regex newspaper_word)

(* ------------------------------------------------------------------ *)
(* Function patterns and wildcards (Section 2.1)                       *)
(* ------------------------------------------------------------------ *)

let pattern_schema_text = {|
root newspaper
element newspaper = title.date.(Forecast | temp).(TimeOut | exhibit*)
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.(Get_Date | date)
element performance = title.date
function Get_Temp : city -> temp
function Paris_Weather : city -> temp
function Bad_Signature : title -> date
function TimeOut : #data -> (exhibit | performance)*
function Get_Date : title -> date
pattern Forecast requires UDDIF InACL : city -> temp
|}

let uddi_predicate pred fname =
  match pred with
  | "UDDIF" -> List.mem fname [ "Get_Temp"; "Paris_Weather"; "Bad_Signature" ]
  | "InACL" -> List.mem fname [ "Get_Temp"; "Paris_Weather" ]
  | _ -> false

let test_pattern_members () =
  let s = parse_schema pattern_schema_text in
  let env = Schema.env_of_schema ~predicate:uddi_predicate s in
  match Schema.find_pattern s "Forecast" with
  | None -> Alcotest.fail "pattern not found"
  | Some p ->
    let members =
      List.sort compare
        (List.map (fun (f : Schema.func) -> f.Schema.f_name)
           (Schema.pattern_members env p))
    in
    (* Bad_Signature fails the signature check, others pass predicates *)
    Alcotest.(check (list string)) "members" [ "Get_Temp"; "Paris_Weather" ] members

let test_pattern_in_target () =
  let s = parse_schema pattern_schema_text in
  let c =
    Contract.create ~k:1 ~predicate:uddi_predicate ~s0:schema_star ~target:s ()
  in
  let regex = contract_regex c "newspaper" in
  (* The document's Get_Temp call matches the Forecast pattern, so the
     word is already an instance: safe with no invocation. *)
  check "safe" true (Contract.is_safe c ~target_regex:regex newspaper_word);
  let doc_word_bad =
    [ Symbol.Label "title"; Symbol.Label "date"; Symbol.Fun "Bad_Signature";
      Symbol.Fun "TimeOut" ]
  in
  check "bad signature rejected" false
    (Contract.is_safe c ~target_regex:regex doc_word_bad)

let test_wildcards () =
  let s =
    parse_schema {|
root box
element box = #any*
element a = #data
element b = #data
function F : #data -> a
|}
  in
  let c = Contract.create ~k:1 ~s0:s ~target:s () in
  let regex = contract_regex c "box" in
  check "any elements ok" true
    (Contract.is_safe c ~target_regex:regex
       [ Symbol.Label "a"; Symbol.Label "b" ]);
  (* a function is not an element: must be invoked *)
  let analysis =
    Contract.safe_run c ~target_regex:regex [ Symbol.Fun "F" ]
  in
  check "function must be invoked" true (Win.ok analysis);
  let outcome =
    Execute.run analysis
      (fun _ _ -> [ D.elem "a" [ D.data "x" ] ])
      [ D.call "F" [ D.data "p" ] ]
  in
  (match outcome with
   | Ok o -> check_int "one invocation" 1 (List.length o.Execute.invocations)
   | Error e -> Alcotest.failf "execution failed: %a" Execute.pp_failure e);
  let s_anyfun =
    parse_schema {|
root box
element box = #anyfun*
element a = #data
function F : #data -> a
|}
  in
  let c = Contract.create ~k:1 ~s0:s_anyfun ~target:s_anyfun () in
  let regex = contract_regex c "box" in
  check "anyfun keeps functions" true
    (Contract.is_safe c ~target_regex:regex [ Symbol.Fun "F"; Symbol.Fun "F" ])

(* ------------------------------------------------------------------ *)
(* The mixed approach (Section 5)                                      *)
(* ------------------------------------------------------------------ *)

let test_mixed () =
  let rw = rewriter schema_star3 in
  check "not safe alone" false (Rewriter.check rw fig2a).ok;
  (* invoking the cheap TimeOut up-front (it happens to return exhibits)
     makes the remainder safely rewritable *)
  let invoker = honest_invoker ~timeout_returns:`Exhibits in
  Alcotest.(check (list string)) "mixed check passes" []
    (List.map (Fmt.str "%a" Rewriter.pp_failure)
       (Rewriter.check
          ~mode:(Rewriter.Check_mixed
                   { eager_calls = String.equal "TimeOut"; invoker })
          rw fig2a).failures);
  let pre, doc =
    match Rewriter.pre_materialize rw ~eager_calls:(String.equal "TimeOut") ~invoker fig2a with
    | Error f -> Alcotest.failf "pre-materialization failed: %a" Rewriter.pp_failure f
    | Ok (doc, pre) -> (pre, doc)
  in
  match Rewriter.materialize rw ~invoker doc with
  | Error fs -> Alcotest.failf "failed: %a" Fmt.(list Rewriter.pp_failure) fs
  | Ok (doc, invs) ->
    check_int "two invocations" 2 (List.length pre + List.length invs);
    let ctx =
      Validate.ctx ~env:(Schema.env_of_schemas schema_star schema_star3) schema_star3
    in
    Alcotest.(check (list string)) "conforms" []
      (List.map (Fmt.str "%a" Validate.pp_violation) (Validate.document_violations ctx doc))

(* ------------------------------------------------------------------ *)
(* Schema-to-schema rewriting (Section 6)                              *)
(* ------------------------------------------------------------------ *)

let compat s0 target =
  Schema_rewrite.compatible ~root:"newspaper" (Contract.create ~s0 ~target ())

let test_schema_rewriting () =
  check "(*) into (**)" true (compat schema_star schema_star2);
  check "(*) into (***)" false (compat schema_star schema_star3);
  check "(**) into (*): instance containment" true (compat schema_star2 schema_star);
  (* identity is always compatible *)
  check "identity" true (compat schema_star schema_star)

let test_schema_rewriting_verdicts () =
  let result =
    Schema_rewrite.check ~root:"newspaper"
      (Contract.create ~s0:schema_star ~target:schema_star3 ())
  in
  check "incompatible" false result.Schema_rewrite.compatible;
  let bad =
    List.filter
      (fun v -> v.Schema_rewrite.v_verdict <> Contract.Safe)
      result.Schema_rewrite.verdicts
  in
  check "newspaper is the culprit" true
    (List.exists (fun v -> v.Schema_rewrite.v_label = "newspaper") bad)

(* The representative call of a label is no function of either schema:
   the exchange schema's wildcards and patterns must not accept it. *)
let test_schema_rewriting_representative_hidden () =
  List.iter
    (fun (name, s0, target) ->
      let c =
        Contract.create ~s0:(Section6_fixtures.parse s0)
          ~target:(Section6_fixtures.parse target) ()
      in
      let result = Schema_rewrite.check c ~root:"r" in
      check (name ^ ": not compatible") false result.Schema_rewrite.compatible;
      check (name ^ ": r is not safe") true
        (List.exists
           (fun v ->
             v.Schema_rewrite.v_label = "r"
             && v.Schema_rewrite.v_verdict <> Contract.Safe)
           result.Schema_rewrite.verdicts))
    Section6_fixtures.pairs;
  (* nor can the sender's own #anyfun list it: the representative of
     r = #anyfun is F alone, which one rewriting level materializes *)
  let s0 =
    Section6_fixtures.parse
      "root r\nelement r = #anyfun\nelement a = #data\nfunction F : () -> a"
  in
  let target =
    Section6_fixtures.parse
      "root r\nelement r = a\nelement a = #data\nfunction F : () -> a"
  in
  check "sender #anyfun: compatible at k = 1" true
    (Schema_rewrite.compatible (Contract.create ~s0 ~target ()) ~root:"r")

(* The reduction may fill entries of the shared tables, but it is no
   analysis: linting a live contract leaves its counters as enforcement
   left them. *)
let test_schema_rewriting_leaves_stats () =
  let c = Contract.create ~s0:schema_star ~target:schema_star2 () in
  ignore (Contract.analyze c ~context:(Contract.Element "newspaper") newspaper_word);
  let before = Contract.stats c in
  check "enforcement used the cache" true (before.Contract.misses > 0);
  ignore (Schema_rewrite.check c ~root:"newspaper");
  check "stats unchanged" true (Contract.stats c = before)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* Section 6 decides a game without look-ahead, not "each document
   rewrites safely": both documents of r are safe here, one at a time,
   yet no strategy can choose for F before it sees a or b. *)
let test_schema_rewriting_no_lookahead () =
  let s0 = Section6_fixtures.parse Section6_fixtures.lookahead_sender in
  let target = Section6_fixtures.parse Section6_fixtures.lookahead_target in
  let result = Schema_rewrite.check (Contract.create ~s0 ~target ()) ~root:"r" in
  check "not compatible" false result.Schema_rewrite.compatible;
  let r = List.find (fun v -> v.Schema_rewrite.v_label = "r") result.Schema_rewrite.verdicts in
  check "r: possible, not safe" true
    (r.Schema_rewrite.v_verdict = Contract.Possible_only
     && r.Schema_rewrite.v_safe_at = None
     && r.Schema_rewrite.v_possible_at = Some 0);
  check "the reason names the left-to-right game" true
    (match r.Schema_rewrite.v_reason with
     | Some why -> contains why "left-to-right" && contains why "<r>"
     | None -> false);
  let rw = Rewriter.create ~s0 ~target () in
  List.iter
    (fun l ->
      let doc = D.elem "r" [ D.call "F" []; D.elem l [ D.data "x" ] ] in
      check (Fmt.str "<r>F %s</r> rewrites safely" l) true (Rewriter.check rw doc).ok)
    [ "a"; "b" ]

(* A label with no document at all is vacuously safe, so a schema is
   compatible with itself even when a content model is empty. The
   product reduction gives g_l no output there and says neither safe nor
   possible: the one case where the two differ. *)
let test_schema_rewriting_empty_content () =
  let s = Section6_fixtures.parse Section6_fixtures.empty_content in
  let c = Contract.create ~s0:s ~target:s () in
  let result = Schema_rewrite.check c ~root:"r" in
  check "compatible with itself" true result.Schema_rewrite.compatible;
  List.iter
    (fun v ->
      check (v.Schema_rewrite.v_label ^ ": safe at 0") true
        (v.Schema_rewrite.v_verdict = Contract.Safe
         && v.Schema_rewrite.v_safe_at = Some 0
         && v.Schema_rewrite.v_possible_at = Some 0))
    result.Schema_rewrite.verdicts;
  let m =
    Reference.section6_minimal_k c
      ~target_regex:(Option.get (Contract.element_regex c "r"))
      (Option.get (Schema.find_element s "r"))
  in
  check "the product reduction says neither" true
    (m.Contract.safe_at = None && m.Contract.possible_at = None)

(* [check]'s verdict and depths for every label against the product
   reduction of the oracle; labels whose sender content is empty are
   vacuously safe instead. [None] when they agree. *)
let section6_disagreement c ~root =
  let s0 = Contract.s0 c and env = Contract.env c in
  List.find_map
    (fun (v : Schema_rewrite.label_verdict) ->
      match (Schema.find_element s0 v.v_label, Contract.element_regex c v.v_label) with
      | Some content, Some target_regex ->
        let m =
          if R.is_empty_language (Schema.compile_content env content) then
            { Contract.safe_at = Some 0; possible_at = Some 0 }
          else Reference.section6_minimal_k c ~target_regex content
        in
        let verdict =
          match m with
          | { Contract.safe_at = Some _; _ } -> Contract.Safe
          | { Contract.possible_at = Some _; _ } -> Contract.Possible_only
          | _ -> Contract.Impossible
        in
        if (v.v_verdict, v.v_safe_at, v.v_possible_at) = (verdict, m.safe_at, m.possible_at)
        then None
        else
          let pp_at = Fmt.(option ~none:(any "-") int) in
          Some
            (Fmt.str "%s: tables %a safe_at=%a possible_at=%a, oracle %a safe_at=%a \
                      possible_at=%a" v.v_label Contract.pp_verdict v.v_verdict pp_at
               v.v_safe_at pp_at v.v_possible_at Contract.pp_verdict verdict pp_at
               m.safe_at pp_at m.possible_at)
      | _ -> None)
    (Schema_rewrite.check c ~root).Schema_rewrite.verdicts

(* The checked-in pairs: the paper's (star) schemas both ways, the
   fixtures of this suite and the example newspaper pairs, at k = 0..3. *)
let test_schema_rewriting_oracle_parity () =
  let example name =
    let ic = open_in_bin (Filename.concat "../examples/schemas" name) in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Schema_parser.parse text
  in
  let sender = example "newspaper_sender.axs"
  and exchange = example "newspaper_exchange.axs"
  and exchange_v2 = example "newspaper_exchange_v2.axs" in
  let fixture (name, s0, target) =
    (name, "r", Section6_fixtures.parse s0, Section6_fixtures.parse target)
  in
  let pairs =
    [ ("(*) -> (**)", "newspaper", schema_star, schema_star2);
      ("(*) -> (***)", "newspaper", schema_star, schema_star3);
      ("(**) -> (*)", "newspaper", schema_star2, schema_star);
      ("(***) -> (*)", "newspaper", schema_star3, schema_star);
      ("sender -> exchange", "newspaper", sender, exchange);
      ("exchange -> exchange v2", "newspaper", exchange, exchange_v2);
      ("sender -> exchange v2", "newspaper", sender, exchange_v2);
      fixture ("look-ahead", Section6_fixtures.lookahead_sender,
               Section6_fixtures.lookahead_target);
      fixture ("empty content", Section6_fixtures.empty_content,
               Section6_fixtures.empty_content) ]
    @ List.map fixture Section6_fixtures.pairs
  in
  List.iter
    (fun (name, root, s0, target) ->
      for k = 0 to 3 do
        match section6_disagreement (Contract.create ~k ~s0 ~target ()) ~root with
        | None -> ()
        | Some d -> Alcotest.failf "%s at k = %d: %s" name k d
      done)
    pairs

(* ------------------------------------------------------------------ *)
(* Validation and generation                                           *)
(* ------------------------------------------------------------------ *)

let test_validate_violations () =
  let ctx = Validate.ctx schema_star in
  let bad =
    D.elem "newspaper"
      [ D.elem "date" [ D.data "d" ];  (* missing title *)
        D.elem "temp" [ D.data "x" ];
        D.call "TimeOut" [ D.data "y" ] ]
  in
  let vs = Validate.document_violations ctx bad in
  check "violation found" true (vs <> []);
  let bad_params = D.call "Get_Temp" [ D.data "not a city" ] in
  let vs = Validate.document_violations ctx bad_params in
  check "input violation" true
    (List.exists
       (fun v -> match v.Validate.kind with
          | Validate.Input_mismatch { fname = "Get_Temp"; _ } -> true
          | _ -> false)
       vs)

let test_generated_instances_validate () =
  let ctx = Validate.ctx schema_star in
  for seed = 0 to 24 do
    let g = Generate.create ~seed schema_star in
    let doc = Generate.document g in
    if Validate.document_violations ctx doc <> [] then
      Alcotest.failf "seed %d generated a non-instance: %a" seed D.pp doc
  done

let test_generated_outputs_validate () =
  let ctx = Validate.ctx schema_star in
  for seed = 0 to 24 do
    let g = Generate.create ~seed schema_star in
    let forest = Generate.output_instance g "TimeOut" in
    if Validate.output_instance ctx "TimeOut" forest <> [] then
      Alcotest.fail "generated output is not an output instance"
  done

(* Rename the [n]-th node of [doc] in prefix order: an element takes the
   [pick]-th label of [labels], a call the [pick]-th name of [names];
   a data leaf stays as it is. The lists hold undeclared names too. *)
let relabel ~labels ~names n pick doc =
  let count = ref (-1) in
  let nth l = List.nth l (pick mod List.length l) in
  let rec go node =
    incr count;
    let hit = !count = n in
    match node with
    | D.Data _ -> node
    | D.Elem { label; children; _ } ->
      let label = if hit then nth labels else label in
      D.elem label (List.map go children)
    | D.Call { name; params; _ } ->
      let name = if hit then nth names else name in
      D.call name (List.map go params)
  in
  go doc

(* The boolean gate and the violation list are one verdict: over
   documents generated from the three example schemas, as they are and
   with one node renamed (possibly to an undeclared label or function,
   possibly at the root), [document_conforms] holds exactly when
   [document_violations] is empty. *)
let prop_conforms_iff_no_violations =
  let schemas = [ schema_star; schema_star2; schema_star3 ] in
  QCheck.Test.make ~count:500
    ~name:"document_conforms agrees with document_violations"
    QCheck.(
      quad (int_range 0 100_000) (pair (int_bound 2) (int_bound 2))
        (option (pair (int_bound 30) small_nat)) bool)
    (fun (seed, (src, dst), mutation, relaxed) ->
      let s0 = List.nth schemas src and target = List.nth schemas dst in
      match Generate.document (Generate.create ~seed s0) with
      | exception Generate.Generation_failed _ -> QCheck.assume_fail ()
      | doc ->
        let doc =
          match mutation with
          | None -> doc
          | Some (n, pick) ->
            relabel n pick doc
              ~labels:[ "newspaper"; "title"; "date"; "temp"; "city"; "exhibit";
                        "performance"; "nowhere" ]
              ~names:[ "Get_Temp"; "TimeOut"; "Get_Date"; "Nothing" ]
        in
        (* without the sender's environment, calls the target does not
           mention are undeclared *)
        let ctx =
          if relaxed then Validate.ctx target
          else Validate.ctx ~env:(Schema.env_of_schemas s0 target) target
        in
        let vs = Validate.document_violations ctx doc in
        if Validate.document_conforms ctx doc <> (vs = []) then
          QCheck.Test.fail_reportf "conforms=%b but %d violation(s) on %a"
            (vs = []) (List.length vs) D.pp doc;
        true)

(* Document-level minimal k: the maximum over the children words of
   their per-word minima, and None/None for what no depth can fix. *)
let test_document_minimal_k () =
  let none = { Rewriter.safe_k = None; possible_k = None } in
  let minimal target doc =
    Rewriter.minimal_k (Rewriter.create ~k:3 ~s0:schema_star ~target ()) doc
  in
  let pin name expected got =
    let show (m : Rewriter.doc_minimal) =
      Fmt.str "%a/%a" Fmt.(Dump.option int) m.Rewriter.safe_k
        Fmt.(Dump.option int) m.Rewriter.possible_k
    in
    Alcotest.(check string) name (show expected) (show got)
  in
  let unknown_label =
    D.elem "newspaper"
      [ D.elem "title" [ D.data "t" ]; D.elem "date" [ D.data "d" ];
        D.elem "weather" [ D.data "w" ] ]
  in
  pin "unknown label" none (minimal schema_star2 unknown_label);
  pin "root mismatch" none (minimal schema_star2 (D.elem "title" [ D.data "t" ]));
  pin "fig2a into (**)" { safe_k = Some 1; possible_k = Some 1 }
    (minimal schema_star2 fig2a);
  pin "fig2a into (***)" { safe_k = None; possible_k = Some 1 }
    (minimal schema_star3 fig2a);
  pin "instance" { safe_k = Some 0; possible_k = Some 0 }
    (minimal schema_star fig2a);
  (* the same maximum, word by word through the contract *)
  let c = Contract.create ~k:3 ~s0:schema_star ~target:schema_star3 () in
  let input f = Option.get (Contract.input_regex c f) in
  let words =
    [ (contract_regex c "newspaper", D.word (D.children fig2a));
      (contract_regex c "title", [ Symbol.Data ]);
      (contract_regex c "date", [ Symbol.Data ]);
      (input "Get_Temp", [ Symbol.Label "city" ]);
      (contract_regex c "city", [ Symbol.Data ]);
      (input "TimeOut", [ Symbol.Data ]) ]
  in
  let join a b =
    match (a, b) with Some a, Some b -> Some (max a b) | _ -> None
  in
  let safe, possible =
    List.fold_left
      (fun (s, p) (target_regex, word) ->
        let m = Contract.minimal_k c ~target_regex word in
        (join s m.Contract.safe_at, join p m.Contract.possible_at))
      (Some 0, Some 0) words
  in
  pin "max of per-word minima" { safe_k = safe; possible_k = possible }
    (Rewriter.minimal_k (Rewriter.of_contract c) fig2a)

(* ------------------------------------------------------------------ *)
(* Eager vs lazy engines                                               *)
(* ------------------------------------------------------------------ *)

(* Both engines run on separately built products: an analysis extends
   its product in place, so sharing one would let the second engine
   start from the first one's exploration. *)
let eager_and_lazy c ~target_regex word =
  ( Marking.analyze_eager (Reference.product c ~target_regex word),
    Marking.analyze_lazy (Reference.product c ~target_regex word) )

let test_engines_agree_on_example () =
  List.iter
    (fun target ->
      let c = contract target in
      let regex = contract_regex c "newspaper" in
      let a_eager, a_lazy = eager_and_lazy c ~target_regex:regex newspaper_word in
      check "same verdict" true (a_eager.Marking.safe = a_lazy.Marking.safe))
    [ schema_star; schema_star2; schema_star3 ]

let test_lazy_explores_less () =
  let c = contract schema_star3 in
  let regex = contract_regex c "newspaper" in
  let a_eager, a_lazy = eager_and_lazy c ~target_regex:regex newspaper_word in
  check "lazy explores no more nodes" true
    (a_lazy.Marking.stats.Marking.explored_nodes
     <= a_eager.Marking.stats.Marking.explored_nodes)

(* ------------------------------------------------------------------ *)
(* Brute-force reference for star-free signatures                      *)
(* ------------------------------------------------------------------ *)

module Exhaustive = Axml_oracle.Exhaustive

(* Random star-free content models over two labels and two functions. *)
let mini_atoms =
  [ Schema.A_label "a"; Schema.A_label "b"; Schema.A_fun "f"; Schema.A_fun "g" ]

let gen_content atoms : Schema.content QCheck.Gen.t =
  let open QCheck.Gen in
  let atom = map R.sym (oneofl atoms) in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [ (3, atom);
          (1, return R.epsilon);
          (2, map2 R.seq (gen (n / 2)) (gen (n / 2)));
          (2, map2 R.alt (gen (n / 2)) (gen (n / 2)));
          (1, map R.opt (gen (n - 1)))
        ]
  in
  gen 4

let gen_mini_content = gen_content mini_atoms

let gen_mini_word =
  QCheck.Gen.(
    list_size (int_bound 3)
      (oneofl [ Symbol.Label "a"; Symbol.Label "b"; Symbol.Fun "f"; Symbol.Fun "g" ]))

let gen_mini_setup =
  let open QCheck.Gen in
  let* out_f = gen_mini_content in
  let* out_g = gen_mini_content in
  let* target = gen_mini_content in
  let* word = gen_mini_word in
  let* k = int_range 0 2 in
  return (out_f, out_g, target, word, k)

let mini_schema out_f out_g =
  let s = Schema.empty in
  let s = Schema.add_element s "a" (R.sym Schema.A_data) in
  let s = Schema.add_element s "b" (R.sym Schema.A_data) in
  let s = Schema.add_function s (Schema.func "f" ~input:R.epsilon ~output:out_f) in
  let s = Schema.add_function s (Schema.func "g" ~input:R.epsilon ~output:out_g) in
  s

(* The document item standing for one symbol of a word. *)
let mini_item = function
  | Symbol.Label l -> D.elem l [ D.data "v" ]
  | Symbol.Fun f -> D.call f []
  | Symbol.Data -> D.data "v"

let print_mini (out_f, out_g, target, word, k) =
  Fmt.str "f:()->%a; g:()->%a; target=%a; w=%a; k=%d"
    Schema.pp_content out_f Schema.pp_content out_g Schema.pp_content target
    Fmt.(list ~sep:(any ".") Symbol.pp) word k

let arb_mini = QCheck.make ~print:print_mini gen_mini_setup

let prop_engines_match_reference =
  QCheck.Test.make ~count:400 ~name:"safe & possible match the brute-force game"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let outputs = Exhaustive.outputs_of_env env in
      let target_dfa = Auto.Dfa.of_regex target_regex in
      let alphabet =
        Auto.Sym_set.of_list
          [ Symbol.Label "a"; Symbol.Label "b"; Symbol.Fun "f"; Symbol.Fun "g";
            Symbol.Data ]
      in
      let target_dfa = Auto.Dfa.complete ~alphabet target_dfa in
      let ref_safe = Exhaustive.safe ~outputs ~target_dfa ~k word in
      let ref_possible = Exhaustive.possible ~outputs ~target_dfa ~k word in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let a_eager, a_lazy = eager_and_lazy c ~target_regex word in
      let eager_safe = a_eager.Marking.safe and lazy_safe = a_lazy.Marking.safe in
      let contract_safe = Contract.is_safe c ~target_regex word in
      let possible = Contract.is_possible c ~target_regex word in
      if eager_safe <> ref_safe then
        QCheck.Test.fail_reportf "eager safe=%b but reference=%b" eager_safe ref_safe;
      if lazy_safe <> ref_safe then
        QCheck.Test.fail_reportf "lazy safe=%b but reference=%b" lazy_safe ref_safe;
      if contract_safe <> eager_safe then
        QCheck.Test.fail_reportf "Contract.is_safe=%b but eager=%b"
          contract_safe eager_safe;
      if possible <> ref_possible then
        QCheck.Test.fail_reportf "possible=%b but reference=%b" possible ref_possible;
      true)

let prop_safe_implies_possible =
  QCheck.Test.make ~count:200 ~name:"safe implies possible"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let c = Contract.create ~k ~s0:s ~target:s () in
      QCheck.assume (Contract.is_safe c ~target_regex word);
      Contract.is_possible c ~target_regex word)

(* Safe executions against adversarial (random output) services always
   succeed and always produce a word in the target language. *)
let prop_safe_execution_robust =
  QCheck.Test.make ~count:200 ~name:"safe execution survives any honest adversary"
    QCheck.(pair arb_mini small_int)
    (fun ((out_f, out_g, target, word, k), seed) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let analysis = Contract.safe_run c ~target_regex word in
      QCheck.assume (Win.ok analysis);
      let rng = Random.State.make [| seed |] in
      let outputs fname =
        match Schema.String_map.find_opt fname env.Schema.env_functions with
        | None -> []
        | Some func ->
          Exhaustive.enum_language (Schema.compile_content env func.Schema.f_output)
      in
      let invoker fname _params =
        let outs = outputs fname in
        let o = List.nth outs (Random.State.int rng (List.length outs)) in
        List.map mini_item o
      in
      let items = List.map mini_item word in
      match Execute.run analysis invoker items with
      | Error _ -> QCheck.Test.fail_report "safe execution failed"
      | Ok outcome ->
        let final_word = D.word outcome.Execute.materialized in
        Auto.Dfa.accepts (Auto.Dfa.of_regex target_regex) final_word)

(* ------------------------------------------------------------------ *)
(* The left-to-right restriction (Section 3)                           *)
(* ------------------------------------------------------------------ *)

(* The paper: "with this restriction, one can miss a successful
   rewriting that is not left-to-right". Witness: in

     w = f.g,   target = a.b | f.c,   f : () -> a,   g : () -> b|c

   the winning strategy must invoke g FIRST and then decide on f --
   impossible left-to-right, trivial in arbitrary order. *)
let test_ltr_restriction_witness () =
  let s =
    parse_schema {|
element a = #data
element b = #data
element c = #data
function f : () -> a
function g : () -> (b | c)
|}
  in
  let env = Schema.env_of_schema s in
  let target =
    R.alt
      (R.seq (R.sym (Symbol.Label "a")) (R.sym (Symbol.Label "b")))
      (R.seq (R.sym (Symbol.Fun "f")) (R.sym (Symbol.Label "c")))
  in
  let word = [ Symbol.Fun "f"; Symbol.Fun "g" ] in
  let c = Contract.create ~k:1 ~s0:s ~target:s () in
  check "engine (left-to-right): unsafe" false
    (Contract.is_safe c ~target_regex:target word);
  check "engine (left-to-right): possible" true
    (Contract.is_possible c ~target_regex:target word);
  let outputs = Exhaustive.outputs_of_env env in
  let target_dfa = Auto.Dfa.of_regex target in
  check "reference left-to-right agrees: unsafe" false
    (Exhaustive.safe ~outputs ~target_dfa ~k:1 word);
  check "arbitrary order IS safe" true
    (Exhaustive.safe_arbitrary ~outputs ~target_dfa ~k:1 word)

let prop_ltr_implies_arbitrary =
  QCheck.Test.make ~count:100
    ~name:"left-to-right safety implies arbitrary-order safety"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let outputs = Exhaustive.outputs_of_env env in
      (* the arbitrary-order game is exponential: keep its input small *)
      let small fname =
        match outputs fname with
        | None -> true
        | Some outs ->
          List.length outs <= 6
          && List.for_all (fun o -> List.length o <= 3) outs
      in
      QCheck.assume (small "f" && small "g" && List.length word <= 2 && k <= 2);
      let c = Contract.create ~k ~s0:s ~target:s () in
      QCheck.assume (Contract.is_safe c ~target_regex word);
      let target_dfa = Auto.Dfa.of_regex target_regex in
      Exhaustive.safe_arbitrary ~outputs ~target_dfa ~k word)

(* Monotonicity in the rewriting depth: the player's options only grow
   with k while the adversary's are fixed, so both verdicts are
   monotone — the soundness argument behind the linear minimal-k
   search, which must return exactly the frontier of each verdict. *)
let prop_k_monotone =
  QCheck.Test.make ~count:200
    ~name:"safe/possible are monotone in k; minimal_k is their frontier"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let c = Contract.create ~k:3 ~s0:s ~target:s () in
      let safe_at k = Contract.is_safe ~k c ~target_regex word in
      let possible_at k = Contract.is_possible ~k c ~target_regex word in
      if safe_at k && not (safe_at (k + 1)) then
        QCheck.Test.fail_reportf "safe at k=%d but not at k=%d" k (k + 1);
      if possible_at k && not (possible_at (k + 1)) then
        QCheck.Test.fail_reportf "possible at k=%d but not at k=%d" k (k + 1);
      let scan pred =
        let rec go d = if d > 3 then None else if pred d then Some d else go (d + 1) in
        go 0
      in
      let m = Contract.minimal_k c ~target_regex word in
      if m.Contract.safe_at <> scan safe_at then
        QCheck.Test.fail_reportf "minimal_k.safe_at disagrees with the scan";
      if m.Contract.possible_at <> scan possible_at then
        QCheck.Test.fail_reportf "minimal_k.possible_at disagrees with the scan";
      true)

(* ------------------------------------------------------------------ *)
(* Cost planning (Figure 3 step 23, Figure 9 step d)                   *)
(* ------------------------------------------------------------------ *)

module Cost = Axml_oracle.Cost

(* Cost planning runs on the reference engines' products. *)
let ref_safe c ~target_regex word =
  Marking.analyze_lazy (Reference.product c ~target_regex word)

let ref_possible c ~target_regex word =
  Possible.analyze (Reference.product c ~target_regex word)

let example_fee = function
  | "Get_Temp" -> 0.1
  | "TimeOut" -> 1.0
  | _ -> 5.0

let test_cost_safe_worst () =
  (* into schema 2: the strategy invokes Get_Temp and keeps TimeOut *)
  let c = contract schema_star2 in
  let regex = contract_regex c "newspaper" in
  let analysis = ref_safe c ~target_regex:regex newspaper_word in
  (match Cost.safe_worst_cost analysis ~cost:example_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "worst fee" 0.1 c
   | None -> Alcotest.fail "expected a bound");
  (* counting invocations instead of fees *)
  (match Cost.safe_worst_cost analysis ~cost:(fun _ -> 1.) with
   | Some c -> Alcotest.(check (float 1e-9)) "one invocation" 1.0 c
   | None -> Alcotest.fail "expected a bound");
  (* into schema 1: already an instance, zero cost *)
  let c1 = contract schema_star in
  let regex1 = contract_regex c1 "newspaper" in
  let analysis1 = ref_safe c1 ~target_regex:regex1 newspaper_word in
  (match Cost.safe_worst_cost analysis1 ~cost:example_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "free" 0.0 c
   | None -> Alcotest.fail "expected a bound");
  (* into schema 3: not safe at all *)
  let c3 = contract schema_star3 in
  let regex3 = contract_regex c3 "newspaper" in
  let analysis3 = ref_safe c3 ~target_regex:regex3 newspaper_word in
  check "unsafe has no bound" true
    (Cost.safe_worst_cost analysis3 ~cost:example_fee = None)

let test_cost_possible_min () =
  let c3 = contract schema_star3 in
  let regex3 = contract_regex c3 "newspaper" in
  let analysis = ref_possible c3 ~target_regex:regex3 newspaper_word in
  (* the only hopeful path invokes both functions: 0.1 + 1.0 *)
  (match Cost.possible_min_cost analysis ~cost:example_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "both fees" 1.1 c
   | None -> Alcotest.fail "expected a cost");
  (* into schema 2 the cheap path only invokes Get_Temp *)
  let c2 = contract schema_star2 in
  let regex2 = contract_regex c2 "newspaper" in
  let analysis2 = ref_possible c2 ~target_regex:regex2 newspaper_word in
  (match Cost.possible_min_cost analysis2 ~cost:example_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "cheap path" 0.1 c
   | None -> Alcotest.fail "expected a cost")

let test_cost_unbounded () =
  (* F returns any number of G handles; the target wants plain data, so
     every returned G must be invoked: the adversary can force an
     unbounded total fee even though the rewriting is SAFE. *)
  let s =
    parse_schema {|
root listing
element listing = a*
element a = #data
function F : () -> G*
function G : () -> a
|}
  in
  let c = Contract.create ~k:2 ~s0:s ~target:s () in
  let target = R.star (R.sym (Symbol.Label "a")) in
  let analysis = ref_safe c ~target_regex:target [ Symbol.Fun "F" ] in
  check "safe" true analysis.Marking.safe;
  (match Cost.safe_worst_cost analysis ~cost:(fun _ -> 1.) with
   | Some c -> check "unbounded worst case" true (c = Float.infinity)
   | None -> Alcotest.fail "expected a (infinite) bound");
  (* the optimistic cost is finite: F may return zero handles *)
  let poss = ref_possible c ~target_regex:target [ Symbol.Fun "F" ] in
  (match Cost.possible_min_cost poss ~cost:(fun _ -> 1.) with
   | Some c -> Alcotest.(check (float 1e-9)) "one call suffices optimistically" 1.0 c
   | None -> Alcotest.fail "expected a cost")

let test_cost_keep_is_free () =
  (* when the target accepts the function symbol, keeping it costs 0 *)
  let c = contract schema_star in
  let regex = contract_regex c "newspaper" in
  let analysis = ref_safe c ~target_regex:regex newspaper_word in
  (match Cost.safe_worst_cost analysis ~cost:example_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "free" 0.0 c
   | None -> Alcotest.fail "expected a bound");
  let poss = ref_possible c ~target_regex:regex newspaper_word in
  match Cost.possible_min_cost poss ~cost:example_fee with
  | Some c -> Alcotest.(check (float 1e-9)) "free" 0.0 c
  | None -> Alcotest.fail "expected a cost"

(* A scenario where the greedy keep-first order is suboptimal: keeping F
   forces the expensive H to be invoked later, while invoking the cheap F
   up-front lets H stay intensional. *)
let tradeoff_schema =
  parse_schema {|
root doc
element doc = F.a | temp.H
element temp = #data
element a = #data
function F : () -> temp
function H : () -> a
|}

let tradeoff_fee = function "F" -> 1.0 | "H" -> 10.0 | _ -> 0.0

let tradeoff_invoker name _ =
  match name with
  | "F" -> [ D.elem "temp" [ D.data "t" ] ]
  | "H" -> [ D.elem "a" [ D.data "x" ] ]
  | other -> Alcotest.failf "unexpected call to %s" other

let tradeoff_items = [ D.call "F" []; D.call "H" [] ]

let total_fee outcome =
  List.fold_left
    (fun acc i -> acc +. tradeoff_fee i.Execute.inv_name)
    0. outcome.Execute.invocations

let test_cost_guided_execution () =
  let c = Contract.create ~k:1 ~s0:tradeoff_schema ~target:tradeoff_schema () in
  let regex = contract_regex c "doc" in
  let word = D.word tradeoff_items in
  let analysis = ref_safe c ~target_regex:regex word in
  check "safe" true analysis.Marking.safe;
  (* the best strategy only ever pays for F *)
  (match Cost.safe_worst_cost analysis ~cost:tradeoff_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "worst-case optimum" 1.0 c
   | None -> Alcotest.fail "expected a bound");
  (* greedy keep-first execution keeps F and ends up paying for H *)
  (match Reference.follow_safe analysis tradeoff_invoker tradeoff_items with
   | Ok outcome -> Alcotest.(check (float 1e-9)) "greedy pays 10" 10.0 (total_fee outcome)
   | Error e -> Alcotest.failf "execution failed: %a" Execute.pp_failure e);
  (* the cost-guided order follows the optimal plan *)
  let poss = ref_possible c ~target_regex:regex word in
  (match Cost.possible_min_cost poss ~cost:tradeoff_fee with
   | Some c -> Alcotest.(check (float 1e-9)) "optimal plan" 1.0 c
   | None -> Alcotest.fail "expected a cost");
  let plan = Cost.possible_costs poss ~cost:tradeoff_fee in
  match
    Reference.follow_possible ~plan ~fee:tradeoff_fee poss
      tradeoff_invoker tradeoff_items
  with
  | Ok outcome -> Alcotest.(check (float 1e-9)) "guided pays 1" 1.0 (total_fee outcome)
  | Error e -> Alcotest.failf "guided execution failed: %a" Execute.pp_failure e

let prop_safe_worst_at_least_possible_min =
  QCheck.Test.make ~count:200
    ~name:"worst-case safe fee >= optimistic possible fee"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let analysis = ref_safe c ~target_regex word in
      QCheck.assume analysis.Marking.safe;
      let fee = function "f" -> 1.0 | "g" -> 3.0 | _ -> 10.0 in
      let worst = Cost.safe_worst_cost analysis ~cost:fee in
      let poss = ref_possible c ~target_regex word in
      let best = Cost.possible_min_cost poss ~cost:fee in
      match worst, best with
      | Some w, Some b -> b <= w +. 1e-9
      | Some _, None -> QCheck.Test.fail_report "safe but not possible?"
      | None, _ -> QCheck.Test.fail_report "safe analysis lost its verdict")

(* reusable pieces for the schema-level property *)
let mini_schema_base () =
  let s = Schema.empty in
  let s = Schema.add_element s "a" (R.sym Schema.A_data) in
  let s = Schema.add_element s "b" (R.sym Schema.A_data) in
  let s =
    Schema.add_function s
      (Schema.func "f" ~input:R.epsilon ~output:(R.sym (Schema.A_label "a")))
  in
  let s =
    Schema.add_function s
      (Schema.func "g" ~input:R.epsilon
         ~output:(R.alt (R.sym (Schema.A_label "a")) (R.sym (Schema.A_label "b"))))
  in
  s

let gen_mini_content_arb =
  QCheck.make ~print:(Fmt.str "%a" Schema.pp_content) gen_mini_content

(* Schema-level compatibility is sound: when the schemas pass the
   Section 6 test at k, every randomly generated instance of the sender
   schema is safely rewritable at k. Either model of r may use #any,
   #anyfun and the pattern P, none of which may match the test's
   representative call. *)
let gen_wild_content_arb =
  QCheck.make ~print:(Fmt.str "%a" Schema.pp_content)
    (gen_content
       (mini_atoms @ [ Schema.A_any_element; Schema.A_any_fun; Schema.A_pattern "P" ]))

let prop_schema_compat_sound =
  QCheck.Test.make ~count:100
    ~name:"schema compatibility implies every instance rewrites safely"
    QCheck.(triple (pair gen_wild_content_arb gen_wild_content_arb) (int_range 0 2) small_int)
    (fun ((content0, content1), k, seed) ->
      let make_schema root_content =
        let s =
          Schema.add_pattern (mini_schema_base ())
            (Schema.pattern "P" ~input:R.epsilon ~output:(R.sym (Schema.A_label "a")))
        in
        Schema.with_root (Schema.add_element s "r" root_content) "r"
      in
      let s0 = make_schema content0 in
      let target = make_schema content1 in
      QCheck.assume
        (Schema_rewrite.compatible ~root:"r" (Contract.create ~k ~s0 ~target ()));
      let rw = Rewriter.create ~k ~s0 ~target () in
      List.for_all
        (fun i ->
          let g = Generate.create ~seed:(seed + (1000 * i)) ~max_depth:16 s0 in
          match Generate.document g with
          | exception Generate.Generation_failed _ -> true
          | doc ->
            (match (Rewriter.check ~mode:Rewriter.Check_safe rw doc).failures with
             | [] -> true
             | fs ->
               QCheck.Test.fail_reportf "doc %a not safe at k=%d: %a" D.pp doc k
                 Fmt.(list Rewriter.pp_failure) fs))
        [ 0; 1; 2; 3 ])

(* End-to-end tree-level soundness: whenever the static check passes,
   materializing a random instance with honest random services succeeds
   and the result is an instance of the target schema. *)
let prop_tree_materialization_sound =
  QCheck.Test.make ~count:60
    ~name:"tree materialization yields target instances"
    QCheck.(pair (pair gen_mini_content_arb gen_mini_content_arb) small_int)
    (fun ((content0, content1), seed) ->
      let make_schema root_content =
        let s = mini_schema_base () in
        Schema.with_root (Schema.add_element s "r" root_content) "r"
      in
      let s0 = make_schema content0 in
      let target = make_schema content1 in
      let g = Generate.create ~seed ~max_depth:16 s0 in
      match Generate.document g with
      | exception Generate.Generation_failed _ -> true
      | doc ->
        let rw = Rewriter.create ~k:1 ~s0 ~target () in
        QCheck.assume ((Rewriter.check rw doc).failures = []);
        let env = Schema.env_of_schemas s0 target in
        let oracle = Generate.create ~seed:(seed + 1) ~env ~max_depth:16 s0 in
        let invoker name _params = Generate.output_instance oracle name in
        (match Rewriter.materialize rw ~invoker doc with
         | Error fs ->
           QCheck.Test.fail_reportf "materialize failed: %a"
             Fmt.(list Rewriter.pp_failure) fs
         | Ok (doc', _) ->
           let ctx = Validate.ctx ~env target in
           (match Validate.document_violations ctx doc' with
            | [] -> true
            | vs ->
              QCheck.Test.fail_reportf "result %a violates: %a" D.pp doc'
                Fmt.(list Validate.pp_violation) vs)))

(* Section 6 properties over generated schemas: a, b and #data leaves,
   f and g with random (possibly starred or recursive) outputs, the
   pattern P : () -> a, and r's content drawn with wildcards and P. *)
let section6_schema out_f out_g r =
  Schema.with_root
    (Schema.add_element
       (Schema.add_pattern (mini_schema out_f out_g)
          (Schema.pattern "P" ~input:R.epsilon ~output:(R.sym (Schema.A_label "a"))))
       "r" r)
    "r"

let gen_section6_output =
  QCheck.Gen.(frequency [ (3, gen_mini_content); (1, map R.star gen_mini_content) ])

let gen_wild_content =
  gen_content (mini_atoms @ [ Schema.A_any_element; Schema.A_any_fun; Schema.A_pattern "P" ])

let arb_section6 =
  QCheck.make
    ~print:(fun (out_f, out_g, r0, r1, k) ->
      Fmt.str "f:()->%a; g:()->%a; sender r=%a; exchange r=%a; k=%d" Schema.pp_content out_f
        Schema.pp_content out_g Schema.pp_content r0 Schema.pp_content r1 k)
    QCheck.Gen.(
      let* out_f = gen_section6_output in
      let* out_g = gen_section6_output in
      let* r0 = gen_wild_content in
      let* r1 = gen_wild_content in
      let* k = int_range 0 3 in
      return (out_f, out_g, r0, r1, k))

(* Under s -> s every label is safe at depth 0: the adversary spells a
   word of the label's own model and keeping every item lands in it. *)
let prop_schema_self_safe =
  QCheck.Test.make ~count:300 ~name:"every label of s -> s is safe at depth 0" arb_section6
    (fun (out_f, out_g, r0, _, k) ->
      let s = section6_schema out_f out_g r0 in
      List.for_all
        (fun (v : Schema_rewrite.label_verdict) ->
          (v.v_verdict = Contract.Safe && v.v_safe_at = Some 0 && v.v_possible_at = Some 0)
          || QCheck.Test.fail_reportf "%s: %a" v.v_label Contract.pp_verdict v.v_verdict)
        (Schema_rewrite.check (Contract.create ~k ~s0:s ~target:s ()) ~root:"r")
          .Schema_rewrite.verdicts)

(* The win-table reduction answers exactly as the product reduction of
   the oracle, verdicts and minimal depths, except on empty content. *)
let prop_section6_parity =
  QCheck.Test.make ~count:600 ~name:"Section 6 on the win tables matches the product reduction"
    arb_section6
    (fun (out_f, out_g, r0, r1, k) ->
      let c =
        Contract.create ~k ~s0:(section6_schema out_f out_g r0)
          ~target:(section6_schema out_f out_g r1) ()
      in
      match section6_disagreement c ~root:"r" with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* ------------------------------------------------------------------ *)
(* Compiled contracts: verdicts, counters, shared tables              *)
(* ------------------------------------------------------------------ *)

let test_contract_verdicts () =
  let c2 = contract schema_star2 in
  check "safe into (**)" true
    (Contract.analyze c2 ~context:(Contract.Element "newspaper") newspaper_word
     = Contract.Safe);
  let c3 = contract schema_star3 in
  check "possible-only into (***)" true
    (Contract.analyze c3 ~context:(Contract.Element "newspaper") newspaper_word
     = Contract.Possible_only);
  check "impossible word" true
    (Contract.analyze c3 ~context:(Contract.Element "newspaper")
       [ Symbol.Label "title" ]
     = Contract.Impossible);
  (* input contexts resolve against the function's input type *)
  check "Get_Temp params" true
    (Contract.analyze c2 ~context:(Contract.Input "Get_Temp")
       [ Symbol.Label "city" ]
     = Contract.Safe)

let test_contract_unknown_context () =
  let c = contract schema_star2 in
  (match Contract.analyze c ~context:(Contract.Element "nosuch") [] with
   | _ -> Alcotest.fail "Element nosuch should raise"
   | exception Contract.Unknown_context _ -> ());
  match Contract.analyze c ~context:(Contract.Input "nosuch") [] with
  | _ -> Alcotest.fail "Input nosuch should raise"
  | exception Contract.Unknown_context _ -> ()

let test_contract_counters () =
  let c = contract schema_star3 in
  let s0 = Contract.stats c in
  check_int "fresh: no hits" 0 s0.Contract.hits;
  check_int "fresh: no misses" 0 s0.Contract.misses;
  (* unsafe-but-possible word: analyze solves the safe AND the possible
     game, and each fills table entries the first time *)
  ignore (Contract.analyze c ~context:(Contract.Element "newspaper") newspaper_word);
  let s1 = Contract.stats c in
  check_int "cold analyze: 2 misses" 2 s1.Contract.misses;
  check_int "cold analyze: 0 hits" 0 s1.Contract.hits;
  check "cold analyze filled entries" true (s1.Contract.entries > 0);
  check_int "nothing is evicted" 0 s1.Contract.evictions;
  ignore (Contract.analyze c ~context:(Contract.Element "newspaper") newspaper_word);
  let s2 = Contract.stats c in
  check_int "warm analyze: 2 hits" 2 s2.Contract.hits;
  check_int "warm analyze: no new miss" 2 s2.Contract.misses;
  check_int "warm analyze: no new entry" s1.Contract.entries s2.Contract.entries;
  check "hit rate" true (Contract.hit_rate s2 = 0.5);
  let d = Contract.diff_stats ~before:s1 s2 in
  check_int "diff hits" 2 d.Contract.hits;
  check_int "diff misses" 0 d.Contract.misses;
  ignore (Contract.analyze c ~context:(Contract.Element "newspaper") newspaper_word);
  let d = Contract.diff_stats ~before:s2 (Contract.stats c) in
  check_int "tables survive: warm analyze hits" 2 d.Contract.hits;
  check_int "tables survive: no miss" 0 d.Contract.misses;
  check_int "tables survive: same entries" s1.Contract.entries d.Contract.entries

let test_word_analyses_cached () =
  let c = contract schema_star2 in
  let regex = contract_regex c "newspaper" in
  let r1 = Contract.safe_run c ~target_regex:regex newspaper_word in
  check "a first fill is a miss" true (Win.fills r1 > 0);
  check_int "miss recorded" 1 (Contract.stats c).Contract.misses;
  let r2 = Contract.safe_run c ~target_regex:regex newspaper_word in
  check_int "a repeated word fills nothing" 0 (Win.fills r2);
  check_int "hit recorded" 1 (Contract.stats c).Contract.hits;
  check "is_safe agrees" true (Contract.is_safe c ~target_regex:regex newspaper_word);
  ignore (Contract.possible_run c ~target_regex:regex newspaper_word);
  let p2 = Contract.possible_run c ~target_regex:regex newspaper_word in
  check_int "possible repeat fills nothing" 0 (Win.fills p2);
  check_int "possible hit recorded" 3 (Contract.stats c).Contract.hits;
  (* a word never analyzed whose steps are all filled is a hit too: the
     tables are shared by every word, not keyed by one *)
  check "a lone TimeOut is unsafe" false
    (Contract.is_safe c ~target_regex:regex [ Symbol.Fun "TimeOut" ]);
  check_int "new word, filled steps: a hit" 4 (Contract.stats c).Contract.hits

(* A check and the win-table activity it caused: the change in the
   contract's counters around it. *)
let check_activity rw doc =
  let c = Rewriter.contract rw in
  let before = Contract.stats c in
  let r = Rewriter.check rw doc in
  (r, Contract.diff_stats ~before (Contract.stats c))

let test_unified_check_report () =
  let rw = rewriter schema_star2 in
  let r, cache = check_activity rw fig2a in
  check "ok" true r.Rewriter.ok;
  check "no failures" true (r.Rewriter.failures = []);
  check "cold check computes" true (cache.Contract.misses > 0);
  let _, cache2 = check_activity rw fig2a in
  check "warm check misses nothing" true (cache2.Contract.misses = 0);
  check "warm check hits" true (cache2.Contract.hits > 0);
  let rw3 = rewriter schema_star3 in
  let r3 = Rewriter.check ~mode:Rewriter.Check_possible rw3 fig2a in
  check "possible into (***)" true r3.Rewriter.ok;
  let r3s = Rewriter.check ~mode:Rewriter.Check_safe rw3 fig2a in
  check "not safe into (***)" false r3s.Rewriter.ok;
  check "failures reported" true (r3s.Rewriter.failures <> [])

let test_check_mixed_mode () =
  let rw = rewriter schema_star3 in
  (* star3 needs TimeOut pre-fired to be checkable safely *)
  let r =
    Rewriter.check
      ~mode:(Rewriter.Check_mixed
               { eager_calls = (fun n -> n = "TimeOut" || n = "Get_Temp");
                 invoker = honest_invoker ~timeout_returns:`Exhibits })
      rw fig2a
  in
  check "mixed check passes" true r.Rewriter.ok

let test_shared_contract () =
  let c = contract schema_star2 in
  let rw1 = Rewriter.of_contract c in
  let rw2 = Rewriter.of_contract c in
  check "contract is shared" true (Rewriter.contract rw1 == Rewriter.contract rw2);
  ignore (Rewriter.check rw1 fig2a);
  let _, cache = check_activity rw2 fig2a in
  check "second rewriter rides the shared cache" true
    (cache.Contract.misses = 0 && cache.Contract.hits > 0)

let prop_contract_cache_transparent =
  QCheck.Test.make ~count:200
    ~name:"cached contract verdicts equal fresh-engine verdicts"
    arb_mini
    (fun (out_f, out_g, target, word, k) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let shared = Contract.create ~k ~s0:s ~target:s () in
      let cold_safe = Contract.is_safe shared ~target_regex word in
      let cold_possible = Contract.is_possible shared ~target_regex word in
      let warm_safe = Contract.is_safe shared ~target_regex word in
      let warm_possible = Contract.is_possible shared ~target_regex word in
      let fresh = Contract.create ~k ~s0:s ~target:s () in
      let fresh_safe = Contract.is_safe fresh ~target_regex word in
      let fresh_possible = Contract.is_possible fresh ~target_regex word in
      if cold_safe <> fresh_safe || warm_safe <> fresh_safe then
        QCheck.Test.fail_reportf "safe: cold=%b warm=%b fresh=%b" cold_safe
          warm_safe fresh_safe;
      if cold_possible <> fresh_possible || warm_possible <> fresh_possible then
        QCheck.Test.fail_reportf "possible: cold=%b warm=%b fresh=%b"
          cold_possible warm_possible fresh_possible;
      let st = Contract.stats shared in
      if st.Contract.hits < 2 then
        QCheck.Test.fail_reportf "expected warm lookups to hit, stats: %a"
          Contract.pp_stats st;
      true)

let prop_contract_check_parity =
  QCheck.Test.make ~count:60
    ~name:"warm contract checks match fresh-engine checks on random documents"
    QCheck.(pair (pair gen_mini_content_arb gen_mini_content_arb) small_int)
    (fun ((content0, content1), seed) ->
      let make_schema root_content =
        let s = mini_schema_base () in
        Schema.with_root (Schema.add_element s "r" root_content) "r"
      in
      let s0 = make_schema content0 in
      let target = make_schema content1 in
      let g = Generate.create ~seed ~max_depth:16 s0 in
      match Generate.document g with
      | exception Generate.Generation_failed _ -> true
      | doc ->
        let shared = Rewriter.of_contract (Contract.create ~k:1 ~s0 ~target ()) in
        let cold = Rewriter.check shared doc in
        let warm, warm_cache = check_activity shared doc in
        let fresh = Rewriter.check (Rewriter.create ~k:1 ~s0 ~target ()) doc in
        if cold.Rewriter.failures <> fresh.Rewriter.failures
           || warm.Rewriter.failures <> fresh.Rewriter.failures then
          QCheck.Test.fail_reportf "cached failures diverge on %a" D.pp doc;
        if warm_cache.Contract.misses <> 0 then
          QCheck.Test.fail_reportf "re-checking the same document missed: %a"
            Contract.pp_stats warm_cache;
        true)

(* Verdicts computed at different depths through one contract must
   never alias in the analysis cache: f needs two levels (its output is
   the call g, whose output is an a), so the k=1 and k=2 answers
   differ for the same (regex, word) pair. *)
let test_contract_k_no_alias () =
  let s = Schema.empty in
  let s = Schema.add_element s "a" (R.sym Schema.A_data) in
  let s =
    Schema.add_function s
      (Schema.func "f" ~input:R.epsilon ~output:(R.sym (Schema.A_fun "g")))
  in
  let s =
    Schema.add_function s
      (Schema.func "g" ~input:R.epsilon ~output:(R.sym (Schema.A_label "a")))
  in
  let env = Schema.env_of_schema s in
  let target_regex = Schema.compile_content env (R.sym (Schema.A_label "a")) in
  let c = Contract.create ~k:4 ~s0:s ~target:s () in
  let word = [ Symbol.Fun "f" ] in
  check "unsafe at k=1" false (Contract.is_safe ~k:1 c ~target_regex word);
  check "safe at k=2" true (Contract.is_safe ~k:2 c ~target_regex word);
  check "still unsafe at k=1 (no aliasing)" false
    (Contract.is_safe ~k:1 c ~target_regex word);
  check "safe again at k=2 (cache hit, same verdict)" true
    (Contract.is_safe ~k:2 c ~target_regex word);
  let m = Contract.minimal_k c ~target_regex word in
  check "minimal safe depth is 2" true (m.Contract.safe_at = Some 2);
  check "minimal possible depth is 2" true (m.Contract.possible_at = Some 2)

(* ------------------------------------------------------------------ *)
(* Win tables vs the reference engines, clones and shared contracts    *)
(* ------------------------------------------------------------------ *)

(* A deterministic invoker: the i-th call of a run answers with the
   ((seed + i) mod n)-th word of the function's (finite) output
   language, so two runs making the same calls see the same answers. *)
let mini_invoker ?(seed = 0) env =
  let calls = ref seed in
  fun fname _params ->
    let outs =
      match Schema.String_map.find_opt fname env.Schema.env_functions with
      | None -> [ [] ]
      | Some func ->
        Exhaustive.enum_language (Schema.compile_content env func.Schema.f_output)
    in
    incr calls;
    List.map mini_item (List.nth outs (!calls mod List.length outs))

(* A misbehaving twin of [mini_invoker]: the i-th call is down (raises
   [Failure]), gives up after retries ([Invocation_failed]), returns a
   word that may lie outside the declared output type, or answers
   honestly, by (seed + i) mod 5. *)
let faulty_invoker ~seed env =
  let calls = ref seed and honest = mini_invoker ~seed env in
  fun fname params ->
    incr calls;
    match !calls mod 5 with
    | 0 -> failwith ("down: " ^ fname)
    | 1 ->
      raise (Execute.Invocation_failed { fname; attempts = 3; cause = Failure "timeout" })
    | 2 ->
      List.filteri
        (fun j _ -> (!calls lsr j) land 1 = 1)
        [ mini_item (Symbol.Label "b"); mini_item (Symbol.Fun "g"); mini_item (Symbol.Label "a") ]
    | _ -> honest fname params

let outcome_view = function
  | Ok (o : Execute.outcome) ->
    Ok (o.Execute.materialized,
        List.map (fun (i : Execute.invocation) -> i.Execute.inv_name) o.Execute.invocations)
  | Error f -> Error (Fmt.str "%a" Execute.pp_failure f)

(* Verdicts and execution of one word through the contract's win
   tables: the safe strategy when there is one, else the possible
   one. *)
let run_word c env ~target_regex word =
  let safe = Contract.safe_run c ~target_regex word in
  let possible = Contract.possible_run c ~target_regex word in
  let outcome =
    if Win.ok safe || Win.ok possible then
      let r = if Win.ok safe then safe else possible in
      Some (outcome_view (Execute.run r (mini_invoker env) (List.map mini_item word)))
    else None
  in
  (Win.ok safe, Win.ok possible, outcome)

let gen_shared_setup =
  let open QCheck.Gen in
  let* out_f = gen_mini_content in
  let* out_g = gen_mini_content in
  let* target = gen_mini_content in
  let* words = list_size (int_range 1 6) gen_mini_word in
  let* k = int_range 1 3 in
  return (out_f, out_g, target, words, k)

let print_shared (out_f, out_g, target, words, k) =
  Fmt.str "f:()->%a; g:()->%a; target=%a; words=[%a]; k=%d"
    Schema.pp_content out_f Schema.pp_content out_g Schema.pp_content target
    Fmt.(list ~sep:(any "; ") (list ~sep:(any ".") Symbol.pp)) words k

let gen_parity_setup =
  let open QCheck.Gen in
  let* out_f = gen_mini_content in
  let* out_g = gen_mini_content in
  let* target = gen_mini_content in
  let* words = list_size (int_range 1 3) gen_mini_word in
  let* k = int_range 0 3 in
  let* seed = small_nat in
  return ((out_f, out_g, target, words, k), seed)

(* One contract answers every word of the list from its (shared,
   growing) tables. Each verdict must equal the reference engines on a
   fresh product — lazy and eager marking for safe, Figure 9's
   reachability for possible — and the brute-force game where it plays
   the same game: possible at every k, safe at k <= 1 (see
   test_marking_exhaustive_divergence). Each walk over the tables must
   make the same calls and materialize the same forest as the walk
   over the reference product, against the same scripted services, and
   the same calls and failure against misbehaving ones. *)
let prop_table_parity =
  QCheck.Test.make ~count:1000
    ~name:"win tables match marking, possible and the brute-force game"
    (QCheck.make
       ~print:(fun (setup, seed) -> Fmt.str "%s; seed=%d" (print_shared setup) seed)
       gen_parity_setup)
    (fun ((out_f, out_g, target, words, k), seed) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let outputs = Exhaustive.outputs_of_env env in
      let target_dfa =
        Auto.Dfa.complete
          ~alphabet:
            (Auto.Sym_set.of_list
               [ Symbol.Label "a"; Symbol.Label "b"; Symbol.Fun "f"; Symbol.Fun "g";
                 Symbol.Data ])
          (Auto.Dfa.of_regex target_regex)
      in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let pw = Fmt.(list ~sep:(any ".") Symbol.pp) in
      List.iter
        (fun word ->
          let safe = Contract.safe_run c ~target_regex word in
          let possible = Contract.possible_run c ~target_regex word in
          let product () = Reference.product c ~target_regex word in
          let lazy_ = Marking.analyze_lazy (product ()) in
          let eager = Marking.analyze_eager (product ()) in
          let live = Possible.analyze (product ()) in
          if Win.ok safe <> lazy_.Marking.safe || Win.ok safe <> eager.Marking.safe then
            QCheck.Test.fail_reportf "%a: table safe=%b, lazy=%b, eager=%b" pw word
              (Win.ok safe) lazy_.Marking.safe eager.Marking.safe;
          if Win.ok possible <> live.Possible.possible then
            QCheck.Test.fail_reportf "%a: table possible=%b, Figure 9=%b" pw word
              (Win.ok possible) live.Possible.possible;
          if k <= 1 && Win.ok safe <> Exhaustive.safe ~outputs ~target_dfa ~k word then
            QCheck.Test.fail_reportf "%a: table safe=%b, brute force disagrees" pw word
              (Win.ok safe);
          if Win.ok possible <> Exhaustive.possible ~outputs ~target_dfa ~k word then
            QCheck.Test.fail_reportf "%a: table possible=%b, brute force disagrees" pw
              word (Win.ok possible);
          let walk follow =
            outcome_view (follow (mini_invoker ~seed env) (List.map mini_item word))
          in
          if Win.ok safe
             && walk (Execute.run safe) <> walk (Reference.follow_safe lazy_)
          then QCheck.Test.fail_reportf "%a: safe walks differ" pw word;
          if Win.ok possible
             && walk (Execute.run possible) <> walk (Reference.follow_possible live)
          then QCheck.Test.fail_reportf "%a: possible walks differ" pw word;
          (* against misbehaving services: the same calls in the same
             order, and the same outcome or failure *)
          let faulty follow =
            let calls = ref [] and invoker = faulty_invoker ~seed env in
            let logged fname params =
              calls := fname :: !calls;
              invoker fname params
            in
            let view = outcome_view (follow logged (List.map mini_item word)) in
            (List.rev !calls, view)
          in
          let validate fname forest = Validate.output_instance (Contract.ctx c) fname forest = [] in
          if Win.ok safe
             && faulty (Execute.run ~validate safe)
                <> faulty (Reference.follow_safe ~validate lazy_)
          then QCheck.Test.fail_reportf "%a: safe walks differ against faulty services" pw word;
          if Win.ok possible
             && faulty (Execute.run possible) <> faulty (Reference.follow_possible live)
          then
            QCheck.Test.fail_reportf "%a: possible walks differ against faulty services" pw word)
        words;
      true)

(* Marking and Exhaustive play different games at k >= 2. Inside a
   service output, Marking's player decides keep-or-invoke on a nested
   call knowing which Glushkov position the adversary chose, but not
   the letters after it; Exhaustive's player sees the whole output word
   first. With target b.a | g.b, out_g = b and w = f (which must be
   invoked), out_f = g.(a|b) has one g position followed by either
   letter: keeping g loses to a, invoking it loses to b, so Marking
   says unsafe while the full-knowledge game wins. Spelled g.a | g.b,
   the position already tells which letter follows, and both say safe.
   At k = 1 the nested g cannot be invoked, and both games agree. The
   tables follow Marking. *)
let test_marking_exhaustive_divergence () =
  let a = R.sym (Schema.A_label "a") and b = R.sym (Schema.A_label "b") in
  let g = R.sym (Schema.A_fun "g") in
  let target_regex =
    R.alt
      (R.seq (R.sym (Symbol.Label "b")) (R.sym (Symbol.Label "a")))
      (R.seq (R.sym (Symbol.Fun "g")) (R.sym (Symbol.Label "b")))
  in
  let word = [ Symbol.Fun "f" ] in
  List.iter
    (fun (spelling, out_f, marking_safe_from) ->
      let s = mini_schema out_f b in
      let outputs = Exhaustive.outputs_of_env (Schema.env_of_schema s) in
      let target_dfa = Auto.Dfa.of_regex target_regex in
      for k = 1 to 3 do
        let c = Contract.create ~k ~s0:s ~target:s () in
        let expected = k >= marking_safe_from in
        let name what = Fmt.str "%s, k=%d: %s" spelling k what in
        check (name "lazy marking") expected
          (Marking.analyze_lazy (Reference.product c ~target_regex word)).Marking.safe;
        check (name "eager marking") expected
          (Marking.analyze_eager (Reference.product c ~target_regex word)).Marking.safe;
        check (name "win tables") expected (Contract.is_safe c ~target_regex word);
        check (name "full-knowledge game") (k >= 2)
          (Exhaustive.safe ~outputs ~target_dfa ~k word)
      done)
    [ ("g.(a|b)", R.seq g (R.alt a b), max_int);
      ("g.a | g.b", R.alt (R.seq g a) (R.seq g b), 2) ]

(* A clone shares its parent's tables. The parent is warmed on one word
   list and cloned; then the clone analyzes and executes a second list
   on another domain while the parent does the same on this one. Each
   side must answer exactly like a sequential run on a fresh
   contract. *)
let prop_clone_isolation =
  QCheck.Test.make ~count:40
    ~name:"a clone on another domain answers like a sequential run"
    (QCheck.make
       ~print:(fun (setup, words_b) ->
         Fmt.str "%s; warm-up words=[%a]" (print_shared setup)
           Fmt.(list ~sep:(any "; ") (list ~sep:(any ".") Symbol.pp)) words_b)
       QCheck.Gen.(pair gen_shared_setup (list_size (int_range 1 6) gen_mini_word)))
    (fun ((out_f, out_g, target, words, k), warm_up) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let answers c words = List.map (run_word c env ~target_regex) words in
      let fresh () = Contract.create ~k ~s0:s ~target:s () in
      let expected = answers (fresh ()) words in
      let parent = fresh () in
      ignore (answers parent warm_up);
      let clone = Contract.clone parent in
      let on_clone = Domain.spawn (fun () -> answers clone words) in
      let got_parent = answers parent words in
      let got_clone = Domain.join on_clone in
      if got_clone <> expected then QCheck.Test.fail_report "clone answers differ";
      if got_parent <> expected then QCheck.Test.fail_report "parent answers differ";
      if (Contract.stats clone).Contract.hits + (Contract.stats clone).Contract.misses
         <> 2 * List.length words
      then QCheck.Test.fail_report "the clone did not count its own analyses";
      true)

(* The compiled artifacts never change after [create] and the tables
   publish immutably, so any number of domains may share one contract:
   four domains run the static check (both modes), validation against
   its ctx and materialization against scripted services over the same
   generated documents. Each must give the answers of a sequential run
   on a fresh contract. *)
let prop_shared_contract_domains =
  QCheck.Test.make ~count:20
    ~name:"four domains sharing one contract answer like a sequential run"
    QCheck.(
      triple (int_range 0 10_000) (oneofl [ schema_star2; schema_star3 ]) (int_range 1 2))
    (fun (seed, target, k) ->
      let docs =
        List.concat
          (List.mapi
             (fun i s ->
               let g = Generate.create ~seed:(seed + i) s in
               List.init 4 (fun _ -> Generate.document g))
             [ schema_star; schema_star2; schema_star3 ])
      in
      let answers c =
        let rw = Rewriter.of_contract c in
        List.map
          (fun doc ->
            let verdict mode =
              let r = Rewriter.check ~mode rw doc in
              (r.Rewriter.ok, r.Rewriter.failures)
            in
            let materialized mode =
              match
                Rewriter.materialize ~mode rw
                  ~invoker:(honest_invoker ~timeout_returns:`Exhibits) doc
              with
              | Ok (doc', invs) ->
                Ok
                  ( doc',
                    List.map
                      (fun (i : Rewriter.located_invocation) ->
                        (i.Rewriter.at, i.Rewriter.invocation.Execute.inv_name))
                      invs )
              | Error fs -> Error fs
            in
            ( verdict Rewriter.Check_safe,
              verdict Rewriter.Check_possible,
              Validate.document_violations (Contract.ctx c) doc,
              materialized Rewriter.Safe,
              materialized Rewriter.Possible ))
          docs
      in
      let expected = answers (Contract.create ~k ~s0:schema_star ~target ()) in
      let shared = Contract.create ~k ~s0:schema_star ~target () in
      let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> answers shared)) in
      let got = Array.map Domain.join domains in
      Array.iteri
        (fun i answers ->
          if answers <> expected then
            QCheck.Test.fail_reportf "domain %d differs from the sequential run" i)
        got;
      true)

(* ------------------------------------------------------------------ *)
(* Win tables: fills and hits, bounded size, domain safety             *)
(* ------------------------------------------------------------------ *)

(* Every analysis of [ops] (word index, kind) against one contract: a
   miss iff it filled entries, and an analysis seen before is a hit. *)
let analyze_op c ~target_regex words (i, kind) =
  let word = List.nth words (i mod List.length words) in
  match kind with
  | `Safe -> Contract.is_safe c ~target_regex word
  | `Possible -> Contract.is_possible c ~target_regex word

let gen_table_ops =
  let open QCheck.Gen in
  pair gen_shared_setup (list_size (int_range 1 20) (pair (int_bound 5) (oneofl [ `Safe; `Possible ])))

let print_table_ops (setup, ops) =
  Fmt.str "%s; ops=[%a]" (print_shared setup)
    Fmt.(list ~sep:(any "; ")
           (pair ~sep:(any ":") int
              (using (function `Safe -> "safe" | `Possible -> "possible") string)))
    ops

let prop_table_counters =
  QCheck.Test.make ~count:300
    ~name:"win-table counters: a fill is a miss, a repeat is a hit"
    (QCheck.make ~print:print_table_ops gen_table_ops)
    (fun ((out_f, out_g, target, words, k), ops) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun ((i, _) as op) ->
          let before = Contract.stats c in
          ignore (analyze_op c ~target_regex words op);
          let after = Contract.stats c in
          let filled = after.Contract.entries - before.Contract.entries in
          let missed = after.Contract.misses - before.Contract.misses in
          let hit = after.Contract.hits - before.Contract.hits in
          if missed + hit <> 1 then QCheck.Test.fail_report "one analysis, one count";
          if (missed = 1) <> (filled > 0) then
            QCheck.Test.fail_reportf "miss=%d but %d entries filled" missed filled;
          let key = (i mod List.length words, snd op) in
          if Hashtbl.mem seen key && hit <> 1 then
            QCheck.Test.fail_report "a repeated analysis missed";
          Hashtbl.replace seen key ())
        ops;
      let st = Contract.stats c in
      st.Contract.evictions = 0 && st.Contract.misses <= st.Contract.entries)

(* The ledger's batch-diverse pair: feeds whose entries the sender may
   ship as Fetch / Expand calls, into a fully extensional feed. *)
let feed_functions = {|
element head = #data
element entry = title.(Price | price)
element title = #data
element price = #data
function Fetch : #data -> entry*
function Expand : #data -> (entry | Fetch)*
function Price : title -> price
|}

let feed_sender =
  parse_schema ("root feed\nelement feed = head.(entry | Fetch | Expand)*\n" ^ feed_functions)

let feed_exchange =
  parse_schema ("root feed\nelement feed = head.entry*\n" ^ feed_functions)

(* 20k distinct root words head.x_1...x_n, x_i in {entry, Fetch, Expand}:
   a word cache would hold one entry per word, the tables hold one per
   (winning set, letter) and (function, exit set). The feed target
   head.entry* has 3 DFA states, so at most 2^3 = 8 winning sets; with
   2 letters in its alphabet and 3 forking functions there are 5
   letter classes, and 2 games at 2 depths (the top and the nested
   level) fill at most 2 * 2 * 8 * (5 + 3) = 256 entries. *)
let test_table_size_bounded () =
  let c = Contract.create ~k:2 ~s0:feed_sender ~target:feed_exchange () in
  let regex = contract_regex c "feed" in
  let letters = [ Symbol.Label "entry"; Symbol.Fun "Fetch"; Symbol.Fun "Expand" ] in
  let rec words n =
    if n = 0 then [ [] ]
    else List.concat_map (fun w -> List.map (fun l -> l :: w) letters) (words (n - 1))
  in
  let distinct =
    List.concat_map (fun n -> words n) (List.init 10 Fun.id)
    |> List.filteri (fun i _ -> i < 20_000)
    |> List.map (fun w -> Symbol.Label "head" :: w)
  in
  check_int "20k distinct words" 20_000 (List.length (List.sort_uniq compare distinct));
  let safe = ref 0 in
  List.iter
    (fun w ->
      if Contract.is_safe c ~target_regex:regex w then incr safe;
      ignore (Contract.is_possible c ~target_regex:regex w))
    distinct;
  let st = Contract.stats c in
  check "at most 8 winning sets" true (Contract.sets c ~target_regex:regex <= 8);
  check "entries stay below the bound" true (st.Contract.entries <= 256);
  check "misses never exceed fills" true (st.Contract.misses <= st.Contract.entries);
  check_int "every analysis counted" 40_000 (st.Contract.hits + st.Contract.misses);
  (* Fetch and Expand can only return entries and further calls, so
     every feed rewrites safely at depth 2 *)
  check_int "every feed is safe" 20_000 !safe

(* Concurrent access: [jobs] domains replay the same analyses against
   one shared contract. Each table entry is filled once, under the
   lock, whichever domain needs it first, so the entries filled equal a
   sequential run's, every analysis is counted once, and no analysis
   misses without filling an entry. *)
let prop_cache_domain_safe =
  QCheck.Test.make ~count:60
    ~name:"cache counters stay exact under concurrent domains"
    (QCheck.make
       ~print:(fun (jobs, x) -> Fmt.str "jobs=%d; %s" jobs (print_table_ops x))
       QCheck.Gen.(pair (oneofl [ 2; 4 ]) gen_table_ops))
    (fun (jobs, ((out_f, out_g, target, words, k), ops)) ->
      let s = mini_schema out_f out_g in
      let env = Schema.env_of_schema s in
      let target_regex = Schema.compile_content env target in
      let replay c = List.map (analyze_op c ~target_regex words) ops in
      let sequential = Contract.create ~k ~s0:s ~target:s () in
      let expected = replay sequential in
      let c = Contract.create ~k ~s0:s ~target:s () in
      let domains = Array.init jobs (fun _ -> Domain.spawn (fun () -> replay c)) in
      let got = Array.map Domain.join domains in
      let st = Contract.stats c and seq = Contract.stats sequential in
      if Array.exists (fun g -> g <> expected) got then
        QCheck.Test.fail_report "a domain's verdicts differ from the sequential run";
      if st.Contract.entries <> seq.Contract.entries then
        QCheck.Test.fail_reportf "entries %d, sequential %d" st.Contract.entries
          seq.Contract.entries;
      if st.Contract.hits + st.Contract.misses <> jobs * List.length ops then
        QCheck.Test.fail_reportf "lost counts: %a" Contract.pp_stats st;
      if st.Contract.misses > st.Contract.entries then
        QCheck.Test.fail_reportf "a miss without a fill: %a" Contract.pp_stats st;
      true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engines_match_reference;
      prop_safe_implies_possible;
      prop_safe_execution_robust;
      prop_safe_worst_at_least_possible_min;
      prop_ltr_implies_arbitrary;
      prop_k_monotone;
      prop_schema_compat_sound;
      prop_tree_materialization_sound;
      prop_schema_self_safe;
      prop_section6_parity;
      prop_contract_cache_transparent;
      prop_contract_check_parity;
      prop_table_counters;
      prop_cache_domain_safe;
      prop_table_parity;
      prop_clone_isolation;
      prop_shared_contract_domains;
      prop_conforms_iff_no_violations
    ]

let () =
  Alcotest.run "core"
    [ ("paper-example",
       [ Alcotest.test_case "fork automaton of Fig. 4" `Quick test_fork_automaton_shape;
         Alcotest.test_case "safe into (**) [Fig. 5-6]" `Quick test_safe_into_star2;
         Alcotest.test_case "unsafe into (***) [Fig. 7-8]" `Quick test_unsafe_into_star3;
         Alcotest.test_case "possible into (***) [Fig. 10-11]" `Quick test_possible_into_star3;
         Alcotest.test_case "instance needs nothing" `Quick test_already_instance
       ]);
      ("tree-level",
       [ Alcotest.test_case "Fig. 2 doc is instance of (*)" `Quick test_document_instance_of_star;
         Alcotest.test_case "Fig. 2 doc not instance of (**)" `Quick test_document_not_instance_of_star2;
         Alcotest.test_case "materialize into (**)" `Quick test_materialize_fig2_into_star2;
         Alcotest.test_case "materialize into (***) possibly" `Quick test_materialize_fig2_into_star3_possible;
         Alcotest.test_case "nested parameters" `Quick test_nested_parameters;
         Alcotest.test_case "ill-typed service output" `Quick test_ill_typed_output;
         Alcotest.test_case "ill-typed offender identified" `Quick
           test_ill_typed_offender_identified;
         Alcotest.test_case "service error is typed" `Quick test_service_error_typed;
         Alcotest.test_case "give-up report keeps attempts" `Quick
           test_invocation_failed_attempts;
         Alcotest.test_case "zero-invocation invariant breach" `Quick
           test_zero_invocation_invariant
       ]);
      ("depth",
       [ Alcotest.test_case "k=1 vs k=2" `Quick test_depth_k;
         Alcotest.test_case "one call per occurrence" `Quick test_occurrence_cache;
         Alcotest.test_case "recursive: never safe, always possible" `Quick test_recursive_never_safe;
         Alcotest.test_case "k=0" `Quick test_depth_zero;
         Alcotest.test_case "document minimal k" `Quick test_document_minimal_k
       ]);
      ("restrictions",
       [ Alcotest.test_case "non-invocable functions" `Quick test_noninvocable ]);
      ("patterns",
       [ Alcotest.test_case "pattern members" `Quick test_pattern_members;
         Alcotest.test_case "pattern in target schema" `Quick test_pattern_in_target;
         Alcotest.test_case "wildcards" `Quick test_wildcards
       ]);
      ("mixed", [ Alcotest.test_case "mixed approach" `Quick test_mixed ]);
      ("schema-rewriting",
       [ Alcotest.test_case "compatibility verdicts" `Quick test_schema_rewriting;
         Alcotest.test_case "per-label report" `Quick test_schema_rewriting_verdicts;
         Alcotest.test_case "representative matches no wildcard or pattern" `Quick
           test_schema_rewriting_representative_hidden;
         Alcotest.test_case "cache counters untouched" `Quick
           test_schema_rewriting_leaves_stats;
         Alcotest.test_case "no look-ahead: safe documents, unsafe type" `Quick
           test_schema_rewriting_no_lookahead;
         Alcotest.test_case "empty content is vacuously safe" `Quick
           test_schema_rewriting_empty_content;
         Alcotest.test_case "tables match the product reduction" `Quick
           test_schema_rewriting_oracle_parity
       ]);
      ("validation",
       [ Alcotest.test_case "violations" `Quick test_validate_violations;
         Alcotest.test_case "generated instances validate" `Quick test_generated_instances_validate;
         Alcotest.test_case "generated outputs validate" `Quick test_generated_outputs_validate
       ]);
      ("left-to-right",
       [ Alcotest.test_case "restriction witness" `Quick test_ltr_restriction_witness;
         Alcotest.test_case "marking vs full-knowledge game" `Quick
           test_marking_exhaustive_divergence
       ]);
      ("cost",
       [ Alcotest.test_case "safe worst-case fee" `Quick test_cost_safe_worst;
         Alcotest.test_case "possible minimal fee" `Quick test_cost_possible_min;
         Alcotest.test_case "unbounded adversary" `Quick test_cost_unbounded;
         Alcotest.test_case "keeping is free" `Quick test_cost_keep_is_free;
         Alcotest.test_case "cost-guided execution" `Quick test_cost_guided_execution
       ]);
      ("engines",
       [ Alcotest.test_case "eager = lazy on the example" `Quick test_engines_agree_on_example;
         Alcotest.test_case "lazy explores less" `Quick test_lazy_explores_less
       ]);
      ("contract",
       [ Alcotest.test_case "verdicts" `Quick test_contract_verdicts;
         Alcotest.test_case "unknown contexts" `Quick test_contract_unknown_context;
         Alcotest.test_case "hit/miss counters" `Quick test_contract_counters;
         Alcotest.test_case "word shims are cached" `Quick test_word_analyses_cached;
         Alcotest.test_case "unified check report" `Quick test_unified_check_report;
         Alcotest.test_case "mixed check mode" `Quick test_check_mixed_mode;
         Alcotest.test_case "shared contract" `Quick test_shared_contract;
         Alcotest.test_case "no aliasing across k" `Quick test_contract_k_no_alias;
         Alcotest.test_case "table size bounded over 20k feed words" `Quick
           test_table_size_bounded
       ]);
      ("properties", qcheck_tests)
    ]
