(* Tests for the static diagnostics engine (lib/analysis): one
   triggering and one clean fixture per rule code, and qcheck
   properties — linting generated schemas never raises, and the vacuity verdict (AXM001) agrees with
   the automata-level emptiness check. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module D = Axml_core.Document
module Contract = Axml_core.Contract
module Json = Axml_obs.Json
module Diagnostic = Axml_analysis.Diagnostic
module Lint = Axml_analysis.Lint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema parse error: %s" e

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let codes ds =
  List.sort_uniq compare (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)

let has code ds = List.mem code (codes ds)

let severity_of code ds =
  List.find_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = code then Some d.Diagnostic.severity else None)
    ds

let la = R.sym (Symbol.Label "a")
let lb = R.sym (Symbol.Label "b")
let lc = R.sym (Symbol.Label "c")
let subject = Diagnostic.Element "x"

(* ------------------------------------------------------------------ *)
(* Regex level: AXM001 / AXM002 / AXM003                               *)
(* ------------------------------------------------------------------ *)

let test_vacuous_model () =
  let ds = Lint.lint_compiled ~subject R.empty in
  check "AXM001 fires" true (has "AXM001" ds);
  check "error severity" true (severity_of "AXM001" ds = Some Diagnostic.Error);
  (* a.∅ is still the empty language *)
  check "seq with empty" true (has "AXM001" (Lint.lint_compiled ~subject (R.seq la R.empty)));
  (* vacuity swallows the other regex rules: nothing else is reported *)
  check_int "only AXM001" 1 (List.length ds);
  check "clean" false (has "AXM001" (Lint.lint_compiled ~subject la))

let test_ambiguous_model () =
  (* (a.b | a.c): the first symbol does not decide the branch *)
  let r = R.alt (R.seq la lb) (R.seq la lc) in
  let ds = Lint.lint_compiled ~subject r in
  check "AXM002 fires" true (has "AXM002" ds);
  check "warning severity" true (severity_of "AXM002" ds = Some Diagnostic.Warning);
  (* the factored form a.(b | c) is 1-unambiguous *)
  let clean = Lint.lint_compiled ~subject (R.seq la (R.alt lb lc)) in
  check "clean" false (has "AXM002" clean)

let test_subsumed_branch () =
  (* (a* | a): the second branch adds nothing *)
  let ds = Lint.lint_compiled ~subject (R.alt (R.star la) la) in
  check "AXM003 fires" true (has "AXM003" ds);
  check "warning severity" true (severity_of "AXM003" ds = Some Diagnostic.Warning);
  check "clean" false (has "AXM003" (Lint.lint_compiled ~subject (R.alt la lb)));
  (* only top-level alternatives are inspected *)
  check "nested alt ignored" false
    (has "AXM003" (Lint.lint_compiled ~subject (R.seq (R.alt (R.star la) la) lb)))

(* ------------------------------------------------------------------ *)
(* Schema level: AXM010 / AXM011 / AXM012 / AXM014                     *)
(* ------------------------------------------------------------------ *)

let messy_text = {|
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

let clean_text = {|
root r
element r = a.(F | b)
element a = #data
element b = #data
function F : #data -> b
|}

let test_schema_rules () =
  let ds = Lint.lint_schema (parse_schema messy_text) in
  check "ambiguity found" true (has "AXM002" ds);
  check "redundancy found" true (has "AXM003" ds);
  check "unreachable found" true (has "AXM010" ds);
  check "no finite document" true (has "AXM011" ds);
  check "unused function" true (has "AXM012" ds);
  let subjects code =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.Diagnostic.code = code then Some d.Diagnostic.loc.Diagnostic.subject
        else None)
      ds
  in
  check "orphan unreachable" true
    (List.mem (Diagnostic.Element "orphan") (subjects "AXM010"));
  check "loop uninhabited" true
    (List.mem (Diagnostic.Element "loop") (subjects "AXM011"));
  check "Unused flagged" true
    (List.mem (Diagnostic.Function "Unused") (subjects "AXM012"));
  (* results come back sorted *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> Diagnostic.compare a b <= 0 && sorted tl
    | _ -> true
  in
  check "sorted" true (sorted ds)

let test_schema_clean () =
  check_int "no findings" 0 (List.length (Lint.lint_schema (parse_schema clean_text)))

let test_missing_root () =
  let s = parse_schema "element a = #data" in
  let ds = Lint.lint_schema s in
  check "AXM014 fires" true (has "AXM014" ds);
  check "hint severity" true (severity_of "AXM014" ds = Some Diagnostic.Hint);
  check "clean" false (has "AXM014" (Lint.lint_schema (parse_schema clean_text)))

let test_schema_positions () =
  let s, positions = Schema_parser.parse_with_positions messy_text in
  let ds = Lint.lint_schema ~file:"messy.axs" ~positions s in
  let orphan =
    List.find
      (fun (d : Diagnostic.t) ->
        d.Diagnostic.code = "AXM010"
        && d.Diagnostic.loc.Diagnostic.subject = Diagnostic.Element "orphan")
      ds
  in
  check "file attached" true (orphan.Diagnostic.loc.Diagnostic.file = Some "messy.axs");
  (match orphan.Diagnostic.loc.Diagnostic.pos with
   | Some p -> check_int "orphan declared on line 9" 9 p.Diagnostic.line
   | None -> Alcotest.fail "no position threaded");
  (* the rendered line carries the position *)
  let line = Fmt.str "@[<v>%a@]" Diagnostic.pp orphan in
  check "rendered with file:line:col" true (contains line "messy.axs:9:")

(* ------------------------------------------------------------------ *)
(* Contract level: AXM020 / AXM021 / AXM022 / AXM023                   *)
(* ------------------------------------------------------------------ *)

(* F's output (a lone <b>) can neither remain in nor materialize into
   the target's content model for r, so any document carrying the call
   is unexchangeable; G is invocable but occurs in no sender content. *)
let doomed_sender = parse_schema {|
root r
element r = a | F
element a = #data
element b = #data
function F : #data -> b
function G : #data -> a
|}

let doomed_target = parse_schema {|
root r
element r = a
element a = #data
element b = #data
function F : #data -> b
|}

let doomed_contract () = Contract.create ~s0:doomed_sender ~target:doomed_target ()

let test_contract_doomed () =
  let ds = Lint.lint_contract (doomed_contract ()) in
  check "never-safe found" true (has "AXM021" ds);
  check "never-safe is an error" true
    (severity_of "AXM021" ds = Some Diagnostic.Error);
  check "incompatible label found" true (has "AXM020" ds);
  check "always-materialize found" true (has "AXM022" ds);
  check "dead invocable found" true (has "AXM023" ds);
  let about name (d : Diagnostic.t) =
    d.Diagnostic.loc.Diagnostic.subject = Diagnostic.Function name
  in
  check "AXM021 blames F" true
    (List.exists (fun d -> d.Diagnostic.code = "AXM021" && about "F" d) ds);
  check "AXM023 blames G" true
    (List.exists (fun d -> d.Diagnostic.code = "AXM023" && about "G" d) ds)

let test_contract_never_safe_warning () =
  (* F may return <a> (fine) or <b> (refused): no safe rewriting of the
     minimal document, but a possible one exists — warning, not error. *)
  let sender = parse_schema {|
root r
element r = F
element a = #data
element b = #data
function F : #data -> (a | b)
|} in
  let target = parse_schema {|
root r
element r = a
element a = #data
element b = #data
function F : #data -> (a | b)
|} in
  let ds = Lint.lint_contract (Contract.create ~s0:sender ~target ()) in
  check "AXM021 fires" true (has "AXM021" ds);
  check "warning severity" true
    (severity_of "AXM021" ds = Some Diagnostic.Warning)

(* AXM020 must see through wildcards and patterns of the target: the
   Section 6 representative of r is not a function they match *)
let test_contract_wildcard_target () =
  List.iter
    (fun (name, s0, target) ->
      let ds =
        Lint.lint_contract
          (Contract.create ~s0:(Section6_fixtures.parse s0)
             ~target:(Section6_fixtures.parse target) ())
      in
      check (name ^ ": AXM020 on r") true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.code = "AXM020"
             && d.Diagnostic.loc.Diagnostic.subject = Diagnostic.Schema_pair "r")
           ds))
    Section6_fixtures.pairs

let test_contract_clean () =
  (* identical schemas: every document already conforms *)
  let s = parse_schema clean_text in
  let ds = Lint.lint_contract (Contract.create ~s0:s ~target:s ()) in
  check "no errors" false (Diagnostic.exceeds ~deny:Diagnostic.Warning ds)

(* F's declared output is b*, and a b may hold the invocable call G:
   flattening one F result takes two rewriting levels, one more than
   the contract's k=1 budget (AXM032). G itself is extensional-output
   and must stay unflagged. *)
let depth_gap_sender = parse_schema {|
root r
element r = a.(F | b)
element a = #data
element b = c.(G | a)
element c = #data
function F : #data -> b*
function G : c -> a
|}

let depth_gap_target = parse_schema {|
root r
element r = a.b
element a = #data
element b = c.a
element c = #data
|}

let test_contract_depth_gap () =
  let about name (d : Diagnostic.t) =
    d.Diagnostic.code = "AXM032"
    && d.Diagnostic.loc.Diagnostic.subject = Diagnostic.Function name
  in
  let ds =
    Lint.lint_contract
      (Contract.create ~s0:depth_gap_sender ~target:depth_gap_target ())
  in
  check "AXM032 fires at k=1" true (has "AXM032" ds);
  check "warning severity" true
    (severity_of "AXM032" ds = Some Diagnostic.Warning);
  check "blames F" true (List.exists (about "F") ds);
  check "not G (extensional output)" false (List.exists (about "G") ds);
  (* a k=2 budget covers the two levels: the rule is depth-aware *)
  let ds2 =
    Lint.lint_contract
      (Contract.create ~k:2 ~s0:depth_gap_sender ~target:depth_gap_target ())
  in
  check "clean at k=2" false (has "AXM032" ds2)

let test_contract_depth_unbounded () =
  (* H's output can embed H again: the embeds-a-call relation is
     cyclic, so no finite budget silences the rule *)
  let sender = parse_schema {|
root r
element r = a | H
element a = #data
function H : #data -> (a | H)
|} in
  let target = parse_schema {|
root r
element r = a*
element a = #data
|} in
  let ds = Lint.lint_contract (Contract.create ~k:5 ~s0:sender ~target ()) in
  check "AXM032 fires even at k=5" true (has "AXM032" ds)

(* ------------------------------------------------------------------ *)
(* Document level: AXM030 / AXM031                                     *)
(* ------------------------------------------------------------------ *)

let test_document_rules () =
  let c = doomed_contract () in
  let undeclared = D.elem "r" [ D.call "Nowhere" [] ] in
  let ds = Lint.lint_document c undeclared in
  check "AXM030 fires" true (has "AXM030" ds);
  check "error severity" true (severity_of "AXM030" ds = Some Diagnostic.Error);
  let doomed = D.elem "r" [ D.call "F" [ D.data "x" ] ] in
  let ds = Lint.lint_document c doomed in
  check "AXM031 fires" true (has "AXM031" ds);
  check "node located" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.code = "AXM031"
         && d.Diagnostic.loc.Diagnostic.subject = Diagnostic.Node [ 0 ])
       ds);
  let clean = D.elem "r" [ D.elem "a" [ D.data "x" ] ] in
  check_int "clean document" 0 (List.length (Lint.lint_document c clean))

(* ------------------------------------------------------------------ *)
(* Renderers and catalog                                               *)
(* ------------------------------------------------------------------ *)

let test_json_report () =
  let ds =
    Lint.lint_schema (parse_schema messy_text)
    @ Lint.lint_contract (doomed_contract ())
  in
  let json = Diagnostic.report_to_json ds in
  let v = Jsonv.parse_exn "report" (Json.to_string json) in
  check "report reads back as printed" true (Jsonv.equal json v);
  List.iter
    (fun d ->
      let dj = Diagnostic.to_json d in
      check "diagnostic reads back" true
        (Jsonv.equal dj (Jsonv.parse_exn "diagnostic" (Json.to_string dj))))
    ds;
  Jsonv.check_at "summary counts errors" v [ "summary"; "errors" ]
    (Json.Int (Diagnostic.count Diagnostic.Error ds));
  check_int "every diagnostic listed" (List.length ds)
    (List.length (Jsonv.elements [ "diagnostics" ] v))

let test_rule_catalog () =
  let catalog = List.map (fun (c, _, _) -> c) Diagnostic.rules in
  check "codes unique" true
    (List.length catalog = List.length (List.sort_uniq compare catalog));
  (* every code the fixtures above can produce is catalogued *)
  let produced =
    codes
      (Lint.lint_schema (parse_schema messy_text)
      @ Lint.lint_schema (parse_schema "element a = #data")
      @ Lint.lint_contract (doomed_contract ())
      @ Lint.lint_document (doomed_contract ())
          (D.elem "r" [ D.call "Nowhere" []; D.call "F" [] ]))
  in
  check "eight distinct rules exercised" true (List.length produced >= 8);
  List.iter
    (fun code -> check (code ^ " catalogued") true (List.mem code catalog))
    produced

let test_severity_accounting () =
  let ds = Lint.lint_contract (doomed_contract ()) in
  check "errors exceed error" true (Diagnostic.exceeds ~deny:Diagnostic.Error ds);
  check "errors exceed hint" true (Diagnostic.exceeds ~deny:Diagnostic.Hint ds);
  check "max is error" true (Diagnostic.max_severity ds = Some Diagnostic.Error);
  check_int "no findings, nothing exceeded" 0
    (if Diagnostic.exceeds ~deny:Diagnostic.Hint [] then 1 else 0)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* Random content models over two labels and two functions, this time
   including the empty regex so the vacuity rule actually triggers. *)
let gen_content : Schema.content QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    map R.sym
      (oneofl
         [ Schema.A_label "a"; Schema.A_label "b"; Schema.A_fun "f";
           Schema.A_fun "g"; Schema.A_data ])
  in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [ (3, atom);
          (1, return R.epsilon);
          (1, return R.empty);
          (2, map2 R.seq (gen (n / 2)) (gen (n / 2)));
          (2, map2 R.alt (gen (n / 2)) (gen (n / 2)));
          (1, map R.star (gen (n - 1)))
        ]
  in
  gen 6

let arb_content =
  QCheck.make ~print:(Fmt.str "%a" Schema.pp_content) gen_content

let mini_schema top out_f out_g =
  let s = Schema.empty in
  let s = Schema.add_element s "a" (R.sym Schema.A_data) in
  let s = Schema.add_element s "b" (R.sym Schema.A_data) in
  let s = Schema.add_function s (Schema.func "f" ~input:R.epsilon ~output:out_f) in
  let s = Schema.add_function s (Schema.func "g" ~input:R.epsilon ~output:out_g) in
  let s = Schema.add_element s "top" top in
  Schema.with_root s "top"

let prop_lint_never_raises =
  QCheck.Test.make ~count:300 ~name:"lint_schema never raises"
    QCheck.(triple arb_content arb_content arb_content)
    (fun (top, out_f, out_g) ->
      let s = mini_schema top out_f out_g in
      let ds = Lint.lint_schema s in
      (* and its report always renders to valid JSON *)
      Jsonv.is_valid (Json.to_string (Diagnostic.report_to_json ds)))

let prop_vacuity_matches_automata =
  QCheck.Test.make ~count:300 ~name:"AXM001 agrees with automata emptiness"
    QCheck.(triple arb_content arb_content arb_content)
    (fun (top, out_f, out_g) ->
      let s = mini_schema top out_f out_g in
      let env = Schema.env_of_schema s in
      let r = Schema.compile_content env top in
      let lint_empty = has "AXM001" (Lint.lint_compiled ~subject r) in
      let auto_empty = Auto.Dfa.is_empty (Auto.Dfa.of_regex r) in
      if lint_empty <> auto_empty then
        QCheck.Test.fail_reportf "lint says empty=%b but the DFA says %b"
          lint_empty auto_empty
      else true)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x11A7 |]))
    [ prop_lint_never_raises; prop_vacuity_matches_automata ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ("regex-rules",
       [ Alcotest.test_case "vacuous model" `Quick test_vacuous_model;
         Alcotest.test_case "ambiguous model" `Quick test_ambiguous_model;
         Alcotest.test_case "subsumed branch" `Quick test_subsumed_branch
       ]);
      ("schema-rules",
       [ Alcotest.test_case "messy schema" `Quick test_schema_rules;
         Alcotest.test_case "clean schema" `Quick test_schema_clean;
         Alcotest.test_case "missing root" `Quick test_missing_root;
         Alcotest.test_case "source positions" `Quick test_schema_positions
       ]);
      ("contract-rules",
       [ Alcotest.test_case "doomed contract" `Quick test_contract_doomed;
         Alcotest.test_case "never-safe warning" `Quick test_contract_never_safe_warning;
         Alcotest.test_case "clean contract" `Quick test_contract_clean;
         Alcotest.test_case "wildcard or pattern target (AXM020)" `Quick
           test_contract_wildcard_target;
         Alcotest.test_case "depth gap (AXM032)" `Quick test_contract_depth_gap;
         Alcotest.test_case "unbounded depth (AXM032)" `Quick
           test_contract_depth_unbounded
       ]);
      ("document-rules",
       [ Alcotest.test_case "call diagnostics" `Quick test_document_rules ]);
      ("reporting",
       [ Alcotest.test_case "json report" `Quick test_json_report;
         Alcotest.test_case "rule catalog" `Quick test_rule_catalog;
         Alcotest.test_case "severity accounting" `Quick test_severity_accounting
       ]);
      ("properties", qcheck_tests)
    ]
