(* Tests for the schema-evolution engine (lib/analysis/evolution.ml):
   per-label classification against a direct DFA-inclusion oracle, one
   triggering and one clean fixture per AXM04x code, the migration
   advisory over a small corpus, the shared JSON envelope, and the
   widening-soundness property (every v1 instance still validates under
   a purely-widened v2). *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module D = Axml_core.Document
module Contract = Axml_core.Contract
module Validate = Axml_core.Validate
module Generate = Axml_core.Generate
module Diagnostic = Axml_analysis.Diagnostic
module Evolution = Axml_analysis.Evolution
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
  List.sort_uniq compare
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)

let has code ds = List.mem code (codes ds)

let severity_of code ds =
  List.find_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = code then Some d.Diagnostic.severity else None)
    ds

let diff ?k v1 v2 = Evolution.diff ?k ~v1 ~v2 ()

let label_change (r : Evolution.report) l =
  match
    List.find_opt
      (fun (ld : Evolution.label_diff) -> ld.Evolution.l_label = l)
      r.Evolution.r_labels
  with
  | Some ld -> ld.Evolution.l_presence
  | None -> Alcotest.failf "label %s missing from the diff" l

let verdict_of (r : Evolution.report) l =
  match
    List.find_opt
      (fun (v : Evolution.verdict_lift) -> v.Evolution.v_label = l)
      r.Evolution.r_verdicts
  with
  | Some v -> v
  | None -> Alcotest.failf "no lifted verdict for %s" l

let la = R.sym (Symbol.Label "a")
let lb = R.sym (Symbol.Label "b")
let ff = R.sym (Symbol.Fun "F")

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let open Evolution in
  check "identical" true (classify la la = Identical);
  (* a.(b|eps) vs a.b? — same language, different syntax *)
  check "identical modulo syntax" true
    (classify (R.seq la (R.alt lb R.epsilon)) (R.seq la (R.opt lb)) = Identical);
  check "widened" true (classify la (R.alt la lb) = Widened);
  check "widened by star" true (classify la (R.star la) = Widened);
  check "widened by a call" true (classify la (R.alt la ff) = Widened);
  check "narrowed" true (classify (R.star la) la = Narrowed);
  check "incompatible" true (classify la lb = Incompatible);
  (* incomparable languages in both directions *)
  check "incompatible overlap" true
    (classify (R.alt la lb) (R.alt la ff) = Incompatible)

(* ------------------------------------------------------------------ *)
(* diff fixtures: AXM040 / AXM041 / AXM043 / AXM044                    *)
(* ------------------------------------------------------------------ *)

let v1_text = {|
root r
element r = a*
element a = #data
|}

let test_narrowed_label () =
  (* a* -> a: archived documents with 0 or >1 a's are refused *)
  let r = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a
element a = #data
|}) in
  check "AXM040 fires" true (has "AXM040" r.Evolution.r_diagnostics);
  check "warning severity" true
    (severity_of "AXM040" r.Evolution.r_diagnostics = Some Diagnostic.Warning);
  check "classified narrowed" true
    (label_change r "r" = Evolution.Both Evolution.Narrowed);
  (* the witness names a concrete lost word *)
  let ld =
    List.find
      (fun (ld : Evolution.label_diff) -> ld.Evolution.l_label = "r")
      r.Evolution.r_labels
  in
  check "witness present" true (ld.Evolution.l_witness <> None);
  (* pure widening is clean *)
  let r' = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a* | b
element a = #data
element b = #data
|}) in
  check "clean" false (has "AXM040" r'.Evolution.r_diagnostics)

let test_removed_label () =
  let r = diff (parse_schema {|
root r
element r = a*
element a = #data
element gone = #data
|}) (parse_schema v1_text) in
  check "AXM040 fires" true (has "AXM040" r.Evolution.r_diagnostics);
  check "error severity" true
    (severity_of "AXM040" r.Evolution.r_diagnostics = Some Diagnostic.Error);
  check "presence removed" true (label_change r "gone" = Evolution.Only_v1);
  (* an added label is not a finding *)
  let r' = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a*
element a = #data
element fresh = #data
|}) in
  check "added is clean" true (r'.Evolution.r_diagnostics = []);
  check "presence added" true (label_change r' "fresh" = Evolution.Only_v2)

let test_incompatible_label () =
  let r = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a.a | b
element a = #data
element b = #data
|}) in
  check "AXM040 error" true
    (severity_of "AXM040" r.Evolution.r_diagnostics = Some Diagnostic.Error);
  check "classified incompatible" true
    (label_change r "r" = Evolution.Both Evolution.Incompatible)

let test_verdict_regression_mixed () =
  (* v2 requires at least one a; v1 documents with none cannot rewrite
     safely (no function can produce an a), but those with some land *)
  let r = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a.a*
element a = #data
|}) in
  check "AXM041 fires" true (has "AXM041" r.Evolution.r_diagnostics);
  check "warning severity" true
    (severity_of "AXM041" r.Evolution.r_diagnostics = Some Diagnostic.Warning);
  let v = verdict_of r "r" in
  check "possible only" true
    (v.Evolution.v_verdict = Contract.Possible_only);
  check "not safe at any depth" true (v.Evolution.v_safe_at = None);
  check "possible at depth 0" true (v.Evolution.v_possible_at = Some 0);
  (* under an unchanged schema every verdict is Safe at depth 0 *)
  let id = diff (parse_schema v1_text) (parse_schema v1_text) in
  check "identity is clean" true (id.Evolution.r_diagnostics = []);
  let v = verdict_of id "r" in
  check "identity safe" true (v.Evolution.v_verdict = Contract.Safe);
  check "identity safe at 0" true (v.Evolution.v_safe_at = Some 0)

let test_verdict_regression_impossible () =
  (* v2's r speaks a different alphabet: no v1 document of type r can
     land at all *)
  let r = diff (parse_schema {|
root r
element r = a
element a = #data
|}) (parse_schema {|
root r
element r = b
element a = #data
element b = #data
|}) in
  check "AXM041 fires" true (has "AXM041" r.Evolution.r_diagnostics);
  check "error severity" true
    (severity_of "AXM041" r.Evolution.r_diagnostics = Some Diagnostic.Error);
  let v = verdict_of r "r" in
  check "impossible" true (v.Evolution.v_verdict = Contract.Impossible)

let test_verdict_wildcard_target () =
  (* a wildcard or pattern in v2's model of r must not accept the
     representative of v1's r: the only v1 document, <r><a/></r>, has no
     rewriting into v2 *)
  List.iter
    (fun (name, v1, v2) ->
      let r = diff (Section6_fixtures.parse v1) (Section6_fixtures.parse v2) in
      check (name ^ ": r not safe") true
        ((verdict_of r "r").Evolution.v_verdict <> Contract.Safe);
      check (name ^ ": AXM041 fires") true (has "AXM041" r.Evolution.r_diagnostics))
    Section6_fixtures.pairs

let test_verdict_depth_threshold () =
  (* materializing F (output a) saves documents that kept the call:
     the narrowed v2 drops the F alternative, so safety needs one
     rewriting level — safe_at reports it *)
  let v1 = parse_schema {|
root r
element r = F | a
element a = #data
function F : #data -> a
|} in
  let v2 = parse_schema {|
root r
element r = a
element a = #data
function F : #data -> a
|} in
  let r = Evolution.diff ~k:2 ~v1 ~v2 () in
  let v = verdict_of r "r" in
  check "safe once k >= 1" true (v.Evolution.v_safe_at = Some 1);
  check "no AXM041: still safe within budget" false
    (has "AXM041" r.Evolution.r_diagnostics)

let test_widening_accepts_calls () =
  let r = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a* | F
element a = #data
function F : #data -> a*
|}) in
  check "AXM043 fires" true (has "AXM043" r.Evolution.r_diagnostics);
  check "warning severity" true
    (severity_of "AXM043" r.Evolution.r_diagnostics = Some Diagnostic.Warning);
  let ld =
    List.find
      (fun (ld : Evolution.label_diff) -> ld.Evolution.l_label = "r")
      r.Evolution.r_labels
  in
  check "call named" true (ld.Evolution.l_new_calls = [ "F" ]);
  (* widening by plain labels does not fire it *)
  let r' = diff (parse_schema v1_text) (parse_schema {|
root r
element r = a* | b
element a = #data
element b = #data
|}) in
  check "clean" false (has "AXM043" r'.Evolution.r_diagnostics)

let test_signature_change () =
  let v1 = parse_schema {|
root r
element r = a | F
element a = #data
element b = #data
function F : #data -> a
|} in
  (* output type a -> b: the signature languages disagree *)
  let r = diff v1 (parse_schema {|
root r
element r = a | F
element a = #data
element b = #data
function F : #data -> b
|}) in
  check "AXM044 fires" true (has "AXM044" r.Evolution.r_diagnostics);
  check "error severity" true
    (severity_of "AXM044" r.Evolution.r_diagnostics = Some Diagnostic.Error);
  check "conflict recorded" true (r.Evolution.r_conflicts = [ "F" ]);
  check "verdict lift skipped" true (r.Evolution.r_verdicts = []);
  (* and migrate refuses the pair outright *)
  check "migrate raises" true
    (match
       Evolution.migrate ~v1
         ~v2:(parse_schema {|
root r
element r = a | F
element a = #data
element b = #data
function F : #data -> b
|})
         [ ("d", D.elem "r" [ D.elem "a" [ D.data "x" ] ]) ]
     with
    | _ -> false
    | exception Schema.Schema_error _ -> true)

let test_function_removed_and_flipped () =
  let v1 = parse_schema {|
root r
element r = a | F
element a = #data
function F : #data -> a
function G : #data -> a
|} in
  let r = diff v1 (parse_schema {|
root r
element r = a | F
element a = #data
noninvocable function F : #data -> a
|}) in
  (* G removed (warning), F's invocability flipped (warning) *)
  let axm044 =
    List.filter
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = "AXM044")
      r.Evolution.r_diagnostics
  in
  check_int "two findings" 2 (List.length axm044);
  check "all warnings" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Warning)
       axm044);
  check "no conflict: languages agree" true (r.Evolution.r_conflicts = []);
  check "lift still runs" true (r.Evolution.r_verdicts <> []);
  (* identical declarations are clean *)
  let r' = diff v1 v1 in
  check "clean" false (has "AXM044" r'.Evolution.r_diagnostics)

let test_positions_attached () =
  let v1, from_positions = Schema_parser.parse_with_positions v1_text in
  let v2, to_positions =
    Schema_parser.parse_with_positions
      "root r\nelement r = a\nelement a = #data"
  in
  let r =
    Evolution.diff ~from_file:"v1.axs" ~from_positions ~to_file:"v2.axs"
      ~to_positions ~v1 ~v2 ()
  in
  let narrowing =
    List.find
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = "AXM040")
      r.Evolution.r_diagnostics
  in
  check "file is the new version" true
    (narrowing.Diagnostic.loc.Diagnostic.file = Some "v2.axs");
  (match narrowing.Diagnostic.loc.Diagnostic.pos with
   | Some p -> check_int "r declared on line 2" 2 p.Diagnostic.line
   | None -> Alcotest.fail "no position threaded");
  let line = Fmt.str "@[<v>%a@]" Diagnostic.pp narrowing in
  check "rendered with file:line:col" true (contains line "v2.axs:2:")

(* ------------------------------------------------------------------ *)
(* Migration advisories: AXM042                                        *)
(* ------------------------------------------------------------------ *)

let mig_v1 = parse_schema {|
root r
element r = (F | a).b*
element a = #data
element b = #data
function F : #data -> a
|}

(* v2 drops the F alternative and requires at least one b *)
let mig_v2 = parse_schema {|
root r
element r = a.b.b*
element a = #data
element b = #data
function F : #data -> a
|}

let test_migration_advisories () =
  let conforms =
    D.elem "r" [ D.elem "a" [ D.data "x" ]; D.elem "b" [ D.data "y" ] ]
  in
  let materialize =
    D.elem "r" [ D.call "F" [ D.data "q" ]; D.elem "b" [ D.data "y" ] ]
  in
  let doomed = D.elem "r" [ D.elem "a" [ D.data "x" ] ] in
  let m =
    Evolution.migrate ~v1:mig_v1 ~v2:mig_v2
      [ ("ok.xml", conforms); ("mat.xml", materialize); ("rip.xml", doomed) ]
  in
  check_int "three advisories" 3 (List.length m.Evolution.g_advisories);
  (match m.Evolution.g_advisories with
   | [ ok; mat; rip ] ->
     check "conforms" true (ok.Evolution.a_advisory = Evolution.Conforms);
     check "conforms needs nothing" true (ok.Evolution.a_calls = []);
     check "materialize" true
       (mat.Evolution.a_advisory = Evolution.Materialize);
     (* the exact call is named, with its path *)
     check "F named at /0" true
       (mat.Evolution.a_calls = [ ([ 0 ], "F") ]);
     check "doomed" true
       (match rip.Evolution.a_advisory with
        | Evolution.Doomed _ -> true
        | _ -> false);
     check "doomed carries AXM042" true (has "AXM042" rip.Evolution.a_diagnostics)
   | _ -> Alcotest.fail "advisory list shape");
  check "not migratable" false m.Evolution.g_migratable;
  check "AXM042 collected" true (has "AXM042" m.Evolution.g_diagnostics);
  check "error severity" true
    (severity_of "AXM042" m.Evolution.g_diagnostics = Some Diagnostic.Error);
  (* the doc's name is the diagnostic's file *)
  let d =
    List.find
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = "AXM042")
      m.Evolution.g_diagnostics
  in
  check "file is the doc" true
    (d.Diagnostic.loc.Diagnostic.file = Some "rip.xml");
  (* the clean corpus migrates *)
  let m' =
    Evolution.migrate ~v1:mig_v1 ~v2:mig_v2
      [ ("ok.xml", conforms); ("mat.xml", materialize) ]
  in
  check "migratable" true m'.Evolution.g_migratable;
  check "no diagnostics" true (m'.Evolution.g_diagnostics = [])

let test_migration_possible () =
  (* F may answer a or b; v2 only keeps a — materializing may land or
     not, depending on the service *)
  let v1 = parse_schema {|
root r
element r = F | a | b
element a = #data
element b = #data
function F : #data -> (a | b)
|} in
  let v2 = parse_schema {|
root r
element r = a
element a = #data
element b = #data
function F : #data -> (a | b)
|} in
  let m =
    Evolution.migrate ~v1 ~v2
      [ ("maybe.xml", D.elem "r" [ D.call "F" [ D.data "q" ] ]) ]
  in
  (match m.Evolution.g_advisories with
   | [ a ] ->
     check "possible" true (a.Evolution.a_advisory = Evolution.Possible);
     check "call still named" true (a.Evolution.a_calls = [ ([ 0 ], "F") ])
   | _ -> Alcotest.fail "advisory list shape");
  check "possible blocks migratable" false m.Evolution.g_migratable

(* Each call is judged against the content model of the word it sits
   in: its parent element's model, its enclosing call's input type, or
   none at the root. One document holds a call at the root, calls in
   an element, a call inside another call's parameters and an
   undeclared call; the lint diagnostics and the calls migration must
   fire come out in document order, with their paths. *)
let test_call_contexts () =
  let v1 = parse_schema {|
root r
element r = (F | a).(G | b)*
element a = #data
element b = #data
function F : #data -> a
function G : (F | #data) -> b
|} in
  let v2 = parse_schema {|
root r
element r = (F | a).b.b*
element a = #data
element b = #data
function F : #data -> a
function G : (F | #data) -> b
|} in
  let doc =
    D.call "G"
      [ D.elem "r"
          [ D.call "F" [ D.data "q" ];
            D.call "G" [ D.call "Ghost" [] ] ];
        D.call "G" [ D.call "F" [] ] ]
  in
  let lint =
    List.map
      (fun (d : Diagnostic.t) ->
        match d.Diagnostic.loc.Diagnostic.subject with
        | Diagnostic.Node path -> (d.Diagnostic.code, path)
        | _ -> Alcotest.fail "a document diagnostic names a node")
      (Lint.lint_document (Contract.create ~s0:v1 ~target:v2 ()) doc)
  in
  Alcotest.(check (list (pair string (list int))))
    "lint diagnostics in document order"
    [ ("AXM030", [ 0; 1; 0 ]); ("AXM031", [ 1 ]) ]
    lint;
  match (Evolution.migrate ~v1 ~v2 [ ("calls.xml", doc) ]).Evolution.g_advisories with
  | [ a ] ->
    Alcotest.(check (list (pair (list int) string)))
      "calls to fire, in document order"
      [ ([], "G"); ([ 0; 1 ], "G"); ([ 0; 1; 0 ], "Ghost"); ([ 1 ], "G") ]
      a.Evolution.a_calls
  | _ -> Alcotest.fail "advisory list shape"

(* ------------------------------------------------------------------ *)
(* JSON envelope and catalog                                           *)
(* ------------------------------------------------------------------ *)

let test_json_reports () =
  let r =
    Evolution.diff ~from_file:"v1.axs" ~to_file:"v2.axs"
      ~v1:(parse_schema v1_text)
      ~v2:(parse_schema "root r\nelement r = a\nelement a = #data")
      ()
  in
  let parse label json =
    Jsonv.parse_exn label (Axml_obs.Json.to_string json)
  in
  let str s = Axml_obs.Json.String s in
  let v =
    parse "diff JSON"
      (Evolution.report_to_json ~from_file:"v1.axs" ~to_file:"v2.axs" r)
  in
  Jsonv.check_at "command" v [ "command" ] (str "diff");
  Jsonv.check_at "from" v [ "from" ] (str "v1.axs");
  Jsonv.check_at "to" v [ "to" ] (str "v2.axs");
  List.iter
    (fun key -> check (key ^ " present") true (Jsonv.at [ key ] v <> None))
    [ "labels"; "functions"; "verdicts"; "conflicts"; "diagnostics"; "summary" ];
  let narrowed =
    List.filter
      (fun l -> Jsonv.at [ "change" ] l = Some (str "narrowed"))
      (Jsonv.elements [ "labels" ] v)
  in
  check "a narrowed label" true (narrowed <> []);
  check "narrowing carries a witness" true
    (List.for_all (fun l -> Jsonv.at [ "witness" ] l <> None) narrowed);
  let m =
    Evolution.migrate ~v1:mig_v1 ~v2:mig_v2
      [ ("rip.xml", D.elem "r" [ D.elem "a" [ D.data "x" ] ]) ]
  in
  let v =
    parse "migrate JSON"
      (Evolution.migration_to_json ~from_file:"v1.axs" ~to_file:"v2.axs" m)
  in
  Jsonv.check_at "command" v [ "command" ] (str "migrate");
  Jsonv.check_at "doomed advisory" v [ "documents"; "0"; "advisory" ] (str "doomed");
  Jsonv.check_at "not migratable" v [ "migratable" ] (Axml_obs.Json.Bool false);
  check "summary present" true (Jsonv.at [ "summary" ] v <> None);
  let result =
    Axml_core.Schema_rewrite.check ~root:"r"
      (Contract.create ~s0:(parse_schema v1_text) ~target:(parse_schema v1_text) ())
  in
  let v =
    parse "compat JSON" (Evolution.compat_to_json ~from_file:"a" ~to_file:"b" ~k:1 result)
  in
  Jsonv.check_at "compat command" v [ "command" ] (str "compat");
  Jsonv.check_at "compat verdict" v [ "compatible" ] (Axml_obs.Json.Bool true)

let test_catalog_covers_axm04x () =
  let catalog = List.map (fun (c, _, _) -> c) Diagnostic.rules in
  List.iter
    (fun code -> check (code ^ " catalogued") true (List.mem code catalog))
    [ "AXM040"; "AXM041"; "AXM042"; "AXM043"; "AXM044" ]

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

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

(* The oracle takes the other route through the automata layer:
   inclusion as emptiness of L1 ∩ co-L2 via explicit complementation
   over the shared alphabet, instead of Dfa.difference. *)
let oracle_classify r1 r2 =
  let d1 = Auto.Dfa.of_regex r1 and d2 = Auto.Dfa.of_regex r2 in
  let alphabet =
    Auto.Sym_set.union d1.Auto.Dfa.alphabet d2.Auto.Dfa.alphabet
  in
  let incl a b =
    Auto.Dfa.is_empty (Auto.Dfa.intersect a (Auto.Dfa.complement ~alphabet b))
  in
  match (incl d1 d2, incl d2 d1) with
  | true, true -> Evolution.Identical
  | true, false -> Evolution.Widened
  | false, true -> Evolution.Narrowed
  | false, false -> Evolution.Incompatible

let prop_classify_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"classify agrees with the inclusion oracle"
    QCheck.(pair arb_content arb_content)
    (fun (c1, c2) ->
      let s = mini_schema (R.sym Schema.A_data) c1 c2 in
      let env = Schema.env_of_schema s in
      let r1 = Schema.compile_content env c1
      and r2 = Schema.compile_content env c2 in
      let got = Evolution.classify r1 r2 and want = oracle_classify r1 r2 in
      if got <> want then
        QCheck.Test.fail_reportf "classify says %s but the oracle says %s"
          (Evolution.change_to_string got)
          (Evolution.change_to_string want)
      else true)

(* Derive v2 from v1 by pointwise widening of every content model. *)
let widen_ops =
  [ (fun r -> r);
    (fun r -> R.opt r);
    (fun r -> R.alt r (R.sym (Schema.A_label "a")));
    (fun r -> R.star r)
  ]

let widen_schema ~pick (v1 : Schema.t) =
  let s =
    List.fold_left
      (fun s l ->
        match Schema.find_element v1 l with
        | None -> s
        | Some c -> Schema.add_element s l ((pick ()) c))
      Schema.empty (Schema.element_names v1)
  in
  let s =
    List.fold_left
      (fun s f ->
        match Schema.find_function v1 f with
        | None -> s
        | Some fn -> Schema.add_function s fn)
      s (Schema.function_names v1)
  in
  match v1.Schema.root with Some r -> Schema.with_root s r | None -> s

let prop_widening_sound =
  QCheck.Test.make ~count:150 ~name:"pure widening keeps every v1 instance valid"
    QCheck.(triple arb_content small_nat (pair arb_content arb_content))
    (fun (top, seed, (out_f, out_g)) ->
      let v1 = mini_schema top out_f out_g in
      let rand = Random.State.make [| seed; 0xE7 |] in
      let pick () =
        List.nth widen_ops (Random.State.int rand (List.length widen_ops))
      in
      let v2 = widen_schema ~pick v1 in
      (* classification never reports a loss *)
      let r = Evolution.diff ~v1 ~v2 () in
      List.iter
        (fun (ld : Evolution.label_diff) ->
          match ld.Evolution.l_presence with
          | Evolution.Both Evolution.Identical | Evolution.Both Evolution.Widened
            -> ()
          | _ ->
            QCheck.Test.fail_reportf "label %s classified %s under pure widening"
              ld.Evolution.l_label
              (match ld.Evolution.l_presence with
               | Evolution.Both c -> Evolution.change_to_string c
               | Evolution.Only_v1 -> "removed"
               | Evolution.Only_v2 -> "added"))
        r.Evolution.r_labels;
      (* and soundness: any v1 instance is a v2 instance (validation is
         per-node, so pointwise inclusion is enough) *)
      match Generate.create ~seed v1 with
      | g ->
        (match Generate.document g with
         | doc ->
           let ctx = Validate.ctx ~env:(Schema.env_of_schema v2) v2 in
           (match Validate.document_violations ctx doc with
            | [] -> true
            | v :: _ ->
              QCheck.Test.fail_reportf
                "a v1 instance violates the widened v2: %a"
                Validate.pp_violation v)
         | exception Generate.Generation_failed _ -> true)
      | exception Generate.Generation_failed _ -> true)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x40E7 |]))
    [ prop_classify_matches_oracle; prop_widening_sound ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "evolution"
    [ ("classification",
       [ Alcotest.test_case "classify" `Quick test_classify ]);
      ("diff-rules",
       [ Alcotest.test_case "narrowed label (AXM040)" `Quick test_narrowed_label;
         Alcotest.test_case "removed label (AXM040)" `Quick test_removed_label;
         Alcotest.test_case "incompatible label (AXM040)" `Quick
           test_incompatible_label;
         Alcotest.test_case "verdict regression mixed (AXM041)" `Quick
           test_verdict_regression_mixed;
         Alcotest.test_case "verdict regression impossible (AXM041)" `Quick
           test_verdict_regression_impossible;
         Alcotest.test_case "verdict depth threshold" `Quick
           test_verdict_depth_threshold;
         Alcotest.test_case "verdict under a wildcard or pattern target (AXM041)"
           `Quick test_verdict_wildcard_target;
         Alcotest.test_case "widening accepts calls (AXM043)" `Quick
           test_widening_accepts_calls;
         Alcotest.test_case "signature change (AXM044)" `Quick
           test_signature_change;
         Alcotest.test_case "removed / flipped function (AXM044)" `Quick
           test_function_removed_and_flipped;
         Alcotest.test_case "source positions" `Quick test_positions_attached
       ]);
      ("migration",
       [ Alcotest.test_case "advisories (AXM042)" `Quick
           test_migration_advisories;
         Alcotest.test_case "possible-only corpus" `Quick
           test_migration_possible;
         Alcotest.test_case "call contexts" `Quick test_call_contexts
       ]);
      ("reporting",
       [ Alcotest.test_case "json envelope" `Quick test_json_reports;
         Alcotest.test_case "catalog covers AXM04x" `Quick
           test_catalog_covers_axm04x
       ]);
      ("properties", qcheck_tests)
    ]
