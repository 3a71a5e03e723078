(* Tests for the schema layer (lib/schema): construction,
   well-formedness, the textual parser, merging, compilation of
   patterns/wildcards, determinism checks, and the alphabet closure. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %s" e

let expect_parse_error text fragment =
  match Schema_parser.parse_result text with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" text
  | Error e ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
      scan 0
    in
    if not (contains e fragment) then
      Alcotest.failf "error %S does not mention %S" e fragment

(* ------------------------------------------------------------------ *)
(* Construction and well-formedness                                    *)
(* ------------------------------------------------------------------ *)

let test_duplicate_declaration () =
  let s = Schema.add_element Schema.empty "a" (R.sym Schema.A_data) in
  (match Schema.add_element s "a" R.epsilon with
   | exception Schema.Schema_error (Schema.Duplicate_declaration "a") -> ()
   | _ -> Alcotest.fail "expected Duplicate_declaration");
  (* an element and a function may not share a name either *)
  match Schema.add_function s (Schema.func "a" ~input:R.epsilon ~output:R.epsilon) with
  | exception Schema.Schema_error (Schema.Duplicate_declaration "a") -> ()
  | _ -> Alcotest.fail "expected Duplicate_declaration"

let test_undeclared_name () =
  let s = Schema.add_element Schema.empty "a" (R.sym (Schema.A_label "ghost")) in
  match Schema.check s with
  | exception Schema.Schema_error (Schema.Undeclared_name "ghost") -> ()
  | _ -> Alcotest.fail "expected Undeclared_name"

let test_pattern_in_signature_rejected () =
  let s = Schema.add_element Schema.empty "a" (R.sym Schema.A_data) in
  let s =
    Schema.add_pattern s
      (Schema.pattern "P" ~input:(R.sym (Schema.A_label "a"))
         ~output:(R.sym (Schema.A_label "a")))
  in
  let s =
    Schema.add_function s
      (Schema.func "f" ~input:(R.sym (Schema.A_pattern "P")) ~output:R.epsilon)
  in
  match Schema.check s with
  | exception Schema.Schema_error (Schema.Pattern_in_signature _) -> ()
  | _ -> Alcotest.fail "expected Pattern_in_signature"

let test_determinism_check () =
  let det = parse {|
element a = #data
element b = #data
element r = a.(b | a)
|} in
  Schema.check ~deterministic:true det;
  let nondet = parse {|
element a = #data
element b = #data
element r = a.b | a.a
|} in
  match Schema.check ~deterministic:true nondet with
  | exception Schema.Schema_error (Schema.Nondeterministic_content "r") -> ()
  | _ -> Alcotest.fail "expected Nondeterministic_content"

(* ------------------------------------------------------------------ *)
(* Textual parser                                                      *)
(* ------------------------------------------------------------------ *)

let test_parser_full () =
  let s = parse {|
# a comment
root r

element r = a.(f | b)*.(P | #data)
element a = #data
element b = #data
noninvocable function f : a -> b
pattern P requires UDDIF : a -> b
|} in
  Alcotest.(check (option string)) "root" (Some "r") s.Schema.root;
  check_int "elements" 3 (List.length (Schema.element_names s));
  (match Schema.find_function s "f" with
   | Some f -> check "noninvocable" false f.Schema.f_invocable
   | None -> Alcotest.fail "f missing");
  match Schema.find_pattern s "P" with
  | Some p -> Alcotest.(check (list string)) "predicates" [ "UDDIF" ] p.Schema.p_predicates
  | None -> Alcotest.fail "P missing"

let test_parser_errors () =
  expect_parse_error "element = x" "name";
  expect_parse_error "element a" "'='";
  expect_parse_error "function f : a" "->";
  expect_parse_error "pattern : a -> b" "pattern";
  expect_parse_error "wibble wobble" "unknown declaration";
  expect_parse_error "root a b" "root";
  expect_parse_error "element a = ((b)" "expression";
  expect_parse_error "element a = ghost.b\nelement b = #data" "ghost"

(* A declared name, or a content-model identifier, that no XML document
   can carry is refused where it stands: [A-Za-z_][A-Za-z0-9_-]* for
   names, plus #data, #any and #anyfun in content models. *)
let test_parser_xml_names () =
  let refused text expected =
    match Schema_parser.parse_result text with
    | Ok _ -> Alcotest.failf "expected %S to be refused" text
    | Error e -> Alcotest.(check string) (String.escaped text) expected e
  in
  let grammar = "is not of the form [A-Za-z_][A-Za-z0-9_-]*" in
  let not_a_name id col =
    Printf.sprintf "line 2, col %d: %S is neither a name ([A-Za-z_][A-Za-z0-9_-]*) nor \
                    #data, #any or #anyfun" col id
  in
  (* a name starting with a digit *)
  refused "root 9r\nelement 9r = #data" ("line 1, col 6: root name \"9r\" " ^ grammar);
  refused "root r\nelement r = #data\nelement 9r = #data"
    ("line 3, col 9: element name \"9r\" " ^ grammar);
  (* a '#' name other than the three wildcards *)
  refused "root r\nelement r = #foo\nelement #foo = #data" (not_a_name "#foo" 13);
  refused "root r\nelement r = #data\nelement #foo = #data"
    ("line 3, col 9: element name \"#foo\" " ^ grammar);
  (* '#' inside an identifier *)
  refused "root r\nelement r = (a#b)*\nelement a = #data" (not_a_name "a#b" 14);
  refused "root r\nelement r = a.(b | #any-x)\nelement a = #data\nelement b = #data"
    (not_a_name "#any-x" 20);
  refused "root r\nfunction f.g : #data -> #data\nelement r = #data"
    ("line 2, col 10: function name \"f.g\" " ^ grammar);
  refused "root r\npattern 1p : #data -> #data\nelement r = #data"
    ("line 2, col 9: pattern name \"1p\" " ^ grammar);
  refused "root r\nelement r s = #data" ("line 2, col 9: element name \"r s\" " ^ grammar);
  (* the names an XML document carries, and the checked-in schemas, pass *)
  ignore (parse "root _a-1\nelement _a-1 = (B_2 | #any | #anyfun)*.#data\nelement B_2 = #data");
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".axs" then
        ignore
          (parse
             (In_channel.with_open_bin (Filename.concat "../examples/schemas" file)
                In_channel.input_all)))
    (Sys.readdir "../examples/schemas")

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let test_merge_agreeing_functions () =
  let s0 = parse {|
element a = #data
element b = f | a
function f : a -> a
|} in
  let s1 = parse {|
element a = #data
element b = a
noninvocable function f : a -> a
|} in
  let merged = Schema.merge s0 s1 in
  (* element b: the right side wins *)
  (match Schema.find_element merged "b" with
   | Some c -> check "right element wins" true (c = R.sym (Schema.A_label "a"))
   | None -> Alcotest.fail "b lost");
  (* invocability is the conjunction *)
  match Schema.find_function merged "f" with
  | Some f -> check "conjunction" false f.Schema.f_invocable
  | None -> Alcotest.fail "f lost"

let test_merge_conflicting_functions () =
  let s0 = parse {|
element a = #data
function f : a -> a
|} in
  let s1 = parse {|
element a = #data
function f : a -> a.a
|} in
  match Schema.merge s0 s1 with
  | exception Schema.Schema_error (Schema.Incompatible_function "f") -> ()
  | _ -> Alcotest.fail "expected Incompatible_function"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let pattern_schema = parse {|
element city = #data
element temp = #data
element r = P | temp
function Good : city -> temp
function Bad_sig : temp -> temp
function Unlisted : city -> temp
pattern P requires Reg : city -> temp
|}

let registry_pred pred fname =
  pred = "Reg" && List.mem fname [ "Good"; "Bad_sig" ]

let test_pattern_expansion () =
  let env = Schema.env_of_schema ~predicate:registry_pred pattern_schema in
  let compiled =
    Schema.compile_content env (Option.get (Schema.find_element pattern_schema "r"))
  in
  let dfa = Auto.Dfa.of_regex compiled in
  check "Good matches" true (Auto.Dfa.accepts dfa [ Symbol.Fun "Good" ]);
  check "Bad_sig fails the signature check" false
    (Auto.Dfa.accepts dfa [ Symbol.Fun "Bad_sig" ]);
  check "Unlisted fails the predicate" false
    (Auto.Dfa.accepts dfa [ Symbol.Fun "Unlisted" ]);
  check "temp alternative intact" true (Auto.Dfa.accepts dfa [ Symbol.Label "temp" ])

let test_wildcard_expansion () =
  let s = parse {|
element a = #data
element b = #data
element r = #any.#anyfun
function f : () -> a
function g : () -> b
|} in
  let env = Schema.env_of_schema s in
  let dfa =
    Auto.Dfa.of_regex (Schema.compile_content env (Option.get (Schema.find_element s "r")))
  in
  check "a f" true (Auto.Dfa.accepts dfa [ Symbol.Label "a"; Symbol.Fun "f" ]);
  check "r g" true (Auto.Dfa.accepts dfa [ Symbol.Label "r"; Symbol.Fun "g" ]);
  check "f a wrong order" false (Auto.Dfa.accepts dfa [ Symbol.Fun "f"; Symbol.Label "a" ]);
  check "data is not an element" false
    (Auto.Dfa.accepts dfa [ Symbol.Data; Symbol.Fun "f" ])

let test_alphabet_closure () =
  let env = Schema.env_of_schema ~predicate:registry_pred pattern_schema in
  let alphabet = Schema.alphabet env pattern_schema in
  check "contains pattern members" true
    (Auto.Sym_set.mem (Symbol.Fun "Good") alphabet);
  check "contains labels" true (Auto.Sym_set.mem (Symbol.Label "city") alphabet);
  check "contains data" true (Auto.Sym_set.mem Symbol.Data alphabet)

let test_signature_equivalence_not_structural () =
  (* signatures match up to language equivalence, not syntax *)
  let s = parse {|
element a = #data
element r = P
function f : () -> a.a*
pattern P : () -> a+
|} in
  let env = Schema.env_of_schema s in
  match Schema.find_pattern s "P" with
  | None -> Alcotest.fail "P missing"
  | Some p ->
    let members = Schema.pattern_members env p in
    Alcotest.(check (list string)) "a.a* equals a+" [ "f" ]
      (List.map (fun (f : Schema.func) -> f.Schema.f_name) members)

let () =
  Alcotest.run "schema"
    [ ("well-formedness",
       [ Alcotest.test_case "duplicate declarations" `Quick test_duplicate_declaration;
         Alcotest.test_case "undeclared names" `Quick test_undeclared_name;
         Alcotest.test_case "patterns in signatures" `Quick test_pattern_in_signature_rejected;
         Alcotest.test_case "determinism" `Quick test_determinism_check
       ]);
      ("parser",
       [ Alcotest.test_case "full schema" `Quick test_parser_full;
         Alcotest.test_case "errors" `Quick test_parser_errors;
         Alcotest.test_case "names an XML document can carry" `Quick test_parser_xml_names
       ]);
      ("merge",
       [ Alcotest.test_case "agreeing functions" `Quick test_merge_agreeing_functions;
         Alcotest.test_case "conflicting functions" `Quick test_merge_conflicting_functions
       ]);
      ("compilation",
       [ Alcotest.test_case "pattern expansion" `Quick test_pattern_expansion;
         Alcotest.test_case "wildcard expansion" `Quick test_wildcard_expansion;
         Alcotest.test_case "alphabet closure" `Quick test_alphabet_closure;
         Alcotest.test_case "signature equivalence" `Quick test_signature_equivalence_not_structural
       ])
    ]
