(* Tests for the XML substrate (lib/xml). *)

module T = Axml_xml.Xml_tree
module P = Axml_xml.Xml_parser
module Pr = Axml_xml.Xml_print
module Ns = Axml_xml.Xml_ns
module Path = Axml_xml.Xml_path

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let parse s =
  match P.parse_result s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" e

let elem_of = function
  | T.Element e -> e
  | _ -> Alcotest.fail "expected an element"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_basic () =
  let t = parse "<a x=\"1\"><b>hello</b><c/></a>" in
  let a = elem_of t in
  check_str "name" "a" a.T.name;
  Alcotest.(check (option string)) "attr" (Some "1") (T.attr_value a "x");
  check_int "children" 2 (List.length a.T.children);
  (match T.child_element a "b" with
   | Some b -> check_str "text" "hello" (T.text_content b)
   | None -> Alcotest.fail "no <b>")

let test_parse_prolog_comment_pi () =
  let t =
    parse
      "<?xml version=\"1.0\"?>\n<!-- header -->\n<root><?phase two?>ok<!-- x --></root>"
  in
  let r = elem_of t in
  check_str "text keeps only data" "ok" (T.text_content r)

let test_parse_entities () =
  let t = parse "<a>&lt;b&gt; &amp; &quot;c&quot; &#65;&#x42;</a>" in
  check_str "decoded" "<b> & \"c\" AB" (T.text_content (elem_of t))

let test_parse_cdata () =
  let t = parse "<a><![CDATA[<raw> & stuff]]></a>" in
  check_str "cdata" "<raw> & stuff" (T.text_content (elem_of t))

let test_parse_doctype () =
  let t = parse "<!DOCTYPE html [ <!ENTITY x \"y\"> ]><a>z</a>" in
  check_str "after doctype" "z" (T.text_content (elem_of t));
  match P.parse_result "<a>x<!DOCTYPE d>y</a>" with
  | Error e ->
    check_str "in content" "line 1, column 5: DOCTYPE declaration inside an element" e
  | Ok _ -> Alcotest.fail "a DOCTYPE inside an element must be refused"

let test_parse_nested_deep () =
  let depth = 500 in
  let doc =
    String.concat "" (List.init depth (fun _ -> "<d>"))
    ^ "x"
    ^ String.concat "" (List.init depth (fun _ -> "</d>"))
  in
  let t = parse doc in
  check_int "depth" (depth + 1) (T.depth t)

(* Regression: the parser, printer and tree traversals must all survive
   documents nested far beyond the call-stack budget (they use explicit
   work lists, one heap cell per level). *)
let test_deep_100k () =
  let depth = 100_000 in
  let doc =
    String.concat "" (List.init depth (fun _ -> "<d>"))
    ^ "x"
    ^ String.concat "" (List.init depth (fun _ -> "</d>"))
  in
  let t = parse doc in
  check_int "depth" (depth + 1) (T.depth t);
  check_int "count" (depth + 1) (T.count_nodes t);
  let printed = Pr.to_string t in
  let t2 = parse printed in
  check "reparse equal" true (T.equal t t2);
  check "strip_layout is total" true (T.equal t (T.strip_layout t));
  let nodes = T.fold (fun acc _ -> acc + 1) 0 t in
  check_int "fold visits all" (depth + 1) nodes

let test_parse_errors () =
  let bad =
    [ "<a>"; "<a></b>"; "<a x=1></a>"; "text only"; "<a></a><b></b>";
      "<a><b></a></b>"; "<a>&unknown;</a>"; "" ]
  in
  List.iter
    (fun s ->
      match P.parse_result s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    bad

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_error_position () =
  match P.parse_result "<a>\n  <b>\n</a>" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e -> check "mentions line 3" true (contains_substring e "line 3")

(* Exact positions. Line and column are those of the byte at which the
   error is raised: a line ends at "\n" only (so "\r\n" is one line end
   and a bare "\r" none), and the column counts bytes from 1. *)
let test_error_positions_exact () =
  List.iter
    (fun (input, expected) ->
      match P.parse_result input with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" input
      | Error e -> check_str (String.escaped input) expected e)
    [ ("<a>\r\n  <b>\r\n</a>",
       "line 3, column 5: mismatched close tag </a> for <b>");
      ("<a>\r<b x='1'>\r\r</a>",
       "line 1, column 20: mismatched close tag </a> for <b>");
      ("<a x=\"1\n  2\n  3 &bogus;\"/>", "line 3, column 12: unknown entity &bogus;");
      ("<a x=\"1\n2\" y=3/>", "line 2, column 6: expected a quoted value");
      ("<a x='1'y='2'/>", "line 1, column 9: expected whitespace before an attribute");
      ("<a v=\"x<y\"/>", "line 1, column 8: '<' in an attribute value");
      ("<a v='x&amp;\n<'/>", "line 2, column 1: '<' in an attribute value");
      ("<a><![CDATA[x\ny\n]]> <b></c></a>",
       "line 3, column 12: mismatched close tag </c> for <b>");
      ("<!-- one\ntwo\n-->\n<a>\n  &#zz;</a>",
       "line 5, column 8: bad character reference &#zz;");
      ("<a>\n  x &amp", "line 2, column 9: unterminated entity reference");
      ("<a>\n  <b>\n  </c>", "line 3, column 7: mismatched close tag </c> for <b>");
      ("<a>\n  <b>\n  </bc >", "line 3, column 9: mismatched close tag </bc> for <b>") ]

(* Character references decode [0-9]+ or x[0-9a-fA-F]+ to a Unicode
   scalar value; anything else is the "bad character reference" error
   raised just past the ';', never an exception of another kind. *)
let test_char_refs () =
  let decoded input expected =
    match P.parse_result input with
    | Ok t -> check_str input expected (T.text_content (elem_of t))
    | Error e -> Alcotest.failf "%S rejected: %s" input e
  in
  let refused input expected =
    match P.parse_result input with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" input
    | Error e -> check_str input expected e
    | exception exn ->
      Alcotest.failf "%S raised %s" input (Printexc.to_string exn)
  in
  decoded "<a>&#65;&#x42;&#x6a;&#x6A;</a>" "ABjj";
  decoded "<a>&#0;&#9;&#13;&#31;</a>" "\000\t\r\031";
  decoded "<a>&#233;&#x20AC;&#x10FFFF;</a>" "\xc3\xa9\xe2\x82\xac\xf4\x8f\xbf\xbf";
  decoded "<a>&#x0000041;&#00065;</a>" "AA";
  decoded "<a>&#xD7FF;&#xE000;</a>" "\xed\x9f\xbf\xee\x80\x80";
  decoded "<a b=\"&#x41;&#10;\"/>" "";
  refused "<a>&#99999999;</a>" "line 1, column 15: bad character reference &#99999999;";
  refused "<a>&#99999999999999999999999;</a>"
    "line 1, column 30: bad character reference &#99999999999999999999999;";
  refused "<a>&#-5;</a>" "line 1, column 9: bad character reference &#-5;";
  refused "<a>&#+65;</a>" "line 1, column 10: bad character reference &#+65;";
  refused "<a>&#0x41;</a>" "line 1, column 11: bad character reference &#0x41;";
  refused "<a>&#1_0;</a>" "line 1, column 10: bad character reference &#1_0;";
  refused "<a>&#X41;</a>" "line 1, column 10: bad character reference &#X41;";
  refused "<a>&#x;</a>" "line 1, column 8: bad character reference &#x;";
  refused "<a>&#x110000;</a>" "line 1, column 14: bad character reference &#x110000;";
  refused "<a>&#1114112;</a>" "line 1, column 14: bad character reference &#1114112;";
  refused "<a>&#xD800;</a>" "line 1, column 12: bad character reference &#xD800;";
  refused "<a>&#57343;</a>" "line 1, column 12: bad character reference &#57343;";
  refused "<a>&#12a;</a>" "line 1, column 10: bad character reference &#12a;";
  refused "<a x=\"&#-1;\"/>" "line 1, column 12: bad character reference &#-1;";
  refused "<a>&#;</a>" "line 1, column 7: unknown entity &#;"

(* Every byte value in each place the scanner classifies bytes. The
   expectations follow the grammar in xml_parser.mli: whitespace is
   space, tab, LF and CR; a name is [A-Za-z_:] then [A-Za-z0-9_:.-];
   attributes need no whitespace between them; character data stops at
   '<', decodes '&' and reads CR or CR LF as LF; a quoted value stops at
   its quote, decodes '&' and keeps every other byte. *)
let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let all_bytes = List.init 256 Char.chr

(* [input] parses to [expected] ([None]: it is refused). *)
let parses_to input expected =
  match (P.parse_result input, expected) with
  | Ok t, Some e ->
    if not (T.equal t e) then
      Alcotest.failf "%S parsed to %s" input (Pr.to_string t)
  | Error _, None -> ()
  | Ok t, None -> Alcotest.failf "%S parsed to %s, expected a refusal" input (Pr.to_string t)
  | Error m, Some _ -> Alcotest.failf "%S refused: %s" input m
  | exception exn -> Alcotest.failf "%S raised %s" input (Printexc.to_string exn)

let test_bytes_in_names () =
  List.iter
    (fun c ->
      let b = String.make 1 c in
      parses_to ("<" ^ b ^ "/>")
        (if is_name_start c then Some (T.element b []) else None);
      parses_to ("<a" ^ b ^ "/>")
        (if is_name_char c then Some (T.element ("a" ^ b) [])
         else if is_ws c then Some (T.element "a" [])
         else None))
    all_bytes

(* Names beyond ASCII: well-formed UTF-8 whose code points XML 1.0
   (fifth edition) allows parses, prints and parses back; a malformed
   sequence is refused at its first byte. *)
let test_utf8_names () =
  let roundtrip input expected =
    parses_to input (Some expected);
    check_str ("prints " ^ String.escaped input) input (Pr.to_string expected);
    parses_to (Pr.to_string expected) (Some expected)
  in
  roundtrip "<caf\xc3\xa9/>" (T.element "caf\xc3\xa9" []);
  roundtrip "<\xc3\xa9t\xc3\xa9>x</\xc3\xa9t\xc3\xa9>"
    (T.element "\xc3\xa9t\xc3\xa9" [ T.text "x" ]);
  roundtrip "<a \xc3\xa9t\xc3\xa9=\"1\"/>"
    (T.element ~attrs:[ T.attr "\xc3\xa9t\xc3\xa9" "1" ] "a" []);
  (* three and four bytes; U+00B7 may go on a name but not start one *)
  roundtrip "<\xe4\xb8\xad\xf0\x90\x80\x80a\xc2\xb7/>"
    (T.element "\xe4\xb8\xad\xf0\x90\x80\x80a\xc2\xb7" []);
  roundtrip "<n:\xcf\x80 xmlns:n=\"urn:x\"/>"
    (T.element ~attrs:[ T.attr "xmlns:n" "urn:x" ] "n:\xcf\x80" []);
  List.iter
    (fun (input, expected) ->
      match P.parse_result input with
      | Ok t -> Alcotest.failf "%S parsed to %s" input (Pr.to_string t)
      | Error e -> check_str (String.escaped input) expected e)
    [ ("<\xc2\xb7a/>", "line 1, column 2: expected a name, found '\\194'");
      ("<a\xc3\x97/>", "line 1, column 3: expected a name, found '\\195'");
      ("<caf\xc3/>", "line 1, column 5: malformed UTF-8 in a name");
      ("<caf\xc3", "line 1, column 5: malformed UTF-8 in a name");
      ("<a\xe4\xb8/>", "line 1, column 3: malformed UTF-8 in a name");
      ("<a\xf0\x90\x80>", "line 1, column 3: malformed UTF-8 in a name");
      ("<\x80/>", "line 1, column 2: malformed UTF-8 in a name");
      ("<\xc0\xa9/>", "line 1, column 2: malformed UTF-8 in a name");
      ("<a\xe0\x80\xa9/>", "line 1, column 3: malformed UTF-8 in a name");
      ("<a\xed\xa0\x80/>", "line 1, column 3: malformed UTF-8 in a name");
      ("<a\xf4\x90\x80\x80/>", "line 1, column 3: malformed UTF-8 in a name");
      ("<a \xff=\"1\"/>", "line 1, column 4: malformed UTF-8 in a name");
      ("<caf\xc3\xa9></cafe>",
       "line 1, column 15: mismatched close tag </cafe> for <caf\xc3\xa9>");
      ("<a></a\xc3\xa9>", "line 1, column 10: mismatched close tag </a\xc3\xa9> for <a>") ]

(* XML 1.0 puts whitespace before every attribute: only a whitespace
   byte may separate two. *)
let test_bytes_between_attributes () =
  List.iter
    (fun c ->
      let b = String.make 1 c in
      let x = T.attr "x" "1" in
      parses_to ("<a x='1'" ^ b ^ "y='2'/>")
        (if is_ws c then Some (T.element ~attrs:[ x; T.attr "y" "2" ] "a" [])
         else None))
    all_bytes

let test_bytes_in_text () =
  List.iter
    (fun c ->
      let b = String.make 1 c in
      let text s = Some (T.element "a" [ T.text s ]) in
      parses_to ("<a>x" ^ b ^ "y</a>")
        (match c with
         | '<' | '&' -> None
         | '\r' -> text "x\ny"
         | _ -> text ("x" ^ b ^ "y"));
      parses_to ("<a>x\r" ^ b ^ "y</a>")
        (match c with
         | '<' | '&' -> None
         | '\n' -> text "x\ny"
         | '\r' -> text "x\n\ny"
         | _ -> text ("x\n" ^ b ^ "y")))
    all_bytes

let test_bytes_in_attribute_values () =
  List.iter
    (fun quote ->
      let q = String.make 1 quote in
      List.iter
        (fun c ->
          let b = String.make 1 c in
          parses_to
            ("<a v=" ^ q ^ "x" ^ b ^ "y" ^ q ^ "/>")
            (if c = quote || c = '&' || c = '<' then None
             else Some (T.element ~attrs:[ T.attr "v" ("x" ^ b ^ "y") ] "a" [])))
        all_bytes)
    [ '"'; '\'' ]

(* Words allocated by [f], wherever they land: a string of 64 KiB goes
   straight to the major heap, so minor words alone would miss it. The
   minor words come from [Gc.minor_words], which counts every word; the
   minor count of [Gc.counters] lags behind it on OCaml 5. *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The heap words of a string of [n] bytes: its header and its data
   padded to a whole word, plus at least one byte. *)
let string_words n = float_of_int ((n / 8) + 2)

(* DESIGN.md's "nothing is allocated per character": a document whose
   one element name, text run and attribute value are 64 KiB each
   parses into those three copies plus a small constant, and prints
   into its output string plus the print buffer, which doubles, so its
   blocks add up to less than twice its final capacity, the smallest
   power of two that holds the output. The spare buffer keeps that
   capacity (up to 1 MiB of output), so printing it again allocates the
   output string alone. *)
let test_long_tokens_alloc () =
  let k = 64 * 1024 in
  let name = String.make k 'n' and value = String.make k 'v' and text = String.make k 't' in
  let input = "<" ^ name ^ " a=\"" ^ value ^ "\">" ^ text ^ "</" ^ name ^ ">" in
  let small = 256. in
  let tree = ref (T.text "") in
  let parse_words = words_allocated (fun () -> tree := P.parse input) in
  check "parsed" true
    (T.equal !tree (T.element ~attrs:[ T.attr "a" value ] name [ T.text text ]));
  let parse_budget = (3. *. string_words k) +. small in
  if parse_words > parse_budget then
    Alcotest.failf "parsing allocated %.0f words (budget %.0f)" parse_words parse_budget;
  let printed = ref "" in
  let print_words = words_allocated (fun () -> printed := Pr.to_string !tree) in
  check_str "prints back" input !printed;
  let n = String.length input in
  let rec capacity c = if c >= n then c else capacity (2 * c) in
  let print_budget = string_words n +. (2. *. string_words (capacity 1)) +. small in
  if print_words > print_budget then
    Alcotest.failf "printing allocated %.0f words (budget %.0f)" print_words print_budget;
  let again = words_allocated (fun () -> printed := Pr.to_string !tree) in
  check_str "prints back again" input !printed;
  let again_budget = string_words n +. small in
  if again > again_budget then
    Alcotest.failf "printing again allocated %.0f words (budget %.0f)" again again_budget

(* The parser allocates what it returns: with no entity, CR or CDATA in
   the input it makes no scratch buffer, and it builds an attribute list
   once, in order. [<a/>] is its name (2 words), the element (6) and
   the reader (6); every attribute of [wide] adds
   its name and value (2 each), its record (3) and its cell (3). *)
let test_parse_alloc () =
  let words_of input =
    ignore (P.parse input);
    words_allocated (fun () -> ignore (Sys.opaque_identity (P.parse input)))
  in
  let small = words_of "<a/>" in
  if small > 14. then Alcotest.failf "<a/> allocated %.0f words (budget 14)" small;
  let n = 1000 in
  let wide =
    let b = Buffer.create (n * 12) in
    Buffer.add_string b "<a";
    for i = 1 to n do Printf.bprintf b " x%d='v'" (i mod 1000) done;
    Buffer.add_string b "/>";
    Buffer.contents b
  in
  (match P.parse wide with
   | T.Element { attrs; _ } ->
     check_int "attributes in order" n (List.length attrs);
     check_str "first" "x1" (List.hd attrs).T.name
   | _ -> Alcotest.fail "not an element");
  let words = words_of wide in
  let budget = small +. (10. *. float_of_int n) in
  if words > budget then
    Alcotest.failf "%d attributes allocated %.0f words (budget %.0f)" n words budget

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let doc = "<a x=\"1&amp;2\"><b>t&lt;ext</b><c/><d>mixed <e/> tail</d></a>" in
  let t = parse doc in
  let printed = Pr.to_string t in
  let t2 = parse printed in
  check "roundtrip equal" true (T.equal t t2)

let test_pretty_roundtrip () =
  let t = parse "<a><b>hello</b><c><d/></c></a>" in
  let printed = Pr.to_pretty_string ~xml_decl:true t in
  let t2 = T.strip_layout (parse printed) in
  check "pretty roundtrip equal" true (T.equal (T.strip_layout t) t2)

let test_escaping () =
  let t = T.element ~attrs:[ T.attr "k" "a\"b<c" ] "x" [ T.text "1<2&3" ] in
  check_str "escaped" "<x k=\"a&quot;b&lt;c\">1&lt;2&amp;3</x>" (Pr.to_string t)

(* "]]>" cannot appear inside one CDATA section: the printer must split
   it across two adjacent sections and the parser must coalesce them
   back into a single node. *)
let test_cdata_split () =
  let t = T.element "x" [ T.cdata "a]]>b" ] in
  let printed = Pr.to_string t in
  check_str "split form" "<x><![CDATA[a]]]]><![CDATA[>b]]></x>" printed;
  (match parse printed with
   | T.Element { children = [ T.Cdata s ]; _ } -> check_str "coalesced" "a]]>b" s
   | _ -> Alcotest.fail "expected a single CDATA child");
  (* pathological shapes: terminators at the edges, stacked brackets *)
  List.iter
    (fun s ->
      let printed = Pr.to_string (T.element "x" [ T.cdata s ]) in
      match parse printed with
      | T.Element { children = [ T.Cdata s' ]; _ } -> check_str s s s'
      | T.Element { children = []; _ } when s = "" -> ()
      | _ -> Alcotest.failf "no single CDATA child for %S" s)
    [ "]]>"; "]]>]]>"; "]]"; "]"; "x]]"; "]]>x"; "a]b]>c" ]

(* A literal U+000D would be normalized away by any conforming parser,
   so the printer must say it as "&#13;" (and the other C0 controls as
   their numeric references). *)
let test_cr_roundtrip () =
  let t = T.element "x" [ T.text "a\rb\r\nc" ] in
  let printed = Pr.to_string t in
  check_str "cr escaped" "<x>a&#13;b&#13;\nc</x>" printed;
  (match parse printed with
   | T.Element { children = [ T.Text s ]; _ } -> check_str "cr preserved" "a\rb\r\nc" s
   | _ -> Alcotest.fail "expected one text child");
  (* literal CR in the input is line-end normalization fodder *)
  (match parse "<x>a\rb\r\nc</x>" with
   | T.Element { children = [ T.Text s ]; _ } -> check_str "normalized" "a\nb\nc" s
   | _ -> Alcotest.fail "expected one text child")

let test_control_chars_roundtrip () =
  let s = "a\001b\x1fc\td" in
  let t = T.element "x" [ T.text s ] in
  (match parse (Pr.to_string t) with
   | T.Element { children = [ T.Text s' ]; _ } -> check_str "controls" s s'
   | _ -> Alcotest.fail "expected one text child")

let test_attr_whitespace_roundtrip () =
  let v = "a\tb\nc\rd\"e" in
  let t = T.element ~attrs:[ T.attr "k" v ] "x" [] in
  let printed = Pr.to_string t in
  check_str "attr refs" "<x k=\"a&#9;b&#10;c&#13;d&quot;e\"/>" printed;
  let e = elem_of (parse printed) in
  Alcotest.(check (option string)) "attr back" (Some v) (T.attr_value e "k")

(* Which bytes the escapes rewrite, from the rules in xml_print.ml, and
   a one-byte text and attribute value printing and parsing back to
   itself, for every byte. *)
let char_ref c = Printf.sprintf "&#%d;" (Char.code c)

let test_escape_bytes () =
  List.iter
    (fun c ->
      let b = String.make 1 c in
      let text =
        match c with
        | '&' -> "&amp;"
        | '<' -> "&lt;"
        | '>' -> "&gt;"
        | '\t' | '\n' -> b
        | c when Char.code c < 32 -> char_ref c
        | _ -> b
      in
      let attr =
        match c with
        | '&' -> "&amp;"
        | '<' -> "&lt;"
        | '"' -> "&quot;"
        | c when Char.code c < 32 -> char_ref c
        | _ -> b
      in
      check_str ("text " ^ String.escaped b) text (Pr.escape_text b);
      check_str ("attr " ^ String.escaped b) attr (Pr.escape_attr b);
      if text = b then check "text unchanged is the argument" true (Pr.escape_text b == b);
      if attr = b then check "attr unchanged is the argument" true (Pr.escape_attr b == b))
    all_bytes

let test_byte_roundtrip () =
  List.iter
    (fun c ->
      let b = String.make 1 c in
      let t = T.element ~attrs:[ T.attr "v" b ] "a" [ T.text b ] in
      List.iter
        (fun printed ->
          match P.parse_result printed with
          | Ok t' when T.equal t t' -> ()
          | Ok t' -> Alcotest.failf "%S read back as %s" printed (Pr.to_string t')
          | Error e -> Alcotest.failf "%S refused: %s" printed e)
        [ Pr.to_string t; Pr.to_pretty_string t ])
    all_bytes

(* ------------------------------------------------------------------ *)
(* Namespaces                                                          *)
(* ------------------------------------------------------------------ *)

let axml_ns = "http://www.activexml.com/ns/int"

let test_namespaces () =
  let doc =
    "<newspaper xmlns:int=\"" ^ axml_ns ^ "\">\
     <title>The Sun</title>\
     <int:fun methodName=\"Get_Temp\"/>\
     </newspaper>"
  in
  let t = parse doc in
  let found = ref [] in
  Ns.iter_elements
    (fun env e ->
      if Ns.element_is env ~uri:axml_ns ~local:"fun" e then
        found := e :: !found)
    t;
  check_int "one call node" 1 (List.length !found);
  (match !found with
   | [ e ] -> Alcotest.(check (option string)) "method" (Some "Get_Temp")
                (T.attr_value e "methodName")
   | _ -> Alcotest.fail "unexpected")

let test_default_namespace () =
  let t = parse "<a xmlns=\"urn:one\"><b/><c xmlns=\"urn:two\"><d/></c></a>" in
  let seen = ref [] in
  Ns.iter_elements
    (fun env e -> seen := (e.T.name, fst (Ns.expanded_name env e)) :: !seen)
    t;
  let lookup name = List.assoc name !seen in
  Alcotest.(check (option string)) "a" (Some "urn:one") (lookup "a");
  Alcotest.(check (option string)) "b" (Some "urn:one") (lookup "b");
  Alcotest.(check (option string)) "c" (Some "urn:two") (lookup "c");
  Alcotest.(check (option string)) "d" (Some "urn:two") (lookup "d")

(* [Syntax.of_xml] resolves every element under the declarations in
   force at it: its own, its ancestors', never a sibling's. *)
module D = Axml_core.Document
module Syntax = Axml_peer.Syntax
module Soap = Axml_peer.Soap

let syntax_case input expected =
  let doc = Syntax.of_xml_string input in
  if not (D.equal doc expected) then
    Alcotest.failf "%s@ decoded to %a,@ expected %a" input D.pp doc D.pp expected

let test_syntax_default_ns () =
  (* int:fun written through a default namespace, params included *)
  syntax_case
    ("<doc><fun xmlns=\"" ^ axml_ns ^ "\" methodName=\"F\">\
      <params><param><city>Paris</city></param></params></fun></doc>")
    (D.elem "doc" [ D.call "F" [ D.elem "city" [ D.data "Paris" ] ] ]);
  (* the default namespace is not the prefix: int:fun stays data here *)
  syntax_case
    ("<doc xmlns=\"" ^ axml_ns ^ "\"><int:fun methodName=\"F\"/></doc>")
    (D.elem "doc" [ D.elem "fun" [] ])

let test_syntax_rebound_prefix () =
  (* the int prefix re-bound on a child, or on the element itself *)
  syntax_case
    ("<doc xmlns:int=\"" ^ axml_ns ^ "\"><x xmlns:int=\"urn:other\">\
      <int:fun methodName=\"F\"/></x><int:fun methodName=\"G\"/></doc>")
    (D.elem "doc" [ D.elem "x" [ D.elem "fun" [] ]; D.call "G" [] ]);
  syntax_case
    ("<doc xmlns:int=\"" ^ axml_ns ^ "\">\
      <int:fun xmlns:int=\"urn:other\" methodName=\"F\"/></doc>")
    (D.elem "doc" [ D.elem "fun" [] ])

let test_syntax_sibling_scope () =
  (* a child's declaration is not in force at its sibling *)
  syntax_case
    ("<doc><a xmlns:int=\"" ^ axml_ns ^ "\"><int:fun methodName=\"F\"/></a>\
      <int:fun methodName=\"G\"/></doc>")
    (D.elem "doc" [ D.elem "a" [ D.call "F" [] ]; D.elem "fun" [] ])

let test_syntax_params_decl () =
  (* a declaration on int:params is in force at its int:param children
     and their content *)
  syntax_case
    ("<doc xmlns:int=\"" ^ axml_ns ^ "\"><int:fun methodName=\"F\">\
      <int:params xmlns:p=\"" ^ axml_ns ^ "\">\
      <p:param><p:fun methodName=\"G\"/></p:param>\
      <int:param>x</int:param></int:params></int:fun></doc>")
    (D.elem "doc" [ D.call "F" [ D.call "G" []; D.data "x" ] ]);
  (* ... and re-binding int there moves int:param out of the namespace *)
  match
    Syntax.of_xml_string
      ("<doc xmlns:int=\"" ^ axml_ns ^ "\"><int:fun methodName=\"F\">\
        <int:params xmlns:int=\"urn:other\"><int:param>x</int:param>\
        </int:params></int:fun></doc>")
  with
  | exception Syntax.Syntax_error _ -> ()
  | d -> Alcotest.failf "expected Syntax_error, got %a" D.pp d

(* The decoder's answer to malformed calls, by precedence: a missing
   methodName first, then an offence inside the first int:params, then
   stray content anywhere else in the int:fun, a second int:params
   included: a call has one parameter list. *)
let test_syntax_refusals () =
  let in_doc s = "<doc xmlns:int=\"" ^ axml_ns ^ "\">" ^ s ^ "</doc>" in
  let params = "<int:params><int:param>x</int:param></int:params>" in
  let refused s expected =
    match Syntax.of_xml_string (in_doc s) with
    | exception Syntax.Syntax_error m -> check_str s expected m
    | d -> Alcotest.failf "%s decoded to %a, expected a refusal" s D.pp d
  in
  let no_method = "int:fun element without a methodName attribute" in
  let stray = "unexpected content inside int:fun" in
  let not_param = "int:params may only contain int:param elements" in
  refused ("<int:fun>" ^ params ^ "</int:fun>") no_method;
  refused ("<int:fun methodName=\"F\">text" ^ params ^ "</int:fun>") stray;
  refused ("<int:fun methodName=\"F\">" ^ params ^ "<x/></int:fun>") stray;
  refused ("<int:fun methodName=\"F\"><x/></int:fun>") stray;
  refused "<int:fun methodName=\"F\"><int:params><x/></int:params></int:fun>" not_param;
  refused "<int:fun methodName=\"F\"><int:params>t</int:params></int:fun>" not_param;
  (* two offences: the earlier rank is reported, whatever the order in
     the document *)
  refused "<int:fun>text<int:params><x/></int:params></int:fun>" no_method;
  refused "<int:fun methodName=\"F\">text<int:params><x/></int:params></int:fun>" not_param;
  refused "<int:fun methodName=\"F\"><int:params><x/></int:params><y/></int:fun>" not_param;
  (* a second int:params is stray content, whatever it holds; an offence
     inside the first still ranks above it *)
  let second = "<int:params><int:param>y</int:param></int:params>" in
  refused ("<int:fun methodName=\"F\">" ^ params ^ second ^ "</int:fun>") stray;
  refused ("<int:fun methodName=\"F\">" ^ params ^ "<int:params><x/></int:params></int:fun>")
    stray;
  refused ("<int:fun methodName=\"F\">" ^ params ^ " " ^ params ^ "</int:fun>") stray;
  refused
    ("<int:fun methodName=\"F\"><int:params><x/></int:params>" ^ second ^ "</int:fun>")
    not_param;
  (* a SOAP request decodes its arguments the same way, and refuses
     them as a malformed envelope with the same message *)
  let envelope content =
    Printf.sprintf
      {|<soap:Envelope xmlns:soap=%S xmlns:int=%S><soap:Body><int:request method="M"><int:args><int:fun methodName="F">%s</int:fun></int:args></int:request></soap:Body></soap:Envelope>|}
      Soap.soap_ns axml_ns content
  in
  (match Soap.decode (envelope params) with
   | Soap.Request { params = [ c ]; _ } when D.equal c (D.call "F" [ D.data "x" ]) -> ()
   | _ -> Alcotest.fail "a SOAP call with one int:params does not decode to its call");
  match Soap.decode (envelope (params ^ second)) with
  | exception Soap.Protocol_error m -> check_str "SOAP request" stray m
  | _ -> Alcotest.fail "a SOAP call with two int:params decoded"

(* The printer allocates its output and nothing per element: printing a
   flat document of 10,000 children again, once the spare buffer has
   grown to fit it, allocates the output string and a small constant. *)
let test_print_alloc () =
  let n = 10_000 in
  let doc = T.element "r" (List.init n (fun _ -> T.element "c" [])) in
  let printed = Pr.to_string doc in
  check_int "output" ((4 * n) + 7) (String.length printed);
  let words = words_allocated (fun () -> ignore (Sys.opaque_identity (Pr.to_string doc))) in
  let budget = string_words (String.length printed) +. 16. in
  if words > budget then
    Alcotest.failf "printing %d children allocated %.0f words (budget %.0f)" n words budget

(* The printers and the wire encoder reuse one spare buffer. Four
   systhreads in each of two domains print distinct trees at once, one
   of them over the 64 KiB a kept buffer may hold: every output must be
   the sequential one. *)
let test_spare_buffer_concurrent () =
  let module Wire = Axml_net.Wire in
  let tree i width =
    T.element (Printf.sprintf "doc%d" i)
      (List.init width (fun j -> T.element "e" [ T.text (Printf.sprintf "%d.%d" i j) ]))
  in
  let trees = Array.init 8 (fun i -> tree i (if i = 0 then 8_000 else 1 + (i * 13))) in
  let request i xml = Wire.Exchange { exchange = i; as_name = "d"; doc_xml = xml } in
  let xml = Array.map Pr.to_string trees in
  let wire = Array.mapi (fun i x -> Wire.encode_request (request i x)) xml in
  check "one print over 64 KiB" true (String.length xml.(0) > 64 * 1024);
  let mismatches = Atomic.make 0 in
  let printer i () =
    for _ = 1 to 100 do
      let x = Pr.to_string trees.(i) in
      if not (String.equal x xml.(i)) then Atomic.incr mismatches;
      if not (String.equal (Wire.encode_request (request i x)) wire.(i)) then
        Atomic.incr mismatches
    done
  in
  let domain d () =
    List.iter Thread.join (List.init 4 (fun t -> Thread.create (printer ((4 * d) + t)) ()))
  in
  List.iter Domain.join (List.init 2 (fun d -> Domain.spawn (domain d)));
  check_int "outputs that differ from the sequential print" 0 (Atomic.get mismatches)

(* Resolution scans the bindings in force, so their number is bounded:
   Xml_ns.max_bindings distinct prefixes decode, one more is a typed
   error. Re-declaring a prefix (every call declares int) does not
   count again. *)
let test_syntax_binding_bound () =
  let nested n =
    String.concat "" (List.init n (fun i -> Printf.sprintf "<e xmlns:p%d=\"u\">" i))
    ^ "<int:fun xmlns:int=\"" ^ axml_ns ^ "\" methodName=\"F\"/>"
    ^ String.concat "" (List.init n (fun _ -> "</e>"))
  in
  (match Syntax.of_xml_string (nested (Ns.max_bindings - 1)) with
   | _ -> ()
   | exception Syntax.Syntax_error m -> Alcotest.failf "%d bindings refused: %s" Ns.max_bindings m);
  (match Syntax.of_xml_string (nested Ns.max_bindings) with
   | exception Syntax.Syntax_error m ->
     check_str "refusal" "more than 64 namespace prefixes bound at once" m
   | d -> Alcotest.failf "expected a refusal, got %a" D.pp d);
  let calls depth =
    let rec go d = if d = 0 then D.data "x" else D.call "F" [ go (d - 1) ] in
    D.elem "doc" [ go depth ]
  in
  let doc = calls (10 * Ns.max_bindings) in
  check "nested calls redeclare int freely" true
    (D.equal doc (Syntax.of_xml_string (Syntax.to_xml_string ~pretty:false doc)))

(* ------------------------------------------------------------------ *)
(* Allocation budgets of the decoder (deterministic on a non-flambda    *)
(* compiler: [Gc.minor_words] deltas)                                   *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A call-dense feed: 38 nodes, 9 of them calls, in the printed form
   every peer sends (each call declaring the int prefix). *)
let feed_doc =
  let entry t price = D.elem "entry" [ D.elem "title" [ D.data t ]; price ] in
  let priced t = entry t (D.call "Price" [ D.elem "title" [ D.data t ] ]) in
  D.elem "feed"
    [ D.elem "head" [ D.data "Daily" ]; priced "a"; D.call "Fetch" [ D.data "q1" ];
      D.call "Expand" [ D.data "q2" ]; entry "b" (D.elem "price" [ D.data "3" ]);
      D.call "Fetch" [ D.data "q3" ]; priced "c"; D.call "Expand" [ D.data "q4" ];
      D.call "Fetch" [ D.data "q5" ]; priced "d"; D.call "Expand" [ D.data "q6" ] ]

let test_syntax_alloc_budget () =
  let tree = parse (Syntax.to_xml_string ~pretty:false feed_doc) in
  let nodes = D.count_nodes feed_doc in
  check_int "feed nodes" 38 nodes;
  check "decodes back" true (D.equal feed_doc (Syntax.of_xml tree));
  let rounds = 10 in
  let words =
    minor_words (fun () ->
        for _ = 1 to rounds do
          ignore (Sys.opaque_identity (Syntax.of_xml tree))
        done)
  in
  let per_node = words /. float_of_int (rounds * nodes) in
  if per_node > 12. then
    Alcotest.failf "Syntax.of_xml allocates %.1f words per decoded node (budget 12)" per_node

(* [Syntax.to_xml] allocates the tree it returns and nothing else: 6
   words an element (its constructor and record), 2 a text node, 3 a
   list cell, and for a call the int:fun element, its methodName
   attribute and three attribute cells (a local call's other
   attributes are built once), then int:params and an int:param with
   its one-cell content per parameter. *)
let test_to_xml_alloc () =
  let rec tree_words (d : D.t) =
    match d with
    | D.Data _ -> 2.
    | D.Elem { children; _ } -> List.fold_left (fun w c -> w +. 3. +. tree_words c) 6. children
    | D.Call { params; _ } ->
      let call = 6. +. 3. +. 9. in
      (match params with
       | [] -> call
       | _ -> List.fold_left (fun w p -> w +. 3. +. 6. +. 3. +. tree_words p) (call +. 3. +. 6.) params)
  in
  Alcotest.(check (float 0.)) "the feed's tree" 549. (tree_words feed_doc);
  let rounds = 10 in
  let words =
    minor_words (fun () ->
        for _ = 1 to rounds do
          ignore (Sys.opaque_identity (Syntax.to_xml feed_doc))
        done)
  in
  Alcotest.(check (float 0.)) "words per print of the feed" (tree_words feed_doc)
    (words /. float_of_int rounds)

let test_ns_no_alloc () =
  let tree = parse ("<r xmlns:int=\"" ^ axml_ns ^ "\"><a x=\"1\"/><int:fun/></r>") in
  let r = elem_of tree in
  let env = Ns.extend Ns.empty_env r in
  let a, f =
    match r.T.children with
    | [ T.Element a; T.Element f ] -> (a, f)
    | _ -> Alcotest.fail "unexpected tree"
  in
  check "int:fun" true (Ns.element_is env ~uri:axml_ns ~local:"fun" f);
  check "a" false (Ns.element_is env ~uri:axml_ns ~local:"fun" a);
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Ns.extend env a));
          ignore (Sys.opaque_identity (Ns.extend env f));
          ignore (Sys.opaque_identity (Ns.element_is env ~uri:axml_ns ~local:"fun" f));
          ignore (Sys.opaque_identity (Ns.element_is env ~uri:axml_ns ~local:"fun" a));
          ignore (Sys.opaque_identity (Ns.local_name a.T.name (Ns.prefix_end a.T.name)));
        done)
  in
  Alcotest.(check (float 0.)) "words allocated" 0. words

(* Width: a million siblings decode and print back byte for byte, on
   the main thread and on a systhread. A call prints as about 120
   bytes, so the all-calls variant is 100,000 wide, which keeps its
   peak heap near the plain variant's (about 300 MB). *)
let wide n child =
  let b = Buffer.create ((n * String.length child) + 8) in
  Buffer.add_string b "<r>";
  for _ = 1 to n do Buffer.add_string b child done;
  Buffer.add_string b "</r>";
  Buffer.contents b

let wide_roundtrip n input () =
  let doc = Syntax.of_xml_string input in
  check_int "width" n (List.length (D.children doc));
  check "prints back" true (String.equal input (Syntax.to_xml_string ~pretty:false doc))

let test_syntax_wide () =
  let call = Syntax.to_xml_string ~pretty:false (D.call "F" []) in
  List.iter
    (fun (n, child) ->
      let input = wide n child in
      wide_roundtrip n input ();
      let failure = ref None in
      let t =
        Thread.create (fun () -> try wide_roundtrip n input () with e -> failure := Some e) ()
      in
      Thread.join t;
      Option.iter raise !failure)
    [ (1_000_000, "<a/>"); (100_000, call) ]

(* ------------------------------------------------------------------ *)
(* Path queries                                                        *)
(* ------------------------------------------------------------------ *)

let library_doc =
  parse
    "<library><shelf id=\"1\"><book><title>A</title></book>\
     <book><title>B</title></book></shelf>\
     <shelf id=\"2\"><book><title>C</title></book></shelf></library>"

let test_path_child () =
  let titles = Path.select_strings "/library/shelf/book/title" library_doc in
  Alcotest.(check (list string)) "titles" [ "A"; "B"; "C" ] titles

let test_path_descendant () =
  let titles = Path.select_strings "//title" library_doc in
  Alcotest.(check (list string)) "titles" [ "A"; "B"; "C" ] titles;
  let books = Path.select "//book" library_doc in
  check_int "books" 3 (List.length books)

let test_path_wildcard () =
  let shelves = Path.select "/library/*" library_doc in
  check_int "shelves" 2 (List.length shelves)

let test_path_text () =
  let texts = Path.select_strings "//title/text()" library_doc in
  Alcotest.(check (list string)) "texts" [ "A"; "B"; "C" ] texts

let test_path_no_match () =
  check_int "nothing" 0 (List.length (Path.select "/library/magazine" library_doc));
  check_int "wrong root" 0 (List.length (Path.select "/nope/shelf" library_doc))

let pred_doc =
  parse
    "<store><book id=\"b1\" lang=\"en\"><title>A</title></book>\
     <book id=\"b2\" lang=\"fr\"><title>B</title></book>\
     <book id=\"b3\" lang=\"en\"><title>C</title></book></store>"

let test_path_position_pred () =
  let titles = Path.select_strings "/store/book[2]/title" pred_doc in
  Alcotest.(check (list string)) "second book" [ "B" ] titles;
  let titles = Path.select_strings "/store/book[1]/title" pred_doc in
  Alcotest.(check (list string)) "first book" [ "A" ] titles;
  check_int "out of range" 0 (List.length (Path.select "/store/book[9]" pred_doc))

let test_path_attr_pred () =
  let en = Path.select_strings "/store/book[@lang='en']/title" pred_doc in
  Alcotest.(check (list string)) "english books" [ "A"; "C" ] en;
  let b2 = Path.select_strings "//book[@id='b2']/title" pred_doc in
  Alcotest.(check (list string)) "by id" [ "B" ] b2;
  check_int "no match" 0 (List.length (Path.select "/store/book[@lang='de']" pred_doc))

let test_path_pred_combination () =
  (* position applies after the attribute filter, per predicate order *)
  let t = Path.select_strings "/store/book[@lang='en'][2]/title" pred_doc in
  Alcotest.(check (list string)) "second english book" [ "C" ] t

let test_path_pred_errors () =
  List.iter
    (fun p ->
      match Path.parse p with
      | exception Path.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected %s to be rejected" p)
    [ "/a[0]"; "/a[x]"; "/a[@k=v]"; "/a[@=1]"; "/a[1" ]

let test_path_errors () =
  (match Path.parse "relative/path" with
   | exception Path.Parse_error _ -> ()
   | _ -> Alcotest.fail "expected parse error");
  (match Path.parse "//" with
   | exception Path.Parse_error _ -> ()
   | _ -> Alcotest.fail "expected parse error")

(* ------------------------------------------------------------------ *)
(* QCheck: print/parse roundtrip over random trees                     *)
(* ------------------------------------------------------------------ *)

let gen_tree : T.t QCheck.arbitrary =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "data"; "item" ] in
  let attr_gen =
    map2 (fun k v -> T.attr k v) (oneofl [ "x"; "y" ])
      (oneofl [ "1"; "two"; "<&\">"; "" ])
  in
  let text_gen = oneofl [ "hello"; "a<b"; "x & y"; "plain" ] in
  let rec gen n =
    if n <= 0 then map T.text text_gen
    else
      frequency
        [ (1, map T.text text_gen);
          (3,
           map3
             (fun name attrs children -> T.element ~attrs name children)
             name
             (list_size (int_bound 2) attr_gen)
             (list_size (int_bound 3) (gen (n / 2))))
        ]
  in
  let root =
    map3
      (fun name attrs children -> T.element ~attrs name children)
      name
      (list_size (int_bound 2) attr_gen)
      (list_size (int_bound 4) (gen 3))
  in
  QCheck.make ~print:Pr.to_string root

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:300 ~name:"print then parse is the identity"
    gen_tree
    (fun t ->
      match P.parse_result (Pr.to_string t) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok t' ->
        (* adjacent text nodes merge on reparse; normalize both sides by
           comparing the serialized forms *)
        String.equal (Pr.to_string t) (Pr.to_string t'))

let prop_count_nodes_positive =
  QCheck.Test.make ~count:200 ~name:"node count and depth are consistent"
    gen_tree
    (fun t -> T.count_nodes t >= 1 && T.depth t >= 1 && T.depth t <= T.count_nodes t)

(* Adversarial content: CDATA terminators, carriage returns, C0
   controls, quotes — everything the escaping rules exist for. Adjacent
   CDATA children are separated by an empty element because the parser
   (correctly) coalesces adjacent sections into one node. *)
let gen_adversarial : T.t QCheck.arbitrary =
  let open QCheck.Gen in
  let nasty =
    oneofl
      [ "]]>"; "]]"; "]"; "a]]>b"; "]]>]]>"; "\r"; "\r\n"; "a\rb";
        "\001"; "\x1f"; "a\tb\nc"; "&"; "<"; ">"; "\""; "'"; "&amp;";
        "&#13;"; "plain"; "" ]
  in
  let attr_gen = map (fun v -> T.attr "k" v) nasty in
  let leaf =
    frequency [ (2, map T.text nasty); (2, map T.cdata nasty) ]
  in
  let separate_cdata children =
    (* an empty text node prints to nothing, so it must not be allowed
       to "separate" two CDATA nodes (the printed sections would be
       adjacent and coalesce on reparse) *)
    let children = List.filter (function T.Text "" -> false | _ -> true) children in
    let rec fix = function
      | (T.Cdata _ as a) :: (T.Cdata _ :: _ as rest) ->
        a :: T.element "sep" [] :: fix rest
      | n :: rest -> n :: fix rest
      | [] -> []
    in
    fix children
  in
  let rec gen n =
    if n <= 0 then leaf
    else
      frequency
        [ (2, leaf);
          (3,
           map2
             (fun attrs children ->
               T.element ~attrs "e" (separate_cdata children))
             (list_size (int_bound 1) attr_gen)
             (list_size (int_bound 3) (gen (n / 2))))
        ]
  in
  let root =
    map
      (fun children -> T.element "root" (separate_cdata children))
      (list_size (int_bound 4) (gen 3))
  in
  QCheck.make ~print:Pr.to_string root

let prop_adversarial_roundtrip =
  QCheck.Test.make ~count:500 ~name:"adversarial print/parse roundtrip"
    gen_adversarial
    (fun t ->
      match P.parse_result (Pr.to_string t) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok t' ->
        (* adjacent/empty text nodes merge on reparse; compare the
           serialized forms, which are invariant under that merge *)
        String.equal (Pr.to_string t) (Pr.to_string t'))

(* Schema-driven documents (the workload generator's output) must
   survive the full Document -> XML -> string -> XML -> Document trip. *)
let roundtrip_schema =
  match
    Axml_schema.Schema_parser.parse_result
      {|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title = #data
element date = #data
element temp = #data
element exhibit = title.(Get_Date | date)
function Get_Temp : #data -> temp
function Get_Date : title -> date
function TimeOut : #data -> exhibit*
|}
  with
  | Ok s -> s
  | Error e -> failwith e

let prop_generated_roundtrip =
  QCheck.Test.make ~count:100 ~name:"generated documents roundtrip via XML"
    QCheck.small_int
    (fun seed ->
      let stream =
        Axml_workload.Mix.stream ~seed ~schema:roundtrip_schema
          Axml_workload.Mix.steady
      in
      List.for_all
        (fun (item : Axml_workload.Mix.item) ->
          let doc = item.doc in
          let xml = Axml_peer.Syntax.to_xml doc in
          let doc' = Axml_peer.Syntax.of_xml_string (Pr.to_string xml) in
          Axml_core.Document.equal doc doc')
        (List.init 3 (fun _ -> Axml_workload.Mix.next stream)))

(* The same calls written other ways. [ns_variant bits] rewrites the
   canonical tree of a document ([Syntax.to_xml]) by the variants whose
   bit is set: 0 renames the int prefix to q; 1 puts int:fun and its
   wrappers in a default namespace instead (the content of each
   int:param undeclares it again); 2 re-declares the prefix in force on
   every element, which makes each call's own declaration redundant; 3
   reverses the call attributes; 4 puts layout, comments and processing
   instructions around int:params and between the int:param elements.
   Each variant must decode to the document the canonical print gives. *)
let ns_variant bits (tree : T.t) : T.t =
  let on i = bits land (1 lsl i) <> 0 in
  let rename = on 0 and default = on 1 and redeclare = on 2 and permute = on 3 and layout = on 4 in
  let prefix = if rename then "q" else "int" in
  let qualified local = if default then local else prefix ^ ":" ^ local in
  let declaration =
    if default then T.attr "xmlns" axml_ns else T.attr ("xmlns:" ^ prefix) axml_ns
  in
  let layout_nodes = if layout then [ T.text "\n  "; T.comment " layout "; T.pi "note" "x" ] else [] in
  let rec go ~in_param (node : T.t) : T.t =
    match node with
    | T.Element { name = "int:fun"; attrs; children } ->
      let attrs =
        List.map
          (fun (a : T.attribute) -> if String.equal a.name "xmlns:int" then declaration else a)
          attrs
      in
      let attrs = if permute then List.rev attrs else attrs in
      T.element ~attrs (qualified "fun")
        (layout_nodes @ List.map (go ~in_param:false) children @ layout_nodes)
    | T.Element { name = "int:params"; attrs; children } ->
      let children = List.concat_map (fun c -> go ~in_param:false c :: layout_nodes) children in
      let attrs = if redeclare then attrs @ [ declaration ] else attrs in
      T.element ~attrs (qualified "params") (layout_nodes @ children)
    | T.Element { name = "int:param"; attrs; children } ->
      let attrs = if redeclare then attrs @ [ declaration ] else attrs in
      T.element ~attrs (qualified "param") (List.map (go ~in_param:true) children)
    | T.Element e ->
      let attrs = if redeclare then e.attrs @ [ T.attr ("xmlns:" ^ prefix) axml_ns ] else e.attrs in
      let attrs = if default && in_param then T.attr "xmlns" "" :: attrs else attrs in
      T.element ~attrs e.name (List.map (go ~in_param:false) e.children)
    | other -> other
  in
  go ~in_param:false tree

let prop_namespace_variants =
  QCheck.Test.make ~count:100 ~name:"namespace variants decode like the canonical print"
    QCheck.(pair small_int (int_bound 31))
    (fun (seed, bits) ->
      let stream =
        Axml_workload.Mix.stream ~seed ~schema:roundtrip_schema Axml_workload.Mix.steady
      in
      List.for_all
        (fun (item : Axml_workload.Mix.item) ->
          let canonical = Syntax.of_xml_string (Syntax.to_xml_string ~pretty:false item.doc) in
          let printed = Pr.to_string (ns_variant bits (Syntax.to_xml item.doc)) in
          match Syntax.of_xml_string printed with
          | d when D.equal d canonical -> true
          | d -> QCheck.Test.fail_reportf "%s@ decoded to %a" printed D.pp d
          | exception Syntax.Syntax_error m -> QCheck.Test.fail_reportf "%s@ refused: %s" printed m)
        (List.init 3 (fun _ -> Axml_workload.Mix.next stream)))

(* Mutation fuzzer for the input boundary: printed trees and printed
   intensional documents, damaged by byte flips, truncations and
   splices ([Xml_fuzz.mutate]). The parser must answer with a tree or
   its [Error], the [Syntax] decoder with a document or [Syntax_error],
   and every tree that parses must print and parse back to itself. *)
let fuzz_seed : string QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [ (1, map Pr.to_string (QCheck.get_gen gen_tree));
      (1, map Pr.to_string (QCheck.get_gen gen_adversarial));
      (2,
       map2
         (fun seed pretty ->
           let stream =
             Axml_workload.Mix.stream ~seed ~schema:roundtrip_schema
               Axml_workload.Mix.steady
           in
           Syntax.to_xml_string ~pretty (Axml_workload.Mix.next stream).doc)
         small_nat bool) ]

let fuzz_input : string QCheck.arbitrary =
  let open QCheck.Gen in
  let rec mutations k s = if k = 0 then return s else Xml_fuzz.mutate s >>= mutations (k - 1) in
  QCheck.make ~print:String.escaped
    (pair fuzz_seed (frequencyl [ (4, 1); (2, 2); (1, 3); (1, 4) ]) >>= fun (s, k) ->
     mutations k s)

let prop_mutation_fuzz =
  QCheck.Test.make ~count:1000 ~name:"mutated inputs give a tree or a typed error"
    fuzz_input
    (fun input ->
      (match P.parse_result input with
       | Error _ -> ()
       | Ok t ->
         let printed = Pr.to_string t in
         (match P.parse_result printed with
          | Ok t' when T.equal t t' -> ()
          | Ok _ -> QCheck.Test.fail_reportf "reprint parses differently: %S" printed
          | Error e -> QCheck.Test.fail_reportf "reprint %S rejected: %s" printed e)
       | exception exn ->
         QCheck.Test.fail_reportf "parse_result raised %s" (Printexc.to_string exn));
      (match Syntax.of_xml_string input with
       | _ -> ()
       | exception Syntax.Syntax_error _ -> ()
       | exception exn ->
         QCheck.Test.fail_reportf "of_xml_string raised %s" (Printexc.to_string exn));
      true)

let () =
  Alcotest.run "xml"
    [ ("parser",
       [ Alcotest.test_case "basic" `Quick test_parse_basic;
         Alcotest.test_case "prolog/comment/pi" `Quick test_parse_prolog_comment_pi;
         Alcotest.test_case "entities" `Quick test_parse_entities;
         Alcotest.test_case "cdata" `Quick test_parse_cdata;
         Alcotest.test_case "doctype skipped" `Quick test_parse_doctype;
         Alcotest.test_case "deep nesting" `Quick test_parse_nested_deep;
         Alcotest.test_case "100k-deep regression" `Quick test_deep_100k;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "error positions" `Quick test_error_position;
         Alcotest.test_case "exact error positions" `Quick test_error_positions_exact;
         Alcotest.test_case "character references" `Quick test_char_refs;
         Alcotest.test_case "every byte in a name" `Quick test_bytes_in_names;
         Alcotest.test_case "every byte between attributes" `Quick
           test_bytes_between_attributes;
         Alcotest.test_case "every byte in character data" `Quick test_bytes_in_text;
         Alcotest.test_case "every byte in an attribute value" `Quick
           test_bytes_in_attribute_values;
         Alcotest.test_case "64 KiB tokens allocate only their copies" `Quick
           test_long_tokens_alloc;
         Alcotest.test_case "a parse allocates what it returns" `Quick test_parse_alloc;
         Alcotest.test_case "UTF-8 names" `Quick test_utf8_names;
         QCheck_alcotest.to_alcotest prop_mutation_fuzz
       ]);
      ("printing",
       [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
         Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
         Alcotest.test_case "escaping" `Quick test_escaping;
         Alcotest.test_case "cdata ]]> split" `Quick test_cdata_split;
         Alcotest.test_case "carriage returns" `Quick test_cr_roundtrip;
         Alcotest.test_case "control characters" `Quick test_control_chars_roundtrip;
         Alcotest.test_case "attribute whitespace" `Quick test_attr_whitespace_roundtrip;
         Alcotest.test_case "which bytes are escaped" `Quick test_escape_bytes;
         Alcotest.test_case "every byte prints and parses back" `Quick test_byte_roundtrip;
         Alcotest.test_case "a print allocates its output" `Quick test_print_alloc;
         Alcotest.test_case "spare buffer under domains and systhreads" `Quick
           test_spare_buffer_concurrent
       ]);
      ("namespaces",
       [ Alcotest.test_case "int:fun detection" `Quick test_namespaces;
         Alcotest.test_case "default namespace" `Quick test_default_namespace;
         Alcotest.test_case "int:fun in a default namespace" `Quick test_syntax_default_ns;
         Alcotest.test_case "int prefix re-bound" `Quick test_syntax_rebound_prefix;
         Alcotest.test_case "sibling scope" `Quick test_syntax_sibling_scope;
         Alcotest.test_case "declaration on int:params" `Quick test_syntax_params_decl;
         Alcotest.test_case "bound on prefixes in scope" `Quick test_syntax_binding_bound;
         Alcotest.test_case "decoder allocation budget" `Quick test_syntax_alloc_budget;
         Alcotest.test_case "namespace checks allocate nothing" `Quick test_ns_no_alloc;
         Alcotest.test_case "a million siblings" `Quick test_syntax_wide;
         Alcotest.test_case "malformed calls and their refusals" `Quick test_syntax_refusals;
         Alcotest.test_case "Syntax.to_xml allocates its tree" `Quick test_to_xml_alloc
       ]);
      ("paths",
       [ Alcotest.test_case "child axis" `Quick test_path_child;
         Alcotest.test_case "descendant axis" `Quick test_path_descendant;
         Alcotest.test_case "wildcard" `Quick test_path_wildcard;
         Alcotest.test_case "text()" `Quick test_path_text;
         Alcotest.test_case "no match" `Quick test_path_no_match;
         Alcotest.test_case "position predicate" `Quick test_path_position_pred;
         Alcotest.test_case "attribute predicate" `Quick test_path_attr_pred;
         Alcotest.test_case "predicate combination" `Quick test_path_pred_combination;
         Alcotest.test_case "predicate errors" `Quick test_path_pred_errors;
         Alcotest.test_case "parse errors" `Quick test_path_errors
       ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_print_parse_roundtrip; prop_count_nodes_positive;
           prop_adversarial_roundtrip; prop_generated_roundtrip; prop_namespace_variants ])
    ]
