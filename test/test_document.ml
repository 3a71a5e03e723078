(* Tests for the intensional document model (lib/core/document). *)

module D = Axml_core.Document
module Symbol = Axml_schema.Symbol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let doc =
  D.elem "newspaper"
    [ D.elem "title" [ D.data "The Sun" ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits"; D.call "Nested" [] ] ]

let test_symbols_and_words () =
  Alcotest.(check (list string)) "children word"
    [ "title"; "date"; "Get_Temp()"; "TimeOut()" ]
    (List.map Symbol.to_string (D.word (D.children doc)));
  check "data symbol" true (D.symbol (D.data "x") = Symbol.Data)

let test_counts () =
  check_int "nodes" 11 (D.count_nodes doc);
  check_int "calls" 3 (D.count_calls doc);
  check "not extensional" false (D.is_extensional doc);
  check "extensional" true (D.is_extensional (D.elem "a" [ D.data "x" ]));
  check_int "depth" 4 (D.depth doc)

let test_get () =
  (match D.get doc [ 0; 0 ] with
   | Some (D.Data "The Sun") -> ()
   | _ -> Alcotest.fail "expected the title text");
  (match D.get doc [ 2; 0 ] with
   | Some (D.Elem { label = "city"; _ }) -> ()
   | _ -> Alcotest.fail "expected the city parameter");
  check "dangling path" true (D.get doc [ 9 ] = None);
  check "path through a leaf" true (D.get doc [ 0; 0; 0 ] = None);
  check "empty path is the root" true (D.get doc [] = Some doc)

let test_splice () =
  (* replace the Get_Temp call by its materialized result *)
  let doc' = D.splice doc [ 2 ] [ D.elem "temp" [ D.data "15" ] ] in
  (match D.get doc' [ 2 ] with
   | Some (D.Elem { label = "temp"; _ }) -> ()
   | _ -> Alcotest.fail "expected the temp element");
  check_int "same arity" 4 (List.length (D.children doc'));
  (* splice a forest of two nodes: the arity grows *)
  let doc'' = D.splice doc [ 2 ] [ D.data "a"; D.data "b" ] in
  check_int "arity grows" 5 (List.length (D.children doc''));
  (* splice an empty forest: the node disappears *)
  let doc''' = D.splice doc [ 2 ] [] in
  check_int "arity shrinks" 3 (List.length (D.children doc'''));
  (* deep splice *)
  let deep = D.splice doc [ 3; 1 ] [ D.data "done" ] in
  (match D.get deep [ 3; 1 ] with
   | Some (D.Data "done") -> ()
   | _ -> Alcotest.fail "expected the spliced data");
  (* errors *)
  (match D.splice doc [] [ D.data "x" ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty path must be rejected");
  match D.splice doc [ 42 ] [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dangling path must be rejected"

let test_call_nesting () =
  check_int "nested call in params" 1 (D.call_nesting doc);
  check_int "flat" 0
    (D.call_nesting (D.elem "a" [ D.call "f" [ D.data "x" ] ]));
  check_int "double nesting" 2
    (D.call_nesting (D.call "f" [ D.call "g" [ D.call "h" [] ] ]))

let test_equality () =
  check "equal to itself" true (D.equal doc doc);
  check "label matters" false
    (D.equal (D.elem "a" []) (D.elem "b" []));
  check "child order matters" false
    (D.equal
       (D.elem "a" [ D.data "1"; D.data "2" ])
       (D.elem "a" [ D.data "2"; D.data "1" ]));
  check "call name matters" false (D.equal (D.call "f" []) (D.call "g" []))

let test_printing () =
  Alcotest.(check string) "term form" "a[\"x\", @f(\"y\")]"
    (D.to_string (D.elem "a" [ D.data "x"; D.call "f" [ D.data "y" ] ]))

let () =
  Alcotest.run "document"
    [ ("model",
       [ Alcotest.test_case "symbols and words" `Quick test_symbols_and_words;
         Alcotest.test_case "counts" `Quick test_counts;
         Alcotest.test_case "get" `Quick test_get;
         Alcotest.test_case "splice" `Quick test_splice;
         Alcotest.test_case "call nesting" `Quick test_call_nesting;
         Alcotest.test_case "equality" `Quick test_equality;
         Alcotest.test_case "printing" `Quick test_printing
       ])
    ]
