(* Tests for the regex + automata toolkit (lib/regex). *)

module R = Axml_regex.Regex
module P = Axml_regex.Regex_parser

module Str_sym = struct
  type t = string
  let compare = String.compare
  let pp = Fmt.string
end

module A = Axml_regex.Automata.Make (Str_sym)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse s =
  match P.parse_result s with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let word s =
  (* "a b c" -> ["a"; "b"; "c"] *)
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let r = parse "a.b.(c | d)*" in
  check_int "size" 8 (R.size r);
  Alcotest.(check string) "print" "a.b.(c | d)*" (R.to_string Fmt.string r)

let test_parse_postfix_chain () =
  let r = parse "a*?" in
  (* opt of star collapses to star via smart constructors *)
  check "still accepts eps" true (R.nullable r)

let test_parse_epsilon () =
  let r = parse "()" in
  check "epsilon" true (R.equal String.equal r R.epsilon)

let test_parse_newspaper () =
  let r = parse "title.date.(Get_Temp | temp).(TimeOut | exhibit*)" in
  let syms = R.symbols r in
  Alcotest.(check (list string)) "symbols"
    [ "title"; "date"; "Get_Temp"; "temp"; "TimeOut"; "exhibit" ]
    syms

let test_parse_errors () =
  let bad = [ "a.(b"; "a || b"; "*a"; "a b"; "a |"; "(" ] in
  List.iter
    (fun s ->
      match P.parse_result s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    bad

let test_repeat () =
  let r = R.repeat ~min:2 ~max:(Some 4) (R.sym "a") in
  let d = A.Dfa.of_regex r in
  check "aa" true (A.Dfa.accepts d (word "a a"));
  check "aaa" true (A.Dfa.accepts d (word "a a a"));
  check "aaaa" true (A.Dfa.accepts d (word "a a a a"));
  check "a" false (A.Dfa.accepts d (word "a"));
  check "aaaaa" false (A.Dfa.accepts d (word "a a a a a"));
  let unbounded = R.repeat ~min:1 ~max:None (R.sym "a") in
  let d = A.Dfa.of_regex unbounded in
  check "empty rejected" false (A.Dfa.accepts d []);
  check "a*" true (A.Dfa.accepts d (word "a a a a a a"))

(* ------------------------------------------------------------------ *)
(* Constructions                                                       *)
(* ------------------------------------------------------------------ *)

let test_thompson_basic () =
  let nfa = A.Nfa.thompson (parse "a.b | c*") in
  check "ab" true (A.Nfa.accepts nfa (word "a b"));
  check "eps" true (A.Nfa.accepts nfa []);
  check "ccc" true (A.Nfa.accepts nfa (word "c c c"));
  check "a" false (A.Nfa.accepts nfa (word "a"));
  check "abc" false (A.Nfa.accepts nfa (word "a b c"))

let test_glushkov_basic () =
  let nfa = A.Nfa.glushkov (parse "a.b | c*") in
  check "ab" true (A.Nfa.accepts nfa (word "a b"));
  check "eps" true (A.Nfa.accepts nfa []);
  check "ccc" true (A.Nfa.accepts nfa (word "c c c"));
  check "ba" false (A.Nfa.accepts nfa (word "b a"))

let test_glushkov_no_eps () =
  let nfa = A.Nfa.glushkov (parse "(a | b)*.a.b?") in
  check_int "no eps edges" 0
    (A.Int_map.fold (fun _ s acc -> acc + A.Int_set.cardinal s) nfa.A.Nfa.eps 0)

let test_determinism_check () =
  check "a.(b|c) det" true (A.deterministic_regex (parse "a.(b | c)"));
  check "a.b|a.c nondet" false (A.deterministic_regex (parse "a.b | a.c"));
  check "(a|b)*.a nondet" false (A.deterministic_regex (parse "(a | b)*.a"));
  check "paper schema det" true
    (A.deterministic_regex (parse "title.date.(Get_Temp | temp).(TimeOut | exhibit*)"))

(* ------------------------------------------------------------------ *)
(* DFA operations                                                      *)
(* ------------------------------------------------------------------ *)

let alpha_abc = A.Sym_set.of_list [ "a"; "b"; "c" ]

let test_complement () =
  let d = A.Dfa.of_regex (parse "a.b*") in
  let c = A.Dfa.complement ~alphabet:alpha_abc d in
  check "d: ab" true (A.Dfa.accepts d (word "a b"));
  check "c: ab" false (A.Dfa.accepts c (word "a b"));
  check "c: eps" true (A.Dfa.accepts c []);
  check "c: ba" true (A.Dfa.accepts c (word "b a"));
  check "c: abc" true (A.Dfa.accepts c (word "a b c"));
  check "complete" true (A.Dfa.is_complete c)

let test_product_ops () =
  let d1 = A.Dfa.of_regex (parse "(a | b)*") in
  let d2 = A.Dfa.of_regex (parse "a.(a | b | c)*") in
  let inter = A.Dfa.intersect d1 d2 in
  check "inter: a b" true (A.Dfa.accepts inter (word "a b"));
  check "inter: b a" false (A.Dfa.accepts inter (word "b a"));
  check "inter: a c" false (A.Dfa.accepts inter (word "a c"));
  let u = A.Dfa.union d1 d2 in
  check "union: b a" true (A.Dfa.accepts u (word "b a"));
  check "union: a c" true (A.Dfa.accepts u (word "a c"));
  check "union: c" false (A.Dfa.accepts u (word "c"))

let test_emptiness_witness () =
  let d = A.Dfa.of_regex (parse "a.b.c") in
  check "nonempty" false (A.Dfa.is_empty d);
  Alcotest.(check (option (list string))) "witness"
    (Some [ "a"; "b"; "c" ]) (A.Dfa.shortest_word d);
  let none = A.Dfa.intersect (A.Dfa.of_regex (parse "a.a")) (A.Dfa.of_regex (parse "b")) in
  check "empty intersection" true (A.Dfa.is_empty none);
  Alcotest.(check (option (list string))) "no witness" None (A.Dfa.shortest_word none)

let test_minimize () =
  (* (a|b).(a|b) has a 4-state minimal complete DFA incl. sink:
     q0 -a,b-> q1 -a,b-> q2(final) -a,b-> sink *)
  let d = A.Dfa.of_regex (parse "(a | b).(a | b)") in
  let m = A.Dfa.minimize d in
  check "language preserved aa" true (A.Dfa.accepts m (word "a a"));
  check "language preserved ba" true (A.Dfa.accepts m (word "b a"));
  check "rejects a" false (A.Dfa.accepts m (word "a"));
  check "rejects aaa" false (A.Dfa.accepts m (word "a a a"));
  check_int "minimal size" 4 m.A.Dfa.size

let test_equal_language () =
  let d1 = A.Dfa.of_regex (parse "(a.b)*.a?") in
  let d2 = A.Dfa.of_regex (parse "a?.(b.a?)*" ) in
  (* these two are NOT equal: d2 accepts "b" while d1 does not *)
  check "not equal" false (A.Dfa.equal_language d1 d2);
  let d3 = A.Dfa.of_regex (parse "a.a* | ()") in
  let d4 = A.Dfa.of_regex (parse "a*") in
  check "equal" true (A.Dfa.equal_language d3 d4);
  (match A.Dfa.separating_word d2 d1 with
   | Some w -> check "witness in d2 only" true (A.Dfa.accepts d2 w && not (A.Dfa.accepts d1 w))
   | None -> Alcotest.fail "expected separating word")

let test_nfa_shortest () =
  let nfa = A.Nfa.thompson (parse "a*.b.c | a.a") in
  match A.Nfa.shortest_word nfa with
  | Some w ->
    check_int "length 2" 2 (List.length w);
    check "accepted" true (A.Nfa.accepts nfa w)
  | None -> Alcotest.fail "expected a witness"

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let gen_regex : string R.t QCheck.arbitrary =
  let open QCheck.Gen in
  let sym = oneofl [ "a"; "b"; "c" ] in
  let rec gen n =
    if n <= 0 then map R.sym sym
    else
      frequency
        [ (2, map R.sym sym);
          (1, return R.epsilon);
          (2, map2 R.seq (gen (n / 2)) (gen (n / 2)));
          (2, map2 R.alt (gen (n / 2)) (gen (n / 2)));
          (1, map R.star (gen (n - 1)));
          (1, map R.plus (gen (n - 1)));
          (1, map R.opt (gen (n - 1)))
        ]
  in
  QCheck.make ~print:(R.to_string Fmt.string) (sized_size (int_bound 8) gen)

let gen_word : string list QCheck.arbitrary =
  QCheck.(list_of_size Gen.(int_bound 6) (oneofl [ "a"; "b"; "c" ]))

let prop_thompson_glushkov_agree =
  QCheck.Test.make ~count:500 ~name:"thompson and glushkov accept the same words"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      A.Nfa.accepts (A.Nfa.thompson r) w = A.Nfa.accepts (A.Nfa.glushkov r) w)

let prop_dfa_agrees_with_nfa =
  QCheck.Test.make ~count:500 ~name:"subset construction preserves the language"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      let nfa = A.Nfa.thompson r in
      A.Nfa.accepts nfa w = A.Dfa.accepts (A.Dfa.of_nfa nfa) w)

let prop_complement_sound =
  QCheck.Test.make ~count:500 ~name:"complement flips membership"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      let d = A.Dfa.of_regex r in
      let c = A.Dfa.complement ~alphabet:alpha_abc d in
      A.Dfa.accepts d w <> A.Dfa.accepts c w)

let prop_product_is_intersection =
  QCheck.Test.make ~count:300 ~name:"product computes intersection"
    QCheck.(triple gen_regex gen_regex gen_word)
    (fun (r1, r2, w) ->
      let d1 = A.Dfa.of_regex r1 and d2 = A.Dfa.of_regex r2 in
      A.Dfa.accepts (A.Dfa.intersect d1 d2) w
      = (A.Dfa.accepts d1 w && A.Dfa.accepts d2 w))

let prop_minimize_preserves =
  QCheck.Test.make ~count:300 ~name:"minimization preserves the language"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      let d = A.Dfa.of_regex r in
      A.Dfa.accepts d w = A.Dfa.accepts (A.Dfa.minimize d) w)

let prop_minimize_not_larger =
  QCheck.Test.make ~count:300 ~name:"minimization never grows the completed DFA"
    gen_regex
    (fun r ->
      let d = A.Dfa.complete ~alphabet:alpha_abc (A.Dfa.of_regex r) in
      (A.Dfa.minimize d).A.Dfa.size <= d.A.Dfa.size)

let prop_nullable_agrees =
  QCheck.Test.make ~count:500 ~name:"nullable iff automaton accepts the empty word"
    gen_regex
    (fun r -> R.nullable r = A.Nfa.accepts (A.Nfa.glushkov r) [])

let prop_sample_word_in_language =
  QCheck.Test.make ~count:500 ~name:"sampled words belong to the language"
    QCheck.(pair gen_regex (int_bound 1000))
    (fun (r, seed) ->
      let st = Random.State.make [| seed |] in
      match A.sample_word ~rand_int:(fun n -> Random.State.int st n) ~fuel:20 r with
      | None -> true (* sampling may fail on branches leading to Empty *)
      | Some w -> A.Dfa.accepts (A.Dfa.of_regex r) w)

let prop_shortest_word_accepted =
  QCheck.Test.make ~count:300 ~name:"shortest word is accepted when one exists"
    gen_regex
    (fun r ->
      let d = A.Dfa.of_regex r in
      match A.Dfa.shortest_word d with
      | None -> A.Dfa.is_empty d
      | Some w -> A.Dfa.accepts d w)

let prop_parser_print_roundtrip =
  QCheck.Test.make ~count:300 ~name:"printing then parsing preserves the language"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      let printed = R.to_string Fmt.string r in
      match P.parse_result printed with
      | Error e -> QCheck.Test.fail_reportf "reparse of %S failed: %s" printed e
      | Ok r' ->
        A.Dfa.accepts (A.Dfa.of_regex r) w = A.Dfa.accepts (A.Dfa.of_regex r') w)

(* ------------------------------------------------------------------ *)
(* Dense kernel parity: the flat int-array tables behind Auto.Dfa.Dense
   must agree with the functional-map DFA on every verdict.            *)
(* ------------------------------------------------------------------ *)

module Interner = Axml_regex.Interner

(* one interner per run: dense codings only need injectivity *)
let test_interner = Interner.create ()
let sym_id s = Interner.intern test_interner s
let dense_of r = A.Dfa.Dense.compile ~sym_id (A.Dfa.of_regex r)

let prop_dense_membership_parity =
  QCheck.Test.make ~count:500 ~name:"dense tables agree with the map DFA"
    QCheck.(pair gen_regex gen_word)
    (fun (r, w) ->
      A.Dfa.accepts (A.Dfa.of_regex r) w
      = A.Dfa.Dense.accepts ~sym_id (dense_of r) w)

let prop_dense_subset_parity =
  QCheck.Test.make ~count:300
    ~name:"subset, separating_word and dense membership cohere"
    QCheck.(pair gen_regex gen_regex)
    (fun (r1, r2) ->
      let d1 = A.Dfa.of_regex r1 and d2 = A.Dfa.of_regex r2 in
      match A.Dfa.separating_word d1 d2 with
      | None -> A.Dfa.subset d1 d2
      | Some w ->
        (not (A.Dfa.subset d1 d2))
        && A.Dfa.Dense.accepts ~sym_id (dense_of r1) w
        && not (A.Dfa.Dense.accepts ~sym_id (dense_of r2) w))

let prop_dense_batch_identical =
  QCheck.Test.make ~count:100
    ~name:"dense verdicts are identical across a word batch"
    QCheck.(pair gen_regex (list_of_size Gen.(int_bound 20) gen_word))
    (fun (r, words) ->
      let d = A.Dfa.of_regex r in
      let dense = dense_of r in
      List.for_all
        (fun w -> A.Dfa.accepts d w = A.Dfa.Dense.accepts ~sym_id dense w)
        words)

(* The interner must hand out consistent ids under concurrent access
   from several domains: same string -> same id everywhere, and
   [to_string] stays the exact inverse. *)
let test_interner_concurrent () =
  let itn = Interner.create () in
  let domains = 4 and per_domain = 250 in
  let shared = List.init 100 (fun i -> Fmt.str "shared-%d" i) in
  let results =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            (* interleave shared vocabulary with domain-private strings
               so insert races and pure lookups both happen *)
            let mine = List.init per_domain (fun i -> Fmt.str "d%d-%d" d i) in
            let all = List.concat [ shared; mine; shared ] in
            (* lock-free lookups while the other domains insert: the id
               [intern] gave, and another domain's names as far as they
               are in yet *)
            let theirs = List.init per_domain (fun i -> Fmt.str "d%d-%d" ((d + 1) mod domains) i) in
            let ids = List.map (fun s -> (s, Interner.intern itn s)) all in
            let found = List.map (fun (s, _) -> (s, Interner.find itn s)) ids in
            let seen = List.map (fun s -> (s, Interner.find itn s)) theirs in
            (ids, found, seen)))
    |> List.map Domain.join
  in
  List.iter
    (fun (ids, found, seen) ->
      List.iter2 (fun (s, id) (_, f) -> check_int ("find " ^ s) id f) ids found;
      List.iter
        (fun (s, f) -> if f <> -1 && f <> Interner.find itn s then Alcotest.failf "find %s read %d" s f)
        seen)
    results;
  let results = List.map (fun (ids, _, _) -> ids) results in
  (* round-trip: every id maps back to its string *)
  List.iter
    (List.iter (fun (s, id) ->
         Alcotest.(check string) "to_string inverse" s
           (Interner.to_string itn id)))
    results;
  (* agreement: the shared vocabulary got one id per string, across all
     domains *)
  List.iter
    (fun s ->
      let ids =
        List.concat_map
          (List.filter_map (fun (s', id) -> if s = s' then Some id else None))
          results
        |> List.sort_uniq compare
      in
      check_int ("one id for " ^ s) 1 (List.length ids))
    shared;
  check_int "size counts distinct strings"
    (100 + (domains * per_domain))
    (Interner.size itn);
  (* find never invents entries *)
  check_int "absent string" (-1) (Interner.find itn "never-interned")

(* [find] is [intern] without the insert: the same id for every
   interned string, -1 for anything else however close, hash
   collisions included. *)
let test_interner_find () =
  let itn = Interner.create () in
  let kib = String.make 1024 'k' in
  let names =
    [ "title"; "date"; "newspaper"; "Get_Temp"; "TimeOut"; "a"; "Aa"; kib ]
    @ List.init 200 (Fmt.str "label-%d")
  in
  let ids = List.map (Interner.intern itn) names in
  List.iter2 (fun s id -> check_int ("find " ^ s) id (Interner.find itn s)) names ids;
  check_int "\"Aa\" and \"BB\" collide" (Interner.hash "Aa") (Interner.hash "BB");
  List.iter
    (fun s -> check_int ("near miss " ^ s) (-1) (Interner.find itn s))
    [ ""; "titl"; "t"; "newspape"; "titlf"; "Title"; "get_Temp"; "label-2000"; "BB";
      String.make 1024 'x'; String.sub kib 0 1023; kib ^ "k"; "title" ^ String.make 1019 'x' ];
  (* both names of a collision interned: one probe sequence, two ids *)
  let bb = Interner.intern itn "BB" in
  check_int "find BB" bb (Interner.find itn "BB");
  check_int "find Aa" (Interner.intern itn "Aa") (Interner.find itn "Aa");
  check "distinct ids" true (bb <> Interner.find itn "Aa")

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_interner_find_alloc () =
  let itn = Interner.create () in
  List.iter (fun s -> ignore (Interner.intern itn s)) [ "title"; "date"; "Aa"; "Get_Temp" ];
  let probes = [| "title"; "date"; "BB"; "Get_Temp"; ""; "tit"; String.make 1024 'x' |] in
  let words =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity (Interner.find itn probes.(i mod Array.length probes)))
        done)
  in
  Alcotest.(check (float 0.)) "words allocated by 10,000 finds" 0. words

(* [find_sub] reads a slice in place: names whose hashes share the low
   bits a 16-slot table masks probe one run of slots, a slice in the
   middle of a longer string finds its name, and neither a shorter nor a
   longer slice matches it. The lookups, [Sym_id]'s included, allocate
   nothing. *)
let test_interner_find_sub () =
  let itn = Interner.create () in
  let bucket s = Interner.hash s land 15 in
  let candidates = List.init 4000 (Printf.sprintf "n%d") in
  let colliding = List.filter (fun s -> bucket s = bucket "n0") candidates in
  let interned = List.filteri (fun i _ -> i < 5) colliding in
  List.iter (fun s -> ignore (Interner.intern itn s)) interned;
  ignore (Interner.intern itn "title");
  List.iter
    (fun s ->
      let host = "<<" ^ s ^ ">>" in
      Alcotest.(check int) s (Interner.find itn s)
        (Interner.find_sub itn host 2 (String.length s)))
    interned;
  let absent = List.nth colliding 5 in
  Alcotest.(check int) "a colliding name never interned" (-1)
    (Interner.find_sub itn ("." ^ absent ^ ".") 1 (String.length absent));
  Alcotest.(check int) "title" (Interner.find itn "title") (Interner.find_sub itn "xtitlex" 1 5);
  Alcotest.(check int) "a shorter slice" (-1) (Interner.find_sub itn "xtitlex" 1 4);
  Alcotest.(check int) "a longer slice" (-1) (Interner.find_sub itn "xtitlex" 1 6);
  Alcotest.(check int) "the empty slice" (-1) (Interner.find_sub itn "title" 2 0);
  let module Sym_id = Axml_schema.Sym_id in
  let label = Sym_id.of_label "kernel_slice_label" and fn = Sym_id.of_fun "Kernel_slice_fun" in
  let host = "<kernel_slice_label methodName=\"Kernel_slice_fun\">" in
  Alcotest.(check int) "label slice" label (Sym_id.find_label_sub host 1 18);
  Alcotest.(check int) "function slice" fn (Sym_id.find_fun_sub host 32 16);
  Alcotest.(check int) "a label's prefix" (-1) (Sym_id.find_label_sub host 1 17);
  Alcotest.(check string) "the interned name" "kernel_slice_label" (Sym_id.name label);
  let first = List.hd interned in
  let words =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity (Interner.find_sub itn "<<n0>>" 2 (i land 3)));
          ignore (Sys.opaque_identity (Interner.find_sub itn first 0 (String.length first)));
          ignore (Sys.opaque_identity (Interner.find_sub itn "xtitlex" 1 5));
          ignore (Sys.opaque_identity (Sym_id.find_label_sub host 1 18));
          ignore (Sys.opaque_identity (Sym_id.find_fun_sub host 32 (16 - (i land 1))))
        done)
  in
  Alcotest.(check (float 0.)) "words allocated by 50,000 slice lookups" 0. words

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_thompson_glushkov_agree;
      prop_dfa_agrees_with_nfa;
      prop_complement_sound;
      prop_product_is_intersection;
      prop_minimize_preserves;
      prop_minimize_not_larger;
      prop_nullable_agrees;
      prop_sample_word_in_language;
      prop_shortest_word_accepted;
      prop_parser_print_roundtrip;
      prop_dense_membership_parity;
      prop_dense_subset_parity;
      prop_dense_batch_identical
    ]

let () =
  Alcotest.run "regex"
    [ ("parser",
       [ Alcotest.test_case "simple" `Quick test_parse_simple;
         Alcotest.test_case "postfix chain" `Quick test_parse_postfix_chain;
         Alcotest.test_case "epsilon" `Quick test_parse_epsilon;
         Alcotest.test_case "newspaper schema" `Quick test_parse_newspaper;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "repeat bounds" `Quick test_repeat
       ]);
      ("constructions",
       [ Alcotest.test_case "thompson" `Quick test_thompson_basic;
         Alcotest.test_case "glushkov" `Quick test_glushkov_basic;
         Alcotest.test_case "glushkov eps-free" `Quick test_glushkov_no_eps;
         Alcotest.test_case "1-unambiguity" `Quick test_determinism_check
       ]);
      ("dfa",
       [ Alcotest.test_case "complement" `Quick test_complement;
         Alcotest.test_case "products" `Quick test_product_ops;
         Alcotest.test_case "emptiness + witness" `Quick test_emptiness_witness;
         Alcotest.test_case "minimize" `Quick test_minimize;
         Alcotest.test_case "language equality" `Quick test_equal_language;
         Alcotest.test_case "nfa shortest word" `Quick test_nfa_shortest
       ]);
      ("kernel",
       [ Alcotest.test_case "interner under 4 domains" `Quick
           test_interner_concurrent;
         Alcotest.test_case "interner find agrees with intern" `Quick test_interner_find;
         Alcotest.test_case "interner find allocates nothing" `Quick test_interner_find_alloc;
         Alcotest.test_case "slice lookups allocate nothing" `Quick test_interner_find_sub
       ]);
      ("properties", qcheck_tests)
    ]
