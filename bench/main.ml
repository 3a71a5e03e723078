(* The benchmark harness: one experiment per figure / complexity claim of
   the paper (see DESIGN.md section 3 and EXPERIMENTS.md for the index).
   The paper has no numeric evaluation tables; its experimental artifacts
   are the worked automata examples (Figures 2, 4-8, 10-12) and the
   complexity statements of Sections 4-5 — each gets an experiment here
   that regenerates the artifact and/or measures the claimed shape.

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- e7 e10  (a selection)       *)

open Bechamel
open Toolkit

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
module Generate = Axml_core.Generate
module Fork_automaton = Axml_oracle.Fork_automaton
module Schema_rewrite = Axml_core.Schema_rewrite
module Service = Axml_services.Service
module Registry = Axml_services.Registry
module Oracle = Axml_services.Oracle
module Enforcement = Axml_peer.Enforcement
module Peer = Axml_peer.Peer
module Policy = Axml_peer.Policy

(* ------------------------------------------------------------------ *)
(* Measurement helper                                                  *)
(* ------------------------------------------------------------------ *)

let measure_ns ?(quota = 0.25) name (f : unit -> 'a) : float =
  let test =
    Test.make ~name (Staged.stage (fun () -> ignore (Sys.opaque_identity (f ()))))
  in
  let elt = List.hd (Test.elements test) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) () in
  let b = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let est = Analyze.one ols Instance.monotonic_clock b in
  match Analyze.OLS.estimates est with
  | Some (v :: _) -> v
  | Some [] | None -> Float.nan

let pp_ns ppf ns =
  if Float.is_nan ns then Fmt.string ppf "n/a"
  else if ns < 1e3 then Fmt.pf ppf "%.0f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%.2f s" (ns /. 1e9)

let section id title =
  Fmt.pr "@.==========================================================@.";
  Fmt.pr "%s  %s@." (String.uppercase_ascii id) title;
  Fmt.pr "==========================================================@."

let expectation fmt = Fmt.pr ("paper expectation: " ^^ fmt ^^ "@.")

module Json = Axml_obs.Json

let write_json file json =
  Json.to_file file json;
  Fmt.pr "machine-readable results written to %s@." file

(* The BENCH_<ID>.json artifact of experiment [id]: its fields, tagged
   with the experiment. *)
let write_artifact id fields =
  write_json
    (Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii id))
    (Json.Obj (("experiment", Json.String id) :: fields))

let int n = Json.Int n
let num x = Json.Float x

(* ------------------------------------------------------------------ *)
(* Shared fixtures: the paper's running example                        *)
(* ------------------------------------------------------------------ *)

let parse_schema text =
  match Schema_parser.parse_result text with
  | Ok s -> s
  | Error e -> Fmt.failwith "schema error: %s" e

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

let schema_star =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
|} ^ common)

let schema_star2 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.(TimeOut | exhibit*)
|} ^ common)

let schema_star3 =
  parse_schema
    ({|
root newspaper
element newspaper = title.date.temp.exhibit*
|} ^ common)

let fig2a =
  D.elem "newspaper"
    [ D.elem "title" [ D.data "The Sun" ];
      D.elem "date" [ D.data "04/10/2002" ];
      D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ];
      D.call "TimeOut" [ D.data "exhibits" ] ]

let newspaper_word = D.word (D.children fig2a)

let example_services () =
  [ Service.make "Get_Temp" ~cost:0.1 ~input:(R.sym (Schema.A_label "city"))
      ~output:(R.sym (Schema.A_label "temp"))
      (Oracle.constant [ D.elem "temp" [ D.data "15 C" ] ]);
    Service.make "TimeOut" ~cost:1.0 ~input:(R.sym Schema.A_data)
      ~output:
        (R.star
           (R.alt (R.sym (Schema.A_label "exhibit"))
              (R.sym (Schema.A_label "performance"))))
      (Oracle.constant
         [ D.elem "exhibit"
             [ D.elem "title" [ D.data "Monet" ]; D.elem "date" [ D.data "now" ] ] ]);
    Service.make "Get_Date" ~input:(R.sym (Schema.A_label "title"))
      ~output:(R.sym (Schema.A_label "date"))
      (Oracle.constant [ D.elem "date" [ D.data "today" ] ])
  ]

let example_registry () =
  let reg = Registry.create () in
  Registry.register_all reg (example_services ());
  reg

let rewriter target = Rewriter.create ~s0:schema_star ~target ()
let contract target = Contract.create ~s0:schema_star ~target ()
let newspaper_regex c = Option.get (Contract.element_regex c "newspaper")

(* The Figure 3/9/12 reference engines on a fresh product per call. A
   contract answers the same questions from its win tables
   ([Contract.is_safe]), which after the first call are lookups. *)
let fresh_eager c ~target_regex word =
  Marking.analyze_eager (Reference.product c ~target_regex word)

let fresh_lazy c ~target_regex word =
  Marking.analyze_lazy (Reference.product c ~target_regex word)

let fresh_possible c ~target_regex word =
  Possible.analyze (Reference.product c ~target_regex word)

(* ------------------------------------------------------------------ *)
(* E1 (Figure 2): the document before / after the Get_Temp call        *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "e1" "Figure 2: a document before and after materializing Get_Temp";
  expectation "the Get_Temp node is replaced by a <temp> element; TimeOut stays";
  let reg = example_registry () in
  let rw = rewriter schema_star2 in
  match Rewriter.materialize rw ~invoker:(Registry.invoker reg) fig2a with
  | Error _ -> Fmt.pr "UNEXPECTED: materialization failed@."
  | Ok (doc, invs) ->
    Fmt.pr "before: %a@." D.pp fig2a;
    Fmt.pr "after : %a@." D.pp doc;
    Fmt.pr "invoked: %a@."
      Fmt.(list ~sep:comma string)
      (List.map (fun li -> li.Rewriter.invocation.Execute.inv_name) invs);
    let t =
      measure_ns "e1" (fun () ->
          Rewriter.materialize rw ~invoker:(Registry.invoker reg) fig2a)
    in
    Fmt.pr "end-to-end materialization latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E2 (Figure 4): the A_w^1 fork automaton                             *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "e2" "Figure 4: the A_w^1 automaton for title.date.Get_Temp.TimeOut";
  expectation
    "two fork nodes (q2 for Get_Temp, q3 for TimeOut); copies of the output \
     automata spliced around the function edges";
  let rw = rewriter schema_star2 in
  let outputs = Fork_automaton.outputs (Rewriter.env rw) in
  let fork = Fork_automaton.build ~outputs ~k:1 newspaper_word in
  let s = Fork_automaton.stats fork in
  Fmt.pr "measured: %d states, %d edges, %d forks@." s.Fork_automaton.states
    s.Fork_automaton.edges s.Fork_automaton.forks;
  Array.iter
    (fun (f : Fork_automaton.fork) ->
      Fmt.pr "  fork at state %d for %s (round %d)@." f.Fork_automaton.fork_node
        f.Fork_automaton.fname f.Fork_automaton.round)
    fork.Fork_automaton.forks;
  let t =
    measure_ns "e2" (fun () ->
        Fork_automaton.build ~outputs ~k:1 newspaper_word)
  in
  Fmt.pr "construction latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E3 (Figures 5-6): safe rewriting into schema (**)                   *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "e3" "Figures 5-6: safe rewriting of the newspaper word into (**)";
  expectation "SAFE; the extracted sequence invokes Get_Temp and keeps TimeOut";
  let c = contract schema_star2 in
  let regex = newspaper_regex c in
  let analysis = fresh_lazy c ~target_regex:regex newspaper_word in
  Fmt.pr "verdict: %s@." (if analysis.Marking.safe then "SAFE" else "UNSAFE");
  Fmt.pr "product: %d nodes discovered, %d marked@."
    analysis.Marking.stats.Marking.discovered_nodes
    analysis.Marking.stats.Marking.marked_nodes;
  let reg = example_registry () in
  (match
     Reference.follow_safe analysis (Registry.invoker reg)
       (D.children fig2a)
   with
   | Ok outcome ->
     Fmt.pr "rewriting sequence: %a@."
       Fmt.(list ~sep:comma string)
       (List.map (fun i -> i.Execute.inv_name) outcome.Execute.invocations)
   | Error e -> Fmt.pr "UNEXPECTED: execution failed: %a@." Execute.pp_failure e);
  let t =
    measure_ns "e3" (fun () -> fresh_lazy c ~target_regex:regex newspaper_word)
  in
  Fmt.pr "safe-analysis latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E4 (Figures 7-8): no safe rewriting into schema (***)               *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "e4" "Figures 7-8: safe rewriting into (***) fails";
  expectation
    "UNSAFE: both fork options of the TimeOut fork are marked (a performance \
     may come back)";
  let c = contract schema_star3 in
  let regex = newspaper_regex c in
  let analysis = fresh_lazy c ~target_regex:regex newspaper_word in
  Fmt.pr "verdict: %s@." (if analysis.Marking.safe then "SAFE" else "UNSAFE");
  Fmt.pr "product: %d nodes discovered, %d marked, %d pruned@."
    analysis.Marking.stats.Marking.discovered_nodes
    analysis.Marking.stats.Marking.marked_nodes
    analysis.Marking.stats.Marking.pruned;
  let t =
    measure_ns "e4" (fun () -> fresh_lazy c ~target_regex:regex newspaper_word)
  in
  Fmt.pr "safe-analysis latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E5 (Figures 10-11): possible rewriting into (***)                   *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "e5" "Figures 10-11: possible rewriting into (***)";
  expectation
    "POSSIBLE; succeeds when TimeOut actually returns exhibits, fails (with \
     backtracking) when it returns a performance";
  let c = contract schema_star3 in
  let regex = newspaper_regex c in
  let analysis = fresh_possible c ~target_regex:regex newspaper_word in
  Fmt.pr "verdict: %s@."
    (if analysis.Possible.possible then "POSSIBLE" else "IMPOSSIBLE");
  Fmt.pr "product: %d nodes, %d live@."
    analysis.Possible.stats.Possible.discovered_nodes
    analysis.Possible.stats.Possible.live_nodes;
  let attempt behaviour =
    let reg = Registry.create () in
    Registry.register_all reg (example_services ());
    Registry.register reg
      (Service.make "TimeOut" ~input:(R.sym Schema.A_data)
         ~output:
           (R.star
              (R.alt (R.sym (Schema.A_label "exhibit"))
                 (R.sym (Schema.A_label "performance"))))
         behaviour);
    let analysis = fresh_possible c ~target_regex:regex newspaper_word in
    Reference.follow_possible analysis (Registry.invoker reg)
      (D.children fig2a)
  in
  let exhibits =
    Oracle.constant
      [ D.elem "exhibit"
          [ D.elem "title" [ D.data "Monet" ]; D.elem "date" [ D.data "now" ] ] ]
  in
  let performances =
    Oracle.constant
      [ D.elem "performance"
          [ D.elem "title" [ D.data "Hamlet" ]; D.elem "date" [ D.data "8pm" ] ] ]
  in
  Fmt.pr "with exhibit-only TimeOut    : %s@."
    (match attempt exhibits with Ok _ -> "succeeded" | Error _ -> "failed");
  Fmt.pr "with performance-only TimeOut: %s@."
    (match attempt performances with
     | Ok _ -> "succeeded"
     | Error _ -> "failed (as expected)");
  let t =
    measure_ns "e5" (fun () -> fresh_possible c ~target_regex:regex newspaper_word)
  in
  Fmt.pr "possible-analysis latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E6 (Section 4): polynomial scaling in deterministic schema size     *)
(* ------------------------------------------------------------------ *)

(* A deterministic newspaper-like schema family with [n] leading
   mandatory elements, and a word of matching length ending in the two
   function calls. *)
let sized_schema n =
  let labels = List.init n (fun i -> Fmt.str "s%d" i) in
  let decls =
    String.concat "\n"
      (List.map (fun l -> Fmt.str "element %s = #data" l) labels)
  in
  let chain = String.concat "." labels in
  parse_schema
    (Fmt.str
       {|
root newspaper
element newspaper = %s.(Get_Temp | temp).(TimeOut | exhibit*)
%s
|}
       chain decls
    ^ common)

let sized_word n =
  List.init n (fun i -> Symbol.Label (Fmt.str "s%d" i))
  @ [ Symbol.Fun "Get_Temp"; Symbol.Fun "TimeOut" ]

let e6 () =
  section "e6"
    "Section 4 complexity: safe rewriting is polynomial for deterministic \
     (1-unambiguous) schemas";
  expectation
    "latency grows polynomially (roughly linearly here) with the schema and \
     word size";
  Fmt.pr "%6s %14s %14s %10s@." "n" "lazy" "eager" "product";
  List.iter
    (fun n ->
      let target = sized_schema n in
      let c = Contract.create ~k:1 ~s0:target ~target () in
      let regex = newspaper_regex c in
      let word = sized_word n in
      let a = fresh_eager c ~target_regex:regex word in
      let t_lazy =
        measure_ns (Fmt.str "e6-lazy-%d" n) (fun () ->
            fresh_lazy c ~target_regex:regex word)
      in
      let t_eager =
        measure_ns (Fmt.str "e6-eager-%d" n) (fun () ->
            fresh_eager c ~target_regex:regex word)
      in
      Fmt.pr "%6d %a %a %10d@." n pp_ns t_lazy pp_ns t_eager
        a.Marking.stats.Marking.discovered_nodes)
    [ 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E7 (Section 4): exponential complement blow-up for nondeterministic *)
(* regular expressions                                                 *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "e7"
    "Section 4 complexity: complementation blows up only for \
     nondeterministic content models";
  expectation
    "complement DFA size stays linear for the deterministic family and grows \
     as 2^n for the nondeterministic family (a|b)*.a.(a|b)^n";
  let a = R.sym (Symbol.Label "a") and b = R.sym (Symbol.Label "b") in
  let alphabet = Auto.Sym_set.of_list [ Symbol.Label "a"; Symbol.Label "b" ] in
  let det_family n = R.seq (R.seq_list (List.init n (fun _ -> a))) b in
  let nondet_family n =
    R.seq
      (R.seq (R.star (R.alt a b)) a)
      (R.seq_list (List.init n (fun _ -> R.alt a b)))
  in
  Fmt.pr "%4s %16s %18s %14s %14s@." "n" "det complement" "nondet complement"
    "det time" "nondet time";
  List.iter
    (fun n ->
      let size family =
        let dfa = Auto.Dfa.of_regex (family n) in
        (Auto.Dfa.complement ~alphabet dfa).Auto.Dfa.size
      in
      let t family name =
        measure_ns name (fun () ->
            Auto.Dfa.complement ~alphabet (Auto.Dfa.of_regex (family n)))
      in
      Fmt.pr "%4d %16d %18d %a %a@." n (size det_family) (size nondet_family)
        pp_ns
        (t det_family (Fmt.str "e7-det-%d" n))
        pp_ns
        (t nondet_family (Fmt.str "e7-nondet-%d" n)))
    [ 2; 4; 6; 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* E8 (Section 4): |A_w^k| = O((|s0| + |w|)^k)                         *)
(* ------------------------------------------------------------------ *)

let deep_schema =
  parse_schema
    {|
root listing
element listing = exhibit*
element exhibit = #data
function F : () -> exhibit*.F?.exhibit*
|}

let e8 () =
  section "e8" "Section 4: the size of A_w^k versus k and |w|";
  expectation
    "states grow geometrically with k (each round re-expands the F inside \
     F's own output) and linearly with |w|";
  let outputs =
    Fork_automaton.outputs
      (Rewriter.env (Rewriter.create ~k:1 ~s0:deep_schema ~target:deep_schema ()))
  in
  Fmt.pr "-- growing k (|w| = 1):@.";
  Fmt.pr "%4s %10s %10s %10s %14s@." "k" "states" "edges" "forks" "build time";
  List.iter
    (fun k ->
      let fork = Fork_automaton.build ~outputs ~k [ Symbol.Fun "F" ] in
      let s = Fork_automaton.stats fork in
      let t =
        measure_ns (Fmt.str "e8-k%d" k) (fun () ->
            Fork_automaton.build ~outputs ~k [ Symbol.Fun "F" ])
      in
      Fmt.pr "%4d %10d %10d %10d %a@." k s.Fork_automaton.states
        s.Fork_automaton.edges s.Fork_automaton.forks pp_ns t)
    [ 1; 2; 3; 4; 5; 6 ];
  Fmt.pr "-- growing |w| (k = 2):@.";
  Fmt.pr "%4s %10s %10s %10s %14s@." "|w|" "states" "edges" "forks" "build time";
  List.iter
    (fun n ->
      let word = List.init n (fun _ -> Symbol.Fun "F") in
      let fork = Fork_automaton.build ~outputs ~k:2 word in
      let s = Fork_automaton.stats fork in
      let t =
        measure_ns (Fmt.str "e8-w%d" n) (fun () ->
            Fork_automaton.build ~outputs ~k:2 word)
      in
      Fmt.pr "%4d %10d %10d %10d %a@." n s.Fork_automaton.states
        s.Fork_automaton.edges s.Fork_automaton.forks pp_ns t)
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E9 (Section 4): generated word length <= |w| * x^k                  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "e9" "Section 4: materialized size versus answer size x and depth k";
  expectation "the materialized word length stays under |w| * x^k";
  let fanout_schema =
    parse_schema
      {|
root listing
element listing = exhibit*
element exhibit = #data
function G : () -> exhibit*.G?
|}
  in
  Fmt.pr "%4s %4s %12s %14s %14s@." "x" "k" "length" "bound |w|*x^k" "time";
  List.iter
    (fun (x, k) ->
      let depth = ref 0 in
      let service =
        Service.make "G" ~input:R.epsilon
          ~output:
            (R.seq
               (R.star (R.sym (Schema.A_label "exhibit")))
               (R.opt (R.sym (Schema.A_fun "G"))))
          (fun _ ->
            incr depth;
            let items =
              List.init x (fun i ->
                  D.elem "exhibit" [ D.data (Fmt.str "d%d-%d" !depth i) ])
            in
            if !depth < k then items @ [ D.call "G" [] ] else items)
      in
      let reg = Registry.create () in
      Registry.register reg service;
      let target = Policy.extensional fanout_schema in
      let doc = D.elem "listing" [ D.call "G" [] ] in
      let config =
        { Enforcement.default_config with Enforcement.k; fallback_possible = true }
      in
      let run () =
        depth := 0;
        Registry.reset_accounting reg;
        Enforcement.enforce ~config ~s0:fanout_schema ~exchange:target
          ~invoker:(Registry.invoker reg) doc
      in
      match run () with
      | Ok (materialized, _) ->
        let len = List.length (D.children materialized) in
        let bound = int_of_float (float_of_int x ** float_of_int k) in
        let t = measure_ns (Fmt.str "e9-%d-%d" x k) run in
        Fmt.pr "%4d %4d %12d %14d %a@." x k len bound pp_ns t
      | Error _ -> Fmt.pr "%4d %4d %12s@." x k "FAILED")
    [ (2, 1); (2, 2); (2, 4); (4, 2); (4, 3); (8, 2) ]

(* ------------------------------------------------------------------ *)
(* E10 (Figure 12 / Section 7): lazy versus eager engine               *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "e10" "Figure 12: the lazy (pruned) engine versus the eager one";
  expectation
    "identical verdicts; the lazy engine explores fewer product nodes (sink \
     pruning + marked-node pruning) and is faster, most visibly on unsafe \
     inputs";
  Fmt.pr "%28s %8s %10s %10s %12s %12s@." "case" "verdict" "eager-exp"
    "lazy-exp" "eager-time" "lazy-time";
  let cases =
    [ ("newspaper -> (*)", schema_star, newspaper_word);
      ("newspaper -> (**)", schema_star2, newspaper_word);
      ("newspaper -> (***)", schema_star3, newspaper_word);
      ( "long word -> (**)",
        schema_star2,
        newspaper_word
        @ List.concat (List.init 8 (fun _ -> [ Symbol.Label "exhibit" ])) )
    ]
  in
  List.iter
    (fun (name, target, word) ->
      let c = contract target in
      let regex = newspaper_regex c in
      let a_eager = fresh_eager c ~target_regex:regex word in
      let a_lazy = fresh_lazy c ~target_regex:regex word in
      assert (a_eager.Marking.safe = a_lazy.Marking.safe);
      let t_eager =
        measure_ns (name ^ "-eager") (fun () -> fresh_eager c ~target_regex:regex word)
      in
      let t_lazy =
        measure_ns (name ^ "-lazy") (fun () -> fresh_lazy c ~target_regex:regex word)
      in
      Fmt.pr "%28s %8s %10d %10d %a %a@." name
        (if a_eager.Marking.safe then "SAFE" else "UNSAFE")
        a_eager.Marking.stats.Marking.explored_nodes
        a_lazy.Marking.stats.Marking.explored_nodes pp_ns t_eager pp_ns t_lazy)
    cases

(* ------------------------------------------------------------------ *)
(* E11 (Section 5): possible rewriting is cheaper than safe            *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "e11" "Section 5: possible versus safe rewriting cost";
  expectation
    "possible rewriting works on the product with A itself (no \
     complementation, no game): the analysis is cheaper than the safe one";
  Fmt.pr "%6s %14s %14s %14s@." "n" "safe-eager" "safe-lazy" "possible";
  List.iter
    (fun n ->
      let target = sized_schema n in
      let c = Contract.create ~k:1 ~s0:target ~target () in
      let regex = newspaper_regex c in
      let word = sized_word n in
      let t_eager =
        measure_ns (Fmt.str "e11-eager-%d" n) (fun () ->
            fresh_eager c ~target_regex:regex word)
      in
      let t_lazy =
        measure_ns (Fmt.str "e11-lazy-%d" n) (fun () ->
            fresh_lazy c ~target_regex:regex word)
      in
      let t_poss =
        measure_ns (Fmt.str "e11-poss-%d" n) (fun () ->
            fresh_possible c ~target_regex:regex word)
      in
      Fmt.pr "%6d %a %a %a@." n pp_ns t_eager pp_ns t_lazy pp_ns t_poss)
    [ 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* E12 (Section 5): the mixed approach                                 *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "e12" "Section 5: the mixed approach (invoke cheap calls first)";
  expectation
    "invoking the side-effect-free TimeOut up-front replaces its signature \
     automaton by the concrete answer: the unsafe newspaper -> (***) case \
     becomes safe, and A_w^k shrinks";
  let rw = rewriter schema_star3 in
  let reg = example_registry () in
  Fmt.pr "plain safe check: %s@."
    (if (Rewriter.check rw fig2a).ok then "SAFE" else "UNSAFE");
  let mixed =
    Rewriter.check
      ~mode:(Rewriter.Check_mixed
               { eager_calls = String.equal "TimeOut";
                 invoker = Registry.invoker reg })
      rw fig2a
  in
  Fmt.pr "mixed check (TimeOut eager): %s@."
    (if mixed.ok then "SAFE" else "UNSAFE");
  let doc' =
    match
      Rewriter.pre_materialize rw ~eager_calls:(String.equal "TimeOut")
        ~invoker:(Registry.invoker reg) fig2a
    with
    | Ok (doc', _) -> doc'
    | Error f -> Fmt.failwith "pre-materialization failed: %a" Rewriter.pp_failure f
  in
  let outputs = Fork_automaton.outputs (Rewriter.env rw) in
  let before =
    Fork_automaton.stats (Fork_automaton.build ~outputs ~k:1 newspaper_word)
  in
  let after =
    Fork_automaton.stats
      (Fork_automaton.build ~outputs ~k:1 (D.word (D.children doc')))
  in
  Fmt.pr
    "A_w^1 before: %d states / %d edges; after pre-materialization: %d / %d@."
    before.Fork_automaton.states before.Fork_automaton.edges
    after.Fork_automaton.states after.Fork_automaton.edges;
  let t =
    measure_ns "e12" (fun () ->
        let invoker = Registry.invoker reg in
        Result.map
          (fun (doc, _) -> Rewriter.materialize rw ~invoker doc)
          (Rewriter.pre_materialize rw ~eager_calls:(String.equal "TimeOut")
             ~invoker fig2a))
  in
  Fmt.pr "mixed materialization latency: %a@." pp_ns t

(* ------------------------------------------------------------------ *)
(* E13 (Section 6): schema-to-schema compatibility                     *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "e13" "Section 6: schema-level safe rewriting";
  expectation
    "(*) rewrites safely into (**) but not into (***); the check costs one \
     representative-document test per reachable label";
  let pairs =
    [ ("(*) -> (**)", schema_star, schema_star2);
      ("(*) -> (***)", schema_star, schema_star3);
      ("(**) -> (*)", schema_star2, schema_star);
      ("(***) -> (*)", schema_star3, schema_star)
    ]
  in
  List.iter
    (fun (name, s0, target) ->
      let compat () =
        Schema_rewrite.check ~root:"newspaper" (Contract.create ~s0 ~target ())
      in
      let result = compat () in
      let t = measure_ns name compat in
      Fmt.pr "%16s: %-12s (%d labels checked, %a)@." name
        (if result.Schema_rewrite.compatible then "COMPATIBLE" else "INCOMPATIBLE")
        (List.length result.Schema_rewrite.verdicts)
        pp_ns t)
    pairs;
  Fmt.pr "-- scaling with schema size:@.";
  Fmt.pr "%6s %10s %14s@." "n" "labels" "time";
  List.iter
    (fun n ->
      let s = sized_schema n in
      let compat () =
        Schema_rewrite.check ~root:"newspaper" (Contract.create ~s0:s ~target:s ())
      in
      let result = compat () in
      let t = measure_ns (Fmt.str "e13-%d" n) compat in
      Fmt.pr "%6d %10d %a@." n
        (List.length result.Schema_rewrite.verdicts)
        pp_ns t)
    [ 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E14 (Section 7): enforcement-module throughput between peers        *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "e14" "Section 7: Schema Enforcement module throughput";
  expectation
    "per-document cost is dominated by rewriting only when calls must be \
     fired; validation-only exchanges are cheapest";
  let g = Generate.create ~seed:42 schema_star in
  let docs = Array.init 32 (fun _ -> Generate.document g) in
  let idx = ref 0 in
  let next_doc () =
    let d = docs.(!idx mod Array.length docs) in
    incr idx;
    d
  in
  let scenario name exchange config =
    let sender = Peer.create ~name:"bench-sender" ~schema:schema_star () in
    Peer.configure sender config;
    Registry.register_all (Peer.registry sender) (example_services ());
    let receiver = Peer.create ~name:"bench-receiver" ~schema:schema_star () in
    let t =
      measure_ns ~quota:0.4 name (fun () ->
          match
            Peer.send sender ~receiver ~exchange ~as_name:"bench" (next_doc ())
          with
          | Ok _ -> ()
          | Error _ -> ())
    in
    Fmt.pr "%36s %a  (%.0f docs/s)@." name pp_ns t (1e9 /. t)
  in
  scenario "exchange = (*) (validate only)" schema_star Peer.default_config;
  scenario "exchange = (**) (safe rewrite)" schema_star2 Peer.default_config;
  scenario "exchange = extensional (possible)"
    (Policy.extensional schema_star)
    { Peer.default_config with Peer.fallback_possible = true }

(* ------------------------------------------------------------------ *)
(* E15 (Fig. 3 step 23 / Fig. 9 step d): cost-minimal rewriting plans  *)
(* ------------------------------------------------------------------ *)

module Cost = Axml_oracle.Cost

let e15 () =
  section "e15"
    "Figure 3 step 23 / Figure 9 step d: minimizing the invocation cost";
  expectation
    "the extracted rewriting should pick the path with minimal fees; the \
     greedy keep-first order can be arbitrarily worse than the optimal plan";
  (* the paper example: strategy invokes only Get_Temp (fee 0.1) *)
  let fee = function "Get_Temp" -> 0.1 | "TimeOut" -> 1.0 | _ -> 5.0 in
  let c = contract schema_star2 in
  let regex = newspaper_regex c in
  let analysis = fresh_lazy c ~target_regex:regex newspaper_word in
  (match Cost.safe_worst_cost analysis ~cost:fee with
   | Some c -> Fmt.pr "newspaper -> (**): guaranteed worst-case fee %.2f@." c
   | None -> Fmt.pr "UNEXPECTED: unsafe@.");
  let poss = fresh_possible c ~target_regex:regex newspaper_word in
  (match Cost.possible_min_cost poss ~cost:fee with
   | Some c -> Fmt.pr "newspaper -> (**): optimistic minimal fee %.2f@." c
   | None -> Fmt.pr "UNEXPECTED: impossible@.");
  (* a tradeoff case: keeping the cheap F forces the expensive H later *)
  let tradeoff =
    parse_schema {|
root doc
element doc = F.a | temp.H
element temp = #data
element a = #data
function F : () -> temp
function H : () -> a
|}
  in
  let tfee = function "F" -> 1.0 | "H" -> 10.0 | _ -> 0.0 in
  let invoker name _ =
    match name with
    | "F" -> [ D.elem "temp" [ D.data "t" ] ]
    | "H" -> [ D.elem "a" [ D.data "x" ] ]
    | _ -> []
  in
  let items = [ D.call "F" []; D.call "H" [] ] in
  let c = Contract.create ~k:1 ~s0:tradeoff ~target:tradeoff () in
  let regex = Option.get (Contract.element_regex c "doc") in
  let word = D.word items in
  let total outcome =
    List.fold_left (fun acc i -> acc +. tfee i.Execute.inv_name) 0.
      outcome.Execute.invocations
  in
  let analysis = fresh_lazy c ~target_regex:regex word in
  (match Reference.follow_safe analysis invoker items with
   | Ok o -> Fmt.pr "tradeoff case, greedy keep-first execution: fee %.1f@." (total o)
   | Error _ -> Fmt.pr "greedy execution failed@.");
  let poss = fresh_possible c ~target_regex:regex word in
  let plan = Cost.possible_costs poss ~cost:tfee in
  (match Reference.follow_possible ~plan ~fee:tfee poss invoker items with
   | Ok o -> Fmt.pr "tradeoff case, cost-guided execution   : fee %.1f@." (total o)
   | Error _ -> Fmt.pr "guided execution failed@.");
  (* a fresh product per iteration: the plan needs the product's nodes *)
  let t_plan =
    measure_ns "e15-plan" (fun () ->
        Cost.possible_costs (fresh_possible c ~target_regex:regex word)
          ~cost:tfee)
  in
  Fmt.pr "planning overhead (analysis + Dijkstra): %a@." pp_ns t_plan

(* ------------------------------------------------------------------ *)
(* E16 (Section 3): how restrictive is left-to-right?                  *)
(* ------------------------------------------------------------------ *)

module Exhaustive = Axml_oracle.Exhaustive

let e16 () =
  section "e16" "Section 3: the cost of the left-to-right restriction";
  expectation
    "\"one can miss a successful rewriting that is not left-to-right\" — but \
     \"in all the real-life examples ... left-to-right rewritings were not \
     limiting\"; the gap should exist yet be rare on random inputs";
  (* the hand-crafted witness *)
  let witness_schema =
    parse_schema {|
element a = #data
element b = #data
element c = #data
function f : () -> a
function g : () -> (b | c)
|}
  in
  let env = Schema.env_of_schema witness_schema in
  let target =
    R.alt
      (R.seq (R.sym (Symbol.Label "a")) (R.sym (Symbol.Label "b")))
      (R.seq (R.sym (Symbol.Fun "f")) (R.sym (Symbol.Label "c")))
  in
  let word = [ Symbol.Fun "f"; Symbol.Fun "g" ] in
  let outputs = Exhaustive.outputs_of_env env in
  let target_dfa = Auto.Dfa.of_regex target in
  Fmt.pr "witness (w=f.g, target=a.b|f.c): left-to-right %s, arbitrary %s@."
    (if Exhaustive.safe ~outputs ~target_dfa ~k:1 word then "SAFE" else "UNSAFE")
    (if Exhaustive.safe_arbitrary ~outputs ~target_dfa ~k:1 word then "SAFE"
     else "UNSAFE");
  (* random sampling of small star-free setups *)
  let rng = Random.State.make [| 2003 |] in
  let labels = [ Symbol.Label "a"; Symbol.Label "b" ] in
  let funs = [ "f"; "g" ] in
  let random_starfree () =
    let rec gen depth =
      if depth <= 0 || Random.State.int rng 3 = 0 then
        match Random.State.int rng 4 with
        | 0 -> R.sym (Symbol.Label "a")
        | 1 -> R.sym (Symbol.Label "b")
        | 2 -> R.sym (Symbol.Fun "f")
        | _ -> R.sym (Symbol.Fun "g")
      else if Random.State.int rng 2 = 0 then R.seq (gen (depth - 1)) (gen (depth - 1))
      else R.alt (gen (depth - 1)) (gen (depth - 1))
    in
    gen 3
  in
  let trials = 1000 in
  let small lang = List.length lang <= 6 && List.for_all (fun o -> List.length o <= 3) lang in
  let done_ = ref 0 and ltr_safe = ref 0 and arb_safe = ref 0 and gap = ref 0 in
  while !done_ < trials do
    let out_f = Exhaustive.enum_language (random_starfree ()) in
    let out_g = Exhaustive.enum_language (random_starfree ()) in
    if small out_f && small out_g then begin
      incr done_;
      let outputs name =
        if name = "f" then Some out_f
        else if name = "g" then Some out_g
        else None
      in
      let target_dfa = Auto.Dfa.of_regex (random_starfree ()) in
      let wlen = 1 + Random.State.int rng 2 in
      let word =
        List.init wlen (fun _ ->
            if Random.State.int rng 2 = 0 then
              List.nth labels (Random.State.int rng 2)
            else Symbol.Fun (List.nth funs (Random.State.int rng 2)))
      in
      let ltr = Exhaustive.safe ~outputs ~target_dfa ~k:1 word in
      let arb = Exhaustive.safe_arbitrary ~outputs ~target_dfa ~k:1 word in
      if ltr then incr ltr_safe;
      if arb then incr arb_safe;
      if arb && not ltr then incr gap;
      assert (not (ltr && not arb))  (* LTR-safe implies arbitrary-safe *)
    end
  done;
  Fmt.pr
    "random sample (%d small setups, k=1): left-to-right safe %d, arbitrary \
     safe %d, gap %d (%.2f%%)@."
    trials !ltr_safe !arb_safe !gap
    (100. *. float_of_int !gap /. float_of_int trials)

module Pipeline = Enforcement.Pipeline

(* [f x] and the wall-clock seconds it took. *)
let clocked f x =
  let t0 = Unix.gettimeofday () in
  let r = f x in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* E18: fault-tolerant batch enforcement under misbehaving services    *)
(* ------------------------------------------------------------------ *)

module Resilience = Axml_services.Resilience

let fault_s0 = parse_schema {|
root doc
element doc = (F_flaky | F_fail | F_ill | temp)
element temp = #data
function F_flaky : () -> temp
function F_fail : () -> temp
function F_ill : () -> temp
|}

let fault_exchange = parse_schema {|
root doc
element doc = temp
element temp = #data
function F_flaky : () -> temp
function F_fail : () -> temp
function F_ill : () -> temp
|}

let e18 () =
  section "e18" "fault-tolerant batch enforcement under misbehaving services";
  expectation
    "a 1k-document batch against flaky (period 7), failing, and ill-typed \
     services completes without aborting: misbehaviour costs the affected \
     documents only, and the retry/breaker activity surfaces in the batch \
     stats";
  let n = 1000 in
  let temp_reply = [ D.elem "temp" [ D.data "21C" ] ] in
  let flaky = Oracle.flaky ~period:7 (Oracle.constant temp_reply) in
  let invoker name params =
    match name with
    | "F_flaky" -> flaky params
    | "F_fail" -> failwith "service permanently down"
    | "F_ill" -> [ D.elem "bogus" [] ]  (* outside the declared temp output *)
    | other -> Fmt.failwith "unknown service %s" other
  in
  (* manual clock: backoff sleeps and breaker cooldowns advance virtual
     time, so the run is deterministic and does not actually sleep *)
  let resilience =
    Resilience.create
      ~policy:(Resilience.policy ~max_retries:3 ~breaker_threshold:5 ())
      ~clock:(Resilience.manual_clock ()) ()
  in
  let config =
    { Enforcement.default_config with Enforcement.resilience = Some resilience }
  in
  let pipeline =
    Pipeline.create ~config ~s0:fault_s0 ~exchange:fault_exchange ~invoker ()
  in
  let fnames = [| "F_flaky"; "F_fail"; "F_ill" |] in
  let docs = List.init n (fun i -> D.elem "doc" [ D.call fnames.(i mod 3) [] ]) in
  let results, elapsed_s = clocked (Pipeline.enforce_many pipeline ~jobs:1) docs in
  assert (List.length results = n);  (* the batch never aborts *)
  let counts = Enforcement.counts results in
  let cache = Contract.stats (Pipeline.contract pipeline) in
  let guard = Resilience.total resilience in
  let docs_per_s = float_of_int n /. elapsed_s in
  Fmt.pr
    "%d docs (%d conformed, %d rewritten, %d possible, %d rejected, %d \
     attempt-failed, %d faulted), %d invocations, %.3f s (%.0f docs/s), \
     cache: %a, resilience: %a@."
    n counts.Enforcement.conformed counts.Enforcement.rewritten
    counts.Enforcement.rewritten_possible counts.Enforcement.rejected
    counts.Enforcement.attempt_failed counts.Enforcement.faults
    counts.Enforcement.invocations elapsed_s docs_per_s Contract.pp_stats cache
    Resilience.pp_stats guard;
  let first_matching pred =
    List.find_map
      (function
        | Error (Enforcement.Service_fault fs) -> List.find_opt pred fs
        | _ -> None)
      results
  in
  let is_ill f =
    match f.Rewriter.reason with Rewriter.Ill_typed_service _ -> true | _ -> false
  in
  let is_down f =
    match f.Rewriter.reason with Rewriter.Service_failure _ -> true | _ -> false
  in
  (match first_matching is_ill with
   | Some f -> Fmt.pr "sample ill-typed outcome : %a@." Rewriter.pp_failure f
   | None -> Fmt.pr "UNEXPECTED: no ill-typed outcome@.");
  (match first_matching is_down with
   | Some f -> Fmt.pr "sample give-up outcome   : %a@." Rewriter.pp_failure f
   | None -> Fmt.pr "UNEXPECTED: no service-failure outcome@.");
  write_artifact "e18"
    [ ("docs", int n); ("rewritten", int counts.Enforcement.rewritten);
      ("rejected", int counts.Enforcement.rejected);
      ("faults", int counts.Enforcement.faults);
      ("invocations", int counts.Enforcement.invocations);
      ("elapsed_s", num elapsed_s);
      ("docs_per_s", num docs_per_s);
      ("cache_hit_rate", num (Contract.hit_rate cache));
      ("resilience", Resilience.stats_to_json guard) ]

(* ------------------------------------------------------------------ *)
(* E19: observability overhead — tracing sinks vs the null sink        *)
(* ------------------------------------------------------------------ *)

module Trace = Axml_obs.Trace

let e19 () =
  section "e19" "observability: decision-tracing overhead per sink";
  expectation
    "instrumentation must be safe to leave on: with the null sink the \
     per-event guard is a single load, and even a memory ring buffer \
     should stay within a few percent of the null-sink baseline";
  let n = 1000 and passes = 10 and exhibits = 40 in
  (* Realistically-sized newspapers (Figure 2 with a fat exhibit
     listing): each needs one Get_Temp invocation, and the validation /
     rewriting work per document scales with the listing while the
     trace stays a dozen events — the amortization an operator sees. *)
  let exhibit i =
    D.elem "exhibit"
      [ D.elem "title" [ D.data ("expo " ^ string_of_int i) ];
        D.elem "date" [ D.data "04/10/2002" ] ]
  in
  let doc j =
    D.elem "newspaper"
      (D.elem "title" [ D.data ("The Sun #" ^ string_of_int j) ]
       :: D.elem "date" [ D.data "04/10/2002" ]
       :: D.call "Get_Temp" [ D.elem "city" [ D.data "Paris" ] ]
       :: List.init exhibits exhibit)
  in
  let docs = List.init n doc in
  let invoker = Registry.invoker (example_registry ()) in
  (* one shared pipeline: every arm sees the same warm contract cache *)
  let p = Pipeline.create ~s0:schema_star ~exchange:schema_star2 ~invoker () in
  let one_pass sink =
    Gc.full_major ();  (* same heap state for every sample *)
    Trace.set_sink Trace.default sink;
    (* wall clock, not [Sys.time]: its ~10 ms tick would quantize a
       50 ms sample into the very percentages we are measuring *)
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> Trace.set_sink Trace.default Trace.Null)
      (fun () ->
        let results = Pipeline.enforce_many p ~jobs:1 docs in
        assert (not (List.exists Result.is_error results)));
    Unix.gettimeofday () -. t0
  in
  ignore (one_pass Trace.Null);  (* warm-up: caches, minor heap sizing *)
  (* interleave the arms — alternating the order each round — and keep
     per-arm minima, so drift (GC state, scheduling, machine load)
     cannot masquerade as sink overhead *)
  let measure () =
    let mem_buf = Trace.buffer ~capacity:4096 () in
    let arms = [| Trace.Null; Trace.Memory mem_buf |] in
    let best = Array.make (Array.length arms) infinity in
    for round = 1 to passes do
      let order =
        if round land 1 = 0 then [ 0; 1 ] else [ 1; 0 ]
      in
      List.iter
        (fun i -> best.(i) <- Float.min best.(i) (one_pass arms.(i)))
        order
    done;
    (best.(0), best.(1), mem_buf)
  in
  let gate_pct = 20. in
  let pct ~null_s arm_s = 100. *. (arm_s -. null_s) /. null_s in
  (* The gate catches a sink that changes which enforcement walk runs:
     that costs about +60% on every measurement, while load from other
     processes (a parallel `dune build @ci`) seldom lasts through
     three. So an overhead above the gate is measured again, at most
     twice, before it fails the run. *)
  let rec settle attempt =
    let ((null_s, mem_s, _) as m) = measure () in
    if pct ~null_s mem_s > gate_pct && attempt < 3 then begin
      Fmt.pr "memory ring : %+.1f%% on attempt %d, measuring again@."
        (pct ~null_s mem_s) attempt;
      settle (attempt + 1)
    end
    else m
  in
  let null_s, mem_s, mem_buf = settle 1 in
  let total = n in
  let overhead = pct ~null_s in
  let rate s = float_of_int total /. s in
  Fmt.pr "null sink   : %8.3f s  (%7.0f docs/s)  baseline@." null_s
    (rate null_s);
  Fmt.pr "memory ring : %8.3f s  (%7.0f docs/s)  %+.1f%%@." mem_s (rate mem_s)
    (overhead mem_s);
  Fmt.pr "memory ring kept the last %d of %d events@."
    (List.length (Trace.buffer_events mem_buf))
    (Trace.buffer_pushed mem_buf);
  write_artifact "e19"
    [ ("docs", int n); ("passes", int passes); ("null_s", num null_s);
      ("memory_s", num mem_s); ("null_docs_per_s", num (rate null_s));
      ("memory_docs_per_s", num (rate mem_s));
      ("memory_overhead_pct", num (overhead mem_s));
      ("events_pushed", int (Trace.buffer_pushed mem_buf));
      ("events_retained", int (List.length (Trace.buffer_events mem_buf))) ];
  (* The <5% bar is reported, not gated: measured values sit close to
     it. *)
  Fmt.pr "<5%% bar: %s@." (if overhead mem_s < 5. then "met" else "not met");
  if overhead mem_s > gate_pct then begin
    Fmt.epr "e19: memory-sink overhead %+.1f%% exceeds the %.0f%% gate@."
      (overhead mem_s) gate_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E20: static analysis — lint throughput over synthetic schemas       *)
(* ------------------------------------------------------------------ *)

module Lint = Axml_analysis.Lint
module Diagnostic = Axml_analysis.Diagnostic

(* A deterministic pseudo-random schema with [n] elements: content
   models mix sequences, alternations, stars and calls over the earlier
   declarations and a fixed pool of functions — the shape a grown
   service repository schema takes, with enough rot (unreachable and
   ambiguous declarations) for every rule to do real work. *)
let synthetic_schema rng n =
  let label i = "e" ^ string_of_int i in
  let atom i =
    match Random.State.int rng 4 with
    | 0 -> R.sym Schema.A_data
    | 1 | 2 -> R.sym (Schema.A_label (label (Random.State.int rng i)))
    | _ -> R.sym (Schema.A_fun ("F" ^ string_of_int (Random.State.int rng 8)))
  in
  let rec content depth i =
    if depth = 0 then atom i
    else
      match Random.State.int rng 5 with
      | 0 -> R.seq (content (depth - 1) i) (content (depth - 1) i)
      | 1 -> R.alt (content (depth - 1) i) (content (depth - 1) i)
      | 2 -> R.star (content (depth - 1) i)
      | 3 -> R.opt (content (depth - 1) i)
      | _ -> atom i
  in
  let s = Schema.add_element Schema.empty (label 0) (R.sym Schema.A_data) in
  let s =
    List.fold_left
      (fun s i -> Schema.add_element s (label i) (content 3 i))
      s
      (List.init (n - 1) (fun i -> i + 1))
  in
  let s =
    List.fold_left
      (fun s j ->
        Schema.add_function s
          (Schema.func
             ("F" ^ string_of_int j)
             ~input:(R.sym Schema.A_data)
             ~output:(R.sym (Schema.A_label (label (Random.State.int rng n))))))
      s
      (List.init 8 Fun.id)
  in
  Schema.with_root s (label (n - 1))

let e20 () =
  section "e20" "static analysis: lint throughput";
  expectation
    "every rule reuses the compile-time automata of Sections 4-6, so a \
     full schema lint should stay in the milliseconds even for \
     hundreds of declarations and grow roughly linearly with them; \
     contract lint is dominated by the Section 6 schema-rewriting \
     check, and a pipeline re-serves its cached verdict for free";
  let sizes = [ 10; 40; 160 ] in
  let rows =
    List.map
      (fun n ->
        (* same seed per size: the schema, and so the measurement, is
           reproducible run to run *)
        let rng = Random.State.make [| 0xE20; n |] in
        let s = synthetic_schema rng n in
        let ns = measure_ns (Fmt.str "lint %d elements" n) (fun () -> Lint.lint_schema s) in
        let ds = Lint.lint_schema s in
        let count sev = Diagnostic.count sev ds in
        Fmt.pr
          "%4d elements: %a per lint  (%7.0f schemas/s, %.1f us/element)  \
           %d errors %d warnings %d hints@."
          n pp_ns ns (1e9 /. ns)
          (ns /. 1e3 /. float_of_int n)
          (count Diagnostic.Error) (count Diagnostic.Warning)
          (count Diagnostic.Hint);
        (n, ns, count Diagnostic.Error, count Diagnostic.Warning,
         count Diagnostic.Hint))
      sizes
  in
  (* contract- and document-level passes on the paper's example *)
  let contract =
    Axml_core.Contract.create ~s0:schema_star ~target:schema_star2 ()
  in
  let contract_ns =
    measure_ns "lint contract" (fun () -> Lint.lint_contract contract)
  in
  let doc_ns =
    measure_ns "lint document" (fun () -> Lint.lint_document contract fig2a)
  in
  Fmt.pr "contract lint (star -> star2): %a@." pp_ns contract_ns;
  Fmt.pr "document lint (Figure 2a)    : %a@." pp_ns doc_ns;
  write_artifact "e20"
    [ ( "schemas",
        Json.List
          (List.map
             (fun (n, ns, e, w, h) ->
               Json.Obj
                 [ ("elements", int n); ("lint_ns", num ns);
                   ("schemas_per_s", num (1e9 /. ns)); ("errors", int e);
                   ("warnings", int w); ("hints", int h) ])
             rows) );
      ("contract_lint_ns", num contract_ns); ("document_lint_ns", num doc_ns) ]

(* ------------------------------------------------------------------ *)
(* E21: multicore batch enforcement — domain-scaling curve             *)
(* ------------------------------------------------------------------ *)

module Syntax = Axml_peer.Syntax

let e21 () =
  section "e21" "multicore batch enforcement: domain-scaling curve";
  expectation
    "per-document enforcement is embarrassingly parallel and, on a real \
     exchange path, service-latency-bound (Section 7 guards a \
     communication path to remote services): sharding a 1k-doc stream \
     across domains overlaps the service waits, so wall-clock throughput \
     should reach 2x or better by 4 domains — with results byte-identical \
     to the sequential run, in input order";
  let n = 1000 in
  let g = Generate.create ~seed:2003 schema_star in
  let docs = List.init n (fun _ -> Generate.document g) in
  (* the example services behind a simulated 1 ms network round-trip:
     deterministic replies, realistic latency. [Registry.invoke] and the
     oracle behaviours are thread-safe, so one registry serves every
     domain. *)
  let delay_s = 0.001 in
  let base = Registry.invoker (example_registry ()) in
  let invoker name params =
    Unix.sleepf delay_s;
    base name params
  in
  let render results =
    String.concat "\n"
      (List.map
         (function
           | Ok (doc, _) -> Syntax.to_xml_string ~pretty:false doc
           | Error e -> Fmt.str "%a" Enforcement.pp_error e)
         results)
  in
  let fresh_pipeline () =
    Pipeline.create ~s0:schema_star ~exchange:schema_star2 ~invoker ()
  in
  (* a per-document enforce loop is the byte-identity reference *)
  let reference =
    render (List.map (Pipeline.enforce (fresh_pipeline ())) docs)
  in
  (* each arm: (jobs, wall seconds, invocations, identical, cache) *)
  let arms =
    List.map
      (fun jobs ->
        let p = fresh_pipeline () in
        let results, elapsed_s = clocked (Pipeline.enforce_many p ~jobs) docs in
        ( jobs,
          elapsed_s,
          (Enforcement.counts results).Enforcement.invocations,
          String.equal (render results) reference,
          Contract.stats (Pipeline.contract p) ))
      [ 1; 2; 4; 8 ]
  in
  let base_s, base_cache =
    match arms with (_, s, _, _, c) :: _ -> (s, c) | [] -> assert false
  in
  let docs_per_s s = float_of_int n /. s in
  List.iter
    (fun (jobs, s, _, identical, _) ->
      Fmt.pr
        "jobs %d: %8.3f s  (%7.0f docs/s)  speedup %.2fx  %s@."
        jobs s (docs_per_s s) (base_s /. s)
        (if identical then "output = sequential" else "OUTPUT MISMATCH"))
    arms;
  Fmt.pr "cache (jobs 1): %a@." Contract.pp_stats base_cache;
  write_artifact "e21"
    [ ("docs", int n); ("service_delay_s", num delay_s);
      ( "arms",
        Json.List
          (List.map
             (fun (jobs, s, invocations, identical, _) ->
               Json.Obj
                 [ ("jobs", int jobs); ("elapsed_s", num s);
                   ("docs_per_s", num (docs_per_s s));
                   ("speedup", num (base_s /. s));
                   ("invocations", int invocations);
                   ("identical", Json.Bool identical) ])
             arms) );
      ( "speedup_at_4_jobs",
        num
          (List.fold_left
             (fun acc (jobs, s, _, _, _) -> if jobs = 4 then base_s /. s else acc)
             0. arms) );
      ( "all_outputs_identical",
        Json.Bool (List.for_all (fun (_, _, _, identical, _) -> identical) arms) ) ]

(* ------------------------------------------------------------------ *)
(* E23: verdict cost and outcome growth in the rewriting depth k       *)
(* ------------------------------------------------------------------ *)

(* A fully extensional exchange schema: the receiver accepts no calls
   at all, so any call left in an enforced document is a depth gap. *)
let schema_extensional =
  parse_schema
    {|
root newspaper
element newspaper = title.date.temp.exhibit*
element title = #data
element date = #data
element temp = #data
element city = #data
element exhibit = title.date
element performance = title.date
|}

(* The example services, except that TimeOut answers intensionally: its
   exhibits carry an embedded Get_Date call (legal under the sender's
   exhibit type). Flattening one such result needs a second rewriting
   level — exactly the k=1 enforcement gap. *)
let deep_registry () =
  let reg = example_registry () in
  Registry.register reg
    (Service.make "TimeOut" ~cost:1.0 ~input:(R.sym Schema.A_data)
       ~output:
         (R.star
            (R.alt (R.sym (Schema.A_label "exhibit"))
               (R.sym (Schema.A_label "performance"))))
       (Oracle.constant
          [ D.elem "exhibit"
              [ D.elem "title" [ D.data "Monet" ];
                D.call "Get_Date" [ D.elem "title" [ D.data "Monet" ] ] ] ]));
  reg

let e23 () =
  section "e23" "k-bounded enforcement: verdict cost and outcomes at k = 1, 2, 3";
  expectation
    "the safety verdict splices function outputs one level deeper per \
     unit of k (Definition 7), so static-analysis latency grows with k \
     but stays polynomial; on a stream whose TimeOut service answers \
     with intensional exhibits, k=1 leaves the embedded Get_Date in the \
     enforced output (the depth gap a fully extensional receiver then \
     refuses) while k>=2 re-enforces materialized results against the \
     remaining budget and ships extensional documents — the residual-call \
     count must drop to zero from k=2 on";
  let n = 300 in
  let ks = [ 1; 2; 3 ] in
  (* static verdict cost: the safe-rewriting analysis of the Figure-2
     word against the extensional target, per depth — uncached, on a
     fresh product per iteration (a contract-cache miss) *)
  let verdicts =
    List.map
      (fun k ->
        let c = Contract.create ~k ~s0:schema_star ~target:schema_extensional () in
        let regex = newspaper_regex c in
        let ns =
          measure_ns
            (Printf.sprintf "e23-k%d" k)
            (fun () -> fresh_lazy c ~target_regex:regex newspaper_word)
        in
        Fmt.pr "verdict latency at k=%d: %a@." k pp_ns ns;
        (k, ns))
      ks
  in
  (* dynamic arms: the same generated stream enforced at each depth,
     then searched for each document's minimal k *)
  let g = Generate.create ~seed:2304 schema_star in
  let docs = List.init n (fun _ -> Generate.document g) in
  let residual_calls results =
    List.fold_left
      (fun acc -> function
        | Ok (doc, _) when not (D.is_extensional doc) -> acc + 1
        | _ -> acc)
      0 results
  in
  let arms =
    List.map
      (fun k ->
        let config =
          (* possible rewriting on: TimeOut's performance branch rules
             out a safe verdict, and the depth gap only shows once the
             call is actually invoked *)
          { Enforcement.default_config with
            Enforcement.k; fallback_possible = true }
        in
        let p =
          Pipeline.create ~config ~s0:schema_star ~exchange:schema_extensional
            ~invoker:(Registry.invoker (deep_registry ())) ()
        in
        let results, elapsed_s = clocked (Pipeline.enforce_many p ~jobs:1) docs in
        let counts = Enforcement.counts results in
        (* (minimal safe depth, documents), ascending in depth, and the
           documents with no safe depth within k *)
        let distribution, over_budget =
          List.fold_left
            (fun (dist, over) doc ->
              match (Pipeline.minimal_k p doc).Rewriter.safe_k with
              | Some d ->
                let c = Option.value ~default:0 (List.assoc_opt d dist) in
                ((d, c + 1) :: List.remove_assoc d dist, over)
              | None -> (dist, over + 1))
            ([], 0) docs
        in
        let distribution = List.sort compare distribution in
        let residual = residual_calls results in
        let ok =
          List.length (List.filter (function Ok _ -> true | _ -> false) results)
        in
        Fmt.pr
          "k=%d: %8.3f s  (%7.0f docs/s)  %d/%d accepted, %d rejected, %d \
           invocation(s), %d residual intensional result(s)@."
          k elapsed_s (float_of_int n /. elapsed_s) ok n
          counts.Enforcement.rejected counts.Enforcement.invocations residual;
        Fmt.pr "  minimal k: measured %d, over budget %d, distribution %a@."
          n over_budget
          Fmt.(list ~sep:sp (pair ~sep:(any ":") int int))
          distribution;
        ( k,
          residual,
          Json.Obj
            [ ("k", int k); ("elapsed_s", num elapsed_s);
              ("docs_per_s", num (float_of_int n /. elapsed_s));
              ("accepted", int ok);
              ("rejected", int counts.Enforcement.rejected);
              ("invocations", int counts.Enforcement.invocations);
              ("residual_intensional", int residual);
              ( "min_k",
                Json.Obj
                  [ ("measured", int n);
                    ("over_budget", int over_budget);
                    ( "distribution",
                      Json.Obj
                        (List.map (fun (d, c) -> (string_of_int d, int c)) distribution) )
                  ] ) ] ))
      ks
  in
  let gap_closed = List.for_all (fun (k, residual, _) -> k < 2 || residual = 0) arms in
  let gap_shown = List.exists (fun (k, residual, _) -> k = 1 && residual > 0) arms in
  Fmt.pr "depth gap at k=1: %s; closed from k=2 on: %s@."
    (if gap_shown then "reproduced" else "NOT REPRODUCED")
    (if gap_closed then "yes" else "NO — residual calls above budget");
  write_artifact "e23"
    [ ("docs", int n);
      ( "verdict_ns",
        Json.Obj (List.map (fun (k, ns) -> (Printf.sprintf "k%d" k, num ns)) verdicts) );
      ("arms", Json.List (List.map (fun (_, _, arm) -> arm) arms));
      ("gap_at_k1", Json.Bool gap_shown); ("gap_closed_at_k2", Json.Bool gap_closed) ]

(* ------------------------------------------------------------------ *)
(* E24: schema evolution — diff and corpus-migration throughput        *)
(* ------------------------------------------------------------------ *)

module Evolution = Axml_analysis.Evolution

(* Evolve a synthetic schema into a plausible v2: rebuild it element by
   element keeping most content models, widening some and replacing a
   few outright, so the diff has all four classifications to do and the
   verdict lift finds genuine regressions. Functions and root carry
   over verbatim (a signature conflict would skip the lift). *)
let evolve rng (v1 : Schema.t) =
  let widen r =
    match Random.State.int rng 3 with
    | 0 -> R.opt r
    | 1 -> R.star r
    | _ -> R.alt r (R.sym (Schema.A_label "e0"))
  in
  let mutate r =
    let roll = Random.State.int rng 100 in
    if roll < 60 then r
    else if roll < 85 then widen r
    else R.sym Schema.A_data
  in
  let s =
    List.fold_left
      (fun s l ->
        match Schema.find_element v1 l with
        | None -> s
        | Some c -> Schema.add_element s l (mutate c))
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

let e24 () =
  section "e24" "schema evolution: diff and corpus-migration throughput";
  expectation
    "per-label classification is DFA inclusion over already-small \
     Glushkov automata and the verdict lift builds one merged contract \
     for the whole pair (the Section 6 g_l reduction runs on it), so a \
     full diff should stay in the milliseconds and grow roughly \
     linearly with the declaration count; migration advice is one \
     validation plus two bounded rewriting checks per document, so a \
     corpus moves at thousands of documents per second";
  let sizes = [ 10; 40; 160 ] in
  let diff_rows =
    List.map
      (fun n ->
        let rng = Random.State.make [| 0xE24; n |] in
        let v1 = synthetic_schema rng n in
        let v2 = evolve rng v1 in
        let ns =
          measure_ns
            (Fmt.str "diff %d elements" n)
            (fun () -> Evolution.diff ~v1 ~v2 ())
        in
        let r = Evolution.diff ~v1 ~v2 () in
        let count c =
          List.length
            (List.filter
               (fun (l : Evolution.label_diff) ->
                 l.Evolution.l_presence = Evolution.Both c)
               r.Evolution.r_labels)
        in
        let id = count Evolution.Identical
        and wi = count Evolution.Widened
        and na = count Evolution.Narrowed
        and inc = count Evolution.Incompatible in
        let ds = List.length r.Evolution.r_diagnostics in
        Fmt.pr
          "%4d elements: %a per diff  (%7.0f diffs/s)  %d identical %d \
           widened %d narrowed %d incompatible, %d finding(s)@."
          n pp_ns ns (1e9 /. ns) id wi na inc ds;
        (n, ns, id, wi, na, inc, ds))
      sizes
  in
  (* corpus migration: archived sender-schema issues moving to the
     checked-in exchange v2 (one widened label, one narrowed label, one
     invocability flip — the examples/ pair, inlined) *)
  let v1 =
    Schema_parser.parse
      "root newspaper\n\
       element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)\n\
       element title = #data\n\
       element date = #data\n\
       element temp = #data\n\
       element exhibit = title.(Get_Date | date)\n\
       function Get_Temp : #data -> temp\n\
       function Get_Date : title -> date\n\
       function TimeOut : #data -> exhibit*\n"
  in
  let v2 =
    Schema_parser.parse
      "root newspaper\n\
       element newspaper = title.date.temp.exhibit.exhibit*\n\
       element title = #data\n\
       element date = #data\n\
       element temp = #data\n\
       element exhibit = title.(Get_Date | date)\n\
       noninvocable function Get_Date : title -> date\n"
  in
  let n_docs = 200 in
  let g = Generate.create ~seed:2400 v1 in
  let corpus =
    List.init n_docs (fun i ->
        (Printf.sprintf "doc%03d.xml" i, Generate.document g))
  in
  let migrate_ns =
    measure_ns ~quota:0.5 "migrate corpus" (fun () ->
        Evolution.migrate ~k:2 ~v1 ~v2 corpus)
  in
  let m = Evolution.migrate ~k:2 ~v1 ~v2 corpus in
  let mix a =
    List.length
      (List.filter
         (fun (d : Evolution.doc_advisory) ->
           match (d.Evolution.a_advisory, a) with
           | Evolution.Conforms, `Conforms
           | Evolution.Materialize, `Materialize
           | Evolution.Possible, `Possible
           | Evolution.Doomed _, `Doomed -> true
           | _ -> false)
         m.Evolution.g_advisories)
  in
  let conforms = mix `Conforms
  and materialize = mix `Materialize
  and possible = mix `Possible
  and doomed = mix `Doomed in
  let docs_per_s = float_of_int n_docs /. (migrate_ns /. 1e9) in
  Fmt.pr
    "%4d documents: %a per corpus  (%7.0f docs/s)  %d conform %d \
     materialize %d possible %d doomed — %s@."
    n_docs pp_ns migrate_ns docs_per_s conforms materialize possible doomed
    (if m.Evolution.g_migratable then "migratable" else "NOT migratable");
  write_artifact "e24"
    [ ( "diffs",
        Json.List
          (List.map
             (fun (n, ns, id, wi, na, inc, ds) ->
               Json.Obj
                 [ ("elements", int n); ("diff_ns", num ns);
                   ("diffs_per_s", num (1e9 /. ns)); ("identical", int id);
                   ("widened", int wi); ("narrowed", int na);
                   ("incompatible", int inc); ("diagnostics", int ds) ])
             diff_rows) );
      ( "migration",
        Json.Obj
          [ ("docs", int n_docs); ("migrate_ns", num migrate_ns);
            ("docs_per_s", num docs_per_s); ("conforms", int conforms);
            ("materialize", int materialize); ("possible", int possible);
            ("doomed", int doomed);
            ("migratable", Json.Bool m.Evolution.g_migratable) ] ) ]

(* ------------------------------------------------------------------ *)
(* SOAK — the adversarial workload engine, in process                  *)
(* ------------------------------------------------------------------ *)

module Mix = Axml_workload.Mix
module Schedule = Axml_workload.Schedule
module Soak = Axml_workload.Soak

let esoak () =
  section "soak"
    "adversarial workload engine: mix generator cost and a short \
     in-process soak trajectory";
  expectation
    "drawing a seeded document from a mix costs microseconds (generation \
     must never be the bottleneck of a soak run — the enforcement under \
     test must be); and a 3s in-process trajectory through the default \
     schedule shows the brownout dynamics the served soak (`axml soak`) \
     grades: the dead-service phase trips the shared breaker, recovery \
     closes it again. Latency grading (flash p99 vs steady) needs the \
     queueing of a real served peer and is asserted by the @ci soak \
     smoke, not here";
  List.iter
    (fun (name, mix) ->
      let stream = Mix.stream ~seed:2003 ~schema:schema_star mix in
      let ns = measure_ns ("soak-gen-" ^ name) (fun () -> Mix.next stream) in
      let sample =
        List.init 200 (fun _ -> (Mix.next stream).Mix.doc)
      in
      let avg f =
        float_of_int (List.fold_left (fun acc d -> acc + f d) 0 sample)
        /. 200.
      in
      Fmt.pr
        "mix %-12s draw %a  (%8.0f docs/s)  avg %5.1f word symbols, %4.2f \
         embedded call(s)@."
        name pp_ns ns (1e9 /. ns)
        (avg (fun d -> List.length (D.word (D.children d))))
        (avg D.count_calls))
    [ ("steady", Mix.steady); ("flash-crowd", Mix.flash_crowd) ];
  (* the trajectory: enforcement pipelines stand in for the served peer,
     so the run exercises the same engine the wire path uses without
     sockets; BENCH_SOAK.json (the graded, served run) is produced by
     `axml soak`, not here *)
  let registry = Axml_obs.Metrics.create () in
  let resilience =
    Resilience.create
      ~policy:
        (Resilience.policy ~max_retries:1 ~backoff_s:0.005
           ~breaker_threshold:3 ~breaker_cooldown_s:0.3 ())
      ~seed:2003 ()
  in
  let schedule = Schedule.default ~workers:2 ~total_s:3. () in
  let reg = Registry.create () in
  let origin = Unix.gettimeofday () in
  let fnames = Schema.function_names schema_star in
  List.iter
    (fun fname ->
      match Schema.find_function schema_star fname with
      | None -> ()
      | Some f ->
        let honest = Oracle.honest_random ~seed:2003 schema_star fname in
        let entries =
          List.map
            (fun (t, fault) ->
              ( t,
                match fault with
                | Schedule.Healthy -> honest
                | Schedule.Flaky period -> Oracle.flaky ~period honest
                | Schedule.Slow delay_s -> Oracle.timing_out ~delay_s honest
                | Schedule.Dead -> Oracle.failing fname ))
            (Schedule.fault_timeline schedule)
        in
        Registry.register reg
          (Service.make ~input:f.Schema.f_input ~output:f.Schema.f_output
             fname
             (Oracle.scheduled ~origin entries)))
    fnames;
  let config =
    { Enforcement.k = 2; fallback_possible = true; resilience = Some resilience }
  in
  let pipeline exchange =
    Pipeline.create ~config ~s0:schema_star ~exchange
      ~invoker:(Registry.invoker reg) ()
  in
  (* schema_star2 only forces Get_Temp's materialization: honest services
     always satisfy it, so healthy phases enforce cleanly and every
     error in the trajectory is injected, not schema luck (TimeOut's
     performance branch against the fully extensional schema_star3 would
     gamble on possible rewriting and lose ~a fifth of the time) *)
  let primary = pipeline schema_star2 and churned = pipeline schema_star in
  let send ~worker:_ ~(phase : Schedule.phase) (item : Mix.item) =
    let p =
      match phase.Schedule.exchange with
      | `Primary -> primary
      | `Churned -> churned
    in
    match Pipeline.enforce p item.Mix.doc with
    | Ok _ -> Soak.Accepted
    | Error (Enforcement.Service_fault _) -> Soak.Fault
    | Error _ -> Soak.Refused
  in
  let report =
    Soak.run ~registry
      ~config:(Soak.config ~window_s:0.25 ~services:fnames schedule)
      ~resilience ~schema:schema_star ~send ()
  in
  List.iter
    (fun (s : Soak.phase_summary) ->
      Fmt.pr
        "phase %-14s %6d req  p50 %a  p99 %a  error rate %.3f%s@."
        s.Soak.s_name s.Soak.s_requests pp_ns (s.Soak.s_p50 *. 1e9) pp_ns
        (s.Soak.s_p99 *. 1e9) s.Soak.s_error_rate
        (if s.Soak.s_expect_degraded then "  (degraded by design)" else ""))
    report.Soak.phases;
  List.iter
    (fun (c : Soak.check) ->
      if List.mem c.Soak.check [ "breaker-tripped"; "breakers-recovered" ]
      then
        Fmt.pr "check %-19s %-4s %s@." c.Soak.check
          (if c.Soak.ok then "ok" else "FAIL")
          c.Soak.detail)
    report.Soak.verdict.Soak.checks;
  Fmt.pr "breaker trips %d, heap high water %d words@."
    report.Soak.resilience.Resilience.trips report.Soak.heap_high_water_words;
  write_json "BENCH_SOAK_INPROC.json" (Soak.report_to_json report)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21); ("e23", e23);
    ("e24", e24); ("soak", esoak) ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  Fmt.pr "Exchanging Intensional XML Data (SIGMOD 2003) — experiment harness@.";
  Fmt.pr "(see EXPERIMENTS.md for the paper-artifact index)@.";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown experiment %S (known: %s)@." name
          (String.concat ", " (List.map fst experiments)))
    selected;
  Fmt.pr "@.All selected experiments done.@."
