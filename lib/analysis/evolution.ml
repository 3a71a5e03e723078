(* Schema evolution: per-label DFA-inclusion classification, the
   Section 6 verdict lift replayed against the (v1, v2) pair, and the
   corpus migration advisory. See evolution.mli for the model. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Schema_parser = Axml_schema.Schema_parser
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module Contract = Axml_core.Contract
module Rewriter = Axml_core.Rewriter
module Validate = Axml_core.Validate
module Document = Axml_core.Document
module Schema_rewrite = Axml_core.Schema_rewrite
module D = Diagnostic
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* ------------------------------------------------------------------ *)
(* Observability: runs, wall-clock, per-label classifications and
   per-document advisories, under a "diff" / "migrate" trace span.     *)

let runs_total pass =
  Metrics.counter ~help:"Evolution analyses"
    ~labels:[ ("pass", pass) ] "axml_evolution_runs_total"

let pass_seconds pass =
  Metrics.histogram ~help:"Wall-clock seconds per evolution analysis"
    ~labels:[ ("pass", pass) ] "axml_evolution_seconds"

let labels_total change =
  Metrics.counter ~help:"Per-label classifications by the schema differ"
    ~labels:[ ("change", change) ] "axml_evolution_labels_total"

let documents_total advisory =
  Metrics.counter ~help:"Migration advisories by outcome"
    ~labels:[ ("advisory", advisory) ] "axml_evolution_documents_total"

let diagnostics_total severity =
  Metrics.counter ~help:"Diagnostics emitted by evolution analyses"
    ~labels:[ ("severity", severity) ] "axml_evolution_diagnostics_total"

let instrumented pass f =
  Metrics.inc (runs_total pass);
  Metrics.time (pass_seconds pass) (fun () -> Trace.with_span pass f)

let observe_diagnostics ds =
  List.iter
    (fun (d : D.t) ->
      Metrics.inc
        (diagnostics_total (Fmt.str "%a" D.pp_severity d.D.severity)))
    ds

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

type change = Identical | Widened | Narrowed | Incompatible

let change_to_string = function
  | Identical -> "identical"
  | Widened -> "widened"
  | Narrowed -> "narrowed"
  | Incompatible -> "incompatible"

let pp_change ppf c = Fmt.string ppf (change_to_string c)

(* The product construction completes both automata over the union
   alphabet, so inclusion is sound across models mentioning different
   symbols. *)
let classify_dfas d1 d2 =
  match (Auto.Dfa.subset d1 d2, Auto.Dfa.subset d2 d1) with
  | true, true -> Identical
  | true, false -> Widened
  | false, true -> Narrowed
  | false, false -> Incompatible

let classify r1 r2 = classify_dfas (Auto.Dfa.of_regex r1) (Auto.Dfa.of_regex r2)

type presence = Both of change | Only_v1 | Only_v2

type label_diff = {
  l_label : string;
  l_presence : presence;
  l_new_calls : string list;
  l_witness : Symbol.t list option;
}

type func_diff = {
  f_func : string;
  f_presence : presence;
  f_input : change;
  f_output : change;
  f_invocable_v1 : bool;
  f_invocable_v2 : bool;
}

type verdict_lift = Schema_rewrite.label_verdict = {
  v_label : string;
  v_verdict : Contract.verdict;
  v_safe_at : int option;
  v_possible_at : int option;
  v_reason : string option;
}

type report = {
  r_k : int;
  r_labels : label_diff list;
  r_functions : func_diff list;
  r_verdicts : verdict_lift list;
  r_conflicts : string list;
  r_diagnostics : D.t list;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let pp_word ppf = function
  | [] -> Fmt.string ppf "the empty word"
  | w -> Fmt.(list ~sep:(any ".") Auto.pp_sym) ppf w

let fun_names r =
  List.sort_uniq compare
    (List.filter_map
       (function Symbol.Fun f -> Some f | _ -> None)
       (R.symbols r))

let union_names xs ys = List.sort_uniq compare (xs @ ys)

(* The worse of two changes; diverging directions make the pair
   incomparable as a whole. *)
let worst a b =
  match (a, b) with
  | Incompatible, _ | _, Incompatible -> Incompatible
  | Narrowed, Widened | Widened, Narrowed -> Incompatible
  | Narrowed, _ | _, Narrowed -> Narrowed
  | Widened, _ | _, Widened -> Widened
  | Identical, Identical -> Identical

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let diff ?(k = 1) ?predicate ?from_file
    ?from_positions ?to_file ?to_positions ~(v1 : Schema.t)
    ~(v2 : Schema.t) () : report =
  instrumented "diff" @@ fun () ->
  let env1 = Schema.env_of_schema ?predicate v1 in
  let env2 = Schema.env_of_schema ?predicate v2 in
  let pos_of positions name =
    Option.bind positions (fun m ->
        Option.map
          (fun (p : Schema_parser.pos) -> { D.line = p.line; col = p.col })
          (Schema.String_map.find_opt name m))
  in
  (* Findings about the evolved declaration point at the new version's
     source; removals at the old one. *)
  let at_new name = (to_file, pos_of to_positions name) in
  let at_old name = (from_file, pos_of from_positions name) in
  let diff_label l =
    match (Schema.find_element v1 l, Schema.find_element v2 l) with
    | None, None -> None
    | Some _, None ->
      let file, pos = at_old l in
      Some
        ( { l_label = l; l_presence = Only_v1; l_new_calls = [];
            l_witness = None },
          [
            D.make ?file ?pos ~code:"AXM040" ~severity:D.Error
              ~hint:
                "re-declare the element, or migrate and re-root archived \
                 documents of this type"
              (D.Element l)
              "element removed by the new version: archived documents of \
               this type have nowhere to land";
          ] )
    | None, Some _ ->
      Some
        ( { l_label = l; l_presence = Only_v2; l_new_calls = [];
            l_witness = None },
          [] )
    | Some c1, Some c2 ->
      (match (Schema.compile_content env1 c1, Schema.compile_content env2 c2) with
       | exception Schema.Schema_error _ -> None
       | r1, r2 ->
         let d1 = Auto.Dfa.of_regex r1 and d2 = Auto.Dfa.of_regex r2 in
         let change = classify_dfas d1 d2 in
         Metrics.inc (labels_total (change_to_string change));
         let new_calls =
           let old_calls = fun_names r1 in
           List.filter (fun f -> not (List.mem f old_calls)) (fun_names r2)
         in
         let witness =
           match change with
           | Narrowed | Incompatible -> Auto.Dfa.separating_word d1 d2
           | Identical | Widened -> None
         in
         let file, pos = at_new l in
         let ds =
           match change with
           | Identical -> []
           | Widened ->
             if new_calls = [] then []
             else
               [
                 D.make ?file ?pos ~code:"AXM043" ~severity:D.Warning
                   ~hint:
                     "make sure receivers are prepared for unmaterialized \
                      calls, or keep the model extensional"
                   (D.Element l)
                   (Fmt.str
                      "widened content model silently accepts embedded \
                       call(s) %s that the old version always refused"
                      (String.concat ", " new_calls));
               ]
           | Narrowed ->
             [
               D.make ?file ?pos ~code:"AXM040" ~severity:D.Warning
                 ~hint:
                   "widen the new model, or run 'axml migrate' over the \
                    archived corpus"
                 (D.Element l)
                 (Fmt.str
                    "content model narrowed: the new version refuses %a, \
                     which the old version accepted"
                    pp_word
                    (Option.value witness ~default:[]));
             ]
           | Incompatible ->
             [
               D.make ?file ?pos ~code:"AXM040" ~severity:D.Error
                 ~hint:"evolve the model by widening only, or version the label"
                 (D.Element l)
                 (Fmt.str
                    "content models are incomparable: the new version \
                     refuses %a (accepted before) and accepts words the old \
                     version refused"
                    pp_word
                    (Option.value witness ~default:[]));
             ]
         in
         Some
           ( { l_label = l; l_presence = Both change; l_new_calls = new_calls;
               l_witness = witness },
             ds ))
  in
  let diff_func f =
    match (Schema.find_function v1 f, Schema.find_function v2 f) with
    | None, None -> None
    | Some fn, None ->
      let file, pos = at_old f in
      Some
        ( { f_func = f; f_presence = Only_v1; f_input = Identical;
            f_output = Identical; f_invocable_v1 = fn.Schema.f_invocable;
            f_invocable_v2 = false },
          [
            D.make ?file ?pos ~code:"AXM044" ~severity:D.Warning
              ~hint:
                "archived calls to it must be materialized before the \
                 corpus migrates"
              (D.Function f) "function removed by the new version";
          ] )
    | None, Some fn ->
      Some
        ( { f_func = f; f_presence = Only_v2; f_input = Identical;
            f_output = Identical; f_invocable_v1 = false;
            f_invocable_v2 = fn.Schema.f_invocable },
          [] )
    | Some fn1, Some fn2 ->
      let comp env c =
        match Schema.compile_signature env c with
        | exception Schema.Schema_error _ -> None
        | r -> Some r
      in
      let cls a b =
        match (a, b) with
        | Some r1, Some r2 -> classify r1 r2
        | _ -> Identical
      in
      let ci = cls (comp env1 fn1.Schema.f_input) (comp env2 fn2.Schema.f_input) in
      let co =
        cls (comp env1 fn1.Schema.f_output) (comp env2 fn2.Schema.f_output)
      in
      let change = worst ci co in
      let inv1 = fn1.Schema.f_invocable and inv2 = fn2.Schema.f_invocable in
      let file, pos = at_new f in
      let ds =
        if change <> Identical then
          [
            D.make ?file ?pos ~code:"AXM044" ~severity:D.Error
              ~hint:
                "peers assume common functions agree on their signatures \
                 (the paper's Section 4); version the function name instead \
                 of its type"
              (D.Function f)
              (Fmt.str
                 "signature changed between versions (input %a, output %a): \
                  the merged exchange contract of the pair cannot be built"
                 pp_change ci pp_change co);
          ]
        else if inv1 <> inv2 then
          [
            D.make ?file ?pos ~code:"AXM044" ~severity:D.Warning
              ~hint:"invocability narrows or widens the rewriter's options"
              (D.Function f)
              (if inv1 then
                 "function is no longer invocable: rewritings can keep its \
                  calls but never fire them"
               else
                 "function became invocable: rewritings may now fire calls \
                  the old version had to keep embedded");
          ]
        else []
      in
      Some
        ( { f_func = f; f_presence = Both change; f_input = ci; f_output = co;
            f_invocable_v1 = inv1; f_invocable_v2 = inv2 },
          ds )
  in
  let labels, label_ds =
    List.split
      (List.filter_map diff_label
         (union_names (Schema.element_names v1) (Schema.element_names v2)))
  in
  let funcs, func_ds =
    List.split
      (List.filter_map diff_func
         (union_names (Schema.function_names v1) (Schema.function_names v2)))
  in
  let conflicts =
    List.filter_map
      (fun fd ->
        match fd.f_presence with
        | Both c when c <> Identical -> Some fd.f_func
        | _ -> None)
      funcs
  in
  (* The verdict lift: Section 6 against the pair, on its own contract,
     for the reachable labels both versions declare. *)
  let verdicts, lift_ds =
    match v1.Schema.root with
    | None -> ([], [])
    | Some root ->
      (* a signature conflict (see [conflicts]) fails the merge *)
      (match Contract.create ~k ?predicate ~s0:v1 ~target:v2 () with
       | exception Schema.Schema_error _ -> ([], [])
       | contract ->
         let verdicts =
           List.filter
             (fun v ->
               Schema.find_element v1 v.v_label <> None
               && Schema.find_element v2 v.v_label <> None)
             (Schema_rewrite.check contract ~root).Schema_rewrite.verdicts
         in
         let ds =
           List.filter_map
             (fun v ->
               let file, pos = at_new v.v_label in
               match v.v_verdict with
               | Contract.Safe -> None
               | Contract.Possible_only ->
                 Some
                   (D.make ?file ?pos ~code:"AXM041" ~severity:D.Warning
                      ~hint:
                        "raise the rewriting depth k, widen the new model, \
                         or migrate the archived corpus ('axml migrate')"
                      (D.Schema_pair v.v_label)
                      "verdict regression (safe -> mixed): every old-version \
                       document of this type exchanged safely, but under the \
                       new version not all of them rewrite safely any more")
               | Contract.Impossible ->
                 Some
                   (D.make ?file ?pos ~code:"AXM041" ~severity:D.Error
                      ~hint:"align the content models of the two versions"
                      (D.Schema_pair v.v_label)
                      "verdict regression (safe -> impossible): no document \
                       of this type has any rewriting into the new version"))
             verdicts
         in
         (verdicts, ds))
  in
  let diagnostics =
    List.sort D.compare (List.concat label_ds @ List.concat func_ds @ lift_ds)
  in
  observe_diagnostics diagnostics;
  { r_k = k; r_labels = labels; r_functions = funcs; r_verdicts = verdicts;
    r_conflicts = conflicts; r_diagnostics = diagnostics }

(* ------------------------------------------------------------------ *)
(* migrate                                                             *)

type advisory = Conforms | Materialize | Possible | Doomed of string

type doc_advisory = {
  a_doc : string;
  a_advisory : advisory;
  a_calls : (Document.path * string) list;
  a_diagnostics : D.t list;
}

type migration = {
  g_k : int;
  g_advisories : doc_advisory list;
  g_migratable : bool;
  g_diagnostics : D.t list;
}

let advisory_string = function
  | Conforms -> "conforms"
  | Materialize -> "materialize"
  | Possible -> "possible"
  | Doomed _ -> "doomed"

(* The calls that cannot stay embedded: occurrences whose symbol the
   v2 content model of their context does not mention, so any rewriting
   into v2 must fire them. A call in an unknown context (undeclared
   label, or the document root itself) must fire too. *)
let must_materialize contract doc =
  let must rev_path (node : Document.t) _own enclosing acc =
    match node, enclosing with
    | Document.Call { name; _ }, Some (m : Validate.model)
      when List.mem (Symbol.Fun name) (R.symbols m.Validate.regex) -> acc
    | Document.Call { name; _ }, _ -> (List.rev rev_path, name) :: acc
    | (Document.Data _ | Document.Elem _), _ -> acc
  in
  List.rev (Validate.fold (Contract.ctx contract) must doc [])

let migrate ?(k = 1) ?predicate ~v1 ~v2 docs :
    migration =
  instrumented "migrate" @@ fun () ->
  let contract = Contract.create ~k ?predicate ~s0:v1 ~target:v2 () in
  let rw = Rewriter.of_contract contract in
  let advise (name, doc) =
    let calls = must_materialize contract doc in
    let advisory, ds =
      (* the contract's ctx validates against v2 in the merged
         environment, so calls declared only by v1 are not unknown *)
      if Validate.document_violations (Contract.ctx contract) doc = [] then
        (Conforms, [])
      else if (Rewriter.check ~mode:Rewriter.Check_safe rw doc).Rewriter.ok
      then (Materialize, [])
      else
        let rep = Rewriter.check ~mode:Rewriter.Check_possible rw doc in
        if rep.Rewriter.ok then (Possible, [])
        else
          let reason, at =
            match rep.Rewriter.failures with
            | f :: _ ->
              (Fmt.str "%a" Rewriter.pp_reason f.Rewriter.reason, f.Rewriter.at)
            | [] -> ("no rewriting lands in the new schema", [])
          in
          ( Doomed reason,
            [
              D.make ~file:name ~code:"AXM042" ~severity:D.Error
                ~hint:
                  "no materialization can move this document: widen the new \
                   schema or re-author the document"
                (D.Node at)
                (Fmt.str "doomed after migration: %s" reason);
            ] )
    in
    Metrics.inc (documents_total (advisory_string advisory));
    { a_doc = name; a_advisory = advisory; a_calls = calls;
      a_diagnostics = ds }
  in
  let advisories = List.map advise docs in
  let diagnostics =
    List.sort D.compare (List.concat_map (fun a -> a.a_diagnostics) advisories)
  in
  observe_diagnostics diagnostics;
  { g_k = k; g_advisories = advisories;
    g_migratable =
      List.for_all
        (fun a ->
          match a.a_advisory with
          | Conforms | Materialize -> true
          | Possible | Doomed _ -> false)
        advisories;
    g_diagnostics = diagnostics }

(* ------------------------------------------------------------------ *)
(* JSON reports: one envelope for diff / migrate / compat              *)

module Json = Axml_obs.Json

let str s = Json.String s
let strings ss = Json.List (List.map str ss)
let path_json path = Json.List (List.map (fun i -> Json.Int i) path)

let envelope ~command ?from_file ?to_file ~k fields ds =
  Json.Obj
    ((("command", str command) :: Json.opt "from" str from_file)
    @ Json.opt "to" str to_file
    @ [ ("k", Json.Int k) ]
    @ fields @ D.report_fields ds)

let presence_change = function
  | Both c -> change_to_string c
  | Only_v1 -> "removed"
  | Only_v2 -> "added"

let label_json ld =
  Json.Obj
    ([ ("label", str ld.l_label); ("change", str (presence_change ld.l_presence)) ]
    @ (if ld.l_new_calls = [] then [] else [ ("new_calls", strings ld.l_new_calls) ])
    @ Json.opt "witness" (fun w -> str (Fmt.str "%a" pp_word w)) ld.l_witness)

let func_json fd =
  Json.Obj
    [ ("function", str fd.f_func);
      ("change", str (presence_change fd.f_presence));
      ("input", str (change_to_string fd.f_input));
      ("output", str (change_to_string fd.f_output));
      ("invocable_v1", Json.Bool fd.f_invocable_v1);
      ("invocable_v2", Json.Bool fd.f_invocable_v2) ]

let verdict_string = function
  | Contract.Safe -> "safe"
  | Contract.Possible_only -> "possible"
  | Contract.Impossible -> "impossible"

let depth_json = function None -> Json.Null | Some d -> Json.Int d

let verdict_json v =
  Json.Obj
    [ ("label", str v.v_label);
      ("verdict", str (verdict_string v.v_verdict));
      ("safe_at", depth_json v.v_safe_at);
      ("possible_at", depth_json v.v_possible_at) ]

let report_to_json ?from_file ?to_file r =
  envelope ~command:"diff" ?from_file ?to_file ~k:r.r_k
    [ ("labels", Json.List (List.map label_json r.r_labels));
      ("functions", Json.List (List.map func_json r.r_functions));
      ("verdicts", Json.List (List.map verdict_json r.r_verdicts));
      ("conflicts", strings r.r_conflicts) ]
    r.r_diagnostics

let call_json (path, name) = Json.Obj [ ("path", path_json path); ("name", str name) ]

let doc_advisory_json a =
  Json.Obj
    ([ ("doc", str a.a_doc); ("advisory", str (advisory_string a.a_advisory)) ]
    @ (if a.a_calls = [] then [] else [ ("calls", Json.List (List.map call_json a.a_calls)) ])
    @
    match a.a_advisory with
    | Doomed reason -> [ ("reason", str reason) ]
    | Conforms | Materialize | Possible -> [])

let migration_to_json ?from_file ?to_file g =
  envelope ~command:"migrate" ?from_file ?to_file ~k:g.g_k
    [ ("documents", Json.List (List.map doc_advisory_json g.g_advisories));
      ("migratable", Json.Bool g.g_migratable) ]
    g.g_diagnostics

let compat_to_json ?from_file ?to_file ~k (r : Schema_rewrite.result) =
  let verdict_json v =
    Json.Obj
      ([ ("label", str v.v_label); ("safe", Json.Bool (v.v_verdict = Contract.Safe)) ]
      @ Json.opt "reason" str v.v_reason)
  in
  envelope ~command:"compat" ?from_file ?to_file ~k
    [ ("verdicts", Json.List (List.map verdict_json r.Schema_rewrite.verdicts));
      ("compatible", Json.Bool r.Schema_rewrite.compatible) ]
    []
