module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module Contract = Axml_core.Contract
module Document = Axml_core.Document
module Schema_rewrite = Axml_core.Schema_rewrite
module Validate = Axml_core.Validate
module D = Diagnostic
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace

(* ------------------------------------------------------------------ *)
(* Observability: every pass counts its runs and findings and observes
   its wall-clock time, under a "lint" trace span.                     *)

let runs_total pass =
  Metrics.counter ~help:"Lint pass executions"
    ~labels:[ ("pass", pass) ] "axml_lint_runs_total"

let diagnostics_total severity =
  Metrics.counter ~help:"Diagnostics emitted by lint passes"
    ~labels:[ ("severity", severity) ] "axml_lint_diagnostics_total"

let pass_seconds pass =
  Metrics.histogram ~help:"Wall-clock seconds per lint pass"
    ~labels:[ ("pass", pass) ] "axml_lint_seconds"

let instrumented pass f =
  Metrics.inc (runs_total pass);
  let ds =
    Metrics.time (pass_seconds pass) (fun () ->
        Trace.with_span ~detail:(fun () -> pass) "lint" f)
  in
  List.iter
    (fun (d : D.t) ->
      Metrics.inc (diagnostics_total (Fmt.str "%a" D.pp_severity d.severity)))
    ds;
  List.sort D.compare ds

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let pp_model = R.pp Auto.pp_sym

let sym_set r =
  List.fold_left
    (fun acc s -> Auto.Sym_set.add s acc)
    Auto.Sym_set.empty (R.symbols r)

(* Top-level alternative branches, left to right ([] unless the regex
   is an alternation). *)
let alt_branches r =
  let rec go acc = function R.Alt (a, b) -> go (go acc a) b | r -> r :: acc in
  match r with R.Alt _ -> List.rev (go [] r) | _ -> []

(* Branches (1-based index, from the second on) whose language is
   contained in the union of the earlier branches: removing them
   preserves the language. *)
let redundant_branches r =
  match alt_branches r with
  | [] | [ _ ] -> []
  | first :: rest ->
    let rec go covered idx acc = function
      | [] -> List.rev acc
      | b :: tl ->
        let db = Auto.Dfa.of_regex b in
        let dcov = Auto.Dfa.of_regex covered in
        let acc =
          if Auto.Dfa.is_empty (Auto.Dfa.difference db dcov) then
            (idx, b) :: acc
          else acc
        in
        go (R.alt covered b) (idx + 1) acc tl
    in
    go first 2 [] rest

(* ------------------------------------------------------------------ *)
(* Regex level: AXM001 / AXM002 / AXM003                               *)

let compiled_rules ?file ?pos ~subject r =
  let d ?hint code severity message =
    D.make ?file ?pos ?hint ~code ~severity subject message
  in
  if R.is_empty_language r then
    [
      d "AXM001" D.Error
        ~hint:
          "a pattern with no matching member expands to the empty \
           language; fix the pattern or the declaration"
        (Fmt.str
           "content model %a is the empty language: no children word can \
            ever validate" pp_model r);
    ]
  else
    let ambiguity =
      if Auto.deterministic_regex r then []
      else
        [
          d "AXM002" D.Warning
            ~hint:
              "rewrite so that each next symbol decides the next position \
               (XML-Schema 1-unambiguity)"
            (Fmt.str
               "content model %a is not 1-unambiguous; the paper's \
                polynomial rewriting bound (Section 5.2) relies on \
                deterministic content models" pp_model r);
        ]
    in
    let redundancy =
      List.map
        (fun (idx, b) ->
          d "AXM003" D.Warning
            ~hint:"remove the branch; the language is unchanged"
            (Fmt.str
               "alternative branch %d (%a) is subsumed by the earlier \
                branches" idx pp_model b))
        (redundant_branches r)
    in
    ambiguity @ redundancy

let lint_compiled ?file ?pos ~subject r =
  instrumented "regex" (fun () -> compiled_rules ?file ?pos ~subject r)

(* ------------------------------------------------------------------ *)
(* Schema level                                                        *)

(* Least fixpoint of "label admits a finite document": a label is
   inhabited once its content model has a word whose every label symbol
   is already inhabited (data and calls are finite leaves; labels the
   schema does not declare are someone else's problem — Schema.check
   flags them — and treated as inhabited to avoid double reports). *)
let inhabited_labels env s =
  let declared = Schema.String_set.of_list (Schema.element_names s) in
  let compiled =
    List.filter_map
      (fun l ->
        Option.map (fun r -> (l, r)) (Schema.compiled_element env s l))
      (Schema.element_names s)
  in
  let step inh =
    List.fold_left
      (fun acc (l, r) ->
        let r' =
          R.subst
            (function
              | Symbol.Data -> R.epsilon
              | Symbol.Fun _ -> R.epsilon
              | Symbol.Label l' ->
                if
                  (not (Schema.String_set.mem l' declared))
                  || Schema.String_set.mem l' inh
                then R.epsilon
                else R.empty)
            r
        in
        if R.is_empty_language r' then acc else Schema.String_set.add l acc)
      Schema.String_set.empty compiled
  in
  let rec fix inh =
    let inh' = step inh in
    if Schema.String_set.equal inh' inh then inh else fix inh'
  in
  fix Schema.String_set.empty

let lint_schema ?file ?positions ?predicate s =
  instrumented "schema" @@ fun () ->
  let env = Schema.env_of_schema ?predicate s in
  let pos_of name =
    Option.bind positions (fun m ->
        Option.map
          (fun (p : Axml_schema.Schema_parser.pos) ->
            { D.line = p.line; col = p.col })
          (Schema.String_map.find_opt name m))
  in
  let elements = Schema.String_map.bindings s.Schema.elements in
  let functions = Schema.String_map.bindings s.Schema.functions in
  let patterns = Schema.String_map.bindings s.Schema.patterns in
  let regex_level =
    (* The regex rules over every compiled content model and signature.
       Content that fails to compile (Schema.check territory) is
       skipped, never crashed on. *)
    let over subject name content compile =
      match compile content with
      | exception Schema.Schema_error _ -> []
      | r -> compiled_rules ?file ?pos:(pos_of name) ~subject r
    in
    List.concat_map
      (fun (l, content) ->
        over (D.Element l) l content (Schema.compile_content env))
      elements
    @ List.concat_map
        (fun (f, (fn : Schema.func)) ->
          over (D.Function f) f fn.Schema.f_input (Schema.compile_signature env)
          @ over (D.Function f) f fn.Schema.f_output
              (Schema.compile_signature env))
        functions
    @ List.concat_map
        (fun (p, (pat : Schema.pattern)) ->
          over (D.Pattern p) p pat.Schema.p_input (Schema.compile_content env)
          @ over (D.Pattern p) p pat.Schema.p_output
              (Schema.compile_content env))
        patterns
  in
  let inhabitation =
    let inh = inhabited_labels env s in
    List.filter_map
      (fun (l, content) ->
        match Schema.compile_content env content with
        | exception Schema.Schema_error _ -> None
        | r ->
          if R.is_empty_language r (* already AXM001 *) then None
          else if Schema.String_set.mem l inh then None
          else
            Some
              (D.make ?file ?pos:(pos_of l) ~code:"AXM011" ~severity:D.Error
                 ~hint:
                   "add a base case: an alternative that needs no further \
                    elements (e.g. #data or an optional branch)"
                 (D.Element l)
                 "element admits no finite document: every children word \
                  requires another uninhabited element"))
      elements
  in
  let reachability =
    match s.Schema.root with
    | None ->
      [
        D.make ?file ~code:"AXM014" ~severity:D.Hint
          ~hint:"add a 'root <name>' declaration" D.Root
          "schema declares no root; reachability and schema-compatibility \
           checks are skipped";
      ]
    | Some root ->
      let reach =
        Schema.String_set.of_list
          (root :: Schema_rewrite.reachable_labels env s root)
      in
      List.filter_map
        (fun (l, _) ->
          if Schema.String_set.mem l reach then None
          else
            Some
              (D.make ?file ?pos:(pos_of l) ~code:"AXM010" ~severity:D.Warning
                 ~hint:"reference it from the root or remove the declaration"
                 (D.Element l) "element is unreachable from the root"))
        elements
  in
  let never_referenced =
    let contents =
      List.map snd elements
      @ List.concat_map
          (fun (_, (fn : Schema.func)) ->
            [ fn.Schema.f_input; fn.Schema.f_output ])
          functions
      @ List.concat_map
          (fun (_, (pat : Schema.pattern)) ->
            [ pat.Schema.p_input; pat.Schema.p_output ])
          patterns
    in
    let atoms = List.concat_map Schema.atoms_of_content contents in
    let any_fun = List.mem Schema.A_any_fun atoms in
    let used_patterns =
      List.filter_map
        (function Schema.A_pattern p -> Some p | _ -> None)
        atoms
      |> Schema.String_set.of_list
    in
    let used_functions =
      (* Direct mentions, plus every member of a mentioned pattern. *)
      let direct =
        List.filter_map (function Schema.A_fun f -> Some f | _ -> None) atoms
      in
      let via_patterns =
        List.concat_map
          (fun (p, pat) ->
            if Schema.String_set.mem p used_patterns then
              List.map
                (fun (fn : Schema.func) -> fn.Schema.f_name)
                (Schema.pattern_members env pat)
            else [])
          patterns
      in
      Schema.String_set.of_list (direct @ via_patterns)
    in
    let unused subject name =
      D.make ?file ?pos:(pos_of name) ~code:"AXM012" ~severity:D.Warning
        ~hint:"use it in a content model or delete the declaration" subject
        "declared but never referenced by any content model or signature"
    in
    (if any_fun then []
     else
       List.filter_map
         (fun (f, _) ->
           if Schema.String_set.mem f used_functions then None
           else Some (unused (D.Function f) f))
         functions)
    @ List.filter_map
        (fun (p, _) ->
          if Schema.String_set.mem p used_patterns then None
          else Some (unused (D.Pattern p) p))
        patterns
  in
  regex_level @ inhabitation @ reachability @ never_referenced

(* ------------------------------------------------------------------ *)
(* Contract level                                                      *)

(* Can invoking [fn] ever produce a forest acceptable inside a context
   whose compiled model is [m]? Conservative: materialization is ruled
   out only when the output can never be empty, mentions no further
   calls (which could in turn be rewritten), and shares no symbol with
   the context's alphabet. *)
let materialization_ruled_out env name (fn : Schema.func) ~model_alphabet =
  (not fn.Schema.f_invocable)
  ||
  match Schema.compiled_output env name with
  | None -> true
  | Some out ->
    (not (R.nullable out))
    && List.for_all
         (function Symbol.Fun _ -> false | _ -> true)
         (R.symbols out)
    && Auto.Sym_set.is_empty (Auto.Sym_set.inter (sym_set out) model_alphabet)

(* Function symbols that can actually occur in a document of [s],
   i.e. are mentioned by some content model or signature (expanding
   wildcards and patterns) — unlike [Schema.alphabet], a merely
   declared but never referenced function does not count. *)
let occurring_functions env (s : Schema.t) =
  let contents =
    List.map snd (Schema.String_map.bindings s.Schema.elements)
    @ List.concat_map
        (fun (_, (fn : Schema.func)) -> [ fn.Schema.f_input; fn.Schema.f_output ])
        (Schema.String_map.bindings s.Schema.functions)
    @ List.concat_map
        (fun (_, (p : Schema.pattern)) -> [ p.Schema.p_input; p.Schema.p_output ])
        (Schema.String_map.bindings s.Schema.patterns)
  in
  List.fold_left
    (fun acc atom ->
      match atom with
      | Schema.A_fun f -> Auto.Sym_set.add (Symbol.Fun f) acc
      | Schema.A_any_fun ->
        Schema.String_map.fold
          (fun f _ acc -> Auto.Sym_set.add (Symbol.Fun f) acc)
          env.Schema.env_functions acc
      | Schema.A_pattern p ->
        (match Schema.String_map.find_opt p env.Schema.env_patterns with
         | None -> acc
         | Some pat ->
           List.fold_left
             (fun acc (fn : Schema.func) ->
               Auto.Sym_set.add (Symbol.Fun fn.Schema.f_name) acc)
             acc (Schema.pattern_members env pat))
      | _ -> acc)
    Auto.Sym_set.empty
    (List.concat_map Schema.atoms_of_content contents)

let lint_contract c =
  instrumented "contract" @@ fun () ->
  let env = Contract.env c in
  let s0 = Contract.s0 c in
  let target = Contract.target c in
  let sender_alpha = occurring_functions env s0 in
  let target_alpha = occurring_functions env target in
  let sender_models =
    List.filter_map
      (fun l ->
        Option.map (fun r -> (l, r)) (Schema.compiled_element env s0 l))
      (Schema.element_names s0)
  in
  (* Materialization depth demanded by a function's declared output
     (AXM032). [Some d]: fully flattening a call to this function needs
     [d] rewriting levels in the worst case (1 = the output is already
     extensional); [None]: the embeds-a-call relation is cyclic and no
     finite budget suffices. Label symbols in an output are expanded
     through their content models, so a call embedded two elements down
     still counts. *)
  let output_depth =
    let compiled_label l =
      match Schema.compiled_element env s0 l with
      | Some r -> Some r
      | None -> Schema.compiled_element env target l
    in
    let embedded_invocables r =
      let seen = ref Schema.String_set.empty in
      let funs = ref Schema.String_set.empty in
      let rec visit r =
        List.iter
          (function
            | Symbol.Fun f ->
              (match Schema.String_map.find_opt f env.Schema.env_functions with
               | Some (fn : Schema.func) when fn.Schema.f_invocable ->
                 funs := Schema.String_set.add f !funs
               | _ -> ())
            | Symbol.Label l ->
              if not (Schema.String_set.mem l !seen) then begin
                seen := Schema.String_set.add l !seen;
                Option.iter visit (compiled_label l)
              end
            | Symbol.Data -> ())
          (R.symbols r)
      in
      visit r;
      !funs
    in
    let memo = Hashtbl.create 16 in
    (* A stack hit means a genuine cycle in the embeds relation: every
       function on (or reaching) it has unbounded depth, so memoizing
       [None] for them is exact, not an artifact of the traversal. *)
    let rec depth stack name =
      match Hashtbl.find_opt memo name with
      | Some d -> d
      | None ->
        let d =
          if Schema.String_set.mem name stack then None
          else
            match Schema.compiled_output env name with
            | None -> Some 1
            | Some out ->
              let stack = Schema.String_set.add name stack in
              Schema.String_set.fold
                (fun g acc ->
                  match (acc, depth stack g) with
                  | None, _ | _, None -> None
                  | Some a, Some dg -> Some (max a (1 + dg)))
                (embedded_invocables out) (Some 1)
        in
        Hashtbl.replace memo name d;
        d
    in
    fun name -> depth Schema.String_set.empty name
  in
  let per_function (name, (fn : Schema.func)) =
    let sym = Symbol.Fun name in
    let in_sender = Auto.Sym_set.mem sym sender_alpha in
    let in_target = Auto.Sym_set.mem sym target_alpha in
    let dead_invocable =
      if fn.Schema.f_invocable && not in_sender then
        [
          D.make ~code:"AXM023" ~severity:D.Warning
            ~hint:"declare it noninvocable, or mention it in the sender schema"
            (D.Function name)
            "invocable function never occurs in a sender document";
        ]
      else []
    in
    let always_materialize =
      if in_sender && not in_target then
        [
          D.make ~code:"AXM022" ~severity:D.Hint (D.Function name)
            "absent from the target schema: every occurrence must be \
             materialized before the exchange";
        ]
      else []
    in
    let depth_gap =
      if not (fn.Schema.f_invocable && in_sender) then []
      else
        let k = Contract.k c in
        match output_depth name with
        | Some d when d <= k -> []
        | verdict ->
          let message, hint =
            match verdict with
            | Some d ->
              ( Fmt.str
                  "declared output can embed invocable calls %d level(s) \
                   deep, but the contract enforces at k=%d: a materialized \
                   result may still carry calls the receiver will refuse"
                  (d - 1) k,
                Fmt.str
                  "raise the rewriting depth to k=%d, or make the output \
                   type extensional" d )
            | None ->
              ( Fmt.str
                  "declared output can embed invocable calls at unbounded \
                   depth (the embeds-a-call relation is cyclic); no finite \
                   budget (configured k=%d) guarantees extensional results"
                  k,
                "break the cycle in the output types, or declare the inner \
                 functions noninvocable" )
          in
          [
            D.make ~code:"AXM032" ~severity:D.Warning ~hint (D.Function name)
              message;
          ]
    in
    let never_safe =
      if not in_sender then []
      else
        (* Contexts the call can occur in: sender labels whose content
           model mentions it and that the target schema also declares. *)
        let contexts =
          List.filter_map
            (fun (l, r_s) ->
              if List.mem sym (R.symbols r_s) then
                Option.map
                  (fun m -> (l, r_s, m))
                  (Contract.element_regex c l)
              else None)
            sender_models
        in
        if contexts = [] then []
        else
          let doomed_everywhere =
            (* Sound alphabet argument: the call can neither remain in
               nor materialize into ANY of its contexts, so every
               sender document containing it is unexchangeable. *)
            List.for_all
              (fun (_, _, m) ->
                let malpha = sym_set m in
                (not (Auto.Sym_set.mem sym malpha))
                && materialization_ruled_out env name fn
                     ~model_alphabet:malpha)
              contexts
          in
          if doomed_everywhere then
            [
              D.make ~code:"AXM021" ~severity:D.Error
                ~hint:
                  "align the schemas: let the target keep the call, or \
                   give the function an output the target accepts"
                (D.Function name)
                "never safe: in every context the call may occur in, it \
                 can neither remain nor materialize into the target \
                 content model";
            ]
          else
            (* Witness check, through the contract's win tables:
               wherever the sender admits a document whose children are
               the lone call, must that minimal document be refused? *)
            let lone_call_contexts =
              List.filter
                (fun (_, r_s, _) ->
                  Auto.Dfa.accepts (Auto.Dfa.of_regex r_s) [ sym ])
                contexts
            in
            if lone_call_contexts = [] then []
            else if
              List.exists
                (fun (_, _, m) -> Contract.is_safe c ~target_regex:m [ sym ])
                lone_call_contexts
            then []
            else
              let possible =
                List.exists
                  (fun (_, _, m) ->
                    Contract.is_possible c ~target_regex:m [ sym ])
                  lone_call_contexts
              in
              let severity = if possible then D.Warning else D.Error in
              [
                D.make ~code:"AXM021" ~severity
                  ~hint:"raise the rewriting depth k or align the schemas"
                  (D.Function name)
                  (if possible then
                     "a minimal sender document holding only this call has \
                      no safe rewriting (a possible one exists)"
                   else
                     "a minimal sender document holding only this call has \
                      no rewriting at all");
              ]
    in
    dead_invocable @ always_materialize @ depth_gap @ never_safe
  in
  let per_label =
    match s0.Schema.root with
    | None -> []
    | Some root ->
      List.filter_map
        (fun (v : Schema_rewrite.label_verdict) ->
          if v.Schema_rewrite.v_verdict = Contract.Safe then None
          else
            Some
              (D.make ~code:"AXM020" ~severity:D.Error
                 (D.Schema_pair v.Schema_rewrite.v_label)
                 (Fmt.str
                    "this type has no safe rewriting strategy%a"
                    Fmt.(
                      option (fun ppf r -> Fmt.pf ppf ": %s" r))
                    v.Schema_rewrite.v_reason)))
        (Schema_rewrite.check c ~root).Schema_rewrite.verdicts
  in
  List.concat_map per_function (Schema.String_map.bindings env.Schema.env_functions)
  @ per_label

(* ------------------------------------------------------------------ *)
(* Document level                                                      *)

let lint_document c doc =
  instrumented "document" @@ fun () ->
  let env = Contract.env c in
  let diagnose rev_path (node : Document.t) _own enclosing acc =
    match node with
    | Document.Data _ | Document.Elem _ -> acc
    | Document.Call { name; _ } ->
      (match Schema.String_map.find_opt name env.Schema.env_functions, enclosing with
       | None, _ ->
         D.make ~code:"AXM030" ~severity:D.Error
           ~hint:"declare the function in a schema or drop the call"
           (D.Node (List.rev rev_path))
           (Fmt.str "call to '%s', which neither schema declares" name)
         :: acc
       | Some fn, Some (m : Validate.model) ->
         let malpha = sym_set m.Validate.regex in
         if
           (not (Auto.Sym_set.mem (Symbol.Fun name) malpha))
           && materialization_ruled_out env name fn ~model_alphabet:malpha
         then
           D.make ~code:"AXM031" ~severity:D.Error
             ~hint:
               "the rewriter will reject this document; fix the call or \
                the schemas"
             (D.Node (List.rev rev_path))
             (Fmt.str
                "call to '%s' can never contribute: it may neither remain \
                 in nor materialize into its context" name)
           :: acc
         else acc
       | Some _, None -> acc)
  in
  List.rev (Validate.fold (Contract.ctx c) diagnose doc [])
