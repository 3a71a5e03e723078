(** Static diagnostics over schemas, exchange contracts and intensional
    documents.

    Everything the Schema Enforcement module would discover at exchange
    time that is already decidable from the automata built at compile
    time (Sections 4–7 of the paper) is surfaced here ahead of time as
    {!Diagnostic.t}s:

    - {b regex level} ({!lint_compiled}): empty-language content
      models (AXM001), 1-unambiguity violations (AXM002), alternative
      branches subsumed by earlier ones (AXM003);
    - {b schema level} ({!lint_schema}): the regex rules over every
      content model and signature, plus elements unreachable from the
      root (AXM010), elements admitting no finite document (AXM011),
      functions/patterns never referenced (AXM012), missing root
      (AXM014);
    - {b contract level} ({!lint_contract}): per-function verdicts —
      never-safe (AXM021), always-materialize (AXM022), dead-invocable
      (AXM023), output deeper than the rewriting budget (AXM032: the
      function's declared output can embed invocable calls — expanding
      element labels through their content models — at a nesting depth
      exceeding the contract's configured k, so even a successful
      materialization may return a forest the receiver refuses) — and
      per-label schema-compatibility verdicts of [Schema_rewrite.check]
      on the contract itself (AXM020), which run outside its analysis
      cache and leave its counters as they were. The word analyses
      behind AXM021 run through
      [Contract.is_safe]/[is_possible] and therefore fill the
      contract's existing win tables;
    - {b document level} ({!lint_document}): calls to undeclared
      functions (AXM030) and calls that can neither remain in nor
      materialize into their context's content model (AXM031).

    Every pass increments [axml_lint_runs_total{pass}] and
    [axml_lint_diagnostics_total{severity}], observes
    [axml_lint_seconds{pass}], and runs under a ["lint"] trace span.
    Results come back sorted with {!Diagnostic.compare}. Passes never
    raise on well-formed inputs (property-tested); content models that
    fail to compile are skipped, not crashed on. *)

val lint_compiled :
  ?file:string -> ?pos:Diagnostic.pos -> subject:Diagnostic.subject ->
  Axml_schema.Symbol.t Axml_regex.Regex.t -> Diagnostic.t list
(** The regex-level rules (AXM001/002/003) over one compiled content
    model, attributed to [subject]. AXM003 inspects top-level
    alternative branches only. *)

val lint_schema :
  ?file:string ->
  ?positions:Axml_schema.Schema_parser.pos Axml_schema.Schema.String_map.t ->
  ?predicate:(string -> string -> bool) ->
  Axml_schema.Schema.t -> Diagnostic.t list
(** All schema-local rules. [positions] (from
    [Schema_parser.parse_with_positions]) attaches source line/col to
    each finding's declaration; [predicate] answers function-pattern
    predicates when expanding patterns (default: accept everything). *)

val lint_contract : Axml_core.Contract.t -> Diagnostic.t list
(** The contract-level rules (AXM020–AXM023, AXM032) for a compiled
    exchange contract. The schema-compatibility pass (AXM020) needs the
    sender schema to declare a root; it is skipped (schema lint reports
    AXM014) otherwise. AXM032 compares each invocable sender function's
    output-call depth against the contract's k (see {!Axml_core.Contract.k}). *)

val lint_document :
  Axml_core.Contract.t -> Axml_core.Document.t -> Diagnostic.t list
(** The document-level rules (AXM030/AXM031) for one document under a
    contract. *)
