(** Schema evolution analysis: what changed between two versions of a
    schema, what the change does to exchangeability, and what a
    document corpus must materialize to move.

    The paper reduces schema-to-schema compatibility to document
    rewriting (Section 6); evolving a deployed exchange schema from v1
    to v2 asks three successively deeper questions, all decidable from
    the same Glushkov automata the linter already compiles (the
    approach of "Ensuring Query Compatibility with Evolving XML
    Schemas", arXiv:0811.4324, and "Automata-based Static Analysis of
    XML Document Adaptations", arXiv:1210.2453):

    - {b per-label classification} ({!classify}, {!diff}): for each
      label declared by both versions, compare the compiled content
      models by DFA inclusion both ways — {e identical} /
      {e widened} (v2 accepts strictly more) / {e narrowed} (v2
      refuses words v1 accepted) / {e incompatible} (neither
      contains the other). Function signatures and invocability are
      compared the same way.
    - {b verdict lift} ({!diff}): a narrowing at one label can flip
      the {e contract-level} verdict of an ancestor. The paper's
      Section 6 reduction ({!Axml_core.Schema_rewrite.check}) runs on
      the pair's contract (v1 as sender, v2 as target): for each
      reachable label [l] of v1, a representative call with output
      [tau_1(l)] is analyzed against v2's model of [l] with one extra
      depth level. Under v1 → v1 every label is trivially safe, so any
      non-[Safe] verdict is a regression introduced by the evolution
      (AXM041).
    - {b migration advisory} ({!migrate}): for each archived document,
      whether it already conforms to v2, rewrites safely after
      materializing a named set of calls, rewrites only possibly, or
      cannot migrate at all (AXM042).

    Findings flow through the existing {!Diagnostic} machinery as
    stable AXM04x codes; see [LINTING.md] for the catalog. Both entry
    points count runs and observe wall-clock seconds under
    [axml_evolution_*] metrics and run under ["diff"] / ["migrate"]
    trace spans (see [OBSERVABILITY.md]). *)

(** How a content model (or signature component) evolved, decided by
    Glushkov-DFA inclusion over the union alphabet. *)
type change =
  | Identical     (** same language *)
  | Widened       (** v2 accepts a strict superset: compatible widening *)
  | Narrowed      (** v2 refuses words v1 accepted *)
  | Incompatible  (** neither language contains the other *)

val change_to_string : change -> string

val classify :
  Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t Axml_regex.Regex.t -> change
(** [classify r1 r2]: how the language of [r2] relates to the language
    of [r1] ([r1] is the old model). Inclusion both ways via
    [Auto.Dfa.subset] over the union alphabet. *)

(** Whether a declaration exists in both versions or only one. *)
type presence =
  | Both of change  (** declared by both; for functions, the worst of
                        the input/output changes *)
  | Only_v1         (** removed by the evolution *)
  | Only_v2         (** added by the evolution *)

type label_diff = {
  l_label : string;
  l_presence : presence;
  l_new_calls : string list;
      (** function names v2's model mentions that v1's never did —
          calls a widened model silently starts accepting (AXM043) *)
  l_witness : Axml_schema.Symbol.t list option;
      (** for narrowed/incompatible labels: a shortest children word
          v1 accepted and v2 refuses *)
}

type func_diff = {
  f_func : string;
  f_presence : presence;
  f_input : change;        (** [Identical] unless present in both *)
  f_output : change;
  f_invocable_v1 : bool;
  f_invocable_v2 : bool;
}

(** The Section 6 verdict of exchanging v1-documents of one type under
    v2 ({!Axml_core.Schema_rewrite.check} on the pair's contract).
    [v_safe_at] is the smallest rewriting depth at which the type is
    safe under v2 ([Some 0]: safe with no materialization headroom);
    [None] when not safe even at the configured [k]. *)
type verdict_lift = Axml_core.Schema_rewrite.label_verdict = {
  v_label : string;
  v_verdict : Axml_core.Contract.verdict;
  v_safe_at : int option;
  v_possible_at : int option;
  v_reason : string option;
}

type report = {
  r_k : int;                       (** rewriting depth of the lift *)
  r_labels : label_diff list;
  r_functions : func_diff list;
  r_verdicts : verdict_lift list;  (** labels reachable in v1 and
                                       declared by both versions; empty
                                       when v1 has no root or the pair
                                       has signature conflicts *)
  r_conflicts : string list;
      (** functions whose signature language changed: the merged
          contract of the pair cannot be built, so the verdict lift is
          skipped (each is also an AXM044 error) *)
  r_diagnostics : Diagnostic.t list;  (** sorted with {!Diagnostic.compare} *)
}

val diff :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  ?from_file:string ->
  ?from_positions:Axml_schema.Schema_parser.pos Axml_schema.Schema.String_map.t ->
  ?to_file:string ->
  ?to_positions:Axml_schema.Schema_parser.pos Axml_schema.Schema.String_map.t ->
  v1:Axml_schema.Schema.t -> v2:Axml_schema.Schema.t -> unit -> report
(** Diff two versions of one schema. [k] (default 1) is the rewriting
    depth of the verdict lift. Positions (from
    [Schema_parser.parse_with_positions]) attach [file:line:col] to
    each finding: label findings are attributed to the {e new}
    version's declaration ([to_file]/[to_positions]), removals to the
    old one. Declarations that fail to compile are skipped, never
    crashed on. Diagnostics emitted: AXM040 (narrowed or removed
    label), AXM041 (verdict regression), AXM043 (widening newly
    accepting calls), AXM044 (function signature change). *)

(** What a document needs in order to live under the new schema. *)
type advisory =
  | Conforms
      (** already an instance of v2 as-is — ship it unchanged *)
  | Materialize
      (** rewrites {e safely} once the named calls are materialized *)
  | Possible
      (** only a possible rewriting exists: materializing may work,
          but some service answers lead outside v2 *)
  | Doomed of string
      (** no rewriting at all; the payload says why (AXM042) *)

type doc_advisory = {
  a_doc : string;  (** the document's name (file path) *)
  a_advisory : advisory;
  a_calls : (Axml_core.Document.path * string) list;
      (** the exact calls to materialize: occurrences whose symbol the
          context's v2 content model does not accept, so they cannot
          remain embedded (document order) *)
  a_diagnostics : Diagnostic.t list;
}

type migration = {
  g_k : int;
  g_advisories : doc_advisory list;  (** input order *)
  g_migratable : bool;
      (** every document is [Conforms] or [Materialize] *)
  g_diagnostics : Diagnostic.t list;  (** all AXM042s, sorted *)
}

val migrate :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  v1:Axml_schema.Schema.t -> v2:Axml_schema.Schema.t ->
  (string * Axml_core.Document.t) list -> migration
(** Advise a corpus of archived v1-documents on moving to v2. Each
    document is validated against v2 as-is, then checked for safe and
    possible rewritability under the (v1, v2, k) contract; the calls
    to materialize are named per document.
    @raise Axml_schema.Schema.Schema_error when v1 and v2 disagree on
    a common function signature (run {!diff} first: the conflicts are
    reported there as AXM044 errors). *)

(** {1 JSON reports}

    One envelope shared by [axml diff], [axml migrate] and
    [axml compat]: [command], [from], [to], [k], the command's payload
    arrays, [diagnostics] (the {!Diagnostic.to_json} objects) and a
    severity [summary] ({!Diagnostic.report_fields}). Parsed back by
    the test suite's independent JSON reader. *)

val report_to_json :
  ?from_file:string -> ?to_file:string -> report -> Axml_obs.Json.t
val migration_to_json :
  ?from_file:string -> ?to_file:string -> migration -> Axml_obs.Json.t

val compat_to_json :
  ?from_file:string -> ?to_file:string -> k:int ->
  Axml_core.Schema_rewrite.result -> Axml_obs.Json.t
(** The same envelope for the Section 6 whole-schema check, so tooling
    consumes all three commands uniformly. *)
