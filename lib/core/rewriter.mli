(** The full rewriting engine of Sections 3-5: given a document (or a
    word) of the sender schema [s0] and an agreed exchange schema
    [target], decide safe / possible rewritability and materialize the
    document accordingly.

    A rewriter is a compiled {!Contract}: every word-level analysis is
    one pass over the contract's win tables ({!Win}), and every content
    model is stepped through the contract's one {!Validate.ctx}.
    Build the contract yourself ({!Contract.create} + {!of_contract}) to
    share it across enforcement pipelines and batches; or let {!create}
    build a private one.

    The tree algorithm follows Section 4: parameters of function nodes
    are rewritten against their [tau_in] before the function may fire
    (deepest first); every node's children word is rewritten against the
    content model of its type. Materialization carries the remaining
    rewriting budget (Definition 7): the top of the document runs at the
    contract's k, and a forest returned by a round-r invocation is
    re-enforced at depth k-r — at depth 1 returned forests are spliced
    in as-is (footnote 5). *)

type t = Contract.t

val create :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> target:Axml_schema.Schema.t -> unit -> t
(** [k] is the rewriting depth (Definition 7, default 1); [predicate]
    answers function-pattern predicates. Compiles a private contract
    ({!Contract.create}, which calls [predicate]).
    @raise Axml_schema.Schema.Schema_error as {!Contract.create}. *)

val of_contract : Contract.t -> t
(** The contract itself, as a rewriter. *)

val contract : t -> Contract.t

val env : t -> Axml_schema.Schema.env

(** {1 Tree-level verdicts} *)

type reason =
  | Unknown_element of string
  | Unknown_function of string
  | Unsafe_word of { context : string; word : Axml_schema.Symbol.t list }
  | Impossible_word of { context : string; word : Axml_schema.Symbol.t list }
  | Root_mismatch of { expected : string; found : string }
  | Execution_failed of { context : string }
      (** a possible rewriting died on the actual answers *)
  | Unrewritable_output of { context : string; fname : string }
      (** a service's (well-typed) result could not be rewritten into
          the target within the remaining depth budget — a genuine
          k-bounded verdict, not a fault; raising k may clear it *)
  | Ill_typed_service of { context : string; fname : string }
      (** a service broke its declared output type (the offender is
          identified by re-validating cached results, see
          {!Execute.run}) *)
  | Service_failure of
      { context : string; fname : string; attempts : int; message : string }
      (** a service call raised / gave up after [attempts] tries *)
  | Invariant_failure of { context : string; detail : string }
      (** the engine contradicted its own analysis *)
  | Invalid_root_forest of { width : int }
      (** pre-materializing the root returned [width] <> 1 roots *)
  | Not_instance of { detail : string }
      (** a received document is not an instance of the exchange schema
          (or not a document at all); [detail] is the violation text,
          printed as it is *)

type failure = { at : Document.path; reason : reason }

val pp_reason : reason Fmt.t
val pp_failure : failure Fmt.t

val failure_is_fault : failure -> bool
(** Environment faults (service misbehaviour, engine invariant breach)
    as opposed to genuine rewritability verdicts. Fault failures should
    not downgrade a document to "not rewritable" — they are transient
    or infrastructural. *)

type mode = Win.kind = Safe | Possible
(** Which rewriting {!materialize} runs: one the win tables guarantee,
    or one that may succeed on the actual answers. *)

(** {2 The static check}

    Pick the mode, get a structured report (verdict and failures);
    the win-table activity the check caused is the change in
    {!Contract.stats}. Word-level questions go to the {!Contract}
    entry points on {!contract}. *)

type check_mode =
  | Check_safe       (** every children word must rewrite {e safely} *)
  | Check_possible   (** every children word must rewrite {e possibly} *)
  | Check_mixed of {
      eager_calls : string -> bool;
      invoker : Execute.invoker;
    }
    (** Section 5: pre-fire the [eager_calls] services, then check
        safely on what remains. *)

type check_report = {
  ok : bool;                 (** [failures = []] *)
  failures : failure list;   (** prefix order *)
}

val check : ?mode:check_mode -> t -> Document.t -> check_report
(** Static check at the contract's rewriting depth, no invocation
    (except the eager calls of [Check_mixed]). Default mode is
    [Check_safe]. *)

(** {1 Materialization} *)

type located_invocation = { at : Document.path; invocation : Execute.invocation }

exception Failed of failure

val materialize :
  ?mode:mode -> t -> invoker:Execute.invoker -> Document.t ->
  (Document.t * located_invocation list, failure list) result
(** In [Safe] mode success is guaranteed once the check passes and the
    services behave; service misbehaviour surfaces as a typed fault
    ([Ill_typed_service] / [Service_failure], see {!failure_is_fault})
    instead of an exception. In [Possible] mode a run-time failure
    surfaces as [Execution_failed].

    The walk starts at the contract's rewriting depth. At depth > 1
    every returned forest is re-enforced against the remaining budget
    (depth − 1) before being spliced in; a result no budget can
    rewrite makes the walk backtrack, and if no path survives the
    failure is [Unrewritable_output]. At depth 1 results are spliced
    as returned (footnote 5). *)

(** {1 Document-level minimal-k} *)

type doc_minimal = {
  safe_k : int option;
      (** smallest k at which every children word checks safe *)
  possible_k : int option;
      (** smallest k at which every children word checks possible *)
}

val minimal_k : t -> Document.t -> doc_minimal
(** The smallest rewriting depth at which the {e static} check of the
    whole document passes, i.e. the max over its words' per-word
    minima ({!Contract.minimal_k}); [None] when some word stays
    unsafe/impossible even at the contract's k, or
    when the document mentions unknown labels/functions or the wrong
    root — those no depth can fix. A capacity-planning signal:
    [Enforcement.Pipeline.minimal_k] counts it in
    [axml_enforce_min_k_total]. *)

(** {1 The mixed approach (Section 5)} *)

val pre_materialize :
  t -> eager_calls:(string -> bool) -> invoker:Execute.invoker ->
  Document.t -> (Document.t * located_invocation list, failure) result
(** Invoke up-front every call whose function satisfies [eager_calls]
    (recursively, budget-bounded), splicing actual results: the concrete
    answers replace the signature automata, shrinking A_w^k. Eager
    calls hit real services, so their failures come back as typed
    [Error] faults ([Service_failure], or [Invalid_root_forest] when the
    root call expands to a non-singleton forest) instead of escaping.
    {!materialize} on the result completes the mixed rewriting. *)
