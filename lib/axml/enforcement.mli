(** The Schema Enforcement module (Section 7): the component on every
    peer's communication path that guarantees exchanged data matches the
    agreed schema. Its three steps: (i) verify; (ii) if needed, rewrite —
    safely, optionally falling back to a possible rewriting; (iii)
    otherwise report an error. The mixed approach of Section 5 is a
    strategy of the analysis ({!Axml_core.Rewriter.Check_mixed}).

    Enforcement guards a {e path}, not a document: the same (s0,
    exchange) pair is enforced against streams of documents. {!Pipeline}
    compiles the pair once (validation context + exchange
    {!Axml_core.Contract}) and amortizes the static analysis across the
    stream; the one-shot {!enforce} is a pipeline of one document.

    {!config} is the one enforcement configuration: a pipeline, a peer
    ([Peer.config] re-exports this record) and a served peer are all
    set up with it. *)

type config = {
  k : int;  (** maximum rewriting depth (Definition 7) *)
  fallback_possible : bool;
    (** attempt a possible rewriting when no safe one exists *)
  resilience : Axml_services.Resilience.t option;
    (** wrap every invocation in a retry/timeout/circuit-breaker guard;
        its counters are {!Axml_services.Resilience.total} of the
        guard *)
}

val default_config : config
(** [k = 1], no fallback, no resilience guard. *)

type action =
  | Conformed           (** already an instance, nothing invoked *)
  | Rewritten           (** safe rewriting *)
  | Rewritten_possible  (** possible rewriting that succeeded *)

type report = {
  action : action;
  invocations : Axml_core.Rewriter.located_invocation list;
}

type error =
  | Rejected of Axml_core.Rewriter.failure list
    (** step (iii): the document is not rewritable under this config *)
  | Attempt_failed of Axml_core.Rewriter.failure list
    (** a possible rewriting failed at run time *)
  | Service_fault of Axml_core.Rewriter.failure list
    (** the environment's fault, not the document's: a service broke its
        output contract, failed past its retry policy, or an engine
        invariant was violated (see
        {!Axml_core.Rewriter.failure_is_fault}). The document may well
        enforce cleanly once the services recover; batch pipelines count
        these separately and keep going. *)

val pp_error : error Fmt.t

type counts = {
  conformed : int;
  rewritten : int;
  rewritten_possible : int;
  rejected : int;
  attempt_failed : int;
  faults : int;                (** documents that hit a service fault *)
  invocations : int;           (** invocations on accepted documents *)
}

val counts : (Axml_core.Document.t * report, error) result list -> counts
(** The outcomes of a list of results, one field per outcome, and the
    invocations they recorded: what [axml_enforcement_documents_total]
    and [axml_enforcement_invocations_total] count for the same
    documents. The number of documents is the list's length. *)

val enforce :
  ?config:config -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> exchange:Axml_schema.Schema.t ->
  invoker:Axml_core.Execute.invoker -> Axml_core.Document.t ->
  (Axml_core.Document.t * report, error) result
(** One-shot enforcement: {!Pipeline.create} followed by one
    {!Pipeline.enforce}, so the schema pair is compiled from scratch on
    every call. For whole streams, or to reuse a compiled
    contract ({!Pipeline.of_contract}), use {!Pipeline}. *)

(** {1 Batch enforcement}

    A pipeline owns every per-path artifact — the compiled exchange
    contract (with its win tables and their counters,
    {!Axml_core.Contract.stats}) and the validation context — so
    peer-to-peer exchange pays the static analysis once per new table
    entry instead of once per document. Outcomes are counted in the
    process-wide [Axml_obs.Metrics] registry; a caller that wants one
    batch's numbers folds its results with {!counts}. *)

module Pipeline : sig
  type t

  val create :
    ?config:config -> ?predicate:(string -> string -> bool) ->
    s0:Axml_schema.Schema.t -> exchange:Axml_schema.Schema.t ->
    invoker:Axml_core.Execute.invoker -> unit -> t
  (** Compile once for the (s0, exchange) path.
      @raise Axml_schema.Schema.Schema_error as {!Axml_core.Rewriter.create}. *)

  val of_contract :
    ?config:config -> invoker:Axml_core.Execute.invoker ->
    Axml_core.Contract.t -> t
  (** Drive an existing contract (shares its win tables). The
      contract fixes k: [config.k] is replaced by
      {!Axml_core.Contract.k}, so the [axml_enforce_k] gauge, the
      bound of {!minimal_k} and {!config} all read the contract's
      depth. *)

  val contract : t -> Axml_core.Contract.t

  val config : t -> config
  (** The pipeline's config, [k] being its contract's. *)

  val enforce : t -> Axml_core.Document.t ->
    (Axml_core.Document.t * report, error) result
  (** The three steps of {!enforce}, against the precompiled artifacts;
      counts the outcome in [axml_enforcement_documents_total] and its
      wall time in [axml_enforcement_seconds]. *)

  val minimal_k : t -> Axml_core.Document.t -> Axml_core.Rewriter.doc_minimal
  (** The smallest rewriting depths, bounded by the pipeline's k, at
      which the document's static check would pass
      ({!Axml_core.Rewriter.minimal_k}) — a capacity-planning signal
      ("would k=1 have been enough for this traffic?"). Counts the
      answer in [axml_enforce_min_k_total] and emits a trace note. It
      invokes nothing, but costs extra analyses at depths below k, so
      only callers that ask for it run it ([axml batch --min-k]). *)

  val enforce_many :
    t -> jobs:int -> Axml_core.Document.t list ->
    (Axml_core.Document.t * report, error) result list
  (** Enforce a batch on [jobs] domains (clamped to at least 1 and to
      the batch size; with one, no domain is spawned): documents are
      claimed in chunks off an atomic cursor, and every worker (worker
      0 on the calling domain) enforces on the pipeline itself — the
      contract's counters are atomics, win-table lookups take no lock.
      Results are assembled in input order — for deterministic
      services the result list is the one a per-document {!enforce}
      loop returns, with the same number of analyses and table
      entries.
      The pipeline's invoker (and [config.resilience] guard) are shared
      across workers. {b With [jobs > 1] the invoker must be
      thread-safe}: workers call it concurrently. The built-in
      {!Axml_services.Oracle} behaviours and
      {!Axml_services.Registry.invoke} are; a hand-rolled invoker
      closing over unguarded mutable state is not. A circuit breaker
      opened by one domain short-circuits the others. *)
end
