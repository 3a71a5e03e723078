(** The Schema Enforcement module (Section 7): the component on every
    peer's communication path that guarantees exchanged data matches the
    agreed schema. Its three steps: (i) verify; (ii) if needed, rewrite —
    safely, optionally falling back to a possible rewriting, optionally
    pre-firing cheap calls (mixed); (iii) otherwise report an error.

    Enforcement guards a {e path}, not a document: the same (s0,
    exchange) pair is enforced against streams of documents. {!Pipeline}
    compiles the pair once (validation context + exchange
    {!Axml_core.Contract}) and amortizes the static analysis across the
    stream; {!enforce} stays as the one-shot entry point and accepts a
    prebuilt rewriter for callers that manage their own contracts. *)

type executor =
  | Sequential  (** one document after another, on the calling domain *)
  | Parallel of { jobs : int }
    (** shard each batch across [jobs] OCaml domains (clamped to at
        least 1, and to the batch size). Results keep input order.
        {b The invoker must be thread-safe}: workers call it
        concurrently. The built-in {!Axml_services.Oracle} behaviours
        and {!Axml_services.Registry.invoke} are; a hand-rolled invoker
        closing over unguarded mutable state is not. *)

type config = {
  k : int;
  fallback_possible : bool;
    (** attempt a possible rewriting when no safe one exists *)
  eager_calls : (string -> bool) option;
    (** mixed approach: services to invoke up-front (Section 5) *)
  resilience : Axml_services.Resilience.t option;
    (** wrap every invocation in a retry/timeout/circuit-breaker guard;
        the guard's counters surface in {!Pipeline.stats} *)
  lint_gate : bool;
    (** refuse statically-doomed work before validating or invoking
        anything: a contract whose lint ({!Axml_analysis.Lint}) carries
        error-level diagnostics precludes every document; a document
        whose calls lint at error level is precluded individually.
        Warnings and hints never block. *)
  executor : executor;
    (** how {!Pipeline.enforce_many} runs a batch (default
        {!Sequential}) *)
  track_min_k : bool;
    (** also search, per document, for the smallest rewriting depth at
        which its static check would pass ({!Axml_core.Rewriter.minimal_k},
        bounded by [k]) and surface the distribution in
        {!Pipeline.stats}, the [axml_enforce_min_k_total] metric and
        trace notes — a capacity-planning signal ("would k=1 have been
        enough for this traffic?"). Off by default: the search costs
        extra (cached) analyses at depths below [k]. *)
}

val default_config : config
(** [k = 1], no fallback, no eager calls, no resilience
    guard, no lint gate, sequential executor, no min-k tracking. *)

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
  | Precluded of Axml_analysis.Diagnostic.t list
    (** the lint gate ([config.lint_gate]) refused up front: static
        analysis proved the exchange (or this document) can never
        succeed, so nothing was validated and no service was invoked *)

val pp_error : error Fmt.t

val enforce :
  ?config:config -> ?predicate:(string -> string -> bool) ->
  ?rewriter:Axml_core.Rewriter.t ->
  s0:Axml_schema.Schema.t -> exchange:Axml_schema.Schema.t ->
  invoker:Axml_core.Execute.invoker -> Axml_core.Document.t ->
  (Axml_core.Document.t * report, error) result
(** One-shot enforcement. Without [rewriter], the schema pair is
    compiled from scratch on every call; pass [rewriter] (built for the
    {e same} [s0]/[exchange]/[predicate], e.g. via
    {!Axml_core.Rewriter.of_contract}) to reuse a compiled contract —
    [config.k] is then taken from the contract, and [s0]/[exchange] are
    trusted to match it. For whole streams, prefer {!Pipeline}. *)

(** {1 Batch enforcement}

    A pipeline owns every per-path artifact — the compiled exchange
    contract (with its analysis memo table) and the validation context —
    plus running counters, so peer-to-peer exchange pays the static
    analysis once per distinct children word instead of once per
    document. *)

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
  (** Drive an existing contract (shares its analysis cache);
      [config.k] is ignored — the contract fixes it. *)

  val contract : t -> Axml_core.Contract.t
  val rewriter : t -> Axml_core.Rewriter.t
  val config : t -> config

  val lint : t -> Axml_analysis.Diagnostic.t list
  (** Contract-level lint diagnostics for this path (AXM020–AXM023),
      computed once per pipeline on first use and cached with the
      compiled artifacts — also what the lint gate consults. *)

  val enforce : t -> Axml_core.Document.t ->
    (Axml_core.Document.t * report, error) result
  (** The three steps of {!enforce}, against the precompiled artifacts;
      updates the pipeline counters. *)

  type min_k_stats = {
    measured : int;    (** documents the minimal-k search ran on *)
    distribution : (int * int) list;
      (** [(minimal safe depth, documents)] pairs, ascending in depth;
          depth 0 means the document already conformed statically *)
    unbounded : int;
      (** documents with no safe depth within [config.k] *)
  }

  type stats = {
    docs : int;
    conformed : int;
    rewritten : int;
    rewritten_possible : int;
    rejected : int;
    attempt_failed : int;
    faults : int;                (** documents that hit a service fault *)
    precluded : int;             (** documents refused by the lint gate *)
    invocations : int;
    elapsed_s : float;
      (** wall-clock seconds spent enforcing (the injectable
          [Axml_obs.Metrics] clock); for a parallel batch this is the
          batch's wall time, not the per-domain sum *)
    docs_per_s : float;
    cache : Axml_core.Contract.stats;  (** contract-cache activity *)
    cache_hit_rate : float;
    resilience : Axml_services.Resilience.stats;
      (** retry/breaker activity of [config.resilience] over the same
          window (all-zero without a guard) *)
    min_k : min_k_stats;
      (** the minimal-k distribution of the window (all-zero unless
          [config.track_min_k]) *)
  }

  val pp_stats : stats Fmt.t

  val enforce_many :
    t -> Axml_core.Document.t list ->
    (Axml_core.Document.t * report, error) result list * stats
  (** Enforce a batch; the returned stats cover exactly this batch.
      Dispatches on [config.executor]: {!Sequential} enforces in order
      on the calling domain, [Parallel {jobs}] behaves like
      {!enforce_parallel}. *)

  val enforce_parallel :
    t -> jobs:int -> Axml_core.Document.t list ->
    (Axml_core.Document.t * report, error) result list * stats
  (** Enforce a batch on [jobs] domains (clamped to at least 1 and to
      the batch size): documents are claimed in chunks off an atomic
      cursor, each worker domain enforces against its own
      {!Axml_core.Contract.clone} of the compiled artifacts (worker 0
      reuses the shared ones), and results are assembled in input
      order — for deterministic services the result list is identical
      to the sequential one. Clones persist on the pipeline, so
      repeated batches keep their analysis caches warm; {!stats}
      reports the shared cache plus all clones, and [elapsed_s] grows
      by the batch's wall time. The pipeline's invoker (and
      [config.resilience] guard) are shared across workers — the
      invoker must be thread-safe, and a circuit breaker opened by one
      domain short-circuits the others. *)

  val enforce_seq :
    t -> Axml_core.Document.t Seq.t ->
    (Axml_core.Document.t * report, error) result Seq.t
  (** Lazy element-wise enforcement of a stream; counters accumulate as
      the result sequence is consumed. *)

  val stats : t -> stats
  (** Cumulative since creation (or the last {!reset_stats}). *)

  val reset_stats : t -> unit
  (** Zero the counters (cached analyses stay resident). *)
end
