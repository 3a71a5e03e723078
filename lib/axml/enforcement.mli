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
        the guard's counters surface in {!Pipeline.stats} *)
  jobs : int;
    (** OCaml domains {!Pipeline.enforce_many} shards a batch across
        (clamped to the batch size); [<= 1] means sequential on the
        calling domain. Results keep input order either way.
        {b With [jobs > 1] the invoker must be thread-safe}: workers
        call it concurrently. The built-in {!Axml_services.Oracle}
        behaviours and {!Axml_services.Registry.invoke} are; a
        hand-rolled invoker closing over unguarded mutable state is
        not. Single-document calls ({!Pipeline.enforce}, a peer's
        sends and serves) ignore it. *)
  track_min_k : bool;
    (** also search, per document, for the smallest rewriting depth at
        which its static check would pass ({!Axml_core.Rewriter.minimal_k},
        bounded by [k]) and surface the distribution in
        {!Pipeline.stats}, the [axml_enforce_min_k_total] metric and
        trace notes — a capacity-planning signal ("would k=1 have been
        enough for this traffic?"). Off by default: the search costs
        extra analyses at depths below [k]. *)
}

val default_config : config
(** [k = 1], no fallback, no resilience guard, sequential
    ([jobs = 1]), no min-k tracking. *)

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

val enforce :
  ?config:config -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> exchange:Axml_schema.Schema.t ->
  invoker:Axml_core.Execute.invoker -> Axml_core.Document.t ->
  (Axml_core.Document.t * report, error) result
(** One-shot enforcement: {!Pipeline.create} followed by one
    {!Pipeline.enforce}, so the schema pair is compiled from scratch on
    every call and every [config] field a single document uses applies
    ([track_min_k] included). For whole streams, or to reuse a compiled
    contract ({!Pipeline.of_contract}), use {!Pipeline}. *)

(** {1 Batch enforcement}

    A pipeline owns every per-path artifact — the compiled exchange
    contract (with its win tables) and the validation context —
    plus running counters, so peer-to-peer exchange pays the static
    analysis once per new table entry instead of once per
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
  (** Drive an existing contract (shares its win tables). The
      contract fixes k: [config.k] is replaced by
      {!Axml_core.Contract.k}, so the [axml_enforce_k] gauge, the
      minimal-k search's bound and {!config} all read the contract's
      depth. *)

  val contract : t -> Axml_core.Contract.t

  val config : t -> config
  (** The pipeline's config, [k] being its contract's. *)

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
    invocations : int;
    elapsed_s : float;
      (** wall-clock seconds spent enforcing (the injectable
          [Axml_obs.Metrics] clock): for a single document the same
          reading [axml_enforcement_seconds] records (the minimal-k
          search not included); for a batch the whole call's wall
          time, not the per-domain sum *)
    docs_per_s : float;
    cache : Axml_core.Contract.stats;  (** contract win-table activity *)
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
  (** Enforce a batch on [config.jobs] domains (clamped to at least 1
      and to the batch size; with one, no domain is spawned): documents
      are claimed in chunks off an atomic cursor, and every worker
      (worker 0 on the calling domain) enforces on the pipeline itself
      — the contract's counters and the pipeline's tally are atomics,
      win-table lookups take no lock. Results are assembled in input
      order —
      for deterministic services the result list is the one a
      per-document {!enforce} loop returns, with the same outcome
      counts and the same number of analyses and table entries. The
      returned stats cover exactly this batch, and [elapsed_s] its
      whole wall time.
      The pipeline's invoker (and [config.resilience] guard) are shared
      across workers — the invoker must be thread-safe, and a circuit
      breaker opened by one domain short-circuits the others. *)

  val stats : t -> stats
  (** Cumulative since creation. *)
end
