(** A compiled exchange contract: every schema-derived artifact needed
    to enforce a fixed [(s0, target, k)] triple, compiled
    once and reused across documents.

    The Schema Enforcement module sits on a peer's communication path
    (Section 7): the same pair of schemas is enforced against a whole
    stream of documents. Everything the rewriting games of Figures 3
    and 9 need that does not depend on the word is compiled at
    {!create}: the merged environment, every invocable function's
    output automaton ({!Win.create}) and one
    {!Validate.ctx} of the target — each content model determinized
    once into a read-only DFA that validation, the rewriter and the
    analyses step.

    Word-level analyses are answered by winning-set tables ({!Win}),
    one set of tables per content model: a verdict is one right-to-left
    pass over the word, [|w|] table lookups, and the same pass yields
    the strategy {!Execute} follows. The tables fill lazily, an entry
    per new (winning set, letter) or (function, exit set) at a depth,
    so their size is bounded by the content model and the depth, not
    by the number of distinct words; there is no per-word cache and
    nothing is ever evicted. The counters ({!stats}) say how often an
    analysis had to fill an entry (a miss) or found every entry filled
    (a hit). {!Rewriter} is a thin view over this module;
    [Axml_peer.Enforcement.Pipeline] drives it over document streams.

    {b Domain safety.} The compiled artifacts never change after
    {!create}; table entries are filled under a lock and published
    immutably, so lookups take no lock and any number of domains may
    analyze, execute and read {!stats} on one contract concurrently. A
    {!clone} shares the tables and counts on its own. *)

type t

val create :
  ?k:int -> ?predicate:(string -> string -> bool) ->
  s0:Axml_schema.Schema.t -> target:Axml_schema.Schema.t -> unit -> t
(** Compile the contract for exchanging documents of [s0] under the
    agreed [target] schema. [k] is the rewriting depth (Definition 7,
    default 1); [predicate] answers function-pattern predicates. Every
    content model of [target] and every input and output type of the
    merged environment is compiled here, so [predicate] is called here
    for each function pattern of [target].
    @raise Axml_schema.Schema.Schema_error when [s0] and [target]
    disagree on a common function signature, or a content model does
    not compile against [env]. *)

val clone : t -> t
(** The same contract with counters of its own: it shares the merged
    environment, schemas, {!ctx}, output automata, [k] and the win
    tables, and copies nothing — a window of {!stats} that starts at
    zero without disturbing the original's. Domains need no clone to
    share a contract: its counters are atomic. *)

(** {1 Static artifacts} *)

val env : t -> Axml_schema.Schema.env
(** The merged function environment of [s0] and [target] the contract
    was compiled against. *)

val s0 : t -> Axml_schema.Schema.t
(** The sender schema documents are assumed to conform to. *)

val target : t -> Axml_schema.Schema.t
(** The agreed exchange schema rewritings must land in. *)

val k : t -> int
(** The rewriting depth bound (Definition 7). *)

val ctx : t -> Validate.ctx
(** The compiled target schema, over the merged environment: one model
    per content model, input and output type. Read-only, so any domain
    may validate with it. *)

val output_ok : t -> string -> Document.forest -> bool
(** [output_ok t fname forest]: is [forest] an instance of [fname]'s
    declared output type in {!ctx}? A closure built with the contract,
    so handing it on allocates nothing. *)

val element_regex : t -> string -> Axml_schema.Symbol.t Axml_regex.Regex.t option
(** Compiled content model of a label in the {e target} schema, read
    from {!ctx}. *)

val input_regex : t -> string -> Axml_schema.Symbol.t Axml_regex.Regex.t option
(** Compiled input type of a function, from the merged environment. *)

(** {1 Analysis contexts}

    The position of a children word inside a document decides which
    content model it is analyzed against. *)

type context =
  | Element of string  (** children of an element, against its target content model *)
  | Input of string    (** parameters of a call, against the function's input type *)

exception Unknown_context of context
(** The label is not declared by the target schema / the function has no
    known signature. *)

(** {1 Analyses}

    The word-level entry points take an optional [?k] overriding the
    contract's configured depth for that one query (used by
    {!minimal_k}); omitted, the contract's [k] applies. The forest-level
    ones take the depth ([~depth]), which the rewriter threads. Each
    solves into a fresh frame ({!Win.frame}) except {!solve_forest},
    which solves into the caller's. Tables are kept per content model and depth,
    so verdicts at different depths never alias. A [target_regex] taken
    from {!ctx} is analyzed against the ctx's model; any other regex is
    compiled once per contract, by {!Validate.compile}, on first
    use. *)

val safe_run :
  ?k:int -> t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> Win.run
(** The safe game of Figure 3 for [word] against [target_regex], solved
    by one pass over the win tables into a fresh frame: its verdict is
    {!Win.ok}, and [Execute.run] follows it. Counted in {!stats}. *)

val possible_run :
  ?k:int -> t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> Win.run
(** The possible game of Figure 9, likewise. *)

val solve_forest :
  Win.run -> t -> Win.kind -> depth:int -> Validate.model -> Document.forest -> unit
(** The game of the given kind at [depth] for the word of a children
    forest against a model of {!ctx}, likewise, solved into the frame:
    the letters are read by {!Win.solve}, and the frame is what
    [Execute] walks over that forest. *)

val forest_run :
  t -> Win.kind -> depth:int -> Validate.model -> Document.forest -> Win.run
(** {!solve_forest} into a fresh frame. *)

val is_safe :
  ?k:int -> t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> bool
(** [is_safe c ~target_regex w]: does a safe rewriting of [w] into the
    target language exist? The verdict of {!safe_run}. *)

val is_possible :
  ?k:int -> t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> bool
(** [is_possible c ~target_regex w]: can {e some} run of a rewriting
    of [w] land in the target language? The verdict of
    {!possible_run}. *)

val sets : t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t -> int
(** The winning sets interned so far for a content model, over every
    depth and both games. *)

(** {1 Verdicts} *)

type verdict =
  | Safe           (** a safe rewriting exists (Figure 3) *)
  | Possible_only  (** no safe rewriting, but a possible one (Figure 9) *)
  | Impossible     (** no rewriting at all *)

val pp_verdict : verdict Fmt.t
(** Renders [safe] / [possible (not safe)] / [impossible]. *)

val analyze :
  ?k:int -> t -> context:context -> Axml_schema.Symbol.t list -> verdict
(** One-stop entry point: analyze a children word in its context at
    depth [?k] (the contract's configured depth when omitted).
    @raise Unknown_context when the context is not part of the
    contract. *)

(** {1 Minimal-k search} *)

type minimal = {
  safe_at : int option;
      (** smallest depth at which the word is safe; [None] if not safe
          even at the search bound *)
  possible_at : int option;
      (** smallest depth at which the word is possible; [None] if not
          possible even at the search bound *)
}

val minimal_k :
  t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Symbol.t list -> minimal
(** The smallest rewriting depth at which [word] becomes safe
    (resp. possible), searched linearly from [k = 0] up to the
    contract's configured depth. Soundness of the
    linear search rests on monotonicity: the player's options only
    grow with k while the adversary's are fixed, so a word safe at k
    is safe at every k' ≥ k (possibility likewise — qcheck-verified in
    the test suite). [safe_at = Some 0] means the word already
    conforms without any materialization; every answer is a pass over
    the win tables of its depth. *)

val content_minimal_k :
  t -> target_regex:Axml_schema.Symbol.t Axml_regex.Regex.t ->
  Axml_schema.Schema.content -> minimal
(** The Section 6 reduction for one sender content model: the smallest
    depths, searched as in {!minimal_k} up to the contract's depth, at
    which the call [g_l] with output [content] (compiled in the
    contract's environment) rewrites safely (resp. possibly) into
    [target_regex] at depth d + 1 ({!Win.every_word}). [g_l] is an
    automaton of the tables, never a function of a schema, so no
    wildcard or pattern matches it. The game has no look-ahead: each
    call is decided before the items after it are known, so a label can
    fail although each of its documents alone rewrites safely. An empty
    [content] is vacuously safe at depth 0. May fill shared table
    entries; never moves {!stats}. *)

(** {1 Table accounting} *)

type stats = {
  hits : int;       (** analyses answered from filled entries *)
  misses : int;     (** analyses that filled at least one entry *)
  evictions : int;  (** always 0: table entries are never evicted *)
  entries : int;    (** table entries this contract filled *)
}

val stats : t -> stats
(** A snapshot of this contract's counters since creation. The
    process-wide aggregates live in the [Axml_obs]
    metrics registry. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; [0.] before any analysis. *)

val diff_stats : before:stats -> stats -> stats
(** Counter deltas ([entries] is the later absolute value): the table
    activity between two {!stats} snapshots. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum — merges the windows of a shared contract and its
    {!clone}s into one batch-level view. *)

val pp_stats : stats Fmt.t
