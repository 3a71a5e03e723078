(** Schema-to-schema safe rewriting (Section 6): can EVERY document of
    a contract's sender schema, rooted at a given label, be safely
    rewritten into its exchange schema?

    Implements the paper's reduction: testing all elements of type [l]
    is the same as testing the single-function word [g_l] — an
    invocable function whose output type is [tau_0 l] — with one extra
    depth level; one test per label reachable from the root. The test
    is {!Contract.content_minimal_k}, on the contract's own win tables:
    [g_l] is an automaton there, never a function of a schema, so the
    exchange schema's wildcards and patterns cannot accept it. The
    contract fixes the depth [k] and the pattern predicates.

    The game has no look-ahead, so it is not "each children word of
    [l] rewrites safely": with [r = F.(a|b)] into [r = F.a | c.b] and
    [F : () -> c] both documents of [r] do, yet no strategy can choose
    for [F] before seeing [a] or [b], so [r] is not safe. An empty
    sender content is vacuously safe at depth 0. *)

type label_verdict = {
  v_label : string;
  v_verdict : Contract.verdict;
      (** [Safe] at the contract's depth, else the best a rewriting can
          do there *)
  v_safe_at : int option;
      (** smallest depth at which every document of the label rewrites
          safely; [None] if none up to the contract's depth *)
  v_possible_at : int option;  (** the same for possible rewriting *)
  v_reason : string option;  (** when not safe *)
}

type result = {
  compatible : bool;
  verdicts : label_verdict list;  (** one per reachable label *)
}

val reachable_labels :
  Axml_schema.Schema.env -> Axml_schema.Schema.t -> string -> string list
(** Labels reachable from the root through content models and through
    the input/output types of the functions and patterns they mention. *)

val check : Contract.t -> root:string -> result
(** One verdict per label of the sender schema reachable from [root].
    May fill entries of the contract's shared win tables; never moves
    {!Contract.stats}. *)

val compatible : Contract.t -> root:string -> bool
