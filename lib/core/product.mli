(** The cartesian product of A_w^k with the target language automaton,
    built on the fly.

    Instead of materializing the complete deterministic complement of
    the target schema (Figure 3, step c), the right-hand component is
    the {e subset} of target-NFA states reached so far — determinization
    on demand. Every decision the complement DFA would make is available
    locally:
    - the empty subset is exactly the complement's accepting {e sink}
      (the first pruning idea of Section 7 / Figure 12);
    - "complement-accepting" = the subset contains no final state;
    - "target-accepting" (for possible rewriting, Figure 9) = it does.

    Both the eager algorithm of Figure 3 and the lazy variant of
    Section 7 drive this same structure; so does Figure 9's possible
    rewriting.

    The subset side does not depend on the analyzed word, so it is
    split off into a {!table}: the interned subsets of one target NFA,
    their memoized moves (one row per subset, indexed by dense symbol
    id) and an accepting bit per subset. Every product over the same
    content model can share one table, and then pays each
    determinization step once. Products extend their table in place,
    so a table is single-domain: whoever shares it must serialize the
    products that use it (a {!Contract} fills its tables under its lock
    during analysis and keeps execution on one domain). *)

type table
(** The lazily determinized target automaton: subsets of target-NFA
    states, interned, with memoized moves. Grows monotonically. *)

val table : Axml_schema.Auto.Nfa.t -> table
(** A fresh table over a target NFA (a Glushkov automaton of the
    content model), holding only the empty subset and the start
    closure. *)

type node = { q : int; subset : int }
(** [q] is an A_w^k state; [subset] the id of a set of target states,
    interned in the product's table. *)

type t

val create : fork:Fork_automaton.t -> table:table -> t
(** The product of [fork] with the automaton of [table]: only its
    initial node exists until {!succ} discovers more. *)

val initial : t -> int
val node : t -> int -> node
val node_count : t -> int
(** Product nodes discovered so far (the structure is lazy). *)

val succ : t -> int -> int array
(** Successors of a node: the target node id along each edge leaving
    its [q], in out-edge order (entry [i] follows edge
    {!succ_edge}[ t nid i]). Memoized; discovers new nodes. The array is
    owned by the product — do not mutate. *)

val succ_edge : t -> int -> int -> int
(** [succ_edge t nid i]: the A_w^k edge id of successor [i] of [nid]. *)

val word_done : t -> int -> bool
(** Is [q] the final state of A_w^k (word complete)? *)

val subset_is_dead : t -> int -> bool
(** Empty subset: no continuation can reach the target language — the
    complement's accepting sink. *)

val subset_accepting : t -> int -> bool

val bad_accepting : t -> int -> bool
(** Complete but outside the language: an accepting state of
    A_w^k x complement(R) (SAFE rewriting's bad states). *)

val good_accepting : t -> int -> bool
(** Complete and inside the language (POSSIBLE rewriting's goals). *)

val fork : t -> Fork_automaton.t
