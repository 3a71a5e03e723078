(** The cartesian product of A_w^k with the target language automaton,
    built on the fly.

    Instead of materializing the complete deterministic complement of
    the target schema (Figure 3, step c), the right-hand component is a
    state of the target's DFA — the subset construction of its Glushkov
    automaton, compiled once per content model by [Axml_core.Validate.compile]
    (a contract holds one per content model). Every decision the
    complement DFA would make is available locally:
    - the reject state [-1] (the empty subset) is exactly the
      complement's accepting {e sink} (the first pruning idea of
      Section 7 / Figure 12);
    - "complement-accepting" = the state is not final;
    - "target-accepting" (for possible rewriting, Figure 9) = it is.

    Both the eager algorithm of Figure 3 and the lazy variant of
    Section 7 drive this same structure; so does Figure 9's possible
    rewriting.

    The DFA is read-only and may be shared by any number of products,
    on any domain. A product itself grows in place as {!succ}
    discovers nodes, so one product belongs to one domain. *)

type node = { q : int; subset : int }
(** [q] is an A_w^k state; [subset] a state of the target DFA, [-1] for
    the empty subset. *)

type t

val create : fork:Fork_automaton.t -> dfa:Axml_schema.Auto.Dfa.Dense.dense -> t
(** The product of [fork] with the target DFA (a [Axml_core.Validate.model]'s
    [dfa]): only its initial node exists until {!succ} discovers
    more. *)

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
