(** POSSIBLE rewriting (Figure 9): does {e some} choice of invocations
    and {e some} service outputs turn the word into the target language?
    In automata terms, can the initial product node reach a node where
    the word is complete and inside the language.

    All edges are existential (no adversary), so the analysis is a plain
    backward reachability from the good-accepting nodes. The extracted
    rewriting only {e may} succeed; {!Reference.follow_possible} backtracks when a call's
    actual return value falls off every live path (Figure 9, step c). *)

type stats = { discovered_nodes : int; live_nodes : int }

type t = {
  product : Product.t;
  live : Bitvec.t;
  possible : bool;  (** is the initial node live? *)
  stats : stats;
}

val is_live : t -> int -> bool
(** Has this node an outgoing path to acceptance? *)

val analyze : Product.t -> t
