(** The marking game of Figure 3 (steps 15-18), deciding SAFE rewriting.

    A product node is {e marked} ("bad") when the adversary — the
    services, which pick actual output words — can force the completed
    word out of the target language whatever invoke/keep choices the
    rewriter makes:
    - word complete but outside the language: marked;
    - some non-fork successor marked: marked (adversary's letter);
    - both options of some fork pair marked: marked (no good choice).

    A safe rewriting exists iff the initial node is unmarked; the
    rewriter's winning strategy is "always move to an unmarked node"
    (followed by {!Reference.follow_safe}). *)

type stats = {
  explored_nodes : int;    (** nodes whose successors were computed *)
  discovered_nodes : int;  (** nodes created *)
  marked_nodes : int;
  pruned : int;            (** nodes never expanded thanks to pruning *)
}

type t = {
  product : Product.t;
  marked : Bitvec.t;
  safe : bool;  (** is the initial node unmarked? *)
  stats : stats;
}

val is_marked : t -> int -> bool

val analyze_eager : Product.t -> t
(** The literal algorithm of Figure 3: materialize every reachable
    product node, then solve the game. *)

val analyze_lazy : Product.t -> t
(** The optimized variant of Section 7 (Figure 12): construct on demand,
    mark complement-sink nodes immediately (empty subsets), never expand
    nodes already known marked, stop as soon as the initial node is
    marked. Same verdicts as {!analyze_eager} (property-tested). *)
