(** Winning-set tables: the safe (Figure 3) and possible (Figure 9)
    rewriting games, solved per content model and depth instead of per
    children word.

    For a target DFA and depth b, a right-to-left pass over a word
    [w_1 .. w_n] computes the sets of DFA states from which the rest of
    the word wins: [S_n] is the final states and
    [S_i = pre_{w_i}(S_{i+1}) ∪ Inv^b_{w_i}(S_{i+1})], where
    [Inv^b_f(S)] — empty unless [f] forks and [b ≥ 1] — is a fixpoint
    over the Glushkov positions of [tau_out f] with exit set [S]. Each
    step is a table entry, filled on first use and read without a lock
    afterwards. The verdict is "the DFA's start state is in [S_0]", and
    the same sets are the strategy: {!walk} steps (position, DFA state)
    pairs and moves only to a state in its position's set. The verdicts
    and walks are those of the paper's Figure 3 / 9 engines on A_w^b,
    kept as the test oracle (property-tested).

    {b Domain safety.} Entries are filled under one lock per {!t} and
    published immutably, so any number of domains may share the tables
    of a {!t}: lookups take no lock, and every entry is filled once. *)

type kind = Safe | Possible

type t
(** The word-independent part: every forking function's output
    automaton, indexed by Glushkov position, and the lock that guards
    every table built on it. *)

val create : Axml_schema.Schema.env -> t
(** Compiles the Glushkov NFA of [tau_out f] for each invocable [f] of
    [env] with a non-empty output; the other functions never fork.
    @raise Axml_schema.Schema.Schema_error as compiling a type does. *)

type automaton

val automaton : t -> Axml_schema.Symbol.t Axml_regex.Regex.t -> automaton
(** A language compiled like an output automaton, under no name. *)

type table
(** The tables of one content model: its interned winning sets and
    one game per (kind, depth), all filled lazily. *)

val table : t -> Axml_schema.Auto.Dfa.Dense.dense -> table
(** Empty tables over a target DFA (a {!Validate.model}'s [dfa]). *)

val set_count : table -> int
(** Winning sets interned so far (the empty set and the final states
    included). *)

(** {1 Analyses} *)

type run
(** One word solved at one depth: its sets [S_0 .. S_n]. *)

val solve : table -> kind -> budget:int -> int array -> run
(** The right-to-left pass over a word of dense symbol ids (a letter no
    table knows is [-1]) at depth [budget], filling any entry it
    misses. The run keeps the array. *)

val ok : run -> bool
(** The verdict: safe (resp. possible) rewriting exists. *)

val kind : run -> kind

val fills : run -> int
(** Entries this pass filled (0: answered from filled entries). *)

val fill_seconds : run -> float
(** Wall time this pass spent filling entries, lock waits included. *)

val every_word : table -> kind -> budget:int -> automaton -> bool
(** Section 6's [g_l] test: [start ∈ Inv^budget_a(finals)], the game
    of one call whose output is [a]'s language, at depth [budget] ≥ 1.
    The adversary spells a word of [a] and the player decides each
    nested call when it is spelled, with no look-ahead. May fill
    entries of the nested games; adds none of its own. *)

(** {1 The strategy} *)

type 'st service = {
  chosen : 'st -> string -> invoke:bool -> unit;
      (** a fork option of a call to the function is tried: keep it, or
          ([invoke]) invoke it *)
  call : 'st -> string -> Document.forest -> Document.forest;
      (** invoke the function on the parameters: the forest to walk in
          place of the call; raises {!Unavailable} when this option is
          out *)
}
(** What the walk asks of its caller, over the caller's state ['st]. *)

exception Unavailable
(** Raised by a service's [call] when the fork option is unavailable. *)

val walk : run -> 'st service -> 'st -> Document.forest -> Document.forest option
(** [walk r service st items] follows [r]'s strategy over [items], the
    forest whose word [r] solved, left to right: one frame for the word
    and one for each invoked copy of an output automaton, stepping
    (position, DFA state) pairs and moving only to a state in its
    position's winning set. At each item the keep moves come first,
    then the forks, in the order A_w^k orders its edges; a branch that
    dies backtracks to the next move. A call occurrence is asked of
    [service] at most once per walk, however often backtracking meets
    it. The materialized forest, or [None] when every branch died. *)
