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

(** {1 Frames}

    A {!run} is a frame: one word's letters and winning sets, the answer
    table of its walk and the calls the walk's service answered. A
    frame is overwritten by the next word solved in it, so a caller
    that walks many words takes a frame from the pool, solves and walks
    in it, and gives it back: the walk then allocates only its output
    and the invoked copies it enters. *)

type run
(** A frame; once solved, one word's sets [S_0 .. S_n] at one depth. *)

val frame : unit -> run
(** A fresh frame, outside the pool. *)

val take : unit -> run
(** A free frame of the calling domain's pool, made when every frame of
    the pool is busy. The flag is taken by a compare-and-set, so
    systhreads that share the domain and walks nested in one another
    never hold the same frame. Give it back with {!release} on every
    exit, an exception's included. *)

val release : run -> unit
(** Gives a frame back: drops what its walk referenced, and any array
    grown past the size a free frame keeps. *)

val kept_words : int
(** The most words a free frame keeps. *)

(** {1 Analyses} *)

val solve : run -> table -> kind -> budget:int -> Document.forest -> unit
(** Reads the letters of a children forest ({!Document.sym_id} of each
    node) into the frame in one pass, then makes the right-to-left pass
    over them at depth [budget], filling any entry it misses. *)

val solve_letters : run -> table -> kind -> budget:int -> int array -> unit
(** {!solve} over a word of dense symbol ids (a letter no table knows is
    [-1]), copied into the frame. *)

val ok : run -> bool
(** The verdict: safe (resp. possible) rewriting exists. *)

val kind : run -> kind

val fills : run -> int
(** Entries the last pass filled (0: answered from filled entries). *)

val fill_seconds : run -> float
(** Wall time the last pass spent filling entries, lock waits included. *)

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
  call : 'st -> run -> string -> Document.forest -> Document.forest;
      (** invoke the function on the parameters, for the walk in the
          frame: the forest to walk in place of the call; raises
          {!Unavailable} when this option is out *)
}
(** What the walk asks of its caller, over the caller's state ['st]. *)

exception Unavailable
(** Raised by a service's [call] when the fork option is unavailable. *)

exception Dead
(** Raised by {!walk} when every branch died. *)

val walk : run -> 'st service -> 'st -> Document.forest -> Document.forest
(** [walk r service st items] follows the strategy solved in [r] over
    [items], the forest whose word [r] solved, left to right: one frame
    for the word and one for each invoked copy of an output automaton,
    stepping (position, DFA state) pairs and moving only to a state in
    its position's winning set. At each item the keep moves come first,
    then the forks, in the order A_w^k orders its edges; a branch that
    dies backtracks to the next move. A call occurrence is asked of
    [service] at most once per walk, however often backtracking meets
    it. Returns the materialized forest.
    @raise Dead when every branch died. *)

(** {1 The calls of a walk}

    A service records in the frame what the walk's calls did; the record
    lasts until the frame's next walk or its release. *)

type invocation = {
  inv_name : string;
  inv_params : Document.forest;
  inv_result : Document.forest;
}
(** One call: the function, its parameters and what it returned. *)

val record : run -> invocation -> unit

val calls : run -> int
(** Calls recorded, numbered [0 .. calls r - 1] in the order made. *)

val call : run -> int -> invocation

val refuse_last : run -> unit
(** The answer of the last recorded call was refused; the first refused
    call is kept. *)

val refused : run -> int
(** The first refused call, [-1] when none. *)

type fault = { fname : string; attempts : int; cause : exn }

val fail : run -> fault -> unit
(** A call failed; the first failure is kept. *)

val failed : run -> fault option
