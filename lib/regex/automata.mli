(** Finite-state automata over an arbitrary ordered symbol alphabet —
    everything the paper's algorithms need (Sections 4 and 5): Thompson
    and Glushkov constructions, subset determinization, completion,
    complementation, products, minimization, emptiness and witness
    extraction.

    The rewriting engine instantiates {!Make} with the schema symbol
    alphabet; tests also instantiate it with plain strings. *)

module type SYMBOL = sig
  type t
  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (Sym : SYMBOL) : sig
  module Sym_set : Set.S with type elt = Sym.t
  module Sym_map : Map.S with type key = Sym.t
  module Int_set : Set.S with type elt = int
  module Int_map : Map.S with type key = int

  val pp_sym : Sym.t Fmt.t

  (** Nondeterministic automata with epsilon moves. The representation
      is exposed because the fork-automaton construction of Figure 3
      splices Glushkov automata state by state. *)
  module Nfa : sig
    type t = {
      size : int;  (** states are [0 .. size - 1] *)
      start : int;
      finals : Int_set.t;
      eps : Int_set.t Int_map.t;
      delta : Int_set.t Sym_map.t Int_map.t;
    }

    (** Imperative construction helper. *)
    module Builder : sig
      type nfa = t
      type t

      val create : unit -> t
      val fresh_state : t -> int
      val add_eps : t -> int -> int -> unit
      val add_edge : t -> int -> Sym.t -> int -> unit
      val freeze : t -> start:int -> finals:Int_set.t -> nfa
    end

    val eps_successors : t -> int -> Int_set.t
    val successors : t -> int -> Sym.t -> Int_set.t

    val eps_closure : t -> Int_set.t -> Int_set.t
    (** Saturate a state set under epsilon moves. *)

    val step_set : t -> Int_set.t -> Sym.t -> Int_set.t
    (** One subset-simulation step: symbol move then epsilon closure. *)

    val accepts : t -> Sym.t list -> bool
    val alphabet : t -> Sym_set.t
    val count_edges : t -> int

    val thompson : Sym.t Regex.t -> t
    (** Thompson construction (epsilon-rich, linear size). *)

    val glushkov : Sym.t Regex.t -> t
    (** Glushkov construction: no epsilon moves; one state per symbol
        occurrence plus the start. Deterministic exactly when the regex
        is 1-unambiguous — the XML Schema condition the paper relies on
        for its polynomial bound. *)

    val reachable : t -> Int_set.t
    val is_empty : t -> bool

    val shortest_word : t -> Sym.t list option
    (** A shortest accepted word, or [None] for the empty language. *)

    val pp : t Fmt.t
  end

  (** Deterministic automata. A missing transition means "reject";
      {!Dfa.complete} makes the function total. *)
  module Dfa : sig
    type t = {
      size : int;
      start : int;
      finals : Int_set.t;
      delta : int Sym_map.t Int_map.t;
      alphabet : Sym_set.t;
    }

    val step : t -> int -> Sym.t -> int option
    val is_final : t -> int -> bool
    val accepts : t -> Sym.t list -> bool
    val count_edges : t -> int

    val of_nfa : ?alphabet:Sym_set.t -> Nfa.t -> t
    (** Subset construction. *)

    val of_regex : ?alphabet:Sym_set.t -> Sym.t Regex.t -> t
    (** [of_nfa] of the Glushkov automaton. *)

    val complete : alphabet:Sym_set.t -> t -> t
    (** Make the transition function total over the union of [alphabet]
        and the automaton's own alphabet, adding a sink state when
        needed — the "deterministic and complete" requirement of
        Figure 3 step (c). *)

    val is_complete : t -> bool

    val complement : alphabet:Sym_set.t -> t -> t
    (** Complete, then flip accepting states. *)

    val product : keep_final:(bool -> bool -> bool) -> t -> t -> t
    (** Pairwise product over the union alphabet; [keep_final] decides
        acceptance of a pair from the components' acceptance. *)

    val intersect : t -> t -> t
    val union : t -> t -> t
    val difference : t -> t -> t

    val reachable : t -> Int_set.t
    val is_empty : t -> bool
    val shortest_word : t -> Sym.t list option

    val minimize : t -> t
    (** Moore partition refinement; the result is complete over the
        input's alphabet and minimal. *)

    val subset : t -> t -> bool
    (** Language inclusion: is every word of the first language accepted
        by the second? Emptiness of {!difference} — the primitive the
        schema-evolution classifier is built on. *)

    val equal_language : t -> t -> bool
    val separating_word : t -> t -> Sym.t list option
    (** A word accepted by the first but not the second, if any. *)

    (** Flat [int array] transition tables for the hot membership loop.
        Functional maps stay the construction representation; a finished
        DFA is frozen into dense tables indexed by an external dense
        symbol coding (see {!Axml_schema.Sym_id}), and stepping then
        costs two array loads and no allocation. State [-1] is the
        absorbing reject state. *)
    module Dense : sig
      type dense

      val compile : sym_id:(Sym.t -> int) -> t -> dense
      (** Freeze a DFA. [sym_id] must be injective and non-negative on
          the DFA's alphabet (interner-backed codings are). *)

      val start : dense -> int
      val size : dense -> int
      val width : dense -> int
      val is_final : dense -> int -> bool

      val columns : dense -> int array
      (** Dense symbol id -> column, [-1] outside the DFA's alphabet;
          ids past the end are outside it too. Symbols of one column
          step every state alike. The array belongs to the DFA: do not
          mutate it. *)

      val step_column : dense -> int -> int -> int
      (** [step_column d state col]: one transition by column; [-1] for
          the reject state or column [-1]. *)

      val step_id : dense -> int -> int -> int
      (** [step_id d state id]: one transition by dense symbol id.
          Unknown symbols and missing transitions yield [-1]. *)

      val step : sym_id:(Sym.t -> int) -> dense -> int -> Sym.t -> int

      val accepts_ids : dense -> int array -> bool
      (** Membership of a word of dense symbol ids — allocation-free. *)

      val accepts : sym_id:(Sym.t -> int) -> dense -> Sym.t list -> bool
    end

    val pp : t Fmt.t
  end

  val deterministic_regex : Sym.t Regex.t -> bool
  (** 1-unambiguity: is the Glushkov automaton deterministic? *)

  val sample_word :
    rand_int:(int -> int) -> fuel:int -> Sym.t Regex.t -> Sym.t list option
  (** Random word from the language; [fuel] bounds star unrollings so
      sampling always terminates. [None] only on empty-language
      branches. *)
end
