(** The automaton A_w^k of Figure 3 (lines 5-10): a finite
    representation of every word derivable from the children word [w] by
    a k-depth left-to-right rewriting.

    Construction: start from the linear automaton accepting [w]; for [k]
    rounds, around every untreated edge labeled with an invocable
    function [f], splice a fresh copy of the Glushkov automaton of
    [tau_out f] (compiled once, see {!outputs}), linked by epsilon
    moves. The edge's source becomes a
    {e fork node}: keeping the function edge means "do not invoke f
    here"; the epsilon edge into the copy means "invoke f, and the
    adversary (the service) picks a word of its output type". *)

type fork = {
  fork_node : int;
  fname : string;
  keep_edge : int;    (** the function-labeled edge ("do not invoke") *)
  invoke_edge : int;  (** the epsilon edge into the copy ("invoke") *)
  copy_finals : Axml_schema.Auto.Int_set.t;
    (** absolute ids of the copy's accepting states *)
  exit_node : int;    (** the node the copy exits to *)
  round : int;        (** 1-based round (rewriting depth) of the copy *)
}

type t = {
  nstates : int;
  start : int;
  final : int;
  nedges : int;
  edge_dst : int array;   (** edge id -> destination node *)
  edge_label : Axml_schema.Symbol.t option array;
    (** edge id -> label, [None] = epsilon move *)
  edge_label_id : int array;  (** edge id -> dense symbol id, [-1] = epsilon *)
  out_off : int array;
    (** CSR offsets: node [q]'s edge ids are
        [out_edge.(out_off.(q) .. out_off.(q+1) - 1)], ascending *)
  out_edge : int array;
  forks : fork array;
  fork_of_edge : int array;  (** edge id -> fork index, or -1 *)
  word_length : int;
}

type stats = { states : int; edges : int; forks : int }

type outputs
(** Every invocable function's output automaton (the Glushkov NFA of
    [tau_out f]), compiled once per environment into flat edge arrays
    with precomputed dense symbol ids. Immutable: one value may be
    shared by any number of builds, across domains. *)

val outputs : Axml_schema.Schema.env -> outputs
(** Compile the output types of [env] (the merged sender + exchange
    schemas). Non-invocable functions and empty output languages get no
    automaton: they never fork.
    @raise Axml_schema.Schema.Schema_error when an output type does not
    compile against [env]. *)

val add_output :
  outputs -> string -> Axml_schema.Symbol.t Axml_regex.Regex.t -> outputs
(** [add_output outputs g r]: [outputs] plus an invocable [g] whose
    output language is [r] (no entry when [r] is empty). Calls inside
    [r] fork as they do in [outputs]; [g] should be a name no output
    mentions. This is how the reference Section 6 reduction gives its
    representative call an output without declaring it in any schema
    ({!Reference.section6_minimal_k}). *)

val build : outputs:outputs -> k:int -> Axml_schema.Symbol.t list -> t
(** [build ~outputs ~k w] builds A_w^k by splicing copies of [outputs].
    Only this part depends on the word; functions without an output
    automaton (non-invocable, unknown, empty output) never fork. *)

val stats : t -> stats
val fork_of_edge : t -> int -> fork option
val exit_edge : t -> fork -> int -> int option
(** The exit epsilon-edge of a fork's copy leaving a given copy-final. *)

val pp : t Fmt.t
