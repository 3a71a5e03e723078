(** Brute-force reference semantics for the rewriting games, usable when
    every output type has a finite language (star-free signatures).

    {!safe} plays a {e full-knowledge} game: the player sees a
    service's whole output word before deciding whether to invoke the
    calls inside it. [Marking] (and the contract's win tables) decide
    on a nested call knowing only the Glushkov position of the output
    type the adversary chose, not the letters after it. The two games
    agree at depth k ≤ 1, where no nested call can be invoked, and can
    differ from k = 2 on: with [out_f = g.(a|b)], [out_g = b], target
    [b.a | g.b] and [w = f], [Marking] says unsafe and {!safe} says
    safe. So {!safe} is the reference for the engines' safe verdicts
    only at k ≤ 1; {!possible} is existential throughout and is the
    reference at every k. {!safe_arbitrary} plays the game with NO
    left-to-right restriction, exhibiting the paper's Section 3 remark
    that the restriction "can miss a successful rewriting". *)

exception Not_star_free

val enum_language :
  Axml_schema.Symbol.t Axml_regex.Regex.t -> Axml_schema.Symbol.t list list
(** The finite language of a star-free regex. @raise Not_star_free. *)

val outputs_of_env :
  Axml_schema.Schema.env ->
  string -> Axml_schema.Symbol.t list list option
(** Memoized finite output sets of the environment's functions; [None]
    for non-invocable functions, unknown names and empty output
    languages. *)

val safe :
  outputs:(string -> Axml_schema.Symbol.t list list option) ->
  target_dfa:Axml_schema.Auto.Dfa.t -> k:int ->
  Axml_schema.Symbol.t list -> bool
(** The k-depth left-to-right SAFE game with full knowledge of each
    output word, by exhaustive search — reference for [Marking] at
    k ≤ 1. *)

val possible :
  outputs:(string -> Axml_schema.Symbol.t list list option) ->
  target_dfa:Axml_schema.Auto.Dfa.t -> k:int ->
  Axml_schema.Symbol.t list -> bool
(** Existential variant — reference for [Possible] at every k. *)

val safe_arbitrary :
  outputs:(string -> Axml_schema.Symbol.t list list option) ->
  target_dfa:Axml_schema.Auto.Dfa.t -> k:int ->
  Axml_schema.Symbol.t list -> bool
(** The k-depth game with invocations in ANY order: the rewriter may
    probe a right sibling before committing on a left one. Implied by
    {!safe}; strictly more permissive in general. *)
