(** The generic strategy walk: materialization over any solved game,
    with continuations. The reference strategies of {!Reference} (the
    paper's Figure 3/9 products, optionally in a cost plan's order) are
    walked through it; production's first-order walk over the win
    tables ([Axml_core.Win.walk], driven by [Axml_core.Execute.run]) is
    checked against it: both must make the same calls in the same
    order and return the same outcome or failure. *)

type 'n game = {
  good : 'n -> bool;
  has_fork : 'n -> Axml_schema.Symbol.t -> bool;
  moves :
    'n -> Axml_schema.Symbol.t -> keep:('n -> bool) ->
    invoke:(string -> 'n -> bool) -> bool;
  leave : 'n -> 'n option;
  accepting : 'n -> bool;
}
(** A solved game as the walk sees it, over nodes of its own: [good]
    says a node may be stood on; [has_fork n sym] whether an item of
    [sym] at [n] has a fork option; [moves n sym ~keep ~invoke] offers
    the target of each keep move, then each fork (the function to call
    and the start of its copy), in the strategy's order, until one
    answers [true]; [leave] leaves a copy from a final position, back
    to where it was invoked; [accepting] says the whole word has been
    read into a final state. *)

val walk :
  ?validate:(string -> Axml_core.Document.forest -> bool) ->
  ?reenforce:(string -> Axml_core.Document.forest -> Axml_core.Document.forest option) ->
  possible:bool -> 'n game -> 'n -> Axml_core.Execute.invoker -> Axml_core.Document.forest ->
  (Axml_core.Execute.outcome, Axml_core.Execute.failure) result
(** [walk ~possible game initial invoker items] has the contract of
    [Axml_core.Execute.run] over any game; [possible] says it is Figure
    9's, whose walks may die on actual answers. It touches no
    metric and emits no trace event. *)
